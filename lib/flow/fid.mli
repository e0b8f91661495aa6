(** Flow identifiers.

    The SpeedyBox Packet Classifier hashes the 5-tuple of an arriving packet
    to a 20-bit FID and attaches it to the packet as metadata; the FID stays
    constant along the chain even when NFs rewrite the 5-tuple (§VI-B).
    20 bits represent over one million concurrent flows; the width is
    configurable for the FID-width ablation. *)

type t = int

val default_bits : int
(** 20, as in the paper. *)

val of_tuple : ?bits:int -> Five_tuple.t -> t
(** [of_tuple tuple] hashes to [bits] bits (default {!default_bits}).
    @raise Invalid_argument unless [1 <= bits <= 30]. *)

val of_hash : bits:int -> int -> t
(** [of_hash ~bits (Five_tuple.hash tuple) = of_tuple ~bits tuple] — lets
    a caller that already computed the tuple hash (the classifier computes
    it once per packet and shares it with conntrack) fold it to a FID
    without rehashing the 13 wire bytes.  [bits] is mandatory: an optional
    argument would box a [Some] on every per-packet call.
    @raise Invalid_argument unless [1 <= bits <= 30]. *)

val of_packet : ?bits:int -> Sb_packet.Packet.t -> t

val pp : Format.formatter -> t -> unit
