(** The Internet checksum (RFC 1071): 16-bit one's complement of the one's
    complement sum, used by IPv4, TCP and UDP. *)

val ones_complement_sum : bytes -> int -> int -> int
(** [ones_complement_sum buf off len] folds the region into a 16-bit one's
    complement sum (without the final negation).  An odd trailing byte is
    padded with zero, as the RFC specifies. *)

val finish : int -> int
(** [finish sum] negates the folded sum, mapping the all-ones corner case to
    [0xffff] so a checksum of zero is never emitted for UDP. *)

val compute : bytes -> int -> int -> int
(** [compute buf off len] is [finish (ones_complement_sum buf off len)]. *)

val pseudo_header_sum :
  src:Ipv4_addr.t -> dst:Ipv4_addr.t -> proto:int -> l4_len:int -> int
(** One's complement sum of the TCP/UDP pseudo header, to be combined with
    the layer-4 segment sum before [finish]. *)

val add : int -> int -> int
(** One's complement addition of two partial sums. *)

val incremental : old_checksum:int -> old_word:int -> new_word:int -> int
(** RFC 1624 incremental update: the checksum after one 16-bit word of the
    covered data changes from [old_word] to [new_word] — what a NAT's
    header rewrite actually computes instead of re-summing the packet
    ([HC' = ~(~HC + ~m + m')]).  Apply twice for a 32-bit field.  The
    equality with a full recompute is property-tested. *)

val incremental32 : old_checksum:int -> old_word:Ipv4_addr.t -> new_word:Ipv4_addr.t -> int
(** [incremental] applied to both halves of a 32-bit field (an IPv4
    address change). *)
