(** The classic 5-tuple flow key: addresses, ports and IP protocol.

    Two forms of the key exist.  The record {!t} (six words, the
    addresses being immediate) is what the slow path, dumps, idle expiry
    and [remove_flow] hand around.  The packed pair ({!pack1}, {!pack2})
    with its {!hash} is what flow tables store and probe; the per-packet
    path reads it straight from the packet's bytes ({!packet_pack1},
    {!packet_pack2}, {!hash_packed}) and builds no record. *)

type t = {
  src_ip : Sb_packet.Ipv4_addr.t;
  dst_ip : Sb_packet.Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  proto : int;  (** IP protocol number, 6 = TCP, 17 = UDP *)
}

val of_packet : Sb_packet.Packet.t -> t
(** Reads the current (possibly already rewritten) header fields.
    @raise Invalid_argument on a non-TCP/UDP packet. *)

val admits : Sb_packet.Packet.t -> bool
(** The frame is TCP or UDP over IPv4 and its [len] covers the outer
    headers, Ethernet, IPv4 and the whole TCP or UDP header.  Every reader
    here assumes it of its packet: on a frame cut short they would read
    past [len].  The classifier rejects any other frame as malformed. *)

val of_packet_opt : Sb_packet.Packet.t -> t option
(** Like {!of_packet} but [None] on a frame {!admits} refuses. *)

val dummy : t
(** An all-zero tuple (protocol 0, so never produced by {!of_packet});
    usable as an array filler. *)

val reverse : t -> t
(** Swaps source and destination; the key of the return direction. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** A well-mixed non-cryptographic hash (FNV-1a over the wire fields),
    used by {!Fid} and flow tables. *)

val pack1 : t -> int
(** Source address, source port and protocol packed into one non-negative
    int (56 bits).  Together with {!pack2} this is the tuple's SoA wire
    form: flow tables store the pair in adjacent int-array cells instead
    of a boxed record. *)

val pack2 : t -> int
(** Destination address and port packed into one non-negative int
    (48 bits). *)

val of_packed : int -> int -> t
(** [of_packed (pack1 t) (pack2 t) = t] — rebuilds the record from its
    packed form (used on cold paths such as idle expiry). *)

val reverse_pack1 : int -> int -> int
(** [reverse_pack1 (pack1 t) (pack2 t) = pack1 (reverse t)]. *)

val reverse_pack2 : int -> int -> int
(** [reverse_pack2 (pack1 t) (pack2 t) = pack2 (reverse t)]. *)

(** {2 Packet-keyed reads}

    The packed key of a packet's {e current} bytes, for per-packet code:
    [packet_pack1 p = pack1 (of_packet p)], [packet_pack2 p = pack2
    (of_packet p)] and [hash_packed (pack1 t) (pack2 t) = hash t], with no
    tuple built.  A flow table probed with these ints finds what a probe
    with the record finds. *)

val packet_pack1 : Sb_packet.Packet.t -> int
(** @raise Invalid_argument on a non-TCP/UDP packet, as {!of_packet}. *)

val packet_pack2 : Sb_packet.Packet.t -> int

val hash_packed : int -> int -> int
(** {!hash} of the tuple with this packed form. *)

val packet_hash : Sb_packet.Packet.t -> int
(** [packet_hash p = hash (of_packet p)]. *)

val pp : Format.formatter -> t -> unit

val fold_printed : ('a -> char -> 'a) -> 'a -> t -> 'a
(** [fold_printed f acc t] folds [f] over the characters {!pp} prints for
    [t], left to right, without building the string: a hash of the
    printed form costs no allocation. *)
