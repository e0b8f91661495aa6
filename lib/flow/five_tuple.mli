(** The classic 5-tuple flow key: addresses, ports and IP protocol. *)

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

val of_packet_opt : Sb_packet.Packet.t -> t option
(** Like {!of_packet} but [None] on a non-TCP/UDP packet. *)

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

val pp : Format.formatter -> t -> unit

val fold_printed : ('a -> char -> 'a) -> 'a -> t -> 'a
(** [fold_printed f acc t] folds [f] over the characters {!pp} prints for
    [t], left to right, without building the string: a hash of the
    printed form costs no allocation. *)
