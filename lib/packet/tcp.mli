(** TCP headers (data offset fixed at 5 words / 20 bytes, no options). *)

val header_size : int

(** The control flags' bits in the raw flags byte. *)

val fin_bit : int
val syn_bit : int
val rst_bit : int
val psh_bit : int
val ack_bit : int
val urg_bit : int

(** TCP control flags as a record of booleans. *)
module Flags : sig
  type t = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

  val none : t
  val syn : t
  val syn_ack : t
  val ack : t
  val fin_ack : t
  val rst : t

  val to_int : t -> int
  val of_int : int -> t
  val pp : Format.formatter -> t -> unit
end

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : Flags.t;
  window : int;
  checksum : int;
}

val parse : bytes -> int -> t
val write : bytes -> int -> t -> unit

val get_src_port : bytes -> int -> int
val set_src_port : bytes -> int -> int -> unit
val get_dst_port : bytes -> int -> int
val set_dst_port : bytes -> int -> int -> unit
val get_flags : bytes -> int -> Flags.t

val get_flag_bits : bytes -> int -> int
(** The raw flags byte (bits {!fin_bit} ... {!urg_bit}), without building
    a {!Flags.t}. *)

val set_flags : bytes -> int -> Flags.t -> unit
val get_seq : bytes -> int -> int
(** The sequence number's 32 bits as an int in [\[0, 2^32)]: the per-packet
    read, with no boxed [int32].  {!parse} gives the [int32] form. *)

val update_checksum :
  bytes -> int -> src:Ipv4_addr.t -> dst:Ipv4_addr.t -> l4_len:int -> unit
(** Recomputes the TCP checksum over pseudo header + segment in place. *)

val checksum_ok :
  bytes -> int -> src:Ipv4_addr.t -> dst:Ipv4_addr.t -> l4_len:int -> bool

val pp : Format.formatter -> t -> unit
