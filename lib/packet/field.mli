(** Header fields that NFs can modify through the [Modify] header action.

    SpeedyBox standardises modifications to named fields so the Global MAT
    can merge them.  Main-logic fields (addresses and ports) participate in
    consolidation; auxiliary fields (TTL, ToS, MACs) are fixed up at the end
    of consolidation, as §V-B prescribes. *)

type t =
  | Src_ip
  | Dst_ip
  | Src_port
  | Dst_port
  | Ttl
  | Tos
  | Src_mac
  | Dst_mac

type value =
  | Ip of Ipv4_addr.t
  | Port of int
  | Int of int
  | Mac of Mac.t

val all : t list

val value_compatible : t -> value -> bool
(** Whether [value] carries the right payload for the field, e.g. [Ip _]
    for [Src_ip] and [Port _] for [Dst_port]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val equal_value : value -> value -> bool

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val pp_value : Format.formatter -> value -> unit
