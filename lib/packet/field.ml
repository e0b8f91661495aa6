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

let all = [ Src_ip; Dst_ip; Src_port; Dst_port; Ttl; Tos; Src_mac; Dst_mac ]

let value_compatible field value =
  match (field, value) with
  | (Src_ip | Dst_ip), Ip _ -> true
  | (Src_port | Dst_port), Port p -> p >= 0 && p <= 0xffff
  | (Ttl | Tos), Int v -> v >= 0 && v <= 0xff
  | (Src_mac | Dst_mac), Mac _ -> true
  | (Src_ip | Dst_ip | Src_port | Dst_port | Ttl | Tos | Src_mac | Dst_mac), _ -> false

let rank = function
  | Src_ip -> 0
  | Dst_ip -> 1
  | Src_port -> 2
  | Dst_port -> 3
  | Ttl -> 4
  | Tos -> 5
  | Src_mac -> 6
  | Dst_mac -> 7

let compare a b = Int.compare (rank a) (rank b)

let equal a b = rank a = rank b

let equal_value a b =
  match (a, b) with
  | Ip x, Ip y -> Ipv4_addr.equal x y
  | Port x, Port y -> x = y
  | Int x, Int y -> x = y
  | Mac x, Mac y -> Mac.equal x y
  | (Ip _ | Port _ | Int _ | Mac _), _ -> false

let to_string = function
  | Src_ip -> "SIP"
  | Dst_ip -> "DIP"
  | Src_port -> "SPort"
  | Dst_port -> "DPort"
  | Ttl -> "TTL"
  | Tos -> "ToS"
  | Src_mac -> "SMac"
  | Dst_mac -> "DMac"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let pp_value fmt = function
  | Ip a -> Ipv4_addr.pp fmt a
  | Port p -> Format.pp_print_int fmt p
  | Int v -> Format.pp_print_int fmt v
  | Mac m -> Mac.pp fmt m
