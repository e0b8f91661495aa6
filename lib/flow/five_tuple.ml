open Sb_packet

type t = {
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  proto : int;
}

let unsupported proto =
  invalid_arg (Printf.sprintf "Packet.proto: unsupported protocol %d" proto)

(* Field-by-field [Packet] accessors would re-derive the layout (outer
   stack fold, protocol read) per field; this runs once per packet, so the
   offsets are computed once and the five reads go straight to the buffer.
   TCP and UDP both open with the source and destination ports, so the
   port reads need no protocol dispatch. *)
let of_packet p =
  let buf = p.Packet.buf in
  let l3 = Packet.l3_offset p in
  let l4 = l3 + Ipv4.header_size in
  let proto = Ipv4.get_proto buf l3 in
  if proto <> 6 && proto <> 17 then unsupported proto;
  {
    src_ip = Ipv4.get_src buf l3;
    dst_ip = Ipv4.get_dst buf l3;
    src_port = Tcp.get_src_port buf l4;
    dst_port = Tcp.get_dst_port buf l4;
    proto;
  }

let admits p =
  Packet.headers_fit p
  &&
  let proto = Ipv4.get_proto p.Packet.buf (Packet.l3_offset p) in
  proto = 6 || proto = 17

let of_packet_opt p = if admits p then Some (of_packet p) else None

let dummy =
  {
    src_ip = Ipv4_addr.of_int 0;
    dst_ip = Ipv4_addr.of_int 0;
    src_port = 0;
    dst_port = 0;
    proto = 0;
  }

let reverse t =
  { t with src_ip = t.dst_ip; dst_ip = t.src_ip; src_port = t.dst_port; dst_port = t.src_port }

let compare a b =
  let c = Ipv4_addr.compare a.src_ip b.src_ip in
  if c <> 0 then c
  else
    let c = Ipv4_addr.compare a.dst_ip b.dst_ip in
    if c <> 0 then c
    else
      let c = Int.compare a.src_port b.src_port in
      if c <> 0 then c
      else
        let c = Int.compare a.dst_port b.dst_port in
        if c <> 0 then c else Int.compare a.proto b.proto

let equal a b = compare a b = 0

(* The 104-bit tuple packs into two OCaml ints (56 + 48 bits), which is
   how the SoA flow tables store keys: two adjacent int-array cells per
   entry, no boxed record to chase. *)
let pack1 t = ((t.src_ip :> int) lsl 24) lor (t.src_port lsl 8) lor t.proto

let pack2 t = ((t.dst_ip :> int) lsl 16) lor t.dst_port

let of_packed k1 k2 =
  {
    src_ip = Ipv4_addr.of_int (k1 lsr 24);
    dst_ip = Ipv4_addr.of_int (k2 lsr 16);
    src_port = (k1 lsr 8) land 0xFFFF;
    dst_port = k2 land 0xFFFF;
    proto = k1 land 0xFF;
  }

(* The reverse swaps the address-and-port halves; the protocol stays. *)
let reverse_pack1 k1 k2 = ((k2 lsr 16) lsl 24) lor ((k2 land 0xFFFF) lsl 8) lor (k1 land 0xFF)

let reverse_pack2 k1 _ = ((k1 lsr 24) lsl 16) lor ((k1 lsr 8) land 0xFFFF)

(* [pack1]/[pack2] of [of_packet p], read field by field from the packet's
   current bytes: a few loads, no tuple. *)
let packet_pack1 p =
  let buf = p.Packet.buf in
  let l3 = Packet.l3_offset p in
  let proto = Ipv4.get_proto buf l3 in
  if proto <> 6 && proto <> 17 then unsupported proto;
  ((Ipv4.get_src buf l3 :> int) lsl 24)
  lor (Tcp.get_src_port buf (l3 + Ipv4.header_size) lsl 8)
  lor proto

let packet_pack2 p =
  let buf = p.Packet.buf in
  let l3 = Packet.l3_offset p in
  ((Ipv4.get_dst buf l3 :> int) lsl 16) lor Tcp.get_dst_port buf (l3 + Ipv4.header_size)

(* FNV-1a over the 13 wire bytes of the tuple — source address, destination
   address, source port, destination port, protocol — each taken from its
   place in the packed pair.  [mix] keeps the low byte of what it is given,
   so shifting a packed int right selects a byte. *)
let fnv_prime = 0x100000001b3

let fnv_basis = 0x3bf29ce484222325 (* FNV offset basis truncated to 62 bits *)

let[@inline] mix h byte = (h lxor (byte land 0xff)) * fnv_prime

let hash_packed k1 k2 =
  let h = mix (mix (mix (mix fnv_basis (k1 lsr 48)) (k1 lsr 40)) (k1 lsr 32)) (k1 lsr 24) in
  let h = mix (mix (mix (mix h (k2 lsr 40)) (k2 lsr 32)) (k2 lsr 24)) (k2 lsr 16) in
  let h = mix (mix h (k1 lsr 16)) (k1 lsr 8) in
  let h = mix (mix h (k2 lsr 8)) k2 in
  mix h k1 land max_int

let hash t = hash_packed (pack1 t) (pack2 t)

let packet_hash p = hash_packed (packet_pack1 p) (packet_pack2 p)

let pp fmt t =
  Format.fprintf fmt "%a:%d -> %a:%d/%s" Ipv4_addr.pp t.src_ip t.src_port Ipv4_addr.pp
    t.dst_ip t.dst_port
    (match t.proto with 6 -> "tcp" | 17 -> "udp" | p -> string_of_int p)

(* [pp]'s characters, one at a time: decimal numbers most significant
   digit first, addresses as dotted quads. *)
let rec fold_digits f acc n =
  let acc = if n < 10 then acc else fold_digits f acc (n / 10) in
  f acc (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let fold_int f acc n =
  if n < 0 then String.fold_left f acc (string_of_int n) else fold_digits f acc n

let fold_addr f acc (a : Ipv4_addr.t) =
  let x = (a :> int) in
  let acc = f (fold_digits f acc (x lsr 24)) '.' in
  let acc = f (fold_digits f acc ((x lsr 16) land 0xff)) '.' in
  let acc = f (fold_digits f acc ((x lsr 8) land 0xff)) '.' in
  fold_digits f acc (x land 0xff)

let fold_printed f acc t =
  let acc = f (fold_addr f acc t.src_ip) ':' in
  let acc = String.fold_left f (fold_int f acc t.src_port) " -> " in
  let acc = f (fold_addr f acc t.dst_ip) ':' in
  let acc = f (fold_int f acc t.dst_port) '/' in
  match t.proto with
  | 6 -> String.fold_left f acc "tcp"
  | 17 -> String.fold_left f acc "udp"
  | p -> fold_int f acc p
