open Sb_packet

type t = {
  src_ip : Ipv4_addr.t;
  dst_ip : Ipv4_addr.t;
  src_port : int;
  dst_port : int;
  proto : int;
}

(* Field-by-field [Packet] accessors would re-derive the layout (outer
   stack fold, protocol read) per field; this runs once per packet, so the
   offsets are computed once and the five reads go straight to the buffer. *)
let of_packet p =
  let buf = p.Packet.buf in
  let l3 = Packet.l3_offset p in
  let l4 = l3 + Ipv4.header_size in
  let proto = Ipv4.get_proto buf l3 in
  if proto <> 6 && proto <> 17 then
    invalid_arg (Printf.sprintf "Packet.proto: unsupported protocol %d" proto);
  {
    src_ip = Ipv4.get_src buf l3;
    dst_ip = Ipv4.get_dst buf l3;
    src_port = (if proto = 6 then Tcp.get_src_port buf l4 else Udp.get_src_port buf l4);
    dst_port = (if proto = 6 then Tcp.get_dst_port buf l4 else Udp.get_dst_port buf l4);
    proto;
  }

let of_packet_opt p =
  let buf = p.Packet.buf in
  let l3 = Packet.l3_offset p in
  let proto = Ipv4.get_proto buf l3 in
  if proto <> 6 && proto <> 17 then None else Some (of_packet p)

let dummy = { src_ip = 0l; dst_ip = 0l; src_port = 0; dst_port = 0; proto = 0 }

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

(* FNV-1a over the 13 wire bytes of the tuple.  The running hash is
   threaded through plain top-level functions rather than a ref captured by
   local closures: this runs once per packet, and a closure over a ref is
   two heap blocks per call. *)
let fnv_prime = 0x100000001b3

let fnv_basis = 0x3bf29ce484222325 (* FNV offset basis truncated to 62 bits *)

let[@inline] mix h byte = (h lxor (byte land 0xff)) * fnv_prime

let mix32 h (v : int32) =
  let v = Int32.to_int v in
  mix (mix (mix (mix h (v lsr 24)) (v lsr 16)) (v lsr 8)) v

let hash t =
  let h = mix32 (mix32 fnv_basis t.src_ip) t.dst_ip in
  let h = mix (mix h (t.src_port lsr 8)) t.src_port in
  let h = mix (mix h (t.dst_port lsr 8)) t.dst_port in
  mix h t.proto land max_int

(* The 104-bit tuple packs into two OCaml ints (56 + 48 bits), which is
   how the SoA flow tables store keys: two adjacent int-array cells per
   entry, no boxed record and no boxed [int32] fields to chase. *)
let pack1 t =
  ((Int32.to_int t.src_ip land 0xFFFFFFFF) lsl 24) lor (t.src_port lsl 8) lor t.proto

let pack2 t = ((Int32.to_int t.dst_ip land 0xFFFFFFFF) lsl 16) lor t.dst_port

let of_packed k1 k2 =
  {
    src_ip = Int32.of_int (k1 lsr 24);
    dst_ip = Int32.of_int (k2 lsr 16);
    src_port = (k1 lsr 8) land 0xFFFF;
    dst_port = k2 land 0xFFFF;
    proto = k1 land 0xFF;
  }

let pp fmt t =
  Format.fprintf fmt "%a:%d -> %a:%d/%s" Ipv4_addr.pp t.src_ip t.src_port Ipv4_addr.pp
    t.dst_ip t.dst_port
    (match t.proto with 6 -> "tcp" | 17 -> "udp" | p -> string_of_int p)
