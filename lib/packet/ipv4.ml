let header_size = 20

let proto_tcp = 6

let proto_udp = 17

type t = {
  tos : int;
  total_length : int;
  ident : int;
  flags_fragment : int;
  ttl : int;
  proto : int;
  checksum : int;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
}

let get_tos buf off = Bytes_codec.get_u8 buf (off + 1)

let set_tos buf off v = Bytes_codec.set_u8 buf (off + 1) v

let get_total_length buf off = Bytes_codec.get_u16 buf (off + 2)

let set_total_length buf off v = Bytes_codec.set_u16 buf (off + 2) v

let get_ttl buf off = Bytes_codec.get_u8 buf (off + 8)

let set_ttl buf off v = Bytes_codec.set_u8 buf (off + 8) v

let get_proto buf off = Bytes_codec.get_u8 buf (off + 9)

let get_checksum buf off = Bytes_codec.get_u16 buf (off + 10)

let get_src buf off = Ipv4_addr.of_int (Bytes_codec.get_u32 buf (off + 12))

let set_src buf off (v : Ipv4_addr.t) = Bytes_codec.set_u32 buf (off + 12) (v :> int)

let get_dst buf off = Ipv4_addr.of_int (Bytes_codec.get_u32 buf (off + 16))

let set_dst buf off (v : Ipv4_addr.t) = Bytes_codec.set_u32 buf (off + 16) (v :> int)

let parse buf off =
  let vihl = Bytes_codec.get_u8 buf off in
  if vihl <> 0x45 then
    invalid_arg (Printf.sprintf "Ipv4.parse: unsupported version/IHL byte 0x%02x" vihl);
  {
    tos = get_tos buf off;
    total_length = get_total_length buf off;
    ident = Bytes_codec.get_u16 buf (off + 4);
    flags_fragment = Bytes_codec.get_u16 buf (off + 6);
    ttl = get_ttl buf off;
    proto = get_proto buf off;
    checksum = get_checksum buf off;
    src = get_src buf off;
    dst = get_dst buf off;
  }

let write buf off t =
  Bytes_codec.set_u8 buf off 0x45;
  set_tos buf off t.tos;
  set_total_length buf off t.total_length;
  Bytes_codec.set_u16 buf (off + 4) t.ident;
  Bytes_codec.set_u16 buf (off + 6) t.flags_fragment;
  set_ttl buf off t.ttl;
  Bytes_codec.set_u8 buf (off + 9) t.proto;
  Bytes_codec.set_u16 buf (off + 10) t.checksum;
  set_src buf off t.src;
  set_dst buf off t.dst

let update_checksum buf off =
  Bytes_codec.set_u16 buf (off + 10) 0;
  let c = Checksum.compute buf off header_size in
  Bytes_codec.set_u16 buf (off + 10) c

let checksum_ok buf off = Checksum.ones_complement_sum buf off header_size = 0xffff

let pp fmt t =
  Format.fprintf fmt "ipv4 %a -> %a proto=%d ttl=%d len=%d" Ipv4_addr.pp t.src Ipv4_addr.pp
    t.dst t.proto t.ttl t.total_length
