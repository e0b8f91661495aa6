type proto = Tcp | Udp

type t = {
  mutable buf : bytes;
  mutable len : int;
  mutable outer : Encap_header.t list;
  mutable fid : int;
  mutable ingress_cycle : int;
}

let default_src_mac = Mac.of_string "02:00:00:00:00:01"

let default_dst_mac = Mac.of_string "02:00:00:00:00:02"

let l2_offset t = List.fold_left (fun acc h -> acc + Encap_header.size h) 0 t.outer

let l3_offset t = l2_offset t + Ethernet.header_size

let l4_offset t = l3_offset t + Ipv4.header_size

let proto t =
  match Ipv4.get_proto t.buf (l3_offset t) with
  | 6 -> Tcp
  | 17 -> Udp
  | p -> invalid_arg (Printf.sprintf "Packet.proto: unsupported protocol %d" p)

let l4_header_size t = match proto t with Tcp -> Tcp.header_size | Udp -> Udp.header_size

(* The IPv4 header is checked before its protocol byte is read, so a frame
   cut anywhere is judged without reading past [len]. *)
let headers_fit t =
  let l4 = l4_offset t in
  t.len >= l4
  &&
  match Ipv4.get_proto t.buf (l4 - Ipv4.header_size) with
  | 6 -> t.len >= l4 + Tcp.header_size
  | 17 -> t.len >= l4 + Udp.header_size
  | _ -> true

let payload_offset t = l4_offset t + l4_header_size t

let build ~ip_proto ~l4_size ~payload ~ttl ~tos ~src_mac ~dst_mac ~src ~dst write_l4 =
  let payload_len = String.length payload in
  let ip_len = Ipv4.header_size + l4_size + payload_len in
  let len = Ethernet.header_size + ip_len in
  let buf = Bytes.create len in
  Ethernet.write buf 0 { dst = dst_mac; src = src_mac; ethertype = Ethernet.ethertype_ipv4 };
  Ipv4.write buf Ethernet.header_size
    {
      tos;
      total_length = ip_len;
      ident = 0;
      flags_fragment = 0x4000 (* DF *);
      ttl;
      proto = ip_proto;
      checksum = 0;
      src;
      dst;
    };
  let l4_off = Ethernet.header_size + Ipv4.header_size in
  write_l4 buf l4_off;
  Bytes_codec.blit_string payload buf (l4_off + l4_size);
  Ipv4.update_checksum buf Ethernet.header_size;
  { buf; len; outer = []; fid = -1; ingress_cycle = 0 }

let tcp ?(payload = "") ?(flags = Tcp.Flags.ack) ?(ttl = 64) ?(tos = 0) ?(seq = 0l)
    ?(src_mac = default_src_mac) ?(dst_mac = default_dst_mac) ~src ~dst ~src_port ~dst_port () =
  let l4_len = Tcp.header_size + String.length payload in
  let t =
    build ~ip_proto:Ipv4.proto_tcp ~l4_size:Tcp.header_size ~payload ~ttl ~tos ~src_mac
      ~dst_mac ~src ~dst (fun buf off ->
        Tcp.write buf off
          { src_port; dst_port; seq; ack = 0l; flags; window = 65535; checksum = 0 })
  in
  Tcp.update_checksum t.buf (l4_offset t) ~src ~dst ~l4_len;
  t

let udp ?(payload = "") ?(ttl = 64) ?(tos = 0) ?(src_mac = default_src_mac)
    ?(dst_mac = default_dst_mac) ~src ~dst ~src_port ~dst_port () =
  let l4_len = Udp.header_size + String.length payload in
  let t =
    build ~ip_proto:Ipv4.proto_udp ~l4_size:Udp.header_size ~payload ~ttl ~tos ~src_mac
      ~dst_mac ~src ~dst (fun buf off ->
        Udp.write buf off { src_port; dst_port; length = l4_len; checksum = 0 })
  in
  Udp.update_checksum t.buf (l4_offset t) ~src ~dst ~l4_len;
  t

let copy t =
  {
    buf = Bytes.sub t.buf 0 t.len;
    len = t.len;
    outer = t.outer;
    fid = t.fid;
    ingress_cycle = t.ingress_cycle;
  }

let scratch () = { buf = Bytes.create 128; len = 0; outer = []; fid = -1; ingress_cycle = 0 }

(* The hot loop's substitute for [copy]: the destination's buffer is kept
   and only regrown when too small, so replaying a template packet into a
   scratch allocates nothing in the steady state. *)
let copy_into ~src ~dst =
  if Bytes.length dst.buf < src.len then dst.buf <- Bytes.create src.len;
  Bytes.blit src.buf 0 dst.buf 0 src.len;
  dst.len <- src.len;
  dst.outer <- src.outer;
  dst.fid <- src.fid;
  dst.ingress_cycle <- src.ingress_cycle

let get_field t field =
  let l3 = l3_offset t in
  let l4 = l4_offset t in
  match field with
  | Field.Src_ip -> Field.Ip (Ipv4.get_src t.buf l3)
  | Field.Dst_ip -> Field.Ip (Ipv4.get_dst t.buf l3)
  | Field.Src_port ->
      Field.Port
        (match proto t with
        | Tcp -> Tcp.get_src_port t.buf l4
        | Udp -> Udp.get_src_port t.buf l4)
  | Field.Dst_port ->
      Field.Port
        (match proto t with
        | Tcp -> Tcp.get_dst_port t.buf l4
        | Udp -> Udp.get_dst_port t.buf l4)
  | Field.Ttl -> Field.Int (Ipv4.get_ttl t.buf l3)
  | Field.Tos -> Field.Int (Ipv4.get_tos t.buf l3)
  | Field.Src_mac -> Field.Mac (Ethernet.get_src t.buf (l2_offset t))
  | Field.Dst_mac -> Field.Mac (Ethernet.get_dst t.buf (l2_offset t))

let set_field t field value =
  if not (Field.value_compatible field value) then
    invalid_arg
      (Format.asprintf "Packet.set_field: value %a incompatible with field %a" Field.pp_value
         value Field.pp field);
  let l2 = l2_offset t in
  let l3 = l2 + Ethernet.header_size in
  let l4 = l3 + Ipv4.header_size in
  match (field, value) with
  | Field.Src_ip, Field.Ip a -> Ipv4.set_src t.buf l3 a
  | Field.Dst_ip, Field.Ip a -> Ipv4.set_dst t.buf l3 a
  | Field.Src_port, Field.Port p -> (
      match proto t with
      | Tcp -> Tcp.set_src_port t.buf l4 p
      | Udp -> Udp.set_src_port t.buf l4 p)
  | Field.Dst_port, Field.Port p -> (
      match proto t with
      | Tcp -> Tcp.set_dst_port t.buf l4 p
      | Udp -> Udp.set_dst_port t.buf l4 p)
  | Field.Ttl, Field.Int v -> Ipv4.set_ttl t.buf l3 v
  | Field.Tos, Field.Int v -> Ipv4.set_tos t.buf l3 v
  | Field.Src_mac, Field.Mac m -> Ethernet.set_src t.buf l2 m
  | Field.Dst_mac, Field.Mac m -> Ethernet.set_dst t.buf l2 m
  | ( ( Field.Src_ip | Field.Dst_ip | Field.Src_port | Field.Dst_port | Field.Ttl | Field.Tos
      | Field.Src_mac | Field.Dst_mac ),
      _ ) ->
      (* value_compatible already rejected mismatches *)
      assert false

(* RFC 1624 variant of [set_field]+[fix_checksums] for a whole set list:
   each write folds its 16-bit delta into the stored IPv4 and L4 checksums
   instead of re-summing anything (O(fields), not O(payload)).
   Bit-identical to the full recompute — including the negative-zero
   normalisation [Checksum.finish] applies — whenever the stored checksums
   matched the packet bytes beforehand.  Returns [false] without touching
   the packet when the stored L4 checksum is zero (UDP's "not computed"
   convention), where only a full recompute can reconstruct the sum. *)
(* Both running checksums ride in one int — L4 in bits 16..31, IPv4 in
   bits 0..15 — so the fold over the set list is a top-level loop with no
   refs and no closures, allocating nothing per packet. *)
let fix_l4 both ~old_word ~new_word =
  (Checksum.incremental ~old_checksum:(both lsr 16) ~old_word ~new_word lsl 16)
  lor (both land 0xffff)

let fix_ip both ~old_word ~new_word =
  both land lnot 0xffff
  lor Checksum.incremental ~old_checksum:(both land 0xffff) ~old_word ~new_word

(* A 32-bit rewrite as its two 16-bit halves (RFC 1624 per word), into
   both sums: addresses sit in the IPv4 header and the L4 pseudo-header.
   [old_hi]/[old_lo] are read straight from the buffer as ints. *)
let fix_addr both ~old_hi ~old_lo (a : Ipv4_addr.t) =
  let new_hi = (a :> int) lsr 16 and new_lo = (a :> int) land 0xffff in
  let both = fix_l4 both ~old_word:old_hi ~new_word:new_hi in
  let both = fix_l4 both ~old_word:old_lo ~new_word:new_lo in
  let both = fix_ip both ~old_word:old_hi ~new_word:new_hi in
  fix_ip both ~old_word:old_lo ~new_word:new_lo

let rec apply_sets_from buf pr l2 l3 l4 both = function
  | [] -> both
  | (field, value) :: rest ->
      if not (Field.value_compatible field value) then
        invalid_arg
          (Format.asprintf "Packet.set_field: value %a incompatible with field %a"
             Field.pp_value value Field.pp field);
      let both =
        match (field, value) with
        | Field.Src_ip, Field.Ip a ->
            let old_hi = Bytes_codec.get_u16 buf (l3 + 12)
            and old_lo = Bytes_codec.get_u16 buf (l3 + 14) in
            Ipv4.set_src buf l3 a;
            fix_addr both ~old_hi ~old_lo a
        | Field.Dst_ip, Field.Ip a ->
            let old_hi = Bytes_codec.get_u16 buf (l3 + 16)
            and old_lo = Bytes_codec.get_u16 buf (l3 + 18) in
            Ipv4.set_dst buf l3 a;
            fix_addr both ~old_hi ~old_lo a
        | Field.Src_port, Field.Port p -> (
            match pr with
            | Tcp ->
                let old_word = Tcp.get_src_port buf l4 in
                Tcp.set_src_port buf l4 p;
                fix_l4 both ~old_word ~new_word:p
            | Udp ->
                let old_word = Udp.get_src_port buf l4 in
                Udp.set_src_port buf l4 p;
                fix_l4 both ~old_word ~new_word:p)
        | Field.Dst_port, Field.Port p -> (
            match pr with
            | Tcp ->
                let old_word = Tcp.get_dst_port buf l4 in
                Tcp.set_dst_port buf l4 p;
                fix_l4 both ~old_word ~new_word:p
            | Udp ->
                let old_word = Udp.get_dst_port buf l4 in
                Udp.set_dst_port buf l4 p;
                fix_l4 both ~old_word ~new_word:p)
        (* TTL and TOS are outside the pseudo-header (no L4 delta) but
           inside the IPv4 header; each shares its 16-bit word with a
           neighbouring byte.  MACs touch no checksum at all. *)
        | Field.Ttl, Field.Int v ->
            let old_word = Bytes_codec.get_u16 buf (l3 + 8) in
            Ipv4.set_ttl buf l3 v;
            fix_ip both ~old_word ~new_word:(Bytes_codec.get_u16 buf (l3 + 8))
        | Field.Tos, Field.Int v ->
            let old_word = Bytes_codec.get_u16 buf l3 in
            Ipv4.set_tos buf l3 v;
            fix_ip both ~old_word ~new_word:(Bytes_codec.get_u16 buf l3)
        | Field.Src_mac, Field.Mac m ->
            Ethernet.set_src buf l2 m;
            both
        | Field.Dst_mac, Field.Mac m ->
            Ethernet.set_dst buf l2 m;
            both
        | ( ( Field.Src_ip | Field.Dst_ip | Field.Src_port | Field.Dst_port | Field.Ttl
            | Field.Tos | Field.Src_mac | Field.Dst_mac ),
            _ ) ->
            assert false
      in
      apply_sets_from buf pr l2 l3 l4 both rest

let apply_sets_incremental t sets =
  let l2 = l2_offset t in
  let l3 = l2 + Ethernet.header_size in
  let l4 = l3 + Ipv4.header_size in
  let pr = proto t in
  let csum_off = match pr with Tcp -> l4 + 16 | Udp -> l4 + 6 in
  let stored = Bytes_codec.get_u16 t.buf csum_off in
  let stored_ip = Ipv4.get_checksum t.buf l3 in
  (* [Checksum.finish] never produces zero, so a zero here means "never
     computed" — only the full re-sum can build it from scratch. *)
  if stored = 0 || stored_ip = 0 then false
  else begin
    let both = apply_sets_from t.buf pr l2 l3 l4 ((stored lsl 16) lor stored_ip) sets in
    let csum = both lsr 16 and ipc = both land 0xffff in
    Bytes_codec.set_u16 t.buf csum_off (if csum = 0 then 0xffff else csum);
    Bytes_codec.set_u16 t.buf (l3 + 10) (if ipc = 0 then 0xffff else ipc);
    true
  end

let src_ip t = Ipv4.get_src t.buf (l3_offset t)

let dst_ip t = Ipv4.get_dst t.buf (l3_offset t)

let src_port t =
  let l4 = l4_offset t in
  match proto t with Tcp -> Tcp.get_src_port t.buf l4 | Udp -> Udp.get_src_port t.buf l4

let dst_port t =
  let l4 = l4_offset t in
  match proto t with Tcp -> Tcp.get_dst_port t.buf l4 | Udp -> Udp.get_dst_port t.buf l4

let ttl t = Ipv4.get_ttl t.buf (l3_offset t)

let tcp_flags t =
  match proto t with
  | Tcp -> Tcp.get_flags t.buf (l4_offset t)
  | Udp -> invalid_arg "Packet.tcp_flags: UDP packet"

let tcp_flag_bits t =
  match proto t with
  | Tcp -> Tcp.get_flag_bits t.buf (l4_offset t)
  | Udp -> invalid_arg "Packet.tcp_flags: UDP packet"

let payload_length t = t.len - payload_offset t

let payload t = Bytes.sub_string t.buf (payload_offset t) (payload_length t)

let payload_bytes t = (t.buf, payload_offset t, payload_length t)

let set_payload_byte t i c =
  let off = payload_offset t in
  if i < 0 || i >= t.len - off then invalid_arg "Packet.set_payload_byte: index out of range";
  Bytes.set t.buf (off + i) c

let blit_payload t s =
  let off = payload_offset t in
  if String.length s > t.len - off then invalid_arg "Packet.blit_payload: payload too long";
  Bytes_codec.blit_string s t.buf off

let encap t header =
  let hdr = Encap_header.encode header in
  let hlen = String.length hdr in
  let buf = Bytes.create (t.len + hlen) in
  Bytes_codec.blit_string hdr buf 0;
  Bytes.blit t.buf 0 buf hlen t.len;
  t.buf <- buf;
  t.len <- t.len + hlen;
  t.outer <- header :: t.outer

let decap t =
  match t.outer with
  | [] -> invalid_arg "Packet.decap: no outer header"
  | header :: rest ->
      let hlen = Encap_header.size header in
      t.buf <- Bytes.sub t.buf hlen (t.len - hlen);
      t.len <- t.len - hlen;
      t.outer <- rest;
      header

let outer_stack t = t.outer

let l4_len t = t.len - l4_offset t

let fix_checksums t =
  let l3 = l3_offset t in
  let l4 = l4_offset t in
  let src = Ipv4.get_src t.buf l3 and dst = Ipv4.get_dst t.buf l3 in
  Ipv4.update_checksum t.buf l3;
  match proto t with
  | Tcp -> Tcp.update_checksum t.buf l4 ~src ~dst ~l4_len:(l4_len t)
  | Udp -> Udp.update_checksum t.buf l4 ~src ~dst ~l4_len:(l4_len t)

let checksums_ok t =
  let l3 = l3_offset t in
  let l4 = l4_offset t in
  let src = Ipv4.get_src t.buf l3 and dst = Ipv4.get_dst t.buf l3 in
  Ipv4.checksum_ok t.buf l3
  &&
  match proto t with
  | Tcp -> Tcp.checksum_ok t.buf l4 ~src ~dst ~l4_len:(l4_len t)
  | Udp -> Udp.checksum_ok t.buf l4 ~src ~dst ~l4_len:(l4_len t)

let wire t = Bytes.sub_string t.buf 0 t.len

let equal_wire a b = a.len = b.len && String.equal (wire a) (wire b)

let pp fmt t =
  let l3 = l3_offset t in
  Format.fprintf fmt "@[<h>pkt(fid=%d len=%d %a" t.fid t.len Ipv4.pp (Ipv4.parse t.buf l3);
  (match proto t with
  | Tcp -> Format.fprintf fmt " %a" Tcp.pp (Tcp.parse t.buf (l4_offset t))
  | Udp -> Format.fprintf fmt " %a" Udp.pp (Udp.parse t.buf (l4_offset t)));
  List.iter (fun h -> Format.fprintf fmt " +%a" Encap_header.pp h) t.outer;
  Format.fprintf fmt ")@]"
