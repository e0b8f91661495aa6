type t =
  | Auth of { spi : int32; seq : int32 }
  | Tunnel of { vni : int }
  | Custom of { tag : string; body : string }

let equal a b =
  match (a, b) with
  | Auth { spi = s1; seq = q1 }, Auth { spi = s2; seq = q2 } ->
      Int32.equal s1 s2 && Int32.equal q1 q2
  | Tunnel { vni = v1 }, Tunnel { vni = v2 } -> v1 = v2
  | Custom { tag = t1; body = b1 }, Custom { tag = t2; body = b2 } ->
      String.equal t1 t2 && String.equal b1 b2
  | (Auth _ | Tunnel _ | Custom _), _ -> false

let kind_auth = 0xa411

let kind_tunnel = 0x7e01

let kind_custom = 0xc057

let body_size = function
  | Auth _ -> 8
  | Tunnel _ -> 4
  | Custom { tag; body } -> 2 + String.length tag + String.length body

let size t = 4 + body_size t

let encode t =
  let n = size t in
  let buf = Bytes.create n in
  let kind =
    match t with Auth _ -> kind_auth | Tunnel _ -> kind_tunnel | Custom _ -> kind_custom
  in
  Bytes_codec.set_u16 buf 0 kind;
  Bytes_codec.set_u16 buf 2 (body_size t);
  (match t with
  | Auth { spi; seq } ->
      Bytes_codec.set_u32 buf 4 (Int32.to_int spi);
      Bytes_codec.set_u32 buf 8 (Int32.to_int seq)
  | Tunnel { vni } -> Bytes_codec.set_u32 buf 4 (vni land 0xffffff)
  | Custom { tag; body } ->
      Bytes_codec.set_u16 buf 4 (String.length tag);
      Bytes_codec.blit_string tag buf 6;
      Bytes_codec.blit_string body buf (6 + String.length tag));
  Bytes.to_string buf

let decode buf off =
  let kind = Bytes_codec.get_u16 buf off in
  let blen = Bytes_codec.get_u16 buf (off + 2) in
  let t =
    if kind = kind_auth then
      Auth
        {
          spi = Int32.of_int (Bytes_codec.get_u32 buf (off + 4));
          seq = Int32.of_int (Bytes_codec.get_u32 buf (off + 8));
        }
    else if kind = kind_tunnel then
      Tunnel { vni = Bytes_codec.get_u32 buf (off + 4) land 0xffffff }
    else if kind = kind_custom then begin
      let taglen = Bytes_codec.get_u16 buf (off + 4) in
      let tag = Bytes.sub_string buf (off + 6) taglen in
      let body = Bytes.sub_string buf (off + 6 + taglen) (blen - 2 - taglen) in
      Custom { tag; body }
    end
    else invalid_arg (Printf.sprintf "Encap_header.decode: unknown kind 0x%04x" kind)
  in
  (t, 4 + blen)

let pp fmt = function
  | Auth { spi; seq } -> Format.fprintf fmt "AH(spi=%ld,seq=%ld)" spi seq
  | Tunnel { vni } -> Format.fprintf fmt "TUN(vni=%d)" vni
  | Custom { tag; _ } -> Format.fprintf fmt "HDR(%s)" tag
