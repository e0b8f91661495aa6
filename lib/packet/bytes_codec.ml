let get_u8 buf off = Char.code (Bytes.get buf off)

let set_u8 buf off v = Bytes.set buf off (Char.chr (v land 0xff))

let get_u16 buf off = Bytes.get_uint16_be buf off

let set_u16 buf off v = Bytes.set_uint16_be buf off (v land 0xffff)

(* Two 16-bit halves: plain int reads and writes, never a boxed [int32]. *)
let get_u32 buf off = (Bytes.get_uint16_be buf off lsl 16) lor Bytes.get_uint16_be buf (off + 2)

let set_u32 buf off v =
  Bytes.set_uint16_be buf off ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be buf (off + 2) (v land 0xffff)

let blit_string s buf off = Bytes.blit_string s 0 buf off (String.length s)
