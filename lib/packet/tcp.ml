let header_size = 20

let fin_bit = 0x01

let syn_bit = 0x02

let rst_bit = 0x04

let psh_bit = 0x08

let ack_bit = 0x10

let urg_bit = 0x20

module Flags = struct
  type t = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

  let none = { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

  let syn = { none with syn = true }

  let syn_ack = { none with syn = true; ack = true }

  let ack = { none with ack = true }

  let fin_ack = { none with fin = true; ack = true }

  let rst = { none with rst = true }

  let to_int { syn; ack; fin; rst; psh; urg } =
    (if fin then fin_bit else 0)
    lor (if syn then syn_bit else 0)
    lor (if rst then rst_bit else 0)
    lor (if psh then psh_bit else 0)
    lor (if ack then ack_bit else 0)
    lor if urg then urg_bit else 0

  let of_int v =
    {
      fin = v land fin_bit <> 0;
      syn = v land syn_bit <> 0;
      rst = v land rst_bit <> 0;
      psh = v land psh_bit <> 0;
      ack = v land ack_bit <> 0;
      urg = v land urg_bit <> 0;
    }

  let pp fmt t =
    let names =
      List.filter_map
        (fun (b, n) -> if b then Some n else None)
        [ (t.syn, "SYN"); (t.ack, "ACK"); (t.fin, "FIN"); (t.rst, "RST"); (t.psh, "PSH"); (t.urg, "URG") ]
    in
    Format.pp_print_string fmt (if names = [] then "-" else String.concat "|" names)
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

let get_src_port buf off = Bytes_codec.get_u16 buf off

let set_src_port buf off v = Bytes_codec.set_u16 buf off v

let get_dst_port buf off = Bytes_codec.get_u16 buf (off + 2)

let set_dst_port buf off v = Bytes_codec.set_u16 buf (off + 2) v

let get_seq buf off = Bytes_codec.get_u32 buf (off + 4)

let get_flag_bits buf off = Bytes_codec.get_u8 buf (off + 13)

let get_flags buf off = Flags.of_int (get_flag_bits buf off)

let set_flags buf off f = Bytes_codec.set_u8 buf (off + 13) (Flags.to_int f)

let parse buf off =
  {
    src_port = get_src_port buf off;
    dst_port = get_dst_port buf off;
    seq = Int32.of_int (get_seq buf off);
    ack = Int32.of_int (Bytes_codec.get_u32 buf (off + 8));
    flags = get_flags buf off;
    window = Bytes_codec.get_u16 buf (off + 14);
    checksum = Bytes_codec.get_u16 buf (off + 16);
  }

let write buf off t =
  set_src_port buf off t.src_port;
  set_dst_port buf off t.dst_port;
  Bytes_codec.set_u32 buf (off + 4) (Int32.to_int t.seq);
  Bytes_codec.set_u32 buf (off + 8) (Int32.to_int t.ack);
  Bytes_codec.set_u8 buf (off + 12) 0x50;
  set_flags buf off t.flags;
  Bytes_codec.set_u16 buf (off + 14) t.window;
  Bytes_codec.set_u16 buf (off + 16) t.checksum;
  Bytes_codec.set_u16 buf (off + 18) 0

let segment_sum buf off ~src ~dst ~l4_len =
  Checksum.add
    (Checksum.pseudo_header_sum ~src ~dst ~proto:6 ~l4_len)
    (Checksum.ones_complement_sum buf off l4_len)

let update_checksum buf off ~src ~dst ~l4_len =
  Bytes_codec.set_u16 buf (off + 16) 0;
  Bytes_codec.set_u16 buf (off + 16) (Checksum.finish (segment_sum buf off ~src ~dst ~l4_len))

let checksum_ok buf off ~src ~dst ~l4_len = segment_sum buf off ~src ~dst ~l4_len = 0xffff

let pp fmt t =
  Format.fprintf fmt "tcp %d -> %d [%a] seq=%ld" t.src_port t.dst_port Flags.pp t.flags t.seq
