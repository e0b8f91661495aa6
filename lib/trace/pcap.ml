open Sb_packet

let magic = 0xa1b2c3d4

let linktype_ethernet = 1

(* Little-endian scalar IO over Buffer / Bytes. *)

let add_u32le buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let add_u16le buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let cycles_to_us cycles = cycles / 2000 (* 2 GHz *)

let us_to_cycles us = us * 2000

let save path packets =
  List.iter
    (fun p ->
      if Packet.outer_stack p <> [] then
        invalid_arg "Pcap.save: packet carries non-Ethernet outer headers")
    packets;
  let buf = Buffer.create 4096 in
  add_u32le buf magic;
  add_u16le buf 2 (* major *);
  add_u16le buf 4 (* minor *);
  add_u32le buf 0 (* thiszone *);
  add_u32le buf 0 (* sigfigs *);
  add_u32le buf 65535 (* snaplen *);
  add_u32le buf linktype_ethernet;
  List.iter
    (fun p ->
      let us = cycles_to_us p.Packet.ingress_cycle in
      add_u32le buf (us / 1_000_000);
      add_u32le buf (us mod 1_000_000);
      add_u32le buf p.Packet.len (* incl_len *);
      add_u32le buf p.Packet.len (* orig_len *);
      Buffer.add_subbytes buf p.Packet.buf 0 p.Packet.len)
    packets;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

type endian = Le | Be

let read_u32 endian bytes off =
  let b i = Char.code (Bytes.get bytes (off + i)) in
  match endian with
  | Le -> b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
  | Be -> b 3 lor (b 2 lsl 8) lor (b 1 lsl 16) lor (b 0 lsl 24)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      if len < 24 then invalid_arg "Pcap.load: file too short";
      let data = Bytes.create len in
      really_input ic data 0 len;
      let endian =
        if read_u32 Le data 0 = magic then Le
        else if read_u32 Be data 0 = magic then Be
        else invalid_arg "Pcap.load: bad magic"
      in
      if read_u32 endian data 20 <> linktype_ethernet then
        invalid_arg "Pcap.load: unsupported link type (want Ethernet)";
      let rec go off acc =
        if off = len then List.rev acc
        else if off + 16 > len then invalid_arg "Pcap.load: truncated record header"
        else begin
          let sec = read_u32 endian data off in
          let usec = read_u32 endian data (off + 4) in
          let incl = read_u32 endian data (off + 8) in
          let orig = read_u32 endian data (off + 12) in
          if incl <> orig then invalid_arg "Pcap.load: truncated capture";
          if off + 16 + incl > len then invalid_arg "Pcap.load: truncated record";
          let packet =
            {
              Packet.buf = Bytes.sub data (off + 16) incl;
              len = incl;
              outer = [];
              fid = -1;
              ingress_cycle = us_to_cycles ((sec * 1_000_000) + usec);
            }
          in
          go (off + 16 + incl) (packet :: acc)
        end
      in
      go 24 [])
