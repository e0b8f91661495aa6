(* Unit and property tests for the packet substrate. *)
open Sb_packet

let test_bytes_codec () =
  let buf = Bytes.make 16 '\x00' in
  Bytes_codec.set_u8 buf 0 0xab;
  Alcotest.(check int) "u8 roundtrip" 0xab (Bytes_codec.get_u8 buf 0);
  Bytes_codec.set_u16 buf 2 0xbeef;
  Alcotest.(check int) "u16 roundtrip" 0xbeef (Bytes_codec.get_u16 buf 2);
  Alcotest.(check int) "u16 big-endian" 0xbe (Bytes_codec.get_u8 buf 2);
  Bytes_codec.set_u32 buf 4 0xdeadbeef;
  Alcotest.(check int) "u32 roundtrip" 0xdeadbeef (Bytes_codec.get_u32 buf 4);
  Bytes_codec.set_u16 buf 8 0x1ffff;
  Alcotest.(check int) "u16 truncates" 0xffff (Bytes_codec.get_u16 buf 8);
  Alcotest.check_raises "out of bounds raises"
    (Invalid_argument "index out of bounds") (fun () -> ignore (Bytes_codec.get_u16 buf 15))

let test_ipv4_addr () =
  let a = Ipv4_addr.of_string "10.1.2.3" in
  Alcotest.(check string) "roundtrip" "10.1.2.3" (Ipv4_addr.to_string a);
  Alcotest.(check int) "value" 0x0A010203 (a :> int);
  Alcotest.(check bool) "equal" true (Ipv4_addr.equal a (Ipv4_addr.of_octets 10 1 2 3));
  Alcotest.(check bool)
    "unsigned compare" true
    (Ipv4_addr.compare (Ipv4_addr.of_string "200.0.0.1") (Ipv4_addr.of_string "10.0.0.1") > 0);
  let parse s = (Ipv4_addr.of_string_opt s :> int option) in
  Alcotest.(check (option int)) "reject malformed" None (parse "10.1.2");
  Alcotest.(check (option int)) "reject out of range" None (parse "256.1.2.3");
  Alcotest.(check (option int)) "reject junk" None (parse "a.b.c.d")

(* Addresses around 2^31, where an [int32] turns negative: order, prefix
   membership and printing must not notice the sign bit. *)
let test_ipv4_addr_sign_boundary () =
  let below = Ipv4_addr.of_string "127.255.255.255"
  and above = Ipv4_addr.of_string "128.0.0.0"
  and top = Ipv4_addr.of_string "255.255.255.255" in
  Alcotest.(check int) "127.255.255.255" 0x7fff_ffff (below :> int);
  Alcotest.(check int) "128.0.0.0" 0x8000_0000 (above :> int);
  Alcotest.(check int) "255.255.255.255" 0xffff_ffff (top :> int);
  List.iter
    (fun s ->
      Alcotest.(check string) ("round trip " ^ s) s (Ipv4_addr.to_string (Ipv4_addr.of_string s)))
    [ "127.255.255.255"; "128.0.0.0"; "255.255.255.255"; "0.0.0.0" ];
  Alcotest.(check bool) "below < above" true (Ipv4_addr.compare below above < 0);
  Alcotest.(check bool) "above < top" true (Ipv4_addr.compare above top < 0);
  Alcotest.(check bool) "top > below" true (Ipv4_addr.compare top below > 0);
  Alcotest.(check int) "top = top" 0 (Ipv4_addr.compare top (Ipv4_addr.of_octets 255 255 255 255));
  Alcotest.(check bool) "of_int keeps 32 bits" true
    (Ipv4_addr.equal above (Ipv4_addr.of_int (0x1_8000_0000)));
  let matches p a = Ipv4_addr.Prefix.matches (Ipv4_addr.Prefix.of_string p) a in
  Alcotest.(check bool) "128/1 holds 128.0.0.0" true (matches "128.0.0.0/1" above);
  Alcotest.(check bool) "128/1 holds 255.255.255.255" true (matches "128.0.0.0/1" top);
  Alcotest.(check bool) "128/1 lacks 127.255.255.255" false (matches "128.0.0.0/1" below);
  Alcotest.(check bool) "0/1 holds 127.255.255.255" true (matches "0.0.0.0/1" below);
  Alcotest.(check bool) "0/1 lacks 128.0.0.0" false (matches "0.0.0.0/1" above);
  Alcotest.(check bool) "/32 holds itself" true (matches "255.255.255.255/32" top);
  Alcotest.(check bool) "/32 lacks its neighbour" false
    (matches "255.255.255.255/32" (Ipv4_addr.of_string "255.255.255.254"));
  Alcotest.(check bool) "/0 holds all" true (matches "10.0.0.0/0" top);
  Alcotest.(check string) "prefix base masked" "128.0.0.0/1"
    (Ipv4_addr.Prefix.to_string (Ipv4_addr.Prefix.of_string "255.1.2.3/1"))

let test_prefix () =
  let p = Ipv4_addr.Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Ipv4_addr.Prefix.matches p (Ipv4_addr.of_string "10.1.200.3"));
  Alcotest.(check bool) "outside" false (Ipv4_addr.Prefix.matches p (Ipv4_addr.of_string "10.2.0.1"));
  Alcotest.(check string) "normalised" "10.1.0.0/16"
    (Ipv4_addr.Prefix.to_string (Ipv4_addr.Prefix.of_string "10.1.77.8/16"));
  let all = Ipv4_addr.Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "default route matches anything" true
    (Ipv4_addr.Prefix.matches all (Ipv4_addr.of_string "203.0.113.9"));
  let host = Ipv4_addr.Prefix.of_string "192.168.1.1" in
  Alcotest.(check bool) "bare address is /32" true
    (Ipv4_addr.Prefix.matches host (Ipv4_addr.of_string "192.168.1.1"));
  Alcotest.(check bool) "/32 excludes neighbour" false
    (Ipv4_addr.Prefix.matches host (Ipv4_addr.of_string "192.168.1.2"))

let test_mac () =
  let m = Mac.of_string "aa:BB:0c:00:01:ff" in
  Alcotest.(check string) "canonical lowercase" "aa:bb:0c:00:01:ff" (Mac.to_string m);
  Alcotest.(check int) "raw bytes" 6 (String.length (Mac.to_bytes m));
  Alcotest.(check bool) "broadcast differs" false (Mac.equal m Mac.broadcast);
  Alcotest.check_raises "reject short" (Invalid_argument "Mac.of_string: \"aa:bb\"")
    (fun () -> ignore (Mac.of_string "aa:bb"))

let test_checksum () =
  (* RFC 1071 example: checksum of 0001 f203 f4f5 f6f7 is 0x220d. *)
  let buf = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071 example" 0x220d (Checksum.compute buf 0 8);
  (* Odd length pads with zero. *)
  let odd = Bytes.of_string "\x01\x02\x03" in
  Alcotest.(check int) "odd length"
    (Checksum.finish (Checksum.add 0x0102 0x0300))
    (Checksum.compute odd 0 3);
  Alcotest.(check int) "add folds carry" 0x0001 (Checksum.add 0xffff 0x0001)

let test_builder_validity () =
  let p = Test_util.tcp_packet ~payload:"abc" () in
  Alcotest.(check bool) "tcp checksums valid" true (Packet.checksums_ok p);
  Alcotest.(check int) "frame length" (14 + 20 + 20 + 3) p.Packet.len;
  let u = Test_util.udp_packet ~payload:"abcd" () in
  Alcotest.(check bool) "udp checksums valid" true (Packet.checksums_ok u);
  Alcotest.(check int) "payload back" 4 (Packet.payload_length u);
  Alcotest.(check string) "payload bytes" "abcd" (Packet.payload u)

let test_field_access () =
  let p = Test_util.tcp_packet () in
  Packet.set_field p Field.Dst_ip (Field.Ip (Test_util.ip "1.2.3.4"));
  Packet.set_field p Field.Src_port (Field.Port 1234);
  Packet.set_field p Field.Ttl (Field.Int 9);
  Alcotest.(check string) "dst ip set" "1.2.3.4" (Ipv4_addr.to_string (Packet.dst_ip p));
  Alcotest.(check int) "src port set" 1234 (Packet.src_port p);
  Alcotest.(check int) "ttl set" 9 (Packet.ttl p);
  Alcotest.(check bool) "checksums stale before fix" false (Packet.checksums_ok p);
  Packet.fix_checksums p;
  Alcotest.(check bool) "checksums valid after fix" true (Packet.checksums_ok p);
  Alcotest.check_raises "type mismatch rejected"
    (Invalid_argument "Packet.set_field: value 80 incompatible with field SIP") (fun () ->
      Packet.set_field p Field.Src_ip (Field.Port 80))

let test_encap_decap () =
  let p = Test_util.tcp_packet ~payload:"data" () in
  let original = Packet.wire p in
  let ah = Encap_header.Auth { spi = 77l; seq = 0l } in
  let tun = Encap_header.Tunnel { vni = 42 } in
  Packet.encap p ah;
  Packet.encap p tun;
  Alcotest.(check int) "stack depth" 2 (List.length (Packet.outer_stack p));
  Alcotest.(check bool) "outermost is tunnel" true
    (Encap_header.equal tun (List.hd (Packet.outer_stack p)));
  (* Inner fields still readable through the outer headers. *)
  Alcotest.(check int) "inner dst port via offsets" 80 (Packet.dst_port p);
  Alcotest.(check string) "payload through outers" "data" (Packet.payload p);
  let popped = Packet.decap p in
  Alcotest.(check bool) "pop order LIFO" true (Encap_header.equal tun popped);
  ignore (Packet.decap p);
  Alcotest.(check string) "bytes restored" original (Packet.wire p);
  Alcotest.check_raises "decap empty raises"
    (Invalid_argument "Packet.decap: no outer header") (fun () -> ignore (Packet.decap p))

let test_encap_header_codec () =
  List.iter
    (fun h ->
      let encoded = Encap_header.encode h in
      let decoded, size = Encap_header.decode (Bytes.of_string encoded) 0 in
      Alcotest.(check bool) "decode . encode = id" true (Encap_header.equal h decoded);
      Alcotest.(check int) "declared size" (String.length encoded) size)
    [
      Encap_header.Auth { spi = 1l; seq = 99l };
      Encap_header.Tunnel { vni = 0xabcdef };
      Encap_header.Custom { tag = "test"; body = "body-bytes" };
    ]

let test_copy_and_equality () =
  let p = Test_util.tcp_packet ~payload:"xyz" () in
  p.Packet.fid <- 7;
  let q = Packet.copy p in
  Alcotest.(check bool) "copies equal" true (Packet.equal_wire p q);
  Alcotest.(check int) "metadata copied" 7 q.Packet.fid;
  Packet.set_payload_byte q 0 'Q';
  Alcotest.(check bool) "copies independent" false (Packet.equal_wire p q);
  Alcotest.(check string) "original untouched" "xyz" (Packet.payload p)

let test_payload_mutation () =
  let p = Test_util.tcp_packet ~payload:"hello world" () in
  Packet.blit_payload p "HELLO";
  Alcotest.(check string) "prefix overwritten" "HELLO world" (Packet.payload p);
  Alcotest.check_raises "oversized blit rejected"
    (Invalid_argument "Packet.blit_payload: payload too long") (fun () ->
      Packet.blit_payload p (String.make 64 'x'))

(* Property: any compatible field write is read back identically, and
   checksums can always be repaired. *)
let prop_field_roundtrip =
  QCheck.Test.make ~count:200 ~name:"packet field write/read roundtrip"
    QCheck.(
      quad (int_bound 255) (int_bound 255) (int_bound 0xffff) (int_bound 255))
    (fun (a, b, port, ttl) ->
      let p = Test_util.tcp_packet () in
      let addr = Ipv4_addr.of_octets 10 a b 1 in
      Packet.set_field p Field.Src_ip (Field.Ip addr);
      Packet.set_field p Field.Dst_port (Field.Port port);
      Packet.set_field p Field.Ttl (Field.Int ttl);
      Packet.fix_checksums p;
      Field.equal_value (Packet.get_field p Field.Src_ip) (Field.Ip addr)
      && Packet.dst_port p = port && Packet.ttl p = ttl && Packet.checksums_ok p)

let prop_encap_stack =
  QCheck.Test.make ~count:100 ~name:"encap/decap is a stack"
    QCheck.(list_of_size Gen.(int_range 0 6) (int_bound 1000))
    (fun spis ->
      let p = Test_util.tcp_packet () in
      let headers =
        List.map (fun spi -> Encap_header.Auth { spi = Int32.of_int spi; seq = 0l }) spis
      in
      List.iter (Packet.encap p) headers;
      let popped = List.map (fun _ -> Packet.decap p) headers in
      List.for_all2 Encap_header.equal (List.rev headers) popped
      && Packet.outer_stack p = [])

let suite =
  [
    Alcotest.test_case "bytes codec" `Quick test_bytes_codec;
    Alcotest.test_case "ipv4 addresses" `Quick test_ipv4_addr;
    Alcotest.test_case "cidr prefixes" `Quick test_prefix;
    Alcotest.test_case "mac addresses" `Quick test_mac;
    Alcotest.test_case "internet checksum" `Quick test_checksum;
    Alcotest.test_case "builders emit valid frames" `Quick test_builder_validity;
    Alcotest.test_case "field access" `Quick test_field_access;
    Alcotest.test_case "encap/decap" `Quick test_encap_decap;
    Alcotest.test_case "encap header codec" `Quick test_encap_header_codec;
    Alcotest.test_case "copy and wire equality" `Quick test_copy_and_equality;
    Alcotest.test_case "payload mutation" `Quick test_payload_mutation;
  ]
  @ Test_util.qcheck_cases [ prop_field_roundtrip; prop_encap_stack ]
  @ [
      Alcotest.test_case "ipv4 addresses at the sign boundary" `Quick
        test_ipv4_addr_sign_boundary;
    ]
