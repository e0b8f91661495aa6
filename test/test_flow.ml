(* Tests for 5-tuples, FIDs, connection tracking and flow tables. *)
open Sb_flow
open Sb_packet

let test_five_tuple () =
  let p = Test_util.tcp_packet ~src:"10.0.0.1" ~dst:"192.168.1.10" ~sport:40000 ~dport:80 () in
  let t = Five_tuple.of_packet p in
  Alcotest.(check int) "proto" 6 t.Five_tuple.proto;
  Alcotest.(check int) "sport" 40000 t.Five_tuple.src_port;
  let r = Five_tuple.reverse t in
  Alcotest.(check int) "reversed sport" 80 r.Five_tuple.src_port;
  Alcotest.(check bool) "reverse . reverse = id" true
    (Five_tuple.equal t (Five_tuple.reverse r));
  Alcotest.(check bool) "reverse differs" false (Five_tuple.equal t r);
  let u = Test_util.udp_packet () in
  Alcotest.(check int) "udp proto" 17 (Five_tuple.of_packet u).Five_tuple.proto

let test_tuple_ordering () =
  let base = Test_util.tuple () in
  Alcotest.(check int) "equal tuples compare 0" 0 (Five_tuple.compare base base);
  let bigger = { base with Five_tuple.dst_port = base.Five_tuple.dst_port + 1 } in
  Alcotest.(check bool) "ordering consistent" true
    (Five_tuple.compare base bigger = -Five_tuple.compare bigger base);
  Alcotest.(check bool) "hash equal for equal" true
    (Five_tuple.hash base = Five_tuple.hash { base with Five_tuple.src_port = base.Five_tuple.src_port })

let test_fid () =
  let t = Test_util.tuple () in
  let fid = Fid.of_tuple t in
  Alcotest.(check bool) "within 20 bits" true (fid >= 0 && fid < 1 lsl 20);
  Alcotest.(check int) "deterministic" fid (Fid.of_tuple t);
  let narrow = Fid.of_tuple ~bits:8 t in
  Alcotest.(check bool) "narrow within 8 bits" true (narrow >= 0 && narrow < 256);
  Alcotest.check_raises "width bounds" (Invalid_argument "Fid.of_tuple: bits out of range")
    (fun () -> ignore (Fid.of_tuple ~bits:31 t));
  let p = Test_util.tcp_packet () in
  Alcotest.(check int) "of_packet matches of_tuple" (Fid.of_tuple (Five_tuple.of_packet p))
    (Fid.of_packet p)

let test_fid_dispersion () =
  (* Distinct tuples should rarely collide at 20 bits. *)
  let seen = Hashtbl.create 1024 in
  let collisions = ref 0 in
  for i = 0 to 999 do
    let t = Test_util.tuple ~sport:(1024 + i) () in
    let fid = Fid.of_tuple t in
    if Hashtbl.mem seen fid then incr collisions else Hashtbl.replace seen fid ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "under 1%% collisions at 1k flows (%d)" !collisions)
    true (!collisions < 10)

let observe_flags conntrack key flags =
  Conntrack.observe conntrack key
    (Test_util.tcp_packet ~flags ~payload:"" ())

let test_conntrack_handshake () =
  let ct = Conntrack.create () in
  let key = Test_util.tuple () in
  let v1 = observe_flags ct key Tcp.Flags.syn in
  Alcotest.(check bool) "SYN -> SYN_SENT" true (v1.Conntrack.state = Conntrack.Syn_sent);
  Alcotest.(check bool) "not yet established" false v1.Conntrack.established_now;
  let v2 = observe_flags ct key Tcp.Flags.ack in
  Alcotest.(check bool) "data -> ESTABLISHED" true (v2.Conntrack.state = Conntrack.Established);
  Alcotest.(check bool) "establishes now" true v2.Conntrack.established_now;
  let v3 = observe_flags ct key Tcp.Flags.ack in
  Alcotest.(check bool) "stays established" true (v3.Conntrack.state = Conntrack.Established);
  Alcotest.(check bool) "only established once" false v3.Conntrack.established_now;
  let v4 = observe_flags ct key Tcp.Flags.fin_ack in
  Alcotest.(check bool) "FIN is final" true v4.Conntrack.final;
  Alcotest.(check bool) "FIN -> CLOSING" true (v4.Conntrack.state = Conntrack.Closing)

let test_conntrack_rst_and_udp () =
  let ct = Conntrack.create () in
  let key = Test_util.tuple ~sport:50000 () in
  let v = observe_flags ct key Tcp.Flags.rst in
  Alcotest.(check bool) "RST is final" true v.Conntrack.final;
  let ukey = Test_util.tuple ~proto:17 () in
  let uv = Conntrack.observe ct ukey (Test_util.udp_packet ()) in
  Alcotest.(check bool) "UDP first packet establishes" true uv.Conntrack.established_now;
  Alcotest.(check bool) "UDP never final" false uv.Conntrack.final;
  Alcotest.(check int) "two flows tracked" 2 (Conntrack.active_flows ct);
  Conntrack.forget ct ukey;
  Alcotest.(check int) "forget removes" 1 (Conntrack.active_flows ct)

let test_conntrack_syn_ack_path () =
  let ct = Conntrack.create () in
  let key = Test_util.tuple ~sport:50001 () in
  ignore (observe_flags ct key Tcp.Flags.syn);
  let v = observe_flags ct key Tcp.Flags.syn_ack in
  Alcotest.(check bool) "SYN+ACK -> SYN_RECEIVED" true (v.Conntrack.state = Conntrack.Syn_received);
  let v2 = observe_flags ct key Tcp.Flags.ack in
  Alcotest.(check bool) "then established" true v2.Conntrack.established_now

let test_flow_table () =
  let table : int Flat_table.t = Flat_table.create () in
  Alcotest.(check (option int)) "empty find" None (Flat_table.find table 5);
  Flat_table.set table 5 42;
  Alcotest.(check (option int)) "set/find" (Some 42) (Flat_table.find table 5);
  Flat_table.update table 5 ~default:0 (fun v -> v + 1);
  Alcotest.(check int) "update existing" 43 (Flat_table.find_exn table 5);
  Flat_table.update table 9 ~default:100 (fun v -> v + 1);
  Alcotest.(check int) "update absent inserts f default" 101 (Flat_table.find_exn table 9);
  Alcotest.(check int) "length" 2 (Flat_table.length table);
  let sum = Flat_table.fold (fun _ v acc -> acc + v) table 0 in
  Alcotest.(check int) "fold" 144 sum;
  Flat_table.remove table 5;
  Alcotest.(check bool) "removed" false (Flat_table.mem table 5);
  Flat_table.clear table;
  Alcotest.(check int) "cleared" 0 (Flat_table.length table)

let test_tuple_map () =
  let m : int Tuple_map.t = Tuple_map.create 8 in
  let t = Test_util.tuple () in
  let v = Tuple_map.find_or_add m t ~default:(fun () -> 7) in
  Alcotest.(check int) "default inserted" 7 v;
  let v2 = Tuple_map.find_or_add m t ~default:(fun () -> 99) in
  Alcotest.(check int) "existing returned" 7 v2;
  Alcotest.(check int) "one entry" 1 (Tuple_map.length m)

let prop_fid_range =
  QCheck.Test.make ~count:300 ~name:"fid always within configured width"
    QCheck.(pair (int_range 1 30) (int_bound 0xffff))
    (fun (bits, sport) ->
      let fid = Fid.of_tuple ~bits (Test_util.tuple ~sport ()) in
      fid >= 0 && fid < 1 lsl bits)

let suite =
  [
    Alcotest.test_case "five tuple extraction" `Quick test_five_tuple;
    Alcotest.test_case "tuple ordering and hash" `Quick test_tuple_ordering;
    Alcotest.test_case "fid hashing" `Quick test_fid;
    Alcotest.test_case "fid dispersion" `Quick test_fid_dispersion;
    Alcotest.test_case "conntrack handshake" `Quick test_conntrack_handshake;
    Alcotest.test_case "conntrack RST and UDP" `Quick test_conntrack_rst_and_udp;
    Alcotest.test_case "conntrack SYN-ACK path" `Quick test_conntrack_syn_ack_path;
    Alcotest.test_case "flow table" `Quick test_flow_table;
    Alcotest.test_case "tuple map" `Quick test_tuple_map;
  ]
  @ Test_util.qcheck_cases [ prop_fid_range ]
