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

(* --- Packet-keyed reads ------------------------------------------------- *)

(* FNV-1a over the 13 wire bytes, field by field: the hash the flow tables
   and FIDs have always used, written out independently of the packed
   form [Five_tuple.hash] now goes through. *)
let reference_hash (t : Five_tuple.t) =
  let mix h b = (h lxor (b land 0xff)) * 0x100000001b3 in
  let mix32 h v = mix (mix (mix (mix h (v lsr 24)) (v lsr 16)) (v lsr 8)) v in
  let h = mix32 (mix32 0x3bf29ce484222325 (t.Five_tuple.src_ip :> int)) (t.dst_ip :> int) in
  let h = mix (mix h (t.src_port lsr 8)) t.src_port in
  let h = mix (mix h (t.dst_port lsr 8)) t.dst_port in
  mix h t.proto land max_int

(* A random TCP or UDP packet over the whole address and port ranges,
   under up to three outer headers (as VPN encapsulation pushes them). *)
let gen_packet =
  let open QCheck.Gen in
  let addr = map Ipv4_addr.of_int (int_bound 0xffff_ffff) in
  let port = oneof [ int_bound 0xffff; oneofl [ 0; 80; 0x7fff; 0x8000; 0xffff ] ] in
  let outer =
    oneof
      [
        map
          (fun spi -> Encap_header.Auth { spi = Int32.of_int spi; seq = 0l })
          (int_bound 0xffff_ffff);
        map (fun vni -> Encap_header.Tunnel { vni }) (int_bound 0xffffff);
        return (Encap_header.Custom { tag = "t"; body = "outer" });
      ]
  in
  let* src = addr and* dst = addr and* src_port = port and* dst_port = port in
  let* udp = bool and* payload = string_size ~gen:printable (int_bound 40) in
  let* outers = list_size (int_bound 3) outer in
  let p =
    if udp then Packet.udp ~payload ~src ~dst ~src_port ~dst_port ()
    else Packet.tcp ~payload ~src ~dst ~src_port ~dst_port ()
  in
  List.iter (Packet.encap p) outers;
  return p

let print_packet p = Format.asprintf "%a" Packet.pp p

let prop_packet_keyed_reads =
  QCheck.Test.make ~count:500 ~name:"packet-keyed reads = of_packet's pack and hash"
    (QCheck.make ~print:print_packet gen_packet)
    (fun p ->
      let t = Five_tuple.of_packet p in
      let k1 = Five_tuple.packet_pack1 p and k2 = Five_tuple.packet_pack2 p in
      Five_tuple.admits p
      && k1 = Five_tuple.pack1 t
      && k2 = Five_tuple.pack2 t
      && Five_tuple.hash_packed k1 k2 = Five_tuple.hash t
      && Five_tuple.packet_hash p = Five_tuple.hash t
      && Five_tuple.hash t = reference_hash t
      && Five_tuple.equal (Five_tuple.of_packed k1 k2) t
      && Five_tuple.reverse_pack1 k1 k2 = Five_tuple.pack1 (Five_tuple.reverse t)
      && Five_tuple.reverse_pack2 k1 k2 = Five_tuple.pack2 (Five_tuple.reverse t)
      && Fid.of_packet p = Fid.of_tuple t)

(* The same operation stream through record-keyed and packet-keyed
   probes: the two maps must hold the same bindings in the same slots, so
   their folds agree in order too.  Packets come from a small pool of
   flows so operations revisit keys and the table grows mid-stream. *)
let prop_tuple_map_packet_probes =
  let gen =
    let open QCheck.Gen in
    let* pool = array_size (int_range 1 12) gen_packet in
    let* ops = list_size (int_range 1 300) (pair (int_bound 11) (int_bound 3)) in
    return (pool, ops)
  in
  QCheck.Test.make ~count:200 ~name:"Tuple_map: packet probes = tuple probes, fold order included"
    (QCheck.make
       ~print:(fun (pool, ops) ->
         Printf.sprintf "%d packets, %d ops" (Array.length pool) (List.length ops))
       gen)
    (fun (pool, ops) ->
      let by_tuple = Tuple_map.create 4 and by_packet = Tuple_map.create 4 in
      let agree = ref true in
      List.iteri
        (fun i (k, op) ->
          let p = pool.(k mod Array.length pool) in
          let t = Five_tuple.of_packet p in
          let k1 = Five_tuple.packet_pack1 p and k2 = Five_tuple.packet_pack2 p in
          let hash = Five_tuple.hash_packed k1 k2 in
          match op with
          | 0 ->
              let a = Tuple_map.find_or_add by_tuple t ~default:(fun () -> i) in
              let b = Tuple_map.find_or_add_packed by_packet ~hash k1 k2 ~default:(fun () -> i) in
              if a <> b then agree := false
          | 1 ->
              Tuple_map.replace by_tuple t i;
              Tuple_map.replace_packed by_packet ~hash k1 k2 i
          | 2 ->
              Tuple_map.remove by_tuple t;
              Tuple_map.remove_packed by_packet ~hash k1 k2
          | _ ->
              let s = Tuple_map.find_slot_packed by_packet ~hash k1 k2 in
              let found = if s < 0 then None else Some (Tuple_map.value_at by_packet s) in
              if Tuple_map.find_opt by_tuple t <> found then agree := false)
        ops;
      let dump m =
        Tuple_map.fold (fun t v acc -> (Five_tuple.pack1 t, Five_tuple.pack2 t, v) :: acc) m []
      in
      !agree
      && Tuple_map.length by_tuple = Tuple_map.length by_packet
      && dump by_tuple = dump by_packet)

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
  @ Test_util.qcheck_cases
      [ prop_fid_range; prop_packet_keyed_reads; prop_tuple_map_packet_probes ]
