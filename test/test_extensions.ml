(* Tests for the gateway and stateful-firewall NFs, trace persistence and
   the chain-spec language. *)
open Sb_packet

let run_chain chain packets =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  Speedybox.Runtime.run_trace rt packets

(* --- gateway ------------------------------------------------------------ *)

let servers = List.init 3 (fun i -> Ipv4_addr.of_octets 10 10 0 (20 + i))

let gw () =
  Sb_nf.Gateway.create
    ~services:[ Sb_nf.Gateway.service ~public_port:80 ~internal_port:8080 ~dscp:0x2e servers ]
    ()

let test_gateway_rewrite () =
  let gateway = gw () in
  let chain = Speedybox.Chain.create ~name:"gw" [ Sb_nf.Gateway.nf gateway ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let outputs = ref [] in
  let _ =
    Speedybox.Runtime.run_trace
      ~on_output:(fun _ out -> outputs := out.Speedybox.Runtime.packet :: !outputs)
      rt (Test_util.tcp_flow 4)
  in
  List.iter
    (fun p ->
      Alcotest.(check int) "internal port" 8080 (Packet.dst_port p);
      Alcotest.(check int) "dscp marked" 0x2e
        (match Packet.get_field p Field.Tos with Field.Int v -> v | _ -> -1);
      Alcotest.(check bool) "internal server" true
        (List.exists (Ipv4_addr.equal (Packet.dst_ip p)) servers);
      Alcotest.(check bool) "checksums valid" true (Packet.checksums_ok p))
    !outputs;
  Alcotest.(check int) "one assignment" 1 (Sb_nf.Gateway.flows_assigned gateway)

let test_gateway_round_robin () =
  let gateway = gw () in
  let chain = Speedybox.Chain.create ~name:"gw" [ Sb_nf.Gateway.nf gateway ] in
  let packets =
    List.concat_map (fun i -> Test_util.tcp_flow ~sport:(41000 + i) 1) [ 0; 1; 2; 3 ]
  in
  let _ = run_chain chain packets in
  let server i =
    fst (Option.get (Sb_nf.Gateway.assignment gateway (Test_util.tuple ~sport:(41000 + i) ())))
  in
  Alcotest.(check bool) "round robin wraps" true (Ipv4_addr.equal (server 0) (server 3));
  Alcotest.(check bool) "distinct consecutive" false (Ipv4_addr.equal (server 0) (server 1))

let test_gateway_pass_through () =
  let gateway = gw () in
  let chain = Speedybox.Chain.create ~name:"gw" [ Sb_nf.Gateway.nf gateway ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let p = Test_util.tcp_packet ~dport:443 () in
  let before = Packet.wire p in
  let out = Speedybox.Runtime.process_packet rt (Packet.copy p) in
  Alcotest.(check string) "unknown port untouched" before
    (Packet.wire out.Speedybox.Runtime.packet);
  Alcotest.(check int) "unknown port not assigned" 0 (Sb_nf.Gateway.flows_assigned gateway);
  Alcotest.(check bool) "empty pool rejected" true
    (try
       ignore (Sb_nf.Gateway.service ~public_port:80 ~internal_port:80 []);
       false
     with Invalid_argument _ -> true)

let test_gateway_equivalence () =
  let build_chain () =
    Speedybox.Chain.create ~name:"gw"
      [ Sb_nf.Gateway.nf (gw ()); Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let trace =
    Sb_trace.Workload.fixed_trace ~n_flows:12 ~packets_per_flow:5 ~payload_len:30 ()
  in
  Test_util.check_equivalent "gateway chain" (Speedybox.Equivalence.check ~build_chain trace)

(* Flows pinned to one server record one shared [Modify]: the gateway
   builds a server's rewrite once, not per packet. *)
let test_gateway_shared_action () =
  let gateway = gw () in
  let chain = Speedybox.Chain.create ~name:"gw" [ Sb_nf.Gateway.nf gateway ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let fids = Hashtbl.create 8 in
  let packets =
    List.concat_map (fun i -> Test_util.tcp_flow ~sport:(41000 + i) ~fin:false 2) [ 0; 1; 2; 3 ]
  in
  let _ =
    Speedybox.Runtime.run_trace
      ~on_output:(fun input out ->
        Hashtbl.replace fids (Packet.src_port input) out.Speedybox.Runtime.packet.Packet.fid)
      rt packets
  in
  let mat = List.hd (Speedybox.Chain.local_mats chain) in
  let action i =
    match
      Sb_mat.Local_mat.rule_actions (Sb_mat.Local_mat.lookup mat (Hashtbl.find fids (41000 + i)))
    with
    | [ (Sb_mat.Header_action.Modify _ as a) ] -> a
    | _ -> Alcotest.fail "expected one recorded Modify"
  in
  Alcotest.(check bool) "same server, same action" true (action 0 == action 3);
  Alcotest.(check bool) "next server, another action" false (action 0 == action 1);
  Alcotest.(check bool) "actions are equal by value" true
    (Sb_mat.Header_action.equal (action 0) (action 3))

(* Assignments and the state digest on a DCN trace through two services,
   against a model of the round-robin pin: each service hands its servers
   out in turn, in the order its flows are first seen, and the digest
   lists "tuple => server:port" sorted.  Other ports are never assigned. *)
let test_gateway_assignments_model () =
  let web = servers and tls = List.init 2 (fun i -> Ipv4_addr.of_octets 10 10 1 (40 + i)) in
  let gateway =
    Sb_nf.Gateway.create
      ~services:
        [
          Sb_nf.Gateway.service ~public_port:80 ~internal_port:8080 web;
          Sb_nf.Gateway.service ~public_port:443 ~internal_port:8443 tls;
        ]
      ()
  in
  let nf = Sb_nf.Gateway.nf gateway in
  let chain = Speedybox.Chain.create ~name:"gw" [ nf ] in
  let trace =
    Sb_trace.Workload.dcn_trace
      {
        Sb_trace.Workload.seed = 3;
        n_flows = 80;
        mean_flow_packets = 4.;
        payload_len = (16, 128);
        udp_fraction = 0.2;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  let _ = run_chain chain trace in
  let pools = [ (80, (Array.of_list web, 8080, ref 0)); (443, (Array.of_list tls, 8443, ref 0)) ] in
  let model = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun p ->
      let tuple = Sb_flow.Five_tuple.of_packet p in
      if not (Hashtbl.mem model tuple) then begin
        order := tuple :: !order;
        Hashtbl.replace model tuple
          (match List.assoc_opt tuple.Sb_flow.Five_tuple.dst_port pools with
          | Some (servers, port, next) ->
              let server = servers.(!next mod Array.length servers) in
              incr next;
              Some (server, port)
          | None -> None)
      end)
    trace;
  let assigned = ref 0 in
  List.iter
    (fun tuple ->
      let expected = Hashtbl.find model tuple in
      if expected <> None then incr assigned;
      Alcotest.(check bool)
        (Format.asprintf "assignment of %a" Sb_flow.Five_tuple.pp tuple)
        true
        (Sb_nf.Gateway.assignment gateway tuple = expected))
    !order;
  Alcotest.(check bool) "both services and other ports appear" true
    (!assigned > 0 && !assigned < List.length !order);
  Alcotest.(check int) "flows assigned" !assigned (Sb_nf.Gateway.flows_assigned gateway);
  let digest =
    Hashtbl.fold
      (fun tuple a acc ->
        match a with
        | Some (server, port) ->
            Format.asprintf "%a => %a:%d" Sb_flow.Five_tuple.pp tuple Ipv4_addr.pp server port
            :: acc
        | None -> acc)
      model []
    |> List.sort String.compare |> String.concat "\n"
  in
  Alcotest.(check string) "state digest" digest (nf.Speedybox.Nf.state_digest ())

(* --- stateful firewall --------------------------------------------------- *)

let test_stateful_firewall_gates () =
  let fw = Sb_nf.Stateful_firewall.create () in
  let chain = Speedybox.Chain.create ~name:"fw" [ Sb_nf.Stateful_firewall.nf fw ] in
  (* A proper flow (SYN first), a SYN-less TCP flow, an allowed UDP flow
     and a blocked UDP flow. *)
  let synless =
    List.init 3 (fun _ -> Test_util.tcp_packet ~sport:40070 ~payload:"sneaky" ())
  in
  let allowed_udp = List.init 2 (fun _ -> Test_util.udp_packet ~dport:53 ()) in
  let blocked_udp = List.init 2 (fun _ -> Test_util.udp_packet ~sport:40071 ~dport:9999 ()) in
  let result =
    run_chain chain (Test_util.tcp_flow 3 @ synless @ allowed_udp @ blocked_udp)
  in
  Alcotest.(check int) "SYN flow + dns forwarded" 6 result.Speedybox.Runtime.forwarded;
  Alcotest.(check int) "synless + blocked dropped" 5 result.Speedybox.Runtime.dropped;
  Alcotest.(check int) "accepted flows" 2 (Sb_nf.Stateful_firewall.accepted_flows fw);
  Alcotest.(check int) "rejected flows" 2 (Sb_nf.Stateful_firewall.rejected_flows fw);
  Alcotest.(check bool) "state query" true
    (Sb_nf.Stateful_firewall.state fw (Test_util.tuple ~sport:40070 ())
    = Some Sb_nf.Stateful_firewall.Rejected)

let test_stateful_firewall_equivalence () =
  let build_chain () =
    Speedybox.Chain.create ~name:"fw"
      [
        Sb_nf.Stateful_firewall.nf (Sb_nf.Stateful_firewall.create ());
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      ]
  in
  let trace =
    Sb_trace.Workload.dcn_trace
      { Sb_trace.Workload.default_dcn with Sb_trace.Workload.n_flows = 40 }
  in
  Test_util.check_equivalent "stateful fw chain"
    (Speedybox.Equivalence.check ~build_chain trace)

(* --- trace persistence ---------------------------------------------------- *)

let test_trace_roundtrip () =
  let original =
    Test_util.tcp_flow 3
    @ [ Test_util.udp_packet () ]
    @
    let encapped = Test_util.tcp_packet ~payload:"inner" () in
    Packet.encap encapped (Encap_header.Auth { spi = 7l; seq = 0l });
    [ encapped ]
  in
  let path = Filename.temp_file "sbx" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sb_trace.Trace_io.save path original;
      let loaded = Sb_trace.Trace_io.load path in
      Alcotest.(check int) "count" (List.length original) (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "frames identical" true (Packet.equal_wire a b);
          Alcotest.(check int) "outer stack depth restored"
            (List.length (Packet.outer_stack a))
            (List.length (Packet.outer_stack b)))
        original loaded;
      (* The loaded encapped packet still decaps correctly. *)
      let encapped = List.nth loaded (List.length loaded - 1) in
      ignore (Packet.decap encapped);
      Alcotest.(check string) "payload through reload" "inner" (Packet.payload encapped))

let test_trace_malformed () =
  let path = Filename.temp_file "sbx" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# comment\n0 zz\n";
      close_out oc;
      Alcotest.(check bool) "bad hex rejected" true
        (try
           ignore (Sb_trace.Trace_io.load path);
           false
         with Invalid_argument _ -> true))

(* --- chain specs ----------------------------------------------------------- *)

let test_chain_spec_parsing () =
  (match Sb_experiments.Chain_registry.build "mazunat,maglev:4,monitor,ipfilter:22" with
  | Ok build ->
      let chain = build () in
      Alcotest.(check int) "four NFs" 4 (Speedybox.Chain.length chain)
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  (match Sb_experiments.Chain_registry.build "monitor,monitor,monitor" with
  | Ok build ->
      Alcotest.(check int) "duplicates auto-suffixed" 3 (Speedybox.Chain.length (build ()))
  | Error msg -> Alcotest.failf "duplicate spec rejected: %s" msg);
  (match Sb_experiments.Chain_registry.build "frobnicator" with
  | Ok _ -> Alcotest.fail "unknown NF accepted"
  | Error _ -> ());
  match Sb_experiments.Chain_registry.build "maglev:x" with
  | Ok _ -> Alcotest.fail "bad arg accepted"
  | Error _ -> ()

let test_registry_names_build () =
  List.iter
    (fun (name, _) ->
      match Sb_experiments.Chain_registry.build name with
      | Ok build -> ignore (build ())
      | Error msg -> Alcotest.failf "predefined %s failed: %s" name msg)
    (Sb_experiments.Chain_registry.registry ())

let test_spec_chain_equivalence () =
  match Sb_experiments.Chain_registry.build "edge" with
  | Error msg -> Alcotest.failf "edge chain: %s" msg
  | Ok build ->
      let trace =
        Sb_trace.Workload.dcn_trace
          { Sb_trace.Workload.default_dcn with Sb_trace.Workload.n_flows = 30 }
      in
      Test_util.check_equivalent "edge chain"
        (Speedybox.Equivalence.check ~build_chain:build trace)

let suite =
  [
    Alcotest.test_case "gateway rewrites and marks" `Quick test_gateway_rewrite;
    Alcotest.test_case "gateway round robin" `Quick test_gateway_round_robin;
    Alcotest.test_case "gateway pass-through" `Quick test_gateway_pass_through;
    Alcotest.test_case "gateway equivalence" `Quick test_gateway_equivalence;
    Alcotest.test_case "gateway shares a server's action" `Quick test_gateway_shared_action;
    Alcotest.test_case "gateway assignments and digest" `Quick test_gateway_assignments_model;
    Alcotest.test_case "stateful firewall gating" `Quick test_stateful_firewall_gates;
    Alcotest.test_case "stateful firewall equivalence" `Quick test_stateful_firewall_equivalence;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace malformed input" `Quick test_trace_malformed;
    Alcotest.test_case "chain spec parsing" `Quick test_chain_spec_parsing;
    Alcotest.test_case "registry chains build" `Quick test_registry_names_build;
    Alcotest.test_case "edge chain equivalence" `Quick test_spec_chain_equivalence;
  ]
