(* Tests for the classifier, chain and runtime orchestration. *)
open Sb_packet

let simple_chain () =
  Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

let test_classifier_phases () =
  let classifier = Speedybox.Classifier.create () in
  let classify p =
    let c = Speedybox.Classifier.scratch () in
    Speedybox.Classifier.prepare_into classifier p c;
    Speedybox.Classifier.observe_into classifier p c;
    c
  in
  let syn = Test_util.tcp_packet ~flags:Tcp.Flags.syn ~payload:"" () in
  let c1 = classify syn in
  Alcotest.(check bool) "SYN not established" false c1.Speedybox.Classifier.established;
  Alcotest.(check bool) "fid attached" true (syn.Packet.fid >= 0);
  let data = Test_util.tcp_packet () in
  let c2 = classify data in
  Alcotest.(check bool) "data establishes" true c2.Speedybox.Classifier.established;
  Alcotest.(check int) "same fid both directions of time" c1.Speedybox.Classifier.fid
    c2.Speedybox.Classifier.fid;
  let fin = Test_util.tcp_packet ~flags:Tcp.Flags.fin_ack () in
  let c3 = classify fin in
  Alcotest.(check bool) "FIN is final" true c3.Speedybox.Classifier.final;
  Speedybox.Classifier.forget classifier c3.Speedybox.Classifier.tuple;
  Alcotest.(check int) "forgotten" 0 (Speedybox.Classifier.active_flows classifier)

let test_classifier_fid_width () =
  let classifier = Speedybox.Classifier.create ~fid_bits:8 () in
  let c = Speedybox.Classifier.scratch () in
  let p = Test_util.udp_packet () in
  Speedybox.Classifier.prepare_into classifier p c;
  Speedybox.Classifier.observe_into classifier p c;
  Alcotest.(check bool) "narrow fid" true (c.Speedybox.Classifier.fid < 256);
  Alcotest.(check int) "width exposed" 8 (Speedybox.Classifier.fid_bits classifier)

let test_chain_construction () =
  Alcotest.(check bool) "empty chain rejected" true
    (try
       ignore (Speedybox.Chain.create ~name:"x" []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore
         (Speedybox.Chain.create ~name:"x"
            [
              Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
              Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
            ]);
       false
     with Invalid_argument _ -> true);
  let chain = simple_chain () in
  Alcotest.(check int) "length" 1 (Speedybox.Chain.length chain);
  Alcotest.(check int) "one local mat" 1 (List.length (Speedybox.Chain.local_mats chain))

let test_onvm_core_limit () =
  let nfs =
    List.init 6 (fun i ->
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ~name:(Printf.sprintf "m%d" i) ()))
  in
  let chain = Speedybox.Chain.create ~name:"long" nfs in
  Alcotest.(check bool) "ONVM rejects 6 NFs" true
    (try
       ignore
         (Speedybox.Runtime.create
            (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ())
            chain);
       false
     with Invalid_argument _ -> true);
  (* BESS takes any length. *)
  ignore (Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain)

let test_path_accounting () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (simple_chain ()) in
  let result = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow 6) in
  (* SYN + initial data are slow; 5 subsequent are fast. *)
  Alcotest.(check int) "slow" 2 result.Speedybox.Runtime.slow_path;
  Alcotest.(check int) "fast" 5 result.Speedybox.Runtime.fast_path;
  Alcotest.(check int) "all forwarded" 7 result.Speedybox.Runtime.forwarded

let test_fin_cleanup_and_rerecord () =
  let chain = simple_chain () in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let _ = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow 3) in
  Alcotest.(check int) "rules cleaned after FIN" 0
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt));
  Alcotest.(check int) "local mats cleaned" 0
    (Sb_mat.Local_mat.flow_count (List.hd (Speedybox.Chain.local_mats chain)));
  (* The same 5-tuple can start a new connection and re-record. *)
  let result = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow 3) in
  Alcotest.(check int) "re-recorded: slow twice" 2 result.Speedybox.Runtime.slow_path;
  Alcotest.(check int) "fast again" 2 result.Speedybox.Runtime.fast_path

let test_stay_open_keeps_rule () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (simple_chain ()) in
  let flow =
    Sb_trace.Workload.make_flow ~close:Sb_trace.Workload.Stay_open
      ~tuple:(Test_util.tuple ())
      ~payloads:(Array.make 4 "data") ()
  in
  let _ = Speedybox.Runtime.run_trace rt (Sb_trace.Workload.packets_of_flow flow) in
  Alcotest.(check int) "rule persists without FIN" 1
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt))

let test_original_mode_never_records () =
  let chain = simple_chain () in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Original ())
      chain
  in
  let result = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow 4) in
  Alcotest.(check int) "all slow" 5 result.Speedybox.Runtime.slow_path;
  Alcotest.(check int) "mats untouched" 0
    (Sb_mat.Local_mat.flow_count (List.hd (Speedybox.Chain.local_mats chain)))

let test_profiles_have_expected_stages () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (simple_chain ()) in
  let outputs = ref [] in
  let _ =
    Speedybox.Runtime.run_trace
      ~on_output:(fun _ out -> outputs := out :: !outputs)
      rt (Test_util.tcp_flow 2)
  in
  let stage_labels out =
    List.map (fun s -> s.Sb_sim.Cost_profile.label) out.Speedybox.Runtime.profile
  in
  match List.rev !outputs with
  | [ syn; initial; subsequent ] ->
      Alcotest.(check (list string)) "handshake walks chain" [ "Classifier"; "monitor" ]
        (stage_labels syn);
      Alcotest.(check (list string)) "initial records and consolidates"
        [ "Classifier"; "monitor"; "Consolidate" ]
        (stage_labels initial);
      Alcotest.(check (list string)) "subsequent takes global mat"
        [ "Classifier"; "GlobalMAT" ] (stage_labels subsequent);
      Alcotest.(check bool) "initial costs more than subsequent" true
        (initial.Speedybox.Runtime.latency_cycles > subsequent.Speedybox.Runtime.latency_cycles)
  | outs -> Alcotest.failf "expected 3 outputs, got %d" (List.length outs)

let test_udp_first_packet_records () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (simple_chain ()) in
  let packets = List.init 3 (fun _ -> Test_util.udp_packet ()) in
  let result = Speedybox.Runtime.run_trace rt packets in
  Alcotest.(check int) "first packet slow" 1 result.Speedybox.Runtime.slow_path;
  Alcotest.(check int) "rest fast" 2 result.Speedybox.Runtime.fast_path

let test_run_trace_does_not_mutate_inputs () =
  let rt =
    Speedybox.Runtime.create (Speedybox.Runtime.config ())
      (Speedybox.Chain.create ~name:"nat"
         [ Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.1") ()) ])
  in
  let packets = List.init 3 (fun _ -> Test_util.udp_packet ()) in
  let originals = List.map Packet.wire packets in
  let _ = Speedybox.Runtime.run_trace rt packets in
  List.iter2
    (fun p original -> Alcotest.(check string) "input frames intact" original (Packet.wire p))
    packets originals

(* Once a cost vector recurs, its packets share one physical profile: a
   flow's fast-path packets on chain1 (serial items) and on the edge-churn
   chain (a two-batch [Parallel] wave), and a second flow that costs the
   same reuses the first one's value. *)
let test_recurring_profile_shared () =
  List.iter
    (fun spec ->
      let build =
        match Sb_experiments.Chain_registry.build spec with
        | Ok build -> build
        | Error msg -> Alcotest.fail msg
      in
      let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (build ()) in
      let flows =
        Sb_trace.Workload.fixed_flows ~n_flows:2 ~packets_per_flow:6 ~payload_len:64 ()
      in
      let fast = ref [] in
      List.iter
        (fun flow ->
          List.iter
            (fun p ->
              let out = Speedybox.Runtime.process_packet rt p in
              if out.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path then
                fast := out.Speedybox.Runtime.profile :: !fast)
            (Sb_trace.Workload.packets_of_flow
               { flow with Sb_trace.Workload.close = Sb_trace.Workload.Stay_open }))
        flows;
      match !fast with
      | [] -> Alcotest.failf "%s: no fast-path packet" spec
      | last :: _ as all ->
          Alcotest.(check int) (spec ^ ": fast-path packets") 10 (List.length all);
          Alcotest.(check bool) (spec ^ ": one physical profile") true
            (List.for_all (fun p -> p == last) all))
    [ "chain1"; "statefulfw,monitor,dosguard:200,gateway" ]

let suite =
  [
    Alcotest.test_case "classifier phases" `Quick test_classifier_phases;
    Alcotest.test_case "classifier fid width" `Quick test_classifier_fid_width;
    Alcotest.test_case "chain construction" `Quick test_chain_construction;
    Alcotest.test_case "onvm core limit" `Quick test_onvm_core_limit;
    Alcotest.test_case "path accounting" `Quick test_path_accounting;
    Alcotest.test_case "FIN cleanup and re-record" `Quick test_fin_cleanup_and_rerecord;
    Alcotest.test_case "open flows keep rules" `Quick test_stay_open_keeps_rule;
    Alcotest.test_case "original mode never records" `Quick test_original_mode_never_records;
    Alcotest.test_case "profile stages" `Quick test_profiles_have_expected_stages;
    Alcotest.test_case "udp first packet records" `Quick test_udp_first_packet_records;
    Alcotest.test_case "inputs not mutated" `Quick test_run_trace_does_not_mutate_inputs;
    Alcotest.test_case "recurring profile shared" `Quick test_recurring_profile_shared;
  ]
