(* Tests for the report rendering. *)

let occurs needle hay = Sb_nf.Str_search.occurs ~pattern:needle hay

let setup () =
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"report-chain" [ Sb_nf.Monitor.nf monitor ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let result = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow ~fin:false 4) in
  (chain, rt, result)

let test_run_summary () =
  let _, rt, result = setup () in
  let summary = Speedybox.Report.run_summary ~label:"unit" [ rt ] result in
  Alcotest.(check bool) "label" true (occurs "unit: 5 packets" summary);
  Alcotest.(check bool) "paths line" true (occurs "slow 2" summary);
  Alcotest.(check bool) "latency line" true (occurs "p99" summary);
  Alcotest.(check bool) "mat occupancy" true (occurs "1 rules" summary);
  (* Quiet counters stay silent. *)
  Alcotest.(check bool) "no event line" false (occurs "events" summary);
  Alcotest.(check bool) "no eviction line" false (occurs "evictions" summary)

let test_chain_state () =
  let chain, _, _ = setup () in
  let state = Speedybox.Report.chain_state chain in
  Alcotest.(check bool) "chain name" true (occurs "report-chain" state);
  Alcotest.(check bool) "nf section" true (occurs "[monitor]" state);
  Alcotest.(check bool) "digest indented" true (occurs "    " state)

let test_flow_rules () =
  let _, rt, _ = setup () in
  let rules = Speedybox.Report.flow_rules rt ~limit:10 in
  Alcotest.(check bool) "one rule listed" true (occurs "fid:" rules);
  Alcotest.(check bool) "wave visible" true (occurs "monitor" rules);
  let truncated = Speedybox.Report.flow_rules rt ~limit:0 in
  Alcotest.(check bool) "truncation notice" true (occurs "and 1 more" truncated)

let test_stage_breakdown () =
  let _, _, result = setup () in
  let breakdown = Speedybox.Report.stage_breakdown result in
  Alcotest.(check bool) "header" true (occurs "stage breakdown" breakdown);
  Alcotest.(check bool) "classifier row" true (occurs "Classifier" breakdown);
  Alcotest.(check bool) "global mat row" true (occurs "GlobalMAT" breakdown);
  Alcotest.(check bool) "shares printed" true (occurs "share" breakdown)

let test_eviction_and_expiry_lines () =
  (* A tiny rule cap forces evictions; the summary must surface them. *)
  let chain =
    Speedybox.Chain.create ~name:"tiny" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~max_rules:2 ()) chain in
  let flows =
    List.init 6 (fun i ->
        Sb_trace.Workload.packets_of_flow
          (Sb_trace.Workload.make_flow ~close:Sb_trace.Workload.Stay_open
             ~tuple:(Test_util.tuple ~proto:17 ~sport:(45000 + i) ())
             ~payloads:(Array.make 3 "x") ()))
  in
  let result = Speedybox.Runtime.run_trace rt (Sb_trace.Workload.round_robin flows) in
  let summary = Speedybox.Report.run_summary [ rt ] result in
  Alcotest.(check bool) "eviction line shown" true (occurs "evictions" summary)

(* A plan prints one fault block.  det-4 runs what the unsharded run
   runs, so its block, summed over the shards, reads the same; each
   shard's own fault count sits in the [shards:] table. *)
let test_plan_fault_block () =
  let trace = Sb_trace.Workload.dcn_trace Sb_trace.Workload.default_dcn in
  let run shards =
    let inj = Sb_fault.Injector.create ~seed:1 () in
    Sb_fault.Injector.set_rate inj ~nf:"monitor" Sb_fault.Injector.Raise 0.2;
    let store = Sb_state.Store.create ~shards () in
    let build =
      match Sb_experiments.Chain_registry.build_sharded ~store "mazunat,monitor" with
      | Ok build -> build
      | Error msg -> Alcotest.fail msg
    in
    let cfg =
      Speedybox.Runtime.config
        ~fault_policy:(Sb_fault.Health.policy ~on_failure:Sb_fault.Health.Bypass ())
        ~injector:inj ~state:store ()
    in
    let sh = Sb_shard.Sharded.create ~shards cfg build in
    let result = Sb_shard.Sharded.run_trace sh trace in
    let rts = List.init shards (Sb_shard.Sharded.runtime sh) in
    (Speedybox.Report.run_summary rts result, Sb_shard.Sharded.stats sh, inj)
  in
  let fault_block summary =
    List.filter
      (fun l ->
        List.exists
          (fun prefix -> String.starts_with ~prefix l)
          [ "  faults "; "  quarantine "; "  health " ])
      (String.split_on_char '\n' summary)
  in
  let s1, _, _ = run 1 in
  let s4, rows, inj = run 4 in
  Alcotest.(check int) "one block: faults, quarantine, health" 3 (List.length (fault_block s4));
  Alcotest.(check (list string)) "det-4 block = unsharded block" (fault_block s1)
    (fault_block s4);
  Alcotest.(check int) "shard rows sum to the injected faults"
    (Sb_fault.Injector.total_injected inj)
    (List.fold_left (fun n r -> n + r.Speedybox.Report.faults) 0 rows);
  Alcotest.(check bool) "shards table shows them" true
    (occurs "  faults " (Speedybox.Report.shard_summary rows))

let suite =
  [
    Alcotest.test_case "plan fault block" `Quick test_plan_fault_block;
    Alcotest.test_case "run summary" `Quick test_run_summary;
    Alcotest.test_case "stage breakdown" `Quick test_stage_breakdown;
    Alcotest.test_case "eviction line" `Quick test_eviction_and_expiry_lines;
    Alcotest.test_case "chain state" `Quick test_chain_state;
    Alcotest.test_case "flow rules" `Quick test_flow_rules;
  ]
