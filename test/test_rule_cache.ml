(* Tests for the LRU rule cap and memory statistics of the Global MAT. *)
open Sb_mat

(* A one-NF chain's Local MAT, and its Global MAT over the same table. *)
let one_nf ?max_rules ?on_evict () =
  let mat = List.hd (Local_mat.chain [ "nf" ]) in
  (mat, Global_mat.create ?max_rules ?on_evict (Local_mat.table mat))

let test_lru_eviction_order () =
  let evicted = ref [] in
  let mat, global = one_nf ~max_rules:2 ~on_evict:(fun fid -> evicted := fid :: !evicted) () in
  List.iter (fun fid -> Local_mat.add_header_action mat fid Header_action.Forward) [ 1; 2; 3 ];
  ignore (Global_mat.consolidate global 1 [ mat ]);
  ignore (Global_mat.consolidate global 2 [ mat ]);
  (* Touch rule 1 so rule 2 is the LRU victim. *)
  let events = Event_table.create () in
  let p = Test_util.tcp_packet () in
  ignore (Global_mat.execute global events [ mat ] 1 p);
  ignore (Global_mat.consolidate global 3 [ mat ]);
  Alcotest.(check (list int)) "least-recently-used evicted" [ 2 ] !evicted;
  Alcotest.(check bool) "hot rule kept" true (Global_mat.mem global 1);
  Alcotest.(check bool) "new rule present" true (Global_mat.mem global 3);
  Alcotest.(check int) "eviction counter" 1 (Global_mat.evictions global);
  Alcotest.(check bool) "the evicted flow's record goes with its rule" false
    (Local_mat.mem mat 2);
  Alcotest.(check bool) "the kept flows' records stay" true
    (Local_mat.mem mat 1 && Local_mat.mem mat 3)

let test_reconsolidation_does_not_evict () =
  let mat, global = one_nf ~max_rules:2 () in
  List.iter (fun fid -> Local_mat.add_header_action mat fid Header_action.Forward) [ 1; 2 ];
  ignore (Global_mat.consolidate global 1 [ mat ]);
  ignore (Global_mat.consolidate global 2 [ mat ]);
  (* Re-consolidating an existing fid at the cap must not evict anyone. *)
  ignore (Global_mat.consolidate global 1 [ mat ]);
  Alcotest.(check int) "no eviction" 0 (Global_mat.evictions global);
  Alcotest.(check int) "both rules live" 2 (Global_mat.flow_count global)

let test_cap_validation () =
  Alcotest.(check bool) "zero cap rejected" true
    (try
       ignore (one_nf ~max_rules:0 ());
       false
     with Invalid_argument _ -> true)

let test_runtime_eviction_rerecords () =
  let chain =
    Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~max_rules:4 ()) chain in
  (* 8 concurrent round-robin flows against a 4-rule cache: every packet
     misses, so everything stays on the slow path. *)
  let flows =
    List.init 8 (fun i ->
        Sb_trace.Workload.packets_of_flow
          (Sb_trace.Workload.make_flow
             ~tuple:(Test_util.tuple ~proto:17 ~sport:(42000 + i) ())
             ~payloads:(Array.make 6 "x") ()))
  in
  let result = Speedybox.Runtime.run_trace rt (Sb_trace.Workload.round_robin flows) in
  Alcotest.(check int) "cold cache: all slow" 48 result.Speedybox.Runtime.slow_path;
  Alcotest.(check bool) "evictions happened" true
    (Sb_mat.Global_mat.evictions (Speedybox.Runtime.global_mat rt) > 0);
  (* Local MATs were torn down alongside (no stale records accumulate). *)
  Alcotest.(check bool) "local mats bounded" true
    (Sb_mat.Local_mat.flow_count (List.hd (Speedybox.Chain.local_mats chain)) <= 8)

let test_eviction_preserves_equivalence () =
  let build_chain () =
    Speedybox.Chain.create ~name:"nat+mon"
      [
        Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.1") ());
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      ]
  in
  let trace =
    Sb_trace.Workload.fixed_trace ~proto:17 ~n_flows:20 ~packets_per_flow:8 ~payload_len:20
      ()
  in
  let report =
    Speedybox.Equivalence.check
      ~config_b:(Speedybox.Runtime.config ~mode:Speedybox.Runtime.Speedybox ~max_rules:5 ())
      ~build_chain trace
  in
  Test_util.check_equivalent "tiny cache equivalence" report

let test_memory_stats () =
  let fwd_mat, global = one_nf () in
  Local_mat.add_header_action fwd_mat 1 Header_action.Forward;
  Local_mat.add_header_action fwd_mat 2 Header_action.Forward;
  Local_mat.add_header_action fwd_mat 3
    (Header_action.Modify [ (Sb_packet.Field.Dst_port, Sb_packet.Field.Port 8080) ]);
  ignore (Global_mat.consolidate global 1 [ fwd_mat ]);
  ignore (Global_mat.consolidate global 2 [ fwd_mat ]);
  ignore (Global_mat.consolidate global 3 [ fwd_mat ]);
  let stats = Global_mat.memory_stats global in
  Alcotest.(check int) "rules" 3 stats.Global_mat.rules;
  Alcotest.(check int) "two distinct actions" 2 stats.Global_mat.distinct_actions;
  Alcotest.(check int) "one field write" 1 stats.Global_mat.field_writes;
  Alcotest.(check int) "no batches" 0 stats.Global_mat.batches

let suite =
  [
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "re-consolidation does not evict" `Quick
      test_reconsolidation_does_not_evict;
    Alcotest.test_case "cap validation" `Quick test_cap_validation;
    Alcotest.test_case "runtime eviction re-records" `Quick test_runtime_eviction_rerecords;
    Alcotest.test_case "eviction preserves equivalence" `Quick
      test_eviction_preserves_equivalence;
    Alcotest.test_case "memory stats" `Quick test_memory_stats;
  ]
