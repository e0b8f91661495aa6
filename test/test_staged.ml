(* Tests for the staged ONVM executor: low-load agreement with the
   analytic runtime, the consolidation race, ring overflow, and fast-path
   overtaking. *)

let timed gap packets =
  List.mapi
    (fun i p ->
      p.Sb_packet.Packet.ingress_cycle <- (i + 1) * gap;
      p)
    packets

let monitor_chain () =
  Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

let test_low_load_matches_analytic () =
  (* Far-apart arrivals: no queueing, so staged sojourns equal the analytic
     ONVM latency packet for packet. *)
  let trace () = timed 100_000 (List.init 6 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run (monitor_chain ()) (trace ()) in
  Alcotest.(check int) "all forwarded" 6 staged.Speedybox.Staged_runtime.forwarded;
  Alcotest.(check int) "no overflow" 0 staged.Speedybox.Staged_runtime.dropped_overflow;
  Alcotest.(check int) "no reordering" 0 staged.Speedybox.Staged_runtime.reordered;
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ())
      (monitor_chain ())
  in
  let analytic = Speedybox.Runtime.run_trace rt (trace ()) in
  (* Same per-packet work and no contention: identical mean latency. *)
  Alcotest.(check (float 0.01)) "sojourn = analytic latency"
    (Sb_sim.Stats.mean analytic.Speedybox.Runtime.latency_us)
    (Sb_sim.Stats.mean staged.Speedybox.Staged_runtime.sojourn_us);
  Alcotest.(check int) "same slow count" analytic.Speedybox.Runtime.slow_path
    staged.Speedybox.Staged_runtime.slow_path

let test_consolidation_race () =
  (* A tight burst: every packet is classified before the initial packet
     finishes its walk, so all take the slow path — but exactly one
     records, so the Local MATs hold single (not duplicated) entries. *)
  let monitor = Sb_nf.Monitor.create () in
  let chain = Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf monitor ] in
  let trace = timed 10 (List.init 8 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run chain trace in
  (* Packets classified while the initial packet is still mid-chain go
     slow; only the tail of the burst can see the installed rule. *)
  Alcotest.(check bool)
    (Printf.sprintf "most of the burst raced onto the slow path (%d)"
       staged.Speedybox.Staged_runtime.slow_path)
    true
    (staged.Speedybox.Staged_runtime.slow_path >= 6);
  Alcotest.(check int) "all packets routed" 8
    (staged.Speedybox.Staged_runtime.slow_path + staged.Speedybox.Staged_runtime.fast_path);
  Alcotest.(check int) "all forwarded" 8 staged.Speedybox.Staged_runtime.forwarded;
  (* Counted exactly once per packet despite the race. *)
  Alcotest.(check int) "monitor counted each packet once" 8
    (Sb_nf.Monitor.total_packets monitor);
  (* The flow's recorded rule holds exactly one batch entry. *)
  let fid = Sb_flow.Fid.of_tuple (Test_util.tuple ~proto:17 ~dport:53 ()) in
  match Sb_mat.Local_mat.find (List.hd (Speedybox.Chain.local_mats chain)) fid with
  | None -> Alcotest.fail "expected a recorded rule"
  | Some rule ->
      Alcotest.(check int) "single recorded state function" 1
        (List.length (Sb_mat.Local_mat.rule_state_functions rule))

let test_later_packets_take_fast_path () =
  (* Spread the flow out: once the initial packet consolidates, the rest
     hit the Global MAT. *)
  let trace = timed 20_000 (List.init 6 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run (monitor_chain ()) trace in
  Alcotest.(check int) "first slow" 1 staged.Speedybox.Staged_runtime.slow_path;
  Alcotest.(check int) "rest fast" 5 staged.Speedybox.Staged_runtime.fast_path

let test_ring_overflow () =
  let trace = timed 1 (List.init 30 (fun _ -> Test_util.udp_packet ())) in
  let staged =
    Speedybox.Staged_runtime.run ~ring_capacity:4 (monitor_chain ()) trace
  in
  Alcotest.(check bool) "burst overflows the ring" true
    (staged.Speedybox.Staged_runtime.dropped_overflow > 0);
  Alcotest.(check int) "every packet accounted" 30
    (staged.Speedybox.Staged_runtime.forwarded
    + staged.Speedybox.Staged_runtime.dropped_by_chain
    + staged.Speedybox.Staged_runtime.dropped_overflow)

let test_fast_path_overtakes_backlog () =
  (* Heavy NFs and a long burst: packets that arrive after consolidation
     take the one-stage fast path and depart before the slow-path backlog
     still queued in the NF stages. *)
  let chain =
    Speedybox.Chain.create ~name:"heavy"
      (List.init 3 (fun i ->
           Sb_nf.Synthetic.nf
             (Sb_nf.Synthetic.create
                ~name:(Printf.sprintf "syn%d" (i + 1))
                ~cost_cycles:5000 ())))
  in
  let trace = timed 300 (List.init 60 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run ~ring_capacity:128 chain trace in
  Alcotest.(check bool) "some packets went fast" true
    (staged.Speedybox.Staged_runtime.fast_path > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fast path overtook the backlog (%d reordered)"
       staged.Speedybox.Staged_runtime.reordered)
    true
    (staged.Speedybox.Staged_runtime.reordered > 0)

let test_chain_drops_and_events_still_work () =
  (* A DoS guard inside the staged executor: the event flips the flow to
     early drop on the fast path. *)
  let chain =
    Speedybox.Chain.create ~name:"dos"
      [ Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:4 ()) ]
  in
  let trace = timed 20_000 (List.init 10 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run chain trace in
  Alcotest.(check int) "first 4 forwarded" 4 staged.Speedybox.Staged_runtime.forwarded;
  Alcotest.(check int) "rest dropped" 6 staged.Speedybox.Staged_runtime.dropped_by_chain;
  Alcotest.(check int) "event fired once" 1 staged.Speedybox.Staged_runtime.events_fired

let test_non_tcp_udp_drops_at_classifier () =
  (* A packet with no 5-tuple (IPv4 protocol 1) between two UDP packets:
     it enters the pipeline like any other, the classifier stage rejects
     it as malformed, and the packets around it still forward. *)
  let icmp = Test_util.udp_packet () in
  Bytes.set icmp.Sb_packet.Packet.buf (Sb_packet.Packet.l3_offset icmp + 9) (Char.chr 1);
  let trace = timed 20_000 [ Test_util.udp_packet (); icmp; Test_util.udp_packet () ] in
  let staged = Speedybox.Staged_runtime.run (monitor_chain ()) trace in
  Alcotest.(check int) "malformed packet dropped" 1
    staged.Speedybox.Staged_runtime.dropped_by_chain;
  Alcotest.(check int) "UDP packets forwarded" 2 staged.Speedybox.Staged_runtime.forwarded

(* Figures recorded from the staged executor before its event loop moved
   into the shared stage engine ({!Sb_sim.Stages}); exact floats, so a
   change to ring, hop or tie semantics shows. *)

(* Staged_pipeline.measure: (gap, slow %, reordered, overflow, p50 us,
   p99 us) at each of its five arrival gaps. *)
let measure_pins =
  [
    (10000, 0x1.b1e5f75270d04p+2, 0, 0, 0x1.9ef9db22d0e56p-1, 0x1.f5f99c38b04acp+0);
    (3000, 0x1.c797dd49c3411p+2, 0, 0, 0x1.9ef9db22d0e56p-1, 0x1.f5f99c38b04acp+0);
    (1500, 0x1.0f2fba9386823p+3, 3, 0, 0x1.a10624dd2f1aap-1, 0x1.57b2e9ccb7d44p+4);
    (800, 0x1.e56c797dd49c3p+3, 41, 62, 0x1.00e28f5c28f5cp+6, 0x1.5acc1205bc01ap+7);
    (400, 0x1.086822b63cbefp+5, 247, 196, 0x1.9f353f7ced916p+6, 0x1.98bc0c1fc8f32p+7);
  ]

let test_staged_pipeline_pinned () =
  let gaps = List.map (fun (gap, _, _, _, _, _) -> gap) measure_pins in
  List.iter2
    (fun (gap, slow, reordered, overflow, p50, p99) p ->
      let open Sb_experiments.Staged_pipeline in
      let what s = Printf.sprintf "gap %d: %s" gap s in
      Alcotest.(check int) (what "gap") gap p.gap_cycles;
      Alcotest.(check (float 0.)) (what "slow %") slow p.slow_pct;
      Alcotest.(check int) (what "reordered") reordered p.reordered;
      Alcotest.(check int) (what "overflow") overflow p.overflow;
      Alcotest.(check (float 0.)) (what "p50") p50 p.p50_us;
      Alcotest.(check (float 0.)) (what "p99") p99 p.p99_us)
    measure_pins
    (Sb_experiments.Staged_pipeline.measure ~gaps)

let test_burst_run_pinned () =
  (* Snort + Monitor at 3 Mpps, dequeue bursts of 8, Snort stalling on 10%
     of its calls: every result field. *)
  let injector = Sb_fault.Injector.create ~seed:1 () in
  Sb_fault.Injector.set_rate injector ~nf:"snort" Sb_fault.Injector.Stall 0.1;
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:97 ~rate_mpps:3.0
      (Sb_experiments.Fig6.chain_trace ())
  in
  let r =
    Speedybox.Staged_runtime.run ~burst:8 ~injector (Sb_experiments.Fig6.build_chain ()) trace
  in
  let open Speedybox.Staged_runtime in
  Alcotest.(check int) "forwarded" 204 r.forwarded;
  Alcotest.(check int) "dropped by chain" 0 r.dropped_by_chain;
  Alcotest.(check int) "dropped overflow" 976 r.dropped_overflow;
  Alcotest.(check int) "slow path" 1097 r.slow_path;
  Alcotest.(check int) "fast path" 83 r.fast_path;
  Alcotest.(check int) "reordered" 20 r.reordered;
  Alcotest.(check int) "sojourn samples" 204 (Sb_sim.Stats.count r.sojourn_us);
  Alcotest.(check int) "events fired" 0 r.events_fired;
  Alcotest.(check int) "faults" 17 r.faults;
  Alcotest.(check int) "quarantines" 0 r.quarantines;
  Alcotest.(check (float 0.))
    "p50" 0x1.5f9cac083126ep+7
    (Sb_sim.Stats.percentile r.sojourn_us 50.);
  Alcotest.(check (float 0.))
    "p99" 0x1.7ad95e4a38328p+8
    (Sb_sim.Stats.percentile r.sojourn_us 99.)

let suite =
  [
    Alcotest.test_case "low load matches analytic model" `Quick test_low_load_matches_analytic;
    Alcotest.test_case "consolidation race" `Quick test_consolidation_race;
    Alcotest.test_case "later packets take fast path" `Quick test_later_packets_take_fast_path;
    Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "fast path overtakes backlog" `Quick test_fast_path_overtakes_backlog;
    Alcotest.test_case "drops and events in the pipeline" `Quick
      test_chain_drops_and_events_still_work;
    Alcotest.test_case "non-TCP/UDP packet drops at the classifier" `Quick
      test_non_tcp_udp_drops_at_classifier;
    Alcotest.test_case "staged pipeline pinned" `Quick test_staged_pipeline_pinned;
    Alcotest.test_case "burst run pinned" `Quick test_burst_run_pinned;
  ]
