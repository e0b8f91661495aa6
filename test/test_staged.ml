(* Tests for the staged ONVM executor: low-load agreement with the
   analytic runtime, the consolidation race, ring overflow, and fast-path
   overtaking. *)

let timed gap packets =
  List.mapi
    (fun i p ->
      p.Sb_packet.Packet.ingress_cycle <- (i + 1) * gap;
      p)
    packets

let onvm () = Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ()

let monitor_chain () =
  Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

let dos_chain () =
  Speedybox.Chain.create ~name:"dos"
    [ Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:4 ()) ]

let test_low_load_matches_analytic () =
  (* Far-apart arrivals: no queueing, so staged sojourns equal the analytic
     ONVM latency packet for packet, up to the ring hop the analytic model
     charges the first packet's Consolidate stage, which the staged
     executor folds into the last NF's service.  The DoS guard drops the
     flow's last two packets on the fast path, where neither executor
     charges egress, so both chains show that same offset. *)
  let trace () = timed 100_000 (List.init 6 (fun _ -> Test_util.udp_packet ())) in
  let offsets =
    List.map
      (fun (name, chain, forwarded) ->
        let what s = name ^ ": " ^ s in
        let staged = Speedybox.Staged_runtime.run (onvm ()) (chain ()) (trace ()) in
        Alcotest.(check int) (what "forwarded") forwarded staged.Speedybox.Staged_runtime.forwarded;
        Alcotest.(check int) (what "no overflow") 0 staged.Speedybox.Staged_runtime.dropped_overflow;
        Alcotest.(check int) (what "no reordering") 0 staged.Speedybox.Staged_runtime.reordered;
        let rt = Speedybox.Runtime.create (onvm ()) (chain ()) in
        let analytic = Speedybox.Runtime.run_trace rt (trace ()) in
        let latency = Sb_sim.Stats.mean analytic.Speedybox.Runtime.latency_us in
        let sojourn = Sb_sim.Stats.mean staged.Speedybox.Staged_runtime.sojourn_us in
        Alcotest.(check (float 0.01)) (what "sojourn = analytic latency") latency sojourn;
        Alcotest.(check int) (what "same slow count") analytic.Speedybox.Runtime.slow_path
          staged.Speedybox.Staged_runtime.slow_path;
        sojourn -. latency)
      [ ("monitor", monitor_chain, 6); ("dos", dos_chain, 4) ]
  in
  Alcotest.(check (float 1e-9)) "same offset with fast-path drops" (List.nth offsets 0)
    (List.nth offsets 1)

let test_consolidation_race () =
  (* A tight burst: every packet is classified before the initial packet
     finishes its walk, so all take the slow path — but exactly one
     records, so the Local MATs hold single (not duplicated) entries. *)
  let monitor = Sb_nf.Monitor.create () in
  let chain = Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf monitor ] in
  let trace = timed 10 (List.init 8 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run (onvm ()) chain trace in
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
  let staged = Speedybox.Staged_runtime.run (onvm ()) (monitor_chain ()) trace in
  Alcotest.(check int) "first slow" 1 staged.Speedybox.Staged_runtime.slow_path;
  Alcotest.(check int) "rest fast" 5 staged.Speedybox.Staged_runtime.fast_path

let test_ring_overflow () =
  let trace = timed 1 (List.init 30 (fun _ -> Test_util.udp_packet ())) in
  let staged =
    Speedybox.Staged_runtime.run ~ring_capacity:4 (onvm ()) (monitor_chain ()) trace
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
  let staged = Speedybox.Staged_runtime.run ~ring_capacity:128 (onvm ()) chain trace in
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
  let trace = timed 20_000 (List.init 10 (fun _ -> Test_util.udp_packet ())) in
  let staged = Speedybox.Staged_runtime.run (onvm ()) (dos_chain ()) trace in
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
  let staged = Speedybox.Staged_runtime.run (onvm ()) (monitor_chain ()) trace in
  Alcotest.(check int) "malformed packet dropped" 1 staged.Speedybox.Staged_runtime.malformed;
  Alcotest.(check int) "no NF dropped" 0 staged.Speedybox.Staged_runtime.dropped_by_chain;
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
     of its calls: every result field.  Re-recorded when fast-path packets
     began drawing from the injector as [run_trace]'s do (charging their
     stalls to the GlobalMAT stage); without those draws the run gives the
     earlier figures exactly. *)
  let injector = Sb_fault.Injector.create ~seed:1 () in
  Sb_fault.Injector.set_rate injector ~nf:"snort" Sb_fault.Injector.Stall 0.1;
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:97 ~rate_mpps:3.0
      (Sb_experiments.Fig6.chain_trace ())
  in
  let r =
    Speedybox.Staged_runtime.run ~burst:8
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ~injector ())
      (Sb_experiments.Fig6.build_chain ()) trace
  in
  let open Speedybox.Staged_runtime in
  Alcotest.(check int) "forwarded" 301 r.forwarded;
  Alcotest.(check int) "dropped by chain" 0 r.dropped_by_chain;
  Alcotest.(check int) "dropped overflow" 879 r.dropped_overflow;
  Alcotest.(check int) "slow path" 995 r.slow_path;
  Alcotest.(check int) "fast path" 185 r.fast_path;
  Alcotest.(check int) "reordered" 38 r.reordered;
  Alcotest.(check int) "sojourn samples" 301 (Sb_sim.Stats.count r.sojourn_us);
  Alcotest.(check int) "events fired" 0 r.events_fired;
  Alcotest.(check int) "faults" 38 r.faults;
  Alcotest.(check int) "quarantines" 0 r.quarantines;
  Alcotest.(check (float 0.))
    "p50" 0x1.9c53333333333p+7
    (Sb_sim.Stats.percentile r.sojourn_us 50.);
  Alcotest.(check (float 0.))
    "p99" 0x1.5679db22d0e56p+8
    (Sb_sim.Stats.percentile r.sojourn_us 99.)

(* With no two packets of a flow in flight at once (arrivals 2M cycles
   apart, bursts of one, rings that never fill), the staged executor runs
   exactly what [Runtime.run_trace] runs: the same verdicts and bytes per
   packet and the same chain state, on every registry chain, with and
   without a fault injector on the chain's first NF. *)
let dcn_trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 500;
      n_flows = 60;
      mean_flow_packets = 10.;
      payload_len = (16, 128);
      udp_fraction = 0.2;
      malicious_fraction = 0.;
      tokens = [];
    }

let same_as_run_trace what cfg build trace =
  let trace = timed 2_000_000 trace in
  let n = List.length trace in
  let rt = Speedybox.Runtime.create (cfg ()) (build ()) in
  let expected = ref [] in
  ignore
    (Speedybox.Runtime.run_trace rt trace ~on_output:(fun _ out ->
         expected :=
           (out.Speedybox.Runtime.verdict, Sb_packet.Packet.wire out.Speedybox.Runtime.packet)
           :: !expected));
  let departed = Array.make n None in
  let chain = build () in
  let staged =
    Speedybox.Staged_runtime.run ~ring_capacity:1024 (cfg ()) chain trace
      ~on_departure:(fun i verdict packet ->
        departed.(i) <- Some (verdict, Sb_packet.Packet.wire packet))
  in
  Alcotest.(check int) (what ^ ": no overflow") 0 staged.Speedybox.Staged_runtime.dropped_overflow;
  Alcotest.(check bool) (what ^ ": fast path ran") true
    (staged.Speedybox.Staged_runtime.fast_path > 0);
  Alcotest.(check int) (what ^ ": no reordering") 0 staged.Speedybox.Staged_runtime.reordered;
  let mismatches =
    List.length
      (List.filter Fun.id
         (List.map2 (fun e d -> Some e <> d) (List.rev !expected) (Array.to_list departed)))
  in
  Alcotest.(check int) (what ^ ": per-packet verdicts and bytes differ") 0 mismatches;
  Alcotest.(check string) (what ^ ": chain state")
    (Speedybox.Chain.state_digest (Speedybox.Runtime.chain rt))
    (Speedybox.Chain.state_digest chain)

let test_staged_equals_run_trace () =
  List.iter
    (fun (name, _) ->
      let build = Result.get_ok (Sb_experiments.Chain_registry.build name) in
      let first = (List.hd (Speedybox.Chain.nfs (build ()))).Speedybox.Nf.name in
      let cfg injected () =
        let injector =
          Option.map
            (fun kind ->
              let inj = Sb_fault.Injector.create ~seed:11 () in
              Sb_fault.Injector.set_rate inj ~nf:first kind 0.05;
              inj)
            injected
        in
        Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ?injector ()
      in
      List.iter
        (fun (label, injected) ->
          same_as_run_trace (name ^ " " ^ label) (cfg injected) build (dcn_trace ()))
        [
          ("clean", None);
          ("stall", Some Sb_fault.Injector.Stall);
          ("corrupt", Some Sb_fault.Injector.Corrupt_verdict);
          ("raise", Some Sb_fault.Injector.Raise);
        ])
    (Sb_experiments.Chain_registry.registry ())

let test_staged_equals_run_trace_impaired () =
  (* Corrupted frames drop at admission under checksum verification. *)
  let spec = Result.get_ok (Sb_impair.Impair.parse_spec "corrupt:0.2") in
  let trace, _ = Sb_impair.Impair.apply ~seed:5 spec (dcn_trace ()) in
  same_as_run_trace "chain1 corrupt:0.2"
    (fun () ->
      Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ~verify_checksums:true ())
    (Result.get_ok (Sb_experiments.Chain_registry.build "chain1"))
    trace

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
    Alcotest.test_case "staged = run_trace on every registry chain" `Quick
      test_staged_equals_run_trace;
    Alcotest.test_case "staged = run_trace on a corrupted trace" `Quick
      test_staged_equals_run_trace_impaired;
  ]
