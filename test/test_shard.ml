(* The sharded runtime's deterministic executor must be observably
   identical to the unsharded burst path: same per-packet verdicts, paths,
   bytes and stage visits, same aggregates, flow times, NF state and fault
   attribution — for any shard count, over randomized traces with armed
   events and injected faults under every failure policy.  Plus direct
   coverage of steering symmetry, one shared health table under the
   parallel executor, flow migration (rule transplant,
   event-armed teardown, quarantine preservation, timeline logging,
   drain/rebalance), placement across runs (a migrated flow reopening
   within one run, a drain between two halves of a trace) under every
   executor, the packed steer against the tuple steer it replaced, and
   the Domain-parallel executor's guards and aggregate agreement. *)

open Sb_packet

let builder spec =
  match Sb_experiments.Chain_registry.build spec with
  | Ok build -> build
  | Error msg -> Alcotest.fail msg

let obs_of (out : Speedybox.Runtime.output) =
  {
    Test_burst.fid = out.Speedybox.Runtime.packet.Packet.fid;
    forwarded = out.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded;
    fast = out.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path;
    events = out.Speedybox.Runtime.events_fired;
    faults = out.Speedybox.Runtime.faults;
    latency = out.Speedybox.Runtime.latency_cycles;
    service = out.Speedybox.Runtime.service_cycles;
    stages =
      List.map
        (fun st -> (st.Sb_sim.Cost_profile.label, Sb_sim.Cost_profile.stage_cycles st))
        out.Speedybox.Runtime.profile;
    bytes = Packet.wire out.Speedybox.Runtime.packet;
  }

(* Builds a [shards]-way sharded runtime over fresh chain instances (and,
   when given, a freshly armed injector — shared by every shard, as one
   global fault schedule) and runs the trace on the deterministic
   executor. *)
let observe_sharded ?arm_injector ?fault_policy ~chain_spec ~shards ~burst trace =
  let build = builder chain_spec in
  let chains = Array.init shards (fun _ -> build ()) in
  let injector =
    Option.map
      (fun arm ->
        let inj = Sb_fault.Injector.create ~seed:11 () in
        arm inj chains.(0);
        inj)
      arm_injector
  in
  let sh =
    Sb_shard.Sharded.create ~shards
      (Speedybox.Runtime.config ?injector ?fault_policy ())
      (fun i -> chains.(i))
  in
  let obs = ref [] in
  let result =
    Sb_shard.Sharded.run_trace ~burst sh trace ~on_output:(fun _original out ->
        obs := obs_of out :: !obs)
  in
  (sh, List.rev !obs, result, List.init shards (Sb_shard.Sharded.runtime sh))

let supervisor_sum rts =
  let open Sb_fault.Supervisor in
  List.fold_left
    (fun (a, b, c, d, e, f) rt ->
      let s = Speedybox.Runtime.supervisor rt in
      ( a + contained s,
        b + corrupted s,
        c + stalled s,
        d + quarantines s,
        e + faulted_packets s,
        f + total_faults s ))
    (0, 0, 0, 0, 0, 0) rts

(* Per-NF state merged across shards: each NF's digest lines (per-flow on
   the chains used here) concatenated and sorted, so a 1-shard merge is
   just the sorted unsharded digest. *)
let merged_digests chains =
  match chains with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun idx nf ->
          let lines =
            List.concat_map
              (fun chain ->
                let nf = List.nth (Speedybox.Chain.nfs chain) idx in
                match nf.Speedybox.Nf.state_digest () with
                | "" -> []
                | d -> String.split_on_char '\n' d)
              chains
          in
          (nf.Speedybox.Nf.name, List.sort String.compare lines))
        (Speedybox.Chain.nfs first)

let health_snapshot rt =
  Sb_fault.Health.snapshot (Sb_fault.Supervisor.health (Speedybox.Runtime.supervisor rt))

let check_sharded_matches label (obs_u, res_u, rt_u, chain_u) (obs_s, res_s, rts_s) =
  if List.length obs_u <> List.length obs_s then
    Alcotest.failf "%s: %d vs %d observations" label (List.length obs_u)
      (List.length obs_s);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf
          "%s: packet %d diverges\n\
          \  unsharded: fid=%d fwd=%b fast=%b ev=%d faults=%d lat=%d\n\
          \  sharded  : fid=%d fwd=%b fast=%b ev=%d faults=%d lat=%d%s"
          label i a.Test_burst.fid a.Test_burst.forwarded a.Test_burst.fast
          a.Test_burst.events a.Test_burst.faults a.Test_burst.latency b.Test_burst.fid
          b.Test_burst.forwarded b.Test_burst.fast b.Test_burst.events b.Test_burst.faults
          b.Test_burst.latency
          (if a.Test_burst.bytes <> b.Test_burst.bytes then " (bytes differ)" else ""))
    (List.combine obs_u obs_s);
  let open Speedybox.Runtime in
  Alcotest.(check int) (label ^ ": packets") res_u.packets res_s.packets;
  Alcotest.(check int) (label ^ ": forwarded") res_u.forwarded res_s.forwarded;
  Alcotest.(check int) (label ^ ": dropped") res_u.dropped res_s.dropped;
  Alcotest.(check int) (label ^ ": slow path") res_u.slow_path res_s.slow_path;
  Alcotest.(check int) (label ^ ": fast path") res_u.fast_path res_s.fast_path;
  Alcotest.(check int) (label ^ ": events fired") res_u.events_fired res_s.events_fired;
  Alcotest.(check int) (label ^ ": faulted packets") res_u.faulted_packets res_s.faulted_packets;
  Alcotest.(check bool)
    (label ^ ": flow times") true
    (Test_burst.flow_times res_u = Test_burst.flow_times res_s);
  Alcotest.(check bool)
    (label ^ ": stage stats") true
    (Test_burst.stage_stats res_u = Test_burst.stage_stats res_s);
  Alcotest.(check bool)
    (label ^ ": fault attribution (summed)") true
    (supervisor_sum [ rt_u ] = supervisor_sum rts_s);
  (* Every shard reads the plan's one health table, which must equal the
     unsharded one exactly. *)
  List.iteri
    (fun i rt ->
      if health_snapshot rt <> health_snapshot rt_u then
        Alcotest.failf "%s: shard %d health diverges from unsharded" label i)
    rts_s;
  Alcotest.(check bool)
    (label ^ ": merged NF state") true
    (merged_digests [ chain_u ]
    = merged_digests (List.map Speedybox.Runtime.chain rts_s))

let differential ?arm_injector ?fault_policy ~chain_spec ~label trace =
  let reference =
    Test_burst.observe_run ?arm_injector ?fault_policy ~chain_spec ~burst:1 trace
  in
  List.iter
    (fun (shards, burst) ->
      let _, obs, result, rts =
        observe_sharded ?arm_injector ?fault_policy ~chain_spec ~shards ~burst trace
      in
      check_sharded_matches
        (Printf.sprintf "%s, %d shards, burst %d" label shards burst)
        reference (obs, result, rts))
    [ (1, 32); (2, 1); (2, 32); (3, 8); (4, 32) ]

(* Chains whose per-NF digests are per-flow lines (monitor, dosguard), so
   the merged-state comparison is exact; a dosguard budget of 500 never
   trips, making it a plain two-NF chain. *)
let test_differential_plain () =
  List.iter
    (fun seed ->
      differential ~chain_spec:"monitor,dosguard:500" ~label:"plain"
        (Test_burst.random_trace seed))
    [ 7; 99 ]

let test_differential_events () =
  (* dosguard:5 arms per-flow events that rewrite consolidated rules when
     the budget trips; firing order must survive sharding. *)
  List.iter
    (fun seed ->
      differential ~chain_spec:"monitor,dosguard:5" ~label:"armed events"
        (Test_burst.random_trace seed))
    [ 3; 42 ]

let test_differential_faults () =
  let arm_injector inj chain =
    match Speedybox.Chain.nfs chain with
    | first :: second :: _ ->
        Sb_fault.Injector.set_rate inj ~nf:first.Speedybox.Nf.name Sb_fault.Injector.Raise
          0.05;
        Sb_fault.Injector.set_rate inj ~nf:second.Speedybox.Nf.name
          Sb_fault.Injector.Corrupt_verdict 0.03
    | _ -> Alcotest.fail "chain too short"
  in
  (* One injector shared by every shard: the deterministic executor's
     global arrival order keeps the draw schedule identical to unsharded,
     and the shared health table keeps every shard's view of it exact.
     Thresholds low enough that an NF fails within the trace's first half,
     under each failure policy, so the cross-shard flush and the failure
     gate run at every shard count and burst size. *)
  let chain_spec = "monitor,dosguard:5" in
  List.iter
    (fun on_failure ->
      let fault_policy =
        Sb_fault.Health.policy ~degraded_after:2 ~failed_after:4 ~on_failure ()
      in
      let label =
        Format.asprintf "injected faults, %a" Sb_fault.Health.pp_on_failure on_failure
      in
      List.iter
        (fun seed ->
          let trace = Test_burst.random_trace seed in
          let half = List.filteri (fun i _ -> 2 * i < List.length trace) trace in
          let _, _, rt, _ =
            Test_burst.observe_run ~arm_injector ~fault_policy ~chain_spec ~burst:1 half
          in
          if
            not
              (List.exists
                 (fun (_, st, _) -> st = Sb_fault.Health.Failed)
                 (health_snapshot rt))
          then Alcotest.failf "%s, seed %d: no NF failed in the first half" label seed;
          differential ~arm_injector ~fault_policy ~chain_spec ~label trace)
        [ 5; 63 ])
    Sb_fault.Health.[ Bypass; Drop_flow; Slow_path_only ]

let test_differential_fin_midburst () =
  let trace =
    Test_util.tcp_flow ~sport:40000 6
    @ Test_util.tcp_flow ~sport:40001 4
    @ Test_util.tcp_flow ~sport:40000 6
  in
  differential ~chain_spec:"monitor,dosguard:500" ~label:"FIN mid-burst" trace

let test_non_flow_steers_to_shard_zero () =
  (* A GRE packet has no 5-tuple: it steers to shard 0 (Original mode —
     the Speedybox classifier requires TCP/UDP) and its processing time
     buckets under the sentinel, reported as "non-flow", never a raw
     FID. *)
  let gre =
    let p = Test_util.tcp_packet ~sport:51515 () in
    Bytes.set p.Packet.buf (Packet.l3_offset p + 9) (Char.chr 47);
    p
  in
  let build = builder "monitor" in
  let sh =
    Sb_shard.Sharded.create ~shards:2
      (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Original ())
      (fun _ -> build ())
  in
  Alcotest.(check int) "steered to shard 0" 0 (Sb_shard.Sharded.shard_of_packet sh gre);
  (* So do frames cut short of their headers, at any shard count, and
     nothing raises. *)
  let cut p n ~exact =
    let q = Packet.copy p in
    if exact then q.Packet.buf <- Bytes.sub q.Packet.buf 0 n;
    q.Packet.len <- n;
    q
  in
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          List.iter
            (fun q ->
              for shards = 1 to 8 do
                Alcotest.(check int) "cut frame steers to 0" 0
                  (Sb_shard.Steer.shard_of_packet ~shards q)
              done;
              Alcotest.(check int) "the plan steers a cut frame to 0" 0
                (Sb_shard.Sharded.shard_of_packet sh q))
            [ cut p n ~exact:true; cut p n ~exact:false ])
        [ 0; 10; 14; 33; Packet.l4_offset p; Packet.l4_offset p + 7 ])
    [ gre; Test_util.tcp_packet ~payload:"" ~flags:Tcp.Flags.syn (); Test_util.udp_packet () ];
  let result =
    Sb_shard.Sharded.run_trace ~burst:4 sh
      [ Packet.copy gre; Test_util.tcp_packet (); Packet.copy gre ]
  in
  Alcotest.(check int) "all processed" 3 result.Speedybox.Runtime.packets;
  Alcotest.(check bool) "sentinel bucket" true
    (Sb_flow.Flat_table.mem result.Speedybox.Runtime.flow_time_us
       Speedybox.Runtime.no_flow_fid)

(* --- steering --- *)

let test_steer_symmetric () =
  for i = 0 to 199 do
    let t = Test_util.tuple ~sport:(20000 + i) ~dport:(i mod 7) () in
    let s = Sb_shard.Steer.shard_of_tuple ~shards:4 t in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "reverse direction co-located" s
      (Sb_shard.Steer.shard_of_tuple ~shards:4 (Sb_flow.Five_tuple.reverse t));
    Alcotest.(check int) "one shard is shard 0" 0
      (Sb_shard.Steer.shard_of_tuple ~shards:1 t)
  done;
  Alcotest.check_raises "shards < 1 rejected"
    (Invalid_argument "Steer.shard_of_tuple: shards must be positive")
    (fun () -> ignore (Sb_shard.Steer.shard_of_tuple ~shards:0 (Test_util.tuple ())))

let test_steer_spreads () =
  (* Not a uniformity proof, just an anti-degeneracy check: 400 distinct
     connections across 4 shards must not all pile onto one. *)
  let counts = Array.make 4 0 in
  for i = 0 to 399 do
    let t = Test_util.tuple ~sport:(10000 + i) () in
    let s = Sb_shard.Steer.shard_of_tuple ~shards:4 t in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "shard %d received no flows" i)
    counts

(* --- migration --- *)

let fid_of sh tuple =
  Sb_flow.Fid.of_tuple ~bits:(Sb_shard.Sharded.config sh).Speedybox.Runtime.fid_bits tuple

let test_migrate_moves_state () =
  let sh, _, _, _ = observe_sharded ~chain_spec:"monitor" ~shards:2 ~burst:8 [] in
  let trace = Test_util.tcp_flow ~sport:40000 ~fin:false 6 in
  let half_a = Test_burst.observe_run ~chain_spec:"monitor" ~burst:8 (trace @ trace) in
  ignore (Sb_shard.Sharded.run_trace ~burst:8 sh trace);
  let tuple = Test_util.tuple ~sport:40000 () in
  let fid = fid_of sh tuple in
  let src = Sb_shard.Sharded.shard_of_packet sh (Test_util.tcp_packet ~sport:40000 ()) in
  let dest = 1 - src in
  let mat i = Speedybox.Runtime.global_mat (Sb_shard.Sharded.runtime sh i) in
  let cls i = Speedybox.Runtime.classifier (Sb_shard.Sharded.runtime sh i) in
  Alcotest.(check bool) "rule starts on src" true (Sb_mat.Global_mat.find (mat src) fid <> None);
  Alcotest.(check bool) "moved" true (Sb_shard.Sharded.migrate_flow sh ~fid ~dest);
  Alcotest.(check bool) "rule left src" true (Sb_mat.Global_mat.find (mat src) fid = None);
  Alcotest.(check bool) "rule transplanted" true (Sb_mat.Global_mat.find (mat dest) fid <> None);
  Alcotest.(check bool) "conntrack left src" true
    (Speedybox.Classifier.export_flow (cls src) tuple = None);
  Alcotest.(check bool) "conntrack adopted" true
    (Speedybox.Classifier.export_flow (cls dest) tuple <> None);
  Alcotest.(check int) "steering follows" dest
    (Sb_shard.Sharded.shard_of_packet sh (Test_util.tcp_packet ~sport:40000 ()));
  Alcotest.(check bool) "repeat migration is a no-op" false
    (Sb_shard.Sharded.migrate_flow sh ~fid ~dest);
  (* The transplanted rule keeps working: the continuation stays bit-exact
     with an unsharded run of the whole trace (in particular, no extra
     slow-path re-record on the new home). *)
  let obs = ref [] in
  let res2 =
    Sb_shard.Sharded.run_trace ~burst:8 sh trace ~on_output:(fun _ out ->
        obs := obs_of out :: !obs)
  in
  let obs_u, _, _, _ = half_a in
  let expected_tail =
    List.filteri (fun i _ -> i >= List.length trace) obs_u
  in
  Alcotest.(check bool) "continuation matches unsharded" true (List.rev !obs = expected_tail);
  Alcotest.(check int) "no re-record after transplant" 0 res2.Speedybox.Runtime.slow_path

let test_migrate_event_armed_tears_down () =
  let sh, _, _, _ = observe_sharded ~chain_spec:"monitor,dosguard:5" ~shards:2 ~burst:8 [] in
  (* 3 packets: consolidated, and the dosguard budget event still armed. *)
  let trace = Test_util.tcp_flow ~sport:40000 ~fin:false 2 in
  ignore (Sb_shard.Sharded.run_trace ~burst:8 sh trace);
  let tuple = Test_util.tuple ~sport:40000 () in
  let fid = fid_of sh tuple in
  let src = Sb_shard.Sharded.shard_of_packet sh (Test_util.tcp_packet ~sport:40000 ()) in
  let dest = 1 - src in
  let events i =
    Speedybox.Chain.events (Speedybox.Runtime.chain (Sb_shard.Sharded.runtime sh i))
  in
  let mat i = Speedybox.Runtime.global_mat (Sb_shard.Sharded.runtime sh i) in
  Alcotest.(check bool) "event armed before" true
    (Sb_mat.Event_table.armed_count (events src) fid > 0);
  Alcotest.(check bool) "moved" true (Sb_shard.Sharded.migrate_flow sh ~fid ~dest);
  (* The Event Table's registrations live in the source chain: the rule
     must NOT transplant — it tears down and re-records on [dest]. *)
  Alcotest.(check bool) "no transplanted rule" true (Sb_mat.Global_mat.find (mat dest) fid = None);
  Alcotest.(check int) "source events torn down" 0
    (Sb_mat.Event_table.armed_count (events src) fid);
  let res =
    Sb_shard.Sharded.run_trace ~burst:8 sh (Test_util.tcp_flow ~sport:40000 ~fin:false 2)
  in
  Alcotest.(check bool) "re-records on new home" true (res.Speedybox.Runtime.slow_path > 0);
  Alcotest.(check bool) "rule rebuilt on dest" true (Sb_mat.Global_mat.find (mat dest) fid <> None);
  Alcotest.(check bool) "event re-armed on dest" true
    (Sb_mat.Event_table.armed_count (events dest) fid > 0)

let test_migrate_quarantined_stays_down () =
  let arm_injector inj _chain =
    Sb_fault.Injector.set_rate inj ~nf:"monitor" Sb_fault.Injector.Raise 1.0
  in
  let sh, _, _, _ =
    observe_sharded ~arm_injector ~chain_spec:"monitor" ~shards:2 ~burst:8 []
  in
  (* Every monitor call raises: the first packet faults, is contained, and
     the flow is quarantined with its consolidated state torn down. *)
  ignore (Sb_shard.Sharded.run_trace ~burst:8 sh [ Test_util.tcp_packet ~sport:40000 () ]);
  let tuple = Test_util.tuple ~sport:40000 () in
  let fid = fid_of sh tuple in
  let src = Sb_shard.Sharded.shard_of_packet sh (Test_util.tcp_packet ~sport:40000 ()) in
  let dest = 1 - src in
  let mat i = Speedybox.Runtime.global_mat (Sb_shard.Sharded.runtime sh i) in
  Alcotest.(check int) "quarantined" 1
    (Sb_fault.Supervisor.quarantines
       (Speedybox.Runtime.supervisor (Sb_shard.Sharded.runtime sh src)));
  Alcotest.(check bool) "no rule after quarantine" true (Sb_mat.Global_mat.find (mat src) fid = None);
  Alcotest.(check bool) "moved by steering alone" true
    (Sb_shard.Sharded.migrate_flow sh ~fid ~dest);
  (* Migration must not resurrect anything the fault layer tore down. *)
  Alcotest.(check bool) "still no rule on dest" true (Sb_mat.Global_mat.find (mat dest) fid = None);
  Alcotest.(check int) "rule table empty on dest" 0
    (Sb_mat.Global_mat.flow_count (mat dest))

let test_migrate_logs_timeline () =
  let build = builder "monitor" in
  let obs = Sb_obs.Sink.create ~timeline:true () in
  let sh =
    Sb_shard.Sharded.create ~shards:2 (Speedybox.Runtime.config ~obs ()) (fun _ -> build ())
  in
  ignore (Sb_shard.Sharded.run_trace sh (Test_util.tcp_flow ~sport:40000 ~fin:false 3));
  let tuple = Test_util.tuple ~sport:40000 () in
  let fid = fid_of sh tuple in
  let src = Sb_shard.Sharded.shard_of_packet sh (Test_util.tcp_packet ~sport:40000 ()) in
  let dest = 1 - src in
  Alcotest.(check bool) "moved" true (Sb_shard.Sharded.migrate_flow sh ~fid ~dest);
  (* The migration entry lands in the source shard's child sink; the
     parent view is recomputed on demand. *)
  Sb_shard.Sharded.merge_obs sh;
  match Sb_obs.Sink.timeline obs with
  | None -> Alcotest.fail "timeline was armed"
  | Some tl ->
      let migrations =
        List.filter
          (fun e -> e.Sb_obs.Timeline.kind = Sb_obs.Timeline.Migrated)
          (Sb_obs.Timeline.events tl fid)
      in
      Alcotest.(check int) "one migration entry" 1 (List.length migrations);
      Alcotest.(check string) "detail names the hop"
        (Printf.sprintf "shard %d -> %d" src dest)
        (List.hd migrations).Sb_obs.Timeline.detail

let directory_counts sh =
  List.map (fun r -> r.Speedybox.Report.flows) (Sb_shard.Sharded.stats sh)

let test_drain_shard_and_rebalance () =
  let sh, _, _, _ = observe_sharded ~chain_spec:"monitor" ~shards:3 ~burst:8 [] in
  let trace =
    List.concat_map
      (fun i -> Test_util.tcp_flow ~sport:(30000 + (7 * i)) ~fin:false 2)
      (List.init 18 Fun.id)
  in
  ignore (Sb_shard.Sharded.run_trace ~burst:8 sh trace);
  let before = directory_counts sh in
  Alcotest.(check int) "directory holds every flow" 18 (List.fold_left ( + ) 0 before);
  (* Evacuate shard 0 entirely. *)
  let owned0 = List.nth before 0 in
  let moved = Sb_shard.Sharded.drain_shard sh ~from:0 ~dest:1 in
  Alcotest.(check int) "every owned flow moved" owned0 moved;
  Alcotest.(check int) "shard 0 empty" 0 (List.nth (directory_counts sh) 0);
  Alcotest.(check int) "nothing lost" 18
    (List.fold_left ( + ) 0 (directory_counts sh));
  (* Rebalance spreads the now-lopsided directory back out. *)
  let spread counts = List.fold_left max 0 counts - List.fold_left min max_int counts in
  let before_spread = spread (directory_counts sh) in
  let rebalanced = Sb_shard.Sharded.rebalance sh in
  let after_spread = spread (directory_counts sh) in
  Alcotest.(check bool) "rebalance moved flows" true (rebalanced > 0);
  Alcotest.(check bool) "spread shrank" true (after_spread < before_spread);
  Alcotest.(check int) "still nothing lost" 18
    (List.fold_left ( + ) 0 (directory_counts sh))

(* --- steering across runs: one pass decides every placement --- *)

(* A monitor chain on one runtime, or on a 2-shard plan run by an
   executor (the deterministic one at some burst, or the parallel one):
   the same runs in the same order, so every answer must agree. *)
type plan = Unsharded of Speedybox.Runtime.t | Sharded of Sb_shard.Sharded.t

let tuple_a = Test_util.tuple ~sport:40000 ()

let packet_a flags = Test_util.tcp_packet ~flags ~sport:40000 ()

let run_on ~exec plan ~on_output trace =
  match plan with
  | Unsharded rt -> Speedybox.Runtime.run_trace ~on_output rt trace
  | Sharded sh -> exec ~on_output sh trace

(* Flow A runs three packets and moves to the other shard, then reopens
   in one run: ACK, FIN (whose prune drops A's override), SYN and three
   ACKs.  Returns the reopening run's outputs (empty when the executor
   reports none). *)
let migrated_reopen ~exec plan =
  let no_output _ _ = () in
  ignore (run_on ~exec plan ~on_output:no_output (Test_util.tcp_flow ~sport:40000 ~fin:false 2));
  (match plan with
  | Unsharded _ -> ()
  | Sharded sh ->
      let src = Sb_shard.Sharded.shard_of_packet sh (packet_a Tcp.Flags.ack) in
      Alcotest.(check bool) "A migrates" true
        (Sb_shard.Sharded.migrate_flow sh ~fid:(fid_of sh tuple_a) ~dest:(1 - src)));
  let outs = ref [] in
  let reopen = Tcp.Flags.[ ack; fin_ack; syn; ack; ack; ack ] in
  ignore
    (run_on ~exec plan
       ~on_output:(fun _ out -> outs := obs_of out :: !outs)
       (List.map packet_a reopen));
  List.rev !outs

let next_packet_fast ~exec plan =
  (run_on ~exec plan ~on_output:(fun _ _ -> ()) [ packet_a Tcp.Flags.ack ])
    .Speedybox.Runtime.fast_path
  = 1

let det ~burst ~on_output sh trace = Sb_shard.Sharded.run_trace ~on_output ~burst sh trace

let par ~on_output:_ sh trace = Sb_shard.Parallel_exec.run_trace ~burst:8 sh trace

let monitor_plan ?fid_bits () =
  let build = builder "monitor" in
  Sb_shard.Sharded.create ~shards:2 (Speedybox.Runtime.config ?fid_bits ()) (fun _ -> build ())

let test_migrated_reopen () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (builder "monitor" ()) in
  (* [exec] runs sharded plans only. *)
  let outs_u = migrated_reopen ~exec:par (Unsharded rt) in
  let fast_u = next_packet_fast ~exec:par (Unsharded rt) in
  let digests_u = merged_digests [ Speedybox.Runtime.chain rt ] in
  let answer (label, exec, has_outputs) =
    let sh = monitor_plan () in
    let rt i = Sb_shard.Sharded.runtime sh i in
    let outs = migrated_reopen ~exec (Sharded sh) in
    if has_outputs && outs <> outs_u then
      Alcotest.failf "%s: the reopened connection's outputs differ from unsharded" label;
    let stats = Sb_shard.Sharded.stats sh in
    let home = Sb_shard.Sharded.shard_of_packet sh (packet_a Tcp.Flags.ack) in
    Alcotest.(check bool) (label ^ ": A's rule is where A steers") true
      (Sb_mat.Global_mat.find (Speedybox.Runtime.global_mat (rt home)) (fid_of sh tuple_a)
      <> None);
    Alcotest.(check bool) (label ^ ": A's conntrack entry is where A steers") true
      (Speedybox.Classifier.export_flow (Speedybox.Runtime.classifier (rt home)) tuple_a
      <> None);
    Alcotest.(check bool) (label ^ ": A's next packet takes the unsharded path") fast_u
      (next_packet_fast ~exec (Sharded sh));
    Alcotest.(check bool) (label ^ ": merged NF state = unsharded") true
      (digests_u = merged_digests (List.init 2 (fun i -> Speedybox.Runtime.chain (rt i))));
    (label, stats, home)
  in
  match
    List.map answer
      [
        ("det burst 1", det ~burst:1, true);
        ("det burst 2", det ~burst:2, true);
        ("det burst 32", det ~burst:32, true);
        ("par-2", par, false);
      ]
  with
  | [] -> ()
  | (_, stats1, home1) :: rest ->
      List.iter
        (fun (label, stats, home) ->
          Alcotest.(check bool) (label ^ ": stats = det burst 1") true (stats = stats1);
          Alcotest.(check int) (label ^ ": A steers where det burst 1 puts it") home1 home)
        rest

(* The lane fixes every placement before a run's first packet, so moving
   a flow from [on_output] would leave its remaining packets on the shard
   its state just left: migration refuses to act during a run, and the
   plan accepts it again once the run is over. *)
let test_migrate_during_run () =
  let sh = monitor_plan () in
  let fid = fid_of sh tuple_a in
  let trace = Test_util.tcp_flow ~sport:40000 ~fin:false 4 in
  ignore (det ~burst:32 ~on_output:(fun _ _ -> ()) sh trace);
  let src = Sb_shard.Sharded.shard_of_packet sh (packet_a Tcp.Flags.ack) in
  let refused what f =
    match
      det ~burst:32 sh trace ~on_output:(fun _ _ -> ignore (f ()))
    with
    | _ -> Alcotest.failf "%s ran during a run" what
    | exception Invalid_argument _ -> ()
  in
  refused "migrate_flow" (fun () -> Sb_shard.Sharded.migrate_flow sh ~fid ~dest:(1 - src));
  refused "drain_shard" (fun () -> Sb_shard.Sharded.drain_shard sh ~from:src ~dest:(1 - src));
  refused "rebalance" (fun () -> Sb_shard.Sharded.rebalance sh);
  refused "a nested run" (fun () -> det ~burst:32 ~on_output:(fun _ _ -> ()) sh trace);
  Alcotest.(check int) "A still steers to its shard" src
    (Sb_shard.Sharded.shard_of_packet sh (packet_a Tcp.Flags.ack));
  Alcotest.(check bool) "A migrates once the run is over" true
    (Sb_shard.Sharded.migrate_flow sh ~fid ~dest:(1 - src))

(* Half a trace, an evacuation of shard 0, then the rest: the drained
   flows carry overrides, and a FIN among them prunes one mid-run — with
   6-bit FIDs, often the override of another flow on the same FID whose
   packets follow.  The per-shard figures must not depend on the executor
   or the burst. *)
let prop_drain_midtrace =
  QCheck.Test.make ~count:12 ~name:"drain between runs: det-1/8/32 and par-2 agree on stats"
    QCheck.(
      make
        ~print:(fun (seed, fid_bits) -> Printf.sprintf "seed %d, %d-bit FIDs" seed fid_bits)
        Gen.(pair (int_bound 10_000) (oneofl [ 6; 20 ])))
    (fun (seed, fid_bits) ->
      let trace = Test_burst.random_trace seed in
      let half = List.length trace / 2 in
      let first = List.filteri (fun i _ -> i < half) trace
      and rest = List.filteri (fun i _ -> i >= half) trace in
      let stats exec =
        let sh = monitor_plan ~fid_bits () in
        ignore (exec ~on_output:(fun _ _ -> ()) sh first);
        ignore (Sb_shard.Sharded.drain_shard sh ~from:0 ~dest:1);
        ignore (exec ~on_output:(fun _ _ -> ()) sh rest);
        Sb_shard.Sharded.stats sh
      in
      let reference = stats (det ~burst:1) in
      List.for_all (fun exec -> stats exec = reference) [ det ~burst:8; det ~burst:32; par ])

(* --- the steering oracle --- *)

(* The tuple steer the packed one replaced: build the tuple and its
   reverse, keep the one [Five_tuple.compare] ranks first, hash it and
   scramble the hash onto a shard. *)
let oracle_shard ~shards p =
  match Sb_flow.Five_tuple.of_packet_opt p with
  | None -> 0
  | Some _ when shards = 1 -> 0
  | Some t ->
      let r = Sb_flow.Five_tuple.reverse t in
      let c = if Sb_flow.Five_tuple.compare t r <= 0 then t else r in
      let h = Sb_flow.Five_tuple.hash c * 0x2545F4914F6CDD1D in
      (h lxor (h lsr 31)) land max_int mod shards

(* The same packet seen from the other end: addresses and ports swapped,
   outer headers kept. *)
let reversed p =
  let q = Packet.copy p in
  let swap a b =
    let va = Packet.get_field p a and vb = Packet.get_field p b in
    Packet.set_field q a vb;
    Packet.set_field q b va
  in
  swap Field.Src_ip Field.Dst_ip;
  swap Field.Src_port Field.Dst_port;
  q

let prop_steer_oracle =
  QCheck.Test.make ~count:500 ~name:"Steer.shard_of_packet = the tuple steer, both orientations"
    (QCheck.make
       ~print:(fun (shards, p) -> Printf.sprintf "%d shards, %s" shards (Test_flow.print_packet p))
       QCheck.Gen.(pair (int_range 1 8) Test_flow.gen_packet))
    (fun (shards, p) ->
      let q = reversed p in
      let s = Sb_shard.Steer.shard_of_packet ~shards p in
      s = oracle_shard ~shards p
      && Sb_shard.Steer.shard_of_packet ~shards q = oracle_shard ~shards q
      && Sb_shard.Steer.shard_of_packet ~shards q = s)

(* --- the parallel executor --- *)

let test_parallel_matches_deterministic () =
  let trace = Test_burst.random_trace 17 in
  let _, _, det, det_rts =
    observe_sharded ~chain_spec:"monitor,dosguard:5" ~shards:3 ~burst:16 trace
  in
  let build = builder "monitor,dosguard:5" in
  let sh = Sb_shard.Sharded.create ~shards:3 (Speedybox.Runtime.config ()) (fun _ -> build ()) in
  let par = Sb_shard.Parallel_exec.run_trace ~burst:16 sh trace in
  let open Speedybox.Runtime in
  Alcotest.(check int) "packets" det.packets par.packets;
  Alcotest.(check int) "forwarded" det.forwarded par.forwarded;
  Alcotest.(check int) "dropped" det.dropped par.dropped;
  Alcotest.(check int) "slow path" det.slow_path par.slow_path;
  Alcotest.(check int) "fast path" det.fast_path par.fast_path;
  Alcotest.(check int) "events fired" det.events_fired par.events_fired;
  (* Each flow lives on exactly one shard and its packets stay in order
     there, so per-flow times are bit-exact, not just close. *)
  Alcotest.(check bool) "flow times" true
    (Test_burst.flow_times det = Test_burst.flow_times par);
  Alcotest.(check bool) "merged NF state" true
    (merged_digests (List.map Speedybox.Runtime.chain det_rts)
    = merged_digests
        (List.init 3 (fun i -> Speedybox.Runtime.chain (Sb_shard.Sharded.runtime sh i))))

let test_parallel_dir_collisions () =
  (* With a tiny fid space, two distinct flows on *different* shards
     collide on one fid, and their arrivals and FIN-prunes interleave in
     trace order across shards.  The end-of-run directory (the per-shard
     [flows] column) must still match the deterministic executor exactly —
     which holds because both executors take their placements and books
     from one in-order steering pass rather than merging per-worker
     notes. *)
  List.iter
    (fun seed ->
      let trace = Test_burst.random_trace seed in
      let build = builder "monitor" in
      let mk () =
        Sb_shard.Sharded.create ~shards:3
          (Speedybox.Runtime.config ~fid_bits:6 ())
          (fun _ -> build ())
      in
      let det_plan = mk () in
      let det = Sb_shard.Sharded.run_trace ~burst:16 det_plan trace in
      let par_plan = mk () in
      let par = Sb_shard.Parallel_exec.run_trace ~burst:16 par_plan trace in
      Alcotest.(check int)
        (Printf.sprintf "packets (seed %d)" seed)
        det.Speedybox.Runtime.packets par.Speedybox.Runtime.packets;
      Alcotest.(check bool)
        (Printf.sprintf "shard stats identical (seed %d)" seed)
        true
        (Sb_shard.Sharded.stats det_plan = Sb_shard.Sharded.stats par_plan))
    [ 1; 5; 9; 13 ]

let test_parallel_guards () =
  let build = builder "monitor" in
  let inj = Sb_fault.Injector.create ~seed:1 () in
  Sb_fault.Injector.set_rate inj ~nf:"monitor" Sb_fault.Injector.Raise 0.1;
  let with_inj =
    Sb_shard.Sharded.create ~shards:2
      (Speedybox.Runtime.config ~injector:inj ())
      (fun _ -> build ())
  in
  (match Sb_shard.Parallel_exec.run_trace with_inj [] with
  | _ -> Alcotest.fail "injector must be rejected"
  | exception Invalid_argument _ -> ());
  let plain =
    Sb_shard.Sharded.create ~shards:2 (Speedybox.Runtime.config ()) (fun _ -> build ())
  in
  (match Sb_shard.Parallel_exec.run_trace ~burst:0 plain [] with
  | _ -> Alcotest.fail "burst 0 must be rejected"
  | exception Invalid_argument _ -> ())

(* --- one health table under the parallel executor --- *)

(* An NF that raises on every packet whose payload reads "boom": an
   organic fault, which the parallel executor accepts where it refuses an
   injector.  Before its first raise it spins for [stall] seconds of CPU
   time. *)
let boom_nf ?(stall = 0.) () =
  let stalled = ref false in
  Speedybox.Nf.make ~name:"bomber" (fun _ctx packet ->
      if Packet.payload packet = "boom" then begin
        if not !stalled then begin
          stalled := true;
          let t0 = Sys.time () in
          while Sys.time () -. t0 < stall do
            Domain.cpu_relax ()
          done
        end;
        failwith "bomber: boom"
      end;
      Speedybox.Nf.forwarded 100)

let health_lines rt =
  List.filter
    (fun l -> String.starts_with ~prefix:"health" l)
    (Sb_fault.Supervisor.summary (Speedybox.Runtime.supervisor rt))

(* The bomber fails on shard 0's flows only.  Shard 1, which records no
   fault of its own, still ends reading the same health, woken, and with
   the rules it built before the failure flushed — under par-2 as under
   det-2 and unsharded.  Under par-2 the bomber stalls before its first
   raise, so shard 1 most likely finishes its one batch before the
   failure and only the end-of-run sync can flush it. *)
let test_parallel_organic_fault () =
  let fault_policy =
    Sb_fault.Health.policy ~degraded_after:2 ~failed_after:3
      ~on_failure:Sb_fault.Health.Slow_path_only ()
  in
  let chain ?stall () =
    Speedybox.Chain.create ~name:"boom"
      [ boom_nf ?stall (); Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let plan ?stall () =
    Sb_shard.Sharded.create ~shards:2
      (Speedybox.Runtime.config ~fault_policy ())
      (fun _ -> chain ?stall ())
  in
  let probe = plan () in
  let sports shard n =
    List.init 64 (fun i -> 42000 + i)
    |> List.filter (fun sport ->
           Sb_shard.Sharded.shard_of_packet probe (Test_util.tcp_packet ~sport ()) = shard)
    |> List.filteri (fun i _ -> i < n)
  in
  let quiet k =
    List.concat_map (fun sport -> Test_util.tcp_flow ~sport ~fin:false k) (sports 1 4)
  in
  let loud =
    List.concat_map
      (fun sport -> Test_util.tcp_flow ~sport ~payload:"boom" ~fin:false 2)
      (sports 0 3)
  in
  (* Shard 1's flows consolidate, shard 0's fail the bomber, then shard
     1's flows go on. *)
  let trace = quiet 3 @ loud @ quiet 2 in
  let rt_u = Speedybox.Runtime.create (Speedybox.Runtime.config ~fault_policy ()) (chain ()) in
  ignore (Speedybox.Runtime.run_trace rt_u trace);
  let expected = health_snapshot rt_u in
  Alcotest.(check bool) "the bomber failed" true
    (List.exists (fun (nf, st, _) -> nf = "bomber" && st = Sb_fault.Health.Failed) expected);
  let det = plan () in
  ignore (Sb_shard.Sharded.run_trace det trace);
  let par = plan ~stall:0.05 () in
  ignore (Sb_shard.Parallel_exec.run_trace par trace);
  List.iter
    (fun (label, sh) ->
      List.iter
        (fun i ->
          let rt = Sb_shard.Sharded.runtime sh i in
          let what = Printf.sprintf "%s shard %d" label i in
          if health_snapshot rt <> expected then Alcotest.failf "%s: health diverges" what;
          Alcotest.(check (list string)) (what ^ ": health lines") (health_lines rt_u)
            (health_lines rt))
        [ 0; 1 ];
      let rt1 = Sb_shard.Sharded.runtime sh 1 in
      let sup1 = Speedybox.Runtime.supervisor rt1 in
      Alcotest.(check int) (label ^ ": shard 1 recorded no fault") 0
        (Sb_fault.Supervisor.total_faults sup1);
      Alcotest.(check bool) (label ^ ": shard 1 woke") true (Sb_fault.Supervisor.active sup1);
      Alcotest.(check int) (label ^ ": shard 1 holds no rule") 0
        (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt1)))
    [ ("det-2", det); ("par-2", par) ];
  Alcotest.(check int) "unsharded holds no rule" 0
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt_u))

(* --- armed observability under the parallel executor --- *)

let run_armed ~shards ~snapshot_every exec trace =
  let build = builder "monitor,dosguard:5" in
  let obs =
    Sb_obs.Sink.create ~metrics:true ~trace:true ~timeline:true ~snapshot_every ()
  in
  let sh =
    Sb_shard.Sharded.create ~shards (Speedybox.Runtime.config ~obs ()) (fun _ -> build ())
  in
  ignore (exec sh trace : Speedybox.Runtime.run_result);
  obs

let test_parallel_armed_matches_deterministic () =
  (* The headline differential: a metrics+trace+timeline sink armed on the
     parallel 4-shard executor must merge to the exact exports the
     deterministic 4-shard executor produces — counter for counter,
     bucket for bucket, span for span, snapshot for snapshot, with no
     family left out.  Holds because each shard observes its packets in
     global trace order under both executors. *)
  let trace = Test_burst.random_trace 23 in
  let det = run_armed ~shards:4 ~snapshot_every:64 (Sb_shard.Sharded.run_trace ~burst:16) trace in
  let par =
    run_armed ~shards:4 ~snapshot_every:64 (Sb_shard.Parallel_exec.run_trace ~burst:16) trace
  in
  let metrics o = Option.get (Sb_obs.Sink.metrics o) in
  Alcotest.(check string) "merged Prometheus export identical"
    (Sb_obs.Metrics.to_prometheus (metrics det))
    (Sb_obs.Metrics.to_prometheus (metrics par));
  Alcotest.(check string) "merged Chrome trace identical"
    (Sb_obs.Tracer.to_chrome_json (Option.get (Sb_obs.Sink.tracer det)))
    (Sb_obs.Tracer.to_chrome_json (Option.get (Sb_obs.Sink.tracer par)));
  let tl o = Option.get (Sb_obs.Sink.timeline o) in
  Alcotest.(check (list int)) "timeline flows identical"
    (Sb_obs.Timeline.flows (tl det))
    (Sb_obs.Timeline.flows (tl par));
  List.iter
    (fun fid ->
      Alcotest.(check bool)
        (Printf.sprintf "timeline events identical (fid %d)" fid)
        true
        (Sb_obs.Timeline.events (tl det) fid = Sb_obs.Timeline.events (tl par) fid))
    (Sb_obs.Timeline.flows (tl det));
  (* Snapshots tick on the simulated clock per child, so even the periodic
     time series is bit-identical. *)
  Alcotest.(check string) "snapshot series identical"
    (Sb_obs.Sink.snapshots_json det)
    (Sb_obs.Sink.snapshots_json par)

let test_parallel_armed_matches_unsharded () =
  (* Sink.merge of the split children equals the unsharded sink's view:
     run-level counters and gauges from a parallel-4 armed run agree with
     a deterministic single-runtime armed run over the same trace. *)
  let trace = Test_burst.random_trace 29 in
  let build = builder "monitor,dosguard:5" in
  let obs1 = Sb_obs.Sink.create ~metrics:true () in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~obs:obs1 ()) (build ()) in
  ignore (Speedybox.Runtime.run_trace ~burst:16 rt trace);
  let obs4 =
    let obs = Sb_obs.Sink.create ~metrics:true () in
    let sh =
      Sb_shard.Sharded.create ~shards:4 (Speedybox.Runtime.config ~obs ()) (fun _ -> build ())
    in
    ignore (Sb_shard.Parallel_exec.run_trace ~burst:16 sh trace);
    obs
  in
  let m1 = Option.get (Sb_obs.Sink.metrics obs1) in
  let m4 = Option.get (Sb_obs.Sink.metrics obs4) in
  let chain = ("chain", Speedybox.Chain.name (build ())) in
  let counter m name labels =
    Sb_obs.Metrics.Counter.value (Sb_obs.Metrics.counter m ~labels name)
  in
  let total = counter m1 "speedybox_packets_total" [ chain; ("path", "fast") ] in
  Alcotest.(check bool) "trace exercised the fast path" true (total > 0);
  List.iter
    (fun (name, labels) ->
      Alcotest.(check int) name (counter m1 name labels) (counter m4 name labels))
    [
      ("speedybox_packets_total", [ chain; ("path", "fast") ]);
      ("speedybox_packets_total", [ chain; ("path", "slow") ]);
      ("speedybox_verdicts_total", [ chain; ("verdict", "forwarded") ]);
      ("speedybox_verdicts_total", [ chain; ("verdict", "dropped") ]);
      ("speedybox_consolidations_total", []);
    ];
  let gauge m name =
    Sb_obs.Metrics.Gauge.value (Sb_obs.Metrics.gauge m ~labels:[ chain ] name)
  in
  List.iter
    (fun name -> Alcotest.(check (float 0.0)) name (gauge m1 name) (gauge m4 name))
    [ "speedybox_rules_installed"; "speedybox_events_armed" ];
  (* Histogram observation counts are exact under merge (shared bucket
     table); float sums reassociate, so compare counts. *)
  List.iter
    (fun path ->
      let hist m =
        Sb_obs.Metrics.histogram m
          ~labels:[ chain; ("path", path) ]
          "speedybox_packet_latency_us"
      in
      Alcotest.(check int)
        (Printf.sprintf "latency observations (%s)" path)
        (Sb_obs.Histogram.count (hist m1))
        (Sb_obs.Histogram.count (hist m4)))
    [ "fast"; "slow" ]

let suite =
  [
    Alcotest.test_case "sharded = unsharded (plain chain)" `Quick test_differential_plain;
    Alcotest.test_case "sharded = unsharded (armed events)" `Quick test_differential_events;
    Alcotest.test_case "sharded = unsharded (injected faults)" `Quick test_differential_faults;
    Alcotest.test_case "sharded = unsharded (FIN mid-burst)" `Quick test_differential_fin_midburst;
    Alcotest.test_case "non-flow packets steer to shard 0" `Quick
      test_non_flow_steers_to_shard_zero;
    Alcotest.test_case "steering is direction-symmetric" `Quick test_steer_symmetric;
    Alcotest.test_case "steering spreads flows" `Quick test_steer_spreads;
    Alcotest.test_case "migration transplants rule and conntrack" `Quick test_migrate_moves_state;
    Alcotest.test_case "migration tears down event-armed rules" `Quick
      test_migrate_event_armed_tears_down;
    Alcotest.test_case "migration preserves quarantine" `Quick
      test_migrate_quarantined_stays_down;
    Alcotest.test_case "migration logs the timeline" `Quick test_migrate_logs_timeline;
    Alcotest.test_case "drain_shard and rebalance" `Quick test_drain_shard_and_rebalance;
    Alcotest.test_case "parallel executor matches deterministic" `Quick
      test_parallel_matches_deterministic;
    Alcotest.test_case "parallel directory under fid collisions" `Quick
      test_parallel_dir_collisions;
    Alcotest.test_case "parallel executor guards" `Quick test_parallel_guards;
    Alcotest.test_case "par-2 organic fault: one health table" `Quick
      test_parallel_organic_fault;
    Alcotest.test_case "armed parallel = armed deterministic (merged exports)" `Quick
      test_parallel_armed_matches_deterministic;
    Alcotest.test_case "armed parallel = armed unsharded (counters)" `Quick
      test_parallel_armed_matches_unsharded;
    Alcotest.test_case "migrated flow reopens: every executor places it alike" `Quick
      test_migrated_reopen;
    Alcotest.test_case "migration refuses to act during a run" `Quick test_migrate_during_run;
  ]
  @ Test_util.qcheck_cases [ prop_drain_midtrace; prop_steer_oracle ]
