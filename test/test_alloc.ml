(* Allocation budgets of the steady-state fast path and of consolidation.

   Minor-heap words allocated per packet are a property of the code, not
   of the machine, so this gate runs under [dune runtest] everywhere.  A
   warmed [chain1] (MazuNAT, Maglev, Monitor, IPFilter) replays a DCN
   trace with its SYN, FIN and RST packets removed, so every flow is
   established by its first data packet and stays so, and every packet of
   the measured replay takes the Global MAT fast path.  Three figures are
   gated:

   - words per packet through [Runtime.process_burst_into] at burst 32
     with a no-op emit: classifier, conntrack, event poll, compiled
     program, state functions, profile and output record;
   - words per packet through [Runtime.process_packet], a burst of one,
     under the same budget;
   - words per [Runtime.Acc.consume] call over those packets' outputs,
     and over [ipfilter,snort] outputs, whose payload-dependent costs
     hold more distinct profiles than the accumulator's tally has slots.

   What remains in the first figure is the eight-field output record (9
   words), plus a fraction of a word per packet for the emit closure
   built once per burst.  No 5-tuple is built: addresses are immediate
   ints, the classifier keys conntrack and the FID by the packed tuple
   and its hash read from the packet's bytes, and Monitor keys its
   per-flow entry the same way, from the rewritten header.

   The benchmark's edge-churn chain gets the first figure for its fast
   path, where every packet runs the Monitor + DoS guard two-batch wave
   (a [Parallel] cost item), plus words per packet of a slow-path
   only trace: each flow's SYN walks the chain and its first data packet
   records and consolidates.  That figure is also split in two: the SYN
   walks alone, which record nothing and so build no state function,
   event closure or context, and the recording walks alone, after their
   SYNs.  A third figure re-records flows that idle expiry tore down, so
   each recording walk refills the husk — rule and Local MAT records —
   the expired flow left on the flow table's free stack.  The same
   slow-path trace is gated on [chain1] too, and its SYN
   walks through IPFilter alone, whose ACL check builds no closure and
   whose verdict cache is probed by the packed key.  Every path
   writes its costs into the runtime's int cost vector and shares an
   interned profile, so none of these figures contains a cost-profile
   list.

   Idle expiry is gated in words per expired flow: the slow-path trace
   records every flow under an idle timeout, and one packet far past it
   expires them all.  An expired flow builds no tuple: conntrack and the
   NFs' [remove_flow] hooks forget by the packed key the flow slot's
   liveness cells hold, the chain's teardown loop builds no closure,
   Monitor and the DoS guard find their entries with no option, and a
   scrubbed husk goes back on a fixed-size stack with no list cell.

   A further figure covers consolidation alone: words per
   [Global_mat.consolidate] call, re-consolidating every recorded flow of
   the same trace on [chain1] and on the edge-churn chain.  What a call
   allocates is the program itself — each non-identity transform, each
   wave's batch array, the batch records and the final code array — and
   nothing per [Forward] action.

   Two more figures cover sharding: words per packet of
   [Steer.shard_of_packet], and of a whole 2-shard deterministic
   [Sharded.run_trace] beside a whole unsharded [Runtime.run_trace] of the
   same trace.  Steering reads the packed key from the packet and builds
   no tuple; the executor steers each packet once into an int lane and
   adds nothing per stretch.

   The wave, slow-path, expiry and consolidation budgets sit under 10%
   above their measured figures, steering must not allocate, a 2-shard
   run may allocate 3 words per packet more than an unsharded one, the
   [chain1] fast path may allocate no more than the output record and a
   word, and [Acc.consume] must not allocate at all; a change that
   allocates more must pay for it elsewhere or raise the budget on
   purpose.

   The figures are measured in the default build profile, release (the
   root [dune-workspace]), where small functions inline across modules.
   Under [--profile dev] every module is compiled [-opaque], and every
   figure is the same: an NF's result is an immediate int, so nothing
   boxes across the module boundary (the slow path read 8 words higher
   there while the result was a record). *)

open Speedybox
module P = Sb_packet.Packet

(* Measured: 9.19 words per fast-path packet through bursts of 32 and 9.00
   through [process_packet] (33.19 and 33.00 while the classifier and
   Monitor each built a 5-tuple with two boxed [int32] addresses; 41.00
   when [process_packet] also built a classification record per call),
   and 0 per consume (OCaml 5.1, no flambda, release profile). *)
let burst_budget_words = 10.

let consume_budget_words = 0.

(* Measured on the edge-churn chain: 9.19 words per two-batch-wave
   fast-path packet, the output record as on [chain1] (57.19 with boxed
   addresses, a classifier tuple and two per-packet closures — the
   wave's byte compare and the DoS guard's counter — and 122.19 when each
   packet also built its cost-profile lists), and 70.57 per slow-path
   packet, half SYN walks and half recording walks with their
   consolidation.  Split: 26.78 per SYN walk — the output record and the
   per-flow state the NFs keep — and 114.36 per recording walk, 66.58
   when it refills an expired flow's pooled records.  A fresh flow's
   rule and records are one block in its flow slot: its husk, an array
   of its NFs' records and one word per record saying whether the NF
   recorded, 10 words more than the rule and the per-NF records the
   separate tables held (104.37 and 65.58 then, each one word more
   since a rule keeps how many NFs its walk reached).  Before Local MAT
   records were pooled arrays, Monitor built its state function per flow
   and the DoS guard its event update, these read 79.31 combined, 131.85
   and 123.58.  Before one context served every NF call, the NFs guarded
   their recording-only values and Gateway and Maglev shared one rewrite
   per server, they read 138.03 (211.13 with boxed addresses, 299.36
   before that), 100.69 and 175.38.  [chain1]'s slow path: 115.50
   (110.51 with separate rule and Local MAT tables; 114.01 while Maglev
   built a redundant event closure per flow; 120.24
   with list-built Local MAT records; 159.24 while IPFilter built
   a closure per rule field and a tuple per packet; 232.74 before that).
   A SYN walk through IPFilter alone: 16.28 (86.28 then). *)
let wave_budget_words = 10.

let slow_budget_words = 72.

let syn_walk_budget_words = 29.

let ipfilter_syn_walk_budget_words = 17.5

let recording_walk_budget_words = 116.

let slow_chain1_budget_words = 126.

let recycled_recording_walk_budget_words = 72.

(* Measured: 5.49 words per expired flow on the edge-churn chain, one
   flow-slot removal each (14.58
   while the NF hooks took a rebuilt tuple and each kept rule husk took a
   list cell; 30.69 while expiry forgot conntrack by a rebuilt tuple,
   passed it in an option, tore down through [List.iter] closures and
   probed Monitor's and the DoS guard's entries through options). *)
let expiry_budget_words = 6.

(* The benchmark's edge-churn chain: the registry's [edge] NFs with
   Gateway last. *)
let edge_churn_chain = "statefulfw,monitor,dosguard:200,gateway"

(* Measured: 15.19 words per call on the edge-churn chain and 51.02 on
   [chain1], one word of which is the NF count the rule's draws stop at
   (the list-staged consolidation this pass replaced: 220.63 and
   601.02). *)
let consolidate_edge_budget_words = 15.5

let consolidate_chain1_budget_words = 55.

(* Measured on a 200-flow DCN trace through Monitor at burst 32: 0 words
   per packet for [Steer.shard_of_packet] (14.00 while it built a tuple
   option and the reverse tuple), and 13.29 per packet for a whole 2-shard
   deterministic [run_trace] against 14.21 unsharded (13.11 and 14.04
   with separate rule and Local MAT tables; 14.21 and 15.16 while
   Monitor built a state function per flow) — each shard's tables
   grow for half the flows, which repays the run's 1-word steering lane
   (82.40 while the executor re-parsed every packet's tuple four or five
   times into boxed tables). *)
let steer_budget_words = 0.

let sharded_extra_budget_words = 3.

let steady_trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 21;
      n_flows = 300;
      mean_flow_packets = 16.;
      payload_len = (16, 512);
      udp_fraction = 0.1;
      malicious_fraction = 0.;
      tokens = [];
    }
  |> List.filter (fun p ->
         match P.proto p with
         | P.Udp -> true
         | P.Tcp ->
             P.tcp_flag_bits p
             land Sb_packet.Tcp.(fin_bit lor syn_bit lor rst_bit)
             = 0)
  |> Array.of_list

(* The edge-churn chain's steady state: 300 port-80 TCP flows of 8 data
   packets each.  Replayed with their SYNs, every flow is accepted by the
   firewall and consolidated; replayed without them, every packet takes
   the fast path through the Monitor + DoS guard two-batch wave (three
   replays stay under the guard's 200-packet cap). *)
let edge_trace ~syn =
  Sb_trace.Workload.fixed_trace ~seed:21 ~n_flows:300 ~packets_per_flow:8 ~payload_len:64 ()
  |> List.filter (fun p ->
         let flags = P.tcp_flag_bits p in
         flags land Sb_packet.Tcp.(fin_bit lor rst_bit) = 0
         && (syn || flags land Sb_packet.Tcp.syn_bit = 0))
  |> Array.of_list

(* Slow path only: 600 DCN-style flows (edge-churn's 16-128 B payloads)
   that each send a SYN — a plain walk — and one data packet, which
   records and consolidates.  Flows whose FID an earlier flow took are
   left out, so no packet reaches a rule. *)
let slow_trace () =
  let fids = Hashtbl.create 1024 in
  Sb_trace.Workload.dcn_flows
    {
      Sb_trace.Workload.seed = 21;
      n_flows = 600;
      mean_flow_packets = 2.;
      payload_len = (16, 128);
      udp_fraction = 0.;
      malicious_fraction = 0.;
      tokens = [];
    }
  |> List.filter (fun (f : Sb_trace.Workload.flow) ->
         let fid = Sb_flow.Fid.of_tuple f.Sb_trace.Workload.tuple in
         (not (Hashtbl.mem fids fid)) && (Hashtbl.replace fids fid (); true))
  |> List.concat_map (fun (f : Sb_trace.Workload.flow) ->
         Sb_trace.Workload.packets_of_flow
           (Sb_trace.Workload.make_flow ~close:Sb_trace.Workload.Stay_open
              ~tuple:f.Sb_trace.Workload.tuple
              ~payloads:[| f.Sb_trace.Workload.payloads.(0) |]
              ()))
  |> Array.of_list

type run = {
  packets : P.t array;
  rt : Runtime.t;
  pool : P.t array;
}

let build chain_name =
  match Sb_experiments.Chain_registry.build chain_name with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

let setup ?(chain = "chain1") ?(packets = steady_trace ()) () =
  {
    packets;
    rt = Runtime.create (Runtime.config ()) (build chain);
    pool = Array.init Runtime.default_burst (fun _ -> P.scratch ());
  }

(* One replay in bursts of 32; returns the minor words allocated inside
   [process_burst_into] calls only (the ingress copies are outside). *)
let replay r emit =
  let n = Array.length r.packets in
  let words = ref 0. in
  let i = ref 0 in
  while !i < n do
    let len = min Runtime.default_burst (n - !i) in
    for k = 0 to len - 1 do
      P.copy_into ~src:r.packets.(!i + k) ~dst:r.pool.(k)
    done;
    let base = !i in
    let w0 = Gc.minor_words () in
    Runtime.process_burst_into r.rt r.pool ~off:0 ~len (fun k out -> emit (base + k) out);
    words := !words +. (Gc.minor_words () -. w0);
    i := !i + len
  done;
  !words

let per_packet r words = words /. float_of_int (Array.length r.packets)

(* One replay through [process_packet], a packet per call; returns the
   minor words allocated inside those calls only. *)
let replay_per_packet r =
  let words = ref 0. in
  Array.iter
    (fun p ->
      P.copy_into ~src:p ~dst:r.pool.(0);
      let w0 = Gc.minor_words () in
      let out = Runtime.process_packet r.rt r.pool.(0) in
      words := !words +. (Gc.minor_words () -. w0);
      if out.Runtime.path = Runtime.Slow_path then
        Alcotest.fail "warmed packet took the slow path")
    r.packets;
  !words

(* Per-packet dispatch is a burst of one, so it holds the burst budget:
   no classification record, closure or option per call. *)
let test_per_packet_budget () =
  let r = setup () in
  ignore (replay r (fun _ _ -> ()));
  let words = per_packet r (replay_per_packet r) in
  if words > burst_budget_words then
    Alcotest.failf "per-packet dispatch allocates %.2f words/packet, budget %.1f" words
      burst_budget_words

let test_fast_path_budget () =
  let r = setup () in
  ignore (replay r (fun _ _ -> ()));
  let slow = ref 0 in
  ignore
    (replay r (fun _ out -> if out.Runtime.path = Runtime.Slow_path then incr slow));
  Alcotest.(check int) "warmed replay is all fast path" 0 !slow;
  let words = per_packet r (replay r (fun _ _ -> ())) in
  if words > burst_budget_words then
    Alcotest.failf "fast path allocates %.2f words/packet, budget %.1f" words
      burst_budget_words

(* The edge-churn chain warmed with SYNs, then replayed without them. *)
let edge_setup () =
  let r = setup ~chain:edge_churn_chain ~packets:(edge_trace ~syn:true) () in
  ignore (replay r (fun _ _ -> ()));
  { r with packets = edge_trace ~syn:false }

let test_wave_fast_path_budget () =
  let r = edge_setup () in
  let waves = ref 0 in
  ignore
    (replay r (fun _ out ->
         if out.Runtime.path = Runtime.Fast_path && Test_util.has_parallel_item out then
           incr waves));
  Alcotest.(check int) "every packet runs the two-batch wave" (Array.length r.packets) !waves;
  let words = per_packet r (replay r (fun _ _ -> ())) in
  if words > wave_budget_words then
    Alcotest.failf "wave fast path allocates %.2f words/packet, budget %.1f" words
      wave_budget_words

let is_syn p = P.tcp_flag_bits p land Sb_packet.Tcp.syn_bit <> 0

let consolidates (out : Runtime.output) =
  List.exists
    (fun (st : Sb_sim.Cost_profile.stage) ->
      String.equal st.Sb_sim.Cost_profile.label "Consolidate")
    out.Runtime.profile

(* Words per packet of a replay of [packets] after an unmeasured replay of
   [warm], on a fresh runtime of [chain]; [count] sees every measured
   output.  No measured packet may reach a rule. *)
let slow_words ~chain ?(warm = [||]) packets count =
  let r = setup ~chain ~packets:warm () in
  ignore (replay r (fun _ _ -> ()));
  let r = { r with packets } in
  let fast = ref 0 in
  let words =
    per_packet r
      (replay r (fun _ out ->
           if out.Runtime.path = Runtime.Fast_path then incr fast;
           count out))
  in
  Alcotest.(check int) "no packet reaches a rule" 0 !fast;
  words

let check_slow_budget what budget words =
  if words > budget then
    Alcotest.failf "%s allocates %.2f words/packet, budget %.1f" what words budget

(* Every slow-path packet of the trace, half SYN walks and half recording
   walks, on [chain]. *)
let check_slow_path chain budget () =
  let consolidated = ref 0 in
  let words =
    slow_words ~chain (slow_trace ()) (fun out -> if consolidates out then incr consolidated)
  in
  Alcotest.(check bool) "data packets record" true (!consolidated > 0);
  check_slow_budget ("slow path on " ^ chain) budget words

(* The SYNs alone: each walks the chain without recording, as the flow has
   no handshake yet, so no NF builds a recording-only value. *)
let check_syn_walk chain budget () =
  let syns = Array.of_list (List.filter is_syn (Array.to_list (slow_trace ()))) in
  let words =
    slow_words ~chain syns (fun out ->
        if consolidates out then Alcotest.fail "a SYN walk consolidated")
  in
  check_slow_budget ("SYN walk on " ^ chain) budget words

(* The data packets after their SYNs: each records and consolidates. *)
let test_recording_walk_budget () =
  let trace = Array.to_list (slow_trace ()) in
  let syns, data = List.partition is_syn trace in
  let words =
    slow_words ~chain:edge_churn_chain ~warm:(Array.of_list syns) (Array.of_list data)
      (fun out -> if not (consolidates out) then Alcotest.fail "a data packet did not record")
  in
  check_slow_budget "recording walk" recording_walk_budget_words words

(* Recording walks that refill pooled records: the first [recycled_flows]
   flows of the slow trace record on a runtime with an idle timeout, one
   packet of another flow far past the timeout expires them all, and the
   same flows then record again, their data packets measured.  Fewer
   flows than the flow table keeps scrubbed husks, so every re-recording
   walk refills a husk: its Local MAT records and its rule. *)
let recycled_flows = 48

let test_recycled_recording_walk_budget () =
  let timeout = 10_000 in
  let syns, data = List.partition is_syn (Array.to_list (slow_trace ())) in
  let first l = Array.of_list (List.filteri (fun i _ -> i < recycled_flows) l) in
  let late p =
    let p = P.copy p in
    p.P.ingress_cycle <- 100 * timeout;
    p
  in
  let r =
    {
      packets = Array.append (first syns) (first data);
      rt =
        Runtime.create (Runtime.config ~idle_timeout_cycles:timeout ()) (build edge_churn_chain);
      pool = Array.init Runtime.default_burst (fun _ -> P.scratch ());
    }
  in
  ignore (replay r (fun _ _ -> ()));
  ignore (Runtime.process_packet r.rt (late (List.nth syns recycled_flows)));
  Alcotest.(check int) "every recorded flow expires" recycled_flows (Runtime.expired_flows r.rt);
  ignore (replay { r with packets = Array.map late (first syns) } (fun _ _ -> ()));
  let r = { r with packets = Array.map late (first data) } in
  let words =
    per_packet r
      (replay r (fun _ out ->
           if not (consolidates out) then Alcotest.fail "a data packet did not record"))
  in
  check_slow_budget "recording walk on a recycled flow" recycled_recording_walk_budget_words
    words

(* Idle expiry: the slow trace records every flow on a runtime with an
   idle timeout, all at cycle 0; one packet far past the timeout then
   advances the wheel, which expires them all.  Its words are charged to
   the flows it expired. *)
let test_expiry_budget () =
  let timeout = 10_000 in
  let packets = slow_trace () in
  let rt =
    Runtime.create (Runtime.config ~idle_timeout_cycles:timeout ()) (build edge_churn_chain)
  in
  Array.iter (fun p -> ignore (Runtime.process_packet rt (P.copy p))) packets;
  Alcotest.(check int) "nothing expires at cycle 0" 0 (Runtime.expired_flows rt);
  let late = P.copy packets.(0) in
  late.P.ingress_cycle <- 100 * timeout;
  let w0 = Gc.minor_words () in
  ignore (Runtime.process_packet rt late);
  let words = Gc.minor_words () -. w0 in
  let expired = Runtime.expired_flows rt in
  Alcotest.(check int) "every recorded flow expires" (Array.length packets / 2) expired;
  let per_flow = words /. float_of_int expired in
  if per_flow > expiry_budget_words then
    Alcotest.failf "idle expiry allocates %.2f words per expired flow, budget %.1f" per_flow
      expiry_budget_words

let check_consume_budget ?(min_profiles = 0) r () =
  ignore (replay r (fun _ _ -> ()));
  let outs = Array.make (Array.length r.packets) None in
  ignore (replay r (fun k out -> outs.(k) <- Some out));
  let distinct = Hashtbl.create 64 in
  Array.iter
    (Option.iter (fun out -> Hashtbl.replace distinct out.Runtime.profile ()))
    outs;
  if Hashtbl.length distinct < min_profiles then
    Alcotest.failf "%d distinct profiles, need %d" (Hashtbl.length distinct) min_profiles;
  let acc = Runtime.Acc.create () in
  let consume_all () =
    for k = 0 to Array.length outs - 1 do
      match outs.(k) with
      | Some out -> Runtime.Acc.consume acc r.packets.(k) out
      | None -> Alcotest.fail "missing output"
    done
  in
  (* The first pass creates every stage label's and flow's bucket. *)
  consume_all ();
  let w0 = Gc.minor_words () in
  consume_all ();
  let words = per_packet r (Gc.minor_words () -. w0) in
  if words > consume_budget_words then
    Alcotest.failf "Acc.consume allocates %.3f words/packet, budget %.1f" words
      consume_budget_words

let test_consume_budget () = check_consume_budget (setup ()) ()

let test_consume_wave_budget () = check_consume_budget (edge_setup ()) ()

(* Snort's cost follows the payload, so these outputs hold more distinct
   profiles than the tally has slots and the measured pass runs the
   eviction flush: a walk of the evicted profile's stages into the
   per-label totals, which must not allocate either. *)
let test_consume_flush_budget () =
  check_consume_budget
    ~min_profiles:(Runtime.Acc.tally_slots + 1)
    (setup ~chain:"ipfilter,snort" ())
    ()

(* Words per [Global_mat.consolidate] call: replay a DCN trace through
   [chain] so every flow records and consolidates, warm the table's
   scratch buffers with one pass over the installed rules, then
   re-consolidate every rule from its Local MAT records. *)
let consolidate_words chain_name =
  let chain = build chain_name in
  let rt = Runtime.create (Runtime.config ()) chain in
  Array.iter (fun p -> ignore (Runtime.process_packet rt (P.copy p))) (steady_trace ());
  let gm = Runtime.global_mat rt in
  let fids = Array.of_list (Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) gm []) in
  let locals = Chain.local_mats chain in
  let consolidate_all () =
    Array.iter (fun fid -> ignore (Sb_mat.Global_mat.consolidate gm fid locals)) fids
  in
  consolidate_all ();
  let w0 = Gc.minor_words () in
  consolidate_all ();
  (Gc.minor_words () -. w0) /. float_of_int (Array.length fids)

let check_consolidate_budget chain_name budget () =
  let words = consolidate_words chain_name in
  if words > budget then
    Alcotest.failf "consolidate on %s allocates %.2f words/call, budget %.1f" chain_name words
      budget

(* Sharding: the steer itself and the 2-shard deterministic executor
   against the unsharded one, whole [run_trace] calls on fresh runtimes,
   over a 200-flow DCN trace through Monitor at burst 32. *)
let shard_trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 11;
      n_flows = 200;
      mean_flow_packets = 16.;
      payload_len = (16, 512);
      udp_fraction = 0.1;
      malicious_fraction = 0.;
      tokens = [];
    }

let run_words run trace =
  let w0 = Gc.minor_words () in
  ignore (run trace : Runtime.run_result);
  (Gc.minor_words () -. w0) /. float_of_int (List.length trace)

let test_steer_budget () =
  let trace = Array.of_list (shard_trace ()) in
  let steer () =
    Array.iter
      (fun p -> ignore (Sys.opaque_identity (Sb_shard.Steer.shard_of_packet ~shards:2 p)))
      trace
  in
  steer ();
  let w0 = Gc.minor_words () in
  steer ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length trace) in
  if words > steer_budget_words then
    Alcotest.failf "Steer.shard_of_packet allocates %.2f words/packet, budget %.1f" words
      steer_budget_words

let test_sharded_budget () =
  let trace = shard_trace () in
  let unsharded =
    run_words
      (Runtime.run_trace ~burst:32 (Runtime.create (Runtime.config ()) (build "monitor")))
      trace
  in
  let sharded =
    run_words
      (Sb_shard.Sharded.run_trace ~burst:32
         (Sb_shard.Sharded.create ~shards:2 (Runtime.config ()) (fun _ -> build "monitor")))
      trace
  in
  if sharded > unsharded +. sharded_extra_budget_words then
    Alcotest.failf
      "2-shard run_trace allocates %.2f words/packet against %.2f unsharded, budget +%.1f"
      sharded unsharded sharded_extra_budget_words

let suite =
  [
    Alcotest.test_case "fast-path allocation budget" `Quick test_fast_path_budget;
    Alcotest.test_case "Acc.consume allocation budget" `Quick test_consume_budget;
    Alcotest.test_case "Acc.consume budget (waves)" `Quick test_consume_wave_budget;
    Alcotest.test_case "Acc.consume budget (tally flushes)" `Quick test_consume_flush_budget;
    Alcotest.test_case "wave fast-path budget" `Quick test_wave_fast_path_budget;
    Alcotest.test_case "slow-path allocation budget" `Quick
      (check_slow_path edge_churn_chain slow_budget_words);
    Alcotest.test_case "SYN-walk allocation budget" `Quick
      (check_syn_walk edge_churn_chain syn_walk_budget_words);
    Alcotest.test_case "SYN-walk allocation budget (ipfilter)" `Quick
      (check_syn_walk "ipfilter" ipfilter_syn_walk_budget_words);
    Alcotest.test_case "recording-walk allocation budget" `Quick test_recording_walk_budget;
    Alcotest.test_case "recycled recording walk allocation budget" `Quick
      test_recycled_recording_walk_budget;
    Alcotest.test_case "slow-path allocation budget (chain1)" `Quick
      (check_slow_path "chain1" slow_chain1_budget_words);
    Alcotest.test_case "idle-expiry allocation budget" `Quick test_expiry_budget;
    Alcotest.test_case "consolidate allocation budget (edge-churn chain)" `Quick
      (check_consolidate_budget edge_churn_chain consolidate_edge_budget_words);
    Alcotest.test_case "consolidate allocation budget (chain1)" `Quick
      (check_consolidate_budget "chain1" consolidate_chain1_budget_words);
    Alcotest.test_case "per-packet allocation budget" `Quick test_per_packet_budget;
    Alcotest.test_case "steering allocation budget" `Quick test_steer_budget;
    Alcotest.test_case "2-shard run_trace allocation budget" `Quick test_sharded_budget;
  ]

