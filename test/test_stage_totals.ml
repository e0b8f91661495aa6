(* Differential suite for run accounting: the per-label stage totals
   [Runtime.Acc] expands from its per-profile tally against the
   per-stage float accumulators it replaced ([Stage_oracle]), fed the
   same outputs.  Labels, visit counts, the mean (bit for bit) and the
   printed breakdown must all agree — on every registry chain at burst 1
   and 32, in Original mode, on both sharded executors (the [absorb]
   path) and on a Snort chain whose payload-dependent costs produce more
   distinct profiles than the tally has slots. *)
open Speedybox

let check_totals label (got : Runtime.run_result) (want : Stage_oracle.t) =
  let labels tbl = Hashtbl.fold (fun l _ acc -> l :: acc) tbl [] |> List.sort compare in
  Alcotest.(check (list string))
    (label ^ ": labels") (labels want) (labels got.Runtime.stage_cycles);
  Hashtbl.iter
    (fun stage s ->
      let { Runtime.visits; cycles } = Hashtbl.find got.Runtime.stage_cycles stage in
      Alcotest.(check int) (Printf.sprintf "%s: %s visits" label stage) (Sb_sim.Stats.count s) visits;
      let mean = float_of_int cycles /. float_of_int visits in
      if Int64.bits_of_float mean <> Int64.bits_of_float (Sb_sim.Stats.mean s) then
        Alcotest.failf "%s: %s mean %h, oracle %h" label stage mean (Sb_sim.Stats.mean s))
    want;
  Alcotest.(check string)
    (label ^ ": breakdown") (Stage_oracle.breakdown want) (Report.stage_breakdown got)

let dcn_trace ?(tokens = [ "attack" ]) ?(payload_len = (16, 128)) ?(n_flows = 60) seed =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed;
      n_flows;
      mean_flow_packets = 8.;
      payload_len;
      udp_fraction = 0.2;
      malicious_fraction = 0.1;
      tokens;
    }

let builder spec =
  match Sb_experiments.Chain_registry.build spec with
  | Ok build -> build
  | Error msg -> Alcotest.fail msg

(* An unsharded run with the oracle fed from [on_output]; also counts the
   outputs' structurally distinct profiles. *)
let oracle_run ?(mode = Runtime.Speedybox) ~burst spec trace =
  let rt = Runtime.create (Runtime.config ~mode ()) (builder spec ()) in
  let oracle = Stage_oracle.create () in
  let distinct = Hashtbl.create 64 in
  let result =
    Runtime.run_trace ~burst rt trace ~on_output:(fun _ out ->
        Stage_oracle.add oracle out;
        Hashtbl.replace distinct out.Runtime.profile ())
  in
  (result, oracle, Hashtbl.length distinct)

let test_registry_chains () =
  let trace = dcn_trace 7 in
  List.iter
    (fun (spec, _) ->
      List.iter
        (fun burst ->
          let result, oracle, _ = oracle_run ~burst spec trace in
          check_totals (Printf.sprintf "%s/burst-%d" spec burst) result oracle)
        [ 1; 32 ])
    (Sb_experiments.Chain_registry.registry ())

let test_original_mode () =
  List.iter
    (fun spec ->
      let result, oracle, _ = oracle_run ~mode:Runtime.Original ~burst:1 spec (dcn_trace 9) in
      check_totals (spec ^ "/original") result oracle)
    [ "chain1"; "chain2"; "edge" ]

(* Both sharded executors build their result through [Acc]: the
   deterministic one consumes into one accumulator, the parallel one
   absorbs a per-shard accumulator each.  Either must total exactly what
   the unsharded oracle saw. *)
let test_sharded () =
  List.iter
    (fun spec ->
      let trace = dcn_trace 13 in
      let _, oracle, _ = oracle_run ~burst:32 spec trace in
      let build = builder spec in
      let plan () = Sb_shard.Sharded.create ~shards:2 (Runtime.config ()) (fun _ -> build ()) in
      check_totals (spec ^ "/det-2") (Sb_shard.Sharded.run_trace (plan ()) trace) oracle;
      check_totals (spec ^ "/par-2") (Sb_shard.Parallel_exec.run_trace (plan ()) trace) oracle)
    [ "chain1"; "edge" ]

(* Snort's cost follows the payload, so this chain's outputs hold more
   distinct profiles than the tally has slots: the eviction flush runs. *)
let test_miss_heavy () =
  let trace = dcn_trace ~tokens:[ "attack"; "exploit" ] ~payload_len:(16, 512) 21 in
  List.iter
    (fun burst ->
      let result, oracle, distinct = oracle_run ~burst "ipfilter,snort" trace in
      if distinct <= Runtime.Acc.tally_slots then
        Alcotest.failf "only %d distinct profiles for %d slots" distinct Runtime.Acc.tally_slots;
      check_totals (Printf.sprintf "ipfilter,snort/burst-%d" burst) result oracle)
    [ 1; 32 ]

(* Hand-built outputs: [k] profiles of one to three stages, rebuilt fresh
   each time so equal profiles are never physically shared. *)
let profile k =
  let open Sb_sim.Cost_profile in
  List.init
    (1 + (k mod 3))
    (fun s ->
      stage (Printf.sprintf "S%d" ((k + s) mod 5)) [ Serial (10 + (7 * k) + s); Parallel [ k; 3 ] ])

let packet = Test_util.tcp_packet ()

let output k =
  {
    Runtime.verdict = Sb_mat.Header_action.Forwarded;
    packet;
    profile = profile k;
    path = Runtime.Fast_path;
    latency_cycles = 100;
    service_cycles = 100;
    events_fired = 0;
    faults = 0;
  }

(* More profiles than slots, interleaved so every slot is evicted with a
   nonzero count; half the outputs reuse one physical profile each, half
   are fresh copies of it. *)
let test_interleaved () =
  let n_profiles = (3 * Runtime.Acc.tally_slots) + 1 in
  let shared = Array.init n_profiles output in
  let acc = Runtime.Acc.create () in
  let oracle = Stage_oracle.create () in
  for i = 0 to 20 * n_profiles do
    let k = i * 5 mod n_profiles in
    let out = if i mod 2 = 0 then shared.(k) else output k in
    Runtime.Acc.consume acc packet out;
    Stage_oracle.add oracle out
  done;
  check_totals "interleaved" (Runtime.Acc.result acc) oracle

(* [result] flushes the tallies: consuming more and asking again counts
   every packet once, and the first result's totals stay as they were. *)
let test_result_twice () =
  let acc = Runtime.Acc.create () in
  let oracle = Stage_oracle.create () in
  let feed lo hi =
    for k = lo to hi - 1 do
      let out = output (k mod 5) in
      Runtime.Acc.consume acc packet out;
      Stage_oracle.add oracle out
    done
  in
  feed 0 40;
  let first = Runtime.Acc.result acc in
  let first_breakdown = Report.stage_breakdown first in
  check_totals "first result" first oracle;
  feed 40 100;
  check_totals "second result" (Runtime.Acc.result acc) oracle;
  check_totals "third result" (Runtime.Acc.result acc) oracle;
  Alcotest.(check string) "first result unchanged" first_breakdown (Report.stage_breakdown first)

let suite =
  [
    Alcotest.test_case "registry chains, burst 1 and 32" `Quick test_registry_chains;
    Alcotest.test_case "original mode" `Quick test_original_mode;
    Alcotest.test_case "det-2 and par-2 absorb" `Quick test_sharded;
    Alcotest.test_case "ipfilter,snort: more profiles than slots" `Quick test_miss_heavy;
    Alcotest.test_case "interleaved profiles beyond the slots" `Quick test_interleaved;
    Alcotest.test_case "result then consume then result" `Quick test_result_twice;
  ]
