let pct part whole = if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let stat v = Format.asprintf "%a" Sb_sim.Stats.pp_stat v

(* The result-only lines: verdicts, paths, latency and model
   throughput. *)
let core_lines buf label (result : Runtime.run_result) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let summary = Sb_sim.Stats.summarize result.Runtime.latency_us in
  line "%s: %d packets (%d forwarded, %d dropped)" label result.Runtime.packets
    result.Runtime.forwarded result.Runtime.dropped;
  line "  paths      : slow %d (%.1f%%), fast %d (%.1f%%)" result.Runtime.slow_path
    (pct result.Runtime.slow_path result.Runtime.packets)
    result.Runtime.fast_path
    (pct result.Runtime.fast_path result.Runtime.packets);
  (* A zero-packet run has no samples: print "-" rather than "nan". *)
  line "  latency    : mean %sus p50 %sus p90 %sus p99 %sus max %sus"
    (stat summary.Sb_sim.Stats.mean) (stat summary.Sb_sim.Stats.p50)
    (stat summary.Sb_sim.Stats.p90) (stat summary.Sb_sim.Stats.p99)
    (stat summary.Sb_sim.Stats.max);
  (let mpps = Runtime.rate_mpps result in
   if Float.is_nan mpps then line "  throughput : - (no packets)"
   else line "  throughput : %.3f Mpps (model)" mpps)

(* Flow processing times, with the sentinel bucket (packets that have no
   5-tuple) reported by name, so the raw sentinel FID never leaks into
   output. *)
let flow_time_lines buf (result : Runtime.run_result) =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let flow_stats = Sb_sim.Stats.create () in
  let non_flow = ref None in
  Sb_flow.Flat_table.iter
    (fun fid us ->
      if fid = Runtime.no_flow_fid then non_flow := Some us
      else Sb_sim.Stats.add flow_stats us)
    result.Runtime.flow_time_us;
  if Sb_sim.Stats.count flow_stats > 0 then
    line "  flow time  : %d flows, mean %sus p50 %sus p99 %sus"
      (Sb_sim.Stats.count flow_stats)
      (stat (Sb_sim.Stats.mean flow_stats))
      (stat (Sb_sim.Stats.percentile flow_stats 50.))
      (stat (Sb_sim.Stats.percentile flow_stats 99.));
  match !non_flow with
  | Some us -> line "  non-flow   : %.2fus (packets with no 5-tuple)" us
  | None -> ()

(* The state-store section, which reads the same for any shard count so
   sharded and unsharded reports diff clean: declared-cell counts per scope
   and every global cell's merged value (sorted by name).  Executor-
   dependent figures like merge rounds stay out of here. *)
let state_lines buf store =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  if Sb_state.Store.cell_count store > 0 then begin
    let c = Sb_state.Store.cell_counts store in
    line "  state cells: %d per-flow, %d per-shard, %d global"
      c.Sb_state.Store.per_flow c.Sb_state.Store.per_shard c.Sb_state.Store.global;
    match Sb_state.Store.merged_values store with
    | [] -> ()
    | values ->
        line "  global state:";
        List.iter
          (fun (name, kind, v) ->
            line "    %-28s %-10s %d" name (Sb_state.Kind.to_string kind) v)
          values
  end

(* One summary for a plan of any size: an unsharded run is a plan of one
   shard.  Table occupancy and the per-shard counters sum over the shards;
   distinct actions are per-shard distinct, so their sum is an upper bound
   when shards share actions.  The shards' supervisors share one health
   table and one injector, so the fault block prints once. *)
let run_summary ?(label = "run") rts (result : Runtime.run_result) =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let n = List.length rts in
  let sum f = List.fold_left (fun acc rt -> acc + f rt) 0 rts in
  let mems = List.map (fun rt -> Sb_mat.Global_mat.memory_stats (Runtime.global_mat rt)) rts in
  let mem f = List.fold_left (fun acc m -> acc + f m) 0 mems in
  core_lines buf label result;
  line "  global mat : %d rules, %d distinct actions, %d batches%s"
    (mem (fun m -> m.Sb_mat.Global_mat.rules))
    (mem (fun m -> m.Sb_mat.Global_mat.distinct_actions))
    (mem (fun m -> m.Sb_mat.Global_mat.batches))
    (if n > 1 then Printf.sprintf " (summed over %d shards)" n else "");
  (* Parallel execution is only as good as the cores backing the shards;
     print what this machine offers so a disappointing speedup is
     explainable from the report alone. *)
  if n > 1 then
    line "  cores      : %d available for Domain-parallel execution"
      (Domain.recommended_domain_count ());
  flow_time_lines buf result;
  if result.Runtime.events_fired > 0 then
    line "  events     : %d fired" result.Runtime.events_fired;
  (let evictions = sum (fun rt -> Sb_mat.Global_mat.evictions (Runtime.global_mat rt)) in
   if evictions > 0 then line "  evictions  : %d (LRU rule cap)" evictions);
  (let expired = sum Runtime.expired_flows in
   if expired > 0 then line "  expiry     : %d idle flows" expired);
  (let rejected = sum Runtime.rejected_malformed in
   if rejected > 0 then line "  malformed  : %d packets rejected at the classifier" rejected);
  List.iter
    (fun s -> line "  %s" s)
    (Sb_fault.Supervisor.summary (List.map Runtime.supervisor rts));
  (let cond_faults =
     sum (fun rt -> Sb_mat.Event_table.condition_faults (Chain.events (Runtime.chain rt)))
   in
   if cond_faults > 0 then line "  events     : %d raising conditions disarmed" cond_faults);
  (* Every shard runtime carries the same (shared) store: report it once;
     the merge-round count is the one executor-specific line and stays
     outside the diffable section. *)
  (match rts with
  | rt :: _ ->
      state_lines buf (Runtime.state rt);
      let rounds = Sb_state.Store.merge_rounds (Runtime.state rt) in
      if rounds > 0 then line "  state merge: %d rounds" rounds
  | [] -> ());
  Buffer.contents buf

let chain_state chain =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "chain %s:\n" (Chain.name chain));
  List.iter
    (fun nf ->
      Buffer.add_string buf (Printf.sprintf "  [%s]\n" nf.Nf.name);
      let digest = nf.Nf.state_digest () in
      if digest <> "" then
        String.split_on_char '\n' digest
        |> List.iter (fun line -> Buffer.add_string buf (Printf.sprintf "    %s\n" line)))
    (Chain.nfs chain);
  Buffer.contents buf

let stage_breakdown (result : Runtime.run_result) =
  let rows =
    Hashtbl.fold
      (fun label { Runtime.visits; cycles } acc ->
        (* [mean *. visits] rather than [float cycles]: the two can differ
           in the last bit, and the printed shares must round as they
           always have. *)
        let mean = float_of_int cycles /. float_of_int visits in
        let total = mean *. float_of_int visits in
        (label, visits, mean, total) :: acc)
      result.Runtime.stage_cycles []
    (* Descending by total cycles; label breaks ties so the table is
       deterministic regardless of hashtable iteration order. *)
    |> List.sort (fun (la, _, _, a) (lb, _, _, b) ->
           let c = Float.compare b a in
           if c <> 0 then c else String.compare la lb)
  in
  let grand_total = List.fold_left (fun acc (_, _, _, t) -> acc +. t) 0. rows in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "stage breakdown (cycles):\n";
  List.iter
    (fun (label, n, mean, total) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %7d pkts  mean %6.0f  share %5.1f%%\n" label n mean
           (100. *. total /. Float.max 1. grand_total)))
    rows;
  Buffer.contents buf

type shard_row = {
  shard : int;
  packets : int;
  flows : int;
  rules : int;
  migrated_in : int;
  migrated_out : int;
  state_entries : int;
      (* live per-flow state-store entries held by this shard's replica *)
  faults : int;  (* faults this shard's supervisor contained, corrupted or stalled *)
}

(* Report depends only on this row type, not on the shard library (which
   sits above the core): the sharded runtime renders its stats through
   here so the CLI prints one consistent table. *)
let shard_summary rows =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "shards: %d" (List.length rows);
  List.iter
    (fun r ->
      let migr =
        if r.migrated_in = 0 && r.migrated_out = 0 then ""
        else Printf.sprintf "  migr +%d/-%d" r.migrated_in r.migrated_out
      in
      let st =
        if r.state_entries = 0 then "" else Printf.sprintf "  state %d" r.state_entries
      in
      let faults = if r.faults = 0 then "" else Printf.sprintf "  faults %d" r.faults in
      line "  shard %-3d: %7d pkts  %5d flows  %5d rules%s%s%s" r.shard r.packets r.flows
        r.rules migr st faults)
    rows;
  (let total = List.fold_left (fun acc r -> acc + r.packets) 0 rows in
   let peak = List.fold_left (fun acc r -> max acc r.packets) 0 rows in
   let n = List.length rows in
   if n > 1 && total > 0 then
     (* Peak-to-mean packet ratio: 1.00 is a perfectly even spread. *)
     line "  balance  : peak/mean %.2f"
       (float_of_int (peak * n) /. float_of_int total));
  Buffer.contents buf

let flow_rules rt ~limit =
  let buf = Buffer.create 256 in
  let mat = Runtime.global_mat rt in
  let total = Sb_mat.Global_mat.flow_count mat in
  let rules =
    Sb_mat.Global_mat.fold (fun fid rule acc -> (fid, rule) :: acc) mat []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iteri
    (fun i (fid, rule) ->
      if i < limit then
        Buffer.add_string buf
          (Format.asprintf "  %a: %a@." Sb_flow.Fid.pp fid Sb_mat.Global_mat.pp_rule rule))
    rules;
  if total > limit then
    Buffer.add_string buf (Printf.sprintf "  ... and %d more\n" (total - limit));
  Buffer.contents buf
