open Speedybox
module Five_tuple = Sb_flow.Five_tuple
module Flat_table = Sb_flow.Flat_table

type t = {
  cfg : Runtime.config;
  runtimes : Runtime.t array;
  (* Per-shard child sinks split off [cfg.obs] when it is armed and the
     plan is multi-shard (otherwise every slot aliases the parent): shard
     [i]'s runtime records into [obs_children.(i)] only — its own
     registry, tracer ring and timeline, no cross-domain writes — and the
     executors recompute the parent from the children at end of run
     ([merge_obs]). *)
  obs_children : Sb_obs.Sink.t array;
  (* The steering books, one entry per FID: the packed key of the flow's
     first packet and the shard it steered to (the directory migration
     reads), and the override that redirects a migrated flow.  Owner and
     override are stored plus one, so a zeroed cell means none. *)
  books : unit Flat_table.t;
  steered : int array;  (* packets steered to each shard *)
  migrated_in : int array;
  migrated_out : int array;
  mutable now_us : float;  (* last steered packet's simulated clock *)
  mutable running : bool;  (* inside [run_steered] *)
}

let create ?(shards = 1) cfg build_chain =
  if shards < 1 then invalid_arg "Sharded.create: shards must be positive";
  let obs_children =
    if shards > 1 && Sb_obs.Sink.armed cfg.Runtime.obs then
      Sb_obs.Sink.split cfg.Runtime.obs shards
    else Array.make shards cfg.Runtime.obs
  in
  let runtimes =
    Array.init shards (fun i ->
        Runtime.create { cfg with Runtime.obs = obs_children.(i) } (build_chain i))
  in
  (* The chains have now declared their cells.  A store sized for a
     different shard count would alias replicas across shards (or leave
     some unreachable) — reject it rather than partition state silently,
     which is the failure mode this subsystem exists to kill.  A store
     that stayed empty is fine at any size: nothing was declared against
     it, so nothing can be partitioned. *)
  let st = cfg.Runtime.state in
  if Sb_state.Store.cell_count st > 0 && Sb_state.Store.shards st <> shards then
    invalid_arg
      (Printf.sprintf
         "Sharded.create: state store sized for %d shard(s) but the deployment has %d \
          — create it with Store.create ~shards:%d"
         (Sb_state.Store.shards st) shards shards);
  (* NF health is chain-wide: every shard records into shard 0's table,
     whose NF set every shard's chain shares. *)
  let health = Sb_fault.Supervisor.health (Runtime.supervisor runtimes.(0)) in
  Array.iter
    (fun rt -> Sb_fault.Supervisor.share_health (Runtime.supervisor rt) health)
    runtimes;
  {
    cfg;
    runtimes;
    obs_children;
    books = Flat_table.create ~initial_size:256 ~cells:4 ();
    steered = Array.make shards 0;
    migrated_in = Array.make shards 0;
    migrated_out = Array.make shards 0;
    now_us = 0.;
    running = false;
  }

let shard_count t = Array.length t.runtimes

let runtime t i = t.runtimes.(i)

let config t = t.cfg

(* Recompute the parent sink from the per-shard children (a no-op when the
   children alias the parent — disarmed, or a single shard).  Idempotent:
   the merge clears the parent first, so calling it after every run, or
   between runs to take a consistent reading, never double-counts. *)
let merge_obs t = Sb_obs.Sink.merge t.cfg.Runtime.obs t.obs_children

(* Cells of a [books] entry. *)
let key1, key2, owner, override = (0, 1, 2, 3)

let fid_of t k1 k2 = Sb_flow.Fid.of_hash ~bits:t.cfg.Runtime.fid_bits (Five_tuple.hash_packed k1 k2)

(* Where a flow keyed [(k1, k2)] steers, given its books slot (or [-1]). *)
let steer_at t slot k1 k2 =
  let o = if slot < 0 then 0 else Flat_table.cell t.books slot override in
  if o > 0 then o - 1 else Steer.shard_of_packed ~shards:(Array.length t.runtimes) k1 k2

let shard_of_packet t packet =
  if not (Five_tuple.admits packet) then 0
  else begin
    let k1 = Five_tuple.packet_pack1 packet and k2 = Five_tuple.packet_pack2 packet in
    steer_at t (Flat_table.find_slot t.books (fid_of t k1 k2)) k1 k2
  end

(* ---- The steering pass ----

   No shard reads the books, so steering a whole run before processing
   it places each packet where steering it just before processing would:
   placement cannot depend on where a stretch or a batch ends.  A FIN or
   RST drops both directions' entries, so a connection reopening on the
   tuple starts at its hash home.  A migration during the run would
   strand the flow's remaining packets on the shard its state just left,
   so [running] refuses it. *)

let steer_flow t p =
  let k1 = Five_tuple.packet_pack1 p and k2 = Five_tuple.packet_pack2 p in
  let fid = fid_of t k1 k2 in
  let slot = Flat_table.claim t.books fid in
  let s = steer_at t slot k1 k2 in
  if Flat_table.cell t.books slot owner = 0 then begin
    Flat_table.set_cell t.books slot key1 k1;
    Flat_table.set_cell t.books slot key2 k2;
    Flat_table.set_cell t.books slot owner (s + 1)
  end;
  if
    k1 land 0xFF = Sb_packet.Ipv4.proto_tcp
    && Sb_packet.Packet.tcp_flag_bits p land Sb_packet.Tcp.(fin_bit lor rst_bit) <> 0
  then begin
    Flat_table.remove t.books fid;
    Flat_table.remove t.books
      (fid_of t (Five_tuple.reverse_pack1 k1 k2) (Five_tuple.reverse_pack2 k1 k2))
  end;
  s

let run_steered t originals f =
  if t.running then invalid_arg "Sharded: the plan is already running";
  let n = Array.length originals in
  let lane = Array.make n 0 in
  for k = 0 to n - 1 do
    let p = originals.(k) in
    let s = if Five_tuple.admits p then steer_flow t p else 0 in
    lane.(k) <- s;
    t.steered.(s) <- t.steered.(s) + 1
  done;
  if n > 0 then
    t.now_us <- Sb_sim.Cycles.to_microseconds originals.(n - 1).Sb_packet.Packet.ingress_cycle;
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) (fun () -> f lane)

let between_runs t what =
  if t.running then invalid_arg (what ^ ": the plan is running; migrate between runs")

(* ---- Migration ---- *)

(* Migration events record into the SOURCE shard's child timeline (the
   shard that owned the flow when the event happened).  Recording into the
   parent would be lost at the next [merge_obs], which recomputes the
   parent from the children. *)
let obs_migrated t fid src dest =
  if Sb_obs.Sink.armed t.obs_children.(src) then
    match Sb_obs.Sink.timeline t.obs_children.(src) with
    | Some tl ->
        Sb_obs.Timeline.record tl ~fid ~ts_us:t.now_us
          ~detail:(Printf.sprintf "shard %d -> %d" src dest)
          Sb_obs.Timeline.Migrated
    | None -> ()

(* Move one direction's state.  Conntrack always moves; the consolidated
   rule transplants only when the flow has no armed events (the rule's
   events and their closures belong to the source chain and cannot
   follow), otherwise it tears down and the flow re-records on [dest]; a
   flow with no rule at all — quarantined, or not yet consolidated — moves
   by steering alone, deliberately NOT resurrecting anything. *)
let migrate_direction t ~src ~dest tuple fid =
  let src_rt = t.runtimes.(src) and dst_rt = t.runtimes.(dest) in
  (* Scope-aware state transplant, before the rule/record teardown below:
     the flow's per-flow store entries (counters, conntrack) move to the
     destination replica, so [dest]'s re-recording resumes from the same
     state the unsharded chain would hold.  Global and per-shard cells
     don't move — global contributions stay where they were earned (the
     merge sums them regardless of owner), per-shard cells are pinned by
     definition. *)
  if Sb_state.Store.shards t.cfg.Runtime.state > 1 then
    ignore (Sb_state.Store.transplant t.cfg.Runtime.state ~src ~dest tuple);
  (match Classifier.export_flow (Runtime.classifier src_rt) tuple with
  | Some st ->
      Classifier.adopt_flow (Runtime.classifier dst_rt) tuple st;
      Classifier.forget (Runtime.classifier src_rt) tuple
  | None -> ());
  (match Sb_mat.Global_mat.find (Runtime.global_mat src_rt) fid with
  | Some rule ->
      let armed = Sb_mat.Event_table.armed (Sb_mat.Global_mat.rule_events rule) in
      (* A consolidated rule's state-function closures are bound to the
         SOURCE shard's NF instances.  With instance-local NF state that
         was harmless (the state stayed put and kept accruing at the
         source); with a shared store the per-flow entries just
         transplanted to [dest], so executing source-bound closures would
         resurrect stale entries in the drained replica and starve the
         transplanted ones.  Adopt only closure-free rules then — a rule
         with state functions tears down and re-records on [dest], where
         the rebuilt closures resume from the transplanted entries. *)
      let portable =
        Sb_state.Store.shards t.cfg.Runtime.state <= 1
        || Sb_mat.Global_mat.rule_batches rule = []
      in
      if armed = 0 && portable then
        Sb_mat.Global_mat.adopt (Runtime.global_mat dst_rt) fid rule;
      Chain.remove_flow (Runtime.chain src_rt) fid;
      Sb_mat.Global_mat.remove_flow (Runtime.global_mat src_rt) fid
  | None -> ());
  let slot = Flat_table.claim t.books fid in
  Flat_table.set_cell t.books slot override (dest + 1);
  if Flat_table.cell t.books slot owner > 0 then Flat_table.set_cell t.books slot owner (dest + 1);
  obs_migrated t fid src dest

let migrate_flow t ~fid ~dest =
  between_runs t "Sharded.migrate_flow";
  if dest < 0 || dest >= Array.length t.runtimes then
    invalid_arg "Sharded.migrate_flow: destination out of range";
  let slot = Flat_table.find_slot t.books fid in
  let src = if slot < 0 then -1 else Flat_table.cell t.books slot owner - 1 in
  if src < 0 || src = dest then false
  else begin
    let k1 = Flat_table.cell t.books slot key1 and k2 = Flat_table.cell t.books slot key2 in
    migrate_direction t ~src ~dest (Five_tuple.of_packed k1 k2) fid;
    (* The connection's other direction has its own FID, conntrack key
       and (possibly) rule; it must follow or its packets would land on
       a shard whose state just left. *)
    let r1 = Five_tuple.reverse_pack1 k1 k2 and r2 = Five_tuple.reverse_pack2 k1 k2 in
    let rfid = fid_of t r1 r2 in
    if rfid <> fid then migrate_direction t ~src ~dest (Five_tuple.of_packed r1 r2) rfid;
    t.migrated_out.(src) <- t.migrated_out.(src) + 1;
    t.migrated_in.(dest) <- t.migrated_in.(dest) + 1;
    true
  end

(* Directory entries in slot order: [f fid owner acc]. *)
let fold_directory f t init =
  Flat_table.fold_slots
    (fun slot acc ->
      let o = Flat_table.cell t.books slot owner in
      if o > 0 then f (Flat_table.key_at t.books slot) (o - 1) acc else acc)
    t.books init

let drain_shard t ~from ~dest =
  between_runs t "Sharded.drain_shard";
  if from = dest then invalid_arg "Sharded.drain_shard: from = dest";
  let fids =
    fold_directory (fun fid s acc -> if s = from then fid :: acc else acc) t []
    |> List.sort Int.compare
  in
  List.fold_left (fun n fid -> if migrate_flow t ~fid ~dest then n + 1 else n) 0 fids

let ownership_counts t =
  let counts = Array.make (Array.length t.runtimes) 0 in
  fold_directory (fun _ s () -> counts.(s) <- counts.(s) + 1) t ();
  counts

let spread counts =
  let hi = Array.fold_left max counts.(0) counts in
  let lo = Array.fold_left min counts.(0) counts in
  hi - lo

(* Move the smallest FID off the most- to the least-loaded shard
   (deterministic, so a given state always rebalances alike) until the
   spread stops shrinking: a migration moves one or two directory entries,
   and a 2-entry connection can't split. *)
let rebalance t =
  let rec go moved =
    let counts = ownership_counts t in
    let hi = ref 0 and lo = ref 0 in
    Array.iteri
      (fun i c ->
        if c > counts.(!hi) then hi := i;
        if c < counts.(!lo) then lo := i)
      counts;
    let before = spread counts in
    let fid =
      fold_directory
        (fun fid s best -> if s = !hi && (best < 0 || fid < best) then fid else best)
        t (-1)
    in
    if before <= 1 || fid < 0 || not (migrate_flow t ~fid ~dest:!lo) then moved
    else if spread (ownership_counts t) >= before then moved + 1
    else go (moved + 1)
  in
  between_runs t "Sharded.rebalance";
  if Array.length t.runtimes < 2 then 0 else go 0

(* ---- The deterministic executor ---- *)

(* End-of-run gauges, written into each shard's CHILD registry — never the
   parent, which the next [merge_obs] would wipe.  Per-shard series carry a
   [shard] label; the run-level gauges an unsharded run_trace would set
   become per-shard contributions under the same (chain-labelled) series,
   summed by the merge — so a merged sharded export totals exactly what the
   unsharded run reports.  The whole-run figures (the non-flow bucket and
   the state store) land on child 0.  With no registry to write (an
   unarmed run) the directory fold is skipped. *)
let finish_obs t (result : Runtime.run_result) =
  if Array.exists (fun c -> Option.is_some (Sb_obs.Sink.metrics c)) t.obs_children then begin
    let flows = ownership_counts t in
    Array.iteri
      (fun i rt ->
        match Sb_obs.Sink.metrics t.obs_children.(i) with
        | None -> ()
        | Some m ->
            let chain_label = ("chain", Chain.name (Runtime.chain rt)) in
            let g name help v =
              Sb_obs.Metrics.Gauge.set
                (Sb_obs.Metrics.gauge m ~help
                   ~labels:[ chain_label; ("shard", string_of_int i) ]
                   name)
                (float_of_int v)
            in
            g "speedybox_shard_packets" "Packets steered to this shard" t.steered.(i);
            g "speedybox_shard_flows" "Flows owned by this shard" flows.(i);
            g "speedybox_shard_rules" "Consolidated rules installed on this shard"
              (Sb_mat.Global_mat.flow_count (Runtime.global_mat rt));
            let st = t.cfg.Runtime.state in
            if
              Sb_state.Store.cell_count st > 0
              && Sb_state.Store.shards st = Array.length t.runtimes
            then
              g "speedybox_state_flow_entries"
                "Live per-flow state-store entries on this shard"
                (Sb_state.Store.flow_entries (Sb_state.Store.replica st i));
            Runtime.record_run_gauges rt ~whole_run:(i = 0) result)
      t.runtimes
  end

let run_trace ?on_output ?(burst = Runtime.default_burst) t packets =
  if burst < 1 then invalid_arg "Sharded.run_trace: burst must be positive";
  if Array.length t.runtimes = 1 then begin
    (* One shard: the plan degenerates to the plain burst path. *)
    t.steered.(0) <- t.steered.(0) + List.length packets;
    Runtime.run_trace ?on_output ~burst t.runtimes.(0) packets
  end
  else begin
    let acc = Runtime.Acc.create ~fid_bits:t.cfg.Runtime.fid_bits () in
    let originals = Array.of_list packets in
    let total = Array.length originals in
    run_steered t originals @@ fun lane ->
    (* Publish what was written between runs (an NF control call on every
       shard's instance) before the first stretch, as unsharded would. *)
    let store = t.cfg.Runtime.state in
    let merging = Sb_state.Store.has_global store in
    if merging then Sb_state.Store.merge_round store;
    let base = ref 0 in
    let emit k out =
      let original = originals.(!base + k) in
      Runtime.Acc.consume acc original out;
      match on_output with Some f -> f original out | None -> ()
    in
    (* Same replay discipline as the unsharded loop: the trace is never
       mutated; copies live in a reusable pool unless [on_output] may
       retain them. *)
    let pool =
      if on_output = None then
        Array.init (min burst (max total 1)) (fun _ -> Sb_packet.Packet.scratch ())
      else [||]
    in
    while !base < total do
      (* Maximal same-shard stretch of the lane, capped at the burst size:
         batching preserved, global arrival order preserved. *)
      let i = !base in
      let s = lane.(i) in
      let j = ref (i + 1) in
      while !j < total && !j - i < burst && lane.(!j) = s do
        incr j
      done;
      let len = !j - i in
      (* Catch up with the faults other shards recorded since this shard
         last ran — before the next packet touches its state, which is
         exactly the point the unsharded runtime would have seen them. *)
      Runtime.sync_health t.runtimes.(s);
      let seg =
        if on_output = None then begin
          for k = 0 to len - 1 do
            Sb_packet.Packet.copy_into ~src:originals.(i + k) ~dst:pool.(k)
          done;
          pool
        end
        else Array.init len (fun k -> Sb_packet.Packet.copy originals.(i + k))
      in
      Runtime.process_burst_into t.runtimes.(s) seg ~off:0 ~len emit;
      (* Only shard [s] ran: publishing it and refreshing the others makes
         every [read_merged] in the next stretch exact, so a global
         threshold crossed only by the cross-shard sum fires on the packet
         it would unsharded. *)
      if merging && !j < total then Sb_state.Store.hand_off store ~from:s;
      base := !j
    done;
    (* Converge at end of run: a shard that received no packet after
       another shard's last fault still wakes and flushes, so every shard
       ends as the unsharded run would. *)
    Array.iter Runtime.sync_health t.runtimes;
    (* The closing round publishes the last stretch, so every replica
       reads exact values after the run. *)
    if merging then Sb_state.Store.merge_round store;
    let result = Runtime.Acc.result acc in
    finish_obs t result;
    merge_obs t;
    result
  end

let stats t =
  let flows = ownership_counts t in
  let st = t.cfg.Runtime.state in
  let shared = Sb_state.Store.shards st = Array.length t.runtimes in
  List.init (Array.length t.runtimes) (fun i ->
      let rt = t.runtimes.(i) in
      {
        Report.shard = i;
        packets = t.steered.(i);
        flows = flows.(i);
        rules = Sb_mat.Global_mat.flow_count (Runtime.global_mat rt);
        migrated_in = t.migrated_in.(i);
        migrated_out = t.migrated_out.(i);
        state_entries =
          (if shared then Sb_state.Store.flow_entries (Sb_state.Store.replica st i) else 0);
        faults = Sb_fault.Supervisor.total_faults (Runtime.supervisor rt);
      })
