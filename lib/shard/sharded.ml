open Speedybox

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
  control : Control.t;
  (* Steering state.  [overrides] redirects a migrated flow away from its
     hash home; [directory] remembers each flow's ingress tuple and owner
     so migration can find the state to move.  Both are touched only by
     the steering thread (the deterministic executor, or the parallel
     executor's feeder), never by shard workers. *)
  overrides : (int, int) Hashtbl.t;
  directory : (int, Sb_flow.Five_tuple.t * int) Hashtbl.t;
  steered : int array;  (* packets steered to each shard *)
  migrated_in : int array;
  migrated_out : int array;
  mutable now_us : float;  (* last steered packet's simulated clock *)
}

let create ?(shards = 1) cfg build_chain =
  if shards < 1 then invalid_arg "Sharded.create: shards must be positive";
  let control = Control.create ~shards in
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
  (* Faults are chain-wide: whatever shard records one, every other shard
     must advance the NF's health before its next packet. *)
  Array.iteri
    (fun i rt ->
      Runtime.set_fault_listener rt (fun nf ->
          Control.broadcast control ~from:i (Control.Nf_fault nf)))
    runtimes;
  {
    cfg;
    runtimes;
    obs_children;
    control;
    overrides = Hashtbl.create 256;
    directory = Hashtbl.create 256;
    steered = Array.make shards 0;
    migrated_in = Array.make shards 0;
    migrated_out = Array.make shards 0;
    now_us = 0.;
  }

let shard_count t = Array.length t.runtimes

let runtime t i = t.runtimes.(i)

let config t = t.cfg

let obs_child t i = t.obs_children.(i)

(* Recompute the parent sink from the per-shard children (a no-op when the
   children alias the parent — disarmed, or a single shard).  Idempotent:
   the merge clears the parent first, so calling it after every run, or
   between runs to take a consistent reading, never double-counts. *)
let merge_obs t = Sb_obs.Sink.merge t.cfg.Runtime.obs t.obs_children

let fid_of t tuple = Sb_flow.Fid.of_tuple ~bits:t.cfg.Runtime.fid_bits tuple

let shard_of_tuple t tuple =
  let fid = fid_of t tuple in
  match Hashtbl.find_opt t.overrides fid with
  | Some s -> s
  | None -> Steer.shard_of_tuple ~shards:(Array.length t.runtimes) tuple

let shard_of_packet t packet =
  match Sb_flow.Five_tuple.of_packet_opt packet with
  | None -> 0
  | Some tuple -> shard_of_tuple t tuple

(* ---- Control plane ---- *)

let drain_control t s =
  ignore
    (Control.drain t.control ~shard:s (function
      | Control.Nf_fault nf -> Runtime.absorb_remote_fault t.runtimes.(s) ~nf
      | Control.Apply f -> f s t.runtimes.(s)))

let broadcast t f = Control.broadcast t.control (Control.Apply f)

(* ---- Steering bookkeeping ---- *)

(* Directory-only part of an arrival, separated so the post-burst
   sequential replay below can re-establish entries without
   double-counting [steered]. *)
let note_seen t s packet =
  match Sb_flow.Five_tuple.of_packet_opt packet with
  | None -> ()
  | Some tuple ->
      let fid = fid_of t tuple in
      if not (Hashtbl.mem t.directory fid) then Hashtbl.replace t.directory fid (tuple, s)

let note_arrival t s packet =
  t.steered.(s) <- t.steered.(s) + 1;
  t.now_us <- Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle;
  note_seen t s packet

(* After a FIN/RST packet has processed (the runtime tore the flow's rules
   and conntrack down), drop both directions' steering state too: a new
   connection reusing the tuple starts fresh at its hash home. *)
let prune_if_final t packet =
  match Sb_flow.Five_tuple.of_packet_opt packet with
  | Some tuple when tuple.Sb_flow.Five_tuple.proto = 6 ->
      let flags = Sb_packet.Packet.tcp_flags packet in
      if flags.Sb_packet.Tcp.Flags.fin || flags.Sb_packet.Tcp.Flags.rst then begin
        let fid = fid_of t tuple in
        let rfid = fid_of t (Sb_flow.Five_tuple.reverse tuple) in
        Hashtbl.remove t.directory fid;
        Hashtbl.remove t.directory rfid;
        Hashtbl.remove t.overrides fid;
        Hashtbl.remove t.overrides rfid
      end
  | Some _ | None -> ()

(* ---- Parallel-run bookkeeping ----

   The steering tables above are plain Hashtbls, touched only
   single-threaded.  The parallel executor's workers therefore never
   touch them: after [Domain.join] the main thread replays the trace's
   steering events here — the same code in the same order as the
   deterministic executor, so counters, clock and directory end
   bit-identical to a deterministic run.  (Per-worker net-state notes
   cannot achieve this: two distinct flows on different shards may
   collide on one fid, and no per-shard summary can recover how their
   arrivals and FINs interleaved in trace order.) *)

let absorb_parallel_trace t originals =
  Array.iter
    (fun p ->
      let s = shard_of_packet t p in
      note_arrival t s p;
      prune_if_final t p)
    originals

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
   rule transplants only when the flow has no armed events (the Event
   Table's registrations and closures live in the source chain and cannot
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
      let armed =
        Sb_mat.Event_table.armed_count (Chain.events (Runtime.chain src_rt)) fid
      in
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
  Hashtbl.replace t.overrides fid dest;
  (match Hashtbl.find_opt t.directory fid with
  | Some (tu, _) -> Hashtbl.replace t.directory fid (tu, dest)
  | None -> ());
  obs_migrated t fid src dest

let migrate_flow t ~fid ~dest =
  if dest < 0 || dest >= Array.length t.runtimes then
    invalid_arg "Sharded.migrate_flow: destination out of range";
  match Hashtbl.find_opt t.directory fid with
  | None -> false
  | Some (_, src) when src = dest -> false
  | Some (tuple, src) ->
      migrate_direction t ~src ~dest tuple fid;
      (* The connection's other direction has its own FID, conntrack key
         and (possibly) rule; it must follow or its packets would land on
         a shard whose state just left. *)
      let rtuple = Sb_flow.Five_tuple.reverse tuple in
      let rfid = fid_of t rtuple in
      if rfid <> fid then migrate_direction t ~src ~dest rtuple rfid;
      t.migrated_out.(src) <- t.migrated_out.(src) + 1;
      t.migrated_in.(dest) <- t.migrated_in.(dest) + 1;
      true

let drain_shard t ~from ~dest =
  if from = dest then invalid_arg "Sharded.drain_shard: from = dest";
  let fids =
    Hashtbl.fold (fun fid (_, s) acc -> if s = from then fid :: acc else acc) t.directory []
    |> List.sort Int.compare
  in
  List.fold_left (fun n fid -> if migrate_flow t ~fid ~dest then n + 1 else n) 0 fids

let ownership_counts t =
  let counts = Array.make (Array.length t.runtimes) 0 in
  Hashtbl.iter (fun _ (_, s) -> counts.(s) <- counts.(s) + 1) t.directory;
  counts

let spread counts =
  let hi = Array.fold_left max counts.(0) counts in
  let lo = Array.fold_left min counts.(0) counts in
  hi - lo

let rebalance t =
  let n = Array.length t.runtimes in
  if n < 2 then 0
  else begin
    let moved = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let counts = ownership_counts t in
      let hi = ref 0 and lo = ref 0 in
      Array.iteri
        (fun i c ->
          if c > counts.(!hi) then hi := i;
          if c < counts.(!lo) then lo := i)
        counts;
      if counts.(!hi) - counts.(!lo) <= 1 then continue_ := false
      else begin
        (* Smallest FID on the hot shard: deterministic, so rebalancing a
           given state always produces the same placement. *)
        let fid =
          Hashtbl.fold
            (fun fid (_, s) best -> if s = !hi && (best < 0 || fid < best) then fid else best)
            t.directory (-1)
        in
        let before = spread counts in
        if fid < 0 || not (migrate_flow t ~fid ~dest:!lo) then continue_ := false
        else begin
          incr moved;
          (* A migration moves one or two directory entries; stop when the
             spread stops shrinking (a 2-entry connection can't split). *)
          if spread (ownership_counts t) >= before then continue_ := false
        end
      end
    done;
    !moved
  end

(* ---- The deterministic executor ---- *)

(* End-of-run gauges, written into each shard's CHILD registry — never the
   parent, which the next [merge_obs] would wipe.  Per-shard series carry a
   [shard] label; the run-level gauges an unsharded run_trace would set
   become per-shard contributions under the same (chain-labelled) series,
   summed by the merge — so a merged sharded export totals exactly what the
   unsharded run reports.  The whole-run figures (the non-flow bucket and
   the state store) land on child 0. *)
let finish_obs t (result : Runtime.run_result) =
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

let run_trace ?on_output ?(burst = Runtime.default_burst) t packets =
  if burst < 1 then invalid_arg "Sharded.run_trace: burst must be positive";
  if Array.length t.runtimes = 1 then begin
    (* One shard: the plan degenerates to the plain burst path. *)
    drain_control t 0;
    t.steered.(0) <- t.steered.(0) + List.length packets;
    let result = Runtime.run_trace ?on_output ~burst t.runtimes.(0) packets in
    drain_control t 0;
    result
  end
  else begin
    let acc = Runtime.Acc.create ~fid_bits:t.cfg.Runtime.fid_bits () in
    let originals = Array.of_list packets in
    let total = Array.length originals in
    (* Same replay discipline as the unsharded loop: the trace is never
       mutated; copies live in a reusable pool unless [on_output] may
       retain them. *)
    let pool =
      if on_output = None then
        Array.init (min burst (max total 1)) (fun _ -> Sb_packet.Packet.scratch ())
      else [||]
    in
    let i = ref 0 in
    while !i < total do
      (* Maximal same-shard stretch, capped at the burst size: batching
         preserved, global arrival order preserved. *)
      let s = shard_of_packet t originals.(!i) in
      let j = ref (!i + 1) in
      while !j < total && !j - !i < burst && shard_of_packet t originals.(!j) = s do
        incr j
      done;
      let len = !j - !i in
      for k = 0 to len - 1 do
        note_arrival t s originals.(!i + k)
      done;
      (* Absorb what other shards broadcast since this shard last ran —
         before the next packet touches its state, which is exactly the
         point the unsharded runtime would have seen the same fault. *)
      drain_control t s;
      let seg =
        if on_output = None then begin
          for k = 0 to len - 1 do
            Sb_packet.Packet.copy_into ~src:originals.(!i + k) ~dst:pool.(k)
          done;
          pool
        end
        else Array.init len (fun k -> Sb_packet.Packet.copy originals.(!i + k))
      in
      let base = !i in
      Runtime.process_burst_into t.runtimes.(s) seg ~off:0 ~len (fun k out ->
          Runtime.Acc.consume acc originals.(base + k) out;
          Option.iter (fun f -> f originals.(base + k) out) on_output);
      (* Sequential replay of the directory events: per packet in trace
         order, arrival then prune.  This makes the end state independent
         of where burst boundaries fall — a flow that closes and restarts
         inside one burst stays in the directory, exactly as it would had
         the FIN and the new SYN landed in different bursts (and exactly
         as the parallel executor, whose batch boundaries differ, computes
         it). *)
      for k = 0 to len - 1 do
        note_seen t s originals.(base + k);
        prune_if_final t originals.(base + k)
      done;
      (* Stretch-boundary state merge: publish shard [s]'s global-cell
         contributions and refresh every shard's cached view before the
         next stretch runs.  Only one shard executes per stretch, so a
         condition reading [read_merged] inside the stretch sees fresh
         other-shard contributions plus its own live ones — exactly the
         value the unsharded chain would compute — and a global threshold
         crossed only by the cross-shard sum fires on the same packet it
         would have unsharded. *)
      if Sb_state.Store.has_global t.cfg.Runtime.state then
        Sb_state.Store.merge_round t.cfg.Runtime.state;
      i := !j
    done;
    (* Converge at end of run: a shard that received no packet after the
       last broadcast still absorbs it, so every shard's health table ends
       identical to the unsharded run's. *)
    for s = 0 to Array.length t.runtimes - 1 do
      drain_control t s
    done;
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
      {
        Report.shard = i;
        packets = t.steered.(i);
        flows = flows.(i);
        rules = Sb_mat.Global_mat.flow_count (Runtime.global_mat t.runtimes.(i));
        control_msgs = Control.absorbed t.control ~shard:i;
        migrated_in = t.migrated_in.(i);
        migrated_out = t.migrated_out.(i);
        state_entries =
          (if shared then Sb_state.Store.flow_entries (Sb_state.Store.replica st i) else 0);
      })
