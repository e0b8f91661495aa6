open Sb_packet

(* The fast path of one flow: positional interleaving of merged header
   transforms and state-function wave groups, in chain order. *)
type step =
  | Transform of Consolidate.t
  | Waves of { batches : State_function.Batch.t list; plan : int list list }

(* The compiled form: a flat instruction array the per-packet executor
   walks with no list traversal, no plan indexing and no cost recomputation.
   Each wave group is pre-resolved into one [C_wave] per wave, the plan's
   indices already applied; each transform carries its cycle cost computed
   once at consolidation time. *)
type cstep =
  | C_transform of {
      c : Consolidate.t;
      cost : int;
      incr_ok : bool;
          (* no Write-mode batch runs before this transform, so the stored
             L4 checksum still matches the bytes and the RFC 1624
             incremental fix-up is byte-identical to the full recompute *)
    }
  | C_wave of State_function.Batch.t array

type program = {
  code : cstep array;
  transforms : int;  (* non-identity transforms in [code] *)
  static_head : int;
      (* the per-packet serial cycles that do not depend on events:
         fast-path lookup + per-source-action walk + base forward *)
  serial : bool;
      (* no wave runs two or more batches, so every cost item is [Serial]
         and the executor can count cycles into the int scratch *)
}

type rule = {
  mutable steps : step list;  (* source form, kept for introspection/recompile *)
  mutable program : program;
  mutable overall : Consolidate.t;  (* position-insensitive merge, introspection *)
  mutable n_source_actions : int;
  mutable last_use : int;  (* logical clock, exposed for debugging *)
  mutable node : Sb_flow.Lru.node;  (* position in the eviction order *)
}

let rule_action r = r.overall

let rule_batches r =
  List.concat_map
    (function Transform _ -> [] | Waves { batches; _ } -> batches)
    r.steps

let rule_plan r =
  (* Re-index each group's plan into the global batch numbering. *)
  let _, rev_plans =
    List.fold_left
      (fun (offset, acc) step ->
        match step with
        | Transform _ -> (offset, acc)
        | Waves { batches; plan } ->
            ( offset + List.length batches,
              List.rev_append (List.map (List.map (fun i -> i + offset)) plan) acc ))
      (0, []) r.steps
  in
  List.rev rev_plans

let rule_transform_count r = r.program.transforms

(* How the fast path executes a consolidated rule: [Compiled] (the flat
   program) is the production path; [Interpreted] walks the source [step
   list] exactly as the pre-compilation executor did, and exists so the
   differential tests can prove the two produce bit-identical outputs. *)
type exec_mode = Compiled | Interpreted

type fast_result = {
  verdict : Header_action.verdict;
  stage : Sb_sim.Cost_profile.stage;
  events_fired : int;
  shared : bool;
}

type t = {
  policy : Parallel.policy;
  exec : exec_mode;
  rules : rule Sb_flow.Flow_table.t;
  lru : Sb_flow.Lru.t;  (* recency order over [rules], O(1) touch/evict *)
  max_rules : int option;
  on_evict : Sb_flow.Fid.t -> unit;
  obs : Sb_obs.Sink.t;
  obs_consolidations : Sb_obs.Metrics.Counter.t option;  (* resolved once *)
  mutable clock : int;
  mutable evicted : int;
  mutable consolidations : int;
  mutable generation : int;
      (* bumped whenever a fid→rule binding is dropped (evict/remove/clear);
         the burst path's last-flow memo is valid only within a generation.
         In-place reconsolidation keeps the rule record — no bump needed. *)
  (* Grow-only scratch buffers for wave snapshot/merge: reused across
     packets so multi-batch waves allocate nothing per execution. *)
  mutable snap : Bytes.t;
  mutable snap_len : int;
  mutable aux : Bytes.t;
  (* Per-packet cost scratch for serial programs: the head cycles at 0,
     one entry per code step, then the egress item — grown to the longest
     program seen. *)
  mutable cycles : int array;
  interned : fast_result array;
      (* direct-mapped cache of quiet fast-path results, keyed by the cycle
         sequence and verdict: flows whose programs cost the same share one
         immutable result instead of building a stage per packet *)
  (* Free list of scrubbed rule records: rules churn at flow rate under
     LRU and idle eviction, and recycling the (boxed) record keeps
     steady-state consolidation from allocating one per flow and from
     handing the major GC a dead record per eviction.  Bounded so a mass
     flush cannot pin an arbitrarily large arena. *)
  mutable spare : rule list;
  mutable spare_len : int;
}

(* A chain whose fast path does no payload-dependent work has a handful of
   quiet cost sequences: measured on the benchmark's chains, one per table.
   Sixteen slots keep a few apart (verdicts, armed-event counts).  A chain
   whose costs follow the payload (Snort) has thousands and misses at any
   size this table could afford; a miss costs a hash and a slot write on
   top of the allocation it would have made anyway. *)
let intern_slots = 16

let gmat_label = "GlobalMAT"

(* Never matches a lookup: every real stage carries at least the head item. *)
let no_result =
  {
    verdict = Header_action.Forwarded;
    stage = Sb_sim.Cost_profile.stage gmat_label [];
    events_fired = 0;
    shared = false;
  }

let create ?(policy = Parallel.Table_one) ?max_rules ?(exec = Compiled)
    ?(on_evict = fun _ -> ()) ?(obs = Sb_obs.Sink.null) () =
  (match max_rules with
  | Some n when n < 1 -> invalid_arg "Global_mat.create: max_rules must be positive"
  | Some _ | None -> ());
  {
    policy;
    exec;
    rules = Sb_flow.Flow_table.create ();
    lru = Sb_flow.Lru.create ();
    max_rules;
    on_evict;
    obs;
    obs_consolidations =
      Option.map
        (fun m ->
          Sb_obs.Metrics.counter m ~help:"Consolidations performed (initial + event-driven)"
            "speedybox_consolidations_total")
        (Sb_obs.Sink.metrics obs);
    clock = 0;
    evicted = 0;
    consolidations = 0;
    generation = 0;
    snap = Bytes.create 256;
    snap_len = 0;
    aux = Bytes.create 256;
    cycles = Array.make 8 0;
    interned = Array.make intern_slots no_result;
    spare = [];
    spare_len = 0;
  }

let policy t = t.policy

let exec_mode t = t.exec

let evictions t = t.evicted

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let spare_cap = 1024

let empty_program = { code = [||]; transforms = 0; static_head = 0; serial = true }

(* Scrub a dead rule of everything it retains (steps and program embed NF
   closures) and keep the husk for reuse.  Callers must have already
   dropped the fid binding's LRU node — the handle may be reallocated. *)
let recycle t (r : rule) =
  if t.spare_len < spare_cap then begin
    r.steps <- [];
    r.program <- empty_program;
    r.overall <- Consolidate.forward;
    r.n_source_actions <- 0;
    t.spare <- r :: t.spare;
    t.spare_len <- t.spare_len + 1
  end

(* Make room for one rule when the table sits at its cap: drop the flow at
   the cold end of the recency list, telling the owner so Local MATs
   follow.  O(1), where the fold-based predecessor scanned every rule. *)
let evict_lru t =
  match Sb_flow.Lru.pop_coldest t.lru with
  | None -> ()
  | Some fid ->
      (match Sb_flow.Flow_table.find t.rules fid with
      | Some r -> recycle t r
      | None -> ());
      Sb_flow.Flow_table.remove t.rules fid;
      t.evicted <- t.evicted + 1;
      t.generation <- t.generation + 1;
      t.on_evict fid

let is_identity (c : Consolidate.t) =
  (not c.Consolidate.drop)
  && c.Consolidate.pops = []
  && c.Consolidate.pushes = []
  && c.Consolidate.sets = []

(* Positional consolidation: contiguous header-action runs merge into one
   transform each; the state-function batches between non-identity
   transforms form one wave group (within one NF, header actions are taken
   to precede its state functions).  Identity transforms are elided so
   forward-only NFs do not break batch adjacency. *)
let build_steps policy per_nf =
  let steps = ref [] in
  let run = ref [] in
  let run_has_drop = ref false in
  let group = ref [] in
  (* Once a drop transform lands, everything positioned after it is dead
     code: the original path never reaches those NFs.  (Initial-packet
     recording stops at the dropper anyway; this matters when an event
     rewrites an upstream NF's action to drop while downstream records
     persist.) *)
  let stopped = ref false in
  let flush_group () =
    match !group with
    | [] -> ()
    | batches ->
        let batches = List.rev batches in
        let plan = Parallel.plan policy (List.map State_function.Batch.mode batches) in
        steps := Waves { batches; plan } :: !steps;
        group := []
  in
  let flush_run () =
    let c = Consolidate.of_actions (List.rev !run) in
    run := [];
    run_has_drop := false;
    if not (is_identity c) then begin
      flush_group ();
      steps := Transform c :: !steps;
      if Consolidate.is_drop c then stopped := true
    end
  in
  List.iter
    (fun (actions, batch) ->
      if not !stopped then begin
        List.iter
          (fun a ->
            run := a :: !run;
            if a = Header_action.Drop then run_has_drop := true)
          actions;
        (* HAs precede SFs within an NF, so a drop in this NF's own actions
           also silences its batch. *)
        if !run_has_drop then flush_run ();
        if (not !stopped) && batch.State_function.Batch.fns <> [] then begin
          flush_run ();
          group := batch :: !group
        end
      end)
    per_nf;
  if not !stopped then flush_run ();
  flush_group ();
  List.rev !steps

(* Flatten the step list into the executable program.  This is the one-time
   slow-path work that buys the per-packet savings: plan indices resolve to
   batch arrays here (killing the per-packet [List.nth]), and each
   transform's cycle cost is computed once. *)
let compile ~n_source_actions steps =
  let rev_code = ref [] in
  let transforms = ref 0 in
  let payload_written = ref false in
  List.iter
    (function
      | Transform c ->
          incr transforms;
          let cost = Consolidate.cost c in
          rev_code := C_transform { c; cost; incr_ok = not !payload_written } :: !rev_code
      | Waves { batches; plan } ->
          let arr = Array.of_list batches in
          List.iter
            (fun wave ->
              rev_code := C_wave (Array.of_list (List.map (Array.get arr) wave)) :: !rev_code)
            plan;
          if
            List.exists
              (fun b -> State_function.Batch.mode b = State_function.Write)
              batches
          then payload_written := true)
    steps;
  let transforms = !transforms in
  let code = Array.of_list (List.rev !rev_code) in
  {
    code;
    transforms;
    serial =
      Array.for_all
        (function C_transform _ -> true | C_wave batches -> Array.length batches < 2)
        code;
    static_head =
      (Sb_sim.Cycles.fast_path_lookup
      + (n_source_actions * Sb_sim.Cycles.fast_path_per_action)
      (* Rules with no surviving transform still do one base forward. *)
      + if transforms = 0 then Sb_sim.Cycles.ha_forward else 0);
  }

let consolidate t fid locals =
  let per_nf =
    List.filter_map
      (fun local ->
        match Local_mat.find local fid with
        | None -> None
        | Some r ->
            Some
              ( Local_mat.rule_actions r,
                State_function.Batch.make ~nf:(Local_mat.nf_name local)
                  (Local_mat.rule_state_functions r) ))
      locals
  in
  let actions = List.concat_map fst per_nf in
  let n_source_actions = List.length actions in
  let steps = build_steps t.policy per_nf in
  let program = compile ~n_source_actions steps in
  let overall = Consolidate.of_actions actions in
  (match Sb_flow.Flow_table.find t.rules fid with
  | Some r ->
      (* Re-consolidation (event fire, repeated recording): update in
         place, so an executor holding the rule sees the fresh program
         without a second table lookup. *)
      r.steps <- steps;
      r.program <- program;
      r.overall <- overall;
      r.n_source_actions <- n_source_actions;
      r.last_use <- tick t;
      Sb_flow.Lru.touch t.lru r.node
  | None ->
      (match t.max_rules with
      | Some cap when Sb_flow.Flow_table.length t.rules >= cap -> evict_lru t
      | Some _ | None -> ());
      let node = Sb_flow.Lru.add t.lru fid in
      let r =
        match t.spare with
        | r :: rest ->
            t.spare <- rest;
            t.spare_len <- t.spare_len - 1;
            r.steps <- steps;
            r.program <- program;
            r.overall <- overall;
            r.n_source_actions <- n_source_actions;
            r.last_use <- tick t;
            r.node <- node;
            r
        | [] -> { steps; program; overall; n_source_actions; last_use = tick t; node }
      in
      Sb_flow.Flow_table.set t.rules fid r);
  t.consolidations <- t.consolidations + 1;
  (match t.obs_consolidations with
  | Some c -> Sb_obs.Metrics.Counter.incr c
  | None -> ());
  List.length locals * Sb_sim.Cycles.global_consolidate_per_nf

let find t fid = Sb_flow.Flow_table.find t.rules fid

(* The answer [lookup] gives on a miss, so per-packet resolution carries
   no option.  Never installed in a table.  Its node is a handle allocated
   from a throwaway list, and handles are plain ints, so it names a live
   slot in any real table's LRU: [execute_rule] refuses the sentinel rather
   than touch that slot. *)
let no_rule =
  {
    steps = [];
    program = empty_program;
    overall = Consolidate.forward;
    n_source_actions = 0;
    last_use = 0;
    node = Sb_flow.Lru.add (Sb_flow.Lru.create ()) (-1);
  }

let lookup t fid =
  let s = Sb_flow.Flow_table.find_slot t.rules fid in
  if s < 0 then no_rule else Sb_flow.Flow_table.value_at t.rules s

(* Burst-prescan hint: start the line fill for the fid's rule-table probe
   window while the prescan still has the rest of the burst to chew on. *)
let prefetch t fid = Sb_flow.Flow_table.prefetch t.rules fid

let mem t fid = Sb_flow.Flow_table.mem t.rules fid

let remove_flow t fid =
  match Sb_flow.Flow_table.find t.rules fid with
  | None -> ()
  | Some r ->
      Sb_flow.Lru.remove t.lru r.node;
      Sb_flow.Flow_table.remove t.rules fid;
      recycle t r;
      t.generation <- t.generation + 1

(* Flow-migration handoff: install a copy of a rule exported from another
   table.  The source record's intrusive LRU node belongs to the source
   table's recency list, so adoption builds a fresh record (and node) here
   and leaves the source untouched — the caller tears the source binding
   down with [remove_flow] afterwards. *)
let adopt t fid (src : rule) =
  (match Sb_flow.Flow_table.find t.rules fid with
  | Some r ->
      Sb_flow.Lru.remove t.lru r.node;
      Sb_flow.Flow_table.remove t.rules fid;
      recycle t r;
      t.generation <- t.generation + 1
  | None -> ());
  (match t.max_rules with
  | Some cap when Sb_flow.Flow_table.length t.rules >= cap -> evict_lru t
  | Some _ | None -> ());
  let node = Sb_flow.Lru.add t.lru fid in
  Sb_flow.Flow_table.set t.rules fid
    {
      steps = src.steps;
      program = src.program;
      overall = src.overall;
      n_source_actions = src.n_source_actions;
      last_use = tick t;
      node;
    }

let clear t =
  Sb_flow.Flow_table.clear t.rules;
  Sb_flow.Lru.clear t.lru;
  t.generation <- t.generation + 1

let generation t = t.generation

let flow_count t = Sb_flow.Flow_table.length t.rules

let fold f t init = Sb_flow.Flow_table.fold f t.rules init

let consolidation_count t = t.consolidations

type memory_stats = {
  rules : int;
  distinct_actions : int;
  field_writes : int;
  batches : int;
}

let memory_stats (t : t) =
  let keys = Hashtbl.create 64 in
  let field_writes = ref 0 and batches = ref 0 in
  Sb_flow.Flow_table.iter
    (fun _ rule ->
      Hashtbl.replace keys (Format.asprintf "%a" Consolidate.pp rule.overall) ();
      field_writes := !field_writes + List.length rule.overall.Consolidate.sets;
      batches := !batches + List.length (rule_batches rule))
    t.rules;
  {
    rules = Sb_flow.Flow_table.length t.rules;
    distinct_actions = Hashtbl.length keys;
    field_writes = !field_writes;
    batches = !batches;
  }

(* ---- Compiled wave execution (zero-allocation snapshot/merge) ---- *)

let region_equal a aoff b boff len =
  let rec go i =
    i >= len
    || Bytes.unsafe_get a (aoff + i) = Bytes.unsafe_get b (boff + i) && go (i + 1)
  in
  go 0

let ensure_capacity buf len =
  if Bytes.length buf >= len then buf else Bytes.create (max len (2 * Bytes.length buf))

(* Run one wave of batches with snapshot semantics: each batch sees the
   payload as of wave start; payload writes merge back, later batches
   winning, which is a deterministic model of the race parallel cores
   would exhibit.  The snapshot and the merge candidate live in [t]'s
   grow-only scratch buffers, so steady-state execution allocates only the
   cost list it returns. *)
let run_wave_compiled t batches packet =
  match Array.length batches with
  | 0 -> Sb_sim.Cost_profile.Serial 0
  | 1 -> Sb_sim.Cost_profile.Serial (State_function.Batch.run batches.(0) packet)
  | n ->
      let off = Packet.payload_offset packet in
      let snap_len = packet.Packet.len - off in
      t.snap <- ensure_capacity t.snap snap_len;
      t.snap_len <- snap_len;
      Bytes.blit packet.Packet.buf off t.snap 0 snap_len;
      let merged = ref false in
      let merged_len = ref 0 in
      let rev_costs = ref [] in
      for k = 0 to n - 1 do
        (* Restore the wave-start payload for this batch. *)
        let off = Packet.payload_offset packet in
        Bytes.blit t.snap 0 packet.Packet.buf off snap_len;
        let cost = State_function.Batch.run (Array.unsafe_get batches k) packet in
        let off' = Packet.payload_offset packet in
        let len' = packet.Packet.len - off' in
        if not (len' = snap_len && region_equal packet.Packet.buf off' t.snap 0 snap_len)
        then begin
          t.aux <- ensure_capacity t.aux len';
          Bytes.blit packet.Packet.buf off' t.aux 0 len';
          merged := true;
          merged_len := len'
        end;
        rev_costs := cost :: !rev_costs
      done;
      let off = Packet.payload_offset packet in
      if !merged then Bytes.blit t.aux 0 packet.Packet.buf off !merged_len
      else Bytes.blit t.snap 0 packet.Packet.buf off snap_len;
      Sb_sim.Cost_profile.Parallel (List.rev !rev_costs)

(* Execute the compiled program in chain position order, accumulating the
   profile items in reverse (the caller conses the egress item and head on
   and reverses once).  A dropping transform is always the last code entry
   (recording stops at the dropping NF), so state recorded upstream of the
   drop still runs. *)
let run_program t code packet =
  let verdict = ref Header_action.Forwarded in
  let rev_items = ref [] in
  for i = 0 to Array.length code - 1 do
    match Array.unsafe_get code i with
    | C_transform { c; cost; incr_ok } ->
        let apply = if incr_ok then Consolidate.apply_incremental else Consolidate.apply in
        (match apply c packet with
        | Header_action.Dropped -> verdict := Header_action.Dropped
        | Header_action.Forwarded -> ());
        rev_items := Sb_sim.Cost_profile.Serial cost :: !rev_items
    | C_wave batches -> rev_items := run_wave_compiled t batches packet :: !rev_items
  done;
  (!verdict, !rev_items)

(* ---- Reference interpreter (the pre-compilation executor) ---- *)

let payload_region packet =
  let off = Packet.payload_offset packet in
  Bytes.sub packet.Packet.buf off (packet.Packet.len - off)

let restore_payload packet saved =
  let off = Packet.payload_offset packet in
  Bytes.blit saved 0 packet.Packet.buf off (Bytes.length saved)

let run_wave_interp batches packet =
  match batches with
  | [] -> Sb_sim.Cost_profile.Serial 0
  | [ batch ] -> Sb_sim.Cost_profile.Serial (State_function.Batch.run batch packet)
  | _ ->
      let snapshot = payload_region packet in
      let merged = ref None in
      let costs =
        List.map
          (fun batch ->
            restore_payload packet snapshot;
            let cost = State_function.Batch.run batch packet in
            let after = payload_region packet in
            if not (Bytes.equal after snapshot) then merged := Some after;
            cost)
          batches
      in
      (match !merged with
      | Some final -> restore_payload packet final
      | None -> restore_payload packet snapshot);
      Sb_sim.Cost_profile.Parallel costs

let run_steps_interp rule packet =
  List.fold_left
    (fun (verdict, rev_items) step ->
      match step with
      | Transform c ->
          let v = Consolidate.apply c packet in
          let verdict =
            match v with Header_action.Dropped -> v | Header_action.Forwarded -> verdict
          in
          (verdict, Sb_sim.Cost_profile.Serial (Consolidate.cost c) :: rev_items)
      | Waves { batches; plan } ->
          let wave_items =
            List.map
              (fun wave ->
                let wave_batches = List.map (fun i -> List.nth batches i) wave in
                run_wave_interp wave_batches packet)
              plan
          in
          (verdict, List.rev_append wave_items rev_items))
    (Header_action.Forwarded, [])
    rule.steps

(* ---- Fast-path entry points ---- *)

(* An Event Table firing is the one fast-path moment a flow's behaviour
   changes; surface it on all three observability pillars.  Only reached
   when an update actually fired, so the unarmed (and the armed-but-quiet)
   fast path never pays for it. *)
let obs_event_rewrite t ~fid ~nf packet =
  let ts_us = Sb_sim.Cycles.to_microseconds packet.Packet.ingress_cycle in
  (match Sb_obs.Sink.metrics t.obs with
  | Some m ->
      Sb_obs.Metrics.Counter.incr
        (Sb_obs.Metrics.counter m ~labels:[ ("nf", nf) ]
           ~help:"Consolidated-rule rewrites applied by Event Table firings"
           "speedybox_event_rewrites_total")
  | None -> ());
  (match Sb_obs.Sink.tracer t.obs with
  | Some tr ->
      Sb_obs.Tracer.record tr ~name:"event-rewrite" ~cat:"event" ~ts_us
        ~dur_us:(Sb_sim.Cycles.to_microseconds Sb_sim.Cycles.event_fire)
        ~tid:fid
        [ ("nf", Sb_obs.Tracer.Str nf) ]
  | None -> ());
  match Sb_obs.Sink.timeline t.obs with
  | Some tl -> Sb_obs.Timeline.record tl ~fid ~ts_us ~detail:nf Sb_obs.Timeline.Event_rewrite
  | None -> ()

(* Apply the fired updates in order and return the cycles they cost,
   re-consolidation included.  A fired event recompiles the flow's program
   in place, so the caller's [rule] is already the updated record. *)
let apply_fired t locals fid packet fired =
  let fire_cycles = ref 0 in
  List.iter
    (fun (u : Event_table.update) ->
      (* An update's closures belong to the registering NF; a raise here is
         that NF's fault and must carry its name out to the supervisor. *)
      try
        Option.iter (fun f -> f ()) u.Event_table.update_fn;
        let local_of_nf () =
          List.find_opt (fun l -> Local_mat.nf_name l = u.Event_table.nf) locals
        in
        Option.iter
          (fun make_actions ->
            Option.iter
              (fun local -> Local_mat.replace_actions local fid (make_actions ()))
              (local_of_nf ()))
          u.Event_table.new_actions;
        Option.iter
          (fun make_sfs ->
            Option.iter
              (fun local -> Local_mat.replace_state_functions local fid (make_sfs ()))
              (local_of_nf ()))
          u.Event_table.new_state_functions;
        fire_cycles := !fire_cycles + Sb_sim.Cycles.event_fire;
        if Sb_obs.Sink.armed t.obs then obs_event_rewrite t ~fid ~nf:u.Event_table.nf packet
      with exn ->
        raise (Sb_fault.Fault.attribute ~nf:u.Event_table.nf ~origin:"event-update" exn))
    fired;
  !fire_cycles + consolidate t fid locals

(* Run a serial program (no multi-batch wave), writing each step's cycles
   to [cycles.(1 + i)] instead of consing profile items. *)
let run_program_serial code packet cycles =
  let verdict = ref Header_action.Forwarded in
  for i = 0 to Array.length code - 1 do
    let cost =
      match Array.unsafe_get code i with
      | C_transform { c; cost; incr_ok } ->
          let v =
            if incr_ok then Consolidate.apply_incremental c packet else Consolidate.apply c packet
          in
          (match v with
          | Header_action.Dropped -> verdict := Header_action.Dropped
          | Header_action.Forwarded -> ());
          cost
      | C_wave [||] -> 0
      | C_wave batches -> State_function.Batch.run (Array.unsafe_get batches 0) packet
    in
    Array.unsafe_set cycles (i + 1) cost
  done;
  !verdict

let rec hash_cycles cycles n i h =
  if i = n then h land max_int
  else hash_cycles cycles n (i + 1) ((h lxor Array.unsafe_get cycles i) * 0x100000001b3)

(* Does [items] read exactly [Serial cycles.(i)], ..., [Serial cycles.(n-1)]? *)
let rec items_match cycles n i = function
  | [] -> i = n
  | Sb_sim.Cost_profile.Serial c :: rest ->
      i < n && Array.unsafe_get cycles i = c && items_match cycles n (i + 1) rest
  | Sb_sim.Cost_profile.Parallel _ :: _ -> false

let rec serial_items cycles i acc =
  if i < 0 then acc
  else serial_items cycles (i - 1) (Sb_sim.Cost_profile.Serial (Array.unsafe_get cycles i) :: acc)

(* The quiet fast-path result for [cycles.(0 .. n-1)] and [verdict]: the
   cached one when an earlier packet produced the same, otherwise a fresh
   one that replaces the slot's occupant.  Results are immutable, so
   sharing one across packets and flows is safe.  A fresh result is
   [shared = false]; the first hit swaps in a [shared] copy, so callers
   that memoise by identity only ever see results that have recurred. *)
let intern_result t cycles n verdict =
  let seed = match verdict with Header_action.Forwarded -> 1 | Header_action.Dropped -> 2 in
  let h = hash_cycles cycles n 0 seed in
  let slot = (h lxor (h lsr 29)) land (intern_slots - 1) in
  let r = Array.unsafe_get t.interned slot in
  if r.verdict = verdict && items_match cycles n 0 r.stage.Sb_sim.Cost_profile.items then
    if r.shared then r
    else begin
      let r = { r with shared = true } in
      Array.unsafe_set t.interned slot r;
      r
    end
  else begin
    let r =
      {
        verdict;
        stage = Sb_sim.Cost_profile.stage gmat_label (serial_items cycles (n - 1) []);
        events_fired = 0;
        shared = false;
      }
    in
    Array.unsafe_set t.interned slot r;
    r
  end

let execute_rule ?egress_item t events locals fid rule packet =
  if rule == no_rule then invalid_arg "Global_mat.execute_rule: no_rule";
  let armed = Event_table.poll_armed events fid in
  let fired = Event_table.last_fired events in
  let event_cycles = armed * Sb_sim.Cycles.event_check in
  let fire_cycles = match fired with [] -> 0 | _ -> apply_fired t locals fid packet fired in
  let events_fired = List.length fired in
  rule.last_use <- tick t;
  Sb_flow.Lru.touch t.lru rule.node;
  let program = rule.program in
  let head = program.static_head + event_cycles + fire_cycles in
  match (t.exec, egress_item) with
  | Compiled, (None | Some (Sb_sim.Cost_profile.Serial _)) when program.serial ->
      let code = program.code in
      let len = Array.length code in
      if Array.length t.cycles < len + 2 then t.cycles <- Array.make (2 * (len + 2)) 0;
      let cycles = t.cycles in
      Array.unsafe_set cycles 0 head;
      let verdict = run_program_serial code packet cycles in
      (* Forwarded packets may pay an egress item (e.g. metadata detach); a
         dropped packet's descriptor is simply released. *)
      let n =
        match (egress_item, verdict) with
        | Some (Sb_sim.Cost_profile.Serial c), Header_action.Forwarded ->
            Array.unsafe_set cycles (len + 1) c;
            len + 2
        | (Some _ | None), _ -> len + 1
      in
      let r = intern_result t cycles n verdict in
      if events_fired = 0 then r else { r with events_fired }
  | (Compiled | Interpreted), _ ->
      (* Multi-batch waves carry [Parallel] items, and the interpreter is the
         reference the compiled path is checked against: both build the
         item list. *)
      let verdict, rev_items =
        match t.exec with
        | Compiled -> run_program t program.code packet
        | Interpreted -> run_steps_interp rule packet
      in
      let rev_items =
        match egress_item with
        | Some item when verdict = Header_action.Forwarded -> item :: rev_items
        | Some _ | None -> rev_items
      in
      {
        verdict;
        stage =
          Sb_sim.Cost_profile.stage gmat_label
            (Sb_sim.Cost_profile.Serial head :: List.rev rev_items);
        events_fired;
        shared = false;
      }

let execute ?egress_item t events locals fid packet =
  match find t fid with
  | None -> None
  | Some rule -> Some (execute_rule ?egress_item t events locals fid rule packet)

let pp_step fmt = function
  | Transform c -> Format.fprintf fmt "T(%a)" Consolidate.pp c
  | Waves { batches; plan } ->
      Format.fprintf fmt "W[%s]%a"
        (String.concat "; " (List.map (Format.asprintf "%a" State_function.Batch.pp) batches))
        Parallel.pp_plan plan

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ") pp_step)
    r.steps
