open Sb_packet

(* The fast path of one flow: a flat instruction array walked in chain
   order.  A [C_transform] is one merged header-action run with its cycle
   cost computed once; a [C_wave] is one wave of state-function batches,
   and consecutive waves form one wave group.  A [C_transform]'s [incr_ok]
   says no Write-mode batch runs before it, so the stored L4 checksum
   still matches the bytes and the RFC 1624 incremental fix-up is
   byte-identical to the full recompute. *)
type cstep = Flow_table.cstep =
  | C_transform of { c : Consolidate.t; cost : int; incr_ok : bool }
  | C_wave of State_function.Batch.t array

(* A rule is its flow's slot value in the flow table: the program, the
   LRU node and the events the recording walk moved in, beside the
   flow's Local MAT records. *)
type rule = Flow_table.flow

let has_rule (r : rule) = r.program != Flow_table.no_program

(* The positional form of a program, for introspection and the reference
   walker.  Consolidation closes a wave group only to emit a transform, so
   every maximal run of consecutive waves is one group. *)
type step = Transform of Consolidate.t | Waves of State_function.Batch.t array list

let steps_of_code code =
  Array.fold_right
    (fun s steps ->
      match (s, steps) with
      | C_wave w, Waves ws :: rest -> Waves (w :: ws) :: rest
      | C_wave w, _ -> Waves [ w ] :: steps
      | C_transform { c; _ }, _ -> Transform c :: steps)
    code []

let waves code = List.concat_map (function Waves ws -> ws | Transform _ -> []) (steps_of_code code)

(* Wave [k] covers the next [Array.length w_k] batch indices. *)
let plan_of_waves ws =
  let _, rev =
    List.fold_left
      (fun (off, acc) w -> (off + Array.length w, List.init (Array.length w) (( + ) off) :: acc))
      (0, []) ws
  in
  List.rev rev

(* The position-insensitive merge of every recorded action: the
   transforms are the merged runs in chain order and identity runs merge
   to nothing, so sequencing the transforms is merging the actions. *)
let rule_action (r : rule) =
  Consolidate.seq
    (List.filter_map
       (function Transform c -> Some c | Waves _ -> None)
       (steps_of_code r.program.code))

let rule_batches (r : rule) = List.concat_map Array.to_list (waves r.program.code)

let rule_plan (r : rule) = plan_of_waves (waves r.program.code)

let transform_count code =
  Array.fold_left (fun n s -> match s with C_transform _ -> n + 1 | C_wave _ -> n) 0 code

let rule_transform_count (r : rule) = transform_count r.program.code

let rule_code (r : rule) = r.program.code

let rule_static_head (r : rule) = r.program.static_head

let rule_reach (r : rule) = r.program.reach

let rule_events (r : rule) = r.events

(* How the fast path executes a consolidated rule: [Compiled] (the flat
   program) is the production path; [Interpreted] rebuilds the positional
   step list from the compiled program and walks it step by step, and
   exists so the differential tests can prove the two produce
   bit-identical outputs. *)
type exec_mode = Compiled | Interpreted

type t = {
  policy : Parallel.policy;
  exec : exec_mode;
  mutable flows : Flow_table.t;  (* its own, or the chain's once [share]d *)
  mutable rules : int;  (* flows holding a program *)
  cap : cap option;
  on_evict : Sb_flow.Fid.t -> unit;
  obs : Sb_obs.Sink.t;
  obs_consolidations : Sb_obs.Metrics.Counter.t option;  (* resolved once *)
  mutable evicted : int;
  mutable consolidations : int;
  (* Grow-only scratch buffers for wave snapshot/merge: reused across
     packets so multi-batch waves allocate nothing per execution. *)
  mutable snap : Bytes.t;
  mutable snap_len : int;
  mutable aux : Bytes.t;
  costs : Sb_sim.Cost_vec.t;
      (* where [execute_rule] writes the GlobalMAT stage: the owning
         runtime's per-packet cost vector *)
  mutable fired : int;  (* events fired by the last [execute_rule] *)
  pass : pass;
}

(* A capped table's bound and the recency order over its rules, O(1)
   touch/evict.  Only eviction reads the order, so an uncapped table
   keeps none. *)
and cap = { max_rules : int; lru : Sb_flow.Lru.t }

(* Scratch state of a consolidation pass, reset by every call.  The code
   and wave buffers grow to the longest program and widest wave seen. *)
and pass = {
  run : Consolidate.run;  (* the header-action run being merged *)
  mutable code : cstep array;
  mutable len : int;
  mutable wave : State_function.Batch.t array;
  mutable width : int;  (* batches in the open wave; 0 when none is open *)
  mutable wave_mode : State_function.payload_mode;
  mutable written : bool;  (* a Write-mode batch precedes the next transform *)
  mutable stopped : bool;  (* a dropping transform ended the program *)
  mutable reached : int;  (* NFs added before the program stopped *)
}

(* Fillers for the pass buffers' unused slots. *)
let no_step = C_wave [||]

(* The answer [lookup] gives on a miss, so per-packet resolution carries
   no option: the flow table's vacant flow, never written.
   [execute_rule] refuses it rather than touch its node. *)
let no_rule = Flow_table.vacant

let no_batch = State_function.Batch.make ~nf:"" []

let create ?(policy = Parallel.Table_one) ?max_rules ?(exec = Compiled)
    ?(on_evict = fun _ -> ()) ?(obs = Sb_obs.Sink.null) ?(costs = Sb_sim.Cost_vec.create ()) () =
  (match max_rules with
  | Some n when n < 1 -> invalid_arg "Global_mat.create: max_rules must be positive"
  | Some _ | None -> ());
  {
    policy;
    exec;
    flows = Flow_table.create ~width:0 ();
    rules = 0;
    cap = Option.map (fun max_rules -> { max_rules; lru = Sb_flow.Lru.create () }) max_rules;
    on_evict;
    obs;
    obs_consolidations =
      Option.map
        (fun m ->
          Sb_obs.Metrics.counter m ~help:"Consolidations performed (initial + event-driven)"
            "speedybox_consolidations_total")
        (Sb_obs.Sink.metrics obs);
    evicted = 0;
    consolidations = 0;
    snap = Bytes.create 256;
    snap_len = 0;
    aux = Bytes.create 256;
    costs;
    fired = 0;
    pass =
      {
        run = Consolidate.run ();
        code = Array.make 8 no_step;
        len = 0;
        wave = Array.make 4 no_batch;
        width = 0;
        wave_mode = State_function.Ignore;
        written = false;
        stopped = false;
        reached = 0;
      };
  }

let evictions t = t.evicted

let flows t = t.flows

let share t locals =
  match locals with
  | [] -> ()
  | l :: rest ->
      let flows = Local_mat.table l in
      if List.exists (fun l -> Local_mat.table l != flows) rest then
        invalid_arg "Global_mat.share: the Local MATs keep separate tables";
      if Flow_table.length t.flows > 0 || Flow_table.length flows > 0 then
        invalid_arg "Global_mat.share: a table already holds flows";
      t.flows <- flows

(* The rule in slot [s] gives up its program and its place in the recency
   order, before the flow table releases the husk. *)
let unrule t s =
  let r = Flow_table.flow_at t.flows s in
  if has_rule r then begin
    (match t.cap with Some c -> Sb_flow.Lru.remove c.lru r.node | None -> ());
    t.rules <- t.rules - 1
  end

let remove_at t s =
  unrule t s;
  Flow_table.remove_at t.flows s

let remove_flow t fid =
  let s = Flow_table.find_slot t.flows fid in
  if s >= 0 then remove_at t s

let drop_rule t fid =
  let s = Flow_table.find_slot t.flows fid in
  if s >= 0 then begin
    unrule t s;
    Flow_table.vacate_at t.flows s
  end

(* Make room for one rule when the table sits at its cap: the flow at the
   cold end of the recency list loses its rule and records, and the owner
   hears of it.  Its liveness stays, so idle expiry still reclaims the
   NFs' state for it. *)
let evict_lru t lru =
  match Sb_flow.Lru.pop_coldest lru with
  | None -> ()
  | Some fid ->
      let s = Flow_table.find_slot t.flows fid in
      if s >= 0 then begin
        t.rules <- t.rules - 1;
        Flow_table.vacate_at t.flows s
      end;
      t.evicted <- t.evicted + 1;
      t.on_evict fid

let touch t (r : rule) = match t.cap with Some c -> Sb_flow.Lru.touch c.lru r.node | None -> ()

(* Install [program] in the flow's husk, making room under the cap for a
   flow that held no rule. *)
let install t fid program =
  let r = Flow_table.flow_for t.flows fid in
  if has_rule r then touch t r
  else begin
    (match t.cap with
    | Some c ->
        if t.rules >= c.max_rules then evict_lru t c.lru;
        r.node <- Sb_flow.Lru.add c.lru fid
    | None -> ());
    t.rules <- t.rules + 1
  end;
  r.program <- program;
  r

(* ---- Consolidation: one pass over the Local MAT records ----

   Contiguous header-action runs merge into one transform each; the
   state-function batches between non-identity transforms form one wave
   group (within one NF, header actions precede its state functions),
   split into waves by the greedy Table I rule as each batch arrives.
   Identity transforms are elided so forward-only NFs do not break batch
   adjacency.  A [Forward] costs nothing; a program allocates its
   transforms, its wave arrays and the final copy of the code buffer. *)

let grown buf filler =
  let b = Array.make (2 * Array.length buf) filler in
  Array.blit buf 0 b 0 (Array.length buf);
  b

let emit p step =
  if p.len = Array.length p.code then p.code <- grown p.code no_step;
  Array.unsafe_set p.code p.len step;
  p.len <- p.len + 1

let close_wave p =
  if p.width > 0 then begin
    emit p (C_wave (Array.sub p.wave 0 p.width));
    Array.fill p.wave 0 p.width no_batch;
    p.width <- 0
  end

(* Once a drop transform lands, everything positioned after it is dead
   code: the original path never reaches those NFs (this matters when an
   event rewrites an upstream NF's action to drop). *)
let close_run p =
  let c = Consolidate.cut p.run in
  if c != Consolidate.forward then begin
    close_wave p;
    emit p (C_transform { c; cost = Consolidate.cost c; incr_ok = not p.written });
    if Consolidate.is_drop c then p.stopped <- true
  end

let add_batch policy p (b : State_function.Batch.t) =
  close_run p;
  let mode = State_function.Batch.mode b in
  if p.width > 0 && Parallel.joins policy p.wave_mode mode then
    p.wave_mode <- Parallel.join_mode p.wave_mode mode
  else begin
    close_wave p;
    p.wave_mode <- mode
  end;
  if p.width = Array.length p.wave then p.wave <- grown p.wave no_batch;
  Array.unsafe_set p.wave p.width b;
  p.width <- p.width + 1;
  if mode = State_function.Write then p.written <- true

let rec add_actions run r i =
  if i < Local_mat.action_count r then begin
    Consolidate.add run (Local_mat.action r i);
    add_actions run r (i + 1)
  end

(* Returns the number of source actions, dead code after a drop included. *)
let rec add_nfs policy p fid n = function
  | [] -> n
  | local :: rest ->
      let r = Local_mat.lookup local fid in
      if not p.stopped then begin
        p.reached <- p.reached + 1;
        add_actions p.run r 0;
        (* HAs precede SFs within an NF, so a drop in this NF's own
           actions also silences its batch. *)
        if Consolidate.run_drops p.run then close_run p;
        if not p.stopped then
          match Local_mat.rule_state_functions r with
          | [] -> ()
          | sfs -> add_batch policy p (State_function.Batch.make ~nf:(Local_mat.nf_name local) sfs)
      end;
      add_nfs policy p fid (n + Local_mat.action_count r) rest

let consolidate ?events t fid locals =
  let p = t.pass in
  Consolidate.reset p.run;
  p.len <- 0;
  p.width <- 0;
  p.written <- false;
  p.stopped <- false;
  p.reached <- 0;
  let n_source_actions = add_nfs t.policy p fid 0 locals in
  if not p.stopped then close_run p;
  close_wave p;
  let code = Array.sub p.code 0 p.len in
  Array.fill p.code 0 p.len no_step;
  let program =
    {
      Flow_table.code;
      static_head =
        (Sb_sim.Cycles.fast_path_lookup
        + (n_source_actions * Sb_sim.Cycles.fast_path_per_action)
        (* Rules with no surviving transform still do one base forward. *)
        + if transform_count code = 0 then Sb_sim.Cycles.ha_forward else 0);
      reach = p.reached;
    }
  in
  (* A re-consolidation (event fire, repeated recording) updates the
     rule in place, so an executor holding it sees the fresh program
     without a second table lookup. *)
  let r = install t fid program in
  (match events with
  | Some events -> (
      match Event_table.take events fid with
      | [] -> ()
      | taken -> r.events <- r.events @ taken)
  | None -> ());
  t.consolidations <- t.consolidations + 1;
  (match t.obs_consolidations with
  | Some c -> Sb_obs.Metrics.Counter.incr c
  | None -> ());
  List.length locals * Sb_sim.Cycles.global_consolidate_per_nf

let rule_at t s =
  let r = Flow_table.flow_at t.flows s in
  if has_rule r then r else no_rule

let lookup t fid =
  let s = Flow_table.find_slot t.flows fid in
  if s < 0 then no_rule else rule_at t s

let find t fid =
  let r = lookup t fid in
  if r == no_rule then None else Some r

(* Burst-prescan hint: start the line fills for the fid's probe while the
   prescan still has the rest of the burst to chew on. *)
let prefetch t fid ~live = Flow_table.prefetch t.flows fid ~live

let mem t fid = lookup t fid != no_rule

(* Flow-migration handoff: install a copy of a rule exported from another
   table.  The source record's intrusive LRU node belongs to the source
   table's recency list, so adoption binds this table's own husk (and
   node) and leaves the source untouched — the caller tears the source
   binding down afterwards.  Programs are immutable, so the copy shares
   the source's. *)
let adopt t fid (src : rule) = (install t fid src.program).events <- []

let clear t =
  Flow_table.clear t.flows;
  t.rules <- 0;
  Option.iter (fun c -> Sb_flow.Lru.clear c.lru) t.cap

let flow_count t = t.rules

let fold f t init =
  Flow_table.fold (fun fid r acc -> if has_rule r then f fid r acc else acc) t.flows init

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
  fold
    (fun _ (rule : rule) () ->
      let overall = rule_action rule in
      Hashtbl.replace keys (Format.asprintf "%a" Consolidate.pp overall) ();
      field_writes := !field_writes + List.length overall.Consolidate.sets;
      List.iter (fun w -> batches := !batches + Array.length w) (waves rule.program.code))
    t ();
  {
    rules = t.rules;
    distinct_actions = Hashtbl.length keys;
    field_writes = !field_writes;
    batches = !batches;
  }

(* ---- Compiled wave execution (zero-allocation snapshot/merge) ---- *)

(* A top-level loop: a local [go] closing over the five arguments would
   be a heap closure per call, and this runs per batch of every wave. *)
let rec region_equal_from a aoff b boff len i =
  i >= len
  || Bytes.unsafe_get a (aoff + i) = Bytes.unsafe_get b (boff + i)
     && region_equal_from a aoff b boff len (i + 1)

let region_equal a aoff b boff len = region_equal_from a aoff b boff len 0

let ensure_capacity buf len =
  if Bytes.length buf >= len then buf else Bytes.create (max len (2 * Bytes.length buf))

(* Run one wave of batches with snapshot semantics: each batch sees the
   payload as of wave start; payload writes merge back, later batches
   winning, which is a deterministic model of the race parallel cores
   would exhibit.  The snapshot and the merge candidate live in [t]'s
   grow-only scratch buffers, and the wave's cost item goes straight into
   the cost vector, so steady-state execution allocates nothing. *)
let run_wave_compiled t batches packet =
  match Array.length batches with
  | 0 -> Sb_sim.Cost_vec.serial t.costs 0
  | 1 -> Sb_sim.Cost_vec.serial t.costs (State_function.Batch.run batches.(0) packet)
  | n ->
      Sb_sim.Cost_vec.parallel t.costs n;
      let off = Packet.payload_offset packet in
      let snap_len = packet.Packet.len - off in
      t.snap <- ensure_capacity t.snap snap_len;
      t.snap_len <- snap_len;
      Bytes.blit packet.Packet.buf off t.snap 0 snap_len;
      let merged = ref false in
      let merged_len = ref 0 in
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
        Sb_sim.Cost_vec.cost t.costs cost
      done;
      let off = Packet.payload_offset packet in
      if !merged then Bytes.blit t.aux 0 packet.Packet.buf off !merged_len
      else Bytes.blit t.snap 0 packet.Packet.buf off snap_len

(* Execute the compiled program in chain position order, writing one cost
   item per step.  A dropping transform is always the last code entry
   (recording stops at the dropping NF), so state recorded upstream of the
   drop still runs. *)
let run_program t code packet =
  let verdict = ref Header_action.Forwarded in
  for i = 0 to Array.length code - 1 do
    match Array.unsafe_get code i with
    | C_transform { c; cost; incr_ok } ->
        let v =
          if incr_ok then Consolidate.apply_incremental c packet else Consolidate.apply c packet
        in
        (match v with
        | Header_action.Dropped -> verdict := Header_action.Dropped
        | Header_action.Forwarded -> ());
        Sb_sim.Cost_vec.serial t.costs cost
    | C_wave batches -> run_wave_compiled t batches packet
  done;
  !verdict

(* ---- Reference interpreter (the step list rebuilt from the program) ---- *)

let payload_region packet =
  let off = Packet.payload_offset packet in
  Bytes.sub packet.Packet.buf off (packet.Packet.len - off)

let restore_payload packet saved =
  let off = Packet.payload_offset packet in
  Bytes.blit saved 0 packet.Packet.buf off (Bytes.length saved)

let run_wave_interp t batches packet =
  match batches with
  | [] -> Sb_sim.Cost_vec.serial t.costs 0
  | [ batch ] -> Sb_sim.Cost_vec.serial t.costs (State_function.Batch.run batch packet)
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
      Sb_sim.Cost_vec.parallel t.costs (List.length costs);
      List.iter (Sb_sim.Cost_vec.cost t.costs) costs

let run_steps_interp t (rule : rule) packet =
  List.fold_left
    (fun verdict step ->
      match step with
      | Transform c ->
          let v = Consolidate.apply c packet in
          Sb_sim.Cost_vec.serial t.costs (Consolidate.cost c);
          (match v with Header_action.Dropped -> v | Header_action.Forwarded -> verdict)
      | Waves ws ->
          List.iter (fun w -> run_wave_interp t (Array.to_list w) packet) ws;
          verdict)
    Header_action.Forwarded
    (steps_of_code rule.program.code)

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
        (match List.find_opt (fun l -> Local_mat.nf_name l = u.Event_table.nf) locals with
        | Some local ->
            Option.iter (fun f -> Local_mat.replace_actions local fid (f ())) u.new_actions;
            Option.iter
              (fun f -> Local_mat.replace_state_functions local fid (f ()))
              u.new_state_functions
        | None -> ());
        fire_cycles := !fire_cycles + Sb_sim.Cycles.event_fire;
        if Sb_obs.Sink.armed t.obs then obs_event_rewrite t ~fid ~nf:u.Event_table.nf packet
      with exn ->
        raise (Sb_fault.Fault.attribute ~nf:u.Event_table.nf ~origin:"event-update" exn))
    fired;
  !fire_cycles + consolidate t fid locals

let execute_rule ?egress t events locals fid (rule : rule) packet =
  if rule == no_rule then invalid_arg "Global_mat.execute_rule: no_rule";
  (* The rule's own events: no table probe, and none at all for a flow
     that registered none.  Nothing fires unless one is armed. *)
  let armed = match rule.events with [] -> 0 | evs -> Event_table.poll events evs in
  let fired = if armed = 0 then [] else Event_table.last_fired events in
  let fire_cycles = match fired with [] -> 0 | _ -> apply_fired t locals fid packet fired in
  t.fired <- List.length fired;
  let event_cycles = armed * Sb_sim.Cycles.event_check in
  touch t rule;
  let program = rule.program in
  Sb_sim.Cost_vec.rewind t.costs;
  Sb_sim.Cost_vec.stage t.costs Sb_sim.Cost_vec.global_mat;
  Sb_sim.Cost_vec.serial t.costs (program.static_head + event_cycles + fire_cycles);
  let verdict =
    match t.exec with
    | Compiled -> run_program t program.code packet
    | Interpreted -> run_steps_interp t rule packet
  in
  (* Forwarded packets may pay an egress item (e.g. metadata detach); a
     dropped packet's descriptor is simply released. *)
  (match (egress, verdict) with
  | Some c, Header_action.Forwarded -> Sb_sim.Cost_vec.serial t.costs c
  | (Some _ | None), _ -> ());
  verdict

let events_fired t = t.fired

let costs t = t.costs

let execute ?egress t events locals fid packet =
  match find t fid with
  | None -> None
  | Some rule ->
      Sb_sim.Cost_vec.reset t.costs;
      Some (execute_rule ?egress t events locals fid rule packet)

let pp_step fmt = function
  | Transform c -> Format.fprintf fmt "T(%a)" Consolidate.pp c
  | Waves ws ->
      let batches = List.concat_map Array.to_list ws in
      Format.fprintf fmt "W[%s]%a"
        (String.concat "; " (List.map (Format.asprintf "%a" State_function.Batch.pp) batches))
        Parallel.pp_plan (plan_of_waves ws)

let pp_rule fmt (r : rule) =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ") pp_step)
    (steps_of_code r.program.code)
