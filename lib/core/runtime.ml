type mode = Original | Speedybox

type config = {
  platform : Sb_sim.Platform.t;
  mode : mode;
  policy : Sb_mat.Parallel.policy;
  fid_bits : int;
  idle_timeout_cycles : int option;
  max_rules : int option;
  fault_policy : Sb_fault.Health.policy;
  injector : Sb_fault.Injector.t option;
  obs : Sb_obs.Sink.t;
  verify_checksums : bool;
  state : Sb_state.Store.t;
      (* the chain's declared-cell state store; shared across shard
         runtimes in a sharded deployment, private otherwise *)
}

let config ?(platform = Sb_sim.Platform.Bess) ?(mode = Speedybox)
    ?(policy = Sb_mat.Parallel.Table_one) ?(fid_bits = Sb_flow.Fid.default_bits)
    ?idle_timeout_cycles ?max_rules ?(fault_policy = Sb_fault.Health.default_policy) ?injector
    ?(obs = Sb_obs.Sink.null) ?(verify_checksums = false) ?state () =
  let state =
    match state with Some s -> s | None -> Sb_state.Store.create ~shards:1 ()
  in
  {
    platform;
    mode;
    policy;
    fid_bits;
    idle_timeout_cycles;
    max_rules;
    fault_policy;
    injector;
    obs;
    verify_checksums;
    state;
  }

(* Hot-path metric instruments, resolved against the registry once at
   construction so per-packet recording is field updates only — the
   registry's hashtable is never touched while packets flow. *)
type instruments = {
  c_slow : Sb_obs.Metrics.Counter.t;
  c_fast : Sb_obs.Metrics.Counter.t;
  c_forwarded : Sb_obs.Metrics.Counter.t;
  c_dropped : Sb_obs.Metrics.Counter.t;
  h_latency_slow : Sb_obs.Histogram.t;
  h_latency_fast : Sb_obs.Histogram.t;
  h_sojourn : Sb_obs.Histogram.t option;
      (* per-shard end-to-end sojourn, resolved only when the sink is a
         split child (carries a shard index) *)
}

type path = Slow_path | Fast_path | Rejected

type output = {
  verdict : Sb_mat.Header_action.verdict;
  packet : Sb_packet.Packet.t;
  profile : Sb_sim.Cost_profile.t;
  path : path;
  latency_cycles : int;
  service_cycles : int;
  events_fired : int;
  faults : int;
}

type t = {
  cfg : config;
  chain : Chain.t;
  global : Sb_mat.Global_mat.t;
  classifier : Classifier.t;
  sup : Sb_fault.Supervisor.t;
  ctx : Api.nf_context;  (* the NFs' one context, rewritten before each call *)
  walk_events : Sb_mat.Event_table.t option;
      (* [Some] the chain's Event Table, built once: consolidation's
         optional argument would otherwise box one per recording walk *)
  nfs : Nf.t array;
  mats : Sb_mat.Local_mat.t array;  (* same order as [nfs] *)
  nf_names : string array;
  flows : Sb_mat.Flow_table.t;
      (* the Global MAT's table, shared with the chain's Local MATs: a
         flow's liveness cells, rule and records in one slot *)
  wheel : Sb_flow.Timer_wheel.t option;  (* Some iff idle expiry is on *)
  mutable expired : int;
  mutable cut : int;  (* Original mode's frames cut short of their headers *)
  mutable live_epoch : int;
      (* next incarnation tag for a flow's liveness; 0 marks none *)
  ins : instruments option;  (* Some iff cfg.obs carries a metrics registry *)
  mutable obs_now_us : float;  (* simulated clock for hooks without a packet
                                  in hand (the LRU-eviction callback) *)
  mutable cls_scratch : Classifier.classification array;
      (* per-burst classification scratch, grown to the largest burst seen *)
  costs : Sb_sim.Cost_vec.t;
      (* the packet in flight's costs, stage by stage (label ids from
         [Cost_vec.labels] over [nf_names]); every path writes here and
         [finish] interns the result *)
  profiles : Sb_sim.Cost_vec.intern;
  (* What the last stage function left besides its verdict. *)
  mutable faults : int;  (* charged to the packet so far *)
  mutable contained : bool;  (* it quarantined, or the caller must *)
  mutable corrupts : int;  (* the fast path's injector draws, by kind *)
  mutable stalls : int;
  mutable raised : int;  (* the first NF drawn to raise, or -1 *)
  (* [process_packet]'s burst of one: the packet slot, and the emit that
     stores the packet's output, both built once. *)
  one : Sb_packet.Packet.t array;
  one_out : output ref;
  one_emit : int -> output -> unit;
}

(* A Failed NF invalidates every consolidated rule embedding its closures:
   tear the whole fast path down (flows re-record under the failure
   policy).  Local MAT records and events go with each rule so no stale
   per-NF state survives the failure; liveness stays. *)
let on_transition t = function
  | Sb_fault.Health.To_failed ->
      Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) t.global []
      |> List.iter (fun fid ->
             Chain.remove_flow t.chain fid;
             Sb_mat.Global_mat.drop_rule t.global fid)
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ()

(* Charges a fault to [nf]. *)
let note_fault t ~nf = on_transition t (Sb_fault.Supervisor.record_fault t.sup ~nf)

(* [note_fault] for a contained raise whose packet is dropped. *)
let contain t ~nf =
  note_fault t ~nf;
  Sb_fault.Supervisor.record_contained t.sup;
  Sb_fault.Supervisor.record_faulted_packet t.sup

(* Another shard sharing this runtime's health table failed an NF since
   this runtime last looked: flush as if the failure were its own. *)
let sync_health t =
  if Sb_fault.Supervisor.sync t.sup then on_transition t Sb_fault.Health.To_failed

(* Where a fault no chain NF can be charged with is recorded. *)
let unattributed = "GlobalMAT"

(* Flow-timeline hook.  Callers on the per-packet path guard with
   [Sb_obs.Sink.armed] first; every call site is on the slow path or a
   rare-event path, so the unarmed fast path never reaches here. *)
let obs_timeline t ~fid ~ts_us ?detail kind =
  if fid >= 0 then
    match Sb_obs.Sink.timeline t.cfg.obs with
    | Some tl -> Sb_obs.Timeline.record tl ~fid ~ts_us ?detail kind
    | None -> ()

let create cfg chain =
  (match Sb_sim.Platform.max_chain_length cfg.platform with
  | Some limit when Chain.length chain > limit ->
      invalid_arg
        (Printf.sprintf "Runtime.create: %s supports at most %d NFs (chain %s has %d)"
           (Sb_sim.Platform.name cfg.platform)
           limit (Chain.name chain) (Chain.length chain))
  | Some _ | None -> ());
  (* The eviction callback is built before [t] exists but must reach the
     timeline with the current simulated clock; the cell is pointed at the
     real hook once [t] is constructed. *)
  let evict_hook = ref (fun (_ : Sb_flow.Fid.t) -> ()) in
  let ins =
    match Sb_obs.Sink.metrics cfg.obs with
    | None -> None
    | Some m ->
        let chain_label = ("chain", Chain.name chain) in
        let packets path =
          Sb_obs.Metrics.counter m
            ~help:"Packets processed, by execution path"
            ~labels:[ chain_label; ("path", path) ]
            "speedybox_packets_total"
        in
        let verdicts v =
          Sb_obs.Metrics.counter m
            ~help:"Packet verdicts leaving the chain"
            ~labels:[ chain_label; ("verdict", v) ]
            "speedybox_verdicts_total"
        in
        let latency path =
          Sb_obs.Metrics.histogram m
            ~help:"Per-packet processing latency in microseconds"
            ~labels:[ chain_label; ("path", path) ]
            "speedybox_packet_latency_us"
        in
        let sojourn =
          (* Only a split child sink carries a shard index: per-shard
             sojourn series exist exactly when the run is sharded. *)
          match Sb_obs.Sink.shard cfg.obs with
          | s when s < 0 -> None
          | s ->
              Some
                (Sb_obs.Metrics.histogram m
                   ~help:"Per-packet sojourn on this shard in microseconds"
                   ~labels:[ chain_label; ("shard", string_of_int s) ]
                   "speedybox_shard_sojourn_us")
        in
        Some
          {
            c_slow = packets "slow";
            c_fast = packets "fast";
            c_forwarded = verdicts "forwarded";
            c_dropped = verdicts "dropped";
            h_latency_slow = latency "slow";
            h_latency_fast = latency "fast";
            h_sojourn = sojourn;
          }
  in
  let nf_names = Array.of_list (List.map (fun nf -> nf.Nf.name) (Chain.nfs chain)) in
  let costs = Sb_sim.Cost_vec.create () in
  let global =
    Sb_mat.Global_mat.create ~policy:cfg.policy ?max_rules:cfg.max_rules ~obs:cfg.obs ~costs
      (* an LRU-evicted flow loses its Local MAT records with its rule, so
         its next packet re-records from scratch *)
      ~on_evict:(fun fid ->
        Chain.remove_flow chain fid;
        !evict_hook fid)
      (* the one table the chain's Local MATs record into *)
      (Sb_mat.Local_mat.table (List.hd (Chain.local_mats chain)))
  in
  let sup =
    Sb_fault.Supervisor.create ?injector:cfg.injector ~obs:cfg.obs
      (Sb_fault.Health.create cfg.fault_policy (unattributed :: Array.to_list nf_names))
  in
  let one = [| Sb_packet.Packet.scratch () |] in
  let one_out =
    ref
      {
        verdict = Sb_mat.Header_action.Forwarded;
        packet = one.(0);
        profile = [];
        path = Slow_path;
        latency_cycles = 0;
        service_cycles = 0;
        events_fired = 0;
        faults = 0;
      }
  in
  let t =
    {
      cfg;
      chain;
      global;
      classifier =
        Classifier.create ~fid_bits:cfg.fid_bits ~verify_checksums:cfg.verify_checksums ();
      sup;
      ctx =
        {
          Api.fid = -1;
          local_mat = List.hd (Chain.local_mats chain);
          events = Chain.events chain;
          recording = false;
        };
      walk_events = Some (Chain.events chain);
      nfs = Array.of_list (Chain.nfs chain);
      mats = Array.of_list (Chain.local_mats chain);
      nf_names;
      flows = Sb_mat.Global_mat.flows global;
      wheel =
        (match cfg.idle_timeout_cycles with
        | None -> None
        | Some timeout ->
            Some
              (Sb_flow.Timer_wheel.create
                 ~tick_shift:(Sb_flow.Timer_wheel.tick_shift_for_timeout timeout)));
      expired = 0;
      cut = 0;
      live_epoch = 1;
      ins;
      obs_now_us = 0.;
      cls_scratch = [||];
      costs;
      profiles = Sb_sim.Cost_vec.intern_create cfg.platform (Sb_sim.Cost_vec.labels nf_names);
      faults = 0;
      contained = false;
      corrupts = 0;
      stalls = 0;
      raised = -1;
      one;
      one_out;
      one_emit = (fun _ out -> one_out := out);
    }
  in
  (* Raising event conditions are contained inside the Event Table; route
     them here so they still advance the registering NF's health. *)
  Sb_mat.Event_table.set_fault_hook (Chain.events chain) (fun nf _exn ->
      Sb_fault.Supervisor.record_contained sup;
      note_fault t ~nf);
  (* Consolidated flows keep their events in their rules. *)
  Sb_mat.Event_table.set_residents (Chain.events chain) (fun f acc ->
      Sb_mat.Global_mat.fold
        (fun fid rule acc -> f fid (Sb_mat.Global_mat.rule_events rule) acc)
        global acc);
  if Sb_obs.Sink.armed cfg.obs then begin
    Sb_mat.Event_table.set_obs (Chain.events chain) cfg.obs;
    evict_hook := fun fid -> obs_timeline t ~fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Evicted
  end;
  t

let chain t = t.chain

let state t = t.cfg.state

let global_mat t = t.global

let classifier t = t.classifier

let supervisor t = t.sup

let expired_flows t = t.expired

let rejected_malformed t = Classifier.rejected t.classifier + t.cut

let flip_verdict = function
  | Sb_mat.Header_action.Forwarded -> Sb_mat.Header_action.Dropped
  | Sb_mat.Header_action.Dropped -> Sb_mat.Header_action.Forwarded

(* The output for the costs in [t.costs]: the interned profile and its
   platform figures, shared with every earlier packet that cost the same. *)
let finish t verdict packet path events_fired faults =
  let e = Sb_sim.Cost_vec.intern t.profiles t.costs in
  {
    verdict;
    packet;
    profile = e.Sb_sim.Cost_vec.profile;
    path;
    latency_cycles = e.Sb_sim.Cost_vec.latency;
    service_cycles = e.Sb_sim.Cost_vec.service;
    events_fired;
    faults;
  }

(* The flow leaves: its slot (rule, records, liveness) in one probe, its
   in-flight events and its conntrack entry.  Any timer-wheel entry for
   the flow dangles until it fires, where its stale epoch identifies it as
   dead — O(1) now beats finding it in its slot. *)
let cleanup t cls =
  Sb_mat.Global_mat.remove_flow t.global cls.Classifier.fid;
  Chain.remove_flow t.chain cls.Classifier.fid;
  Classifier.forget_flow t.classifier cls

(* The flow in slot [s] expired.  Conntrack and the NFs' hooks forget it
   by the packed ingress tuple its liveness cells hold, and no tuple is
   built.  [detail] says which check found the flow idle. *)
let expire_at t fid s now ~detail =
  let k1 = Sb_mat.Flow_table.pack1_at t.flows s and k2 = Sb_mat.Flow_table.pack2_at t.flows s in
  Sb_mat.Global_mat.remove_at t.global s;
  Chain.expire_flow t.chain fid k1 k2;
  Classifier.forget_packed t.classifier k1 k2;
  t.expired <- t.expired + 1;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now) ~detail
      Sb_obs.Timeline.Idle_expired

(* Idle expiry: evict flows whose last packet arrived more than the
   configured timeout ago (arrival clock = packet ingress timestamps).
   Each tracked flow arms a one-shot timer-wheel entry; a packet for a
   live flow only rewrites [last_seen] (no wheel operation), and a firing
   timer either expires the flow or lazily re-arms at [last_seen +
   timeout].  Advancing past quiet stretches is O(ticks), not O(flows), so
   the cost stays flat at a million tracked flows.  A firing checks the
   epoch in the slot it then removes: one probe. *)
let expire_idle_flows t wheel timeout now =
  Sb_flow.Timer_wheel.advance wheel ~now (fun fid stamp ->
      let flows = t.flows in
      let s = Sb_mat.Flow_table.find_slot flows fid in
      if s >= 0 && Sb_mat.Flow_table.epoch_at flows s = stamp then begin
        let last_seen = Sb_mat.Flow_table.last_seen_at flows s in
        if now - last_seen > timeout then begin
          expire_at t fid s now ~detail:"idle timer";
          Sb_flow.Timer_wheel.Expire
        end
        else Sb_flow.Timer_wheel.Rearm (last_seen + timeout)
      end
      else
        (* A stale incarnation: the flow was cleaned up (and possibly
           re-recorded with a fresh stamp) since this timer was armed. *)
        Sb_flow.Timer_wheel.Expire)

(* Start tracking the flow in slot [s], which has no liveness yet. *)
let record_arrival t wheel timeout cls now s =
  let epoch = t.live_epoch in
  t.live_epoch <- epoch + 1;
  Sb_mat.Flow_table.set_live t.flows s ~last_seen:now ~epoch ~pack1:cls.Classifier.pack1
    ~pack2:cls.Classifier.pack2;
  Sb_flow.Timer_wheel.add wheel ~key:cls.Classifier.fid ~stamp:epoch ~deadline:(now + timeout)

(* The idle-expiry touch, which returns the flow's rule from the slot it
   claimed: one probe for both. *)
let touch t wheel timeout cls now =
  (* Fire due timers first: if the arriving flow itself idled out, the
     wheel tears it down here and the packet re-records below like a
     fresh flow.  Most arrivals share the previous one's tick, where
     advancing is a no-op: skip it and the callback it would build. *)
  if Sb_flow.Timer_wheel.behind wheel ~now then expire_idle_flows t wheel timeout now;
  let flows = t.flows and fid = cls.Classifier.fid in
  let s = Sb_mat.Flow_table.claim flows fid in
  if Sb_mat.Flow_table.epoch_at flows s = 0 then begin
    (* New here, or holding only an adopted rule. *)
    record_arrival t wheel timeout cls now s;
    Sb_mat.Global_mat.rule_at t.global s
  end
  else if now - Sb_mat.Flow_table.last_seen_at flows s > timeout then begin
    (* Only reachable when arrivals outrun the wheel's tick
       quantisation: treat exactly like a wheel-fired expiry. *)
    expire_at t fid s now ~detail:"expired on arrival";
    record_arrival t wheel timeout cls now (Sb_mat.Flow_table.claim flows fid);
    Sb_mat.Global_mat.no_rule
  end
  else begin
    Sb_mat.Flow_table.set_last_seen_at flows s now;
    Sb_mat.Global_mat.rule_at t.global s
  end

(* Quarantine after a contained fault: the flow's consolidated state
   (Global MAT rule, Local MAT records, events, classifier mapping) goes,
   so its next packet re-records from scratch — or runs Original when
   recording is no longer allowed. *)
let quarantine_flow t cls ~detail ~now =
  cleanup t cls;
  Sb_fault.Supervisor.record_quarantine t.sup;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid:cls.Classifier.fid ~ts_us:(Sb_sim.Cycles.to_microseconds now) ~detail
      Sb_obs.Timeline.Quarantined

(* ---- Stages ----

   One packet's semantics, as the functions both executors run: the burst
   loop below calls them back to back, and [Staged_runtime] calls each
   from the pipeline stage that serves it.  Each writes its stage to
   [t.costs] after a mark, so [charged] reads what the last one cost, and
   leaves in [t.contained] whether it dropped the packet for a fault. *)

type classification = Classifier.classification

let classification = Classifier.scratch

let charged t = Sb_sim.Cost_vec.cycles_since_mark t.costs

let contained t = t.contained

(* Admission, phase one: a pure function of the packet bytes (tuple, one
   FNV hash, FID) that issues prefetch hints for the two tables the
   packet will probe — conntrack and the flow slot, whose liveness cells
   only idle expiry reads.  It reads no table. *)
let prepare t packet cls =
  Classifier.prepare_into t.classifier packet cls;
  if not cls.Classifier.malformed then
    Sb_mat.Global_mat.prefetch t.global cls.Classifier.fid ~live:(Option.is_some t.wheel)

(* Admission, phase two, per packet in order: conntrack observe, the
   idle-expiry touch and the Global MAT lookup, charged as the Classifier
   stage.  [Global_mat.no_rule] sends the packet down the slow path.  A
   malformed packet (no 5-tuple, or stale checksums under
   [verify_checksums]) never touches conntrack or the liveness tables:
   the caller drops it. *)
let admit t packet cls =
  let rule =
    if cls.Classifier.malformed then Sb_mat.Global_mat.no_rule
    else begin
      Classifier.observe_into t.classifier packet cls;
      match (t.cfg.idle_timeout_cycles, t.wheel) with
      | Some timeout, Some wheel -> touch t wheel timeout cls packet.Sb_packet.Packet.ingress_cycle
      | None, _ | _, None -> Sb_mat.Global_mat.lookup t.global cls.Classifier.fid
    end
  in
  Sb_sim.Cost_vec.reset t.costs;
  Sb_sim.Cost_vec.serial_stage t.costs Sb_sim.Cost_vec.classifier cls.Classifier.cycles;
  rule

(* The start of a slow-path walk: whether it records.  The flow's
   establishing packet records — unless an NF opted out of consolidation
   (§IV-A3) or the fault layer no longer trusts the chain (a Degraded NF,
   or a Failed one pinned to the slow path), in which case no fast path is
   built. *)
let start_walk t packet cls =
  if Sb_obs.Sink.armed t.cfg.obs then begin
    (* Keep the hook clock current before consolidation can LRU-evict. *)
    t.obs_now_us <- Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle;
    match Sb_obs.Sink.timeline t.cfg.obs with
    | Some tl when not (Sb_obs.Timeline.known tl cls.Classifier.fid) ->
        obs_timeline t ~fid:cls.Classifier.fid ~ts_us:t.obs_now_us ~detail:(Chain.name t.chain)
          Sb_obs.Timeline.First_packet
    | Some _ | None -> ()
  end;
  cls.Classifier.established && Chain.consolidable t.chain
  && ((not (Sb_fault.Supervisor.active t.sup))
     || Sb_fault.Supervisor.allow_recording t.sup t.nf_names)

let charge t i cycles =
  Sb_sim.Cost_vec.mark t.costs;
  Sb_sim.Cost_vec.serial_stage t.costs (Sb_sim.Cost_vec.nf i) cycles

(* A raise (injected or organic) in the NF's call: the fault is the NF's,
   the packet drops and the caller quarantines the flow. *)
let contained_raise t i name overhead =
  contain t ~nf:name;
  t.faults <- t.faults + 1;
  t.contained <- true;
  charge t i (overhead + Sb_sim.Cycles.fault_contain);
  Sb_mat.Header_action.Dropped

(* The one context, pointed at this call's flow and NF. *)
let context t ~fid ~local_mat ~recording =
  let ctx = t.ctx in
  ctx.Api.fid <- fid;
  ctx.Api.local_mat <- local_mat;
  ctx.Api.recording <- recording;
  ctx

(* NF [i]'s stage: the supervisor's gate, the injector's draw, [process]
   under containment, then the corrupt or stall adjustment.  [recording]
   instruments the call with Local MAT recording (the SpeedyBox
   initial-packet traversal), charged to the NF's cycles. *)
let nf_step t packet ~fid ~recording i =
  let sup = t.sup in
  let nf = Array.unsafe_get t.nfs i in
  let local_mat = Array.unsafe_get t.mats i in
  let name = nf.Nf.name in
  let gate =
    if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.gate sup ~nf:name
    else Sb_fault.Supervisor.Run
  in
  t.contained <- false;
  match gate with
  | Sb_fault.Supervisor.Bypass_nf ->
      (* Failed NF elided from the chain: the packet only transits the
         port; nothing records, so rebuilt fast paths omit the NF. *)
      charge t i Sb_sim.Cycles.nf_rx_tx;
      if Sb_obs.Sink.armed t.cfg.obs then
        obs_timeline t ~fid
          ~ts_us:(Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle)
          ~detail:name Sb_obs.Timeline.Degraded_bypass;
      Sb_mat.Header_action.Forwarded
  | Sb_fault.Supervisor.Drop_packet ->
      (* Failed NF under Drop_flow: the drop records like an ordinary
         verdict, so the flow's fast path early-drops. *)
      Api.localmat_add_ha (context t ~fid ~local_mat ~recording) Sb_mat.Header_action.Drop;
      charge t i (Sb_sim.Cycles.nf_rx_tx + Sb_sim.Cycles.ha_drop);
      Sb_mat.Header_action.Dropped
  | Sb_fault.Supervisor.Run -> (
      let overhead =
        Sb_sim.Cycles.nf_rx_tx + if recording then Sb_sim.Cycles.local_mat_record else 0
      in
      let injected =
        if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.draw sup ~nf:name else None
      in
      match injected with
      | Some Sb_fault.Injector.Raise -> contained_raise t i name overhead
      | Some Sb_fault.Injector.Corrupt_verdict | Some Sb_fault.Injector.Stall | None -> (
          match nf.Nf.process (context t ~fid ~local_mat ~recording) packet with
          | exception _exn -> contained_raise t i name overhead
          | r -> (
              let cycles = Nf.cycles r + overhead in
              match injected with
              | Some Sb_fault.Injector.Corrupt_verdict ->
                  note_fault t ~nf:name;
                  Sb_fault.Supervisor.record_corrupted sup;
                  Sb_fault.Supervisor.record_faulted_packet sup;
                  t.faults <- t.faults + 1;
                  charge t i cycles;
                  flip_verdict (Nf.verdict r)
              | Some Sb_fault.Injector.Stall ->
                  note_fault t ~nf:name;
                  Sb_fault.Supervisor.record_stalled sup;
                  t.faults <- t.faults + 1;
                  charge t i (cycles + Sb_fault.Supervisor.stall_cycles sup);
                  Nf.verdict r
              | Some Sb_fault.Injector.Raise | None ->
                  charge t i cycles;
                  Nf.verdict r)))

let rec walk t packet ~fid ~recording i =
  if i = Array.length t.nfs then Sb_mat.Header_action.Forwarded
  else
    match nf_step t packet ~fid ~recording i with
    | Sb_mat.Header_action.Forwarded -> walk t packet ~fid ~recording (i + 1)
    | Sb_mat.Header_action.Dropped -> Sb_mat.Header_action.Dropped

(* Walk the original chain, one stage per NF visited; [t.faults] counts
   the faults charged. *)
let walk_chain t packet ~fid ~recording =
  t.faults <- 0;
  walk t packet ~fid ~recording 0

(* A slow-path walk's contained raise: its partial Local MAT records and
   events must not leak into a rule. *)
let quarantine t packet cls =
  quarantine_flow t cls ~detail:"slow-path walk" ~now:packet.Sb_packet.Packet.ingress_cycle

(* A fast-path packet whose rule execution faulted drops, charged the
   lookup and the containment in place of the GlobalMAT stage. *)
let fast_path_fault t packet cls ~nf =
  quarantine_flow t cls ~detail:nf ~now:packet.Sb_packet.Packet.ingress_cycle;
  Sb_sim.Cost_vec.serial_stage t.costs Sb_sim.Cost_vec.global_mat
    (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain);
  t.contained <- true;
  Sb_mat.Header_action.Dropped

(* Mirror the slow path's per-NF injector consultation — one draw per NF
   the walk would run, behind the same gate, up to the rule's [reach] — so
   a fault schedule is path-independent, tallying into [t.faults],
   [t.corrupts], [t.stalls] and [t.raised] (the NF whose draw was a
   raise).  A bypassed NF is not drawn, and a walk ends at a dropping NF
   and at a raise. *)
let rec draw_injections t i reach =
  if i < reach then begin
    let name = Array.unsafe_get t.nf_names i in
    match Sb_fault.Supervisor.gate t.sup ~nf:name with
    | Sb_fault.Supervisor.Drop_packet -> ()
    | Sb_fault.Supervisor.Bypass_nf -> draw_injections t (i + 1) reach
    | Sb_fault.Supervisor.Run -> (
        match Sb_fault.Supervisor.draw t.sup ~nf:name with
        | None -> draw_injections t (i + 1) reach
        | Some kind -> (
            t.faults <- t.faults + 1;
            note_fault t ~nf:name;
            match kind with
            | Sb_fault.Injector.Raise ->
                Sb_fault.Supervisor.record_contained t.sup;
                t.raised <- i
            | Sb_fault.Injector.Corrupt_verdict ->
                Sb_fault.Supervisor.record_corrupted t.sup;
                t.corrupts <- t.corrupts + 1;
                draw_injections t (i + 1) reach
            | Sb_fault.Injector.Stall ->
                Sb_fault.Supervisor.record_stalled t.sup;
                t.stalls <- t.stalls + 1;
                draw_injections t (i + 1) reach))
  end

(* Forwarded packets pay the metadata detach at egress; a dropped packet's
   descriptor is simply released.  Preallocated for the optional argument,
   which would otherwise box a [Some] per packet. *)
let detach = Some Sb_sim.Cycles.meta_detach

(* The fast path: the injector's draws, the rule's execution, then an odd
   number of corrupt draws flips the verdict and stalls add their own
   stage.  A drawn raise or an organic fault quarantines the flow. *)
let execute t packet cls rule =
  let costs = t.costs in
  Sb_sim.Cost_vec.mark costs;
  t.contained <- false;
  t.faults <- 0;
  t.corrupts <- 0;
  t.stalls <- 0;
  t.raised <- -1;
  if Sb_fault.Supervisor.active t.sup then
    draw_injections t 0 (Sb_mat.Global_mat.rule_reach rule);
  if t.raised >= 0 then begin
    (* The injected crash aborts the rule execution. *)
    Sb_fault.Supervisor.record_faulted_packet t.sup;
    fast_path_fault t packet cls ~nf:(Array.unsafe_get t.nf_names t.raised)
  end
  else
    match
      Sb_mat.Global_mat.execute_rule ?egress:detach t.global (Chain.events t.chain)
        (Chain.local_mats t.chain) cls.Classifier.fid rule packet
    with
    | exception exn ->
        (* An organic fast-path fault — a raising state function or event
           update — attributed to its NF when known.  The half-written
           GlobalMAT stage gives way to the containment charge. *)
        let nf =
          match exn with
          | Sb_fault.Fault.Nf_fault (nf, _, _) when Array.mem nf t.nf_names -> nf
          | _ -> unattributed
        in
        Sb_sim.Cost_vec.rewind costs;
        contain t ~nf;
        t.faults <- t.faults + 1;
        fast_path_fault t packet cls ~nf
    | verdict ->
        if t.stalls > 0 then
          Sb_sim.Cost_vec.serial_stage costs Sb_sim.Cost_vec.injected_stall
            (t.stalls * Sb_fault.Supervisor.stall_cycles t.sup);
        if t.corrupts = 0 then verdict
        else begin
          Sb_fault.Supervisor.record_faulted_packet t.sup;
          if t.corrupts land 1 = 1 then flip_verdict verdict else verdict
        end

(* The end of a recording walk that was not contained: the flow's Local
   MAT records become its Global MAT rule, and the events the walk
   registered move into it. *)
let consolidate t packet cls =
  if Sb_obs.Sink.armed t.cfg.obs then
    t.obs_now_us <- Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle;
  let cost =
    Sb_mat.Global_mat.consolidate ?events:t.walk_events t.global cls.Classifier.fid
      (Chain.local_mats t.chain)
  in
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid:cls.Classifier.fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Consolidated;
  Sb_sim.Cost_vec.serial_stage t.costs Sb_sim.Cost_vec.consolidate cost

(* A packet that was not contained leaves: a final one (FIN/RST) takes
   its flow's rules with it. *)
let retire t cls = if cls.Classifier.final then cleanup t cls

(* One admitted packet's execution, [rule] its Global MAT resolution. *)
let process_with_rule t packet cls rule =
  if rule != Sb_mat.Global_mat.no_rule then begin
    let verdict = execute t packet cls rule in
    if t.contained then finish t verdict packet Fast_path 0 t.faults
    else begin
      retire t cls;
      finish t verdict packet Fast_path (Sb_mat.Global_mat.events_fired t.global) t.faults
    end
  end
  else begin
    let recording = start_walk t packet cls in
    let verdict = walk_chain t packet ~fid:cls.Classifier.fid ~recording in
    if t.contained then quarantine t packet cls
    else begin
      if recording then consolidate t packet cls;
      retire t cls
    end;
    finish t verdict packet Slow_path 0 t.faults
  end

(* A frame cut short of its headers never reaches an NF: the NFs would
   read past its end.  It is rejected at ingress and costs nothing, as no
   stage ran.  Any other frame walks the chain, a non-TCP/UDP one
   included. *)
let process_original t packet =
  Sb_sim.Cost_vec.reset t.costs;
  if not (Sb_packet.Packet.headers_fit packet) then begin
    t.cut <- t.cut + 1;
    finish t Sb_mat.Header_action.Dropped packet Rejected 0 0
  end
  else
    let verdict = walk_chain t packet ~fid:(-1) ~recording:false in
    finish t verdict packet Slow_path 0 t.faults

(* The per-packet metrics: path and verdict counters, the latency
   histogram, a sharded run's sojourn, and the snapshot tick.  A rejected
   packet took neither path, so it counts in no path's series. *)
let count t path verdict ~latency_cycles ~now_us =
  (match t.ins with
  | Some ins ->
      let latency_us = Sb_sim.Cycles.to_microseconds latency_cycles in
      (match path with
      | Slow_path ->
          Sb_obs.Metrics.Counter.incr ins.c_slow;
          Sb_obs.Histogram.observe ins.h_latency_slow latency_us
      | Fast_path ->
          Sb_obs.Metrics.Counter.incr ins.c_fast;
          Sb_obs.Histogram.observe ins.h_latency_fast latency_us
      | Rejected -> ());
      (match verdict with
      | Sb_mat.Header_action.Forwarded -> Sb_obs.Metrics.Counter.incr ins.c_forwarded
      | Sb_mat.Header_action.Dropped -> Sb_obs.Metrics.Counter.incr ins.c_dropped);
      (match ins.h_sojourn with
      | Some h -> Sb_obs.Histogram.observe h latency_us
      | None -> ())
  | None -> ());
  (* Snapshot cadence rides the same armed branch; derives from the
     simulated clock, so snapshot series are deterministic. *)
  Sb_obs.Sink.packet_tick t.cfg.obs ~now_us

(* Everything observability learns per packet derives from the [output]
   the executor produced anyway, so one armed-sink branch after processing
   covers metrics and tracing for both paths and both modes — the unarmed
   fast path pays exactly that branch and nothing else. *)
let instrument t packet out =
  let obs = t.cfg.obs in
  let fid = out.packet.Sb_packet.Packet.fid in
  let ts0 = Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle in
  t.obs_now_us <- ts0;
  count t out.path out.verdict ~latency_cycles:out.latency_cycles ~now_us:ts0;
  match Sb_obs.Sink.tracer obs with
  | Some tr when Sb_obs.Tracer.sampled tr fid ->
      (* One span per visited stage: per-NF spans on the slow path, one
         compiled-program (GlobalMAT) span on the fast path, plus the
         Classifier and Consolidate stages.  Span times tile the packet's
         stage sequence starting at its ingress timestamp. *)
      let cat =
        match out.path with Slow_path -> "slow" | Fast_path -> "fast" | Rejected -> "rejected"
      in
      let ts = ref ts0 in
      List.iter
        (fun (stage : Sb_sim.Cost_profile.stage) ->
          let dur =
            Sb_sim.Cycles.to_microseconds (Sb_sim.Cost_profile.stage_cycles stage)
          in
          let cat =
            if String.equal stage.Sb_sim.Cost_profile.label "Consolidate" then
              "consolidate"
            else cat
          in
          Sb_obs.Tracer.record tr ~name:stage.Sb_sim.Cost_profile.label ~cat
            ~ts_us:!ts ~dur_us:dur ~tid:fid [];
          ts := !ts +. dur)
        out.profile
  | Some _ | None -> ()

(* ---- Burst processing ---- *)

let default_burst = 32

let ensure_cls_scratch t n =
  if Array.length t.cls_scratch < n then
    t.cls_scratch <- Array.init n (fun _ -> Classifier.scratch ());
  t.cls_scratch

(* Process [packets.(off .. off+len-1)] as one burst, calling [emit k out]
   for each packet in order ([k] relative to [off]).

   Phase one ([prepare], the whole burst) is a pure function of the
   packet bytes and issues the prefetch hints, so the line fills for
   packet [k]'s probes are in flight while packets [k+1 .. n-1] are still
   being parsed.  Then each packet in order is admitted (observed,
   touched, resolved) and executed — exactly what a burst of one does,
   so no packet reads state an earlier packet of the burst has yet to
   write. *)
let process_burst_into t packets ~off ~len:n emit =
  match t.cfg.mode with
  | Original ->
      for k = 0 to n - 1 do
        let packet = packets.(off + k) in
        let out = process_original t packet in
        if Sb_obs.Sink.armed t.cfg.obs then instrument t packet out;
        emit k out
      done
  | Speedybox ->
      let cls_arr = ensure_cls_scratch t n in
      for k = 0 to n - 1 do
        prepare t packets.(off + k) (Array.unsafe_get cls_arr k)
      done;
      for k = 0 to n - 1 do
        let packet = packets.(off + k) in
        let cls = Array.unsafe_get cls_arr k in
        let rule = admit t packet cls in
        let out =
          if cls.Classifier.malformed then
            finish t Sb_mat.Header_action.Dropped packet Rejected 0 0
          else process_with_rule t packet cls rule
        in
        if Sb_obs.Sink.armed t.cfg.obs then instrument t packet out;
        emit k out
      done

(* A burst of one: the same loop over a one-slot array. *)
let process_packet t packet =
  t.one.(0) <- packet;
  process_burst_into t t.one ~off:0 ~len:1 t.one_emit;
  !(t.one_out)

(* The output array is made from the first output and filled in place:
   [emit] fires once per packet, in order. *)
let process_burst t packets =
  let n = Array.length packets in
  let outs = ref [||] in
  process_burst_into t packets ~off:0 ~len:n (fun k out ->
      if k = 0 then outs := Array.make n out else Array.unsafe_set !outs k out);
  !outs

type stage_total = { visits : int; cycles : int }

type run_result = {
  packets : int;
  forwarded : int;
  dropped : int;
  slow_path : int;
  fast_path : int;
  events_fired : int;
  faulted_packets : int;
  latency_us : Sb_sim.Stats.t;
  cycles_per_packet : Sb_sim.Stats.t;
  service : Sb_sim.Stats.t;
  flow_time_us : float Sb_flow.Flat_table.t;
  stage_cycles : (string, stage_total) Hashtbl.t;
}

(* Non-TCP/UDP packets have no 5-tuple; their time buckets under this
   sentinel instead of crashing the whole run. *)
let no_flow_fid = -1

let rate_mpps r =
  let mean = Sb_sim.Stats.mean r.service in
  if Float.is_nan mean then nan
  else Sb_sim.Cycles.rate_mpps (int_of_float (Float.round mean))

(* A stage label's running totals, updated in place when a tally slot is
   flushed; [result] copies them out as [stage_total]s. *)
type label_total = { mutable n : int; mutable sum : int }

(* The slot holding [profile], by physical identity, or -1. *)
let rec tally_slot profiles profile i used =
  if i = used then -1
  else if Array.unsafe_get profiles i == profile then i
  else tally_slot profiles profile (i + 1) used

(* The run accumulator behind [run_trace], exposed so the sharded
   executors fold their outputs through the exact same code: the
   deterministic executor feeds one accumulator in global order, the
   parallel executor feeds one per shard and [absorb]s them into the run
   total — either way the [run_result] is identical by construction to an
   unsharded run over the same outputs.  Stage totals go through a
   per-profile tally (see the interface): a packet whose profile holds a
   slot costs one [==] per slot scanned and one increment. *)
module Acc = struct
  let tally_slots = 16

  type acc = {
    fid_bits : int;
    mutable count : int;
    mutable forwarded : int;
    mutable dropped : int;
    mutable slow : int;
    mutable fast : int;
    mutable fired : int;
    mutable faulted : int;
    latency_us : Sb_sim.Stats.t;
    cycles_per_packet : Sb_sim.Stats.t;
    service : Sb_sim.Stats.t;
    flow_time_us : float Sb_flow.Flat_table.t;
    profiles : Sb_sim.Cost_profile.t array;  (* tally slots in use: [0, used) *)
    tallies : int array;  (* packets per slot not yet in [totals] *)
    mutable used : int;
    mutable victim : int;  (* round-robin eviction cursor *)
    totals : (string, label_total) Hashtbl.t;
  }

  let create ?(fid_bits = Sb_flow.Fid.default_bits) () =
    {
      fid_bits;
      count = 0;
      forwarded = 0;
      dropped = 0;
      slow = 0;
      fast = 0;
      fired = 0;
      faulted = 0;
      latency_us = Sb_sim.Stats.create ();
      cycles_per_packet = Sb_sim.Stats.create ();
      service = Sb_sim.Stats.create ();
      flow_time_us = Sb_flow.Flat_table.create ~initial_size:256 ();
      profiles = Array.make tally_slots [];
      tallies = Array.make tally_slots 0;
      used = 0;
      victim = 0;
      totals = Hashtbl.create 16;
    }

  (* [Hashtbl.find] returns the binding itself — no option to allocate
     once a label has its total. *)
  let total acc label =
    match Hashtbl.find acc.totals label with
    | t -> t
    | exception Not_found ->
        let t = { n = 0; sum = 0 } in
        Hashtbl.replace acc.totals label t;
        t

  let rec add_stages acc n = function
    | [] -> ()
    | (stage : Sb_sim.Cost_profile.stage) :: rest ->
        let t = total acc stage.Sb_sim.Cost_profile.label in
        t.n <- t.n + n;
        t.sum <- t.sum + (n * Sb_sim.Cost_profile.stage_cycles stage);
        add_stages acc n rest

  (* Expands slot [i]'s count into the per-label totals; the slot keeps
     its profile, so later packets still hit it. *)
  let flush acc i =
    let n = Array.unsafe_get acc.tallies i in
    if n > 0 then begin
      add_stages acc n (Array.unsafe_get acc.profiles i);
      Array.unsafe_set acc.tallies i 0
    end

  let flush_all acc =
    for i = 0 to acc.used - 1 do
      flush acc i
    done

  let tally acc profile =
    let i = tally_slot acc.profiles profile 0 acc.used in
    if i >= 0 then Array.unsafe_set acc.tallies i (Array.unsafe_get acc.tallies i + 1)
    else begin
      let i =
        if acc.used < tally_slots then begin
          acc.used <- acc.used + 1;
          acc.used - 1
        end
        else begin
          let v = acc.victim in
          flush acc v;
          acc.victim <- (if v + 1 = tally_slots then 0 else v + 1);
          v
        end
      in
      Array.unsafe_set acc.profiles i profile;
      Array.unsafe_set acc.tallies i 1
    end

  let consume acc original out =
    acc.count <- acc.count + 1;
    (match out.verdict with
    | Sb_mat.Header_action.Forwarded -> acc.forwarded <- acc.forwarded + 1
    | Sb_mat.Header_action.Dropped -> acc.dropped <- acc.dropped + 1);
    (match out.path with
    | Slow_path -> acc.slow <- acc.slow + 1
    | Fast_path -> acc.fast <- acc.fast + 1
    | Rejected -> ());
    acc.fired <- acc.fired + out.events_fired;
    if out.faults > 0 then acc.faulted <- acc.faulted + 1;
    tally acc out.profile;
    (* [Cycles.to_microseconds], spelled out: a float returned from (or
       passed to) another module is boxed, and this runs per packet. *)
    let us = float_of_int out.latency_cycles /. Sb_sim.Cycles.cycles_per_us in
    Sb_sim.Stats.add_ratio acc.latency_us out.latency_cycles Sb_sim.Cycles.cycles_per_us;
    Sb_sim.Stats.add_int acc.cycles_per_packet out.latency_cycles;
    Sb_sim.Stats.add_int acc.service out.service_cycles;
    (* The flow-time bucket keys by the FID as classified, falling back to
       re-deriving it from the pristine input's bytes (no tuple built) when
       no classifier stamped it: Original mode, or a rejected packet. *)
    let key =
      if out.packet.Sb_packet.Packet.fid >= 0 then out.packet.Sb_packet.Packet.fid
      else if Sb_flow.Five_tuple.admits original then
        Sb_flow.Fid.of_hash ~bits:acc.fid_bits (Sb_flow.Five_tuple.packet_hash original)
      else no_flow_fid
    in
    let s = Sb_flow.Flat_table.find_slot acc.flow_time_us key in
    if s >= 0 then begin
      let times = Sb_flow.Flat_table.values acc.flow_time_us in
      Array.unsafe_set times s (Array.unsafe_get times s +. us)
    end
    else Sb_flow.Flat_table.set acc.flow_time_us key (0. +. us)

  let absorb dst src =
    dst.count <- dst.count + src.count;
    dst.forwarded <- dst.forwarded + src.forwarded;
    dst.dropped <- dst.dropped + src.dropped;
    dst.slow <- dst.slow + src.slow;
    dst.fast <- dst.fast + src.fast;
    dst.fired <- dst.fired + src.fired;
    dst.faulted <- dst.faulted + src.faulted;
    Sb_sim.Stats.absorb dst.latency_us src.latency_us;
    Sb_sim.Stats.absorb dst.cycles_per_packet src.cycles_per_packet;
    Sb_sim.Stats.absorb dst.service src.service;
    Sb_flow.Flat_table.iter
      (fun fid us ->
        Sb_flow.Flat_table.update dst.flow_time_us fid ~default:0. (fun sum -> sum +. us))
      src.flow_time_us;
    flush_all src;
    Hashtbl.iter
      (fun label (t : label_total) ->
        let d = total dst label in
        d.n <- d.n + t.n;
        d.sum <- d.sum + t.sum)
      src.totals

  let result acc =
    flush_all acc;
    let stage_cycles = Hashtbl.create 16 in
    Hashtbl.iter
      (fun label t -> Hashtbl.replace stage_cycles label { visits = t.n; cycles = t.sum })
      acc.totals;
    {
      packets = acc.count;
      forwarded = acc.forwarded;
      dropped = acc.dropped;
      slow_path = acc.slow;
      fast_path = acc.fast;
      events_fired = acc.fired;
      faulted_packets = acc.faulted;
      latency_us = acc.latency_us;
      cycles_per_packet = acc.cycles_per_packet;
      service = acc.service;
      flow_time_us = acc.flow_time_us;
      stage_cycles;
    }
end

(* End-of-run table occupancy, as gauges: once per run, not per packet.
   [whole_run] adds the figures of the run rather than of this runtime
   (the non-flow time bucket and the state store), which a sharded run
   writes on one shard only, or the merge would multiply them. *)
let record_run_gauges t ~whole_run (result : run_result) =
  match Sb_obs.Sink.metrics t.cfg.obs with
  | None -> ()
  | Some m ->
      let chain_label = ("chain", Chain.name t.chain) in
      let g name help v =
        Sb_obs.Metrics.Gauge.set
          (Sb_obs.Metrics.gauge m ~help ~labels:[ chain_label ] name)
          v
      in
      g "speedybox_rules_installed" "Consolidated rules in the Global MAT"
        (float_of_int (Sb_mat.Global_mat.flow_count t.global));
      g "speedybox_events_armed" "Event Table conditions currently armed"
        (float_of_int (Sb_mat.Event_table.total_armed (Chain.events t.chain)));
      g "speedybox_state_global_events_armed"
        "Armed Event Table conditions reading global-scope state"
        (float_of_int (Sb_mat.Event_table.total_global_armed (Chain.events t.chain)));
      if whole_run then begin
        (match Sb_flow.Flat_table.find result.flow_time_us no_flow_fid with
        | Some us ->
            g "speedybox_non_flow_time_us"
              "Processing time spent on packets with no 5-tuple (non-TCP/UDP)" us
        | None -> ());
        (* State-store surface: declared cells per scope, merge rounds run
           (delta-folded, so repeated reports never double-count), and the
           distribution of merged global cell values. *)
        let counts = Sb_state.Store.cell_counts t.cfg.state in
        let gs scope v =
          Sb_obs.Metrics.Gauge.set
            (Sb_obs.Metrics.gauge m ~help:"Declared state-store cells by scope"
               ~labels:[ chain_label; ("scope", scope) ]
               "speedybox_state_cells")
            (float_of_int v)
        in
        gs "per-flow" counts.Sb_state.Store.per_flow;
        gs "per-shard" counts.Sb_state.Store.per_shard;
        gs "global" counts.Sb_state.Store.global;
        Sb_obs.Metrics.Counter.add
          (Sb_obs.Metrics.counter m ~help:"Cross-shard state merge rounds run"
             ~labels:[ chain_label ] "speedybox_state_merge_rounds_total")
          (Sb_state.Store.merge_rounds_delta t.cfg.state);
        let h_global =
          Sb_obs.Metrics.histogram m ~help:"Merged values of global-scope state cells"
            ~labels:[ chain_label; ("scope", "global") ]
            "speedybox_state_cell_value"
        in
        List.iter
          (fun (_, _, v) -> Sb_obs.Histogram.observe_int h_global v)
          (Sb_state.Store.merged_values t.cfg.state)
      end

let run_trace ?on_output ?(burst = 1) t packets =
  if burst < 1 then invalid_arg "Runtime.run_trace: burst must be positive";
  let acc = Acc.create ~fid_bits:t.cfg.fid_bits () in
  let originals = Array.of_list packets in
  let total = Array.length originals in
  let base = ref 0 in
  let emit =
    match on_output with
    | None -> fun k out -> Acc.consume acc originals.(!base + k) out
    | Some f ->
        fun k out ->
          let original = originals.(!base + k) in
          Acc.consume acc original out;
          f original out
  in
  (* The trace's packets are never mutated: each is replayed through a copy.
     Without an [on_output] callback nothing can retain the processed
     packet, so the copies live in reusable scratch buffers; with one, the
     callback may keep [out.packet] (tests do), so copies stay fresh. *)
  let pool =
    if on_output = None then Array.init (min burst total) (fun _ -> Sb_packet.Packet.scratch ())
    else [||]
  in
  while !base < total do
    let n = min burst (total - !base) in
    let seg =
      if on_output = None then begin
        for k = 0 to n - 1 do
          Sb_packet.Packet.copy_into ~src:originals.(!base + k) ~dst:pool.(k)
        done;
        pool
      end
      else Array.init n (fun k -> Sb_packet.Packet.copy originals.(!base + k))
    in
    process_burst_into t seg ~off:0 ~len:n emit;
    base := !base + n
  done;
  let result = Acc.result acc in
  record_run_gauges t ~whole_run:true result;
  result
