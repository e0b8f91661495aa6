type mode = Original | Speedybox

let pp_mode fmt m =
  Format.pp_print_string fmt (match m with Original -> "Original" | Speedybox -> "SpeedyBox")

type config = {
  platform : Sb_sim.Platform.t;
  mode : mode;
  policy : Sb_mat.Parallel.policy;
  fid_bits : int;
  idle_timeout_cycles : int option;
  max_rules : int option;
  fastpath : Sb_mat.Global_mat.exec_mode;
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
    ?idle_timeout_cycles ?max_rules ?(fastpath = Sb_mat.Global_mat.Compiled)
    ?(fault_policy = Sb_fault.Health.default_policy) ?injector
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
    fastpath;
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

type t = {
  cfg : config;
  chain : Chain.t;
  global : Sb_mat.Global_mat.t;
  classifier : Classifier.t;
  sup : Sb_fault.Supervisor.t;
  nf_names : string array;
  live : Sb_flow.Live_table.t;
      (* idle-expiry bookkeeping, SoA: the per-packet liveness touch is
         one probe plus one int-lane store, no boxed record per flow *)
  wheel : Sb_flow.Timer_wheel.t option;  (* Some iff idle expiry is on *)
  mutable expired : int;
  mutable live_epoch : int;  (* next incarnation tag for [live] entries *)
  ins : instruments option;  (* Some iff cfg.obs carries a metrics registry *)
  mutable obs_now_us : float;  (* simulated clock for hooks without a packet
                                  in hand (the LRU-eviction callback) *)
  mutable cls_scratch : Classifier.classification array;
      (* per-burst classification scratch, grown to the largest burst seen *)
  mutable rule_scratch : Sb_mat.Global_mat.rule array;
      (* per-burst pre-resolved rules (the prescan's pipelined Global MAT
         probes), validated against the MAT generation at execution *)
  mutable fault_listener : (string -> unit) option;
      (* notified after every locally-recorded fault — how a sharded
         runtime broadcasts NF health changes to its sibling shards *)
  (* The burst path's one-entry last-flow rule memo, reset per burst. *)
  mutable memo_fid : int;
  mutable memo_gen : int;
  mutable memo_rule : Sb_mat.Global_mat.rule;
  costs : Sb_sim.Cost_vec.t;
      (* the packet in flight's costs, stage by stage (label ids from
         [Cost_vec.labels] over [nf_names]); every path writes here and
         [finish] interns the result *)
  profiles : Sb_sim.Cost_vec.intern;
  (* What the last [walk_chain] charged besides its verdict. *)
  mutable walk_faults : int;
  mutable walk_contained : bool;  (* a raise was contained: quarantine the flow *)
}

(* A Failed NF invalidates every consolidated rule embedding its closures:
   tear the whole fast path down (flows re-record under the failure
   policy).  Local MAT records and events go with each rule so no stale
   per-NF state survives the failure. *)
let flush_fast_state t =
  let fids = Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) t.global [] in
  List.iter
    (fun fid ->
      Chain.remove_flow t.chain fid;
      Sb_mat.Global_mat.remove_flow t.global fid)
    fids

let note_fault t ~nf =
  (match Sb_fault.Supervisor.record_fault t.sup ~nf with
  | Sb_fault.Health.To_failed -> flush_fast_state t
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ());
  match t.fault_listener with Some f -> f nf | None -> ()

let set_fault_listener t f = t.fault_listener <- Some f

(* A fault another shard recorded (and already counted): keep this
   runtime's view of the NF's health in lock-step, including the fast-path
   flush when the NF crosses into [Failed], without re-emitting metrics or
   re-notifying the listener (which would echo the broadcast forever). *)
let absorb_remote_fault t ~nf =
  match Sb_fault.Supervisor.absorb_fault t.sup ~nf with
  | Sb_fault.Health.To_failed -> flush_fast_state t
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ()

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
  let t =
    {
      cfg;
      chain;
      global =
        Sb_mat.Global_mat.create ~policy:cfg.policy ?max_rules:cfg.max_rules
          ~exec:cfg.fastpath ~obs:cfg.obs ~costs
          (* an LRU-evicted flow loses its Local MAT records too, so its next
             packet re-records from scratch *)
          ~on_evict:(fun fid ->
            Chain.remove_flow chain fid;
            !evict_hook fid)
          ();
      classifier =
        Classifier.create ~fid_bits:cfg.fid_bits ~verify_checksums:cfg.verify_checksums ();
      sup = Sb_fault.Supervisor.create ?injector:cfg.injector ~obs:cfg.obs cfg.fault_policy;
      nf_names;
      live = Sb_flow.Live_table.create ();
      wheel =
        (match cfg.idle_timeout_cycles with
        | None -> None
        | Some timeout ->
            Some
              (Sb_flow.Timer_wheel.create
                 ~tick_shift:(Sb_flow.Timer_wheel.tick_shift_for_timeout timeout)));
      expired = 0;
      live_epoch = 0;
      ins;
      obs_now_us = 0.;
      cls_scratch = [||];
      rule_scratch = [||];
      fault_listener = None;
      memo_fid = -1;
      memo_gen = -1;
      memo_rule = Sb_mat.Global_mat.no_rule;
      costs;
      profiles = Sb_sim.Cost_vec.intern_create cfg.platform (Sb_sim.Cost_vec.labels nf_names);
      walk_faults = 0;
      walk_contained = false;
    }
  in
  if Sb_obs.Sink.armed cfg.obs then begin
    Sb_mat.Event_table.set_obs (Chain.events chain) cfg.obs;
    evict_hook := fun fid -> obs_timeline t ~fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Evicted
  end;
  (* Raising event conditions are contained inside the Event Table; route
     them here so they still advance the registering NF's health. *)
  Sb_mat.Event_table.set_fault_hook (Chain.events chain) (fun nf _exn ->
      Sb_fault.Supervisor.record_contained t.sup;
      note_fault t ~nf);
  t

let chain t = t.chain

let state t = t.cfg.state

let global_mat t = t.global

let classifier t = t.classifier

let supervisor t = t.sup

let expired_flows t = t.expired

let rejected_malformed t = Classifier.rejected t.classifier

type path = Slow_path | Fast_path

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

let flip_verdict = function
  | Sb_mat.Header_action.Forwarded -> Sb_mat.Header_action.Dropped
  | Sb_mat.Header_action.Dropped -> Sb_mat.Header_action.Forwarded

let injected_raise t name =
  let call =
    match Sb_fault.Supervisor.injector t.sup with
    | Some inj -> Sb_fault.Injector.calls inj ~nf:name
    | None -> 0
  in
  Sb_fault.Injector.Injected (name, call)

(* Walk the original chain from NF [i], writing one stage per NF visited
   and returning the verdict ([t.walk_faults] and [t.walk_contained] carry
   the rest).  [recording] instruments the walk with Local MAT recording
   (the SpeedyBox initial-packet traversal); the extra recording cost is
   charged to each NF's stage.  Every NF call runs under the containment
   wrapper: a raise (injected or organic) drops the packet, charges the
   fault to the NF and tells the caller to quarantine the flow's recorded
   state. *)
let rec walk t ~recording ~fid packet nfs mats i faults =
  match (nfs, mats) with
  | [], [] ->
      t.walk_faults <- faults;
      Sb_mat.Header_action.Forwarded
  | nf :: nfs, mat :: mats -> (
      let sup = t.sup in
      let name = nf.Nf.name in
      let label = Sb_sim.Cost_vec.nf i in
      let ctx = { Api.fid; local_mat = mat; events = Chain.events t.chain; recording } in
      let overhead =
        Sb_sim.Cycles.nf_rx_tx + if recording then Sb_sim.Cycles.local_mat_record else 0
      in
      let gate =
        if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.gate sup ~nf:name
        else Sb_fault.Supervisor.Run
      in
      match gate with
      | Sb_fault.Supervisor.Bypass_nf ->
          (* Failed NF elided from the chain: the packet only transits the
             port; nothing records, so rebuilt fast paths omit the NF. *)
          if Sb_obs.Sink.armed t.cfg.obs then
            obs_timeline t ~fid
              ~ts_us:(Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle)
              ~detail:name Sb_obs.Timeline.Degraded_bypass;
          Sb_sim.Cost_vec.serial_stage t.costs label Sb_sim.Cycles.nf_rx_tx;
          walk t ~recording ~fid packet nfs mats (i + 1) faults
      | Sb_fault.Supervisor.Drop_packet ->
          (* Failed NF under Drop_flow: the drop records like an ordinary
             verdict, so the flow's fast path early-drops. *)
          Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
          Sb_sim.Cost_vec.serial_stage t.costs label
            (Sb_sim.Cycles.nf_rx_tx + Sb_sim.Cycles.ha_drop);
          t.walk_faults <- faults;
          Sb_mat.Header_action.Dropped
      | Sb_fault.Supervisor.Run -> (
          let injected =
            if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.draw sup ~nf:name
            else None
          in
          match
            match injected with
            | Some Sb_fault.Injector.Raise -> raise (injected_raise t name)
            | Some Sb_fault.Injector.Corrupt_verdict | Some Sb_fault.Injector.Stall | None ->
                nf.Nf.process ctx packet
          with
          | exception _exn ->
              (* Containment: the fault is this NF's, the packet is
                 dropped, the flow's partial records are quarantined. *)
              note_fault t ~nf:name;
              Sb_fault.Supervisor.record_contained sup;
              Sb_fault.Supervisor.record_faulted_packet sup;
              Sb_sim.Cost_vec.serial_stage t.costs label (overhead + Sb_sim.Cycles.fault_contain);
              t.walk_faults <- faults + 1;
              t.walk_contained <- true;
              Sb_mat.Header_action.Dropped
          | result -> (
              let result, faults =
                match injected with
                | Some Sb_fault.Injector.Corrupt_verdict ->
                    note_fault t ~nf:name;
                    Sb_fault.Supervisor.record_corrupted sup;
                    Sb_fault.Supervisor.record_faulted_packet sup;
                    ({ result with Nf.verdict = flip_verdict result.Nf.verdict }, faults + 1)
                | Some Sb_fault.Injector.Stall ->
                    note_fault t ~nf:name;
                    Sb_fault.Supervisor.record_stalled sup;
                    ( {
                        result with
                        Nf.cycles = result.Nf.cycles + Sb_fault.Supervisor.stall_cycles sup;
                      },
                      faults + 1 )
                | Some Sb_fault.Injector.Raise | None -> (result, faults)
              in
              Sb_sim.Cost_vec.serial_stage t.costs label (result.Nf.cycles + overhead);
              match result.Nf.verdict with
              | Sb_mat.Header_action.Dropped ->
                  t.walk_faults <- faults;
                  Sb_mat.Header_action.Dropped
              | Sb_mat.Header_action.Forwarded ->
                  walk t ~recording ~fid packet nfs mats (i + 1) faults)))
  | _ -> assert false (* nfs and local_mats have equal length *)

let walk_chain t ~recording ~fid packet =
  t.walk_contained <- false;
  walk t ~recording ~fid packet (Chain.nfs t.chain) (Chain.local_mats t.chain) 0 0

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

let process_original t packet =
  Sb_sim.Cost_vec.reset t.costs;
  let verdict = walk_chain t ~recording:false ~fid:(-1) packet in
  finish t verdict packet Slow_path 0 t.walk_faults

let cleanup t cls =
  Chain.remove_flow t.chain cls.Classifier.fid;
  Sb_mat.Global_mat.remove_flow t.global cls.Classifier.fid;
  Classifier.forget t.classifier cls.Classifier.tuple;
  (* Any timer-wheel entry for the flow dangles until it fires, where its
     stale epoch identifies it as dead — O(1) now beats finding it in its
     slot. *)
  Sb_flow.Live_table.remove t.live cls.Classifier.fid

let expire_flow t fid ~tuple now =
  Chain.remove_flow ~tuple t.chain fid;
  Sb_mat.Global_mat.remove_flow t.global fid;
  Classifier.forget t.classifier tuple;
  Sb_flow.Live_table.remove t.live fid;
  t.expired <- t.expired + 1;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
      ~detail:"idle timer" Sb_obs.Timeline.Idle_expired

(* Idle expiry: evict flows whose last packet arrived more than the
   configured timeout ago (arrival clock = packet ingress timestamps).
   Each recorded flow arms a one-shot timer-wheel entry; a packet for a
   live flow only rewrites [last_seen] (no wheel operation), and a firing
   timer either expires the flow or lazily re-arms at [last_seen +
   timeout].  Advancing past quiet stretches is O(ticks), not O(flows), so
   the cost stays flat at a million tracked flows. *)
let expire_idle_flows t wheel timeout now =
  Sb_flow.Timer_wheel.advance wheel ~now (fun fid stamp ->
      let live = t.live in
      let s = Sb_flow.Live_table.probe live fid in
      if s >= 0 && Sb_flow.Live_table.epoch_at live s = stamp then begin
        let last_seen = Sb_flow.Live_table.last_seen_at live s in
        if now - last_seen > timeout then begin
          expire_flow t fid ~tuple:(Sb_flow.Live_table.tuple_at live s) now;
          Sb_flow.Timer_wheel.Expire
        end
        else Sb_flow.Timer_wheel.Rearm (last_seen + timeout)
      end
      else
        (* A stale incarnation: the flow was cleaned up (and possibly
           re-recorded with a fresh stamp) since this timer was armed. *)
        Sb_flow.Timer_wheel.Expire)

let record_arrival t wheel timeout cls now =
  let epoch = t.live_epoch in
  t.live_epoch <- epoch + 1;
  Sb_flow.Live_table.set t.live cls.Classifier.fid ~last_seen:now ~epoch
    ~tuple:cls.Classifier.tuple;
  Sb_flow.Timer_wheel.add wheel ~key:cls.Classifier.fid ~stamp:epoch
    ~deadline:(now + timeout)

let touch t cls now =
  match (t.cfg.idle_timeout_cycles, t.wheel) with
  | None, _ | _, None -> ()
  | Some timeout, Some wheel ->
      (* Fire due timers first: if the arriving flow itself idled out, the
         wheel tears it down here and the packet re-records below like a
         fresh flow.  Most arrivals share the previous one's tick, where
         advancing is a no-op: skip it and the callback it would build. *)
      if Sb_flow.Timer_wheel.behind wheel ~now then expire_idle_flows t wheel timeout now;
      let live = t.live in
      let s = Sb_flow.Live_table.probe live cls.Classifier.fid in
      if s < 0 then record_arrival t wheel timeout cls now
      else if now - Sb_flow.Live_table.last_seen_at live s > timeout then begin
        (* Only reachable when arrivals outrun the wheel's tick
           quantisation: treat exactly like a wheel-fired expiry. *)
        cleanup t cls;
        t.expired <- t.expired + 1;
        if Sb_obs.Sink.armed t.cfg.obs then
          obs_timeline t ~fid:cls.Classifier.fid
            ~ts_us:(Sb_sim.Cycles.to_microseconds now)
            ~detail:"expired on arrival" Sb_obs.Timeline.Idle_expired;
        record_arrival t wheel timeout cls now
      end
      else Sb_flow.Live_table.set_last_seen_at live s now

(* Can [touch] at [now] expire a flow — forget a conntrack entry the burst
   prescan may already have read?  Only if the wheel has an entry due by
   [now]; or a flow armed or refreshed since [since] (the prescan
   segment's earliest arrival) has idled a full timeout by then; or the
   arriving flow's own last-seen stamp is that stale (expiry on arrival,
   which the wheel's tick quantisation can leave to [touch]). *)
let touch_may_expire t wheel timeout fid now ~since =
  now - since > timeout
  || Sb_flow.Timer_wheel.due wheel ~now
  ||
  let s = Sb_flow.Live_table.probe t.live fid in
  s >= 0 && now - Sb_flow.Live_table.last_seen_at t.live s > timeout

(* Forwarded packets pay the metadata detach at egress; a dropped packet's
   descriptor is simply released.  Preallocated for the optional argument,
   which would otherwise box a [Some] per packet. *)
let detach = Some Sb_sim.Cycles.meta_detach

(* Containment of a fast-path fault: count it, quarantine the flow's
   consolidated state (Global MAT rule, Local MAT records, events,
   classifier mapping) and drop the packet.  The flow's next packet
   re-records from scratch — or runs Original when recording is no longer
   allowed. *)
let contain_fast_path t cls ~nf ~now =
  note_fault t ~nf;
  Sb_fault.Supervisor.record_contained t.sup;
  Sb_fault.Supervisor.record_faulted_packet t.sup;
  cleanup t cls;
  Sb_fault.Supervisor.record_quarantine t.sup;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid:cls.Classifier.fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
      ~detail:nf Sb_obs.Timeline.Quarantined;
  Sb_sim.Cost_vec.serial_stage t.costs Sb_sim.Cost_vec.global_mat
    (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain)

(* What the fault injector drew for one fast-path packet. *)
type injection = {
  injected : int;
  corrupts : int;
  stalls : int;
  raised : string option;  (* the first NF whose draw was a raise *)
}

let no_injection = { injected = 0; corrupts = 0; stalls = 0; raised = None }

(* Mirror the slow path's per-NF injector consultation — one draw per NF
   per packet — so a fault schedule is path-independent.  Only called
   while the supervisor is active, so a fault-free run never pays for the
   refs and closure. *)
let draw_injections t =
  let corrupts = ref 0 and stalls = ref 0 and raised = ref None in
  let injected = ref 0 in
  Array.iter
    (fun name ->
      match Sb_fault.Supervisor.draw t.sup ~nf:name with
      | None -> ()
      | Some kind -> (
          incr injected;
          note_fault t ~nf:name;
          match kind with
          | Sb_fault.Injector.Raise ->
              Sb_fault.Supervisor.record_contained t.sup;
              if !raised = None then raised := Some name
          | Sb_fault.Injector.Corrupt_verdict ->
              Sb_fault.Supervisor.record_corrupted t.sup;
              incr corrupts
          | Sb_fault.Injector.Stall ->
              Sb_fault.Supervisor.record_stalled t.sup;
              incr stalls))
    t.nf_names;
  { injected = !injected; corrupts = !corrupts; stalls = !stalls; raised = !raised }

(* The body shared by the per-packet and burst paths: [cls] has been
   classified (and [touch]ed) by the caller, and [rule] is the Global MAT
   resolution — a plain [lookup] per packet, or the burst loop's last-flow
   memo — with [Global_mat.no_rule] sending the packet down the slow
   path. *)
let process_with_rule t packet cls rule =
  let now = packet.Sb_packet.Packet.ingress_cycle in
  let fid = cls.Classifier.fid in
  let costs = t.costs in
  Sb_sim.Cost_vec.reset costs;
  Sb_sim.Cost_vec.serial_stage costs Sb_sim.Cost_vec.classifier cls.Classifier.cycles;
  if rule != Sb_mat.Global_mat.no_rule then (
    let inj =
      if Sb_fault.Supervisor.active t.sup then draw_injections t else no_injection
    in
    let n_injected = inj.injected in
    match inj.raised with
    | Some nf ->
        (* The injected crash aborts the rule execution: drop the packet
           and quarantine the flow (its next packet re-records). *)
        Sb_fault.Supervisor.record_faulted_packet t.sup;
        cleanup t cls;
        Sb_fault.Supervisor.record_quarantine t.sup;
        if Sb_obs.Sink.armed t.cfg.obs then
          obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now) ~detail:nf
            Sb_obs.Timeline.Quarantined;
        Sb_sim.Cost_vec.serial_stage costs Sb_sim.Cost_vec.global_mat
          (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain);
        finish t Sb_mat.Header_action.Dropped packet Fast_path 0 n_injected
    | None -> (
        Sb_sim.Cost_vec.mark costs;
        match
          Sb_mat.Global_mat.execute_rule ?egress:detach t.global (Chain.events t.chain)
            (Chain.local_mats t.chain) fid rule packet
        with
        | exception exn ->
            (* An organic fast-path fault — a raising state function or
               event update — attributed to its NF when known.  The
               half-written GlobalMAT stage gives way to the containment
               charge. *)
            let nf =
              match exn with
              | Sb_fault.Fault.Nf_fault (nf, _, _) -> nf
              | _ -> "GlobalMAT"
            in
            Sb_sim.Cost_vec.rewind costs;
            contain_fast_path t cls ~nf ~now;
            finish t Sb_mat.Header_action.Dropped packet Fast_path 0 (n_injected + 1)
        | verdict ->
            let verdict = if inj.corrupts land 1 = 1 then flip_verdict verdict else verdict in
            if inj.corrupts > 0 then Sb_fault.Supervisor.record_faulted_packet t.sup;
            if cls.Classifier.final then cleanup t cls;
            if inj.stalls > 0 then
              Sb_sim.Cost_vec.serial_stage costs Sb_sim.Cost_vec.injected_stall
                (inj.stalls * Sb_fault.Supervisor.stall_cycles t.sup);
            finish t verdict packet Fast_path
              (Sb_mat.Global_mat.events_fired t.global)
              n_injected))
  else begin
    (* Slow path; the flow's establishing packet also records — unless an
       NF opted out of consolidation (§IV-A3) or the fault layer no longer
       trusts the chain (a Degraded NF, or a Failed one pinned to the slow
       path), in which case no fast path is built. *)
    if Sb_obs.Sink.armed t.cfg.obs then begin
      (* Keep the hook clock current before consolidation can LRU-evict. *)
      t.obs_now_us <- Sb_sim.Cycles.to_microseconds now;
      (match Sb_obs.Sink.timeline t.cfg.obs with
      | Some tl when not (Sb_obs.Timeline.known tl fid) ->
          obs_timeline t ~fid ~ts_us:t.obs_now_us ~detail:(Chain.name t.chain)
            Sb_obs.Timeline.First_packet
      | Some _ | None -> ())
    end;
    let recording =
      cls.Classifier.established && Chain.consolidable t.chain
      && ((not (Sb_fault.Supervisor.active t.sup))
         || Sb_fault.Supervisor.allow_recording t.sup t.nf_names)
    in
    let verdict = walk_chain t ~recording ~fid packet in
    let contained = t.walk_contained in
    if contained then begin
      (* Quarantine: the walk's partial Local MAT records and events must
         not leak into a rule; the flow's next packet starts fresh. *)
      cleanup t cls;
      Sb_fault.Supervisor.record_quarantine t.sup;
      if Sb_obs.Sink.armed t.cfg.obs then
        obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
          ~detail:"slow-path walk" Sb_obs.Timeline.Quarantined
    end;
    if recording && not contained then begin
      let cost = Sb_mat.Global_mat.consolidate t.global fid (Chain.local_mats t.chain) in
      if Sb_obs.Sink.armed t.cfg.obs then
        obs_timeline t ~fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Consolidated;
      Sb_sim.Cost_vec.serial_stage costs Sb_sim.Cost_vec.consolidate cost
    end;
    if cls.Classifier.final && not contained then cleanup t cls;
    finish t verdict packet Slow_path 0 t.walk_faults
  end

(* A malformed packet (no 5-tuple, or stale checksums under
   [verify_checksums]) is rejected at the classifier: it never reaches an
   NF, never touches conntrack or the liveness tables, and cannot perturb
   the burst path's rule memo. *)
let process_malformed t packet cls =
  Sb_sim.Cost_vec.reset t.costs;
  Sb_sim.Cost_vec.serial_stage t.costs Sb_sim.Cost_vec.classifier cls.Classifier.cycles;
  finish t Sb_mat.Header_action.Dropped packet Slow_path 0 0

let process_speedybox t packet =
  let now = packet.Sb_packet.Packet.ingress_cycle in
  let cls = Classifier.classify t.classifier packet in
  if cls.Classifier.malformed then process_malformed t packet cls
  else begin
    touch t cls now;
    process_with_rule t packet cls (Sb_mat.Global_mat.lookup t.global cls.Classifier.fid)
  end

(* Everything observability learns per packet derives from the [output]
   the executor produced anyway, so one armed-sink branch after processing
   covers metrics and tracing for both paths and both modes — the unarmed
   fast path pays exactly that branch and nothing else. *)
let instrument t packet out =
  let obs = t.cfg.obs in
  let fid = out.packet.Sb_packet.Packet.fid in
  let ts0 = Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle in
  t.obs_now_us <- ts0;
  (match t.ins with
  | Some ins ->
      let latency_us = Sb_sim.Cycles.to_microseconds out.latency_cycles in
      (match out.path with
      | Slow_path ->
          Sb_obs.Metrics.Counter.incr ins.c_slow;
          Sb_obs.Histogram.observe ins.h_latency_slow latency_us
      | Fast_path ->
          Sb_obs.Metrics.Counter.incr ins.c_fast;
          Sb_obs.Histogram.observe ins.h_latency_fast latency_us);
      (match out.verdict with
      | Sb_mat.Header_action.Forwarded -> Sb_obs.Metrics.Counter.incr ins.c_forwarded
      | Sb_mat.Header_action.Dropped -> Sb_obs.Metrics.Counter.incr ins.c_dropped);
      (match ins.h_sojourn with
      | Some h -> Sb_obs.Histogram.observe h latency_us
      | None -> ())
  | None -> ());
  (* Snapshot cadence rides the same armed branch; derives from the
     simulated clock, so snapshot series are deterministic. *)
  Sb_obs.Sink.packet_tick obs ~now_us:ts0;
  match Sb_obs.Sink.tracer obs with
  | Some tr when Sb_obs.Tracer.sampled tr fid ->
      (* One span per visited stage: per-NF spans on the slow path, one
         compiled-program (GlobalMAT) span on the fast path, plus the
         Classifier and Consolidate stages.  Span times tile the packet's
         stage sequence starting at its ingress timestamp. *)
      let cat = match out.path with Slow_path -> "slow" | Fast_path -> "fast" in
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

let process_packet t packet =
  let out =
    match t.cfg.mode with
    | Original -> process_original t packet
    | Speedybox -> process_speedybox t packet
  in
  if Sb_obs.Sink.armed t.cfg.obs then instrument t packet out;
  out

(* ---- Burst processing ---- *)

let default_burst = 32

let ensure_cls_scratch t n =
  if Array.length t.cls_scratch < n then begin
    t.cls_scratch <- Array.init n (fun _ -> Classifier.scratch ());
    t.rule_scratch <- Array.make n Sb_mat.Global_mat.no_rule
  end;
  t.cls_scratch

(* The burst's Global MAT resolution through the last-flow memo. *)
let resolve t fid gen =
  if fid = t.memo_fid && gen = t.memo_gen then t.memo_rule
  else begin
    let r = Sb_mat.Global_mat.lookup t.global fid in
    if r != Sb_mat.Global_mat.no_rule then begin
      t.memo_fid <- fid;
      t.memo_gen <- gen;
      t.memo_rule <- r
    end
    else t.memo_fid <- -1;
    r
  end

(* Process [packets.(off .. off+len-1)] as one burst, calling [emit k out]
   for each packet in order ([k] relative to [off]).

   The burst is classified ahead of execution — amortizing tuple
   extraction, FID hashing and conntrack probes over the batch — with one
   restriction: a packet whose execution can erase conntrack state ends
   the prescan segment, because a packet classified beyond it would read
   state the per-packet order has already erased.  Two such packets are
   known in advance: a FIN/RST ([final]), which tears its flow down (a
   retained [Closing] where a fresh flow would re-establish), and, with
   idle expiry on, a packet whose [touch] can fire the timer wheel into
   expiring a flow ([touch_may_expire]).  A fault quarantine cannot
   be foreseen and is not covered: a same-flow SYN or SYN-ACK observed
   beyond the faulting packet classifies against the pre-quarantine
   state, where per-packet order sees a fresh flow.

   Prescan phase one ([Classifier.prepare_into], the whole burst) is a
   pure function of the packet bytes — tuple, one FNV hash, FID — and
   issues prefetch hints for the three tables the later passes will probe
   (conntrack slot, Global MAT rule slot, liveness slot), so the line
   fills for packet [k]'s probes are in flight while packets [k+1 .. n-1]
   are still being parsed.  Phase two observes conntrack and pre-resolves
   each packet's rule on the now-warm slots, hinting the rule record
   itself for the executor.

   Execution resolves each packet's rule from the pre-probe, guarded two
   ways: a pre-resolved rule is used only while the MAT's generation is
   unchanged (any eviction, removal or quarantine bumps it), and an
   absent rule is always re-probed (an earlier slow-path packet in the
   segment may have consolidated one without a generation bump).  The
   one-entry last-flow memo backs both the pre-probe and the re-probe, so
   consecutive packets of one flow still cost a single lookup.  In-place
   event rewrites keep resolved rule records current by construction. *)
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
      let rule_arr = t.rule_scratch in
      let track_live = t.wheel <> None in
      (* Phase one: parse + hash + prefetch for the whole burst. *)
      for k = 0 to n - 1 do
        let cls = Array.unsafe_get cls_arr k in
        Classifier.prepare_into t.classifier packets.(off + k) cls;
        if not cls.Classifier.malformed then begin
          Sb_mat.Global_mat.prefetch t.global cls.Classifier.fid;
          if track_live then Sb_flow.Live_table.prefetch t.live cls.Classifier.fid
        end
      done;
      t.memo_fid <- -1;
      let i = ref 0 in
      while !i < n do
        (* Phase two: conntrack observation up to (and including) the first
           packet whose execution can erase conntrack state — a FIN/RST,
           which tears its flow down, or a packet whose [touch] can expire
           a flow — since a packet observed beyond it would read state the
           per-packet order has already erased; plus the pipelined rule
           pre-probe.  Nothing executes during this phase, so the MAT
           generation is constant across the segment. *)
        let gen = Sb_mat.Global_mat.generation t.global in
        let j = ref !i in
        let stop = ref false in
        let since = ref max_int in
        while (not !stop) && !j < n do
          let cls = Array.unsafe_get cls_arr !j in
          if cls.Classifier.malformed then
            Array.unsafe_set rule_arr !j Sb_mat.Global_mat.no_rule
          else begin
            let packet = packets.(off + !j) in
            Classifier.observe_into t.classifier packet cls;
            if cls.Classifier.final then stop := true;
            (match (t.wheel, t.cfg.idle_timeout_cycles) with
            | Some wheel, Some timeout ->
                let now = packet.Sb_packet.Packet.ingress_cycle in
                if now < !since then since := now;
                if touch_may_expire t wheel timeout cls.Classifier.fid now ~since:!since then
                  stop := true
            | _ -> ());
            let r = resolve t cls.Classifier.fid gen in
            Array.unsafe_set rule_arr !j r;
            (* Start the rule record's own line fill for the executor. *)
            if r != Sb_mat.Global_mat.no_rule then Sb_flow.Prefetch.value r
          end;
          incr j
        done;
        for k = !i to !j - 1 do
          let packet = packets.(off + k) in
          let cls = Array.unsafe_get cls_arr k in
          let out =
            if cls.Classifier.malformed then process_malformed t packet cls
            else begin
              touch t cls packet.Sb_packet.Packet.ingress_cycle;
              let gen_now = Sb_mat.Global_mat.generation t.global in
              let pre = Array.unsafe_get rule_arr k in
              let rule =
                if pre != Sb_mat.Global_mat.no_rule && gen_now = gen then pre
                else resolve t cls.Classifier.fid gen_now
              in
              Array.unsafe_set rule_arr k Sb_mat.Global_mat.no_rule;
              process_with_rule t packet cls rule
            end
          in
          if Sb_obs.Sink.armed t.cfg.obs then instrument t packet out;
          emit k out
        done;
        i := !j
      done

let process_burst t packets =
  let n = Array.length packets in
  let rev = ref [] in
  process_burst_into t packets ~off:0 ~len:n (fun _ out -> rev := out :: !rev);
  Array.of_list (List.rev !rev)

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
  flow_time_us : float Sb_flow.Flow_table.t;
  stage_cycles : (string, Sb_sim.Stats.t) Hashtbl.t;
}

(* Non-TCP/UDP packets have no 5-tuple; their time buckets under this
   sentinel instead of crashing the whole run. *)
let no_flow_fid = -1

let rate_mpps r =
  let mean = Sb_sim.Stats.mean r.service in
  if Float.is_nan mean then nan
  else Sb_sim.Cycles.rate_mpps (int_of_float (Float.round mean))

(* The run accumulator behind [run_trace], exposed so the sharded
   executors fold their outputs through the exact same code: the
   deterministic executor feeds one accumulator in global order, the
   parallel executor feeds one per shard and [absorb]s them into the run
   total — either way the [run_result] is identical by construction to an
   unsharded run over the same outputs. *)
module Acc = struct
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
    flow_time_us : float Sb_flow.Flow_table.t;
    stage_cycles : (string, Sb_sim.Stats.t) Hashtbl.t;
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
      flow_time_us = Sb_flow.Flow_table.create ~initial_size:256 ();
      stage_cycles = Hashtbl.create 16;
    }

  (* [Hashtbl.find] returns the binding itself — no option to allocate on
     the hit every packet after a label's first takes. *)
  let stage_stats acc label =
    match Hashtbl.find acc.stage_cycles label with
    | s -> s
    | exception Not_found ->
        let s = Sb_sim.Stats.create () in
        Hashtbl.replace acc.stage_cycles label s;
        s

  let rec add_stages acc = function
    | [] -> ()
    | (stage : Sb_sim.Cost_profile.stage) :: rest ->
        Sb_sim.Stats.add_int
          (stage_stats acc stage.Sb_sim.Cost_profile.label)
          (Sb_sim.Cost_profile.stage_cycles stage);
        add_stages acc rest

  let consume acc original out =
    acc.count <- acc.count + 1;
    (match out.verdict with
    | Sb_mat.Header_action.Forwarded -> acc.forwarded <- acc.forwarded + 1
    | Sb_mat.Header_action.Dropped -> acc.dropped <- acc.dropped + 1);
    (match out.path with
    | Slow_path -> acc.slow <- acc.slow + 1
    | Fast_path -> acc.fast <- acc.fast + 1);
    acc.fired <- acc.fired + out.events_fired;
    if out.faults > 0 then acc.faulted <- acc.faulted + 1;
    add_stages acc out.profile;
    (* [Cycles.to_microseconds], spelled out: a float returned from (or
       passed to) another module is boxed, and this runs per packet. *)
    let us = float_of_int out.latency_cycles /. Sb_sim.Cycles.cycles_per_us in
    Sb_sim.Stats.add_ratio acc.latency_us out.latency_cycles Sb_sim.Cycles.cycles_per_us;
    Sb_sim.Stats.add_int acc.cycles_per_packet out.latency_cycles;
    Sb_sim.Stats.add_int acc.service out.service_cycles;
    (* The flow-time bucket keys by the FID as classified, falling back to
       re-deriving it from the pristine input when the chain dropped the
       packet before classification stamped it. *)
    let key =
      if out.packet.Sb_packet.Packet.fid >= 0 then out.packet.Sb_packet.Packet.fid
      else
        match Sb_flow.Five_tuple.of_packet_opt original with
        | Some tuple -> Sb_flow.Fid.of_tuple ~bits:acc.fid_bits tuple
        | None -> no_flow_fid
    in
    let s = Sb_flow.Flow_table.find_slot acc.flow_time_us key in
    if s >= 0 then begin
      let times = Sb_flow.Flow_table.values acc.flow_time_us in
      Array.unsafe_set times s (Array.unsafe_get times s +. us)
    end
    else Sb_flow.Flow_table.set acc.flow_time_us key (0. +. us)

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
    Sb_flow.Flow_table.iter
      (fun fid us ->
        Sb_flow.Flow_table.update dst.flow_time_us fid ~default:0. (fun sum -> sum +. us))
      src.flow_time_us;
    Hashtbl.iter
      (fun label stats -> Sb_sim.Stats.absorb (stage_stats dst label) stats)
      src.stage_cycles

  let result acc =
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
      stage_cycles = acc.stage_cycles;
    }
end

let run_trace ?on_output ?(burst = 1) t packets =
  if burst < 1 then invalid_arg "Runtime.run_trace: burst must be positive";
  let acc = Acc.create ~fid_bits:t.cfg.fid_bits () in
  let consume =
    match on_output with
    | None -> Acc.consume acc
    | Some f ->
        fun original out ->
          Acc.consume acc original out;
          f original out
  in
  (* The trace's packets are never mutated: each is replayed through a copy.
     Without an [on_output] callback nothing can retain the processed
     packet, so the copies live in reusable scratch buffers; with one, the
     callback may keep [out.packet] (tests do), so copies stay fresh. *)
  (if burst = 1 then
     match on_output with
     | None ->
         let scratch = Sb_packet.Packet.scratch () in
         List.iter
           (fun original ->
             Sb_packet.Packet.copy_into ~src:original ~dst:scratch;
             consume original (process_packet t scratch))
           packets
     | Some _ ->
         List.iter
           (fun original -> consume original (process_packet t (Sb_packet.Packet.copy original)))
           packets
   else begin
     let originals = Array.of_list packets in
     let total = Array.length originals in
     let pool =
       if on_output = None then Array.init (min burst total) (fun _ -> Sb_packet.Packet.scratch ())
       else [||]
     in
     let i = ref 0 in
     while !i < total do
       let n = min burst (total - !i) in
       let seg =
         if on_output = None then begin
           for k = 0 to n - 1 do
             Sb_packet.Packet.copy_into ~src:originals.(!i + k) ~dst:pool.(k)
           done;
           pool
         end
         else Array.init n (fun k -> Sb_packet.Packet.copy originals.(!i + k))
       in
       let base = !i in
       process_burst_into t seg ~off:0 ~len:n (fun k out -> consume originals.(base + k) out);
       i := !i + n
     done
   end);
  (* End-of-run table occupancy (and the sentinel non-flow time bucket),
     as gauges — once per run, not per packet. *)
  (match Sb_obs.Sink.metrics t.cfg.obs with
  | Some m ->
      let g name help v =
        Sb_obs.Metrics.Gauge.set
          (Sb_obs.Metrics.gauge m ~help ~labels:[ ("chain", Chain.name t.chain) ] name)
          v
      in
      g "speedybox_rules_installed" "Consolidated rules in the Global MAT"
        (float_of_int (Sb_mat.Global_mat.flow_count t.global));
      g "speedybox_events_armed" "Event Table conditions currently armed"
        (float_of_int (Sb_mat.Event_table.total_armed (Chain.events t.chain)));
      (match Sb_flow.Flow_table.find acc.Acc.flow_time_us no_flow_fid with
      | Some us ->
          g "speedybox_non_flow_time_us"
            "Processing time spent on packets with no 5-tuple (non-TCP/UDP)" us
      | None -> ());
      (* State-store surface: declared cells per scope, merge rounds run
         (delta-folded, so repeated reports never double-count), armed
         global-state conditions, and the distribution of merged global
         cell values. *)
      let counts = Sb_state.Store.cell_counts t.cfg.state in
      let gs scope help v =
        Sb_obs.Metrics.Gauge.set
          (Sb_obs.Metrics.gauge m ~help
             ~labels:[ ("chain", Chain.name t.chain); ("scope", scope) ]
             "speedybox_state_cells")
          (float_of_int v)
      in
      let cells_help = "Declared state-store cells by scope" in
      gs "per-flow" cells_help counts.Sb_state.Store.per_flow;
      gs "per-shard" cells_help counts.Sb_state.Store.per_shard;
      gs "global" cells_help counts.Sb_state.Store.global;
      Sb_obs.Metrics.Counter.add
        (Sb_obs.Metrics.counter m ~help:"Cross-shard state merge rounds run"
           ~labels:[ ("chain", Chain.name t.chain) ]
           "speedybox_state_merge_rounds_total")
        (Sb_state.Store.merge_rounds_delta t.cfg.state);
      g "speedybox_state_global_events_armed"
        "Armed Event Table conditions reading global-scope state"
        (float_of_int (Sb_mat.Event_table.total_global_armed (Chain.events t.chain)));
      let h_global =
        Sb_obs.Metrics.histogram m ~help:"Merged values of global-scope state cells"
          ~labels:[ ("chain", Chain.name t.chain); ("scope", "global") ]
          "speedybox_state_cell_value"
      in
      List.iter
        (fun (_, _, v) -> Sb_obs.Histogram.observe_int h_global v)
        (Sb_state.Store.merged_values t.cfg.state)
  | None -> ());
  Acc.result acc
