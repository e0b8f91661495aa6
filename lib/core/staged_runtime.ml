open Sb_packet

type route = To_classifier | To_nf of int | To_global_mat

type job = {
  packet : Packet.t;
  arrival : int;
  submit_idx : int;  (** submission order, for reordering detection *)
  flow_key : int;
  mutable recording : bool;
  mutable cleanup_after : bool;
  mutable pack1 : int;
  mutable pack2 : int;
      (** the ingress tuple's packed key, set when the classifier admits
          the packet: only an admitted packet reaches an NF or the Global
          MAT, so only its flow is ever cleaned up *)
}

type outcome =
  | Next of route
  | Done of Sb_mat.Header_action.verdict
  | Done_after_consolidate of Sb_mat.Header_action.verdict
      (* the walk's last stage for a recording packet: the rule installs at
         completion (when the chain has finished with the packet, §III),
         not at service start *)

type result = {
  forwarded : int;
  dropped_by_chain : int;
  dropped_overflow : int;
  slow_path : int;
  fast_path : int;
  reordered : int;
  sojourn_us : Sb_sim.Stats.t;
  events_fired : int;
  faults : int;
  quarantines : int;
}

let run ?(ring_capacity = 64) ?(burst = 1) ?(policy = Sb_mat.Parallel.Table_one) ?injector
    ?(fault_policy = Sb_fault.Health.default_policy) ?(obs = Sb_obs.Sink.null) chain
    trace =
  let nfs = Array.of_list (Chain.nfs chain) in
  let mats = Array.of_list (Chain.local_mats chain) in
  let nf_names = Array.map (fun nf -> nf.Nf.name) nfs in
  let classifier = Classifier.create () in
  let costs = Sb_sim.Cost_vec.create () in
  let labels = Sb_sim.Cost_vec.labels nf_names in
  let global = Sb_mat.Global_mat.create ~policy ~obs ~costs () in
  let sup = Sb_fault.Supervisor.create ?injector ~obs fault_policy in
  let step = Nf_step.create sup chain global in
  let cls = Classifier.scratch () in
  if Sb_obs.Sink.armed obs then Sb_mat.Event_table.set_obs (Chain.events chain) obs;
  (* Instruments resolved once up front; per-event recording is then field
     updates only (see {!Runtime}). *)
  let ins =
    match Sb_obs.Sink.metrics obs with
    | None -> None
    | Some m ->
        let chain_label = ("chain", Chain.name chain) in
        let verdicts v =
          Sb_obs.Metrics.counter m
            ~help:"Packet verdicts leaving the staged pipeline"
            ~labels:[ chain_label; ("verdict", v) ]
            "speedybox_staged_verdicts_total"
        in
        Some
          ( verdicts "forwarded",
            verdicts "dropped",
            Sb_obs.Metrics.counter m
              ~help:"Packets tail-dropped by a full stage ring"
              ~labels:[ chain_label ] "speedybox_staged_overflow_total",
            Sb_obs.Metrics.histogram m
              ~help:"Arrival-to-departure sojourn in microseconds"
              ~labels:[ chain_label ] "speedybox_staged_sojourn_us" )
  in
  let recording_in_flight : (int, unit) Hashtbl.t = Hashtbl.create 64 in

  let stage_of_route = function
    | To_classifier -> "Classifier"
    | To_nf i -> nfs.(i).Nf.name
    | To_global_mat -> "GlobalMAT"
  in

  let forwarded = ref 0
  and dropped_by_chain = ref 0
  and dropped_overflow = ref 0
  and slow = ref 0
  and fast = ref 0
  and reordered = ref 0
  and fired = ref 0 in
  let sojourn_us = Sb_sim.Stats.create () in

  (* Live submission indices per flow; a departure with a smaller live
     index still present has overtaken it. *)
  let live : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let live_set flow_key =
    match Hashtbl.find_opt live flow_key with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 4 in
        Hashtbl.replace live flow_key set;
        set
  in
  let retire ?(check = false) job =
    let set = live_set job.flow_key in
    if check && Hashtbl.fold (fun idx () acc -> acc || idx < job.submit_idx) set false then
      incr reordered;
    Hashtbl.remove set job.submit_idx
  in

  let stop_recording job =
    if job.recording then begin
      Hashtbl.remove recording_in_flight job.packet.Packet.fid;
      job.recording <- false
    end
  in

  let flow_cleanup job =
    Chain.remove_flow chain job.packet.Packet.fid;
    Sb_mat.Global_mat.remove_flow global job.packet.Packet.fid;
    Classifier.forget_packed classifier job.pack1 job.pack2
  in

  (* Containment inside a stage, once the fault is charged: the job's flow
     state is quarantined and the packet leaves the chain dropped. *)
  let quarantine job ~nf ~now cycles =
    stop_recording job;
    flow_cleanup job;
    Sb_fault.Supervisor.record_quarantine sup;
    if Sb_obs.Sink.armed obs then begin
      match Sb_obs.Sink.timeline obs with
      | Some tl when job.packet.Packet.fid >= 0 ->
          Sb_obs.Timeline.record tl ~fid:job.packet.Packet.fid
            ~ts_us:(Sb_sim.Cycles.to_microseconds now)
            ~detail:nf Sb_obs.Timeline.Quarantined
      | Some _ | None -> ()
    end;
    job.cleanup_after <- false;
    (cycles, Done Sb_mat.Header_action.Dropped)
  in

  let finish job at verdict =
    (match verdict with
    | Sb_mat.Header_action.Forwarded -> incr forwarded
    | Sb_mat.Header_action.Dropped -> incr dropped_by_chain);
    let us = Sb_sim.Cycles.to_microseconds (at - job.arrival) in
    Sb_sim.Stats.add sojourn_us us;
    (if Sb_obs.Sink.armed obs then
       match ins with
       | Some (c_fwd, c_drop, _, h) ->
           (match verdict with
           | Sb_mat.Header_action.Forwarded -> Sb_obs.Metrics.Counter.incr c_fwd
           | Sb_mat.Header_action.Dropped -> Sb_obs.Metrics.Counter.incr c_drop);
           Sb_obs.Histogram.observe h us
       | None -> ());
    retire ~check:true job;
    if job.cleanup_after then flow_cleanup job
  in

  (* Consolidation cost is deterministic, so the service time can charge
     it up front while the table write itself happens at completion. *)
  let consolidate_cost = List.length (Chain.local_mats chain) * Sb_sim.Cycles.global_consolidate_per_nf in
  let consolidate_at_completion job =
    ignore (Sb_mat.Global_mat.consolidate global job.packet.Packet.fid (Chain.local_mats chain));
    stop_recording job
  in

  (* The actual work a stage performs when it starts serving a job. *)
  let serve job route now =
    match route with
    | To_classifier ->
        Classifier.classify_into classifier job.packet cls;
        if cls.Classifier.malformed then
          (* Rejected at admission: no tuple, no conntrack state, no NF —
             the packet leaves the classifier stage dropped. *)
          (cls.Classifier.cycles, Done Sb_mat.Header_action.Dropped)
        else begin
          job.pack1 <- cls.Classifier.pack1;
          job.pack2 <- cls.Classifier.pack2;
          job.cleanup_after <- cls.Classifier.final;
          if Sb_mat.Global_mat.mem global cls.Classifier.fid then begin
            incr fast;
            (cls.Classifier.cycles, Next To_global_mat)
          end
          else begin
            incr slow;
            (* Only one packet of a flow records at a time: packets arriving
               while the initial packet is still mid-chain walk uninstrumented
               — the consolidation race real deployments have. *)
            if
              cls.Classifier.established
              && Chain.consolidable chain
              && not (Hashtbl.mem recording_in_flight cls.Classifier.fid)
              && ((not (Sb_fault.Supervisor.active sup))
                 || Sb_fault.Supervisor.allow_recording sup nf_names)
            then begin
              Hashtbl.replace recording_in_flight cls.Classifier.fid ();
              job.recording <- true
            end;
            (cls.Classifier.cycles, Next (To_nf 0))
          end
        end
    | To_nf i -> (
        let finish_walk cycles verdict =
          if job.recording then (cycles + consolidate_cost, Done_after_consolidate verdict)
          else (cycles, Done verdict)
        in
        let nf = nfs.(i) in
        let outcome =
          Nf_step.run step nf ~fid:job.packet.Packet.fid ~local_mat:mats.(i)
            ~recording:job.recording job.packet
        in
        let cycles = Nf_step.cycles step in
        match outcome with
        | Nf_step.Forwarded | Nf_step.Bypassed ->
            if i + 1 < Array.length nfs then (cycles, Next (To_nf (i + 1)))
            else finish_walk cycles Sb_mat.Header_action.Forwarded
        | Nf_step.Dropped ->
            (* The walk ends here; a recording walk still consolidates so
               subsequent packets early-drop. *)
            finish_walk cycles Sb_mat.Header_action.Dropped
        | Nf_step.Contained -> quarantine job ~nf:nf.Nf.name ~now cycles)
    | To_global_mat -> (
        match Sb_mat.Global_mat.find global job.packet.Packet.fid with
        | None ->
            (* The rule vanished between classify and service (FIN cleanup
               raced ahead); fall back to the original path. *)
            (Sb_sim.Cycles.fast_path_lookup, Next (To_nf 0))
        | Some rule -> (
            Sb_sim.Cost_vec.reset costs;
            match
              Sb_mat.Global_mat.execute_rule global (Chain.events chain)
                (Chain.local_mats chain) job.packet.Packet.fid rule job.packet
            with
            | exception exn ->
                let nf =
                  match exn with
                  | Sb_fault.Fault.Nf_fault (nf, _, _) -> nf
                  | _ -> "GlobalMAT"
                in
                Nf_step.contain step ~nf;
                quarantine job ~nf ~now
                  (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain)
            | verdict ->
                fired := !fired + Sb_mat.Global_mat.events_fired global;
                ( Sb_sim.Cost_profile.total_cycles (Sb_sim.Cost_vec.to_profile labels costs)
                  + Sb_sim.Cycles.meta_detach,
                  Done verdict )))
  in

  let work =
    {
      Sb_sim.Stages.serve =
        (fun label (job, route) ~now ~hop ->
          let service, outcome = serve job route now in
          let service = service + hop in
          (if Sb_obs.Sink.armed obs then
             (* One span per stage service, on the event clock: ring waits
                show up as gaps between a flow's spans. *)
             match Sb_obs.Sink.tracer obs with
             | Some tr ->
                 Sb_obs.Tracer.record tr ~name:label ~cat:"stage"
                   ~ts_us:(Sb_sim.Cycles.to_microseconds now)
                   ~dur_us:(Sb_sim.Cycles.to_microseconds service)
                   ~tid:job.packet.Packet.fid []
             | None -> ());
          (service, outcome));
      complete =
        (fun (job, _) outcome ~now ->
          match outcome with
          | Next next -> Sb_sim.Stages.Forward (stage_of_route next, (job, next))
          | Done verdict ->
              finish job now verdict;
              Sb_sim.Stages.Depart
          | Done_after_consolidate verdict ->
              consolidate_at_completion job;
              finish job now verdict;
              Sb_sim.Stages.Depart);
      overflow =
        (fun (job, _) ->
          incr dropped_overflow;
          (if Sb_obs.Sink.armed obs then
             match ins with
             | Some (_, _, c_overflow, _) -> Sb_obs.Metrics.Counter.incr c_overflow
             | None -> ());
          stop_recording job;
          retire job);
    }
  in

  let arrivals =
    List.mapi
      (fun submit_idx original ->
        let packet = Packet.copy original in
        (* A packet with no 5-tuple keys under the runtime's non-flow
           sentinel; its classifier stage rejects it as malformed. *)
        let flow_key =
          if Sb_flow.Five_tuple.admits original then Sb_flow.Fid.of_packet original
          else Runtime.no_flow_fid
        in
        let job =
          {
            packet;
            arrival = packet.Packet.ingress_cycle;
            submit_idx;
            flow_key;
            recording = false;
            cleanup_after = false;
            pack1 = 0;
            pack2 = 0;
          }
        in
        Hashtbl.replace (live_set flow_key) submit_idx ();
        (job.arrival, stage_of_route To_classifier, (job, To_classifier)))
      trace
  in
  Sb_sim.Stages.run ~ring_capacity ~burst work arrivals;
  {
    forwarded = !forwarded;
    dropped_by_chain = !dropped_by_chain;
    dropped_overflow = !dropped_overflow;
    slow_path = !slow;
    fast_path = !fast;
    reordered = !reordered;
    sojourn_us;
    events_fired = !fired;
    faults = Sb_fault.Supervisor.total_faults sup;
    quarantines = Sb_fault.Supervisor.quarantines sup;
  }
