open Sb_packet

type route = To_classifier | To_nf of int | To_global_mat

type job = {
  packet : Packet.t;
  arrival : int;
  submit_idx : int;  (** submission order, for reordering detection *)
  flow_key : int;
  mutable recording : bool;
  mutable cleanup_after : bool;
  mutable tuple : Sb_flow.Five_tuple.t option;
}

(* Completions sort before enqueues at the same instant (a departure frees
   its ring slot for a simultaneous arrival). *)
type event_kind = Complete of string | Enqueue of (job * route)

let kind_rank = function Complete _ -> 0 | Enqueue _ -> 1

type event = { at : int; seq : int; kind : event_kind }

let compare_events a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
    if c <> 0 then c else Int.compare a.seq b.seq

type outcome =
  | Next of route
  | Done of Sb_mat.Header_action.verdict
  | Done_after_consolidate of Sb_mat.Header_action.verdict
      (* the walk's last stage for a recording packet: the rule installs at
         completion (when the chain has finished with the packet, §III),
         not at service start *)

type stage = {
  ring : (job * route) Sb_sim.Ring.t;
  pending : (job * route) Queue.t;
      (* burst mode: jobs drained from the ring in one access, awaiting
         service.  Empty when burst = 1 (the job then stays in the ring
         until its completion, as the unbatched model always did). *)
  mutable serving : (job * route) option;  (* burst mode: the in-service job *)
  mutable busy : bool;
  mutable outcome : outcome option;  (** of the in-service job *)
}

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
  if burst < 1 then invalid_arg "Staged_runtime.run: burst must be positive";
  let nfs = Array.of_list (Chain.nfs chain) in
  let mats = Array.of_list (Chain.local_mats chain) in
  let nf_names = Array.map (fun nf -> nf.Nf.name) nfs in
  let classifier = Classifier.create () in
  let costs = Sb_sim.Cost_vec.create () in
  let labels = Sb_sim.Cost_vec.labels nf_names in
  let global = Sb_mat.Global_mat.create ~policy ~obs ~costs () in
  let sup = Sb_fault.Supervisor.create ?injector ~obs fault_policy in
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

  let heap = Sb_sim.Min_heap.create ~cmp:compare_events in
  let seq = ref 0 in
  let schedule at kind =
    incr seq;
    Sb_sim.Min_heap.push heap { at; seq = !seq; kind }
  in

  let stage_of_route = function
    | To_classifier -> "Classifier"
    | To_nf i -> nfs.(i).Nf.name
    | To_global_mat -> "GlobalMAT"
  in
  let stages : (string, stage) Hashtbl.t = Hashtbl.create 16 in
  let stage label =
    match Hashtbl.find_opt stages label with
    | Some s -> s
    | None ->
        let s =
          {
            ring = Sb_sim.Ring.create ~capacity:ring_capacity;
            pending = Queue.create ();
            serving = None;
            busy = false;
            outcome = None;
          }
        in
        Hashtbl.replace stages label s;
        s
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
    Option.iter
      (fun tuple ->
        Chain.remove_flow chain job.packet.Packet.fid;
        Sb_mat.Global_mat.remove_flow global job.packet.Packet.fid;
        Classifier.forget classifier tuple)
      job.tuple
  in

  (* A Failed NF invalidates every consolidated rule embedding its
     closures; tear the whole fast path down so flows re-record under the
     failure policy. *)
  let flush_fast_state () =
    let fids = Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) global [] in
    List.iter
      (fun fid ->
        Chain.remove_flow chain fid;
        Sb_mat.Global_mat.remove_flow global fid)
      fids
  in
  let note_fault ~nf =
    match Sb_fault.Supervisor.record_fault sup ~nf with
    | Sb_fault.Health.To_failed -> flush_fast_state ()
    | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ()
  in
  Sb_mat.Event_table.set_fault_hook (Chain.events chain) (fun nf _exn ->
      Sb_fault.Supervisor.record_contained sup;
      note_fault ~nf);
  (* Containment inside a stage: the fault is charged, the job's flow state
     quarantined and the packet leaves the chain dropped. *)
  let contain job ~nf ~now cycles =
    note_fault ~nf;
    Sb_fault.Supervisor.record_contained sup;
    Sb_fault.Supervisor.record_faulted_packet sup;
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
    (cycles + Sb_sim.Cycles.fault_contain, Done Sb_mat.Header_action.Dropped)
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
        let cls = Classifier.classify classifier job.packet in
        if cls.Classifier.malformed then
          (* Rejected at admission: no tuple, no conntrack state, no NF —
             the packet leaves the classifier stage dropped. *)
          (cls.Classifier.cycles, Done Sb_mat.Header_action.Dropped)
        else begin
          job.tuple <- Some cls.Classifier.tuple;
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
        let name = nfs.(i).Nf.name in
        let ctx =
          {
            Api.fid = job.packet.Packet.fid;
            local_mat = mats.(i);
            events = Chain.events chain;
            recording = job.recording;
          }
        in
        let overhead =
          Sb_sim.Cycles.nf_rx_tx
          + if job.recording then Sb_sim.Cycles.local_mat_record else 0
        in
        let finish_walk cycles verdict =
          if job.recording then (cycles + consolidate_cost, Done_after_consolidate verdict)
          else (cycles, Done verdict)
        in
        let gate =
          if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.gate sup ~nf:name
          else Sb_fault.Supervisor.Run
        in
        match gate with
        | Sb_fault.Supervisor.Bypass_nf ->
            (* Failed NF elided: the packet only transits the stage's port;
               nothing records. *)
            if i + 1 < Array.length nfs then (Sb_sim.Cycles.nf_rx_tx, Next (To_nf (i + 1)))
            else finish_walk Sb_sim.Cycles.nf_rx_tx Sb_mat.Header_action.Forwarded
        | Sb_fault.Supervisor.Drop_packet ->
            (* Failed NF under Drop_flow: record the drop like an ordinary
               verdict so the flow's fast path early-drops. *)
            Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
            finish_walk
              (Sb_sim.Cycles.nf_rx_tx + Sb_sim.Cycles.ha_drop)
              Sb_mat.Header_action.Dropped
        | Sb_fault.Supervisor.Run -> (
            let injected =
              if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.draw sup ~nf:name
              else None
            in
            match
              match injected with
              | Some Sb_fault.Injector.Raise -> raise (Sb_fault.Injector.Injected (name, 0))
              | _ -> nfs.(i).Nf.process ctx job.packet
            with
            | exception _exn -> contain job ~nf:name ~now overhead
            | r -> (
                let r =
                  match injected with
                  | Some Sb_fault.Injector.Corrupt_verdict ->
                      note_fault ~nf:name;
                      Sb_fault.Supervisor.record_corrupted sup;
                      Sb_fault.Supervisor.record_faulted_packet sup;
                      {
                        r with
                        Nf.verdict =
                          (match r.Nf.verdict with
                          | Sb_mat.Header_action.Forwarded -> Sb_mat.Header_action.Dropped
                          | Sb_mat.Header_action.Dropped -> Sb_mat.Header_action.Forwarded);
                      }
                  | Some Sb_fault.Injector.Stall ->
                      note_fault ~nf:name;
                      Sb_fault.Supervisor.record_stalled sup;
                      { r with Nf.cycles = r.Nf.cycles + Sb_fault.Supervisor.stall_cycles sup }
                  | _ -> r
                in
                match r.Nf.verdict with
                | Sb_mat.Header_action.Dropped ->
                    (* The walk ends here; a recording walk still
                       consolidates so subsequent packets early-drop. *)
                    finish_walk (r.Nf.cycles + overhead) Sb_mat.Header_action.Dropped
                | Sb_mat.Header_action.Forwarded ->
                    if i + 1 < Array.length nfs then
                      (r.Nf.cycles + overhead, Next (To_nf (i + 1)))
                    else finish_walk (r.Nf.cycles + overhead) Sb_mat.Header_action.Forwarded)))
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
                contain job ~nf ~now Sb_sim.Cycles.fast_path_lookup
            | verdict ->
                fired := !fired + Sb_mat.Global_mat.events_fired global;
                ( Sb_sim.Cost_profile.total_cycles (Sb_sim.Cost_vec.to_profile labels costs)
                  + Sb_sim.Cycles.meta_detach,
                  Done verdict )))
  in

  let start_service label state (job, route) ~hop now =
    state.busy <- true;
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
    state.outcome <- Some outcome;
    schedule (now + service) (Complete label)
  in
  (* Unbatched (burst = 1): the stage serves the ring head in place — the
     job keeps its slot until completion, and the sending stage paid the
     per-job [ring_hop_onvm] when it forwarded.  Burst mode: the stage
     drains up to [burst] jobs from the ring with ONE ring access — the
     hop is charged once, to the first job of the drain — and serves the
     drained batch back to back; forwarding between stages is then free
     (the receiving stage's drain carries the ring-access cost), which is
     exactly OpenNetVM's rte_ring dequeue-burst amortization. *)
  let maybe_start label state now =
    if not state.busy then
      if burst = 1 then begin
        match Sb_sim.Ring.peek state.ring with
        | None -> ()
        | Some entry -> start_service label state entry ~hop:0 now
      end
      else begin
        let hop =
          if Queue.is_empty state.pending then begin
            let rec drain k =
              if k >= burst then ()
              else
                match Sb_sim.Ring.pop state.ring with
                | None -> ()
                | Some entry ->
                    Queue.add entry state.pending;
                    drain (k + 1)
            in
            drain 0;
            if Queue.is_empty state.pending then 0 else Sb_sim.Cycles.ring_hop_onvm
          end
          else 0
        in
        match Queue.take_opt state.pending with
        | None -> ()
        | Some entry ->
            state.serving <- Some entry;
            start_service label state entry ~hop now
      end
  in

  let handle event =
    match event.kind with
    | Enqueue ((job, route) as entry) ->
        let label = stage_of_route route in
        let state = stage label in
        if Sb_sim.Ring.push state.ring entry then maybe_start label state event.at
        else begin
          incr dropped_overflow;
          (if Sb_obs.Sink.armed obs then
             match ins with
             | Some (_, _, c_overflow, _) -> Sb_obs.Metrics.Counter.incr c_overflow
             | None -> ());
          stop_recording job;
          retire job
        end
    | Complete label -> (
        let state = stage label in
        state.busy <- false;
        let served =
          if burst = 1 then Sb_sim.Ring.pop state.ring
          else begin
            let e = state.serving in
            state.serving <- None;
            e
          end
        in
        match (served, state.outcome) with
        | Some (job, _), Some outcome ->
            state.outcome <- None;
            (match outcome with
            | Next next ->
                (* In burst mode the transfer itself is free; the next
                   stage's drain pays the (amortized) ring access. *)
                let hop = if burst = 1 then Sb_sim.Cycles.ring_hop_onvm else 0 in
                schedule (event.at + hop) (Enqueue (job, next))
            | Done verdict -> finish job event.at verdict
            | Done_after_consolidate verdict ->
                consolidate_at_completion job;
                finish job event.at verdict);
            maybe_start label state event.at
        | _ -> assert false (* a completion implies a served head *))
  in

  List.iteri
    (fun submit_idx original ->
      let packet = Packet.copy original in
      let flow_key = Sb_flow.Fid.of_tuple (Sb_flow.Five_tuple.of_packet original) in
      let job =
        {
          packet;
          arrival = packet.Packet.ingress_cycle;
          submit_idx;
          flow_key;
          recording = false;
          cleanup_after = false;
          tuple = None;
        }
      in
      Hashtbl.replace (live_set flow_key) submit_idx ();
      schedule job.arrival (Enqueue (job, To_classifier)))
    trace;
  let rec drain () =
    match Sb_sim.Min_heap.pop_min heap with
    | None -> ()
    | Some event ->
        handle event;
        drain ()
  in
  drain ();
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
