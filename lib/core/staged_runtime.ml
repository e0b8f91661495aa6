open Sb_packet
module Int_set = Set.Make (Int)

type route = To_classifier | To_nf of int | To_global_mat

type job = {
  packet : Packet.t;
  cls : Runtime.classification;
  arrival : int;
  submit_idx : int;  (** submission order, for reordering detection *)
  flow_key : int;
  mutable path : Runtime.path;
  mutable recording : bool;
  mutable contained : bool;  (** quarantined: its flow is already gone *)
  mutable busy : int;  (** service cycles so far, ring hops included *)
}

type outcome = Next of route | Done of Sb_mat.Header_action.verdict

type result = {
  forwarded : int;
  dropped_by_chain : int;
  malformed : int;
  dropped_overflow : int;
  slow_path : int;
  fast_path : int;
  reordered : int;
  sojourn_us : Sb_sim.Stats.t;
  events_fired : int;
  faults : int;
  quarantines : int;
  runtime : Runtime.t;
}

let run ?(ring_capacity = 64) ?(burst = 1) ?on_departure (cfg : Runtime.config) chain trace =
  if cfg.Runtime.mode <> Runtime.Speedybox then
    invalid_arg "Staged_runtime.run: Original mode has no classifier stage to stage";
  if cfg.Runtime.platform <> Sb_sim.Platform.Onvm then
    invalid_arg "Staged_runtime.run: the staged pipeline models OpenNetVM (platform onvm)";
  let rt = Runtime.create cfg chain in
  let obs = cfg.Runtime.obs in
  let nfs = Array.of_list (Chain.nfs chain) in
  let ins =
    Option.map
      (fun m ->
        let labels = [ ("chain", Chain.name chain) ] in
        ( Sb_obs.Metrics.counter m ~help:"Packets tail-dropped by a full stage ring" ~labels
            "speedybox_staged_overflow_total",
          Sb_obs.Metrics.histogram m ~help:"Arrival-to-departure sojourn in microseconds" ~labels
            "speedybox_staged_sojourn_us" ))
      (Sb_obs.Sink.metrics obs)
  in
  (* Only one packet of a flow records at a time: packets arriving while
     the recording packet is still mid-chain walk uninstrumented — the
     consolidation race real deployments have. *)
  let recording_in_flight : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let stage_of_route = function
    | To_classifier -> "Classifier"
    | To_nf i -> nfs.(i).Nf.name
    | To_global_mat -> "GlobalMAT"
  in
  let forwarded = ref 0 and dropped_by_chain = ref 0 and dropped_overflow = ref 0 in
  let malformed = ref 0 in
  let slow = ref 0 and fast = ref 0 and reordered = ref 0 and fired = ref 0 in
  let sojourn_us = Sb_sim.Stats.create () in
  (* Live submission indices per flow; a departure with a smaller live
     index still present has overtaken it. *)
  let live : (int, Int_set.t) Hashtbl.t = Hashtbl.create 64 in
  let leave ?(check = false) job =
    let set = Hashtbl.find live job.flow_key in
    if check && Int_set.min_elt set < job.submit_idx then incr reordered;
    Hashtbl.replace live job.flow_key (Int_set.remove job.submit_idx set)
  in
  let stop_recording job =
    if job.recording then Hashtbl.remove recording_in_flight job.cls.fid;
    job.recording <- false
  in
  let depart job at verdict =
    incr
      (match verdict with
      | Sb_mat.Header_action.Forwarded -> forwarded
      | Sb_mat.Header_action.Dropped ->
          if job.cls.malformed then malformed else dropped_by_chain);
    let us = Sb_sim.Cycles.to_microseconds (at - job.arrival) in
    Sb_sim.Stats.add sojourn_us us;
    (match ins with
    | Some (_, h) ->
        Runtime.count rt job.path verdict ~latency_cycles:job.busy
          ~now_us:(Sb_sim.Cycles.to_microseconds at);
        Sb_obs.Histogram.observe h us
    | None -> ());
    leave ~check:true job;
    (* Final-packet cleanup waits for the departure: packets of the flow
       still in flight behind it keep the state they were admitted with. *)
    if not job.contained then Runtime.retire rt job.cls;
    match on_departure with Some f -> f job.submit_idx verdict job.packet | None -> ()
  in
  (* Consolidation cost is deterministic, so the service time charges it
     up front while the table write itself happens at completion. *)
  let consolidate_cost = Chain.length chain * Sb_sim.Cycles.global_consolidate_per_nf in
  let contain job =
    stop_recording job;
    job.contained <- true;
    Done Sb_mat.Header_action.Dropped
  in
  (* The work a stage performs when it starts serving a job: the
     runtime's own stage, with the cycles it charged as the service. *)
  let serve job route =
    match route with
    | To_classifier ->
        Runtime.prepare rt job.packet job.cls;
        let rule = Runtime.admit rt job.packet job.cls in
        let cycles = Runtime.charged rt in
        if job.cls.malformed then (cycles, Done Sb_mat.Header_action.Dropped)
        else if rule != Sb_mat.Global_mat.no_rule then (
          incr fast;
          job.path <- Runtime.Fast_path;
          (cycles, Next To_global_mat))
        else begin
          incr slow;
          job.recording <-
            Runtime.start_walk rt job.packet job.cls
            && not (Hashtbl.mem recording_in_flight job.cls.fid);
          if job.recording then Hashtbl.replace recording_in_flight job.cls.fid ();
          (cycles, Next (To_nf 0))
        end
    | To_nf i -> (
        let verdict =
          Runtime.nf_step rt job.packet ~fid:job.cls.fid ~recording:job.recording i
        in
        let cycles = Runtime.charged rt in
        if Runtime.contained rt then (
          Runtime.quarantine rt job.packet job.cls;
          (cycles, contain job))
        else
          match verdict with
          | Sb_mat.Header_action.Forwarded when i + 1 < Array.length nfs ->
              (cycles, Next (To_nf (i + 1)))
          | verdict ->
              (* A recording walk (a dropping one too) pays for consolidation
                 here and installs the rule once the chain is done (§III). *)
              ((if job.recording then cycles + consolidate_cost else cycles), Done verdict))
    | To_global_mat ->
        let rule = Sb_mat.Global_mat.lookup (Runtime.global_mat rt) job.cls.fid in
        if rule == Sb_mat.Global_mat.no_rule then
          (* The rule vanished after admission (a FIN, an eviction or a
             quarantine raced ahead): fall back to the walk. *)
          (Sb_sim.Cycles.fast_path_lookup, Next (To_nf 0))
        else
          let verdict = Runtime.execute rt job.packet job.cls rule in
          if Runtime.contained rt then (Runtime.charged rt, contain job)
          else (
            fired := !fired + Sb_mat.Global_mat.events_fired (Runtime.global_mat rt);
            (Runtime.charged rt, Done verdict))
  in
  let work =
    {
      Sb_sim.Stages.serve =
        (fun label (job, route) ~now ~hop ->
          let service, outcome = serve job route in
          let service = service + hop in
          job.busy <- job.busy + service;
          (* One span per stage service, on the event clock: ring waits
             show up as gaps between a flow's spans. *)
          (match Sb_obs.Sink.tracer obs with
          | Some tr ->
              Sb_obs.Tracer.record tr ~name:label ~cat:"stage"
                ~ts_us:(Sb_sim.Cycles.to_microseconds now)
                ~dur_us:(Sb_sim.Cycles.to_microseconds service) ~tid:job.cls.fid []
          | None -> ());
          (service, outcome));
      complete =
        (fun (job, _) outcome ~now ->
          match outcome with
          | Next next -> Sb_sim.Stages.Forward (stage_of_route next, (job, next))
          | Done verdict ->
              if job.recording then Runtime.consolidate rt job.packet job.cls;
              stop_recording job;
              depart job now verdict;
              Sb_sim.Stages.Depart);
      overflow =
        (fun (job, _) ->
          incr dropped_overflow;
          (match ins with Some (c, _) -> Sb_obs.Metrics.Counter.incr c | None -> ());
          stop_recording job;
          leave job);
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
          { packet; cls = Runtime.classification (); arrival = packet.Packet.ingress_cycle;
            submit_idx; flow_key; path = Runtime.Slow_path; recording = false;
            contained = false; busy = 0 }
        in
        Hashtbl.replace live flow_key
          (Int_set.add submit_idx
             (Option.value ~default:Int_set.empty (Hashtbl.find_opt live flow_key)));
        (job.arrival, stage_of_route To_classifier, (job, To_classifier)))
      trace
  in
  Sb_sim.Stages.run ~ring_capacity ~burst work arrivals;
  let sup = Runtime.supervisor rt in
  {
    forwarded = !forwarded;
    dropped_by_chain = !dropped_by_chain;
    malformed = !malformed;
    dropped_overflow = !dropped_overflow;
    slow_path = !slow;
    fast_path = !fast;
    reordered = !reordered;
    sojourn_us;
    events_fired = !fired;
    faults = Sb_fault.Supervisor.total_faults sup;
    quarantines = Sb_fault.Supervisor.quarantines sup;
    runtime = rt;
  }
