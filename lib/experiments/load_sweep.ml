type point = {
  offered_mpps : float;
  achieved_mpps : float;
  p50_us : float;
  p99_us : float;
  loss_pct : float;
}

type replay = {
  completed : int;
  dropped : int;
  sojourn_us : Sb_sim.Stats.t;
  makespan_cycles : int;
}

let replay ~platform ~ring_capacity arrivals =
  let sojourn_us = Sb_sim.Stats.create () in
  let completed = ref 0 and dropped = ref 0 and last_departure = ref 0 in
  let depart at now =
    incr completed;
    last_departure := max !last_departure now;
    Sb_sim.Stats.add sojourn_us (Sb_sim.Cycles.to_microseconds (now - at))
  in
  (* The (stage, service cycles) a profile visits: the whole profile on
     BESS's one core, one stage per label on ONVM.  A job is its arrival
     cycle and the services still ahead of it. *)
  let services profile =
    match platform with
    | Sb_sim.Platform.Bess -> [ ("core", Sb_sim.Platform.latency_cycles platform profile) ]
    | Sb_sim.Platform.Onvm ->
        List.map
          (fun stage -> (stage.Sb_sim.Cost_profile.label, Sb_sim.Cost_profile.stage_cycles stage))
          profile
  in
  let work =
    {
      Sb_sim.Stages.serve =
        (fun _ (_, services) ~now:_ ~hop -> (snd (List.hd services) + hop, ()));
      complete =
        (fun (at, services) () ~now ->
          match services with
          | _ :: ((next, _) :: _ as rest) -> Sb_sim.Stages.Forward (next, (at, rest))
          | _ ->
              depart at now;
              Sb_sim.Stages.Depart);
      overflow = (fun _ -> incr dropped);
    }
  in
  Sb_sim.Stages.run ~ring_capacity ~burst:1 work
    (List.filter_map
       (fun (at, profile) ->
         match services profile with
         | [] ->
             (* No stage to visit: the packet departs on arrival. *)
             depart at at;
             None
         | (label, _) :: _ as services -> Some (at, label, (at, services)))
       arrivals);
  let first_arrival = match arrivals with [] -> 0 | (at, _) :: _ -> at in
  {
    completed = !completed;
    dropped = !dropped;
    sojourn_us;
    makespan_cycles = max 1 (!last_departure - first_arrival);
  }

(* Per-packet profiles from one functional run (slow-path and fast-path
   packets in realistic mixture), replayed cyclically through the stage
   engine. *)
let collect_profiles ~platform ~mode =
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~platform ~mode ())
      (Fig6.build_chain ())
  in
  let profiles = ref [] in
  let _ =
    Speedybox.Runtime.run_trace
      ~on_output:(fun _ out -> profiles := out.Speedybox.Runtime.profile :: !profiles)
      rt (Fig6.chain_trace ())
  in
  Array.of_list (List.rev !profiles)

let sweep ~platform ~mode ~rates =
  let profiles = collect_profiles ~platform ~mode in
  let n = 4000 in
  List.map
    (fun rate_mpps ->
      let cycles = Sb_trace.Workload.poisson_cycles ~seed:99 ~rate_mpps n in
      let r =
        replay ~platform ~ring_capacity:64
          (List.init n (fun i -> (cycles.(i), profiles.(i mod Array.length profiles))))
      in
      {
        offered_mpps = rate_mpps;
        achieved_mpps =
          float_of_int r.completed *. Sb_sim.Cycles.frequency_ghz *. 1000.
          /. float_of_int r.makespan_cycles;
        p50_us = Sb_sim.Stats.percentile r.sojourn_us 50.;
        p99_us = Sb_sim.Stats.percentile r.sojourn_us 99.;
        loss_pct = 100. *. float_of_int r.dropped /. float_of_int n;
      })
    rates

let saturation_rate points =
  List.fold_left
    (fun acc p -> if p.loss_pct < 1. && p.offered_mpps > acc then p.offered_mpps else acc)
    0. points

let default_rates = [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.4; 1.8; 2.4; 3.0 ]

let run () =
  Harness.print_header "Load sweep"
    "Snort + Monitor under Poisson load (queueing model; extension)";
  List.iter
    (fun platform ->
      List.iter
        (fun (label, mode) ->
          let points = sweep ~platform ~mode ~rates:default_rates in
          Harness.print_row
            (Printf.sprintf "  [%s %-9s]  %s   sat=%.1f Mpps"
               (Sb_sim.Platform.name platform)
               label
               (String.concat " "
                  (List.map
                     (fun p ->
                       Printf.sprintf "%.1f:%.0fus/%.0f%%" p.offered_mpps p.p99_us p.loss_pct)
                     points))
               (saturation_rate points)))
        [ ("original", Speedybox.Runtime.Original); ("speedybox", Speedybox.Runtime.Speedybox) ])
    [ Sb_sim.Platform.Bess; Sb_sim.Platform.Onvm ];
  Harness.print_note
    "format offered:p99/loss — SpeedyBox's loss cliff sits at a higher offered rate"
