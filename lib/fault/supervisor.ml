type t = {
  mutable health : Health.t;
  mutable seen : int;  (* [Health.failures] when this supervisor last acted on it *)
  injector : Injector.t option;
  obs : Sb_obs.Sink.t;
  mutable contained : int;
  mutable corrupted : int;
  mutable stalled : int;
  mutable quarantines : int;
  mutable faulted_packets : int;
  mutable active : bool;
}

let create ?injector ?(obs = Sb_obs.Sink.null) health =
  {
    health;
    seen = Health.failures health;
    injector;
    obs;
    contained = 0;
    corrupted = 0;
    stalled = 0;
    quarantines = 0;
    faulted_packets = 0;
    (* With no injector the supervisor stays dormant (zero per-packet work
       beyond one flag test) until the first organic fault wakes it. *)
    active = injector <> None;
  }

(* Fault metrics only materialise when a fault is recorded, so the
   registry lookup cost sits entirely off the healthy path. *)
let obs_count t name labels =
  if Sb_obs.Sink.armed t.obs then
    match Sb_obs.Sink.metrics t.obs with
    | Some m ->
        Sb_obs.Metrics.Counter.incr
          (Sb_obs.Metrics.counter m ~labels
             ~help:"Fault-containment events by the supervisor" name)
    | None -> ()

let health t = t.health

let active t = t.active

let draw t ~nf =
  match t.injector with None -> None | Some inj -> Injector.draw inj ~nf

let stall_cycles t =
  match t.injector with None -> 0 | Some inj -> Injector.stall_cycles inj

let record_fault t ~nf =
  t.active <- true;
  obs_count t "speedybox_faults_total" [ ("nf", nf) ];
  let transition = Health.record_fault t.health nf in
  (* The owner flushes on this failure, which covers any failure another
     sharer recorded before it. *)
  if transition = Health.To_failed then t.seen <- Health.failures t.health;
  transition

let share_health t health =
  t.health <- health;
  t.seen <- Health.failures health

(* Another supervisor sharing the table may have recorded since this one
   last looked: any fault wakes this one, as its own would have, and a new
   failure tells the owner to flush. *)
let sync t =
  if Health.total_faults t.health > 0 then t.active <- true;
  let failures = Health.failures t.health in
  failures <> t.seen
  && begin
       t.seen <- failures;
       true
     end

let record_contained t =
  t.contained <- t.contained + 1;
  obs_count t "speedybox_fault_kinds_total" [ ("kind", "contained") ]

let record_corrupted t =
  t.corrupted <- t.corrupted + 1;
  obs_count t "speedybox_fault_kinds_total" [ ("kind", "corrupted") ]

let record_stalled t =
  t.stalled <- t.stalled + 1;
  obs_count t "speedybox_fault_kinds_total" [ ("kind", "stalled") ]

let record_quarantine t =
  t.quarantines <- t.quarantines + 1;
  obs_count t "speedybox_quarantines_total" []

let record_faulted_packet t =
  t.faulted_packets <- t.faulted_packets + 1;
  obs_count t "speedybox_faulted_packets_total" []

type gate = Run | Bypass_nf | Drop_packet

(* What a packet about to enter [nf] should do, given the NF's health. *)
let gate t ~nf =
  match Health.state t.health nf with
  | Healthy | Degraded -> Run
  | Failed -> (
      match Health.on_failure t.health nf with
      | Health.Bypass -> Bypass_nf
      | Health.Drop_flow -> Drop_packet
      | Health.Slow_path_only -> Run)

(* Whether an initial packet may record and consolidate: every NF must be
   trusted on the fast path.  Degraded and [Failed + Slow_path_only] NFs
   are not; Bypass/Drop_flow failures are (the NF contributes nothing, or
   a plain drop rule). *)
let allow_recording t names =
  (not t.active)
  || Array.for_all
       (fun nf ->
         match Health.state t.health nf with
         | Health.Healthy -> true
         | Health.Degraded -> false
         | Health.Failed -> (
             match Health.on_failure t.health nf with
             | Health.Bypass | Health.Drop_flow -> true
             | Health.Slow_path_only -> false))
       names

let contained t = t.contained

let corrupted t = t.corrupted

let stalled t = t.stalled

let quarantines t = t.quarantines

let faulted_packets t = t.faulted_packets

let total_faults t = t.contained + t.corrupted + t.stalled

(* A plan's supervisors share one health table and one injector: the
   counters sum, the table and the injector's total read once. *)
let summary sups =
  match sups with
  | first :: _ when List.exists active sups ->
      let lines = ref [] in
      let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
      let sum f = List.fold_left (fun n t -> n + f t) 0 sups in
      let injected =
        match first.injector with None -> 0 | Some inj -> Injector.total_injected inj
      in
      add "faults     : %d contained (%d injected), %d corrupted, %d stalled" (sum contained)
        injected (sum corrupted) (sum stalled);
      add "quarantine : %d flows torn down, %d packets dropped by containment" (sum quarantines)
        (sum faulted_packets);
      List.iter
        (fun (nf, state, faults) ->
          if faults > 0 then
            add "health     : %-12s %s (%d faults, on-failure %s)" nf
              (Format.asprintf "%a" Health.pp_state state)
              faults
              (Format.asprintf "%a" Health.pp_on_failure (Health.on_failure first.health nf)))
        (Health.snapshot first.health);
      List.rev !lines
  | _ -> []
