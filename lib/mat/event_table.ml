type trigger = Per_packet | Epoch of { mutable now : int }

let epoch () = Epoch { now = 0 }

let bump = function Epoch e -> e.now <- e.now + 1 | Per_packet -> ()

type update = {
  nf : string;
  one_shot : bool;
  (* The condition reads global-scope state (lib/state): it depends on
     other shards' contributions, so it must only be trusted at merge
     points.  Purely diagnostic here — the executors use the count to
     decide whether merge rounds are worth running. *)
  global_state : bool;
  trigger : trigger;
  new_actions : (unit -> Header_action.t list) option;
  new_state_functions : (unit -> State_function.t list) option;
}

let update ~nf ?(one_shot = true) ?(global_state = false) ?(trigger = Per_packet) ?new_actions
    ?new_state_functions () =
  { nf; one_shot; global_state; trigger; new_actions; new_state_functions }

(* What a flow's registration allocates: the event and its list cell.
   The update is the registering NF's, often shared by every flow.
   [seen] is the event's whole state: [disarmed], [due] (evaluate at the
   next poll), or the epoch value at which its [Epoch] condition last
   returned [false] (epochs count up from 0). *)
type event = { condition : unit -> bool; update : update; mutable seen : int }

let due = -1

let disarmed = -2

let no_walk = -1

type t = {
  (* In-flight events: the flow whose recording walk registered last has
     its events in the slot; only an interleaved walk (the staged
     executor's) parks another flow's in [parked].  A FID's events are in
     one place or the other, never both. *)
  mutable walk_fid : Sb_flow.Fid.t;
  mutable walk : event list;
  parked : event list Sb_flow.Flat_table.t;
  mutable residents : (Sb_flow.Fid.t -> event list -> int -> int) -> int -> int;
  mutable fired : update list;  (* the last [poll]'s firings *)
  mutable evaluations : int;
  mutable condition_faults : int;
  mutable on_fault : string -> exn -> unit;
  mutable obs : Sb_obs.Sink.t;
}

let create () =
  {
    walk_fid = no_walk;
    walk = [];
    parked = Sb_flow.Flat_table.create ();
    residents = (fun _ acc -> acc);
    fired = [];
    evaluations = 0;
    condition_faults = 0;
    on_fault = (fun _ _ -> ());
    obs = Sb_obs.Sink.null;
  }

let set_fault_hook t f = t.on_fault <- f

let set_obs t obs = t.obs <- obs

let set_residents t fold = t.residents <- fold

(* Firings and condition faults are rare, so these go through the registry
   per occurrence; the per-packet [poll] of a quiet flow never reaches
   them. *)
let obs_count t name ~nf =
  if Sb_obs.Sink.armed t.obs then
    match Sb_obs.Sink.metrics t.obs with
    | Some m ->
        Sb_obs.Metrics.Counter.incr
          (Sb_obs.Metrics.counter m ~labels:[ ("nf", nf) ]
             ~help:"Event Table activity by registering NF" name)
    | None -> ()

let condition_faults t = t.condition_faults

let evaluations t = t.evaluations

let take_parked t fid =
  if Sb_flow.Flat_table.length t.parked = 0 then []
  else
    let s = Sb_flow.Flat_table.find_slot t.parked fid in
    if s < 0 then []
    else begin
      let events = Sb_flow.Flat_table.value_at t.parked s in
      Sb_flow.Flat_table.remove_at t.parked s;
      events
    end

let take t fid =
  if fid = t.walk_fid then begin
    let events = t.walk in
    t.walk <- [];
    t.walk_fid <- no_walk;
    events
  end
  else take_parked t fid

let remove_flow t fid = ignore (take t fid)

let register t ~fid ~condition update =
  if fid <> t.walk_fid then begin
    (* Another walk's registrations interleave: park the slot's. *)
    (match t.walk with [] -> () | walk -> Sb_flow.Flat_table.set t.parked t.walk_fid walk);
    t.walk <- take_parked t fid;
    t.walk_fid <- fid
  end;
  t.walk <- t.walk @ [ { condition; update; seen = due } ]

let in_flight t fid =
  if fid = t.walk_fid then t.walk
  else if Sb_flow.Flat_table.length t.parked = 0 then []
  else Option.value ~default:[] (Sb_flow.Flat_table.find t.parked fid)

let is_armed e = e.seen <> disarmed

let is_due e =
  e.seen = due
  || (e.seen >= 0 && match e.update.trigger with Epoch ep -> ep.now <> e.seen | Per_packet -> true)

let condition e = e.condition

let event_update e = e.update

(* One due event's condition: [Some update] when it fires.  A [false]
   under an [Epoch] trigger records the epoch read before the call, so a
   bump during the call leaves the event due.  A raising condition is a
   fault of the registering NF, not of the flow: disarm just that event,
   count it, and keep the flow's other events and its consolidated rule
   usable. *)
let fire_one t e =
  t.evaluations <- t.evaluations + 1;
  let at = match e.update.trigger with Epoch ep -> ep.now | Per_packet -> due in
  match e.condition () with
  | true ->
      e.seen <- (if e.update.one_shot then disarmed else due);
      obs_count t "speedybox_events_fired_total" ~nf:e.update.nf;
      Some e.update
  | false ->
      e.seen <- at;
      None
  | exception exn ->
      e.seen <- disarmed;
      t.condition_faults <- t.condition_faults + 1;
      obs_count t "speedybox_event_condition_faults_total" ~nf:e.update.nf;
      t.on_fault e.update.nf exn;
      None

(* The fast path's poll: one pass over the rule's events that counts the
   armed ones and evaluates the due ones in order, consing an update only
   when one fires.  A quiet flow — the steady state — allocates
   nothing. *)
let rec poll_events t armed rev_fired = function
  | [] ->
      t.fired <- List.rev rev_fired;
      armed
  | e :: rest when e.seen = disarmed -> poll_events t armed rev_fired rest
  | e :: rest when not (is_due e) -> poll_events t (armed + 1) rev_fired rest
  | e :: rest ->
      let rev_fired =
        match fire_one t e with Some u -> u :: rev_fired | None -> rev_fired
      in
      poll_events t (armed + 1) rev_fired rest

let poll t events = poll_events t 0 [] events

let last_fired t = t.fired

let count_if p events = List.fold_left (fun n e -> if p e then n + 1 else n) 0 events

let armed events = count_if is_armed events

let count t p =
  let of_events _ events acc = acc + count_if p events in
  t.residents of_events
    (Sb_flow.Flat_table.fold of_events t.parked (of_events t.walk_fid t.walk 0))

let armed_count t fid =
  count_if is_armed (in_flight t fid)
  + t.residents (fun f events acc -> if f = fid then acc + armed events else acc) 0

let total_armed t = count t is_armed

let total_global_armed t = count t (fun e -> is_armed e && e.update.global_state)
