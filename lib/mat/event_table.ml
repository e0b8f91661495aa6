type update = {
  nf : string;
  one_shot : bool;
  (* The condition reads global-scope state (lib/state): it depends on
     other shards' contributions, so it must only be trusted at merge
     points.  Purely diagnostic here — the executors use the count to
     decide whether merge rounds are worth running. *)
  global_state : bool;
  new_actions : (unit -> Header_action.t list) option;
  new_state_functions : (unit -> State_function.t list) option;
  update_fn : (unit -> unit) option;
}

let update ~nf ?(one_shot = true) ?(global_state = false) ?new_actions ?new_state_functions
    ?update_fn () =
  { nf; one_shot; global_state; new_actions; new_state_functions; update_fn }

(* What a flow's registration allocates: the event and its list cell.
   The update is the registering NF's, often shared by every flow. *)
type event = { condition : unit -> bool; update : update; mutable armed : bool }

type t = {
  flows : event list Sb_flow.Flat_table.t;
  mutable fired : update list;  (* the last [poll_armed]'s firings *)
  mutable condition_faults : int;
  mutable on_fault : string -> exn -> unit;
  mutable obs : Sb_obs.Sink.t;
}

let create () =
  {
    flows = Sb_flow.Flat_table.create ();
    fired = [];
    condition_faults = 0;
    on_fault = (fun _ _ -> ());
    obs = Sb_obs.Sink.null;
  }

let set_fault_hook t f = t.on_fault <- f

let set_obs t obs = t.obs <- obs

(* Firings and condition faults are rare, so these go through the registry
   per occurrence; the per-packet [poll] on event-free flows never reaches
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

let register t ~fid ~condition update =
  let event = { condition; update; armed = true } in
  let s = Sb_flow.Flat_table.find_slot t.flows fid in
  if s < 0 then Sb_flow.Flat_table.set t.flows fid [ event ]
  else
    Sb_flow.Flat_table.set_value_at t.flows s (Sb_flow.Flat_table.value_at t.flows s @ [ event ])

let armed_list t fid =
  let s = Sb_flow.Flat_table.find_slot t.flows fid in
  if s < 0 then [] else List.filter (fun e -> e.armed) (Sb_flow.Flat_table.value_at t.flows s)

let armed_count t fid = List.length (armed_list t fid)

(* One armed event's condition: [Some update] when it fires.  A raising
   condition is a fault of the registering NF, not of the flow: disarm
   just that event, count it, and keep the flow's other events and its
   consolidated rule usable. *)
let fire_one t e =
  match e.condition () with
  | true ->
      if e.update.one_shot then e.armed <- false;
      obs_count t "speedybox_events_fired_total" ~nf:e.update.nf;
      Some e.update
  | false -> None
  | exception exn ->
      e.armed <- false;
      t.condition_faults <- t.condition_faults + 1;
      obs_count t "speedybox_event_condition_faults_total" ~nf:e.update.nf;
      t.on_fault e.update.nf exn;
      None

let fire t armed = List.filter_map (fire_one t) armed

let check t fid = fire t (armed_list t fid)

(* The fast path's poll: one pass over the flow's events that counts the
   armed ones and evaluates their conditions in order, consing an update
   only when one fires.  A quiet flow — the steady state — allocates
   nothing. *)
let rec poll_events t armed rev_fired = function
  | [] ->
      t.fired <- List.rev rev_fired;
      armed
  | e :: rest when not e.armed -> poll_events t armed rev_fired rest
  | e :: rest ->
      let rev_fired =
        match fire_one t e with Some u -> u :: rev_fired | None -> rev_fired
      in
      poll_events t (armed + 1) rev_fired rest

let poll_armed t fid =
  let s = Sb_flow.Flat_table.find_slot t.flows fid in
  if s < 0 then begin
    t.fired <- [];
    0
  end
  else poll_events t 0 [] (Sb_flow.Flat_table.value_at t.flows s)

let last_fired t = t.fired

let remove_flow t fid = Sb_flow.Flat_table.remove t.flows fid

let total_armed t =
  Sb_flow.Flat_table.fold
    (fun _ events acc -> acc + List.length (List.filter (fun e -> e.armed) events))
    t.flows 0

let total_global_armed t =
  Sb_flow.Flat_table.fold
    (fun _ events acc ->
      acc + List.length (List.filter (fun e -> e.armed && e.update.global_state) events))
    t.flows 0
