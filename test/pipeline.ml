open Sb_sim

type token = { id : int; arrival : int; services : (string * int) list }

type outcome = { id : int; departure : int }

type result = { completed : outcome list; dropped : int list }

(* Completions sort before enqueues at the same instant: a departure at
   time t frees its ring slot for an arrival at t, matching Queueing's
   drain-then-check semantics. *)
type event_kind = Complete of string | Enqueue of (token * (string * int) list)

let kind_rank = function Complete _ -> 0 | Enqueue _ -> 1

type event = { at : int; seq : int; kind : event_kind }

let compare_events a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
    if c <> 0 then c else Int.compare a.seq b.seq

(* The in-service token stays at the head of the ring until completion, so
   ring capacity bounds waiting + in-service, as in Queueing. *)
type stage_state = { queue : (token * (string * int) list) Ring.t; mutable busy : bool }

let run ?(ring_capacity = 64) ?(hop_cycles = Cycles.ring_hop_onvm) tokens =
  let events = Min_heap.create ~cmp:compare_events in
  let seq = ref 0 in
  let schedule at kind =
    incr seq;
    Min_heap.push events { at; seq = !seq; kind }
  in
  let stages : (string, stage_state) Hashtbl.t = Hashtbl.create 8 in
  let stage label =
    match Hashtbl.find_opt stages label with
    | Some s -> s
    | None ->
        let s = { queue = Ring.create ~capacity:ring_capacity; busy = false } in
        Hashtbl.replace stages label s;
        s
  in
  let completed = ref [] and dropped = ref [] in
  List.iter (fun token -> schedule token.arrival (Enqueue (token, token.services))) tokens;
  let maybe_start label state now =
    if not state.busy then begin
      match Ring.peek state.queue with
      | None -> ()
      | Some (_, []) -> assert false (* zero-stage tokens never enqueue *)
      | Some (_, (l, service) :: _) ->
          assert (String.equal l label);
          state.busy <- true;
          schedule (now + service) (Complete label)
    end
  in
  let handle event =
    match event.kind with
    | Enqueue (token, []) -> completed := { id = token.id; departure = event.at } :: !completed
    | Enqueue (token, ((label, _) :: _ as services)) ->
        let state = stage label in
        if Ring.push state.queue (token, services) then maybe_start label state event.at
        else dropped := token.id :: !dropped
    | Complete label -> (
        let state = stage label in
        state.busy <- false;
        match Ring.pop state.queue with
        | None | Some (_, []) -> assert false (* a completion implies a served head *)
        | Some (token, _ :: rest) ->
            (match rest with
            | [] -> completed := { id = token.id; departure = event.at } :: !completed
            | _ :: _ -> schedule (event.at + hop_cycles) (Enqueue (token, rest)));
            maybe_start label state event.at)
  in
  let rec drain () =
    match Min_heap.pop_min events with
    | None -> ()
    | Some event ->
        handle event;
        drain ()
  in
  drain ();
  { completed = List.rev !completed; dropped = List.rev !dropped }
