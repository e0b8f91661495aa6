type 'a next = Forward of string * 'a | Depart

type ('a, 'o) work = {
  serve : string -> 'a -> now:int -> hop:int -> int * 'o;
  complete : 'a -> 'o -> now:int -> 'a next;
  overflow : 'a -> unit;
}

type ('a, 'o) stage = {
  label : string;
  ring : 'a Ring.t;
  pending : 'a Queue.t;
      (* burst mode: jobs drained from the ring in one access, awaiting
         service.  Empty when burst = 1 (the job then stays in the ring
         until its completion). *)
  mutable in_service : ('a * 'o) option;
}

(* Completions sort before enqueues at the same instant (a departure frees
   its ring slot for a simultaneous arrival). *)
type ('a, 'o) event_kind = Complete of ('a, 'o) stage | Enqueue of string * 'a

let kind_rank = function Complete _ -> 0 | Enqueue _ -> 1

type ('a, 'o) event = { at : int; seq : int; kind : ('a, 'o) event_kind }

let compare_events a b =
  let c = Int.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
    if c <> 0 then c else Int.compare a.seq b.seq

let run ~ring_capacity ~burst work arrivals =
  if burst < 1 then invalid_arg "Stages.run: burst must be positive";
  if ring_capacity < 1 then invalid_arg "Stages.run: ring capacity must be positive";
  let heap = Min_heap.create ~cmp:compare_events in
  let seq = ref 0 in
  let schedule at kind =
    incr seq;
    Min_heap.push heap { at; seq = !seq; kind }
  in
  let stages : (string, ('a, 'o) stage) Hashtbl.t = Hashtbl.create 16 in
  let stage label =
    match Hashtbl.find_opt stages label with
    | Some s -> s
    | None ->
        let s =
          {
            label;
            ring = Ring.create ~capacity:ring_capacity;
            pending = Queue.create ();
            in_service = None;
          }
        in
        Hashtbl.replace stages label s;
        s
  in
  let start_service state job ~hop now =
    let service, outcome = work.serve state.label job ~now ~hop in
    state.in_service <- Some (job, outcome);
    schedule (now + service) (Complete state)
  in
  (* Unbatched (burst = 1): the stage serves the ring head in place, and
     the sending stage paid the per-job [ring_hop_onvm] when it forwarded.
     Burst mode: the stage drains up to [burst] jobs from the ring with ONE
     ring access — the hop is charged once, to the first job of the drain —
     and serves the drained batch back to back. *)
  let maybe_start state now =
    if Option.is_none state.in_service then
      if burst = 1 then begin
        match Ring.peek state.ring with
        | None -> ()
        | Some job -> start_service state job ~hop:0 now
      end
      else begin
        let hop =
          if Queue.is_empty state.pending then begin
            let rec drain k =
              if k < burst then
                match Ring.pop state.ring with
                | None -> ()
                | Some job ->
                    Queue.add job state.pending;
                    drain (k + 1)
            in
            drain 0;
            if Queue.is_empty state.pending then 0 else Cycles.ring_hop_onvm
          end
          else 0
        in
        match Queue.take_opt state.pending with
        | None -> ()
        | Some job -> start_service state job ~hop now
      end
  in
  let handle event =
    match event.kind with
    | Enqueue (label, job) ->
        let state = stage label in
        if Ring.push state.ring job then maybe_start state event.at else work.overflow job
    | Complete state -> (
        match state.in_service with
        | None -> assert false (* a completion implies a job in service *)
        | Some (job, outcome) ->
            state.in_service <- None;
            if burst = 1 then ignore (Ring.pop state.ring);
            (match work.complete job outcome ~now:event.at with
            | Forward (label, next) ->
                (* In burst mode the transfer itself is free; the next
                   stage's drain pays the (amortized) ring access. *)
                let hop = if burst = 1 then Cycles.ring_hop_onvm else 0 in
                schedule (event.at + hop) (Enqueue (label, next))
            | Depart -> ());
            maybe_start state event.at)
  in
  let previous = ref min_int in
  List.iter
    (fun (at, label, job) ->
      if at < !previous then invalid_arg "Stages.run: arrivals must be time-ordered";
      previous := at;
      schedule at (Enqueue (label, job)))
    arrivals;
  let rec drain () =
    match Min_heap.pop_min heap with
    | None -> ()
    | Some event ->
        handle event;
        drain ()
  in
  drain ()
