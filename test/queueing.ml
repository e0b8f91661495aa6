open Sb_sim

type config = { platform : Platform.t; ring_capacity : int }

let config ?(ring_capacity = 64) platform = { platform; ring_capacity }

type arrival = { at : int; profile : Cost_profile.t }

type result = {
  offered : int;
  completed : int;
  dropped : int;
  sojourn_us : Stats.t;
  makespan_cycles : int;
  achieved_mpps : float;
}

type server = { queue : int Ring.t (* departure cycles, FIFO *); mutable last_departure : int }

let fresh_server capacity = { queue = Ring.create ~capacity; last_departure = 0 }

(* Enqueue work of [service] cycles at time [t]; [None] on tail drop,
   otherwise the departure cycle. *)
let offer server ~t ~service =
  let rec drain () =
    match Ring.peek server.queue with
    | Some dep when dep <= t ->
        ignore (Ring.pop server.queue);
        drain ()
    | Some _ | None -> ()
  in
  drain ();
  if Ring.is_full server.queue then None
  else begin
    let start = max t server.last_departure in
    let departure = start + service in
    let pushed = Ring.push server.queue departure in
    assert pushed (* just checked not full *);
    server.last_departure <- departure;
    Some departure
  end

let simulate cfg arrivals =
  let servers : (string, server) Hashtbl.t = Hashtbl.create 16 in
  let server label =
    match Hashtbl.find_opt servers label with
    | Some s -> s
    | None ->
        let s = fresh_server cfg.ring_capacity in
        Hashtbl.replace servers label s;
        s
  in
  let sojourn_us = Stats.create () in
  let completed = ref 0 and dropped = ref 0 in
  let last_departure_seen = ref 0 in
  let first_arrival = match arrivals with [] -> 0 | a :: _ -> a.at in
  let previous_at = ref min_int in
  List.iter
    (fun arrival ->
      if arrival.at < !previous_at then
        invalid_arg "Queueing.simulate: arrivals must be time-ordered";
      previous_at := arrival.at;
      let finish departure =
        incr completed;
        last_departure_seen := max !last_departure_seen departure;
        Stats.add sojourn_us (Cycles.to_microseconds (departure - arrival.at))
      in
      match cfg.platform with
      | Platform.Bess -> (
          (* The whole profile occupies the single chain core. *)
          let service = Platform.latency_cycles cfg.platform arrival.profile in
          match offer (server "core") ~t:arrival.at ~service with
          | Some departure -> finish departure
          | None -> incr dropped)
      | Platform.Onvm ->
          (* Hop across one server per stage label. *)
          let rec walk t = function
            | [] -> finish t
            | stage :: rest -> (
                let service = Cost_profile.stage_cycles stage in
                match offer (server stage.Cost_profile.label) ~t ~service with
                | None -> incr dropped
                | Some departure ->
                    let t = departure + if rest = [] then 0 else Cycles.ring_hop_onvm in
                    walk t rest)
          in
          walk arrival.at arrival.profile)
    arrivals;
  let makespan = max 1 (!last_departure_seen - first_arrival) in
  {
    offered = List.length arrivals;
    completed = !completed;
    dropped = !dropped;
    sojourn_us;
    makespan_cycles = makespan;
    achieved_mpps = float_of_int !completed *. Cycles.frequency_ghz *. 1000. /. float_of_int makespan;
  }
