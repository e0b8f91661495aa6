(* The benchmark's workloads and the replay loop that drives them.

   Every workload is a closed loop: one client hands the executor its next
   dispatch only after the previous one returned.  Traffic comes from the
   DCN-style generator seeded by [--seed] and is built once into a "pass";
   each timed pass replays it through the same executor.  Replays are
   identical (same tuples, so NAT mappings and per-flow NF cells are reused
   rather than leaked), except on [edge-churn], whose arrival clock moves
   forward by a whole pass each replay so idle expiry keeps firing.

   Every workload runs on one runtime and one thread; the sharded
   executors are replayed only by the traced run's probes. *)

open Speedybox
module P = Sb_packet.Packet
module Dcn = Sb_trace.Workload

let burst = Runtime.default_burst

type dispatch =
  | Burst  (** [Runtime.process_burst_into], 32 packets per call *)
  | Per_packet  (** [Runtime.process_packet], one packet per call *)
  | Det2  (** [Sharded.run_trace] over 2 shards, single-threaded *)
  | Par2
      (** [Parallel_exec.run_trace] over 2 shards on 2 domains.  The sharded
          executors own their bursts: each replay is one call over the
          whole pass, as [speedybox run --shard-parallel] makes it. *)

type t = {
  name : string;
  chain : string;  (** a [Chain_registry] name or chain spec *)
  per_packet : bool;  (** [Per_packet] dispatch rather than [Burst] *)
  segment : int;
      (** packets per timed segment of a pass, a multiple of [burst]: about
          2 ms of work, short enough that each segment has replays the
          machine left alone *)
  traffic : Dcn.dcn_config;  (** [seed] is replaced by the run's seed *)
  smoke_flows : int;  (** flow count for the smoke test's ~2k-packet pass *)
  churn : bool;
      (** flows end idle, Poisson arrival clock shifted each replay, idle
          expiry at an eighth of a pass *)
}

let dispatch wl = if wl.per_packet then Per_packet else Burst

(* 4600 flows rather than 4000: at 4000 a Global MAT table sat at its
   resize threshold, so the live heap after set-up stepped by 0.4 MB on 4
   seeds in 20. *)
let dcn =
  {
    Dcn.default_dcn with
    n_flows = 4600;
    mean_flow_packets = 16.;
    payload_len = (16, 512);
    udp_fraction = 0.1;
    malicious_fraction = 0.;
    tokens = [];
  }

let all =
  [
    {
      name = "dcn-fastpath";
      chain = "chain1";
      per_packet = false;
      segment = 1024;
      traffic = dcn;
      smoke_flows = 100;
      churn = false;
    };
    {
      name = "dcn-perpacket";
      chain = "chain1";
      per_packet = true;
      segment = 1024;
      traffic = dcn;
      smoke_flows = 100;
      churn = false;
    };
    {
      name = "edge-churn";
      (* The registry's [edge] chain with Gateway moved last.  Idle expiry
         hands [Nf.remove_flow] the ingress tuple, but behind Gateway the
         Monitor and DoS guard key their cells by the rewritten tuple, so
         in [edge] those cells are never reclaimed: replayed port-80 flows
         accumulate counts until the guard cuts them off. *)
      chain = "statefulfw,monitor,dosguard:200,gateway";
      per_packet = false;
      segment = 512;
      traffic = { dcn with n_flows = 20_000; mean_flow_packets = 2.; payload_len = (16, 128) };
      smoke_flows = 600;
      churn = true;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

type pass = {
  packets : P.t array;  (** what every replay sends, never mutated *)
  shift : int;  (** arrival-clock advance per replay; 0 for identical replay *)
  idle_timeout : int option;
}

(* The distinct tuples among [tuples] whose [bits]-wide FIDs collide with
   another distinct tuple's, and the number of distinct tuples. *)
let colliding ~bits tuples =
  let distinct = Hashtbl.create 4096 in
  List.iter (fun t -> Hashtbl.replace distinct t ()) tuples;
  let by_fid = Hashtbl.create 4096 in
  let fid t = Sb_flow.Fid.of_tuple ~bits t in
  Hashtbl.iter
    (fun t () ->
      Hashtbl.replace by_fid (fid t) (1 + Option.value (Hashtbl.find_opt by_fid (fid t)) ~default:0))
    distinct;
  let bad = Hashtbl.create 16 in
  Hashtbl.iter (fun t () -> if Hashtbl.find by_fid (fid t) > 1 then Hashtbl.replace bad t ()) distinct;
  (bad, Hashtbl.length distinct)

let tuples packets = List.filter_map Sb_flow.Five_tuple.of_packet_opt packets

(* Offered rate of [edge-churn]'s Poisson clock: a 2000-cycle mean gap. *)
let churn_rate_mpps = 1.0

let make_pass wl ~seed ~smoke =
  let traffic =
    { wl.traffic with seed; n_flows = (if smoke then wl.smoke_flows else wl.traffic.n_flows) }
  in
  let packets =
    if wl.churn then begin
      (* Churned flows end by going idle, never by FIN/RST: the DoS guard's
         and Monitor's per-flow cells survive a FIN teardown by design, so
         replaying FIN'd tuples would accumulate their counts until the
         guard cut the flows off, while idle expiry reclaims the cells
         through [Nf.remove_flow].

         Flows whose 20-bit FIDs collide are left out: with idle expiry
         on, two flows sharing a FID make burst-32 and per-packet dispatch
         disagree (the correctness gate caught it on 1 seed in 20), so
         such a pass could not be checked.  The rendering otherwise follows
         [dcn_trace]. *)
      let flows = Dcn.dcn_flows traffic in
      let bad, _ =
        colliding ~bits:Sb_flow.Fid.default_bits (List.map (fun f -> f.Dcn.tuple) flows)
      in
      flows
      |> List.filter (fun f -> not (Hashtbl.mem bad f.Dcn.tuple))
      |> List.map (fun f -> Dcn.packets_of_flow { f with Dcn.close = Dcn.Stay_open })
      |> Dcn.interleave (Sb_trace.Rng.create (seed + 1))
      |> Dcn.with_poisson_times ~seed ~rate_mpps:churn_rate_mpps
    end
    else Dcn.dcn_trace traffic
  in
  let packets = Array.of_list packets in
  let shift, idle_timeout =
    if wl.churn then begin
      let last = packets.(Array.length packets - 1).P.ingress_cycle in
      let span = last + int_of_float (2000. /. churn_rate_mpps) in
      (span, Some (span / 8))
    end
    else (0, None)
  in
  { packets; shift; idle_timeout }

let config ?(mode = Runtime.Speedybox) ?(fid_bits = Sb_flow.Fid.default_bits) ?(expiry = true)
    ?obs ?state pass =
  Runtime.config ~mode ~fid_bits
    ?idle_timeout_cycles:(if expiry then pass.idle_timeout else None)
    ?obs ?state ()

let chain_builder wl =
  match Sb_experiments.Chain_registry.build wl.chain with
  | Ok build -> build
  | Error msg -> invalid_arg msg

type exec =
  | Single of { rt : Runtime.t; per_packet : bool }
  | Sharded of {
      plan : Sb_shard.Sharded.t;
      store : Sb_state.Store.t;
      parallel : bool;
      trace : P.t list;  (** the pass *)
    }

type replay = {
  pass : pass;
  segment : int;  (** the workload's *)
  exec : exec;
  pool : P.t array;  (** ingress scratch the originals are copied into *)
  mutable replays : int;
}

let segment_count (wl : t) pass = (Array.length pass.packets + wl.segment - 1) / wl.segment

let replay ?mode ?obs wl pass dispatch =
  let exec =
    match dispatch with
    | Burst | Per_packet ->
        Single
          {
            rt = Runtime.create (config ?mode pass) (chain_builder wl ());
            per_packet = dispatch = Per_packet;
          }
    | Det2 | Par2 ->
        let store = Sb_state.Store.create ~shards:2 () in
        let build =
          match Sb_experiments.Chain_registry.build_sharded ~store wl.chain with
          | Ok build -> build
          | Error msg -> invalid_arg msg
        in
        Sharded
          {
            plan =
              Sb_shard.Sharded.create ~shards:2 (config ?mode ?obs ~state:store pass) build;
            store;
            parallel = dispatch = Par2;
            trace = Array.to_list pass.packets;
          }
  in
  { pass; segment = wl.segment; exec; pool = Array.init burst (fun _ -> P.scratch ()); replays = 0 }

let runtimes r =
  match r.exec with
  | Single { rt; _ } -> [ rt ]
  | Sharded { plan; _ } ->
      List.init (Sb_shard.Sharded.shard_count plan) (Sb_shard.Sharded.runtime plan)

let store r =
  match r.exec with Single { rt; _ } -> Runtime.state rt | Sharded { store; _ } -> store

let plan r =
  match r.exec with
  | Sharded { plan; _ } -> plan
  | Single _ -> invalid_arg "Workloads.plan: not a sharded replay"

(* Span ids of the timed loop's layers, in [span_names] order. *)
let span_dispatch = 0
let span_copy = 1
let span_consume = 2
let span_names = [| "dispatch"; "packet.copy"; "acc.consume" |]

(* One replay of the pass.  Returns the run results and the wall time of
   the replay in ns.  On a single runtime, [times] receives the wall time
   of each of the pass's [segment_count] segments, and [lat] each
   dispatch's: the ingress copy of its packets, the executor call and
   the emit -> [Runtime.Acc.consume] fold.  [spans] brackets the same
   calls for the traced run.  A sharded replay is one call, timed
   whole. *)
let run ?lat ?spans ?times r =
  let shift = r.replays * r.pass.shift in
  r.replays <- r.replays + 1;
  match r.exec with
  | Single { rt; per_packet } ->
      let enter id = match spans with Some s -> Spans.enter s id | None -> () in
      let leave () = match spans with Some s -> Spans.leave s | None -> () in
      let stamp () = match lat with Some _ -> Clock.ns () | None -> 0 in
      let record t0 = match lat with Some l -> Lat.add l (Clock.ns () - t0) | None -> () in
      let orig = r.pass.packets and pool = r.pool in
      let n = Array.length orig in
      let acc = Runtime.Acc.create () in
      let base = ref 0 in
      let emit k out =
        enter span_consume;
        Runtime.Acc.consume acc orig.(!base + k) out;
        leave ()
      in
      let step = if per_packet then 1 else burst in
      let start = Clock.ns () in
      let mark = ref start in
      let i = ref 0 in
      while !i < n do
        let len = min step (n - !i) in
        base := !i;
        let t0 = stamp () in
        enter span_dispatch;
        enter span_copy;
        for k = 0 to len - 1 do
          let p = pool.(k) in
          P.copy_into ~src:orig.(!i + k) ~dst:p;
          if shift <> 0 then p.P.ingress_cycle <- p.P.ingress_cycle + shift
        done;
        leave ();
        if per_packet then emit 0 (Runtime.process_packet rt pool.(0))
        else Runtime.process_burst_into rt pool ~off:0 ~len emit;
        leave ();
        record t0;
        i := !i + len;
        match times with
        | Some times when !i mod r.segment = 0 || !i = n ->
            let now = Clock.ns () in
            times.((!i - 1) / r.segment) <- now - !mark;
            mark := now
        | Some _ | None -> ()
      done;
      ([ Runtime.Acc.result acc ], Clock.ns () - start)
  | Sharded { plan; parallel; trace; _ } ->
      (* The sharded executors copy from the originals themselves, so a
         shifted replay materialises shifted originals before the clock
         starts. *)
      let trace =
        if shift = 0 then trace
        else
          List.map
            (fun p ->
              let c = P.copy p in
              c.P.ingress_cycle <- c.P.ingress_cycle + shift;
              c)
            trace
      in
      let start = Clock.ns () in
      let result =
        if parallel then Sb_shard.Parallel_exec.run_trace ~burst plan trace
        else Sb_shard.Sharded.run_trace ~burst plan trace
      in
      ([ result ], Clock.ns () - start)
