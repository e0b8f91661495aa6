(* Declared event triggers against the always-evaluate poll.

   Maglev's reroute condition declares the alive epoch as its trigger, so
   a fast-path packet evaluates it only after a backend failed or came
   back.  The property runs each random case twice: once as the runtime
   does, and once as the oracle, with every epoch moved before each
   packet so each poll evaluates every armed condition (test/
   event_oracle.ml).  Before each packet of the first run it also calls
   every armed condition of the packet's rule directly: a condition the
   poll will skip must return [false], and the updates the poll fires
   must be exactly those whose condition returns [true]. *)
open Sb_packet
module Event_table = Sb_mat.Event_table
module Global_mat = Sb_mat.Global_mat
module Runtime = Speedybox.Runtime
module Chain = Speedybox.Chain

type action = Fail of int | Restore of int

type case = {
  nat : bool;  (* MazuNAT before Maglev *)
  backends : int;
  suffix : [ `Monitor | `Dos of int ] list;  (* NFs after Maglev *)
  seed : int;
  n_flows : int;
  schedule : (int * action) list;  (* before packet [k], per mille of the trace *)
  burst : int;
}

let print_case c =
  Printf.sprintf "nat=%b backends=%d suffix=[%s] seed=%d flows=%d burst=%d schedule=[%s]" c.nat
    c.backends
    (String.concat ","
       (List.map (function `Monitor -> "monitor" | `Dos k -> Printf.sprintf "dosguard:%d" k) c.suffix))
    c.seed c.n_flows c.burst
    (String.concat ","
       (List.map
          (fun (at, a) ->
            match a with
            | Fail i -> Printf.sprintf "%d:fail b%d" at i
            | Restore i -> Printf.sprintf "%d:restore b%d" at i)
          c.schedule))

let gen_case ~burst =
  let open QCheck.Gen in
  let* nat = bool in
  let* backends = int_range 2 5 in
  let* threshold = int_range 2 12 in
  let* suffix =
    oneofl
      [ []; [ `Monitor ]; [ `Dos threshold ]; [ `Monitor; `Dos threshold ]; [ `Dos threshold; `Monitor ] ]
  in
  let* seed = int_range 0 10_000 in
  let* n_flows = int_range 4 20 in
  let action = map2 (fun fail i -> if fail then Fail i else Restore i) bool (int_range 0 (backends - 1)) in
  let* schedule = list_size (int_range 0 8) (pair (int_range 0 999) action) in
  return { nat; backends; suffix; seed; n_flows; schedule; burst }

let build c =
  let lb =
    Sb_nf.Maglev.create
      ~backends:
        (List.init c.backends (fun i -> (Printf.sprintf "b%d" i, Ipv4_addr.of_octets 192 168 2 (10 + i))))
      ()
  in
  let suffix =
    List.map
      (function
        | `Monitor -> Sb_nf.Monitor.nf (Sb_nf.Monitor.create ())
        | `Dos k -> Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:k ()))
      c.suffix
  in
  let nat =
    if c.nat then [ Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.1") ()) ]
    else []
  in
  (lb, Chain.create ~name:"event-oracle" (nat @ (Sb_nf.Maglev.nf lb :: suffix)))

let trace c =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = c.seed;
      n_flows = c.n_flows;
      mean_flow_packets = 10.;
      payload_len = (16, 256);
      udp_fraction = 0.3;
      malicious_fraction = 0.;
      tokens = [];
    }
  |> Array.of_list

(* One run's per-packet record. *)
type run = {
  verdicts : Sb_mat.Header_action.verdict array;
  wires : string array;
  fired : Event_table.update list array;
  evaluations : int;
  digest : string;
}

let fid_of p = if Sb_flow.Five_tuple.admits p then Sb_flow.Fid.of_packet p else -1

(* Replays [c]'s trace in bursts of [c.burst], running [c.schedule]'s
   control actions and [before k rule_events] ahead of packet [k] (inside
   a burst, from the previous packet's emit: admission of the next packet
   reads no NF state). *)
let replay c ~before =
  let lb, chain = build c in
  let rt = Runtime.create (Runtime.config ()) chain in
  let gm = Runtime.global_mat rt and events = Chain.events chain in
  let packets = Array.map Packet.copy (trace c) in
  let n = Array.length packets in
  let fids = Array.map fid_of packets in
  let verdicts = Array.make n Sb_mat.Header_action.Forwarded in
  let fired = Array.make n [] in
  let ahead k =
    List.iter
      (fun (at, a) ->
        if at * n / 1000 = k then
          match a with
          | Fail i -> Sb_nf.Maglev.fail_backend lb (Printf.sprintf "b%d" i)
          | Restore i -> Sb_nf.Maglev.restore_backend lb (Printf.sprintf "b%d" i))
      c.schedule;
    let rule = if fids.(k) < 0 then Global_mat.no_rule else Global_mat.lookup gm fids.(k) in
    before k (if rule == Global_mat.no_rule then [] else Global_mat.rule_events rule)
  in
  let off = ref 0 in
  while !off < n do
    let base = !off in
    let len = min c.burst (n - base) in
    ahead base;
    Runtime.process_burst_into rt packets ~off:base ~len (fun j out ->
        let k = base + j in
        verdicts.(k) <- out.Runtime.verdict;
        if out.Runtime.events_fired > 0 then fired.(k) <- Event_table.last_fired events;
        if j + 1 < len then ahead (k + 1));
    off := base + len
  done;
  {
    verdicts;
    wires = Array.map Packet.wire packets;
    fired;
    evaluations = Event_table.evaluations events;
    digest = Chain.state_digest chain;
  }

let names updates =
  String.concat "," (List.map (fun (u : Event_table.update) -> u.Event_table.nf) updates)

let check_case c =
  (* The runtime's run: the poll must fire exactly the updates whose
     conditions hold, and skip only conditions that return [false]. *)
  let predicted = Hashtbl.create 64 in
  let epoch_run =
    replay c ~before:(fun k evs ->
        List.iter
          (fun e ->
            if Event_table.is_armed e && (not (Event_table.is_due e)) && Event_table.condition e ()
            then QCheck.Test.fail_reportf "packet %d: the poll skips a condition that holds" k)
          evs;
        Hashtbl.replace predicted k (Event_oracle.fires evs))
  in
  let oracle_run = replay c ~before:(fun _ evs -> Event_oracle.force_due evs) in
  Array.iteri
    (fun k fired ->
      let expected = Option.value ~default:[] (Hashtbl.find_opt predicted k) in
      if not (List.length fired = List.length expected && List.for_all2 ( == ) fired expected)
      then
        QCheck.Test.fail_reportf "packet %d: fired [%s], the oracle poll fires [%s]" k
          (names fired) (names expected);
      if names fired <> names oracle_run.fired.(k) then
        QCheck.Test.fail_reportf "packet %d: fired [%s], the oracle run fired [%s]" k
          (names fired) (names oracle_run.fired.(k));
      if epoch_run.verdicts.(k) <> oracle_run.verdicts.(k) then
        QCheck.Test.fail_reportf "packet %d: verdicts differ" k;
      if not (String.equal epoch_run.wires.(k) oracle_run.wires.(k)) then
        QCheck.Test.fail_reportf "packet %d: output bytes differ" k)
    epoch_run.fired;
  if not (String.equal epoch_run.digest oracle_run.digest) then
    QCheck.Test.fail_reportf "state digests differ:\n%s\n--\n%s" epoch_run.digest oracle_run.digest;
  if epoch_run.evaluations > oracle_run.evaluations then
    QCheck.Test.fail_reportf "the epoch poll evaluated %d conditions, the oracle %d"
      epoch_run.evaluations oracle_run.evaluations;
  true

let prop_epoch_poll ~burst =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "epoch poll = always-evaluate poll (burst %d)" burst)
    (QCheck.make ~print:print_case (gen_case ~burst))
    check_case

(* A fixed case whose schedule fails and restores the flows' backends
   mid-trace: events fire, and the epoch poll evaluates fewer conditions
   than the oracle. *)
let test_fixed_case_fires () =
  let c =
    {
      nat = false;
      backends = 3;
      suffix = [ `Monitor ];
      seed = 5;
      n_flows = 12;
      schedule = [ (300, Fail 0); (500, Fail 1); (700, Restore 0); (800, Restore 1) ];
      burst = 32;
    }
  in
  ignore (check_case c);
  let run = replay c ~before:(fun _ _ -> ()) in
  let oracle = replay c ~before:(fun _ evs -> Event_oracle.force_due evs) in
  let fires = Array.fold_left (fun n l -> n + List.length l) 0 run.fired in
  Alcotest.(check bool) "events fire" true (fires > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer evaluations (%d vs %d)" run.evaluations oracle.evaluations)
    true
    (run.evaluations < oracle.evaluations)

(* ---- The steady fast path: Maglev's condition stays unevaluated ---- *)

let chain1 () =
  match Sb_experiments.Chain_registry.build "chain1" with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

let replay_steady rt =
  Array.fold_left
    (fun fast p ->
      let out = Runtime.process_packet rt (Packet.copy p) in
      if out.Runtime.path = Runtime.Fast_path then fast + 1 else fast)
    0 (Test_alloc.steady_trace ())

(* A warmed chain1 replay of the allocation suite's steady trace: every
   flow's rule carries Maglev's armed reroute event, and no fast-path
   packet evaluates it.  Warming takes two replays: a flow recorded on
   its last packet of the first evaluates its fresh event once, on its
   first fast-path packet. *)
let test_steady_replay_evaluates_nothing () =
  let chain = chain1 () in
  let rt = Runtime.create (Runtime.config ()) chain in
  let events = Chain.events chain in
  ignore (replay_steady rt);
  ignore (replay_steady rt);
  let armed = Event_table.total_armed events in
  Alcotest.(check bool) "Maglev events armed" true (armed > 0);
  Alcotest.(check int) "one per rule" (Global_mat.flow_count (Runtime.global_mat rt)) armed;
  let before = Event_table.evaluations events in
  let fast = replay_steady rt in
  Alcotest.(check bool) "the replay takes the fast path" true (fast > 0);
  Alcotest.(check int) "conditions evaluated" 0 (Event_table.evaluations events - before)

(* After [fail_backend], each armed flow's next packet evaluates its
   condition exactly once; a packet after that evaluates it only if the
   one before fired (a fired recurring event is due again). *)
let test_fail_evaluates_once_per_flow () =
  let lb = Sb_nf.Maglev.create ~backends:(Test_equivalence.backends 4) () in
  let chain =
    Chain.create ~name:"lb" [ Sb_nf.Maglev.nf lb; Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let rt = Runtime.create (Runtime.config ()) chain in
  let events = Chain.events chain and gm = Runtime.global_mat rt in
  let trace = Test_alloc.steady_trace () in
  ignore (Array.iter (fun p -> ignore (Runtime.process_packet rt (Packet.copy p))) trace);
  ignore (Array.iter (fun p -> ignore (Runtime.process_packet rt (Packet.copy p))) trace);
  Sb_nf.Maglev.fail_backend lb "b1";
  let seen = Hashtbl.create 64 and fired_last = Hashtbl.create 64 in
  let firsts = ref 0 and fires = ref 0 in
  Array.iter
    (fun p ->
      let fid = Sb_flow.Fid.of_packet p in
      let rule = Global_mat.lookup gm fid in
      let armed =
        if rule == Global_mat.no_rule then 0 else Event_table.armed (Global_mat.rule_events rule)
      in
      let before = Event_table.evaluations events in
      let out = Runtime.process_packet rt (Packet.copy p) in
      let evaluated = Event_table.evaluations events - before in
      if armed > 0 then begin
        let expected =
          if not (Hashtbl.mem seen fid) then (incr firsts; armed)
          else if Hashtbl.mem fired_last fid then armed
          else 0
        in
        Alcotest.(check int) (Printf.sprintf "flow %d: evaluations" fid) expected evaluated;
        Hashtbl.replace seen fid ();
        if out.Runtime.events_fired > 0 then (incr fires; Hashtbl.replace fired_last fid ())
        else Hashtbl.remove fired_last fid
      end)
    trace;
  Alcotest.(check bool) "armed flows met the failure" true (!firsts > 0);
  Alcotest.(check bool) "flows on the failed backend rerouted" true (!fires > 0)

(* ---- The known Maglev -> DoS guard divergence, pinned ----

   Maglev with 4 backends, then a DoS guard with threshold 8; one 14-packet
   UDP flow 10.0.0.1:40000 -> 192.168.1.10:53, numbered from 0, whose
   backend fails before packet 5.  Original's guard starts a new count
   under the rerouted tuple and forwards packets 5-12; SpeedyBox's
   recorded [dos.count] state function and cut-off condition still hold
   the recording packet's cell, so it drops from packet 8.  This pins
   today's outputs on both modes: a change that keys the guard by what it
   saw must flip it on purpose. *)
let divergence mode =
  let lb = Sb_nf.Maglev.create ~backends:(Test_equivalence.backends 4) () in
  let guard = Sb_nf.Dos_guard.create ~threshold:8 () in
  let chain =
    Chain.create ~name:"lb-dos" [ Sb_nf.Maglev.nf lb; Sb_nf.Dos_guard.nf guard ]
  in
  let rt = Runtime.create (Runtime.config ~mode ()) chain in
  let ingress = Test_util.tuple ~proto:17 ~dport:53 () in
  let routed () =
    let b = Option.get (Sb_nf.Maglev.backend_of_flow lb ingress) in
    let ip = List.assoc b (Test_equivalence.backends 4) in
    { ingress with Sb_flow.Five_tuple.dst_ip = ip }
  in
  let old_tuple = ref ingress in
  let verdicts =
    String.concat ""
      (List.init 14 (fun i ->
           if i = 5 then begin
             old_tuple := routed ();
             Sb_nf.Maglev.fail_backend lb (Option.get (Sb_nf.Maglev.backend_of_flow lb ingress))
           end;
           let out =
             Runtime.process_packet rt (Test_util.udp_packet ~payload:(string_of_int i) ())
           in
           match out.Runtime.verdict with
           | Sb_mat.Header_action.Forwarded -> "F"
           | Sb_mat.Header_action.Dropped -> "D"))
  in
  let new_tuple = routed () in
  ( verdicts,
    Sb_nf.Dos_guard.count guard !old_tuple,
    Sb_nf.Dos_guard.count guard new_tuple,
    Sb_nf.Dos_guard.dump guard )

let test_maglev_dos_divergence () =
  let v_orig, old_orig, new_orig, dump_orig = divergence Runtime.Original in
  let v_sbox, old_sbox, new_sbox, dump_sbox = divergence Runtime.Speedybox in
  Alcotest.(check string) "Original forwards 0-12" "FFFFFFFFFFFFFD" v_orig;
  Alcotest.(check string) "SpeedyBox drops from packet 8" "FFFFFFFFDDDDDD" v_sbox;
  Alcotest.(check (pair int int)) "Original: cnt=5 old tuple, cnt=8 new tuple" (5, 8)
    (old_orig, new_orig);
  Alcotest.(check (pair int int)) "SpeedyBox: cnt=8 old tuple, none under the new" (8, 0)
    (old_sbox, new_sbox);
  Alcotest.(check int) "Original digest: two entries" 2
    (List.length (String.split_on_char '\n' dump_orig));
  Alcotest.(check int) "SpeedyBox digest: one entry" 1
    (List.length (String.split_on_char '\n' dump_sbox))

let suite =
  [
    Alcotest.test_case "fixed fail/restore case fires" `Quick test_fixed_case_fires;
    Alcotest.test_case "chain1 steady replay evaluates no condition" `Quick
      test_steady_replay_evaluates_nothing;
    Alcotest.test_case "fail_backend: one evaluation per armed flow" `Quick
      test_fail_evaluates_once_per_flow;
    Alcotest.test_case "Maglev -> DoS guard divergence pinned" `Quick test_maglev_dos_divergence;
  ]
  @ Test_util.qcheck_cases [ prop_epoch_poll ~burst:1; prop_epoch_poll ~burst:32 ]
