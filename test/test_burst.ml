(* Burst processing must be semantically identical to per-packet
   processing: same per-packet verdicts, paths, bytes and stage visits,
   same aggregate counters, flow times, NF state and fault attributions —
   over randomized traces, burst sizes that do not divide the trace
   length, armed events rewriting rules mid-burst, and injected faults.
   Plus differential coverage of the flat tables backing the hot path. *)

open Sb_packet

(* --- flat int-keyed table vs the stdlib Hashtbl as reference --- *)

let test_flat_table_basics () =
  let t = Sb_flow.Flat_table.create ~initial_size:8 () in
  Alcotest.(check int) "empty" 0 (Sb_flow.Flat_table.length t);
  Sb_flow.Flat_table.set t 7 "seven";
  Sb_flow.Flat_table.set t (-3) "minus three";
  Alcotest.(check (option string)) "find" (Some "seven") (Sb_flow.Flat_table.find t 7);
  Alcotest.(check (option string)) "negative key" (Some "minus three") (Sb_flow.Flat_table.find t (-3));
  Alcotest.(check (option string)) "miss" None (Sb_flow.Flat_table.find t 8);
  Sb_flow.Flat_table.set t 7 "SEVEN";
  Alcotest.(check (option string)) "overwrite" (Some "SEVEN") (Sb_flow.Flat_table.find t 7);
  Alcotest.(check int) "length" 2 (Sb_flow.Flat_table.length t);
  Sb_flow.Flat_table.remove t 7;
  Alcotest.(check bool) "removed" false (Sb_flow.Flat_table.mem t 7);
  Alcotest.(check bool) "survivor" true (Sb_flow.Flat_table.mem t (-3));
  Alcotest.check_raises "sentinel key rejected"
    (Invalid_argument "Flat_table.set: reserved key")
    (fun () -> Sb_flow.Flat_table.set t Sb_flow.Flat_table.empty_key "boom");
  Sb_flow.Flat_table.clear t;
  Alcotest.(check int) "cleared" 0 (Sb_flow.Flat_table.length t)

let test_flat_table_growth () =
  let t = Sb_flow.Flat_table.create ~initial_size:8 () in
  for k = 0 to 999 do
    Sb_flow.Flat_table.set t k (k * 3)
  done;
  Alcotest.(check int) "grown length" 1000 (Sb_flow.Flat_table.length t);
  for k = 0 to 999 do
    if Sb_flow.Flat_table.find t k <> Some (k * 3) then
      Alcotest.failf "key %d lost across growth" k
  done;
  (* Remove every other key, then re-check: backward-shift deletion must
     keep the remaining probe chains intact. *)
  for k = 0 to 999 do
    if k mod 2 = 0 then Sb_flow.Flat_table.remove t k
  done;
  for k = 0 to 999 do
    let expect = if k mod 2 = 0 then None else Some (k * 3) in
    if Sb_flow.Flat_table.find t k <> expect then
      Alcotest.failf "key %d wrong after interleaved removes" k
  done

let prop_flat_table_matches_hashtbl =
  (* A narrow key range forces collisions and backward-shift churn. *)
  QCheck.Test.make ~count:200 ~name:"flat table matches Hashtbl under random ops"
    QCheck.(list_of_size (Gen.int_range 0 400) (pair (int_bound 40) (int_bound 2)))
    (fun ops ->
      let ft = Sb_flow.Flat_table.create ~initial_size:8 () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (k, op) ->
          let key = k - 2 in
          match op with
          | 0 ->
              Sb_flow.Flat_table.set ft key k;
              Hashtbl.replace reference key k
          | 1 ->
              Sb_flow.Flat_table.remove ft key;
              Hashtbl.remove reference key
          | _ ->
              Sb_flow.Flat_table.update ft key ~default:0 (fun v -> v + 1);
              Hashtbl.replace reference key
                (match Hashtbl.find_opt reference key with Some v -> v + 1 | None -> 1))
        ops;
      let dump fold = fold (fun k v acc -> (k, v) :: acc) [] |> List.sort compare in
      dump (fun f acc -> Sb_flow.Flat_table.fold f ft acc)
      = dump (fun f acc -> Hashtbl.fold f reference acc)
      && Sb_flow.Flat_table.length ft = Hashtbl.length reference)

(* Backward-shift deletion across the capacity wraparound: in a capacity-8
   table, keys homed at the last slots probe past index 0, so removing one
   must shift survivors backwards ACROSS the boundary (the [hole <= j]
   split in [remove]).  Keys are drawn only from ones whose home slot (the
   table's own multiplicative hash, replicated here) lies in the wrap
   window {6, 7, 0, 1}, and the live count stays <= 6 so the table never
   grows out of capacity 8. *)
let prop_flat_table_wraparound =
  let slot_of_key mask key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 31)) land mask
  in
  let boundary_keys =
    let rec collect k acc =
      if List.length acc >= 12 then List.rev acc
      else
        let slot = slot_of_key 7 k in
        collect (k + 1) (if slot >= 6 || slot <= 1 then k :: acc else acc)
    in
    collect 0 []
  in
  let wrapping = List.filter (fun k -> slot_of_key 7 k >= 6) boundary_keys in
  QCheck.Test.make ~count:500 ~name:"flat table backward-shift across index 0"
    QCheck.(list_of_size (Gen.int_range 0 60) (pair (int_bound 11) bool))
    (fun ops ->
      let ft = Sb_flow.Flat_table.create ~initial_size:8 () in
      let reference = Hashtbl.create 8 in
      let set k =
        if Hashtbl.length reference < 6 then begin
          Sb_flow.Flat_table.set ft k (k * 31);
          Hashtbl.replace reference k (k * 31)
        end
      in
      let remove k =
        Sb_flow.Flat_table.remove ft k;
        Hashtbl.remove reference k
      in
      (* Seed a cluster that provably spans the boundary: three keys homed
         at slots {6,7} fill 6..7 and spill into 0..1. *)
      List.iteri (fun i k -> if i < 3 then set k) wrapping;
      List.iter
        (fun (i, add) ->
          let k = List.nth boundary_keys i in
          if add then set k else remove k)
        ops;
      let dump fold = fold (fun k v acc -> (k, v) :: acc) [] |> List.sort compare in
      dump (fun f acc -> Sb_flow.Flat_table.fold f ft acc)
      = dump (fun f acc -> Hashtbl.fold f reference acc)
      && Sb_flow.Flat_table.length ft = Hashtbl.length reference
      && Hashtbl.fold (fun k v ok -> ok && Sb_flow.Flat_table.find ft k = Some v) reference true)

let prop_tuple_map_matches_hashtbl =
  QCheck.Test.make ~count:200 ~name:"tuple map matches Hashtbl under random ops"
    QCheck.(list_of_size (Gen.int_range 0 300) (pair (int_bound 15) (int_bound 2)))
    (fun ops ->
      let tm = Sb_flow.Tuple_map.create 4 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (i, op) ->
          let key = Test_util.tuple ~sport:(40000 + i) () in
          match op with
          | 0 ->
              Sb_flow.Tuple_map.replace tm key i;
              Hashtbl.replace reference key i
          | 1 ->
              Sb_flow.Tuple_map.remove tm key;
              Hashtbl.remove reference key
          | _ ->
              ignore (Sb_flow.Tuple_map.find_or_add tm key ~default:(fun () -> i));
              if not (Hashtbl.mem reference key) then Hashtbl.replace reference key i)
        ops;
      let dump fold = fold (fun k v acc -> (k.Sb_flow.Five_tuple.src_port, v) :: acc) [] |> List.sort compare in
      dump (fun f acc -> Sb_flow.Tuple_map.fold f tm acc)
      = dump (fun f acc -> Hashtbl.fold f reference acc)
      && Sb_flow.Tuple_map.length tm = Hashtbl.length reference)

(* --- burst vs per-packet differential --- *)

(* Everything observable about one processed packet, snapshotted at
   callback time (the runtime may reuse scratch buffers between packets). *)
type packet_obs = {
  fid : int;
  forwarded : bool;
  fast : bool;
  events : int;
  faults : int;
  latency : int;
  service : int;
  stages : (string * int) list;
  bytes : string;
}

let build_chain spec =
  match Sb_experiments.Chain_registry.build spec with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

(* Runs [trace] through a freshly built chain (and, when given, a freshly
   armed injector — runs must not share mutable state) and returns the
   per-packet observations plus everything aggregate. *)
let observe_run ?arm_injector ?idle_timeout_cycles ?fault_policy ~chain_spec ~burst trace =
  let chain = build_chain chain_spec in
  let injector =
    Option.map
      (fun arm ->
        let inj = Sb_fault.Injector.create ~seed:11 () in
        arm inj chain;
        inj)
      arm_injector
  in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ?injector ?idle_timeout_cycles ?fault_policy ())
      chain
  in
  let obs = ref [] in
  let result =
    Speedybox.Runtime.run_trace ~burst rt trace ~on_output:(fun _original out ->
        obs :=
          {
            fid = out.Speedybox.Runtime.packet.Packet.fid;
            forwarded = out.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded;
            fast = out.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path;
            events = out.Speedybox.Runtime.events_fired;
            faults = out.Speedybox.Runtime.faults;
            latency = out.Speedybox.Runtime.latency_cycles;
            service = out.Speedybox.Runtime.service_cycles;
            stages =
              List.map
                (fun st -> (st.Sb_sim.Cost_profile.label, Sb_sim.Cost_profile.stage_cycles st))
                out.Speedybox.Runtime.profile;
            bytes = Packet.wire out.Speedybox.Runtime.packet;
          }
          :: !obs)
  in
  (List.rev !obs, result, rt, chain)

let flow_times result =
  Sb_flow.Flat_table.fold
    (fun fid us acc -> (fid, us) :: acc)
    result.Speedybox.Runtime.flow_time_us []
  |> List.sort compare

let stage_stats result =
  Hashtbl.fold
    (fun label { Speedybox.Runtime.visits; cycles } acc -> (label, visits, cycles) :: acc)
    result.Speedybox.Runtime.stage_cycles []
  |> List.sort compare

let supervisor_counters rt =
  let s = Speedybox.Runtime.supervisor rt in
  Sb_fault.Supervisor.
    [
      ("contained", contained s);
      ("corrupted", corrupted s);
      ("stalled", stalled s);
      ("quarantines", quarantines s);
      ("faulted_packets", faulted_packets s);
      ("total", total_faults s);
    ]

let check_same_run label (obs_a, res_a, rt_a, chain_a) (obs_b, res_b, rt_b, chain_b) =
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf
          "%s: packet %d diverges\n\
          \  per-packet: fid=%d fwd=%b fast=%b ev=%d faults=%d lat=%d\n\
          \  burst     : fid=%d fwd=%b fast=%b ev=%d faults=%d lat=%d%s"
          label i a.fid a.forwarded a.fast a.events a.faults a.latency b.fid b.forwarded
          b.fast b.events b.faults b.latency
          (if a.bytes <> b.bytes then " (bytes differ)" else ""))
    (List.combine obs_a obs_b);
  let open Speedybox.Runtime in
  Alcotest.(check int) (label ^ ": packets") res_a.packets res_b.packets;
  Alcotest.(check int) (label ^ ": forwarded") res_a.forwarded res_b.forwarded;
  Alcotest.(check int) (label ^ ": dropped") res_a.dropped res_b.dropped;
  Alcotest.(check int) (label ^ ": slow path") res_a.slow_path res_b.slow_path;
  Alcotest.(check int) (label ^ ": fast path") res_a.fast_path res_b.fast_path;
  Alcotest.(check int) (label ^ ": events fired") res_a.events_fired res_b.events_fired;
  Alcotest.(check int) (label ^ ": faulted packets") res_a.faulted_packets res_b.faulted_packets;
  Alcotest.(check bool)
    (label ^ ": flow times")
    true
    (flow_times res_a = flow_times res_b);
  Alcotest.(check bool)
    (label ^ ": stage stats")
    true
    (stage_stats res_a = stage_stats res_b);
  Alcotest.(check bool)
    (label ^ ": fault attribution")
    true
    (supervisor_counters rt_a = supervisor_counters rt_b);
  Alcotest.(check string)
    (label ^ ": NF state")
    (Speedybox.Report.chain_state chain_a)
    (Speedybox.Report.chain_state chain_b)

(* Pads the trace so its length divides by neither burst size — the tail
   chunk must be a partial burst. *)
let non_divisor_trace trace =
  let extra i =
    Test_util.tcp_packet ~sport:(55000 + i) ~payload:"trailing padding packet" ()
  in
  let rec pad trace i =
    let n = List.length trace in
    if n mod 8 <> 0 && n mod 32 <> 0 then trace else pad (trace @ [ extra i ]) (i + 1)
  in
  pad trace 0

let random_trace seed =
  non_divisor_trace
    (Sb_trace.Workload.dcn_trace
       {
         Sb_trace.Workload.seed;
         n_flows = 40;
         mean_flow_packets = 8.;
         payload_len = (16, 128);
         udp_fraction = 0.2;
         malicious_fraction = 0.1;
         tokens = [ "attack" ];
       })

let differential ?arm_injector ~chain_spec ~label trace =
  let reference = observe_run ?arm_injector ~chain_spec ~burst:1 trace in
  List.iter
    (fun burst ->
      let burst_run = observe_run ?arm_injector ~chain_spec ~burst trace in
      check_same_run (Printf.sprintf "%s, burst %d" label burst) reference burst_run)
    [ 2; 8; 32 ]

let test_differential_plain () =
  List.iter
    (fun seed -> differential ~chain_spec:"mazunat,monitor" ~label:"plain" (random_trace seed))
    [ 7; 21; 99 ]

let test_differential_events () =
  (* A tight DoS-guard budget fires events that rewrite consolidated rules
     mid-burst; later packets must execute the rewritten rules. *)
  List.iter
    (fun seed ->
      differential ~chain_spec:"monitor,dosguard:5" ~label:"armed events" (random_trace seed))
    [ 3; 42 ]

let test_differential_faults () =
  let arm_injector inj chain =
    match Speedybox.Chain.nfs chain with
    | first :: second :: _ ->
        Sb_fault.Injector.set_rate inj ~nf:first.Speedybox.Nf.name Sb_fault.Injector.Raise 0.05;
        Sb_fault.Injector.set_rate inj ~nf:second.Speedybox.Nf.name
          Sb_fault.Injector.Corrupt_verdict 0.03
    | _ -> Alcotest.fail "chain too short"
  in
  List.iter
    (fun seed ->
      differential ~arm_injector ~chain_spec:"mazunat,monitor" ~label:"injected faults"
        (random_trace seed))
    [ 5; 63 ]

(* Regression: a fault quarantine mid-burst.  Mazunat's fifth call
   (packet 4, the first incarnation's last data packet) raises, and the
   quarantine forgets the flow, so the SYN that follows (packet 5) must be
   observed against a fresh conntrack entry, as per packet. *)
let test_differential_quarantine_syn () =
  let trace =
    Test_util.tcp_flow ~fin:false ~sport:40000 4 @ Test_util.tcp_flow ~fin:false ~sport:40000 3
  in
  let arm_injector inj chain =
    match Speedybox.Chain.nfs chain with
    | first :: _ ->
        Sb_fault.Injector.script inj ~nf:first.Speedybox.Nf.name ~at:5 Sb_fault.Injector.Raise
    | [] -> Alcotest.fail "empty chain"
  in
  differential ~arm_injector ~chain_spec:"mazunat,monitor" ~label:"quarantine then SYN" trace

(* Flows that reopen with a SYN, scripted raises at random call indices
   of random NFs, one random burst size, idle expiry on or off: the burst
   run must equal the per-packet run. *)
let prop_burst_faults_reopen =
  let gen =
    QCheck.Gen.(
      quad (int_bound 1_000_000) (int_range 2 32) bool
        (list_size (int_range 0 4) (pair (int_bound 1) (int_range 1 40))))
  in
  let print (seed, burst, expiry, raises) =
    Printf.sprintf "seed=%d burst=%d expiry=%b raises=[%s]" seed burst expiry
      (String.concat "; " (List.map (fun (nf, at) -> Printf.sprintf "%d@%d" nf at) raises))
  in
  QCheck.Test.make ~count:60 ~name:"burst = per-packet (raises, reopening flows)"
    (QCheck.make ~print gen) (fun (seed, burst, expiry, raises) ->
      let st = Random.State.make [| seed; 0x5eed |] in
      (* 2-7 segments, each one of three flows (by source port): a SYN
         and 0-4 data packets, with or without a closing FIN.  A port seen
         again reopens its flow with a SYN. *)
      let trace =
        List.concat
          (List.init
             (2 + Random.State.int st 6)
             (fun _ ->
               Test_util.tcp_flow
                 ~fin:(Random.State.bool st)
                 ~sport:(40000 + Random.State.int st 3)
                 (Random.State.int st 5)))
      in
      let now = ref 0 in
      List.iter
        (fun p ->
          now := !now + Random.State.int st 1500;
          p.Packet.ingress_cycle <- !now)
        trace;
      let arm_injector inj chain =
        let nfs = Array.of_list (Speedybox.Chain.nfs chain) in
        List.iter
          (fun (k, at) ->
            Sb_fault.Injector.script inj ~nf:nfs.(k).Speedybox.Nf.name ~at
              Sb_fault.Injector.Raise)
          raises
      in
      let idle_timeout_cycles = if expiry then Some 2000 else None in
      let run burst =
        observe_run ~arm_injector ?idle_timeout_cycles ~chain_spec:"mazunat,monitor" ~burst
          trace
      in
      check_same_run (Printf.sprintf "burst %d" burst) (run 1) (run burst);
      true)

let test_differential_fin_midburst () =
  (* One burst of 32 covers: flow A consolidating, its FIN tearing the rule
     down mid-burst, the flow re-recording after reopening, and an
     interleaved flow B — the last chunk is partial. *)
  let trace =
    Test_util.tcp_flow ~sport:40000 6
    @ Test_util.tcp_flow ~sport:40001 4
    @ Test_util.tcp_flow ~sport:40000 6
  in
  let reference = observe_run ~chain_spec:"mazunat,monitor" ~burst:1 trace in
  let (_, res, _, _) = reference in
  Alcotest.(check bool)
    "FIN teardown forces re-recording" true
    (res.Speedybox.Runtime.slow_path >= 3);
  List.iter
    (fun burst ->
      check_same_run
        (Printf.sprintf "FIN mid-burst, burst %d" burst)
        reference
        (observe_run ~chain_spec:"mazunat,monitor" ~burst trace))
    [ 8; 32 ]

(* Regression: idle expiry firing mid-burst.  The prescan used to observe
   conntrack for a whole segment before any liveness [touch]; when a touch
   fired the timer wheel, expiry could forget a flow whose later packet
   was already observed.  These two flows share FID 119999 in the
   seed-16 DCN population (the edge-churn benchmark pass where the
   divergence surfaced); replayed three times under a 2526-cycle timeout,
   packet 1 of the second replay took the slow path in burst mode and the
   fast path per packet. *)
let test_expiry_midburst_replay () =
  let flows =
    Sb_trace.Workload.dcn_flows
      {
        Sb_trace.Workload.seed = 16;
        n_flows = 20_000;
        mean_flow_packets = 2.;
        payload_len = (16, 128);
        udp_fraction = 0.1;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  let wanted =
    [ Test_util.tuple ~src:"10.119.20.63" ~dst:"192.168.1.22" ~sport:38555 ~dport:110 ();
      Test_util.tuple ~src:"10.243.62.254" ~dst:"192.168.1.21" ~sport:51366 ~dport:80 () ]
  in
  let packets =
    flows
    |> List.filter (fun f ->
           List.exists (Sb_flow.Five_tuple.equal f.Sb_trace.Workload.tuple) wanted)
    |> List.map (fun f ->
           Sb_trace.Workload.packets_of_flow { f with Sb_trace.Workload.close = Stay_open })
    |> Sb_trace.Workload.interleave (Sb_trace.Rng.create 17)
    |> Sb_trace.Workload.with_poisson_times ~seed:16 ~rate_mpps:1.0
    |> Array.of_list
  in
  Alcotest.(check int) "the two flows' packets" 11 (Array.length packets);
  List.iter
    (fun t -> Alcotest.(check int) "shared fid" 119999 (Sb_flow.Fid.of_tuple t))
    wanted;
  let shift = packets.(Array.length packets - 1).Packet.ingress_cycle + 2000 in
  let make () =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~idle_timeout_cycles:2526 ())
      (build_chain "statefulfw,monitor,dosguard:200,gateway")
  in
  let by_burst = make () and by_packet = make () in
  for pass = 0 to 2 do
    let load p =
      let c = Packet.copy p in
      c.Packet.ingress_cycle <- c.Packet.ingress_cycle + (pass * shift);
      c
    in
    let outs = Speedybox.Runtime.process_burst by_burst (Array.map load packets) in
    Array.iteri
      (fun k p ->
        let b = outs.(k) and o = Speedybox.Runtime.process_packet by_packet (load p) in
        let what = Printf.sprintf "pass %d packet %d" pass k in
        Alcotest.(check bool)
          (what ^ " path") true
          (b.Speedybox.Runtime.path = o.Speedybox.Runtime.path);
        Alcotest.(check bool)
          (what ^ " verdict") true
          (b.Speedybox.Runtime.verdict = o.Speedybox.Runtime.verdict);
        Alcotest.(check bool)
          (what ^ " bytes") true
          (Packet.equal_wire b.Speedybox.Runtime.packet o.Speedybox.Runtime.packet))
      packets
  done;
  Alcotest.(check string) "state digests"
    (Speedybox.Chain.state_digest (Speedybox.Runtime.chain by_packet))
    (Speedybox.Chain.state_digest (Speedybox.Runtime.chain by_burst))

let test_process_burst_array () =
  let chain = build_chain "mazunat,monitor" in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let packets = Array.of_list (Test_util.tcp_flow 8) in
  let outputs = Speedybox.Runtime.process_burst rt packets in
  Alcotest.(check int) "one output per packet" (Array.length packets) (Array.length outputs);
  Array.iter
    (fun out ->
      Alcotest.(check bool)
        "forwarded" true
        (out.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded))
    outputs;
  (* After the initial slow-path packets the burst must move onto the fast
     path. *)
  Alcotest.(check bool)
    "tail on fast path" true
    (Array.length outputs > 2
    && (outputs.(Array.length outputs - 1)).Speedybox.Runtime.path
       = Speedybox.Runtime.Fast_path)

let test_non_tcp_udp_sentinel () =
  (* A GRE packet has no 5-tuple: replaying it must not crash, and its
     flow time buckets under the sentinel FID -1. *)
  let p = Test_util.tcp_packet () in
  Bytes.set p.Packet.buf (Packet.l3_offset p + 9) (Char.chr 47);
  let run burst =
    let chain = build_chain "mazunat,monitor" in
    let rt =
      Speedybox.Runtime.create
        (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Original ())
        chain
    in
    Speedybox.Runtime.run_trace ~burst rt [ Packet.copy p; Test_util.tcp_packet () ]
  in
  List.iter
    (fun burst ->
      let result = run burst in
      Alcotest.(check int) "packets" 2 result.Speedybox.Runtime.packets;
      Alcotest.(check bool)
        "sentinel bucket" true
        (Sb_flow.Flat_table.mem result.Speedybox.Runtime.flow_time_us (-1)))
    [ 1; 32 ]

(* Frames cut short of their Ethernet, IPv4 and TCP/UDP headers, as a
   pcap capture may hold them: a chain1 SYN and a UDP datagram each cut
   to nine lengths, from 0 bytes to one byte short of the end of the L4
   header, between the packets of a valid flow.  Each cut frame is run
   twice, once in a buffer of its own length (a header read past [len]
   raises) and once in the full frame's buffer (a read past [len] sees
   stale header bytes).  On every executor
   nothing may escape, every cut frame must drop, and the executors must
   agree on every output. *)
let truncated_trace () =
  let cut p n ~exact =
    let q = Packet.copy p in
    if exact then q.Packet.buf <- Bytes.sub q.Packet.buf 0 n;
    q.Packet.len <- n;
    q
  in
  let syn = Test_util.tcp_packet ~payload:"" ~flags:Tcp.Flags.syn ~sport:41000 () in
  let udp = Test_util.udp_packet ~sport:41001 () in
  let cuts p =
    List.concat_map
      (fun n -> [ cut p n ~exact:true; cut p n ~exact:false ])
      [ 0; 10; 13; 14; 30; 33; 34; 40; Packet.l4_offset p + (if p == syn then 19 else 7) ]
  in
  let valid = Test_util.tcp_flow 4 in
  let bad = cuts syn @ cuts udp in
  (* Interleave: each valid packet is followed by a share of cut frames,
     the first of them twice. *)
  let rec mix valid bad =
    match (valid, bad) with
    | v :: vs, b1 :: b2 :: b3 :: bs -> v :: b1 :: b2 :: b3 :: Packet.copy b1 :: mix vs bs
    | v :: vs, bs -> v :: bs @ vs
    | [], bs -> bs
  in
  let trace = mix (valid @ [ Test_util.udp_packet () ]) bad in
  List.iteri (fun i p -> p.Packet.ingress_cycle <- i * 1000) trace;
  (trace, List.length (List.filter (fun p -> not (Packet.headers_fit p)) trace))

let test_truncated_frames () =
  let trace, n_cut = truncated_trace () in
  Alcotest.(check int) "trace holds cut frames" 42 n_cut;
  let outputs run =
    let outs = ref [] in
    let result =
      run (fun _original (out : Speedybox.Runtime.output) ->
          let wire = Packet.wire out.Speedybox.Runtime.packet in
          outs := (out.Speedybox.Runtime.verdict, wire) :: !outs)
    in
    (result, List.rev !outs)
  in
  let runtime mode burst =
    let rt =
      Speedybox.Runtime.create (Speedybox.Runtime.config ~mode ()) (build_chain "chain1")
    in
    let copies = List.map Packet.copy trace in
    let result, outs =
      outputs (fun on_output -> Speedybox.Runtime.run_trace ~on_output ~burst rt copies)
    in
    (* And through the scratch-buffer replay, which reuses buffers. *)
    let rt' =
      Speedybox.Runtime.create (Speedybox.Runtime.config ~mode ()) (build_chain "chain1")
    in
    let result' = Speedybox.Runtime.run_trace ~burst rt' (List.map Packet.copy trace) in
    Alcotest.(check int) "scratch replay forwards the same" result.Speedybox.Runtime.forwarded
      result'.Speedybox.Runtime.forwarded;
    (rt, result, outs)
  in
  let sp_rt, burst_result, burst_outs = runtime Speedybox.Runtime.Speedybox 32 in
  let _, per_packet_result, per_packet_outs = runtime Speedybox.Runtime.Speedybox 1 in
  let _, original_result, original_outs = runtime Speedybox.Runtime.Original 8 in
  let det_result, det_outs =
    let sh =
      Sb_shard.Sharded.create ~shards:2 (Speedybox.Runtime.config ()) (fun _ ->
          build_chain "chain1")
    in
    outputs (fun on_output ->
        Sb_shard.Sharded.run_trace ~burst:4 sh ~on_output (List.map Packet.copy trace))
  in
  let staged_outs = Array.make (List.length trace) None in
  let staged =
    Speedybox.Staged_runtime.run
      ~on_departure:(fun i verdict packet -> staged_outs.(i) <- Some (verdict, Packet.wire packet))
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ())
      (build_chain "chain1") (List.map Packet.copy trace)
  in
  let n = List.length trace in
  Alcotest.(check int) "every cut frame rejected" n_cut
    (Speedybox.Runtime.rejected_malformed sp_rt);
  let forwarded = burst_result.Speedybox.Runtime.forwarded in
  Alcotest.(check int) "valid packets forwarded" (n - n_cut) forwarded;
  List.iter
    (fun (name, (r : Speedybox.Runtime.run_result), outs) ->
      Alcotest.(check int) (name ^ ": packets") n r.Speedybox.Runtime.packets;
      Alcotest.(check int) (name ^ ": forwarded") forwarded r.Speedybox.Runtime.forwarded;
      Alcotest.(check int) (name ^ ": dropped") n_cut r.Speedybox.Runtime.dropped;
      Alcotest.(check bool) (name ^ ": outputs = burst-32") true (outs = burst_outs))
    [
      ("per-packet", per_packet_result, per_packet_outs);
      ("original", original_result, original_outs);
      ("det-2", det_result, det_outs);
    ];
  Alcotest.(check int) "staged: forwarded" forwarded staged.Speedybox.Staged_runtime.forwarded;
  Alcotest.(check int) "staged: rejected" n_cut staged.Speedybox.Staged_runtime.malformed;
  Alcotest.(check int) "staged: no other drop" 0
    (staged.Speedybox.Staged_runtime.dropped_by_chain
    + staged.Speedybox.Staged_runtime.dropped_overflow);
  Alcotest.(check bool) "staged: departures = burst-32" true
    (Array.to_list staged_outs = List.map Option.some burst_outs)

let test_run_trace_rejects_bad_burst () =
  let chain = build_chain "mazunat,monitor" in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  Alcotest.check_raises "burst 0 rejected"
    (Invalid_argument "Runtime.run_trace: burst must be positive")
    (fun () -> ignore (Speedybox.Runtime.run_trace ~burst:0 rt []))

let suite =
  [
    Alcotest.test_case "flat table basics" `Quick test_flat_table_basics;
    Alcotest.test_case "flat table growth and removes" `Quick test_flat_table_growth;
    Alcotest.test_case "burst = per-packet (plain chain)" `Quick test_differential_plain;
    Alcotest.test_case "burst = per-packet (armed events)" `Quick test_differential_events;
    Alcotest.test_case "burst = per-packet (injected faults)" `Quick test_differential_faults;
    Alcotest.test_case "burst = per-packet (FIN mid-burst)" `Quick test_differential_fin_midburst;
    Alcotest.test_case "process_burst array API" `Quick test_process_burst_array;
    Alcotest.test_case "non-TCP/UDP buckets under sentinel fid" `Quick test_non_tcp_udp_sentinel;
    Alcotest.test_case "burst < 1 rejected" `Quick test_run_trace_rejects_bad_burst;
    Alcotest.test_case "burst = per-packet (expiry mid-burst)" `Quick test_expiry_midburst_replay;
    Alcotest.test_case "burst = per-packet (quarantine then SYN)" `Quick
      test_differential_quarantine_syn;
  ]
  @ Test_util.qcheck_cases
      [
        prop_flat_table_matches_hashtbl;
        prop_flat_table_wraparound;
        prop_tuple_map_matches_hashtbl;
        prop_burst_faults_reopen;
      ]
  @ [ Alcotest.test_case "truncated frames drop on every executor" `Quick test_truncated_frames ]
