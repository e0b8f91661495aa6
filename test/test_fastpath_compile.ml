(* Differential test of the Global MAT fast path against the reference
   step-list walker (test/fastpath_oracle.ml).

   Two identical runtimes process the trace in lockstep.  After each
   packet whose flow still holds a rule, twin A executes that rule on a
   copy of the packet through [Global_mat.execute] (the flat compiled
   program, as production runs it) and twin B through the oracle.  The two
   must be indistinguishable: same verdicts, same wire bytes, same
   GlobalMAT cost items, same fired events, same NF state — on every chain
   the registry can compose and under eviction, expiry, mid-stream events
   and injected faults.  Both twins run the same extra execution, so
   every later packet must still agree between them too.  The flow was
   just installed or touched, so A's recency touch changes nothing. *)
open Sb_mat

let pp_profile p = Format.asprintf "%a" Sb_sim.Cost_profile.pp p

type twin = { chain : Speedybox.Chain.t; rt : Speedybox.Runtime.t; labels : string array }

(* The rule's execution on a copy of [p], as [Global_mat.execute] or as
   the oracle: the verdict, the processed copy, the decoded GlobalMAT
   stage and the updates fired, or the raise. *)
let execute_rule ~oracle tw fid p =
  let gm = Speedybox.Runtime.global_mat tw.rt in
  let events = Speedybox.Chain.events tw.chain
  and locals = Speedybox.Chain.local_mats tw.chain in
  let p = Sb_packet.Packet.copy p in
  let egress = Sb_sim.Cycles.meta_detach in
  match
    if oracle then Fastpath_oracle.execute ~egress gm events locals fid p
    else
      Option.map
        (fun v -> (v, Global_mat.events_fired gm))
        (Global_mat.execute ~egress gm events locals fid p)
  with
  | Some (verdict, fired) ->
      let stage = Sb_sim.Cost_vec.to_profile tw.labels (Global_mat.costs gm) in
      Ok (verdict, p, pp_profile stage, fired)
  | None -> Error "no rule"
  | exception exn -> Error (Printexc.to_string exn)

let run_pair ?policy ?idle_timeout_cycles ?max_rules ?make_injector ?(before = ignore)
    ?(on_outputs = fun _ _ -> ()) build_chain trace =
  let make () =
    let chain = build_chain () in
    let injector = Option.map (fun f -> f ()) make_injector in
    let rt =
      Speedybox.Runtime.create
        (Speedybox.Runtime.config ?policy ?idle_timeout_cycles ?max_rules ?injector ())
        chain
    in
    let names = List.map (fun nf -> nf.Speedybox.Nf.name) (Speedybox.Chain.nfs chain) in
    { chain; rt; labels = Sb_sim.Cost_vec.labels (Array.of_list names) }
  in
  let a = make () in
  let b = make () in
  let mismatches = ref [] in
  List.iteri
    (fun idx p ->
      before idx;
      let out_a = Speedybox.Runtime.process_packet a.rt (Sb_packet.Packet.copy p) in
      let out_b = Speedybox.Runtime.process_packet b.rt (Sb_packet.Packet.copy p) in
      let differ field = mismatches := Printf.sprintf "packet %d: %s" idx field :: !mismatches in
      if out_a.Speedybox.Runtime.verdict <> out_b.Speedybox.Runtime.verdict then
        differ "verdict";
      if
        not
          (Sb_packet.Packet.equal_wire out_a.Speedybox.Runtime.packet
             out_b.Speedybox.Runtime.packet)
      then differ "wire bytes";
      if out_a.Speedybox.Runtime.path <> out_b.Speedybox.Runtime.path then differ "path";
      if out_a.Speedybox.Runtime.latency_cycles <> out_b.Speedybox.Runtime.latency_cycles
      then differ "latency cycles";
      if out_a.Speedybox.Runtime.service_cycles <> out_b.Speedybox.Runtime.service_cycles
      then differ "service cycles";
      if out_a.Speedybox.Runtime.events_fired <> out_b.Speedybox.Runtime.events_fired then
        differ "events fired";
      if out_a.Speedybox.Runtime.profile <> out_b.Speedybox.Runtime.profile then
        differ "profile";
      if out_a.Speedybox.Runtime.faults <> out_b.Speedybox.Runtime.faults then differ "faults";
      on_outputs out_a out_b;
      let fid = out_a.Speedybox.Runtime.packet.Sb_packet.Packet.fid in
      let has_rule tw = Global_mat.mem (Speedybox.Runtime.global_mat tw.rt) fid in
      if has_rule a <> has_rule b then differ "rule presence"
      else if has_rule a then begin
        match (execute_rule ~oracle:false a fid p, execute_rule ~oracle:true b fid p) with
        | Ok (va, pa, sa, fa), Ok (vb, pb, sb, fb) ->
            if va <> vb then differ "rule verdict";
            if not (Sb_packet.Packet.equal_wire pa pb) then differ "rule wire bytes";
            if sa <> sb then differ (Printf.sprintf "rule cost items (%s vs %s)" sa sb);
            if fa <> fb then differ (Printf.sprintf "rule events fired (%d vs %d)" fa fb)
        | Error ea, Error eb -> if ea <> eb then differ (Printf.sprintf "raised %s vs %s" ea eb)
        | Ok _, Error e -> differ ("only the oracle raised: " ^ e)
        | Error e, Ok _ -> differ ("only Global_mat.execute raised: " ^ e)
      end;
      if Speedybox.Chain.state_digest a.chain <> Speedybox.Chain.state_digest b.chain then
        differ "state digests")
    trace;
  if
    Speedybox.Runtime.expired_flows a.rt <> Speedybox.Runtime.expired_flows b.rt
    || Global_mat.evictions (Speedybox.Runtime.global_mat a.rt)
       <> Global_mat.evictions (Speedybox.Runtime.global_mat b.rt)
  then mismatches := "expiry/eviction counters differ" :: !mismatches;
  List.rev !mismatches

let check_identical name mismatches =
  Alcotest.(check (list string)) (name ^ ": compiled == oracle") [] mismatches

(* NAT+Monitor+Filter over a bursty interleaved workload: the bread-and-
   butter fast path with payload-sized checksum work. *)
let test_basic_chain () =
  let build_chain () =
    Speedybox.Chain.create ~name:"basic"
      [
        Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.2") ());
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
        Sb_nf.Ipfilter.nf
          (Sb_nf.Ipfilter.create
             ~rules:[ Sb_nf.Ipfilter.rule ~dst_ports:(25, 25) Sb_nf.Ipfilter.Deny ]
             ());
      ]
  in
  let trace =
    Sb_trace.Workload.dcn_trace
      {
        Sb_trace.Workload.seed = 11;
        n_flows = 20;
        mean_flow_packets = 8.;
        payload_len = (8, 256);
        udp_fraction = 0.3;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  check_identical "basic chain" (run_pair build_chain trace)

(* Mid-stream Maglev backend failure: the armed event fires on the fast
   path and recompiles the rule in place. *)
let test_maglev_event () =
  let backends = List.init 4 (fun i ->
      (Printf.sprintf "b%d" i, Sb_packet.Ipv4_addr.of_octets 192 168 2 (10 + i)))
  in
  let lbs = ref [] in
  let build_chain () =
    let lb = Sb_nf.Maglev.create ~backends () in
    lbs := lb :: !lbs;
    Speedybox.Chain.create ~name:"lb-events"
      [ Sb_nf.Maglev.nf lb; Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let trace = List.init 12 (fun i -> Test_util.udp_packet ~payload:(string_of_int i) ()) in
  let tuple = Test_util.tuple ~proto:17 ~dport:53 () in
  let before i =
    if i = 6 then
      List.iter
        (fun lb ->
          Sb_nf.Maglev.fail_backend lb (Option.get (Sb_nf.Maglev.backend_of_flow lb tuple)))
        !lbs
  in
  let fired = ref 0 in
  let on_outputs (out : Speedybox.Runtime.output) _ =
    if out.Speedybox.Runtime.events_fired > 0 then incr fired
  in
  check_identical "maglev event" (run_pair ~before ~on_outputs build_chain trace);
  Alcotest.(check bool) "an event fired on the fast path" true (!fired > 0)

(* A capped rule table under more flows than slots: LRU eviction and
   re-recording must follow the same order in both modes. *)
let test_lru_churn () =
  let build_chain () =
    Speedybox.Chain.create ~name:"churn"
      [
        Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.3") ());
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      ]
  in
  let flows =
    List.init 8 (fun i ->
        Test_util.tcp_flow ~src:(Printf.sprintf "10.1.0.%d" (i + 1)) ~sport:(41000 + i) 6)
  in
  let trace = Sb_trace.Workload.round_robin flows in
  check_identical "lru churn" (run_pair ~max_rules:4 build_chain trace)

(* Idle expiry on a timed trace: rules die and re-record identically. *)
let test_idle_expiry () =
  let build_chain () =
    Speedybox.Chain.create ~name:"expiry"
      [ Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.4") ()) ]
  in
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:5 ~rate_mpps:0.05
      (Sb_trace.Workload.fixed_trace ~n_flows:6 ~packets_per_flow:8 ~payload_len:32 ())
  in
  check_identical "idle expiry"
    (run_pair ~idle_timeout_cycles:100_000 build_chain trace)

let registry name =
  match Sb_experiments.Chain_registry.build name with
  | Ok build -> build
  | Error msg -> Alcotest.fail msg

let dcn_trace ~seed =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed;
      n_flows = 20;
      mean_flow_packets = 8.;
      payload_len = (16, 256);
      udp_fraction = 0.2;
      malicious_fraction = 0.;
      tokens = [];
    }

(* The paper's Chain 2 puts Snort (payload READ) and Monitor (IGNORE) in
   one two-batch wave: its fast path carries a [Parallel] item. *)
let test_parallel_wave_profiles () =
  let parallel = ref 0 in
  let on_outputs (out_c : Speedybox.Runtime.output) _ =
    if
      out_c.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path
      && Test_util.has_parallel_item out_c
    then incr parallel
  in
  check_identical "chain2" (run_pair ~on_outputs (registry "chain2") (dcn_trace ~seed:4));
  Alcotest.(check bool) "fast-path packets ran a two-batch wave" true (!parallel > 0)

(* Injected corrupt-verdict and stall faults on the fast path: flipped
   verdicts and the extra [InjectedStall] stage must agree too. *)
let test_injected_fault_profiles () =
  let make_injector () =
    let inj = Sb_fault.Injector.create ~stall_cycles:7_000 ~seed:9 () in
    Sb_fault.Injector.set_rate inj ~nf:"monitor" Sb_fault.Injector.Stall 0.05;
    Sb_fault.Injector.set_rate inj ~nf:"mazunat" Sb_fault.Injector.Corrupt_verdict 0.03;
    inj
  in
  let stalled = ref 0 in
  let on_outputs (out_c : Speedybox.Runtime.output) _ =
    if
      out_c.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path
      && List.exists
           (fun (st : Sb_sim.Cost_profile.stage) ->
             String.equal st.Sb_sim.Cost_profile.label "InjectedStall")
           out_c.Speedybox.Runtime.profile
    then incr stalled
  in
  check_identical "chain1 under injected faults"
    (run_pair ~make_injector ~on_outputs (registry "chain1") (dcn_trace ~seed:6));
  Alcotest.(check bool) "a fast-path packet stalled" true (!stalled > 0)

(* A payload writer: a Write-mode state function that stamps [mark] over
   the first payload byte, leaving the checksums stale. *)
let stamp ~name mark =
  let invocations = ref 0 and seen = ref 0 in
  let sf =
    State_function.make ~nf:name ~label:(name ^ ".stamp") ~mode:State_function.Write (fun p ->
        incr invocations;
        let buf, off, len = Sb_packet.Packet.payload_bytes p in
        if len > 0 then begin
          seen := (!seen * 31) + Char.code (Bytes.get buf off);
          Bytes.set buf off mark
        end;
        40)
  in
  Speedybox.Nf.make ~name
    ~state_digest:(fun () -> Printf.sprintf "invocations=%d seen=%d" !invocations !seen)
    (fun ctx p ->
      let cycles = sf.State_function.run p in
      Speedybox.Api.localmat_add_sf ctx sf;
      Speedybox.Nf.forwarded cycles)

let stamp_trace () = dcn_trace ~seed:8

(* A Write-mode batch ahead of a header rewrite: the stored L4 checksum
   no longer matches the bytes, so the transform must recompute it in
   full rather than fix it up incrementally. *)
let test_writer_before_transform () =
  let build_chain () =
    Speedybox.Chain.create ~name:"stamp+nat"
      [
        stamp ~name:"stamp" 'W';
        Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.6") ());
      ]
  in
  check_identical "writer before transform" (run_pair build_chain (stamp_trace ()))

(* Two writers forced into one wave (the unsound [Always_parallel]
   ablation): both see the wave-start payload and the last writer's bytes
   win. *)
let test_two_writers_one_wave () =
  let build_chain () =
    Speedybox.Chain.create ~name:"stamp2"
      [
        stamp ~name:"first" 'A';
        stamp ~name:"last" 'B';
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      ]
  in
  let parallel = ref 0 in
  let on_outputs (out : Speedybox.Runtime.output) _ =
    if out.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path && Test_util.has_parallel_item out
    then incr parallel
  in
  check_identical "two writers in one wave"
    (run_pair ~policy:Parallel.Always_parallel ~on_outputs build_chain (stamp_trace ()));
  Alcotest.(check bool) "fast-path packets ran a multi-batch wave" true (!parallel > 0)

(* Randomized chain compositions from the registry, including payload-
   writing and dropping NFs, events and malicious payloads. *)
let prop_random_chains_identical =
  let open QCheck in
  let atom =
    Gen.oneofl
      [ "mazunat"; "maglev:4"; "monitor"; "ipfilter"; "statefulfw"; "gateway"; "dosguard:6"; "snort" ]
  in
  let spec_gen =
    Gen.map (fun atoms -> String.concat "," atoms)
      (Gen.list_size (Gen.int_range 1 5) atom)
  in
  Test.make ~count:20 ~name:"random chains: compiled == interpreted"
    (make ~print:(fun (spec, seed) -> Printf.sprintf "%s seed=%d" spec seed)
       (Gen.pair spec_gen Gen.small_int))
    (fun (spec, seed) ->
      match Sb_experiments.Chain_registry.build spec with
      | Error msg -> QCheck.Test.fail_reportf "spec %S rejected: %s" spec msg
      | Ok build ->
          let trace =
            Sb_trace.Workload.dcn_trace
              {
                Sb_trace.Workload.seed;
                n_flows = 15;
                mean_flow_packets = 8.;
                payload_len = (8, 200);
                udp_fraction = 0.25;
                malicious_fraction = 0.1;
                tokens = [ "attack"; "exploit" ];
              }
          in
          match run_pair build trace with
          | [] -> true
          | m :: _ -> QCheck.Test.fail_reportf "spec %S: %s" spec m)

(* Randomized capped-table runs: eviction decisions must agree even when
   the LRU is thrashing. *)
let prop_random_churn_identical =
  QCheck.Test.make ~count:15 ~name:"random capped tables: compiled == interpreted"
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, cap) ->
      let build_chain () =
        Speedybox.Chain.create ~name:"rand-churn"
          [
            Sb_nf.Mazunat.nf
              (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.5") ());
            Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
          ]
      in
      let trace =
        Sb_trace.Workload.dcn_trace
          {
            Sb_trace.Workload.seed;
            n_flows = 12;
            mean_flow_packets = 5.;
            payload_len = (8, 64);
            udp_fraction = 0.4;
            malicious_fraction = 0.;
            tokens = [];
          }
      in
      match run_pair ~max_rules:cap build_chain trace with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_reportf "seed=%d cap=%d: %s" seed cap m)

let suite =
  [
    Alcotest.test_case "basic chain differential" `Quick test_basic_chain;
    Alcotest.test_case "maglev event differential" `Quick test_maglev_event;
    Alcotest.test_case "lru churn differential" `Quick test_lru_churn;
    Alcotest.test_case "idle expiry differential" `Quick test_idle_expiry;
    Alcotest.test_case "two-batch wave profiles" `Quick test_parallel_wave_profiles;
    Alcotest.test_case "injected fault profiles" `Quick test_injected_fault_profiles;
    Alcotest.test_case "payload writer before a transform" `Quick test_writer_before_transform;
    Alcotest.test_case "two writers in one wave" `Quick test_two_writers_one_wave;
  ]
  @ Test_util.qcheck_cases [ prop_random_chains_identical; prop_random_churn_identical ]
