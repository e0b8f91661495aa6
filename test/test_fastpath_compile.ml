(* Differential test of the compiled Global MAT fast path against the
   reference step-list interpreter.

   [Global_mat] executes consolidated rules either as the flat compiled
   program (the production path) or by rebuilding the positional
   [step list] from that program and walking it step by step
   ([Interpreted]).  The two
   must be indistinguishable: same verdicts, same wire bytes, same cost
   profiles stage by stage and item by item, same fired events, same final
   NF state — on every chain the registry can compose and under eviction,
   expiry, mid-stream events and injected faults.  Both modes write the
   GlobalMAT stage into the runtime's cost vector and the runtime interns
   the whole vector, so the profiles compared here are the decoded
   vectors: serial steps, multi-batch waves, fired events and faults
   must all encode the same. *)

let pp_profile p = Format.asprintf "%a" Sb_sim.Cost_profile.pp p

let run_pair ?idle_timeout_cycles ?max_rules ?make_injector ?(on_outputs = fun _ _ -> ())
    build_chain trace =
  let make fastpath =
    let chain = build_chain () in
    let injector = Option.map (fun f -> f ()) make_injector in
    let rt =
      Speedybox.Runtime.create
        (Speedybox.Runtime.config ?idle_timeout_cycles ?max_rules ?injector ~fastpath ())
        chain
    in
    (chain, rt)
  in
  let chain_i, rt_i = make Sb_mat.Global_mat.Interpreted in
  let chain_c, rt_c = make Sb_mat.Global_mat.Compiled in
  let mismatches = ref [] in
  List.iteri
    (fun idx p ->
      let out_i = Speedybox.Runtime.process_packet rt_i (Sb_packet.Packet.copy p) in
      let out_c = Speedybox.Runtime.process_packet rt_c (Sb_packet.Packet.copy p) in
      let differ field = mismatches := Printf.sprintf "packet %d: %s" idx field :: !mismatches in
      if out_i.Speedybox.Runtime.verdict <> out_c.Speedybox.Runtime.verdict then
        differ "verdict";
      if
        not
          (Sb_packet.Packet.equal_wire out_i.Speedybox.Runtime.packet
             out_c.Speedybox.Runtime.packet)
      then differ "wire bytes";
      if out_i.Speedybox.Runtime.path <> out_c.Speedybox.Runtime.path then differ "path";
      if out_i.Speedybox.Runtime.latency_cycles <> out_c.Speedybox.Runtime.latency_cycles
      then
        differ
          (Printf.sprintf "latency cycles (%d vs %d)"
             out_i.Speedybox.Runtime.latency_cycles out_c.Speedybox.Runtime.latency_cycles);
      if out_i.Speedybox.Runtime.service_cycles <> out_c.Speedybox.Runtime.service_cycles
      then differ "service cycles";
      if out_i.Speedybox.Runtime.events_fired <> out_c.Speedybox.Runtime.events_fired then
        differ "events fired";
      if out_i.Speedybox.Runtime.profile <> out_c.Speedybox.Runtime.profile then
        differ
          (Printf.sprintf "profile (%s vs %s)"
             (pp_profile out_i.Speedybox.Runtime.profile)
             (pp_profile out_c.Speedybox.Runtime.profile));
      if out_i.Speedybox.Runtime.faults <> out_c.Speedybox.Runtime.faults then differ "faults";
      on_outputs out_i out_c)
    trace;
  let digest_i = Speedybox.Chain.state_digest chain_i in
  let digest_c = Speedybox.Chain.state_digest chain_c in
  if digest_i <> digest_c then mismatches := "final state digests differ" :: !mismatches;
  if
    Speedybox.Runtime.expired_flows rt_i <> Speedybox.Runtime.expired_flows rt_c
    || Sb_mat.Global_mat.evictions (Speedybox.Runtime.global_mat rt_i)
       <> Sb_mat.Global_mat.evictions (Speedybox.Runtime.global_mat rt_c)
  then mismatches := "expiry/eviction counters differ" :: !mismatches;
  List.rev !mismatches

let check_identical name mismatches =
  Alcotest.(check (list string)) (name ^ ": compiled == interpreted") [] mismatches

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
   path and recompiles the rule in place, in both execution modes. *)
let test_maglev_event () =
  let backends = List.init 4 (fun i ->
      (Printf.sprintf "b%d" i, Sb_packet.Ipv4_addr.of_octets 192 168 2 (10 + i)))
  in
  let make fastpath =
    let lb = Sb_nf.Maglev.create ~backends () in
    let chain =
      Speedybox.Chain.create ~name:"lb-events"
        [ Sb_nf.Maglev.nf lb; Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
    in
    let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~fastpath ()) chain in
    (lb, chain, rt)
  in
  let lb_i, chain_i, rt_i = make Sb_mat.Global_mat.Interpreted in
  let lb_c, chain_c, rt_c = make Sb_mat.Global_mat.Compiled in
  let trace = List.init 12 (fun i -> Test_util.udp_packet ~payload:(string_of_int i) ()) in
  let tuple = Test_util.tuple ~proto:17 ~dport:53 () in
  let fired = ref 0 in
  List.iteri
    (fun i p ->
      if i = 6 then begin
        Sb_nf.Maglev.fail_backend lb_i (Option.get (Sb_nf.Maglev.backend_of_flow lb_i tuple));
        Sb_nf.Maglev.fail_backend lb_c (Option.get (Sb_nf.Maglev.backend_of_flow lb_c tuple))
      end;
      let out_i = Speedybox.Runtime.process_packet rt_i (Sb_packet.Packet.copy p) in
      let out_c = Speedybox.Runtime.process_packet rt_c (Sb_packet.Packet.copy p) in
      if out_c.Speedybox.Runtime.events_fired > 0 then incr fired;
      Alcotest.(check bool)
        (Printf.sprintf "packet %d identical" i)
        true
        (out_i.Speedybox.Runtime.verdict = out_c.Speedybox.Runtime.verdict
        && out_i.Speedybox.Runtime.latency_cycles = out_c.Speedybox.Runtime.latency_cycles
        && out_i.Speedybox.Runtime.events_fired = out_c.Speedybox.Runtime.events_fired
        && Sb_packet.Packet.equal_wire out_i.Speedybox.Runtime.packet
             out_c.Speedybox.Runtime.packet);
      Alcotest.(check string)
        (Printf.sprintf "packet %d profile" i)
        (pp_profile out_i.Speedybox.Runtime.profile)
        (pp_profile out_c.Speedybox.Runtime.profile))
    trace;
  Alcotest.(check bool) "an event fired on the fast path" true (!fired > 0);
  Alcotest.(check string) "state digests equal"
    (Speedybox.Chain.state_digest chain_i)
    (Speedybox.Chain.state_digest chain_c)

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
  let on_outputs _ (out_c : Speedybox.Runtime.output) =
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
  let on_outputs _ (out_c : Speedybox.Runtime.output) =
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
  ]
  @ Test_util.qcheck_cases [ prop_random_chains_identical; prop_random_churn_identical ]
