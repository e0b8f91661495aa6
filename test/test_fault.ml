(* The fault-containment layer: injector determinism, health transitions,
   containment and quarantine on both paths, per-NF failure policies, and
   the injection soak asserting the containment invariants. *)
open Sb_fault

let backends n =
  List.init n (fun i ->
      (Printf.sprintf "b%d" i, Sb_packet.Ipv4_addr.of_octets 192 168 2 (10 + i)))

let lb_chain () =
  let lb = Sb_nf.Maglev.create ~backends:(backends 4) () in
  Speedybox.Chain.create ~name:"lb"
    [ Sb_nf.Maglev.nf lb; Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

(* An NF that raises on demand, or records a state function / event that
   raises on demand — the organic-fault test double. *)
let bomber ?(raise_in_process = fun _ -> false) ?(sf_armed = ref false)
    ?(event_armed = ref false) () =
  let calls = ref 0 in
  Speedybox.Nf.make ~name:"bomber" (fun ctx packet ->
      incr calls;
      if raise_in_process !calls then failwith "bomber: process crash";
      Speedybox.Api.localmat_add_sf ctx
        (Sb_mat.State_function.make ~nf:"bomber" ~label:"tick"
           ~mode:Sb_mat.State_function.Ignore (fun _ ->
             if !sf_armed then failwith "bomber: state-function crash";
             5));
      Speedybox.Api.register_event ctx
        ~condition:(fun () ->
          if !event_armed then failwith "bomber: condition crash";
          false)
        (Sb_mat.Event_table.update ~nf:"bomber" ~one_shot:false ());
      ignore packet;
      Speedybox.Nf.forwarded 100)

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_injector_determinism () =
  let schedule seed =
    let inj = Injector.create ~seed () in
    Injector.set_rate inj ~nf:"a" Injector.Raise 0.2;
    Injector.set_rate inj ~nf:"a" Injector.Stall 0.1;
    Injector.set_rate inj ~nf:"b" Injector.Corrupt_verdict 0.3;
    List.init 200 (fun _ -> (Injector.draw inj ~nf:"a", Injector.draw inj ~nf:"b"))
  in
  Alcotest.(check bool) "same seed, same schedule" true (schedule 11 = schedule 11);
  Alcotest.(check bool) "different seed, different schedule" false (schedule 11 = schedule 12)

let test_injector_streams_independent () =
  (* NF [a]'s schedule is a function of its own call sequence alone:
     interleaving calls to other NFs must not perturb it. *)
  let run ~interleave =
    let inj = Injector.create ~seed:5 () in
    Injector.set_rate inj ~nf:"a" Injector.Raise 0.15;
    Injector.set_rate inj ~nf:"other" Injector.Raise 0.5;
    List.init 100 (fun _ ->
        if interleave then ignore (Injector.draw inj ~nf:"other");
        Injector.draw inj ~nf:"a")
  in
  Alcotest.(check bool) "per-NF streams independent" true
    (run ~interleave:false = run ~interleave:true)

let test_injector_scripted () =
  let inj = Injector.create ~seed:1 () in
  Injector.script inj ~nf:"a" ~at:3 Injector.Raise;
  Injector.script inj ~nf:"a" ~at:5 Injector.Stall;
  let draws = List.init 6 (fun _ -> Injector.draw inj ~nf:"a") in
  Alcotest.(check bool) "fires exactly at calls 3 and 5" true
    (draws = [ None; None; Some Injector.Raise; None; Some Injector.Stall; None ]);
  Alcotest.(check int) "two injections counted" 2 (Injector.total_injected inj);
  Alcotest.(check int) "six calls counted" 6 (Injector.calls inj ~nf:"a")

let test_injector_validation () =
  let inj = Injector.create ~seed:1 () in
  Alcotest.(check bool) "rate > 1 rejected" true
    (try
       Injector.set_rate inj ~nf:"a" Injector.Raise 1.5;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind parser" true
    (Injector.kind_of_string "corrupt" = Some Injector.Corrupt_verdict
    && Injector.kind_of_string "nope" = None)

(* ------------------------------------------------------------------ *)
(* Health *)

let test_health_transitions () =
  let h = Health.create (Health.policy ~degraded_after:2 ~failed_after:4 ()) [ "nf" ] in
  Alcotest.(check bool) "starts healthy" true (Health.state h "nf" = Health.Healthy);
  Alcotest.(check bool) "first fault: no crossing" true
    (Health.record_fault h "nf" = Health.No_change);
  Alcotest.(check bool) "second fault: degraded" true
    (Health.record_fault h "nf" = Health.To_degraded);
  Alcotest.(check bool) "third fault: no crossing" true
    (Health.record_fault h "nf" = Health.No_change);
  Alcotest.(check bool) "fourth fault: failed" true
    (Health.record_fault h "nf" = Health.To_failed);
  Alcotest.(check bool) "stays failed" true
    (Health.record_fault h "nf" = Health.No_change && Health.state h "nf" = Health.Failed);
  Alcotest.(check bool) "an NF the table does not track is refused" true
    (match Health.record_fault h "other" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Two supervisors over one table, as a sharded plan's shards: each sees
   the other's faults at once, and [sync] reports a failure recorded
   elsewhere exactly once, and never the supervisor's own. *)
let test_health_shared () =
  let h = Health.create (Health.policy ~degraded_after:1 ~failed_after:2 ()) [ "nf" ] in
  let a = Supervisor.create h in
  let b = Supervisor.create (Health.create Health.default_policy []) in
  Supervisor.share_health b h;
  Alcotest.(check bool) "nothing to catch up on" false
    (Supervisor.sync b || Supervisor.active b);
  ignore (Supervisor.record_fault a ~nf:"nf");
  Alcotest.(check bool) "b reads a's fault" true
    (Health.state (Supervisor.health b) "nf" = Health.Degraded);
  Alcotest.(check bool) "a fault wakes b, no flush" true
    ((not (Supervisor.sync b)) && Supervisor.active b);
  Alcotest.(check bool) "b's own failure" true
    (Supervisor.record_fault b ~nf:"nf" = Health.To_failed);
  Alcotest.(check bool) "b already flushed for it" false (Supervisor.sync b);
  Alcotest.(check bool) "a flushes once" true
    (Supervisor.sync a && not (Supervisor.sync a));
  Alcotest.(check (list (triple string string int))) "one count"
    [ ("nf", "Failed", 2) ]
    (List.map
       (fun (nf, st, n) -> (nf, Format.asprintf "%a" Health.pp_state st, n))
       (Health.snapshot h))

let test_health_policy_overrides () =
  let h =
    Health.create
      (Health.policy ~on_failure:Health.Slow_path_only
         ~overrides:[ ("lb", Health.Bypass) ] ())
      [ "lb"; "fw" ]
  in
  Alcotest.(check bool) "override applies" true (Health.on_failure h "lb" = Health.Bypass);
  Alcotest.(check bool) "default elsewhere" true
    (Health.on_failure h "fw" = Health.Slow_path_only)

(* ------------------------------------------------------------------ *)
(* Containment in the runtime *)

let flow_state_empty rt =
  Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt) = 0
  && Sb_mat.Event_table.total_armed (Speedybox.Chain.events (Speedybox.Runtime.chain rt)) = 0
  && List.for_all
       (fun mat -> Sb_mat.Local_mat.flow_count mat = 0)
       (Speedybox.Chain.local_mats (Speedybox.Runtime.chain rt))

let test_slow_path_containment () =
  (* The initial packet's NF crashes mid-walk: the packet drops, the walk's
     partial records are quarantined, and the next packet re-records. *)
  let chain =
    Speedybox.Chain.create ~name:"b"
      [ bomber ~raise_in_process:(fun c -> c = 1) (); Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let out = Speedybox.Runtime.process_packet rt (Test_util.udp_packet ()) in
  Alcotest.(check bool) "faulted packet dropped" true
    (out.Speedybox.Runtime.verdict = Sb_mat.Header_action.Dropped);
  Alcotest.(check int) "one fault charged" 1 out.Speedybox.Runtime.faults;
  Alcotest.(check bool) "quarantine left no residual state" true (flow_state_empty rt);
  let sup = Speedybox.Runtime.supervisor rt in
  Alcotest.(check int) "contained counted" 1 (Supervisor.contained sup);
  Alcotest.(check int) "quarantine counted" 1 (Supervisor.quarantines sup);
  let out2 = Speedybox.Runtime.process_packet rt (Test_util.udp_packet ()) in
  Alcotest.(check bool) "next packet recovers" true
    (out2.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded
    && out2.Speedybox.Runtime.faults = 0)

let test_fast_path_sf_containment () =
  (* A recorded state function starts raising once the flow is on the fast
     path: the fault is attributed to the recording NF, the rule torn
     down. *)
  let sf_armed = ref false in
  let chain = Speedybox.Chain.create ~name:"b" [ bomber ~sf_armed () ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let p () = Test_util.udp_packet () in
  ignore (Speedybox.Runtime.process_packet rt (p ()));
  let out2 = Speedybox.Runtime.process_packet rt (p ()) in
  Alcotest.(check bool) "fast path before arming" true
    (out2.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path);
  sf_armed := true;
  let out3 = Speedybox.Runtime.process_packet rt (p ()) in
  Alcotest.(check bool) "contained to a drop" true
    (out3.Speedybox.Runtime.verdict = Sb_mat.Header_action.Dropped
    && out3.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path);
  Alcotest.(check bool) "rule quarantined" true (flow_state_empty rt);
  let sup = Speedybox.Runtime.supervisor rt in
  Alcotest.(check int) "fault attributed to the NF" 1
    (Health.faults (Supervisor.health sup) "bomber");
  sf_armed := false;
  let out4 = Speedybox.Runtime.process_packet rt (p ()) in
  Alcotest.(check bool) "flow re-records after quarantine" true
    (out4.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded
    && out4.Speedybox.Runtime.path = Speedybox.Runtime.Slow_path)

let test_event_condition_containment () =
  (* A raising event condition disarms that event only; the flow's rule
     and the NF's health record both register the fault. *)
  let event_armed = ref false in
  let chain = Speedybox.Chain.create ~name:"b" [ bomber ~event_armed () ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let p () = Test_util.udp_packet () in
  ignore (Speedybox.Runtime.process_packet rt (p ()));
  event_armed := true;
  let out = Speedybox.Runtime.process_packet rt (p ()) in
  Alcotest.(check bool) "packet still forwarded on the fast path" true
    (out.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded
    && out.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path);
  let events = Speedybox.Chain.events (Speedybox.Runtime.chain rt) in
  Alcotest.(check int) "condition fault counted" 1 (Sb_mat.Event_table.condition_faults events);
  Alcotest.(check int) "raising event disarmed" 0 (Sb_mat.Event_table.total_armed events);
  Alcotest.(check int) "fault reached the NF's health record" 1
    (Health.faults (Supervisor.health (Speedybox.Runtime.supervisor rt)) "bomber");
  event_armed := false;
  let out2 = Speedybox.Runtime.process_packet rt (p ()) in
  Alcotest.(check bool) "rule survives the disarm" true
    (out2.Speedybox.Runtime.verdict = Sb_mat.Header_action.Forwarded
    && out2.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path)

let run_to_failure ~on_failure =
  (* A bomber that raises on every 2nd call, under a tight policy, until
     it fails; then observe what its flows do. *)
  let inj = Injector.create ~seed:3 () in
  Injector.script inj ~nf:"bomber" ~at:1 Injector.Raise;
  Injector.script inj ~nf:"bomber" ~at:2 Injector.Raise;
  let chain =
    Speedybox.Chain.create ~name:"b"
      [ bomber (); Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config
         ~fault_policy:(Health.policy ~degraded_after:1 ~failed_after:2 ~on_failure ())
         ~injector:inj ())
      chain
  in
  let outs =
    List.init 5 (fun i ->
        Speedybox.Runtime.process_packet rt
          (Test_util.udp_packet ~payload:(Printf.sprintf "p%d" i) ()))
  in
  (rt, outs)

let test_bypass_policy () =
  let rt, outs = run_to_failure ~on_failure:Health.Bypass in
  let v = List.map (fun o -> o.Speedybox.Runtime.verdict) outs in
  Alcotest.(check bool) "two injected crashes drop, then bypass forwards" true
    (v
    = [
        Sb_mat.Header_action.Dropped;
        Sb_mat.Header_action.Dropped;
        Sb_mat.Header_action.Forwarded;
        Sb_mat.Header_action.Forwarded;
        Sb_mat.Header_action.Forwarded;
      ]);
  let sup = Speedybox.Runtime.supervisor rt in
  Alcotest.(check bool) "bomber failed" true
    (Health.state (Supervisor.health sup) "bomber" = Health.Failed);
  (* bypassed NF records nothing, so the rebuilt fast path omits it — and
     the chain still consolidates *)
  Alcotest.(check bool) "fast path rebuilt without the NF" true
    ((List.nth outs 4).Speedybox.Runtime.path = Speedybox.Runtime.Fast_path)

let test_drop_flow_policy () =
  let rt, outs = run_to_failure ~on_failure:Health.Drop_flow in
  let v = List.map (fun o -> o.Speedybox.Runtime.verdict) outs in
  Alcotest.(check bool) "every packet drops after failure" true
    (List.for_all (fun x -> x = Sb_mat.Header_action.Dropped) v);
  Alcotest.(check bool) "drop rule consolidated (fast-path early drop)" true
    ((List.nth outs 4).Speedybox.Runtime.path = Speedybox.Runtime.Fast_path);
  ignore rt

let test_slow_path_only_policy () =
  let rt, outs = run_to_failure ~on_failure:Health.Slow_path_only in
  let v = List.map (fun o -> o.Speedybox.Runtime.verdict) outs in
  Alcotest.(check bool) "NF keeps running after failure" true
    (List.filteri (fun i _ -> i >= 2) v
    |> List.for_all (fun x -> x = Sb_mat.Header_action.Forwarded));
  (* pinned to the slow path: no consolidation while the NF is failed *)
  List.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Printf.sprintf "packet %d stays on the slow path" i)
        true
        (o.Speedybox.Runtime.path = Speedybox.Runtime.Slow_path))
    outs;
  Alcotest.(check int) "no rules built" 0
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt))

let test_failed_nf_flushes_rules () =
  (* Other flows' consolidated rules embed the failed NF's closures: the
     To_failed transition must flush them all. *)
  let inj = Injector.create ~seed:9 () in
  Injector.script inj ~nf:"bomber" ~at:6 Injector.Raise;
  let chain = Speedybox.Chain.create ~name:"b" [ bomber () ] in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config
         ~fault_policy:(Health.policy ~degraded_after:1 ~failed_after:1 ())
         ~injector:inj ())
      chain
  in
  let flow i =
    Test_util.udp_packet ~src:(Printf.sprintf "10.0.0.%d" (i + 1)) ()
  in
  (* five flows consolidate (calls 1-5); call 6 is flow 0 again, crashing *)
  for i = 0 to 4 do
    ignore (Speedybox.Runtime.process_packet rt (flow i))
  done;
  Alcotest.(check int) "five rules live" 5
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt));
  ignore (Speedybox.Runtime.process_packet rt (flow 0));
  Alcotest.(check bool) "flush on failure" true (flow_state_empty rt)

let registry_chain spec =
  match Sb_experiments.Chain_registry.build spec with
  | Ok build -> build
  | Error msg -> Alcotest.fail msg

(* Once an NF is [Failed] under [Bypass] or [Drop_flow], the gate stops
   every walk before the NF's draw.  The fast path must stop there too, or
   the injector keeps faulting, and containment keeps dropping, packets
   the NF never processes. *)
let test_failed_nf_never_drawn () =
  let trace = Sb_trace.Workload.dcn_trace Sb_trace.Workload.default_dcn in
  List.iter
    (fun (mode, on_failure) ->
      let label =
        Printf.sprintf "%s, %s"
          (match mode with
          | Speedybox.Runtime.Original -> "original"
          | Speedybox.Runtime.Speedybox -> "speedybox")
          (Format.asprintf "%a" Health.pp_on_failure on_failure)
      in
      let inj = Injector.create ~seed:1 () in
      Injector.set_rate inj ~nf:"monitor" Injector.Raise 0.2;
      let rt =
        Speedybox.Runtime.create
          (Speedybox.Runtime.config ~mode ~fault_policy:(Health.policy ~on_failure ())
             ~injector:inj ())
          (registry_chain "mazunat,monitor" ())
      in
      let sup = Speedybox.Runtime.supervisor rt in
      let charged () =
        (Injector.calls inj ~nf:"monitor", Supervisor.contained sup, Supervisor.faulted_packets sup)
      in
      let at_failure = ref None in
      List.iteri
        (fun i p ->
          ignore (Speedybox.Runtime.process_packet rt p);
          match !at_failure with
          | None ->
              if Health.state (Supervisor.health sup) "monitor" = Health.Failed then
                at_failure := Some (charged ())
          | Some figures ->
              if charged () <> figures then
                Alcotest.failf "%s: packet %d charged the failed monitor" label i)
        trace;
      Alcotest.(check bool) (label ^ ": monitor failed") true (!at_failure <> None);
      Alcotest.(check int) (label ^ ": contained up to failure") 8 (Supervisor.contained sup))
    [
      (Speedybox.Runtime.Original, Health.Bypass);
      (Speedybox.Runtime.Original, Health.Drop_flow);
      (Speedybox.Runtime.Speedybox, Health.Bypass);
      (Speedybox.Runtime.Speedybox, Health.Drop_flow);
    ]

(* A walk ends at a drop and at a raise, so it never reaches the NFs
   behind them: behind a rule's static drop at the IP filter, and behind
   an injected raise in the NAT.  The fast path must not draw for those
   NFs either: the two paths see one fault schedule, NF by NF and packet
   by packet. *)
let test_draws_match_walk () =
  let trace =
    Sb_trace.Workload.dcn_trace
      { Sb_trace.Workload.default_dcn with Sb_trace.Workload.mean_flow_packets = 12. }
  in
  let check (spec, raising) =
    let build = registry_chain spec in
    let names = List.map (fun nf -> nf.Speedybox.Nf.name) (Speedybox.Chain.nfs (build ())) in
    let run mode =
      let inj = Injector.create ~seed:1 () in
      Option.iter (fun nf -> Injector.set_rate inj ~nf Injector.Raise 0.05) raising;
      Injector.set_rate inj ~nf:"monitor" Injector.Stall 0.1;
      let rt =
        Speedybox.Runtime.create
          (Speedybox.Runtime.config ~mode
             ~fault_policy:(Health.policy ~degraded_after:max_int ~failed_after:max_int ())
             ~injector:inj ())
          (build ())
      in
      let faults = ref [] in
      ignore
        (Speedybox.Runtime.run_trace
           ~on_output:(fun _ out -> faults := out.Speedybox.Runtime.faults :: !faults)
           rt trace);
      ( List.map (fun nf -> (nf, (Injector.calls inj ~nf, Injector.injected inj ~nf))) names,
        List.rev !faults )
    in
    let draws_o, faults_o = run Speedybox.Runtime.Original in
    let draws_s, faults_s = run Speedybox.Runtime.Speedybox in
    Alcotest.(check bool) (spec ^ ": the monitor stalled") true
      (snd (List.assoc "monitor" draws_o) > 0);
    Alcotest.(check (list (pair string (pair int int))))
      (spec ^ ": per-NF calls and injections") draws_o draws_s;
    Alcotest.(check (list int)) (spec ^ ": per-packet faults") faults_o faults_s
  in
  List.iter check [ ("ipfilter:80,monitor", None); ("mazunat,monitor", Some "mazunat") ]

(* ------------------------------------------------------------------ *)
(* Staged executor *)

let test_staged_containment () =
  let inj = Injector.create ~seed:21 () in
  Injector.set_rate inj ~nf:"maglev" Injector.Raise 0.1;
  let trace =
    Sb_trace.Workload.dcn_trace
      {
        Sb_trace.Workload.seed = 500;
        n_flows = 60;
        mean_flow_packets = 10.;
        payload_len = (16, 128);
        udp_fraction = 0.2;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  let trace = Sb_trace.Workload.with_poisson_times ~seed:77 ~rate_mpps:0.5 trace in
  let r = Speedybox.Staged_runtime.run
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ~injector:inj ())
      (lb_chain ()) trace in
  Alcotest.(check bool) "faults injected and contained" true
    (r.Speedybox.Staged_runtime.faults > 0
    && r.Speedybox.Staged_runtime.faults = Injector.total_injected inj);
  Alcotest.(check bool) "pipeline completed the trace" true
    (r.Speedybox.Staged_runtime.forwarded
     + r.Speedybox.Staged_runtime.dropped_by_chain
     + r.Speedybox.Staged_runtime.dropped_overflow
    = List.length trace);
  let clean = Speedybox.Staged_runtime.run
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ())
      (lb_chain ()) trace in
  Alcotest.(check int) "no faults without an injector" 0
    clean.Speedybox.Staged_runtime.faults

(* ------------------------------------------------------------------ *)
(* The injection soak (the PR's acceptance run): ≤10% per-NF rates, and
   (1) the runtime never raises, (2) non-faulted flows are byte-identical
   to a fault-free Original run, (3) fault accounting balances, (4) no
   unbounded residual state. *)

let soak_trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 4242;
      n_flows = 150;
      mean_flow_packets = 12.;
      payload_len = (16, 256);
      udp_fraction = 0.2;
      malicious_fraction = 0.;
      tokens = [];
    }

let flow_key packet = Sb_flow.Fid.of_tuple (Sb_flow.Five_tuple.of_packet packet)

let test_injection_soak () =
  let trace = soak_trace () in
  (* reference: fault-free Original run *)
  let reference = Hashtbl.create 4096 in
  let ref_rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Original ())
      (lb_chain ())
  in
  let idx = ref 0 in
  ignore
    (Speedybox.Runtime.run_trace
       ~on_output:(fun _ out ->
         Hashtbl.replace reference !idx
           (out.Speedybox.Runtime.verdict, Sb_packet.Packet.wire out.Speedybox.Runtime.packet);
         incr idx)
       ref_rt trace);
  (* injected run: every fault kind, ≤10% rates *)
  let inj = Injector.create ~seed:777 () in
  Injector.set_rate inj ~nf:"maglev" Injector.Raise 0.02;
  Injector.set_rate inj ~nf:"monitor" Injector.Corrupt_verdict 0.015;
  Injector.set_rate inj ~nf:"monitor" Injector.Stall 0.01;
  let rt =
    Speedybox.Runtime.create (Speedybox.Runtime.config ~injector:inj ()) (lb_chain ())
  in
  let faulted_flows = Hashtbl.create 64 in
  let observed = Hashtbl.create 4096 in
  let idx = ref 0 in
  let result =
    Speedybox.Runtime.run_trace
      ~on_output:(fun original out ->
        if out.Speedybox.Runtime.faults > 0 then
          Hashtbl.replace faulted_flows (flow_key original) ();
        Hashtbl.replace observed !idx
          ( flow_key original,
            out.Speedybox.Runtime.verdict,
            Sb_packet.Packet.wire out.Speedybox.Runtime.packet );
        incr idx)
      rt trace
  in
  let sup = Speedybox.Runtime.supervisor rt in
  Alcotest.(check bool) "faults actually injected" true (Supervisor.total_faults sup > 50);
  Alcotest.(check int) "every injected fault accounted for"
    (Injector.total_injected inj) (Supervisor.total_faults sup);
  Alcotest.(check bool) "faulted packets surfaced in the run result" true
    (result.Speedybox.Runtime.faulted_packets > 0
    && result.Speedybox.Runtime.faulted_packets <= Supervisor.total_faults sup);
  (* (2) flows the fault layer never touched come out byte-identical *)
  let compared = ref 0 in
  Hashtbl.iter
    (fun i (key, verdict, bytes) ->
      if not (Hashtbl.mem faulted_flows key) then begin
        incr compared;
        let ref_verdict, ref_bytes = Hashtbl.find reference i in
        if verdict <> ref_verdict || not (String.equal bytes ref_bytes) then
          Alcotest.failf "packet %d of a non-faulted flow diverged" i
      end)
    observed;
  Alcotest.(check bool)
    (Printf.sprintf "enough non-faulted packets compared (%d)" !compared)
    true
    (!compared > List.length trace / 5);
  (* (4) residual state is bounded by the flows that can still hold rules *)
  let live_rules = Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt) in
  Alcotest.(check bool)
    (Printf.sprintf "rule table bounded (%d rules <= 150 flows)" live_rules)
    true (live_rules <= 150);
  (* determinism: the same seed replays the same run *)
  let inj2 = Injector.create ~seed:777 () in
  Injector.set_rate inj2 ~nf:"maglev" Injector.Raise 0.02;
  Injector.set_rate inj2 ~nf:"monitor" Injector.Corrupt_verdict 0.015;
  Injector.set_rate inj2 ~nf:"monitor" Injector.Stall 0.01;
  let rt2 =
    Speedybox.Runtime.create (Speedybox.Runtime.config ~injector:inj2 ()) (lb_chain ())
  in
  let result2 = Speedybox.Runtime.run_trace rt2 trace in
  Alcotest.(check bool) "fault schedule replays exactly" true
    (result2.Speedybox.Runtime.forwarded = result.Speedybox.Runtime.forwarded
    && result2.Speedybox.Runtime.faulted_packets = result.Speedybox.Runtime.faulted_packets
    && Injector.total_injected inj2 = Injector.total_injected inj)

let suite =
  [
    Alcotest.test_case "injector determinism" `Quick test_injector_determinism;
    Alcotest.test_case "injector streams independent" `Quick test_injector_streams_independent;
    Alcotest.test_case "injector scripted one-shots" `Quick test_injector_scripted;
    Alcotest.test_case "injector validation" `Quick test_injector_validation;
    Alcotest.test_case "health transitions" `Quick test_health_transitions;
    Alcotest.test_case "health policy overrides" `Quick test_health_policy_overrides;
    Alcotest.test_case "one health table, two supervisors" `Quick test_health_shared;
    Alcotest.test_case "slow-path containment" `Quick test_slow_path_containment;
    Alcotest.test_case "fast-path state-function containment" `Quick
      test_fast_path_sf_containment;
    Alcotest.test_case "event condition containment" `Quick test_event_condition_containment;
    Alcotest.test_case "bypass policy" `Quick test_bypass_policy;
    Alcotest.test_case "drop-flow policy" `Quick test_drop_flow_policy;
    Alcotest.test_case "slow-path-only policy" `Quick test_slow_path_only_policy;
    Alcotest.test_case "failed NF flushes all rules" `Quick test_failed_nf_flushes_rules;
    Alcotest.test_case "failed NF is never drawn" `Quick test_failed_nf_never_drawn;
    Alcotest.test_case "fast path draws what the walk draws" `Quick test_draws_match_walk;
    Alcotest.test_case "staged executor containment" `Quick test_staged_containment;
    Alcotest.test_case "injection soak" `Slow test_injection_soak;
  ]
