(* Tests for the idle-timeout rule-expiry extension. *)
open Sb_packet

let monitor_chain () =
  Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

let timed_packet ~at =
  let p = Test_util.udp_packet () in
  p.Packet.ingress_cycle <- at;
  p

let runtime timeout =
  Speedybox.Runtime.create
    (Speedybox.Runtime.config ~idle_timeout_cycles:timeout ())
    (monitor_chain ())

let test_idle_flow_expires () =
  let rt = runtime 10_000 in
  (* Two packets close together, then a long gap, then a third. *)
  let out1 = Speedybox.Runtime.process_packet rt (timed_packet ~at:0) in
  let out2 = Speedybox.Runtime.process_packet rt (timed_packet ~at:1_000) in
  Alcotest.(check bool) "first records" true (out1.Speedybox.Runtime.path = Speedybox.Runtime.Slow_path);
  Alcotest.(check bool) "second fast" true (out2.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path);
  let out3 = Speedybox.Runtime.process_packet rt (timed_packet ~at:50_000) in
  Alcotest.(check bool) "post-idle packet re-records" true
    (out3.Speedybox.Runtime.path = Speedybox.Runtime.Slow_path);
  Alcotest.(check int) "expiry counted" 1 (Speedybox.Runtime.expired_flows rt);
  let out4 = Speedybox.Runtime.process_packet rt (timed_packet ~at:51_000) in
  Alcotest.(check bool) "then fast again" true
    (out4.Speedybox.Runtime.path = Speedybox.Runtime.Fast_path)

let test_active_flow_survives () =
  let rt = runtime 10_000 in
  for i = 0 to 19 do
    ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:(i * 5_000)))
  done;
  Alcotest.(check int) "never expired" 0 (Speedybox.Runtime.expired_flows rt);
  Alcotest.(check int) "rule retained" 1
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt))

let test_background_sweep () =
  (* An abandoned flow is evicted by the periodic sweep driven by other
     traffic. *)
  let rt = runtime 10_000 in
  ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:0));
  (* 100 packets of a different flow, spread beyond the timeout. *)
  for i = 1 to 100 do
    let p = Test_util.udp_packet ~sport:49000 ~dport:53 () in
    p.Packet.ingress_cycle <- 20_000 + (i * 100);
    ignore (Speedybox.Runtime.process_packet rt p)
  done;
  Alcotest.(check int) "abandoned flow swept" 1 (Speedybox.Runtime.expired_flows rt);
  Alcotest.(check int) "only the live rule remains" 1
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt))

let test_untimed_packets_never_expire () =
  let rt = runtime 10 in
  (* ingress_cycle stays 0 everywhere: idleness is unmeasurable, nothing
     expires. *)
  for _ = 1 to 200 do
    ignore (Speedybox.Runtime.process_packet rt (Test_util.udp_packet ()))
  done;
  Alcotest.(check int) "no expiry without timestamps" 0 (Speedybox.Runtime.expired_flows rt)

let test_disabled_by_default () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (monitor_chain ()) in
  ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:0));
  ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:1_000_000_000));
  Alcotest.(check int) "no timeout configured" 0 (Speedybox.Runtime.expired_flows rt)

let test_poisson_stamping () =
  let packets = Test_util.tcp_flow 5 in
  let stamped = Sb_trace.Workload.with_poisson_times ~seed:3 ~rate_mpps:1.0 packets in
  let times = List.map (fun p -> p.Packet.ingress_cycle) stamped in
  Alcotest.(check bool) "strictly increasing" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 5) times) (List.tl times));
  Alcotest.(check bool) "positive" true (List.hd times > 0);
  Alcotest.(check bool) "bad rate rejected" true
    (try
       ignore (Sb_trace.Workload.with_poisson_times ~seed:1 ~rate_mpps:0. packets);
       false
     with Invalid_argument _ -> true)

let test_expiry_reclaims_nf_state () =
  (* Idle expiry also tears down the NFs' own per-flow state via their
     remove_flow hooks — the point of bounded memory at scale.  The
     monitor's counter table must shrink when a flow is swept. *)
  let mon = Sb_nf.Monitor.create () in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~idle_timeout_cycles:10_000 ())
      (Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf mon ])
  in
  ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:0));
  Alcotest.(check int) "monitor tracks the flow" 1 (Sb_nf.Monitor.flow_count mon);
  (* Other-flow traffic past the timeout drives the sweep. *)
  for i = 1 to 50 do
    let p = Test_util.udp_packet ~sport:49000 ~dport:53 () in
    p.Packet.ingress_cycle <- 20_000 + (i * 100);
    ignore (Speedybox.Runtime.process_packet rt p)
  done;
  Alcotest.(check int) "abandoned flow swept" 1 (Speedybox.Runtime.expired_flows rt);
  Alcotest.(check int) "monitor state reclaimed" 1 (Sb_nf.Monitor.flow_count mon)

let test_expiry_on_arrival_reclaims_nf_state () =
  (* Flow A's deadline (100_100) lies inside the wheel's 256-cycle tick
     that B's arrival at 100_098 leaves unfired, so A's packet at 100_101
     finds its own flow past the timeout before the wheel does.  That
     expiry must reach the NFs' remove_flow hooks like a wheel-fired one,
     with the flow's packed ingress key. *)
  let removed = ref [] in
  let nf =
    Speedybox.Nf.make ~name:"hooks"
      ~remove_flow:(fun k1 k2 -> removed := (k1, k2) :: !removed)
      (fun _ _ -> Speedybox.Nf.forwarded 10)
  in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~idle_timeout_cycles:100_000 ())
      (Speedybox.Chain.create ~name:"hooks" [ nf ])
  in
  let flow_b ~at =
    let p = Test_util.udp_packet ~sport:49000 ~dport:53 () in
    p.Packet.ingress_cycle <- at;
    p
  in
  ignore (Speedybox.Runtime.process_packet rt (timed_packet ~at:100));
  ignore (Speedybox.Runtime.process_packet rt (flow_b ~at:100_098));
  let a = timed_packet ~at:100_101 in
  let key = Sb_flow.Five_tuple.(packet_pack1 a, packet_pack2 a) in
  ignore (Speedybox.Runtime.process_packet rt a);
  Alcotest.(check int) "A expired on arrival" 1 (Speedybox.Runtime.expired_flows rt);
  Alcotest.(check (list (pair int int))) "A's remove_flow hook ran" [ key ] !removed

let test_expiry_preserves_equivalence () =
  (* With aggressive expiry, outputs and state still match the original
     chain: expiry only forces re-recording. *)
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:5 ~rate_mpps:0.05
      (Sb_trace.Workload.dcn_trace
         { Sb_trace.Workload.default_dcn with Sb_trace.Workload.n_flows = 30 })
  in
  let report =
    Speedybox.Equivalence.check
      ~config_b:
        (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Speedybox
           ~idle_timeout_cycles:100_000 ())
      ~build_chain:(fun () ->
        Speedybox.Chain.create ~name:"exp"
          [
            Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.1") ());
            Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
          ])
      trace
  in
  Test_util.check_equivalent "expiry equivalence" report

let suite =
  [
    Alcotest.test_case "idle flow expires and re-records" `Quick test_idle_flow_expires;
    Alcotest.test_case "active flow survives" `Quick test_active_flow_survives;
    Alcotest.test_case "background sweep" `Quick test_background_sweep;
    Alcotest.test_case "untimed packets never expire" `Quick test_untimed_packets_never_expire;
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "poisson stamping" `Quick test_poisson_stamping;
    Alcotest.test_case "expiry reclaims NF state" `Quick test_expiry_reclaims_nf_state;
    Alcotest.test_case "expiry on arrival reclaims NF state" `Quick
      test_expiry_on_arrival_reclaims_nf_state;
    Alcotest.test_case "expiry preserves equivalence" `Quick test_expiry_preserves_equivalence;
  ]
