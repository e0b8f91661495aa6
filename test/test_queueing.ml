(* Tests for the load sweep's replay through the discrete-event stage
   engine: the closed-form cases the Queueing recurrences were first
   written against, the Poisson arrival process and the sweep itself. *)
open Sb_sim

let profile_of_cycles c = [ Cost_profile.serial_stage "nf" c ]

let arrivals spec = List.map (fun (at, c) -> (at, profile_of_cycles c)) spec

let replay ?(ring_capacity = 64) platform arrivals =
  Sb_experiments.Load_sweep.replay ~platform ~ring_capacity arrivals

let test_bess_no_contention () =
  (* Arrivals far apart: sojourn = pure service time, nothing dropped. *)
  let r = replay Platform.Bess (arrivals [ (0, 1000); (10000, 1000); (20000, 1000) ]) in
  Alcotest.(check int) "all complete" 3 r.Sb_experiments.Load_sweep.completed;
  Alcotest.(check int) "no drops" 0 r.Sb_experiments.Load_sweep.dropped;
  Alcotest.(check (float 1e-6)) "sojourn = service" (Cycles.to_microseconds 1000)
    (Stats.mean r.Sb_experiments.Load_sweep.sojourn_us)

let test_bess_queueing_delay () =
  (* Back-to-back arrivals on one core: the k-th packet waits k services. *)
  let r = replay Platform.Bess (arrivals [ (0, 1000); (0, 1000); (0, 1000) ]) in
  let sorted = Stats.values r.Sb_experiments.Load_sweep.sojourn_us in
  Alcotest.(check (float 1e-6)) "first unqueued" (Cycles.to_microseconds 1000) sorted.(0);
  Alcotest.(check (float 1e-6)) "second waits one service" (Cycles.to_microseconds 2000)
    sorted.(1);
  Alcotest.(check (float 1e-6)) "third waits two" (Cycles.to_microseconds 3000) sorted.(2)

let test_tail_drop () =
  (* Ring of 2: the third simultaneous packet is dropped. *)
  let r =
    replay ~ring_capacity:2 Platform.Bess (arrivals [ (0, 1000); (0, 1000); (0, 1000) ])
  in
  Alcotest.(check int) "two complete" 2 r.Sb_experiments.Load_sweep.completed;
  Alcotest.(check int) "one dropped" 1 r.Sb_experiments.Load_sweep.dropped;
  (* Once the queue drains, later packets are admitted again. *)
  let r2 =
    replay ~ring_capacity:2 Platform.Bess
      (arrivals [ (0, 1000); (0, 1000); (0, 1000); (5000, 1000) ])
  in
  Alcotest.(check int) "late packet admitted" 3 r2.Sb_experiments.Load_sweep.completed

let test_onvm_pipeline_overlap () =
  (* Two stages: the pipeline overlaps, so packet 2's sojourn is less than
     2x its unqueued latency. *)
  let profile =
    [ Cost_profile.serial_stage "a" 1000; Cost_profile.serial_stage "b" 1000 ]
  in
  let r = replay Platform.Onvm [ (0, profile); (0, profile) ] in
  let unqueued = 2000 + Cycles.ring_hop_onvm in
  let sorted = Stats.values r.Sb_experiments.Load_sweep.sojourn_us in
  Alcotest.(check (float 1e-6)) "first packet unqueued" (Cycles.to_microseconds unqueued)
    sorted.(0);
  Alcotest.(check bool) "second overlaps in the pipeline" true
    (sorted.(1) < Cycles.to_microseconds (2 * unqueued));
  Alcotest.(check bool) "but still waits at stage a" true
    (sorted.(1) > Cycles.to_microseconds unqueued)

let test_arrival_ordering_checked () =
  Alcotest.(check bool) "unordered arrivals rejected" true
    (try
       ignore (replay Platform.Bess (arrivals [ (100, 10); (0, 10) ]));
       false
     with Invalid_argument _ -> true)

let test_poisson_arrivals () =
  let times = Array.to_list (Sb_trace.Workload.poisson_cycles ~seed:7 ~rate_mpps:1.0 2000) in
  Alcotest.(check int) "count" 2000 (List.length times);
  Alcotest.(check bool) "non-decreasing" true
    (List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < 1999) times) (List.tl times));
  (* 1 Mpps at 2 GHz = 2000 cycles mean gap; 2000 packets ~ 4M cycles. *)
  let span = List.nth times 1999 in
  Alcotest.(check bool)
    (Printf.sprintf "span ~4M cycles (%d)" span)
    true
    (span > 3_200_000 && span < 4_800_000)

let test_load_sweep_shape () =
  let rates = [ 0.4; 1.0; 2.4 ] in
  let original =
    Sb_experiments.Load_sweep.sweep ~platform:Platform.Bess
      ~mode:Speedybox.Runtime.Original ~rates
  in
  let speedybox =
    Sb_experiments.Load_sweep.sweep ~platform:Platform.Bess
      ~mode:Speedybox.Runtime.Speedybox ~rates
  in
  let p99 points rate =
    (List.find (fun p -> p.Sb_experiments.Load_sweep.offered_mpps = rate) points)
      .Sb_experiments.Load_sweep.p99_us
  in
  Alcotest.(check bool) "low load: both uncongested" true
    (p99 original 0.4 < 15. && p99 speedybox 0.4 < 15.);
  Alcotest.(check bool) "speedybox saturates later" true
    (Sb_experiments.Load_sweep.saturation_rate speedybox
    > Sb_experiments.Load_sweep.saturation_rate original);
  let overload = List.nth original 2 in
  Alcotest.(check bool) "original loses packets when overloaded" true
    (overload.Sb_experiments.Load_sweep.loss_pct > 5.)

(* Every figure of the four load-sweep rows, recorded from the closed-form
   Queueing engine the sweep ran on before the stage engine replaced it:
   (offered, achieved Mpps, p50 us, p99 us, loss %) at each default rate.
   Exact floats, so any change to arrivals, service or ring semantics
   shows. *)
let sweep_pins =
  [
    ( Platform.Bess,
      Speedybox.Runtime.Original,
      [
        (0x1.999999999999ap-3, 0x1.9bbd71de5eae5p-3, 0x1.28f5c28f5c28fp+0,
         0x1.869d9d3458cc8p+1, 0x0p+0);
        (0x1.999999999999ap-2, 0x1.9bb772b19789cp-2, 0x1.3ac083126e978p+0,
         0x1.345681ecd4a8cp+2, 0x0p+0);
        (0x1.3333333333333p-1, 0x1.34c3afcb41997p-1, 0x1.d3020c49ba5e4p+0,
         0x1.1014b9cb6848bp+3, 0x0p+0);
        (0x1.999999999999ap-1, 0x1.9b438390bc55cp-1, 0x1.34872b020c49cp+2,
         0x1.01ff7f8ca8195p+5, 0x0p+0);
        (0x1p+0, 0x1.c3e8fdd63c08p-1, 0x1.0c16c8b439581p+6,
         0x1.6404024b33dbp+6, 0x1.5666666666666p+3);
        (0x1.6666666666666p+0, 0x1.c2c3d16b8e2bfp-1, 0x1.159c28f5c28f6p+6,
         0x1.5fd0ff9724746p+6, 0x1.1f66666666666p+5);
        (0x1.ccccccccccccdp+0, 0x1.c2d51580a2829p-1, 0x1.15410624dd2f2p+6,
         0x1.56470b8cfbfc6p+6, 0x1.8e9999999999ap+5);
        (0x1.3333333333333p+1, 0x1.c117956e00afp-1, 0x1.182e147ae147bp+6,
         0x1.541f6d330941cp+6, 0x1.f1p+5);
        (0x1.8p+1, 0x1.c1b1d84b11ec8p-1, 0x1.18bf7ced91687p+6,
         0x1.57ce2c12ad81cp+6, 0x1.158p+6);
      ] );
    ( Platform.Bess,
      Speedybox.Runtime.Speedybox,
      [
        (0x1.999999999999ap-3, 0x1.9bbf4ff385c36p-3, 0x1.9d70a3d70a3d7p-1,
         0x1.6b0b39192640bp+1, 0x0p+0);
        (0x1.999999999999ap-2, 0x1.9bbb2ec461c47p-2, 0x1.9d70a3d70a3d7p-1,
         0x1.087ef9db22cfap+2, 0x0p+0);
        (0x1.3333333333333p-1, 0x1.34c949bda6db8p-1, 0x1.c76c8b439581p-1,
         0x1.22c49ba5e353fp+3, 0x0p+0);
        (0x1.999999999999ap-1, 0x1.9bb2eca5b6c64p-1, 0x1.3ef9db22d0e56p+0,
         0x1.f33588e368f08p+4, 0x0p+0);
        (0x1p+0, 0x1.014015d448b26p+0, 0x1.1970a3d70a3d7p+1,
         0x1.c30d4801f750fp+5, 0x0p+0);
        (0x1.6666666666666p+0, 0x1.361261f8c14bdp+0, 0x1.695d2f1a9fbe7p+5,
         0x1.754c2ce46499p+6, 0x1.919999999999ap+3);
        (0x1.ccccccccccccdp+0, 0x1.328a20bcf7992p+0, 0x1.7aced916872bp+5,
         0x1.74f7ee4e26d48p+6, 0x1.0366666666666p+5);
        (0x1.3333333333333p+1, 0x1.307e8c10193b5p+0, 0x1.80cd4fdf3b646p+5,
         0x1.5e8e9f6a93f2ap+6, 0x1.8a66666666666p+5);
        (0x1.8p+1, 0x1.2c2440ff8393bp+0, 0x1.860f5c28f5c29p+5,
         0x1.5f2edbb59ddc3p+6, 0x1.de33333333333p+5);
      ] );
    ( Platform.Onvm,
      Speedybox.Runtime.Original,
      [
        (0x1.999999999999ap-3, 0x1.9bbd4ff673ea1p-3, 0x1.2f5c28f5c28f6p+0,
         0x1.33d78811b1d91p+1, 0x0p+0);
        (0x1.999999999999ap-2, 0x1.9bb72ee3c13f4p-2, 0x1.316872b020c4ap+0,
         0x1.9c6afcce1c582p+1, 0x0p+0);
        (0x1.3333333333333p-1, 0x1.34c4c9fda88ddp-1, 0x1.44dd2f1a9fbe7p+0,
         0x1.0cc13fd0d0671p+2, 0x0p+0);
        (0x1.999999999999ap-1, 0x1.9baaed4a7ca6cp-1, 0x1.9676c8b439581p+0,
         0x1.ade3e6c4c5973p+2, 0x0p+0);
        (0x1p+0, 0x1.01358a35c5897p+0, 0x1.21f3b645a1cacp+1,
         0x1.39fd21ff2e483p+4, 0x0p+0);
        (0x1.6666666666666p+0, 0x1.3b1fb11528ff6p+0, 0x1.7c0189374bc6ap+5,
         0x1.142c21187e7cp+6, 0x1.619999999999ap+3);
        (0x1.ccccccccccccdp+0, 0x1.3a7a1ab2f4e75p+0, 0x1.8a1cac083126ep+5,
         0x1.12d395810624ep+6, 0x1.e99999999999ap+4);
        (0x1.3333333333333p+1, 0x1.39e0ef70d84d3p+0, 0x1.8be0c49ba5e35p+5,
         0x1.0a630941c8217p+6, 0x1.7d9999999999ap+5);
        (0x1.8p+1, 0x1.37dede833f73ep+0, 0x1.8f8f5c28f5c29p+5,
         0x1.04ce8a71de69bp+6, 0x1.d09999999999ap+5);
      ] );
    ( Platform.Onvm,
      Speedybox.Runtime.Speedybox,
      [
        (0x1.999999999999ap-3, 0x1.9bbf2e0b4c42p-3, 0x1.a4189374bc6a8p-1,
         0x1.078d79d0a6762p+1, 0x0p+0);
        (0x1.999999999999ap-2, 0x1.9bbaeaf550912p-2, 0x1.aa3d70a3d70a4p-1,
         0x1.5c6ad2dcb1465p+1, 0x0p+0);
        (0x1.3333333333333p-1, 0x1.34c8fd7641bf6p-1, 0x1.b8f5c28f5c29p-1,
         0x1.9fc28f5c28f56p+1, 0x0p+0);
        (0x1.999999999999ap-1, 0x1.9bb2650d1b5ccp-1, 0x1.d76c8b439581p-1,
         0x1.1bed7c6fbd26ap+2, 0x0p+0);
        (0x1p+0, 0x1.014cd5d143faep+0, 0x1.265604189374cp+0,
         0x1.c39dc725c3deep+2, 0x0p+0);
        (0x1.6666666666666p+0, 0x1.67e7550b5941ep+0, 0x1.41d2f1a9fbe76p+1,
         0x1.4ca848beb5b2cp+4, 0x0p+0);
        (0x1.ccccccccccccdp+0, 0x1.aab76b89201d3p+0, 0x1.ad6872b020c4ap+4,
         0x1.605df3b645a1dp+5, 0x1.b666666666666p+2);
        (0x1.3333333333333p+1, 0x1.babe92c23eb3p+0, 0x1.39f126e978d5p+5,
         0x1.5fa2de00d1b72p+5, 0x1.a99999999999ap+4);
        (0x1.8p+1, 0x1.c5f1aefb1106p+0, 0x1.3f010624dd2f2p+5,
         0x1.7627136a400fap+5, 0x1.3b9999999999ap+5);
      ] );
  ]

let test_load_sweep_pinned () =
  List.iter
    (fun (platform, mode, expected) ->
      let rates = List.map (fun (offered, _, _, _, _) -> offered) expected in
      let got =
        List.map
          (fun p ->
            Sb_experiments.Load_sweep.
              (p.offered_mpps, p.achieved_mpps, p.p50_us, p.p99_us, p.loss_pct))
          (Sb_experiments.Load_sweep.sweep ~platform ~mode ~rates)
      in
      let row =
        Printf.sprintf "%s %s" (Platform.name platform)
          (match mode with
          | Speedybox.Runtime.Original -> "original"
          | Speedybox.Runtime.Speedybox -> "speedybox")
      in
      List.iter2
        (fun (o, a, p50, p99, loss) (o', a', p50', p99', loss') ->
          let check what x y =
            Alcotest.(check (float 0.)) (Printf.sprintf "%s %.1f Mpps %s" row o what) x y
          in
          check "offered" o o';
          check "achieved" a a';
          check "p50" p50 p50';
          check "p99" p99 p99';
          check "loss" loss loss')
        expected got)
    sweep_pins

let suite =
  [
    Alcotest.test_case "bess without contention" `Quick test_bess_no_contention;
    Alcotest.test_case "bess queueing delay" `Quick test_bess_queueing_delay;
    Alcotest.test_case "tail drop" `Quick test_tail_drop;
    Alcotest.test_case "onvm pipeline overlap" `Quick test_onvm_pipeline_overlap;
    Alcotest.test_case "arrival ordering checked" `Quick test_arrival_ordering_checked;
    Alcotest.test_case "poisson arrivals" `Quick test_poisson_arrivals;
    Alcotest.test_case "load sweep shape" `Slow test_load_sweep_shape;
    Alcotest.test_case "load sweep pinned" `Slow test_load_sweep_pinned;
  ]
