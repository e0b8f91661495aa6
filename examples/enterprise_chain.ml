(* The paper's motivating enterprise chain (Chain 1 of §VII-B3):
   MazuNAT -> Maglev -> Monitor -> IPFilter, driven by a synthetic
   datacenter workload, comparing the original chain against SpeedyBox on
   both platform models.

   Run with: dune exec examples/enterprise_chain.exe *)

let ip = Sb_packet.Ipv4_addr.of_string

let build_chain () =
  let backends =
    List.init 8 (fun i ->
        (Printf.sprintf "backend%d" i, Sb_packet.Ipv4_addr.of_octets 192 168 2 (10 + i)))
  in
  Speedybox.Chain.create ~name:"enterprise"
    [
      Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") ());
      Sb_nf.Maglev.nf (Sb_nf.Maglev.create ~backends ());
      Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      Sb_nf.Ipfilter.nf
        (Sb_nf.Ipfilter.create
           ~rules:[ Sb_nf.Ipfilter.rule ~dst_ports:(23, 23) Sb_nf.Ipfilter.Deny ]
           ());
    ]

let trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 2024;
      n_flows = 200;
      mean_flow_packets = 20.;
      payload_len = (16, 512);
      udp_fraction = 0.1;
      malicious_fraction = 0.;
      tokens = [];
    }

let run platform mode =
  let rt =
    Speedybox.Runtime.create (Speedybox.Runtime.config ~platform ~mode ()) (build_chain ())
  in
  Speedybox.Runtime.run_trace rt (trace ())

let flow_time_percentile result p =
  let stats = Sb_sim.Stats.create () in
  Sb_flow.Flat_table.iter
    (fun _ us -> Sb_sim.Stats.add stats us)
    result.Speedybox.Runtime.flow_time_us;
  Sb_sim.Stats.percentile stats p

let () =
  print_endline "Enterprise chain: MazuNAT -> Maglev -> Monitor -> IPFilter";
  print_endline "";
  print_endline
    "  platform  mode       p50-lat   p99-lat   rate      flow-time p50/p90";
  List.iter
    (fun platform ->
      List.iter
        (fun (label, mode) ->
          let r = run platform mode in
          Printf.printf "  %-8s  %-9s  %5.2fus   %5.2fus   %5.2fMpps   %6.1fus / %6.1fus\n"
            (Sb_sim.Platform.name platform)
            label
            (Sb_sim.Stats.percentile r.Speedybox.Runtime.latency_us 50.)
            (Sb_sim.Stats.percentile r.Speedybox.Runtime.latency_us 99.)
            (Speedybox.Runtime.rate_mpps r)
            (flow_time_percentile r 50.) (flow_time_percentile r 90.))
        [ ("original", Speedybox.Runtime.Original); ("speedybox", Speedybox.Runtime.Speedybox) ])
    [ Sb_sim.Platform.Bess; Sb_sim.Platform.Onvm ];
  print_endline "";
  let report = Speedybox.Equivalence.check ~build_chain (trace ()) in
  Format.printf "equivalence check: %s@."
    (if Speedybox.Equivalence.equivalent report then "PASS (outputs and NF state identical)"
     else Format.asprintf "FAIL %a" Speedybox.Equivalence.pp_report report)
