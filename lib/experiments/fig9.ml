type chain_id = Chain1 | Chain2

let chain_name = function
  | Chain1 -> "MazuNAT+Maglev+Monitor+IPFilter"
  | Chain2 -> "IPFilter+Snort+Monitor"

let no_drop_acl () =
  List.init 32 (fun i ->
      Sb_nf.Ipfilter.rule ~src:(Printf.sprintf "172.16.%d.0/24" i) Sb_nf.Ipfilter.Deny)

let backends () =
  List.init 8 (fun i ->
      (Printf.sprintf "backend%d" i, Sb_packet.Ipv4_addr.of_octets 192 168 2 (10 + i)))

let build_chain id () =
  match id with
  | Chain1 ->
      Speedybox.Chain.create ~name:(chain_name Chain1)
        [
          Sb_nf.Mazunat.nf
            (Sb_nf.Mazunat.create ~external_ip:(Sb_packet.Ipv4_addr.of_string "203.0.113.1") ());
          Sb_nf.Maglev.nf (Sb_nf.Maglev.create ~backends:(backends ()) ());
          Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
          Sb_nf.Ipfilter.nf (Sb_nf.Ipfilter.create ~rules:(no_drop_acl ()) ());
        ]
  | Chain2 ->
      let rules =
        match
          Sb_nf.Snort_rule.parse_many
            {|
alert tcp any any -> any 80 (msg:"HTTP attack payload"; content:"attack"; sid:2001;)
alert tcp any any -> any any (msg:"exploit marker"; content:"exploit"; nocase; sid:2002;)
log ip any any -> any any (msg:"beacon string"; content:"beacon"; sid:2003;)
|}
        with
        | Ok rules -> rules
        | Error msg -> invalid_arg msg
      in
      Speedybox.Chain.create ~name:(chain_name Chain2)
        [
          Sb_nf.Ipfilter.nf (Sb_nf.Ipfilter.create ~rules:(no_drop_acl ()) ());
          Sb_nf.Snort.nf (Sb_nf.Snort.create ~rules ());
          Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
        ]

let trace id =
  let cfg =
    {
      Sb_trace.Workload.seed = (match id with Chain1 -> 42 | Chain2 -> 43);
      n_flows = 150;
      mean_flow_packets = 24.;
      payload_len = (16, 512);
      udp_fraction = 0.1;
      malicious_fraction = 0.08;
      tokens = [ "attack"; "exploit"; "beacon" ];
    }
  in
  Sb_trace.Workload.dcn_trace cfg

type row = {
  chain : chain_id;
  platform : Sb_sim.Platform.t;
  original_cdf : (float * float) list;
  speedybox_cdf : (float * float) list;
  original_p50_us : float;
  speedybox_p50_us : float;
}

let flow_time_stats result =
  let stats = Sb_sim.Stats.create () in
  Sb_flow.Flat_table.iter
    (fun _ us -> Sb_sim.Stats.add stats us)
    result.Speedybox.Runtime.flow_time_us;
  stats

let measure id platform =
  let trace = trace id in
  let original =
    Harness.run ~platform ~mode:Speedybox.Runtime.Original ~build_chain:(build_chain id)
      trace
  in
  let speedybox =
    Harness.run ~platform ~mode:Speedybox.Runtime.Speedybox ~build_chain:(build_chain id)
      trace
  in
  let o = flow_time_stats original in
  let s = flow_time_stats speedybox in
  {
    chain = id;
    platform;
    original_cdf = Sb_sim.Stats.cdf o ~points:10;
    speedybox_cdf = Sb_sim.Stats.cdf s ~points:10;
    original_p50_us = Sb_sim.Stats.median o;
    speedybox_p50_us = Sb_sim.Stats.median s;
  }

let p50_reduction_pct r = Harness.reduction_pct r.original_p50_us r.speedybox_p50_us

let print_cdf label cdf =
  Harness.print_row
    (Printf.sprintf "    %-12s %s" label
       (String.concat " "
          (List.map (fun (v, p) -> Printf.sprintf "p%02.0f=%.1fus" (100. *. p) v) cdf)))

let cdf_plot r =
  (* Log-scale x, as the paper's Fig. 9 plots it. *)
  let log_points cdf = List.map (fun (v, p) -> (Float.log10 (Float.max 1. v), p)) cdf in
  Sb_sim.Ascii_plot.render ~width:54 ~height:10 ~x_label:"log10 flow time (us)" ~y_label:"CDF"
    [
      Sb_sim.Ascii_plot.series ~label:"original" ~mark:'o' (log_points r.original_cdf);
      Sb_sim.Ascii_plot.series ~label:"speedybox" ~mark:'s' (log_points r.speedybox_cdf);
    ]

let run () =
  Harness.print_header "Fig.9" "flow processing time CDF on real-world chains (DCN trace)";
  List.iter
    (fun id ->
      Harness.print_row (Printf.sprintf "  %s:" (chain_name id));
      List.iter
        (fun platform ->
          let r = measure id platform in
          Harness.print_row
            (Printf.sprintf "   [%s] p50 %.1fus -> %.1fus (%+.1f%%)"
               (Sb_sim.Platform.name platform)
               r.original_p50_us r.speedybox_p50_us (p50_reduction_pct r));
          print_cdf "original" r.original_cdf;
          print_cdf "w/ SBox" r.speedybox_cdf;
          if platform = Sb_sim.Platform.Bess then print_string (cdf_plot r))
        [ Sb_sim.Platform.Bess; Sb_sim.Platform.Onvm ])
    [ Chain1; Chain2 ];
  Harness.print_note
    "paper p50 reductions: chain1 39.6% (BESS) / 40.2% (ONVM); chain2 41.3% / 34.2%"
