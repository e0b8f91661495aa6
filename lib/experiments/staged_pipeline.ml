type point = {
  gap_cycles : int;
  slow_pct : float;
  reordered : int;
  overflow : int;
  p50_us : float;
  p99_us : float;
}

let trace gap =
  let packets = Fig6.chain_trace () in
  List.iteri (fun i p -> p.Sb_packet.Packet.ingress_cycle <- (i + 1) * gap) packets;
  packets

let measure ~gaps =
  List.map
    (fun gap ->
      let chain = Fig6.build_chain () in
      let r = Speedybox.Staged_runtime.run ~ring_capacity:256
          (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ())
          chain (trace gap) in
      let routed = r.Speedybox.Staged_runtime.slow_path + r.Speedybox.Staged_runtime.fast_path in
      {
        gap_cycles = gap;
        slow_pct =
          100.
          *. float_of_int r.Speedybox.Staged_runtime.slow_path
          /. float_of_int (max 1 routed);
        reordered = r.Speedybox.Staged_runtime.reordered;
        overflow = r.Speedybox.Staged_runtime.dropped_overflow;
        p50_us = Sb_sim.Stats.percentile r.Speedybox.Staged_runtime.sojourn_us 50.;
        p99_us = Sb_sim.Stats.percentile r.Speedybox.Staged_runtime.sojourn_us 99.;
      })
    gaps

let run () =
  Harness.print_header "Staged pipeline"
    "Snort+Monitor on the staged ONVM executor (real queueing; extension)";
  Harness.print_row "  arrival gap   slow-path   reordered   ring loss   p50      p99";
  List.iter
    (fun p ->
      Harness.print_row
        (Printf.sprintf "  %7d cyc   %6.1f%%   %9d   %9d   %6.2fus %7.2fus" p.gap_cycles
           p.slow_pct p.reordered p.overflow p.p50_us p.p99_us))
    (measure ~gaps:[ 10_000; 3_000; 1_500; 800; 400 ]);
  Harness.print_note
    "tighter arrivals widen the consolidation race (more slow-path traffic), then queueing and \
     fast-path overtaking appear — effects the closed-form model cannot show"
