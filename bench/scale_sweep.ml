(* Million-flow load sweep: how the fast path and the idle-expiry timer
   wheel hold up when the flow population is 10k / 100k / 1M rather than
   the 64 flows of the microbenches.

   The stream is generated, not materialised: a single burst's worth of
   template TCP frames is rewritten in place per burst (source address
   bytes + ingress cycle), so a million-flow run allocates 32 packets,
   not a million-element trace list.  Packets go through
   [Runtime.process_burst_into] in bursts of 32 — the deployment shape —
   so the sweep exercises the pipelined prepare/prefetch/probe path, not
   the scalar one.  Flow popularity is heavy-tailed inside a sliding
   window — most packets go to recently-seen flows, the window's tail
   goes quiet — so flows continuously fall idle behind the window and
   only the timer wheel's expiry keeps the conntrack/MAT/event tables
   bounded.  A linear expiry sweep would scan the whole live table per
   advance and blow up quadratically on exactly this workload; the
   recorded ns/packet staying flat across the sweep is the evidence the
   hierarchical wheel works.

   Each tier also records the GC's side of the story: minor/major
   collections and allocated bytes per packet over the stream, plus live
   words at the end.  A flat ns/pkt curve with ballooning allocation
   would just mean the collector is hiding the cost; the sweep prints
   both so the flatness claim is checkable.

   The chain is Monitor + DosGuard (threshold high enough never to fire):
   per-flow conntrack-style state, a Global MAT rule per flow, and an
   armed per-flow event — all three tables churn at the full flow count.

   [SB_SCALE_TIERS] selects the populations (comma-separated, e.g.
   "10k,100k"): CI runs the two smaller tiers, the 1M tier stays
   bench-box-only. *)

let ip = Sb_packet.Ipv4_addr.of_octets

(* Virtual cycles between arrivals: ~0.25us of simulated time at the
   2 GHz model clock, fast enough that the window's tail goes idle well
   inside the run. *)
let gap_cycles = 500

let pkts_per_flow = 3
let block = 4096 (* packets per wall-clock sample *)
let burst = 32

type outcome = {
  flows : int;
  packets : int;
  ns_per_pkt : float; (* mean over the whole stream *)
  p50_block : float; (* per-packet ns, distribution over blocks *)
  p99_block : float;
  peak_rules : int; (* high-water Global MAT occupancy *)
  expired : int;
  live_end : int;
  heap_mb : float;
  minor_gcs : int; (* minor collections over the stream *)
  major_gcs : int; (* major collections over the stream *)
  alloc_b_pkt : float; (* bytes allocated per packet *)
  snapshots : int; (* periodic metrics snapshots captured during the run *)
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run_one total_flows =
  let window = max 1024 (total_flows / 16) in
  (* A flow untouched for a window's worth of arrivals is gone: idle
     expiry must keep up with the sliding window, not trail the run. *)
  let idle_timeout_cycles = window * gap_cycles in
  let chain =
    Speedybox.Chain.create ~name:"scale-sweep"
      [
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
        Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:max_int ());
      ]
  in
  (* A long run should emit a metrics time series, not one terminal dump:
     the armed sink captures a snapshot every eighth of the stream
     (simulated-clock timestamps, so the series is deterministic).  The
     arming cost lands identically on every population, and the flatness
     gate is a same-run ratio, so the contract is unaffected. *)
  let packets = pkts_per_flow * total_flows in
  let obs = Sb_obs.Sink.create ~metrics:true ~snapshot_every:(max 1 (packets / 8)) () in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~idle_timeout_cycles ~obs ())
      chain
  in
  let pkts =
    Array.init burst (fun _ ->
        Sb_packet.Packet.tcp
          ~payload:(String.make 64 'x')
          ~src:(ip 10 0 0 1) ~dst:(ip 192 168 1 10) ~src_port:40000 ~dst_port:80 ())
  in
  let st = Random.State.make [| 0x5ca1e; total_flows |] in
  let span = total_flows - window in
  let blocks = Array.make ((packets / block) + 1) 0. in
  let n_blocks = ref 0 in
  let peak_rules = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t_start = Unix.gettimeofday () in
  let t_block = ref t_start in
  let t = ref 0 in
  while !t < packets do
    let len = min burst (packets - !t) in
    for k = 0 to len - 1 do
      let t = !t + k in
      let base = if span <= 0 then 0 else t * span / packets in
      (* Heavy tail towards the newest end of the window: u^3 concentrates
         mass near offset 0, mirrored so offset 0 maps to the youngest
         flow; old flows are touched rarely, then not at all. *)
      let u = Random.State.float st 1.0 in
      let off = int_of_float (float_of_int window *. (u *. u *. u)) in
      let off = if off >= window then window - 1 else off in
      let flow = base + (window - 1 - off) in
      let pkt = pkts.(k) in
      Sb_packet.Packet.set_field pkt Sb_packet.Field.Src_ip
        (Sb_packet.Field.Ip (ip 10 (flow lsr 16) ((flow lsr 8) land 255) (flow land 255)));
      pkt.Sb_packet.Packet.ingress_cycle <- t * gap_cycles
    done;
    Speedybox.Runtime.process_burst_into rt pkts ~off:0 ~len (fun _ _ -> ());
    let t' = !t + len in
    if t' / block > !t / block then begin
      let now = Unix.gettimeofday () in
      blocks.(!n_blocks) <- (now -. !t_block) *. 1e9 /. float_of_int block;
      incr n_blocks;
      t_block := now;
      (* [flow_count], not [memory_stats]: the latter string-formats every
         live rule, an O(live-flows) cost per sample that would charge the
         big tiers for the measurement itself. *)
      let rules = Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt) in
      if rules > !peak_rules then peak_rules := rules
    end;
    t := t'
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  let gc1 = Gc.quick_stat () in
  let alloc_words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words
    +. (gc1.Gc.major_words -. gc0.Gc.major_words)
    -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
  in
  let sorted = Array.sub blocks 0 !n_blocks in
  Array.sort compare sorted;
  let live_end = Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat rt) in
  {
    flows = total_flows;
    packets;
    ns_per_pkt = elapsed *. 1e9 /. float_of_int packets;
    p50_block = percentile sorted 0.50;
    p99_block = percentile sorted 0.99;
    peak_rules = !peak_rules;
    expired = Speedybox.Runtime.expired_flows rt;
    live_end;
    heap_mb =
      (* Live words after a full major cycle: what the run actually
         retains, as opposed to heap size (which includes floating
         garbage the GC has not yet returned). *)
      (Gc.full_major ();
       float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.);
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    alloc_b_pkt =
      alloc_words *. float_of_int (Sys.word_size / 8) /. float_of_int packets;
    snapshots = List.length (Sb_obs.Sink.snapshots obs);
  }

let label flows =
  if flows >= 1_000_000 then Printf.sprintf "%dM" (flows / 1_000_000)
  else Printf.sprintf "%dk" (flows / 1_000)

(* A tier's key in the JSON record: its mean per-packet latency over the
   stream.  The gate's flatness row names tiers through this function. *)
let key flows =
  Printf.sprintf "speedybox/scale/%s-flows idle-expiry stream (ns per packet)" (label flows)

let default_tiers = [ 10_000; 100_000; 1_000_000 ]

(* "10k,100k,1M"-style tier list; unparseable entries are rejected loudly
   rather than silently shrinking the sweep. *)
let tiers_of_env () =
  match Sys.getenv_opt "SB_SCALE_TIERS" with
  | None | Some "" -> default_tiers
  | Some s ->
      String.split_on_char ',' s
      |> List.map (fun tok ->
             let tok = String.trim tok in
             let scaled mult digits =
               match int_of_string_opt digits with
               | Some n when n > 0 -> n * mult
               | _ -> failwith (Printf.sprintf "SB_SCALE_TIERS: bad tier %S" tok)
             in
             let n = String.length tok in
             if n = 0 then failwith "SB_SCALE_TIERS: empty tier"
             else
               match tok.[n - 1] with
               | 'k' | 'K' -> scaled 1_000 (String.sub tok 0 (n - 1))
               | 'm' | 'M' -> scaled 1_000_000 (String.sub tok 0 (n - 1))
               | _ -> scaled 1 tok)

let run () =
  print_endline
    "\n=== Scale sweep: heavy-tailed flow churn vs timer-wheel expiry ===";
  Printf.printf
    "  %-8s %10s %12s %12s %12s %10s %10s %10s %8s %8s %6s %9s %6s\n" "flows"
    "packets" "ns/pkt" "p50(blk)" "p99(blk)" "peak-live" "end-live" "expired"
    "live-MB" "minor-gc" "major" "alloc/pkt" "snaps";
  let outcomes =
    List.map
      (fun flows ->
        let o = run_one flows in
        Printf.printf
          "  %-8s %10d %12.1f %12.1f %12.1f %10d %10d %10d %8.1f %8d %6d %8.0fB %6d\n%!"
          (label flows) o.packets o.ns_per_pkt o.p50_block o.p99_block
          o.peak_rules o.live_end o.expired o.heap_mb o.minor_gcs o.major_gcs
          o.alloc_b_pkt o.snapshots;
        o)
      (tiers_of_env ())
  in
  List.map (fun o -> (key o.flows, o.ns_per_pkt)) outcomes
