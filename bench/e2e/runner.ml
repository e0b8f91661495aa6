(* One benchmark run of one workload: set-up, the timed loop, the
   correctness gate and, in a traced run, the per-layer probes.

   Set-up (trace generation, chain and runtime build and the first,
   recording, pass) runs [setups] times and reports its median.  The
   first set-up's executor is kept and replays one more discarded warm-up
   pass; the others run between the timed passes.  The timed loop
   replays the pass until [seconds] have elapsed (at least [min_passes]
   times of each kind), timing each segment of each
   plain pass.  A traced run cycles through plain passes, passes that
   also time each dispatch, and passes recorded in spans, so the tracing
   overhead is measured in the same process, and then runs the isolated
   probes on the same pass. *)

open Speedybox
module W = Workloads
module P = Sb_packet.Packet

(* Every metric the benchmark reports, with its unit; BENCHMARK.json lists
   the same names (the smoke test holds the two together). *)
let end_to_end =
  [
    ("pps", "pkt/s");
    ("alloc_bytes_per_pkt", "B");
    ("runtime_live_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("datapath.self_ns_per_pkt", "ns");
    ("datapath.alloc_b_per_pkt", "B");
    ("acc.consume_ns_per_pkt", "ns");
    ("acc.alloc_b_per_pkt", "B");
    ("packet.copy_ns_per_pkt", "ns");
    ("classifier.prepare_ns_per_pkt", "ns");
    ("classifier.observe_ns_per_pkt", "ns");
    ("classifier.fid_collision_frac", "share");
    ("gmat.find_ns_per_pkt", "ns");
    ("gmat.execute_ns_per_pkt", "ns");
    ("gmat.fast_path_frac", "share");
    ("gmat.consolidations_per_kpkt", "1/kpkt");
    ("gmat.rules_end", "count");
    ("events.fired_per_kpkt", "1/kpkt");
    ("events.armed_end", "count");
    ("original.ns_per_pkt", "ns");
    ("original.speedup", "x");
    ("nf.ac_scan_ns_per_byte", "ns/B");
    ("flow.expired_per_kpkt", "1/kpkt");
    ("flow.conntrack_end", "count");
    ("gc.minor_per_kpkt", "1/kpkt");
    ("gc.major_per_mpkt", "1/Mpkt");
    ("gc.promoted_b_per_pkt", "B");
    ("batch_p50_us", "us");
    ("batch_p99_us", "us");
    ("batch_p999_us", "us");
    ("steer.ns_per_pkt", "ns");
    ("shard.det2_ns_per_pkt", "ns");
    ("shard.par2_speedup", "x");
    ("shard.imbalance", "x");
    ("mesh.misdirected_frac", "share");
    ("mesh.queue_delay_p99_us", "us");
    ("ring.spins_per_kpkt", "1/kpkt");
    ("ring.parks", "count");
    ("ring.highwater", "count");
    ("state.merge_rounds_per_kpkt", "1/kpkt");
    ("model.latency_p50_cycles", "cycles");
    ("model.latency_p99_cycles", "cycles");
    ("env.calib_us", "us");
    ("env.nproc", "count");
    ("env.noise_frac", "share");
    ("trace.overhead_frac", "share");
    ("drift.pass_ratio", "x");
  ]

type opts = { workload : W.t; seed : int; seconds : int; traced : bool; smoke : bool }

let setups = 5
let min_passes = 2
let gate_passes = 2

(* A second half of the timed passes slower than the first by more than
   this flags a workload whose replay is not stationary. *)
let max_drift = 1.05

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let per n x = ratio x (float_of_int n)
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let packets (rs : Runtime.run_result list) = sum (fun r -> r.Runtime.packets) rs

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* The benchmark's own calibration kernel — FNV-1a over a fixed buffer,
   then Hashtbl churn, no repo code — timed before every pass.  A slow
   kernel marks a run the machine interfered with; figures are never
   normalised by it. *)
let calib_buf = Bytes.init 65536 (fun i -> Char.chr ((i * 131) land 255))

let calibrate () =
  let t0 = Clock.ns () in
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length calib_buf - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get calib_buf i)) * 0x01000193 land 0xffffffff
  done;
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 8191 do
    Hashtbl.replace tbl ((i * 7919) + !h) i;
    if i >= 1024 then Hashtbl.remove tbl (((i - 1024) * 7919) + !h)
  done;
  ignore (Sys.opaque_identity (Hashtbl.length tbl));
  float_of_int (Clock.ns () - t0) /. 1e3

type setup = { pass : W.pass; replay : W.replay; first_s : float; runtime_mb : float }

(* One set-up and its duration in seconds.  A full major collection first,
   so no set-up pays to collect earlier garbage; with [trace_words] the
   live heap holding the new trace alone is read too, outside the timing. *)
let set_up_once ?trace_words o =
  Gc.full_major ();
  let t0 = Clock.ns () in
  let pass = W.make_pass o.workload ~seed:o.seed ~smoke:o.smoke in
  let t1 = Clock.ns () in
  Option.iter (fun words -> words := live_words ()) trace_words;
  let t2 = Clock.ns () in
  let r = W.replay o.workload pass (W.dispatch o.workload) in
  ignore (W.run r);
  (pass, r, float_of_int (t1 - t0 + Clock.ns () - t2) /. 1e9)

let set_up o =
  let trace_words = ref 0 in
  let pass, replay, first_s = set_up_once ~trace_words o in
  ignore (W.run replay);
  (* Measured after a fixed number of passes, not at the end of the
     time-bounded loop: a chain whose state grows with traffic must not
     report more memory because it ran faster. *)
  { pass; replay; first_s; runtime_mb = mb (live_words () - !trace_words) }

(* One more set-up whose pass and executor are thrown away, collected
   before the next timed pass. *)
let extra_set_up o =
  let _, _, s = set_up_once o in
  Gc.full_major ();
  s

(* Layer counters read before and after the timed loop. *)
type counters = { expired : int; consolidations : int }

let counters r =
  let rts = W.runtimes r in
  {
    expired = sum Runtime.expired_flows rts;
    consolidations =
      sum (fun rt -> Sb_mat.Global_mat.consolidation_count (Runtime.global_mat rt)) rts;
  }

type loop = {
  lat : Lat.t;
  spans : Spans.t;
  best : int array;  (* each segment's fastest plain replay, ns *)
  mutable pps : float list;  (* plain passes, newest first *)
  mutable traced_pps : float list;
  mutable calib : float list;
  mutable packets : int;
  mutable untraced_packets : int;
  mutable traced_packets : int;
  mutable fast : int;
  mutable fired : int;
  mutable last : Runtime.run_result list;  (* the last plain pass *)
  mutable alloc_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable before : counters;
  mutable after : counters;
  mutable setup_times : float list;
}

let timed o s =
  let r = s.replay in
  let segments = W.segment_count o.workload r.W.pass in
  let times = Array.make segments 0 in
  let lp =
    {
      lat = Lat.create ();
      spans = Spans.create W.span_names;
      best = Array.make segments max_int;
      pps = [];
      traced_pps = [];
      calib = [];
      packets = 0;
      untraced_packets = 0;
      traced_packets = 0;
      fast = 0;
      fired = 0;
      last = [];
      alloc_words = 0.;
      promoted_words = 0.;
      minor_gcs = 0;
      major_gcs = 0;
      before = counters r;
      after = counters r;
      setup_times = [ s.first_s ];
    }
  in
  let start = Clock.ns () in
  let deadline = start + (o.seconds * 1_000_000_000) in
  (* The other set-ups are spread evenly over the loop, between passes, so
     their median samples the machine across the run rather than over a
     few seconds before it.  Those a short run had no time for follow it. *)
  let set_up_due () =
    let k = List.length lp.setup_times in
    k < setups && Clock.ns () >= start + (k * (deadline - start) / setups)
  in
  let set_up_more () = lp.setup_times <- extra_set_up o :: lp.setup_times in
  (* A traced run cycles plain, dispatch-timed and span-recorded passes. *)
  let kinds = if o.traced then 3 else 1 in
  let p = ref 0 in
  while !p < min_passes * kinds || Clock.ns () < deadline do
    if set_up_due () then set_up_more ();
    lp.calib <- calibrate () :: lp.calib;
    let kind = !p mod kinds in
    let g0 = Gc.quick_stat () in
    let results, ns =
      match kind with
      | 0 -> W.run ~times r
      | 1 -> W.run ~lat:lp.lat r
      | _ -> W.run ~spans:lp.spans r
    in
    let g1 = Gc.quick_stat () in
    let n = packets results in
    let pps = float_of_int n *. 1e9 /. float_of_int ns in
    lp.packets <- lp.packets + n;
    lp.fast <- lp.fast + sum (fun r -> r.Runtime.fast_path) results;
    lp.fired <- lp.fired + sum (fun r -> r.Runtime.events_fired) results;
    if kind = 2 then begin
      lp.traced_pps <- pps :: lp.traced_pps;
      lp.traced_packets <- lp.traced_packets + n
    end
    else if kind = 0 then begin
      lp.pps <- pps :: lp.pps;
      Array.iteri (fun k ns -> lp.best.(k) <- min lp.best.(k) ns) times;
      lp.untraced_packets <- lp.untraced_packets + n;
      lp.last <- results;
      lp.alloc_words <-
        lp.alloc_words
        +. (g1.Gc.minor_words -. g0.Gc.minor_words)
        +. (g1.Gc.major_words -. g0.Gc.major_words)
        -. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      lp.promoted_words <- lp.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      lp.minor_gcs <- lp.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      lp.major_gcs <- lp.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections)
    end;
    incr p
  done;
  lp.after <- counters r;
  while List.length lp.setup_times < setups do
    set_up_more ()
  done;
  lp

(* Median pass time of the second half of the plain passes over that
   of the first half: above 1 when the replay leaks state and slows. *)
let drift lp =
  let times = List.rev_map (fun pps -> 1. /. pps) lp.pps in
  let n = List.length times in
  let first = List.filteri (fun i _ -> i < n / 2) times
  and second = List.filteri (fun i _ -> i >= n - (n / 2)) times in
  ratio (median second) (median first)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Packets per second of a pass replayed at each segment's fastest
   time.  A busy machine only ever adds time, so each segment's fastest
   replay is the closest reading of its own cost. *)
let quiet_pps lp =
  float_of_int (packets lp.last) *. 1e9 /. float_of_int (Array.fold_left ( + ) 0 lp.best)

let end_to_end_values s lp =
  [
    ("pps", quiet_pps lp);
    ("alloc_bytes_per_pkt", per lp.untraced_packets (lp.alloc_words *. word_bytes));
    ("runtime_live_mb", s.runtime_mb);
    ("setup_s", median lp.setup_times);
  ]

(* ---- per-layer probes (traced runs) ---- *)

(* Probe spans, recorded around each isolated probe loop. *)
let probe_names =
  [|
    "classifier.prepare";
    "classifier.observe";
    "gmat.find";
    "gmat.execute";
    "nf.ac_scan";
    "steer";
  |]

(* Runs [f] inside the probe span [name]; its duration in ns. *)
let span sp name f =
  let id = Option.get (Array.find_index (String.equal name) probe_names) in
  Spans.enter sp id;
  f ();
  Spans.leave sp;
  float_of_int (Spans.self_ns sp id)

let probe_classifier sp pass =
  let copies = Array.map P.copy pass.W.packets in
  let cls = Array.map (fun _ -> Classifier.scratch ()) copies in
  let c = Classifier.create () in
  let prepare () = Array.iteri (fun i p -> Classifier.prepare_into c p cls.(i)) copies in
  let observe () =
    Array.iteri
      (fun i p ->
        let k = cls.(i) in
        if not k.Classifier.malformed then begin
          Classifier.observe_into c p k;
          if k.Classifier.final then Classifier.forget c k.Classifier.tuple
        end)
      copies
  in
  (* The first round builds conntrack state; the second is timed. *)
  prepare ();
  observe ();
  let n = Array.length copies in
  let prep = span sp "classifier.prepare" prepare in
  let obs = span sp "classifier.observe" observe in
  [
    ("classifier.prepare_ns_per_pkt", per n prep);
    ("classifier.observe_ns_per_pkt", per n obs);
  ]

let is_final p =
  match P.proto p with
  | P.Tcp ->
      let f = P.tcp_flags p in
      f.Sb_packet.Tcp.Flags.fin || f.Sb_packet.Tcp.Flags.rst
  | P.Udp -> false
  | exception Invalid_argument _ -> false

(* A runtime fed the pass with its FIN/RST packets withheld keeps every
   flow's rule installed; the probe then looks each packet's rule up and
   executes it directly. *)
let probe_gmat sp wl pass =
  let kept = List.filter (fun p -> not (is_final p)) (Array.to_list pass.W.packets) in
  let rt = Runtime.create (W.config ~expiry:false pass) (W.chain_builder wl ()) in
  ignore (Runtime.run_trace ~burst:W.burst rt kept);
  let gm = Runtime.global_mat rt and chain = Runtime.chain rt in
  let events = Chain.events chain and locals = Chain.local_mats chain in
  let probes =
    Array.of_list
      (List.filter_map
         (fun p ->
           Option.map
             (fun t -> (Sb_flow.Fid.of_tuple t, P.copy p))
             (Sb_flow.Five_tuple.of_packet_opt p))
         kept)
  in
  let rules = Array.make (Array.length probes) None in
  let find () = Array.iteri (fun i (fid, _) -> rules.(i) <- Sb_mat.Global_mat.find gm fid) probes in
  let executed = ref 0 in
  let execute () =
    Array.iteri
      (fun i (fid, p) ->
        match rules.(i) with
        | Some rule ->
            incr executed;
            ignore (Sb_mat.Global_mat.execute_rule gm events locals fid rule p)
        | None -> ())
      probes
  in
  let find_ns = span sp "gmat.find" find in
  let exec_ns = span sp "gmat.execute" execute in
  [
    ("gmat.find_ns_per_pkt", per (Array.length probes) find_ns);
    ("gmat.execute_ns_per_pkt", per !executed exec_ns);
  ]

(* ns per packet of a fresh executor's second replay of the pass. *)
let steady_ns_per_pkt ?spans r =
  ignore (W.run r);
  let results, ns = W.run ?spans r in
  per (packets results) (float_of_int ns)

let probe_original wl pass ~speedybox_ns =
  let ns = steady_ns_per_pkt (W.replay ~mode:Runtime.Original wl pass W.Burst) in
  [ ("original.ns_per_pkt", ns); ("original.speedup", ratio ns speedybox_ns) ]

let probe_ac_scan sp pass =
  (* The stock Snort contents, split by case sensitivity as Snort does. *)
  let cs = Sb_nf.Aho_corasick.create [ "attack"; "beacon" ] in
  let nc = Sb_nf.Aho_corasick.create ~nocase:true [ "exploit" ] in
  let bytes = ref 0 in
  let scan () =
    Array.iter
      (fun p ->
        match P.payload_bytes p with
        | buf, off, len when len > 0 ->
            bytes := !bytes + len;
            ignore (Sb_nf.Aho_corasick.scan cs buf off len);
            ignore (Sb_nf.Aho_corasick.scan nc buf off len)
        | _ -> ()
        | exception Invalid_argument _ -> ())
      pass.W.packets
  in
  let ns = span sp "nf.ac_scan" scan in
  [ ("nf.ac_scan_ns_per_byte", per !bytes ns) ]

let probe_steer sp pass =
  let n = Array.length pass.W.packets in
  let steer () =
    Array.iter
      (fun p -> ignore (Sys.opaque_identity (Sb_shard.Steer.shard_of_packet ~shards:2 p)))
      pass.W.packets
  in
  [ ("steer.ns_per_pkt", per n (span sp "steer" steer)) ]

let imbalance plan =
  let rows = Sb_shard.Sharded.stats plan in
  let counts = List.map (fun r -> float_of_int r.Report.packets) rows in
  ratio (List.fold_left Float.max 0. counts)
    (List.fold_left ( +. ) 0. counts /. float_of_int (List.length counts))

(* Values of one metric family in an [Sb_obs.Metrics.to_json] export, one
   per series: the export writes one series per line. *)
let family json name key =
  let index_of line sub =
    let n = String.length sub and m = String.length line in
    let rec go i = if i + n > m then None else if String.sub line i n = sub then Some i else go (i + 1) in
    go 0
  in
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         match index_of line (Printf.sprintf "\"name\": \"%s\"" name) with
         | None -> None
         | Some _ -> (
             let tag = Printf.sprintf "\"%s\": " key in
             match index_of line tag with
             | None -> None
             | Some i ->
                 let start = i + String.length tag in
                 let stop = ref start in
                 while !stop < String.length line && not (String.contains ",}" line.[!stop]) do
                   incr stop
                 done;
                 float_of_string_opt (String.trim (String.sub line start (!stop - start)))))

let probe_mesh wl pass =
  let obs = Sb_obs.Sink.create ~metrics:true () in
  let armed = W.replay ~obs wl pass W.Par2 in
  let results, _ = W.run armed in
  let n = packets results in
  let json =
    match Sb_obs.Sink.metrics obs with Some m -> Sb_obs.Metrics.to_json m | None -> ""
  in
  let values name key = family json name key in
  let total name = List.fold_left ( +. ) 0. (values name "value") in
  let top name key = List.fold_left Float.max 0. (values name key) in
  [
    ( "state.merge_rounds_per_kpkt",
      per n (float_of_int (Sb_state.Store.merge_rounds (W.store armed))) *. 1e3 );
    ("mesh.misdirected_frac", per n (total "speedybox_mesh_misdirected_total"));
    ("mesh.queue_delay_p99_us", top "speedybox_mesh_queue_delay_us" "p99");
    ("ring.spins_per_kpkt", per n (total "speedybox_ring_spins_total") *. 1e3);
    ("ring.parks", total "speedybox_ring_parks_total");
    ("ring.highwater", top "speedybox_ring_occupancy_highwater" "value");
  ]

let datapath_values sp n =
  [
    ("datapath.self_ns_per_pkt", per n (float_of_int (Spans.self_ns sp W.span_dispatch)));
    ("datapath.alloc_b_per_pkt", per n (float_of_int (Spans.self_bytes sp W.span_dispatch)));
    ("acc.consume_ns_per_pkt", per n (float_of_int (Spans.self_ns sp W.span_consume)));
    ("acc.alloc_b_per_pkt", per n (float_of_int (Spans.self_bytes sp W.span_consume)));
    ("packet.copy_ns_per_pkt", per n (float_of_int (Spans.self_ns sp W.span_copy)));
  ]

let per_layer_values o s lp =
  let wl = o.workload and pass = s.pass and r = s.replay in
  let sp = Spans.create probe_names in
  let untraced_ns = 1e9 /. median lp.pps in
  let kpkt n = float_of_int n /. 1e3 in
  let delta f = f lp.after - f lp.before in
  let rts = W.runtimes r in
  let model p =
    let cycles = Sb_sim.Stats.create () in
    List.iter (fun res -> Sb_sim.Stats.absorb cycles res.Runtime.cycles_per_packet) lp.last;
    Sb_sim.Stats.percentile cycles p
  in
  let bad, tuples =
    W.colliding ~bits:Sb_flow.Fid.default_bits (W.tuples (Array.to_list pass.W.packets))
  in
  let layered =
    datapath_values lp.spans lp.traced_packets
    @ probe_classifier sp pass
    @ [
        ("classifier.fid_collision_frac", per tuples (float_of_int (Hashtbl.length bad)));
      ]
    @ probe_gmat sp wl pass
    @ [
        ("gmat.fast_path_frac", per lp.packets (float_of_int lp.fast));
        ( "gmat.consolidations_per_kpkt",
          ratio (float_of_int (delta (fun c -> c.consolidations))) (kpkt lp.packets) );
        ( "gmat.rules_end",
          float_of_int
            (sum (fun rt -> Sb_mat.Global_mat.flow_count (Runtime.global_mat rt)) rts) );
        ("events.fired_per_kpkt", ratio (float_of_int lp.fired) (kpkt lp.packets));
        ( "events.armed_end",
          float_of_int
            (sum (fun rt -> Sb_mat.Event_table.total_armed (Chain.events (Runtime.chain rt))) rts)
        );
      ]
    @ probe_original wl pass ~speedybox_ns:untraced_ns
    @ probe_ac_scan sp pass
    @ [
        ("flow.expired_per_kpkt", ratio (float_of_int (delta (fun c -> c.expired))) (kpkt lp.packets));
        ( "flow.conntrack_end",
          float_of_int (sum (fun rt -> Classifier.active_flows (Runtime.classifier rt)) rts) );
        ("gc.minor_per_kpkt", ratio (float_of_int lp.minor_gcs) (kpkt lp.untraced_packets));
        ( "gc.major_per_mpkt",
          ratio (float_of_int lp.major_gcs) (float_of_int lp.untraced_packets /. 1e6) );
        ("gc.promoted_b_per_pkt", per lp.untraced_packets (lp.promoted_words *. word_bytes));
        ("batch_p50_us", Lat.percentile lp.lat 0.50 /. 1e3);
        ("batch_p99_us", Lat.percentile lp.lat 0.99 /. 1e3);
        ("batch_p999_us", Lat.percentile lp.lat 0.999 /. 1e3);
        ("model.latency_p50_cycles", model 50.);
        ("model.latency_p99_cycles", model 99.);
        ("env.calib_us", median lp.calib);
        ("env.nproc", float_of_int (Domain.recommended_domain_count ()));
        ("env.noise_frac", 1. -. ratio (median lp.pps) (quiet_pps lp));
        ("trace.overhead_frac", 1. -. ratio (median lp.traced_pps) (median lp.pps));
        ("drift.pass_ratio", drift lp);
      ]
    @ probe_steer sp pass
  in
  (* Everything that spawns a domain runs last: after the first
     [Domain.spawn], single-threaded code in the process runs slower. *)
  let det = W.replay wl pass W.Det2 in
  let det_ns = steady_ns_per_pkt det in
  let par_ns = steady_ns_per_pkt (W.replay wl pass W.Par2) in
  ( layered
    @ [
        ("shard.det2_ns_per_pkt", det_ns);
        ("shard.par2_speedup", ratio det_ns par_ns);
        ("shard.imbalance", imbalance (W.plan det));
      ]
    @ probe_mesh wl pass,
    sp )

type result = {
  workload : string;
  attempted : int;
  gate : Gate.report;
  drift : float;
  end_to_end : (string * float) list;
  per_layer : (string * float) list option;  (** traced runs only *)
  spans : (int * Spans.t) list;  (** Chrome trace lanes, traced runs only *)
}

let run o =
  let s = set_up o in
  let lp = timed o s in
  let gate = Gate.run o.workload s.pass ~passes:gate_passes in
  let per_layer, spans =
    if o.traced then begin
      let values, probe_spans = per_layer_values o s lp in
      (Some values, [ (1, lp.spans); (2, probe_spans) ])
    end
    else (None, [])
  in
  {
    workload = o.workload.W.name;
    attempted = lp.packets;
    gate;
    drift = drift lp;
    end_to_end = end_to_end_values s lp;
    per_layer;
    spans;
  }

(* ---- reporting ---- *)

let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The metrics the run prints: per-layer in a traced run, end-to-end
   otherwise, each with its unit, in catalogue order. *)
let reported r =
  let catalog, values =
    match r.per_layer with Some v -> (per_layer, v) | None -> (end_to_end, r.end_to_end)
  in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, v, unit)
      | None -> failwith ("metric not measured: " ^ name))
    catalog

let correct r = r.gate.Gate.failed = 0

let to_json r =
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      (reported r)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.gate.Gate.failed (String.concat ", " metrics)

(* Prints the run (a readable table, then the JSON object as the last
   line) and returns the process exit code: non-zero when the gate
   tripped. *)
let finish r =
  Printf.printf "# %s: %d packets timed, correctness gate %s\n" r.workload r.attempted
    (if correct r then "passed" else Printf.sprintf "FAILED (%d mismatches)" r.gate.Gate.failed);
  Option.iter (Printf.eprintf "sbbench: %s: first mismatch: %s\n" r.workload) r.gate.Gate.first;
  if r.drift > max_drift then
    Printf.eprintf "sbbench: %s: pass time drifted by %.3fx over the run\n" r.workload r.drift;
  List.iter
    (fun (name, v, unit) -> Printf.printf "#   %-32s %16.4f %s\n" name v unit)
    (reported r);
  print_endline (to_json r);
  if correct r then 0 else 1
