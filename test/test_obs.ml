(* The observability subsystem: histogram bucketing and percentile
   accuracy, the metrics registry and its Prometheus/JSON exports, the
   Chrome trace-event recorder, the flow-lifecycle timeline, and the
   runtime integration (armed sinks observe what run_trace reports;
   unarmed sinks record nothing). *)
open Sb_obs

let occurs needle hay = Sb_nf.Str_search.occurs ~pattern:needle hay

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_bucket_bounds () =
  (* Every value must fall inside its own bucket, and the bucket's relative
     width must respect the documented 1/sub_buckets bound. *)
  List.iter
    (fun v ->
      let lo, hi = Histogram.bucket_bounds v in
      Alcotest.(check bool)
        (Printf.sprintf "%g in [%g, %g)" v lo hi)
        true
        (lo <= v && v < hi);
      Alcotest.(check bool)
        (Printf.sprintf "%g bucket narrow enough" v)
        true
        ((hi -. lo) /. lo <= 1. /. float_of_int Histogram.sub_buckets +. 1e-9))
    [ 1e-5; 0.01; 0.5; 1.; 1.9; 3.14; 100.; 7777.; 1e6; 1e12 ]

let test_histogram_counts_and_moments () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  Histogram.observe h (-5.0);
  (* ignored *)
  Histogram.observe h Float.nan;
  (* ignored *)
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum exact" 10.0 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean exact" 2.5 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 4.0 (Histogram.max_value h);
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Histogram.percentile h 50.))

let test_histogram_percentiles_vs_stats () =
  (* Against the exact sorted-array implementation, every percentile
     estimate must land within one bucket width of the true order
     statistic (and inside the observed range). *)
  let h = Histogram.create () in
  let s = Sb_sim.Stats.create () in
  let seed = ref 123456789 in
  let rand () =
    (* xorshift; spans ~3 decades like a latency distribution *)
    seed := !seed lxor (!seed lsl 13);
    seed := !seed lxor (!seed lsr 7);
    seed := !seed lxor (!seed lsl 17);
    let u = float_of_int (!seed land 0xFFFFFF) /. float_of_int 0xFFFFFF in
    0.1 *. ((1. +. (999. *. u)) ** 1.3)
  in
  for _ = 1 to 10_000 do
    let v = rand () in
    Histogram.observe h v;
    Sb_sim.Stats.add s v
  done;
  List.iter
    (fun p ->
      let exact = Sb_sim.Stats.percentile s p in
      let est = Histogram.percentile h p in
      let lo, hi = Histogram.bucket_bounds exact in
      let tol = hi -. lo in
      Alcotest.(check bool)
        (Printf.sprintf "p%g: |%g - %g| <= bucket width %g" p est exact tol)
        true
        (Float.abs (est -. exact) <= tol +. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "p%g within observed range" p)
        true
        (est >= Sb_sim.Stats.min_value s && est <= Sb_sim.Stats.max_value s))
    [ 1.; 10.; 50.; 90.; 99.; 99.9 ]

let test_histogram_single_value () =
  let h = Histogram.create () in
  Histogram.observe h 7.5;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g collapses to the value" p)
        7.5 (Histogram.percentile h p))
    [ 0.; 50.; 100. ]

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_instruments () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("nf", "nat") ] "requests_total" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  (* get-or-create: same (name, labels) -> the same instrument, regardless
     of label order *)
  let c' = Metrics.counter m ~labels:[ ("nf", "nat") ] "requests_total" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "counter accumulates through both handles" 6
    (Metrics.Counter.value c);
  let g = Metrics.gauge m "depth" in
  Metrics.Gauge.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge holds last set" 3.5 (Metrics.Gauge.value g);
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Metrics.gauge m ~labels:[ ("nf", "nat") ] "requests_total");
       false
     with Invalid_argument _ -> true)

let test_metrics_prometheus_export () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m ~help:"Total packets" ~labels:[ ("path", "fast"); ("chain", "c1") ]
      "pkts_total"
  in
  Metrics.Counter.add c 42;
  let h = Metrics.histogram m ~help:"Latency" "lat_us" in
  Histogram.observe h 1.0;
  Histogram.observe h 2.0;
  let text = Metrics.to_prometheus m in
  Alcotest.(check bool) "help line" true (occurs "# HELP pkts_total Total packets" text);
  Alcotest.(check bool) "type line" true (occurs "# TYPE pkts_total counter" text);
  (* labels render sorted by key: chain before path *)
  Alcotest.(check bool) "sorted labels" true
    (occurs "pkts_total{chain=\"c1\",path=\"fast\"} 42" text);
  Alcotest.(check bool) "histogram type" true (occurs "# TYPE lat_us histogram" text);
  Alcotest.(check bool) "cumulative +Inf bucket" true
    (occurs "lat_us_bucket{le=\"+Inf\"} 2" text);
  Alcotest.(check bool) "sum series" true (occurs "lat_us_sum 3" text);
  Alcotest.(check bool) "count series" true (occurs "lat_us_count 2" text);
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json schema tag" true (occurs "speedybox-metrics/1" json);
  Alcotest.(check bool) "json histogram percentiles" true (occurs "\"p99\"" json)

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_tracer_golden_chrome_json () =
  let tr = Tracer.create () in
  Tracer.record tr ~name:"nat" ~cat:"slow" ~ts_us:1.5 ~dur_us:0.25 ~tid:7
    [ ("nf", Tracer.Str "nat"); ("calls", Tracer.Int 3) ];
  Tracer.record tr ~name:"GlobalMAT" ~cat:"fast" ~ts_us:2.0 ~dur_us:0.125 ~tid:7 [];
  let golden =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    ^ "{\"name\":\"nat\",\"cat\":\"slow\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.250,\"pid\":1,\"tid\":7,\"args\":{\"nf\":\"nat\",\"calls\":3}},\n"
    ^ "{\"name\":\"GlobalMAT\",\"cat\":\"fast\",\"ph\":\"X\",\"ts\":2.000,\"dur\":0.125,\"pid\":1,\"tid\":7,\"args\":{}}\n"
    ^ "]}\n"
  in
  Alcotest.(check string) "chrome trace-event JSON" golden (Tracer.to_chrome_json tr)

let test_tracer_ring_and_sampling () =
  let tr = Tracer.create ~capacity:4 ~max_flows:2 () in
  (* flows 1 and 2 admitted; flow 3 arrives over the cap and is ignored *)
  for i = 1 to 3 do
    Tracer.record tr ~name:"s" ~cat:"fast" ~ts_us:(float_of_int i) ~dur_us:1. ~tid:i []
  done;
  Alcotest.(check bool) "flow over cap not sampled" false (Tracer.sampled tr 3);
  Alcotest.(check bool) "admitted flow stays sampled" true (Tracer.sampled tr 1);
  Alcotest.(check int) "third span ignored" 2 (Tracer.recorded tr);
  for i = 4 to 7 do
    Tracer.record tr ~name:"s" ~cat:"fast" ~ts_us:(float_of_int i) ~dur_us:1. ~tid:1 []
  done;
  Alcotest.(check int) "ring holds capacity" 4 (Tracer.recorded tr);
  Alcotest.(check int) "overwrites counted" 2 (Tracer.dropped tr);
  (* six admitted spans through a 4-slot ring: the first two are gone *)
  match Tracer.spans tr with
  | oldest :: _ -> Alcotest.(check (float 1e-9)) "oldest-first order" 4. oldest.Tracer.ts_us
  | [] -> Alcotest.fail "spans expected"

(* ------------------------------------------------------------------ *)
(* Timeline *)

let test_timeline_ordering () =
  let tl = Timeline.create () in
  Timeline.record tl ~fid:9 ~ts_us:0. Timeline.First_packet;
  Timeline.record tl ~fid:9 ~ts_us:1. Timeline.Consolidated;
  Timeline.record tl ~fid:9 ~ts_us:2. ~detail:"monitor" Timeline.Quarantined;
  Timeline.record tl ~fid:9 ~ts_us:3. Timeline.Evicted;
  Timeline.record tl ~fid:4 ~ts_us:0.5 Timeline.First_packet;
  Alcotest.(check (list int)) "flows ascending" [ 4; 9 ] (Timeline.flows tl);
  Alcotest.(check int) "total events" 5 (Timeline.total_events tl);
  Alcotest.(check bool) "known" true (Timeline.known tl 9);
  Alcotest.(check bool) "unknown flow empty" true (Timeline.events tl 77 = []);
  let kinds = List.map (fun e -> e.Timeline.kind) (Timeline.events tl 9) in
  Alcotest.(check bool) "record order preserved" true
    (kinds = [ Timeline.First_packet; Timeline.Consolidated; Timeline.Quarantined; Timeline.Evicted ]);
  let rendered =
    Format.asprintf "%a" Timeline.pp_entry (List.nth (Timeline.events tl 9) 2)
  in
  Alcotest.(check bool) "entry renders kind and detail" true
    (occurs "quarantined" rendered && occurs "monitor" rendered)

(* ------------------------------------------------------------------ *)
(* Runtime integration *)

let nat_monitor_chain () =
  Speedybox.Chain.create ~name:"obs-chain"
    [
      Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(Test_util.ip "203.0.113.1") ());
      Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
    ]

let test_runtime_metrics_match_run_result () =
  let obs = Sink.create ~metrics:true ~trace:true ~timeline:true () in
  let rt =
    Speedybox.Runtime.create (Speedybox.Runtime.config ~obs ()) (nat_monitor_chain ())
  in
  let trace = Test_util.tcp_flow ~fin:false 6 @ Test_util.tcp_flow ~sport:40001 ~fin:false 3 in
  let result = Speedybox.Runtime.run_trace rt trace in
  let m = Option.get (Sink.metrics obs) in
  let counter ?labels name = Metrics.Counter.value (Metrics.counter m ?labels name) in
  let path p = [ ("chain", "obs-chain"); ("path", p) ] in
  Alcotest.(check int) "slow-path counter" result.Speedybox.Runtime.slow_path
    (counter ~labels:(path "slow") "speedybox_packets_total");
  Alcotest.(check int) "fast-path counter" result.Speedybox.Runtime.fast_path
    (counter ~labels:(path "fast") "speedybox_packets_total");
  Alcotest.(check int) "forwarded counter" result.Speedybox.Runtime.forwarded
    (counter
       ~labels:[ ("chain", "obs-chain"); ("verdict", "forwarded") ]
       "speedybox_verdicts_total");
  Alcotest.(check int) "consolidations counter"
    (Sb_mat.Global_mat.consolidation_count (Speedybox.Runtime.global_mat rt))
    (counter "speedybox_consolidations_total");
  let h =
    Metrics.histogram m ~labels:(path "fast") "speedybox_packet_latency_us"
  in
  Alcotest.(check int) "latency histogram count = fast packets"
    result.Speedybox.Runtime.fast_path (Histogram.count h);
  (* the tracer saw one span per visited stage *)
  let tr = Option.get (Sink.tracer obs) in
  let total_stages =
    Hashtbl.fold
      (fun _ t acc -> acc + t.Speedybox.Runtime.visits)
      result.Speedybox.Runtime.stage_cycles 0
  in
  Alcotest.(check int) "one span per stage" total_stages (Tracer.recorded tr);
  (* both flows got first-packet and consolidated lifecycle events *)
  let tl = Option.get (Sink.timeline obs) in
  Alcotest.(check int) "two flows on the timeline" 2 (List.length (Timeline.flows tl));
  List.iter
    (fun fid ->
      let kinds = List.map (fun e -> e.Timeline.kind) (Timeline.events tl fid) in
      Alcotest.(check bool) "first-packet then consolidated" true
        (List.mem Timeline.First_packet kinds && List.mem Timeline.Consolidated kinds))
    (Timeline.flows tl)

let test_runtime_timeline_quarantine_then_eviction () =
  (* A scripted fast-path crash quarantines the flow; under the default
     health policy one fault keeps the NF Healthy, so the flow re-records —
     and a 1-rule cap then lets a second flow LRU-evict it.  The timeline
     must tell that story in order. *)
  let inj = Sb_fault.Injector.create ~seed:3 () in
  (* monitor call #1 is the SYN walk, #2 the recording walk, #3 the first
     fast-path packet — the crash lands on the consolidated rule *)
  Sb_fault.Injector.script inj ~nf:"monitor" ~at:3 Sb_fault.Injector.Raise;
  let obs = Sink.create ~timeline:true () in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~obs ~injector:inj ~max_rules:1 ())
      (nat_monitor_chain ())
  in
  let flow_a = Test_util.tcp_flow ~sport:41000 ~fin:false 4 in
  let flow_b = Test_util.tcp_flow ~sport:42000 ~fin:false 2 in
  let result = Speedybox.Runtime.run_trace rt (flow_a @ flow_b) in
  Alcotest.(check int) "one faulted packet" 1 result.Speedybox.Runtime.faulted_packets;
  let tl = Option.get (Sink.timeline obs) in
  let fid_a =
    Sb_flow.Fid.of_tuple (Sb_flow.Five_tuple.of_packet (List.hd flow_a))
  in
  let kinds = List.map (fun e -> e.Timeline.kind) (Timeline.events tl fid_a) in
  Alcotest.(check bool)
    (Format.asprintf "quarantine then re-consolidation then eviction (got %s)"
       (String.concat " " (List.map Timeline.kind_label kinds)))
    true
    (kinds
    = [
        Timeline.First_packet;
        Timeline.Consolidated;
        Timeline.Quarantined;
        Timeline.Consolidated;
        Timeline.Evicted;
      ])

let test_unarmed_sink_records_nothing () =
  (* The default config carries the null sink; processing must leave no
     observability side effects anywhere (and Sink.create with no pillars
     is equivalent). *)
  Alcotest.(check bool) "null sink disarmed" false (Sink.armed Sink.null);
  Alcotest.(check bool) "empty create disarmed" false (Sink.armed (Sink.create ()));
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (nat_monitor_chain ()) in
  let result = Speedybox.Runtime.run_trace rt (Test_util.tcp_flow ~fin:false 4) in
  Alcotest.(check int) "packets still processed" 5 result.Speedybox.Runtime.packets

let test_staged_runtime_obs () =
  let obs = Sink.create ~metrics:true ~trace:true () in
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:7 ~rate_mpps:0.5
      (Test_util.tcp_flow ~fin:false 9)
  in
  let r =
    Speedybox.Staged_runtime.run
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ~obs ())
      (nat_monitor_chain ()) trace
  in
  let m = Option.get (Sink.metrics obs) in
  let counter labels name = Metrics.Counter.value (Metrics.counter m ~labels name) in
  let chain = ("chain", "obs-chain") in
  (* Departures feed the runtime's own verdict and path series. *)
  Alcotest.(check int) "staged forwarded counter" r.Speedybox.Staged_runtime.forwarded
    (counter [ chain; ("verdict", "forwarded") ] "speedybox_verdicts_total");
  Alcotest.(check int) "staged fast-path counter" r.Speedybox.Staged_runtime.fast_path
    (counter [ chain; ("path", "fast") ] "speedybox_packets_total");
  let h =
    Metrics.histogram m ~labels:[ ("chain", "obs-chain") ] "speedybox_staged_sojourn_us"
  in
  Alcotest.(check int) "sojourn histogram count"
    (Sb_sim.Stats.count r.Speedybox.Staged_runtime.sojourn_us)
    (Histogram.count h);
  Alcotest.(check bool) "stage spans recorded" true
    (Tracer.recorded (Option.get (Sink.tracer obs)) > 0)

let test_degraded_bypass_timeline () =
  (* Monitor fails on its first call (the SYN) under [Bypass]: later
     packets only transit its port.  Both executors run the runtime's NF
     stage, so both log the same bypasses on the flow's timeline. *)
  let setup () =
    let inj = Sb_fault.Injector.create ~seed:3 () in
    Sb_fault.Injector.script inj ~nf:"monitor" ~at:1 Sb_fault.Injector.Raise;
    ( inj,
      Sb_fault.Health.policy ~degraded_after:1 ~failed_after:1
        ~on_failure:Sb_fault.Health.Bypass (),
      Sink.create ~timeline:true (),
      Sb_sim.Platform.Onvm,
      Sb_trace.Workload.with_poisson_times ~seed:7 ~rate_mpps:0.5
        (Test_util.tcp_flow ~fin:false 4) )
  in
  let bypasses obs =
    let tl = Option.get (Sink.timeline obs) in
    List.concat_map
      (fun fid ->
        List.filter_map
          (fun e ->
            if e.Timeline.kind = Timeline.Degraded_bypass then Some e.Timeline.detail
            else None)
          (Timeline.events tl fid))
      (Timeline.flows tl)
  in
  let injector, fault_policy, obs, platform, trace = setup () in
  let rt =
    Speedybox.Runtime.create
      (Speedybox.Runtime.config ~platform ~obs ~injector ~fault_policy ())
      (nat_monitor_chain ())
  in
  let result = Speedybox.Runtime.run_trace rt trace in
  Alcotest.(check int) "runtime forwards past the failed NF" 4
    result.Speedybox.Runtime.forwarded;
  let logged = bypasses obs in
  Alcotest.(check bool) "runtime logs the bypass" true
    (logged <> [] && List.for_all (String.equal "monitor") logged);
  let injector, fault_policy, obs, platform, trace = setup () in
  let staged =
    Speedybox.Staged_runtime.run
      (Speedybox.Runtime.config ~platform ~injector ~fault_policy ~obs ())
      (nat_monitor_chain ()) trace
  in
  Alcotest.(check int) "staged forwards past the failed NF" 4
    staged.Speedybox.Staged_runtime.forwarded;
  Alcotest.(check (list string)) "staged logs the same bypasses" logged (bypasses obs)

(* ------------------------------------------------------------------ *)
(* Report satellites *)

let test_stats_summary_no_nan () =
  let empty = Sb_sim.Stats.create () in
  let rendered =
    Format.asprintf "%a" Sb_sim.Stats.pp_summary (Sb_sim.Stats.summarize empty)
  in
  Alcotest.(check bool) "no nan in empty summary" false (occurs "nan" rendered);
  Alcotest.(check bool) "dashes instead" true (occurs "mean=-" rendered);
  let one = Sb_sim.Stats.create () in
  Sb_sim.Stats.add one 2.0;
  let rendered = Format.asprintf "%a" Sb_sim.Stats.pp_summary (Sb_sim.Stats.summarize one) in
  Alcotest.(check bool) "real values still numeric" true (occurs "mean=2.00" rendered)

let test_report_zero_packet_run () =
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (nat_monitor_chain ()) in
  let result = Speedybox.Runtime.run_trace rt [] in
  let summary = Speedybox.Report.run_summary ~label:"empty" rt result in
  Alcotest.(check bool) "no nan anywhere" false (occurs "nan" summary);
  Alcotest.(check bool) "latency dashes" true (occurs "mean -us" summary);
  Alcotest.(check bool) "throughput placeholder" true (occurs "- (no packets)" summary)

let test_stage_breakdown_deterministic () =
  (* Two stages with identical totals must order by label, whatever the
     hashtable iteration order was. *)
  let result = { (Speedybox.Runtime.run_trace
                    (Speedybox.Runtime.create (Speedybox.Runtime.config ()) (nat_monitor_chain ()))
                    []) with Speedybox.Runtime.packets = 0 } in
  let add label cycles =
    Hashtbl.replace result.Speedybox.Runtime.stage_cycles label
      { Speedybox.Runtime.visits = 1; cycles }
  in
  add "zeta" 100;
  add "alpha" 100;
  add "mid" 100;
  let breakdown = Speedybox.Report.stage_breakdown result in
  let pos needle =
    let rec find i =
      if i + String.length needle > String.length breakdown then -1
      else if String.sub breakdown i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "alpha before mid before zeta" true
    (pos "alpha" >= 0 && pos "alpha" < pos "mid" && pos "mid" < pos "zeta")

(* ------------------------------------------------------------------ *)
(* Split/merge algebra *)

let hist_of vs =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.observe h (float_of_int v /. 16.)) vs;
  h

let merged hs =
  let dst = Histogram.create () in
  List.iter (Histogram.merge_into dst) hs;
  dst

let qcheck_histogram_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"histogram merge commutes and preserves count/sum"
    QCheck.(pair (list (int_range 0 2_000_000)) (list (int_range 0 2_000_000)))
    (fun (a, b) ->
      let ha = hist_of a and hb = hist_of b in
      let ab = merged [ ha; hb ] and ba = merged [ hb; ha ] in
      Histogram.buckets ab = Histogram.buckets ba
      && Histogram.count ab = Histogram.count ha + Histogram.count hb
      && Histogram.sum ab = Histogram.sum ba
      && Float.abs (Histogram.sum ab -. (Histogram.sum ha +. Histogram.sum hb)) <= 1e-9
      && (Histogram.count ab = 0
         || Histogram.min_value ab
            = Float.min_num (Histogram.min_value ha) (Histogram.min_value hb)))

let qcheck_histogram_merge_associative =
  QCheck.Test.make ~count:200 ~name:"histogram merge associates on counts"
    QCheck.(
      triple (list (int_range 0 2_000_000)) (list (int_range 0 2_000_000))
        (list (int_range 0 2_000_000)))
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      let left = merged [ merged [ ha; hb ]; hc ] in
      let right = merged [ ha; merged [ hb; hc ] ] in
      Histogram.buckets left = Histogram.buckets right
      && Histogram.count left = Histogram.count right
      && Float.abs (Histogram.sum left -. Histogram.sum right)
         <= 1e-9 *. (1. +. Float.abs (Histogram.sum left)))

let test_metrics_merge_kinds () =
  let child i =
    let m = Metrics.create () in
    Metrics.Counter.add (Metrics.counter m ~labels:[ ("shard", "x") ] "pkts_total") (10 * (i + 1));
    Metrics.Gauge.set (Metrics.gauge m "occupancy") (float_of_int (i + 1));
    Histogram.observe (Metrics.histogram m "lat_us") (float_of_int (i + 1));
    m
  in
  let dst = Metrics.create () in
  Metrics.merge_into dst (child 0);
  Metrics.merge_into dst (child 1);
  Alcotest.(check int) "counters sum" 30
    (Metrics.Counter.value (Metrics.counter dst ~labels:[ ("shard", "x") ] "pkts_total"));
  Alcotest.(check (float 1e-9)) "Sum gauges add" 3.0
    (Metrics.Gauge.value (Metrics.gauge dst "occupancy"));
  Alcotest.(check int) "histograms merge bucket-wise" 2
    (Histogram.count (Metrics.histogram dst "lat_us"));
  (* A series existing under different instrument kinds cannot merge. *)
  let bad = Metrics.create () in
  ignore (Metrics.gauge bad ~labels:[ ("shard", "x") ] "pkts_total");
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       Metrics.merge_into dst bad;
       false
     with Invalid_argument _ -> true);
  (* clear + re-merge is how Sink.merge stays idempotent *)
  Metrics.clear dst;
  Metrics.merge_into dst (child 0);
  Alcotest.(check int) "clear drops previous totals" 10
    (Metrics.Counter.value (Metrics.counter dst ~labels:[ ("shard", "x") ] "pkts_total"))

let test_tracer_merge_interleaves_with_pid () =
  let parent = Tracer.create ~capacity:8 () in
  let c1 = Tracer.create ~capacity:8 ~pid:1 () in
  let c2 = Tracer.create ~capacity:8 ~pid:2 () in
  Tracer.record c1 ~name:"a" ~cat:"fast" ~ts_us:1.0 ~dur_us:0.5 ~tid:1 [];
  Tracer.record c1 ~name:"c" ~cat:"fast" ~ts_us:3.0 ~dur_us:0.5 ~tid:1 [];
  Tracer.record c2 ~name:"b" ~cat:"fast" ~ts_us:2.0 ~dur_us:0.5 ~tid:2 [];
  Tracer.merge parent [| c1; c2 |];
  let names = List.map (fun s -> s.Tracer.name) (Tracer.spans parent) in
  Alcotest.(check (list string)) "spans interleave by timestamp" [ "a"; "b"; "c" ] names;
  let json = Tracer.to_chrome_json parent in
  Alcotest.(check bool) "per-shard pids survive the merge" true
    (occurs "\"pid\":1" json && occurs "\"pid\":2" json)

let test_tracer_merge_overflow_counts_dropped () =
  let parent = Tracer.create ~capacity:2 () in
  let child = Tracer.create ~capacity:8 ~pid:1 () in
  for i = 1 to 5 do
    Tracer.record child ~name:"s" ~cat:"fast" ~ts_us:(float_of_int i) ~dur_us:0.1 ~tid:1 []
  done;
  Tracer.merge parent [| child |];
  Alcotest.(check int) "ring keeps the newest spans" 2 (Tracer.recorded parent);
  Alcotest.(check int) "merge overflow counted as drops" 3 (Tracer.dropped parent);
  match Tracer.spans parent with
  | [ a; b ] ->
      Alcotest.(check (float 1e-9)) "newest-but-one kept" 4.0 a.Tracer.ts_us;
      Alcotest.(check (float 1e-9)) "newest kept" 5.0 b.Tracer.ts_us
  | _ -> Alcotest.fail "expected exactly two spans"

let test_empty_merges_export_valid_json () =
  (* Satellite fix: exports must be total.  A merged zero-span ring and an
     empty-fid timeline still produce valid documents. *)
  let parent = Tracer.create ~capacity:4 () in
  Tracer.merge parent [| Tracer.create ~capacity:4 ~pid:1 () |];
  Alcotest.(check string) "zero-span chrome trace is valid JSON"
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
    (Tracer.to_chrome_json parent);
  let tl = Timeline.create () in
  Timeline.merge tl [| Timeline.create (); Timeline.create () |];
  Alcotest.(check (list int)) "empty timeline merge stays empty" [] (Timeline.flows tl);
  Alcotest.(check bool) "empty timeline stays queryable" true (Timeline.events tl 42 = []);
  let sink = Sink.create ~metrics:true ~snapshot_every:1000 () in
  Alcotest.(check string) "snapshotless series is valid JSON"
    "{\n  \"schema\": \"speedybox-metrics-snapshots/1\",\n  \"snapshots\": [\n  ]\n}\n"
    (Sink.snapshots_json sink)

let test_sink_split_merge_and_snapshots () =
  let parent = Sink.create ~metrics:true ~snapshot_every:4 () in
  let children = Sink.split parent 2 in
  Alcotest.(check int) "children carry shard indices" 1 (Sink.shard children.(1));
  Alcotest.(check int) "parent is unsharded" (-1) (Sink.shard parent);
  Array.iteri
    (fun i c ->
      let m = Option.get (Sink.metrics c) in
      Metrics.Counter.add (Metrics.counter m "pkts_total") (i + 1))
    children;
  (* 10 ticks at cadence 4 -> snapshots at packets 4 and 8 *)
  for i = 1 to 10 do
    Sink.packet_tick children.(0) ~now_us:(float_of_int i)
  done;
  Sink.merge parent children;
  Alcotest.(check int) "counters merged across children" 3
    (Metrics.Counter.value (Metrics.counter (Option.get (Sink.metrics parent)) "pkts_total"));
  let snaps = Sink.snapshots parent in
  Alcotest.(check int) "snapshot cadence" 2 (List.length snaps);
  Alcotest.(check (list int)) "snapshot packet marks" [ 4; 8 ]
    (List.map (fun s -> s.Sink.packets) snaps);
  Alcotest.(check (list int)) "snapshot sequence numbers" [ 0; 1 ]
    (List.map (fun s -> s.Sink.seq) snaps);
  (* Idempotence: merging again must not double-count. *)
  Sink.merge parent children;
  Alcotest.(check int) "re-merge does not double-count" 3
    (Metrics.Counter.value (Metrics.counter (Option.get (Sink.metrics parent)) "pkts_total"));
  Alcotest.(check int) "re-merge does not duplicate snapshots" 2
    (List.length (Sink.snapshots parent));
  Alcotest.(check bool) "split requires an armed parent" true
    (try
       ignore (Sink.split Sink.null 2);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "histogram bucket bounds" `Quick test_histogram_bucket_bounds;
    Alcotest.test_case "histogram counts and moments" `Quick test_histogram_counts_and_moments;
    Alcotest.test_case "histogram percentiles vs exact stats" `Quick
      test_histogram_percentiles_vs_stats;
    Alcotest.test_case "histogram single value" `Quick test_histogram_single_value;
    Alcotest.test_case "metrics instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "metrics prometheus and json export" `Quick
      test_metrics_prometheus_export;
    Alcotest.test_case "tracer golden chrome json" `Quick test_tracer_golden_chrome_json;
    Alcotest.test_case "tracer ring and flow sampling" `Quick test_tracer_ring_and_sampling;
    Alcotest.test_case "timeline ordering" `Quick test_timeline_ordering;
    Alcotest.test_case "runtime metrics match run result" `Quick
      test_runtime_metrics_match_run_result;
    Alcotest.test_case "timeline: quarantine then eviction" `Quick
      test_runtime_timeline_quarantine_then_eviction;
    Alcotest.test_case "unarmed sink records nothing" `Quick test_unarmed_sink_records_nothing;
    Alcotest.test_case "staged runtime observability" `Quick test_staged_runtime_obs;
    Alcotest.test_case "stats summary prints no nan" `Quick test_stats_summary_no_nan;
    Alcotest.test_case "report handles zero-packet runs" `Quick test_report_zero_packet_run;
    Alcotest.test_case "stage breakdown deterministic" `Quick
      test_stage_breakdown_deterministic;
    QCheck_alcotest.to_alcotest qcheck_histogram_merge_commutative;
    QCheck_alcotest.to_alcotest qcheck_histogram_merge_associative;
    Alcotest.test_case "metrics merge kinds" `Quick test_metrics_merge_kinds;
    Alcotest.test_case "tracer merge interleaves with per-shard pids" `Quick
      test_tracer_merge_interleaves_with_pid;
    Alcotest.test_case "tracer merge overflow counts dropped" `Quick
      test_tracer_merge_overflow_counts_dropped;
    Alcotest.test_case "empty merges export valid JSON" `Quick
      test_empty_merges_export_valid_json;
    Alcotest.test_case "sink split/merge and snapshot cadence" `Quick
      test_sink_split_merge_and_snapshots;
    Alcotest.test_case "degraded bypass on both executors" `Quick test_degraded_bypass_timeline;
  ]
