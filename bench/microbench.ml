(* Wall-clock microbenchmarks (Bechamel) of the fast-path hot operations.

   These complement the cycle-model experiments: the model predicts what
   the paper's testbed would do, while these measure what the OCaml
   implementation actually costs on this machine. *)

open Bechamel
open Toolkit

(* A bench: its key in the JSON record, the packets one run processes
   (its ns/run is divided by [per_run], so every recorded figure is per
   packet or per operation) and its Bechamel test.  The gate table
   (gate.ml) names benches through these values, so renaming a bench
   renames its gates too. *)
type bench = { key : string; per_run : int; test : Test.t }

let group = "speedybox"

let bench ?(per_run = 1) name fn =
  { key = group ^ "/" ^ name; per_run; test = Test.make ~name (Staged.stage fn) }

let ip = Sb_packet.Ipv4_addr.of_string

let sample_packet () =
  Sb_packet.Packet.tcp
    ~payload:(String.make 256 'x')
    ~src:(ip "10.0.0.1") ~dst:(ip "192.168.1.10") ~src_port:40000 ~dst_port:80 ()

let sample_tuple =
  {
    Sb_flow.Five_tuple.src_ip = ip "10.0.0.1";
    dst_ip = ip "192.168.1.10";
    src_port = 40000;
    dst_port = 80;
    proto = 6;
  }

let consolidation_actions =
  [
    Sb_mat.Header_action.Forward;
    Sb_mat.Header_action.Modify
      [ (Sb_packet.Field.Src_ip, Sb_packet.Field.Ip (ip "203.0.113.1")) ];
    Sb_mat.Header_action.Modify [ (Sb_packet.Field.Dst_port, Sb_packet.Field.Port 8080) ];
    Sb_mat.Header_action.Forward;
  ]

let consolidate =
  bench "consolidate/of_actions (4 actions)"
    (fun () -> Sb_mat.Consolidate.of_actions consolidation_actions)

let apply =
  let consolidated = Sb_mat.Consolidate.of_actions consolidation_actions in
  let packet = sample_packet () in
  bench "consolidate/apply (2 fields + checksums)"
    (fun () -> Sb_mat.Consolidate.apply consolidated packet)

let fid =
  bench "classifier/fid-hash"
    (fun () -> Sb_flow.Fid.of_tuple sample_tuple)

let aho_corasick =
  let automaton =
    Sb_nf.Aho_corasick.create
      [ "attack"; "exploit"; "beacon"; "malware"; "inject"; "overflow"; "shell"; "xmas" ]
  in
  let payload = Bytes.make 1400 'a' in
  Bytes.blit_string "exploit" 0 payload 700 7;
  bench "snort/aho-corasick scan (1400B, 8 patterns)"
    (fun () -> Sb_nf.Aho_corasick.scan automaton payload 0 1400)

let fast_path =
  (* A pre-recorded NAT+Monitor flow; each run sends one subsequent packet
     through the full SpeedyBox fast path. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench" [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  bench "runtime/fast-path packet (NAT+Monitor)"
    (fun () -> Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm))

let fast_path_with_event =
  (* Fast path with an armed (never firing) per-flow event: adds the event
     poll and per-check cycles to every packet. *)
  let monitor = Sb_nf.Monitor.create () in
  let guard = Sb_nf.Dos_guard.create ~threshold:1_000_000 () in
  let chain =
    Speedybox.Chain.create ~name:"bench-event"
      [ Sb_nf.Monitor.nf monitor; Sb_nf.Dos_guard.nf guard ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  bench "runtime/fast-path packet with armed event (Monitor+DosGuard)"
    (fun () -> Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm))

let fast_path_supervised =
  (* The PR-2 containment wrapper with an armed injector drawing at rate
     0.0: measures the full supervision overhead (per-NF gate + draw + the
     try/with) against the plain fast-path bench above.  The acceptance
     bound is 5%; the fault-free default (no injector) costs only the
     inactive-supervisor branch. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-sup" [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let injector = Sb_fault.Injector.create ~seed:1 () in
  Sb_fault.Injector.set_rate injector ~nf:"mazunat" Sb_fault.Injector.Raise 0.0;
  Sb_fault.Injector.set_rate injector ~nf:"monitor" Sb_fault.Injector.Raise 0.0;
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~injector ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  bench "runtime/fast-path packet supervised (NAT+Monitor, armed injector)"
    (fun () -> Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm))

let fast_path_obs_unarmed =
  (* The observability acceptance bench: identical to the supervised bench
     (armed injector at rate 0.0) with the default disarmed sink — the
     per-packet cost of having observability hooks compiled in but off.
     The acceptance bound vs the supervised baseline is 2% (the gate
     enforces 5% against this bench's own baseline). *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-obs-off"
      [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let injector = Sb_fault.Injector.create ~seed:1 () in
  Sb_fault.Injector.set_rate injector ~nf:"mazunat" Sb_fault.Injector.Raise 0.0;
  Sb_fault.Injector.set_rate injector ~nf:"monitor" Sb_fault.Injector.Raise 0.0;
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~injector ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  bench "runtime/fast-path packet obs-unarmed (NAT+Monitor, armed injector)"
    (fun () -> Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm))

let fast_path_obs_armed =
  (* All three pillars live: per-packet counters + latency histogram, one
     span per stage into the trace ring, and the timeline armed (quiet on
     the fast path).  What `--metrics-out`/`--trace-out` actually costs. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-obs-on"
      [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let obs = Sb_obs.Sink.create ~metrics:true ~trace:true ~timeline:true () in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~obs ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  bench "runtime/fast-path packet obs-armed (NAT+Monitor, metrics+trace+timeline)"
    (fun () -> Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm))

let lru_churn =
  (* 64 flows over a 32-rule cap: every arrival misses (its rule was
     evicted 32 flows ago), re-records, and evicts the current coldest —
     the worst case for the rule table's eviction machinery. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-churn"
      [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~max_rules:32 ()) chain in
  let packets =
    Array.init 64 (fun i ->
        Sb_packet.Packet.tcp
          ~payload:(String.make 64 'x')
          ~src:(ip (Printf.sprintf "10.2.0.%d" (i + 1)))
          ~dst:(ip "192.168.1.10") ~src_port:(41000 + i) ~dst_port:80 ())
  in
  Array.iter (fun p -> ignore (Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy p))) packets;
  let i = ref 0 in
  bench "runtime/lru-churn packet (64 flows, 32-rule cap)"
    (fun () ->
      let p = packets.(!i) in
      i := (!i + 1) land 63;
      Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy p))

(* The burst benches measure one [process_burst] of [burst_size] packets
   per run; their [per_run] keeps the JSON and the printed table
   per-packet and directly comparable with the per-packet benches
   above. *)
let burst_size = Speedybox.Runtime.default_burst

let burst_fast_path =
  (* The burst counterpart of the fast-path bench: 32 subsequent packets
     of one pre-recorded NAT+Monitor flow per run — prefetch prescan,
     one rule lookup per packet, scratch packets refilled in place. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-burst" [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let warm = sample_packet () in
  let _ = Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy warm) in
  let batch = Array.init burst_size (fun _ -> Sb_packet.Packet.scratch ()) in
  bench ~per_run:burst_size "runtime/burst-32 fast-path (NAT+Monitor, per packet)"
    (fun () ->
      for i = 0 to burst_size - 1 do
        Sb_packet.Packet.copy_into ~src:warm ~dst:batch.(i)
      done;
      Speedybox.Runtime.process_burst rt batch)

let burst_lru_churn =
  (* The lru-churn workload in bursts of 32: every packet still misses the
     rule table (its flow was evicted 32 arrivals ago), so this measures
     burst overheads when every lookup misses and eviction churns. *)
  let nat = Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") () in
  let monitor = Sb_nf.Monitor.create () in
  let chain =
    Speedybox.Chain.create ~name:"bench-burst-churn"
      [ Sb_nf.Mazunat.nf nat; Sb_nf.Monitor.nf monitor ]
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~max_rules:32 ()) chain in
  let packets =
    Array.init 64 (fun i ->
        Sb_packet.Packet.tcp
          ~payload:(String.make 64 'x')
          ~src:(ip (Printf.sprintf "10.3.0.%d" (i + 1)))
          ~dst:(ip "192.168.1.10") ~src_port:(42000 + i) ~dst_port:80 ())
  in
  Array.iter (fun p -> ignore (Speedybox.Runtime.process_packet rt (Sb_packet.Packet.copy p))) packets;
  let batch = Array.init burst_size (fun _ -> Sb_packet.Packet.scratch ()) in
  let base = ref 0 in
  bench ~per_run:burst_size "runtime/burst lru-churn (64 flows, 32-rule cap, per packet)"
    (fun () ->
      for i = 0 to burst_size - 1 do
        Sb_packet.Packet.copy_into ~src:packets.(!base + i) ~dst:batch.(i)
      done;
      base := (!base + burst_size) land 63;
      Speedybox.Runtime.process_burst rt batch)

(* ---- sharded runtime benches ----

   One workload — 64 flows of 32 packets each, flow-contiguous so both the
   unsharded burst path and the sharded stretch coalescer see full 32-packet
   same-flow batches — timed under three executors: the plain runtime, the
   deterministic sharded executor (steering + stretch segmentation overhead)
   and the Domain-parallel executor (ring + merge overhead; real speedup
   only with spare cores).  The gate holds the deterministic overhead
   always and the parallel speedup when the measuring machine has at
   least 4 cores.

   Setup is lazy and the shard benches run last in the suite: once a
   process has spawned its first [Domain], the OCaml runtime stays in
   multi-domain mode and every later single-threaded bench measures
   15-50% slow — warming the parallel executor at module init silently
   taxed the guarded fast-path benches. *)

let shard_flows = 64
let shard_pkts_per_flow = 32
let shard_trace_len = shard_flows * shard_pkts_per_flow

let shard_trace () =
  List.concat
    (List.init shard_flows (fun f ->
         List.init shard_pkts_per_flow (fun _ ->
             Sb_packet.Packet.tcp
               ~payload:(String.make 64 'x')
               ~src:(ip (Printf.sprintf "10.4.0.%d" (f + 1)))
               ~dst:(ip "192.168.1.10") ~src_port:(43000 + f) ~dst_port:80 ())))

(* Monitor only: per-flow state and a per-flow digest, so the same chain is
   valid under every executor (no cross-flow NF state to shard-skew). *)
let shard_chain i =
  Speedybox.Chain.create
    ~name:(Printf.sprintf "bench-shard-%d" i)
    [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]

let shard_unsharded =
  let state =
    lazy
      (let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (shard_chain 0) in
       let trace = shard_trace () in
       ignore (Speedybox.Runtime.run_trace ~burst:burst_size rt trace);
       (rt, trace))
  in
  bench ~per_run:shard_trace_len "shard/unsharded run_trace (64 flows x 32, per packet)"
    (fun () ->
      let rt, trace = Lazy.force state in
      Speedybox.Runtime.run_trace ~burst:burst_size rt trace)

let shard_deterministic_1 =
  (* The framework overhead floor: one shard delegates to the unsharded
     burst path, so this differs from the bench above only by the control
     drain and plan bookkeeping. *)
  let state =
    lazy
      (let sh = Sb_shard.Sharded.create ~shards:1 (Speedybox.Runtime.config ()) shard_chain in
       let trace = shard_trace () in
       ignore (Sb_shard.Sharded.run_trace ~burst:burst_size sh trace);
       (sh, trace))
  in
  bench ~per_run:shard_trace_len "shard/deterministic-1 (64 flows x 32, per packet)"
    (fun () ->
      let sh, trace = Lazy.force state in
      Sb_shard.Sharded.run_trace ~burst:burst_size sh trace)

let shard_deterministic_4 =
  (* Steering hash + flow directory + stretch segmentation across 4 shards,
     single-threaded: what determinism costs per packet. *)
  let state =
    lazy
      (let sh = Sb_shard.Sharded.create ~shards:4 (Speedybox.Runtime.config ()) shard_chain in
       let trace = shard_trace () in
       ignore (Sb_shard.Sharded.run_trace ~burst:burst_size sh trace);
       (sh, trace))
  in
  bench ~per_run:shard_trace_len "shard/deterministic-4 (64 flows x 32, per packet)"
    (fun () ->
      let sh, trace = Lazy.force state in
      Sb_shard.Sharded.run_trace ~burst:burst_size sh trace)

let shard_deterministic_4_state =
  (* The state-store tax: the same monitor chain, but with its cells
     declared on a shared 4-shard store — per-flow entries live in the
     replica's tuple map, global counters (packets/bytes/active/max_len)
     are merged at every same-shard stretch boundary.  The gate holds
     this within 1.10x of the plain deterministic-4 bench above:
     global-scope state must ride the hot path with plain field writes,
     no locks or atomics. *)
  let state =
    lazy
      (let store = Sb_state.Store.create ~shards:4 () in
       let chain i =
         Speedybox.Chain.create
           ~name:(Printf.sprintf "bench-shard-state-%d" i)
           [
             Sb_nf.Monitor.nf (Sb_nf.Monitor.create ~cells:(Sb_state.Store.replica store i) ());
           ]
       in
       let sh =
         Sb_shard.Sharded.create ~shards:4 (Speedybox.Runtime.config ~state:store ()) chain
       in
       let trace = shard_trace () in
       ignore (Sb_shard.Sharded.run_trace ~burst:burst_size sh trace);
       (sh, trace))
  in
  bench ~per_run:shard_trace_len "shard/deterministic-4 state-store (64 flows x 32, per packet)"
    (fun () ->
      let sh, trace = Lazy.force state in
      Sb_shard.Sharded.run_trace ~burst:burst_size sh trace)

let shard_parallel_4 =
  (* 4 worker domains spawned per run after one serial steering pass,
     each taking its own packets straight from the steering lane: on a
     single-core box this measures pure overhead; with >= 4 cores it
     should beat deterministic-4 by the guarded factor.  Measured in its
     own group after everything else — the first Domain.spawn degrades
     every later single-threaded bench in the same process (see header
     comment). *)
  let state =
    lazy
      (let sh = Sb_shard.Sharded.create ~shards:4 (Speedybox.Runtime.config ()) shard_chain in
       let trace = shard_trace () in
       ignore (Sb_shard.Parallel_exec.run_trace ~burst:burst_size sh trace);
       (sh, trace))
  in
  bench ~per_run:shard_trace_len "shard/parallel-4 (64 flows x 32, per packet)"
    (fun () ->
      let sh, trace = Lazy.force state in
      Sb_shard.Parallel_exec.run_trace ~burst:burst_size sh trace)

let shard_parallel_4_armed =
  (* The same parallel run with a metrics-armed sink: per-domain child
     registries on the hot path, end-of-run gauges and the merge at end
     of run.  The gate holds this within 1.10x of the unarmed parallel
     bench above.  Metrics pillar only — tracing records
     several spans per packet and measures ring capacity, not the armed
     branch. *)
  let state =
    lazy
      (let obs = Sb_obs.Sink.create ~metrics:true () in
       let sh =
         Sb_shard.Sharded.create ~shards:4 (Speedybox.Runtime.config ~obs ()) shard_chain
       in
       let trace = shard_trace () in
       ignore (Sb_shard.Parallel_exec.run_trace ~burst:burst_size sh trace);
       (sh, trace))
  in
  bench ~per_run:shard_trace_len "shard/parallel-4 obs-armed (64 flows x 32, per packet)"
    (fun () ->
      let sh, trace = Lazy.force state in
      Sb_shard.Parallel_exec.run_trace ~burst:burst_size sh trace)

(* The robustness bench: the burst fast path fed a deterministically
   impaired trace (moderate reorder + duplication + loss over 64 flows x
   32 packets).  Duplicates exercise the DoS-style dedup window and the
   rule lookup under repeated bytes; reordering breaks up same-flow
   stretches; loss shrinks them.  The gate holds this against its own
   baseline and against the clean unsharded run, while the unimpaired
   fast-path benches above guard the "clean traffic pays nothing" half
   of the acceptance bound. *)
let impaired_fastpath =
  let clean =
    List.concat
      (List.init 64 (fun f ->
           List.init 32 (fun _ ->
               Sb_packet.Packet.tcp
                 ~payload:(String.make 64 'x')
                 ~src:(ip (Printf.sprintf "10.5.0.%d" (f + 1)))
                 ~dst:(ip "192.168.1.10") ~src_port:(44000 + f) ~dst_port:80 ())))
  in
  let spec =
    match Sb_impair.Impair.parse_spec "reorder:0.1,dup:0.05,loss:0.05" with
    | Ok s -> s
    | Error m -> failwith m
  in
  let impaired, _ = Sb_impair.Impair.apply ~seed:42 spec clean in
  let state =
    lazy
      (let chain =
         Speedybox.Chain.create ~name:"bench-impaired"
           [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
       in
       let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
       ignore (Speedybox.Runtime.run_trace ~burst:burst_size rt impaired);
       (rt, impaired))
  in
  bench ~per_run:(List.length impaired)
    "runtime/impaired-fastpath burst-32 (reorder+dup+loss, per packet)"
    (fun () ->
      let rt, impaired = Lazy.force state in
      Speedybox.Runtime.run_trace ~burst:burst_size rt impaired)

(* Run accounting alone: [Runtime.Acc.consume], the fold [run_trace]
   applies to every output, over the outputs of a DCN trace (300 flows,
   16-512 B payloads) run once through [chain1].  Each run folds all of
   them into one long-lived accumulator, as a long trace does.
   The gate divides this by the burst-32 fast path measured in the same
   run. *)
let consume_outputs =
  let chain =
    match Sb_experiments.Chain_registry.build "chain1" with
    | Ok build -> build ()
    | Error m -> failwith m
  in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let trace =
    Sb_trace.Workload.dcn_trace
      {
        Sb_trace.Workload.seed = 21;
        n_flows = 300;
        mean_flow_packets = 16.;
        payload_len = (16, 512);
        udp_fraction = 0.1;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  let outs = ref [] in
  ignore
    (Speedybox.Runtime.run_trace ~burst:burst_size rt trace ~on_output:(fun original out ->
         outs := (original, out) :: !outs));
  Array.of_list (List.rev !outs)

let acc_consume =
  let acc = Speedybox.Runtime.Acc.create () in
  bench ~per_run:(Array.length consume_outputs) "run/acc.consume (chain1 DCN outputs, per packet)"
    (fun () ->
      Array.iter
        (fun (original, out) -> Speedybox.Runtime.Acc.consume acc original out)
        consume_outputs)

let checksum_full =
  let packet = sample_packet () in
  let l3 = Sb_packet.Packet.l3_offset packet in
  bench "checksum/full ipv4 header recompute"
    (fun () -> Sb_packet.Ipv4.update_checksum packet.Sb_packet.Packet.buf l3)

let checksum_incremental =
  (* The RFC 1624 path a NAT takes for one address rewrite. *)
  let old_word = ip "10.0.0.1" in
  let new_word = ip "203.0.113.77" in
  bench "checksum/rfc1624 incremental (32-bit field)"
    (fun () ->
      Sb_packet.Checksum.incremental32 ~old_checksum:0x1c46 ~old_word ~new_word)

(* Two groups, measured in order: parallel-4 spawns Domains, and once a
   process has spawned its first Domain the OCaml runtime stays in
   multi-domain mode and every later single-threaded measurement reads
   15-50% slow — so everything single-threaded is warmed AND measured
   before the first spawn. *)
let single_threaded =
  [
    consolidate;
    apply;
    fid;
    aho_corasick;
    fast_path;
    fast_path_with_event;
    fast_path_supervised;
    fast_path_obs_unarmed;
    fast_path_obs_armed;
    lru_churn;
    burst_fast_path;
    burst_lru_churn;
    impaired_fastpath;
    acc_consume;
    checksum_full;
    checksum_incremental;
    shard_unsharded;
    shard_deterministic_1;
    shard_deterministic_4;
    shard_deterministic_4_state;
  ]

let parallel = [ shard_parallel_4; shard_parallel_4_armed ]

(* Not a timing: the core count of the machine that measured, recorded
   so a reader of the JSON can tell whether the parallel-speedup row
   gated or skipped. *)
let cores_key = group ^ "/shard/available-cores"

(* Measurement discipline: one short discarded pass warms code, caches and
   the benches' lazy state, then the full quota runs [reps] times and each
   bench keeps its minimum — the min over repetitions is the noise-robust
   statistic for a deterministic kernel (any excess over the true cost is
   interference), and it is what stopped trivial kernels like the 30 ns
   checksum from drifting 2x between otherwise identical runs. *)
let reps = 3

let measure ~ols ~instances ~cfg ~warm_cfg benches =
  let tests = Test.make_grouped ~name:group (List.map (fun b -> b.test) benches) in
  let estimate o =
    match Analyze.OLS.estimates o with Some (t :: _) -> t | Some [] | None -> nan
  in
  let pass () =
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold (fun name o acc -> (name, estimate o) :: acc) results []
  in
  ignore (Benchmark.all warm_cfg instances tests);
  match List.init reps (fun _ -> pass ()) with
  | [] -> []
  | first :: rest ->
      List.map
        (fun (name, v) ->
          let best =
            List.fold_left
              (fun acc p ->
                match List.assoc_opt name p with
                | Some v' when v' < acc -> v'
                | _ -> acc)
              v rest
          in
          let b = List.find (fun b -> String.equal b.key name) benches in
          (name, best /. float_of_int b.per_run))
        first

(* Every bench's figure (ns per packet or per operation) by key, sorted,
   plus the core count. *)
let run () =
  print_endline
    "\n=== Microbench: wall-clock costs of hot operations (Bechamel, min of 3 runs) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let warm_cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) () in
  let by_name =
    measure ~ols ~instances ~cfg ~warm_cfg single_threaded
    @ measure ~ols ~instances ~cfg ~warm_cfg parallel
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let by_name =
    by_name @ [ (cores_key, float_of_int (Domain.recommended_domain_count ())) ]
  in
  List.iter (fun (name, ns) -> Printf.printf "  %-60s %10.1f ns/run\n" name ns) by_name;
  by_name
