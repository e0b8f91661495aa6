(* The speedybox command-line tool.

   `run`          process a workload through a chain, print statistics
   `equivalence`  check SpeedyBox output/state against the original chain
   `chains`       list predefined chains and the chain-spec language
   `trace`        generate, describe and optionally save a workload *)

open Cmdliner

let make_trace ~seed ~flows ~mean_packets =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed;
      n_flows = flows;
      mean_flow_packets = float_of_int mean_packets;
      payload_len = (16, 512);
      udp_fraction = 0.1;
      malicious_fraction = 0.05;
      tokens = [ "attack"; "exploit"; "beacon" ];
    }

(* Loader errors (malformed trace lines, bad pcap magic, unreadable files)
   become a one-line message and a nonzero exit, never a backtrace. *)
let load_or_make_trace ~trace_file ~seed ~flows ~mean_packets =
  match trace_file with
  | Some path -> (
      try
        if Filename.check_suffix path ".pcap" then Ok (Sb_trace.Pcap.load path)
        else Ok (Sb_trace.Trace_io.load path)
      with Invalid_argument msg | Sys_error msg ->
        Error (Printf.sprintf "speedybox: cannot load trace %s: %s" path msg))
  | None -> Ok (make_trace ~seed ~flows ~mean_packets)

(* Common options *)

let chain_arg =
  let doc =
    "Chain to run: a predefined name (see $(b,chains)) or a spec such as \
     $(b,mazunat,maglev:4,monitor)."
  in
  Arg.(value & opt string "chain1" & info [ "c"; "chain" ] ~docv:"CHAIN" ~doc)

let platform_arg =
  let doc = "Execution platform model: $(b,bess) or $(b,onvm)." in
  let platform_conv =
    Arg.enum [ ("bess", Sb_sim.Platform.Bess); ("onvm", Sb_sim.Platform.Onvm) ]
  in
  Arg.(
    value
    & opt platform_conv Sb_sim.Platform.Bess
    & info [ "p"; "platform" ] ~docv:"PLATFORM" ~doc)

let mode_arg =
  let doc = "Processing mode: $(b,original) or $(b,speedybox)." in
  let mode_conv =
    Arg.enum
      [ ("original", Speedybox.Runtime.Original); ("speedybox", Speedybox.Runtime.Speedybox) ]
  in
  Arg.(
    value
    & opt mode_conv Speedybox.Runtime.Speedybox
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let seed_arg =
  let doc = "Workload seed (runs are fully deterministic)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let flows_arg =
  let doc = "Number of flows to generate." in
  Arg.(value & opt int 100 & info [ "f"; "flows" ] ~docv:"N" ~doc)

let packets_arg =
  let doc = "Mean packets per flow (heavy-tailed)." in
  Arg.(value & opt int 12 & info [ "k"; "mean-packets" ] ~docv:"N" ~doc)

let trace_file_arg =
  let doc = "Replay a saved trace file instead of generating a workload." in
  Arg.(value & opt (some file) None & info [ "t"; "trace" ] ~docv:"FILE" ~doc)

let show_state_arg =
  let doc = "Print per-NF state digests after the run." in
  Arg.(value & flag & info [ "show-state" ] ~doc)

let show_rules_arg =
  let doc = "Print up to $(docv) consolidated Global MAT rules after the run." in
  Arg.(value & opt int 0 & info [ "show-rules" ] ~docv:"N" ~doc)

let show_stages_arg =
  let doc = "Print the per-stage cycle breakdown after the run." in
  Arg.(value & flag & info [ "show-stages" ] ~doc)

let staged_rate_arg =
  let doc =
    "Run on the staged ONVM executor with Poisson arrivals at $(docv) Mpps \
     (real queueing: consolidation races, reordering, ring loss).  Takes \
     every other run option; needs $(b,-p onvm) and SpeedyBox mode."
  in
  Arg.(value & opt (some float) None & info [ "staged-rate" ] ~docv:"MPPS" ~doc)

let burst_arg =
  let doc =
    "Process the trace in bursts of $(docv) packets (DPDK-style).  On the \
     analytic runtime results are identical to per-packet processing, just \
     cheaper; on the staged executor ($(b,--staged-rate)) stages drain \
     their rings in bursts, amortizing the ring hop.  Default 1 \
     (per-packet)."
  in
  Arg.(value & opt int 1 & info [ "b"; "burst" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Steer packets by symmetric flow hash across $(docv) shards, each with \
     its own runtime and chain instance (see lib/shard).  Default 1 \
     (unsharded)."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let shard_parallel_arg =
  let doc =
    "Run the shards on one OCaml domain each (the parallel executor).  \
     Requires $(b,--shards) > 1 and no $(b,--inject); without it the \
     deterministic single-threaded executor runs.  Observability exports \
     work here too: each domain records into its own child sink, merged \
     after the join."
  in
  Arg.(value & flag & info [ "shard-parallel" ] ~doc)

(* Observability exports (see lib/obs) *)

let metrics_out_arg =
  let doc =
    "Write run metrics to $(docv) after the run: Prometheus text format, or \
     JSON when $(docv) ends in $(b,.json)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write per-packet spans to $(docv) as Chrome trace-event JSON (load in \
     Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_flows_arg =
  let doc =
    "Trace only the first $(docv) distinct flows (bounds the --trace-out \
     size; default: all flows)."
  in
  Arg.(value & opt (some int) None & info [ "trace-flows" ] ~docv:"N" ~doc)

let metrics_interval_arg =
  let doc =
    "Capture a metrics snapshot every $(docv) instrumented packets (simulated \
     clock timestamps, so snapshot series are deterministic).  Requires \
     $(b,--metrics-out) $(i,FILE); the series lands in \
     $(i,FILE)$(b,.snapshots.json).  Per shard under $(b,--shards) > 1."
  in
  Arg.(value & opt (some int) None & info [ "metrics-interval" ] ~docv:"N" ~doc)

(* One failed write is one stderr line and a nonzero exit, like the trace
   loaders. *)
let write_file path contents =
  try
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Ok ()
  with Sys_error msg -> Error (Printf.sprintf "speedybox: cannot write %s: %s" path msg)

let export_obs obs ~metrics_out ~trace_out =
  let ( let* ) = Result.bind in
  let* () =
    match (metrics_out, Sb_obs.Sink.metrics obs) with
    | Some path, Some m ->
        let* () =
          write_file path
            (if Filename.check_suffix path ".json" then Sb_obs.Metrics.to_json m
             else Sb_obs.Metrics.to_prometheus m)
        in
        if Sb_obs.Sink.snapshot_every obs <> None then
          write_file (path ^ ".snapshots.json") (Sb_obs.Sink.snapshots_json obs)
        else Ok ()
    | _ -> Ok ()
  in
  match (trace_out, Sb_obs.Sink.tracer obs) with
  | Some path, Some tr -> write_file path (Sb_obs.Tracer.to_chrome_json tr)
  | _ -> Ok ()

let build_sink ~metrics_out ~trace_out ~trace_flows ~metrics_interval =
  if metrics_out = None && trace_out = None then Sb_obs.Sink.null
  else
    Sb_obs.Sink.create ~metrics:(metrics_out <> None) ~trace:(trace_out <> None)
      ?trace_flows ?snapshot_every:metrics_interval ()

(* Impairment stage (see lib/impair) *)

let impair_arg =
  let doc =
    "Impair the trace before it reaches the executor: a comma-separated \
     mutator spec such as $(b,reorder:0.05,dup:0.01,loss:0.02).  Mutators: \
     $(b,reorder), $(b,loss), $(b,dup), $(b,corrupt), $(b,corrupt-fix), \
     $(b,retrans), $(b,delay), $(b,blackhole); rates in [0,1].  The \
     impaired trace is a deterministic function of the spec and \
     $(b,--impair-seed).  Corrupting mutators arm checksum verification at \
     the classifier."
  in
  Arg.(value & opt (some string) None & info [ "impair" ] ~docv:"SPEC" ~doc)

let impair_seed_arg =
  let doc = "Seed for the impairment stage's per-mutator RNGs." in
  Arg.(value & opt int 1 & info [ "impair-seed" ] ~docv:"SEED" ~doc)

(* Fault injection (see lib/fault) *)

let inject_arg =
  let doc =
    "Inject deterministic faults into $(b,NF) at $(b,RATE) per call; \
     $(b,KIND) is $(b,raise), $(b,corrupt) or $(b,stall).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"NF:KIND:RATE" ~doc)

let fault_seed_arg =
  let doc = "Seed for the fault injector's per-NF schedules." in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let on_failure_arg =
  let doc =
    "What a Failed NF's packets do: $(b,bypass), $(b,drop-flow) or \
     $(b,slow-path-only)."
  in
  let policy_conv =
    Arg.enum
      [
        ("bypass", Sb_fault.Health.Bypass);
        ("drop-flow", Sb_fault.Health.Drop_flow);
        ("slow-path-only", Sb_fault.Health.Slow_path_only);
      ]
  in
  Arg.(
    value
    & opt policy_conv Sb_fault.Health.Slow_path_only
    & info [ "on-failure" ] ~docv:"POLICY" ~doc)

(* "NF:KIND:RATE" specs -> an armed injector (None when no specs). *)
let build_injector ~fault_seed specs =
  if specs = [] then Ok None
  else begin
    let inj = Sb_fault.Injector.create ~seed:fault_seed () in
    let arm spec =
      match String.split_on_char ':' spec with
      | [ nf; kind; rate ] -> (
          match (Sb_fault.Injector.kind_of_string kind, float_of_string_opt rate) with
          | Some kind, Some rate when rate >= 0. && rate <= 1. ->
              Sb_fault.Injector.set_rate inj ~nf kind rate;
              Ok ()
          | None, _ -> Error (Printf.sprintf "speedybox: --inject %s: unknown kind %s" spec kind)
          | _, (None | Some _) ->
              Error (Printf.sprintf "speedybox: --inject %s: rate must be in [0,1]" spec))
      | _ -> Error (Printf.sprintf "speedybox: --inject %s: want NF:KIND:RATE" spec)
    in
    List.fold_left
      (fun acc spec -> match acc with Error _ -> acc | Ok () -> arm spec)
      (Ok ()) specs
    |> Result.map (fun () -> Some inj)
  end

(* run ------------------------------------------------------------------ *)

let staged_run cfg chain ~burst trace rate =
  let trace = Sb_trace.Workload.with_poisson_times ~seed:97 ~rate_mpps:rate trace in
  let r = Speedybox.Staged_runtime.run ~burst cfg chain trace in
  Printf.printf "staged ONVM executor at %.2f Mpps offered:\n" rate;
  Printf.printf "  verdicts   : %d forwarded, %d dropped by NFs, %d ring overflow\n"
    r.Speedybox.Staged_runtime.forwarded r.Speedybox.Staged_runtime.dropped_by_chain
    r.Speedybox.Staged_runtime.dropped_overflow;
  Printf.printf "  paths      : slow %d, fast %d\n" r.Speedybox.Staged_runtime.slow_path
    r.Speedybox.Staged_runtime.fast_path;
  Printf.printf "  reordered  : %d packets overtook their flow\n"
    r.Speedybox.Staged_runtime.reordered;
  Printf.printf "  sojourn    : p50 %.2fus p99 %.2fus\n"
    (Sb_sim.Stats.percentile r.Speedybox.Staged_runtime.sojourn_us 50.)
    (Sb_sim.Stats.percentile r.Speedybox.Staged_runtime.sojourn_us 99.);
  if r.Speedybox.Staged_runtime.events_fired > 0 then
    Printf.printf "  events     : %d fired\n" r.Speedybox.Staged_runtime.events_fired;
  if r.Speedybox.Staged_runtime.faults > 0 then
    Printf.printf "  faults     : %d contained/corrupted/stalled, %d flows quarantined\n"
      r.Speedybox.Staged_runtime.faults r.Speedybox.Staged_runtime.quarantines;
  0

let run_cmd_impl chain platform mode seed flows mean_packets trace_file show_state show_rules
    show_stages staged_rate burst shards shard_parallel inject fault_seed on_failure
    impair impair_seed metrics_out trace_out trace_flows metrics_interval =
  if burst < 1 then begin
    prerr_endline "speedybox: --burst must be >= 1";
    exit 2
  end;
  if shards < 1 then begin
    prerr_endline "speedybox: --shards must be >= 1";
    exit 2
  end;
  if shards > 1 && staged_rate <> None then begin
    prerr_endline "speedybox: --shards and --staged-rate are mutually exclusive";
    exit 2
  end;
  if
    staged_rate <> None
    && (platform <> Sb_sim.Platform.Onvm || mode <> Speedybox.Runtime.Speedybox)
  then begin
    prerr_endline
      "speedybox: --staged-rate runs the SpeedyBox chain as an OpenNetVM pipeline: it needs \
       -p onvm and --mode speedybox";
    exit 2
  end;
  if shard_parallel then begin
    (* Surface the parallel executor's preconditions as CLI errors rather
       than Invalid_argument backtraces. *)
    if shards < 2 then begin
      prerr_endline "speedybox: --shard-parallel requires --shards >= 2";
      exit 2
    end;
    if inject <> [] then begin
      prerr_endline
        "speedybox: --shard-parallel cannot run with --inject (fault schedules are \
         global); drop --shard-parallel for the deterministic executor";
      exit 2
    end
  end;
  (match metrics_interval with
  | Some n when n < 1 ->
      prerr_endline "speedybox: --metrics-interval must be >= 1";
      exit 2
  | Some _ when metrics_out = None ->
      prerr_endline "speedybox: --metrics-interval requires --metrics-out";
      exit 2
  | _ -> ());
  let finish_with_exports obs code =
    if code <> 0 then code
    else
      match export_obs obs ~metrics_out ~trace_out with
      | Ok () -> 0
      | Error msg ->
          prerr_endline msg;
          1
  in
  (* --impair parse errors surface like every other bad option: one line,
     exit 1, no backtrace. *)
  let impair_spec =
    match impair with
    | None -> Ok None
    | Some spec ->
        Result.fold
          ~ok:(fun s -> Ok (Some s))
          ~error:(fun msg -> Error ("speedybox: --impair: " ^ msg))
          (Sb_impair.Impair.parse_spec spec)
  in
  (* One state store across the shard chains: each shard's NFs build
     against their replica, so global-scope cells (chain-wide DoS budgets,
     monitor totals, backend health) span the deployment and the report's
     global-state section reads the same for any shard count. *)
  let store = Sb_state.Store.create ~shards () in
  match
    ( Sb_experiments.Chain_registry.build_sharded ~store chain,
      load_or_make_trace ~trace_file ~seed ~flows ~mean_packets,
      build_injector ~fault_seed inject,
      impair_spec )
  with
  | Error msg, _, _, _ | _, Error msg, _, _ | _, _, Error msg, _ | _, _, _, Error msg ->
      prerr_endline msg;
      1
  | Ok build_shard, Ok trace, Ok injector, Ok impair_spec -> (
      (* Impair before any executor sees the trace; corrupting mutators arm
         checksum verification at the classifier so damaged headers are
         rejected rather than consolidated. *)
      let trace, verify_checksums =
        match impair_spec with
        | None -> (trace, false)
        | Some spec ->
            let impaired, summary = Sb_impair.Impair.apply ~seed:impair_seed spec trace in
            print_endline (Sb_impair.Impair.summary_line ~seed:impair_seed summary);
            ( impaired,
              List.exists (function Sb_impair.Impair.Corrupt _ -> true | _ -> false) spec )
      in
      let obs = build_sink ~metrics_out ~trace_out ~trace_flows ~metrics_interval in
      let cfg =
        Speedybox.Runtime.config ~platform ~mode ~verify_checksums
          ~fault_policy:(Sb_fault.Health.policy ~on_failure ())
          ?injector ~obs ~state:store ()
      in
      match staged_rate with
      | Some rate -> finish_with_exports obs (staged_run cfg (build_shard 0) ~burst trace rate)
      | None ->
          (* An unsharded run is a plan of one shard. *)
          let sharded = shards > 1 in
          let sh = Sb_shard.Sharded.create ~shards cfg build_shard in
          let result =
            if shard_parallel then Sb_shard.Parallel_exec.run_trace ~burst sh trace
            else Sb_shard.Sharded.run_trace ~burst sh trace
          in
          let rts = List.init shards (Sb_shard.Sharded.runtime sh) in
          let mode_name =
            match mode with
            | Speedybox.Runtime.Original -> "original"
            | Speedybox.Runtime.Speedybox -> "speedybox"
          in
          print_string
            (Speedybox.Report.run_summary
               ~label:
                 (Printf.sprintf "%s on %s (%s%s)" chain (Sb_sim.Platform.name platform)
                    mode_name
                    (if sharded then
                       Printf.sprintf ", %d shards, %s" shards
                         (if shard_parallel then "parallel" else "deterministic")
                     else ""))
               rts result);
          if sharded then
            print_string (Speedybox.Report.shard_summary (Sb_shard.Sharded.stats sh));
          if show_stages then print_string (Speedybox.Report.stage_breakdown result);
          let prefix i = if sharded then Printf.sprintf "shard %d " i else "" in
          if show_state then
            List.iteri
              (fun i rt ->
                print_string (prefix i);
                print_string (Speedybox.Report.chain_state (Speedybox.Runtime.chain rt)))
              rts;
          if show_rules > 0 then
            List.iteri
              (fun i rt ->
                Printf.printf "%sconsolidated rules:\n" (prefix i);
                print_string (Speedybox.Report.flow_rules rt ~limit:show_rules))
              rts;
          finish_with_exports obs 0)

let run_cmd =
  let doc = "Run a workload through a chain and report statistics." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run_cmd_impl $ chain_arg $ platform_arg $ mode_arg $ seed_arg $ flows_arg
      $ packets_arg $ trace_file_arg $ show_state_arg $ show_rules_arg $ show_stages_arg
      $ staged_rate_arg $ burst_arg $ shards_arg $ shard_parallel_arg $ inject_arg
      $ fault_seed_arg $ on_failure_arg $ impair_arg $ impair_seed_arg $ metrics_out_arg
      $ trace_out_arg $ trace_flows_arg $ metrics_interval_arg)

(* equivalence ----------------------------------------------------------- *)

let equivalence_cmd_impl chain platform seed flows mean_packets trace_file =
  match
    ( Sb_experiments.Chain_registry.build chain,
      load_or_make_trace ~trace_file ~seed ~flows ~mean_packets )
  with
  | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      1
  | Ok build, Ok trace ->
      let report =
        Speedybox.Equivalence.check
          ~config_a:(Speedybox.Runtime.config ~platform ~mode:Speedybox.Runtime.Original ())
          ~config_b:(Speedybox.Runtime.config ~platform ~mode:Speedybox.Runtime.Speedybox ())
          ~build_chain:build trace
      in
      Format.printf "%a@." Speedybox.Equivalence.pp_report report;
      if Speedybox.Equivalence.equivalent report then begin
        print_endline "EQUIVALENT: SpeedyBox matches the original chain";
        0
      end
      else begin
        print_endline "NOT EQUIVALENT";
        1
      end

let equivalence_cmd =
  let doc = "Check SpeedyBox vs original-chain equivalence on a workload." in
  Cmd.v
    (Cmd.info "equivalence" ~doc)
    Term.(
      const equivalence_cmd_impl $ chain_arg $ platform_arg $ seed_arg $ flows_arg
      $ packets_arg $ trace_file_arg)

(* chains ----------------------------------------------------------------- *)

let chains_cmd =
  let doc = "List predefined chains and the spec language." in
  Cmd.v
    (Cmd.info "chains" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (name, descr) -> Printf.printf "%-14s %s\n" name descr)
            (Sb_experiments.Chain_registry.registry ());
          print_endline "";
          print_endline
            "or give a spec: mazunat | maglev[:n] | monitor | ipfilter[:port] | statefulfw";
          print_endline
            "  | gateway[:port] | snort | dosguard[:k] | vpn-in | vpn-out | synthetic[:c]";
          print_endline "e.g.  -c mazunat,maglev:4,monitor,ipfilter:22";
          0)
      $ const ())

(* deploy ----------------------------------------------------------------- *)

let deploy_cmd_impl path show_stages =
  match Sb_experiments.Deployment.load path with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok deployment -> (
      match Sb_experiments.Deployment.build_runtime deployment with
      | Error msg ->
          prerr_endline msg;
          1
      | Ok rt ->
          let result =
            Speedybox.Runtime.run_trace rt (Sb_experiments.Deployment.workload deployment)
          in
          print_string
            (Speedybox.Report.run_summary
               ~label:(Printf.sprintf "deployment %s" (Filename.basename path))
               [ rt ] result);
          if show_stages then print_string (Speedybox.Report.stage_breakdown result);
          0)

let deploy_cmd =
  let doc = "Run the deployment described by a file (see lib/experiments/deployment.mli)." in
  let path_arg =
    let doc = "Deployment file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "deploy" ~doc) Term.(const deploy_cmd_impl $ path_arg $ show_stages_arg)

(* trace ------------------------------------------------------------------ *)

(* --flow FID: run the workload through the chain with the flow timeline
   armed and print the flow's lifecycle (first-packet, consolidated,
   event-rewrite, quarantined, degraded-bypass, evicted, idle-expired). *)
let flow_timeline_query ~fid ~chain ~trace_file ~seed ~flows ~mean_packets ~inject
    ~fault_seed ~on_failure =
  match
    ( Sb_experiments.Chain_registry.build chain,
      load_or_make_trace ~trace_file ~seed ~flows ~mean_packets,
      build_injector ~fault_seed inject )
  with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
      prerr_endline msg;
      1
  | Ok build, Ok trace, Ok injector -> (
      let obs = Sb_obs.Sink.create ~timeline:true () in
      let rt =
        Speedybox.Runtime.create
          (Speedybox.Runtime.config
             ~fault_policy:(Sb_fault.Health.policy ~on_failure ())
             ?injector ~obs ())
          (build ())
      in
      ignore (Speedybox.Runtime.run_trace rt trace);
      match Sb_obs.Sink.timeline obs with
      | None -> assert false (* the sink was created with the timeline armed *)
      | Some tl ->
          let events = Sb_obs.Timeline.events tl fid in
          if events = [] then begin
            let known = Sb_obs.Timeline.flows tl in
            let sample =
              List.filteri (fun i _ -> i < 10) known
              |> List.map string_of_int |> String.concat ", "
            in
            Printf.eprintf
              "speedybox: no timeline events for flow %d (%d flows seen%s)\n" fid
              (List.length known)
              (if known = [] then "" else ": " ^ sample ^ if List.length known > 10 then ", ..." else "");
            1
          end
          else begin
            Printf.printf "flow %d lifecycle (%s, chain %s):\n" fid
              (match trace_file with Some f -> f | None -> Printf.sprintf "seed %d" seed)
              chain;
            List.iter (fun e -> Format.printf "  %a@." Sb_obs.Timeline.pp_entry e) events;
            0
          end)

let trace_cmd_impl seed flows mean_packets save_file flow chain trace_file inject fault_seed
    on_failure =
  match flow with
  | Some fid ->
      flow_timeline_query ~fid ~chain ~trace_file ~seed ~flows ~mean_packets ~inject
        ~fault_seed ~on_failure
  | None ->
      let trace = make_trace ~seed ~flows ~mean_packets in
      let sizes = Sb_sim.Stats.create () in
      List.iter (fun p -> Sb_sim.Stats.add_int sizes p.Sb_packet.Packet.len) trace;
      let summary = Sb_sim.Stats.summarize sizes in
      Printf.printf "packets     : %d\n" (List.length trace);
      Printf.printf "frame bytes : mean %.0f p50 %.0f p90 %.0f max %.0f\n"
        summary.Sb_sim.Stats.mean summary.Sb_sim.Stats.p50 summary.Sb_sim.Stats.p90
        summary.Sb_sim.Stats.max;
      (match save_file with
      | Some path ->
          Sb_trace.Trace_io.save path trace;
          Printf.printf "saved       : %s\n" path
      | None -> ());
      0

let trace_cmd =
  let doc =
    "Generate a workload, describe it and optionally save it; or, with \
     $(b,--flow), run it through a chain and print one flow's lifecycle \
     timeline."
  in
  let save_arg =
    let doc = "Write the generated trace to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "save" ] ~docv:"FILE" ~doc)
  in
  let flow_arg =
    let doc =
      "Run the workload through the chain ($(b,--chain), fault options apply) \
       and print flow $(docv)'s lifecycle events."
    in
    Arg.(value & opt (some int) None & info [ "flow" ] ~docv:"FID" ~doc)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace_cmd_impl $ seed_arg $ flows_arg $ packets_arg $ save_arg $ flow_arg
      $ chain_arg $ trace_file_arg $ inject_arg $ fault_seed_arg $ on_failure_arg)

let () =
  let doc = "low-latency NFV service chains with cross-NF runtime consolidation" in
  let info = Cmd.info "speedybox" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; equivalence_cmd; chains_cmd; trace_cmd; deploy_cmd ]))
