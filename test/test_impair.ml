(* The impairment stage (lib/impair) and the runtime hardening it drives:
   spec parsing, bit-for-bit determinism, per-mutator semantics, conntrack
   under adversarial timelines, classifier rejection of malformed packets,
   and differential properties across the per-packet / burst / sharded
   executors. *)
open Sb_packet
open Sb_impair

let small_trace ?(seed = 321) ?(n_flows = 24) () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed;
      n_flows;
      mean_flow_packets = 8.;
      payload_len = (16, 256);
      udp_fraction = 0.1;
      malicious_fraction = 0.;
      tokens = [];
    }

let wires trace = List.map (fun p -> Packet.wire p) trace
let spec_of s = match Impair.parse_spec s with Ok spec -> spec | Error m -> Alcotest.fail m

(* [sub] appears in [full] in order (not necessarily contiguously). *)
let rec is_subsequence sub full =
  match (sub, full) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: sub', f :: full' ->
      if String.equal s f then is_subsequence sub' full' else is_subsequence sub full'

(* Parsing ---------------------------------------------------------------- *)

let test_parse_ok () =
  match Impair.parse_spec "reorder:0.05, dup:0.01,loss:0.02,corrupt-fix:0.1" with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      Alcotest.(check int) "four mutators" 4 (List.length spec);
      Alcotest.(check bool)
        "corrupt-fix parses to a fixing Corrupt" true
        (List.exists (function Impair.Corrupt { fix; _ } -> fix | _ -> false) spec)

let test_parse_errors () =
  let expect_err spec needle =
    match Impair.parse_spec spec with
    | Ok _ -> Alcotest.failf "%S parsed but should not" spec
    | Error m ->
        let has sub s =
          let n = String.length sub and l = String.length s in
          let rec go i = i + n <= l && (String.equal (String.sub s i n) sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (Printf.sprintf "%S error mentions %S: %s" spec needle m)
          true (has needle m)
  in
  expect_err "bogus:0.5" "unknown mutator";
  expect_err "loss:1.5" "rate must be in [0,1]";
  expect_err "loss:abc" "is not a number";
  expect_err "loss" "want NAME:RATE";
  expect_err "" "empty";
  expect_err "loss:0.1,,dup:0.1" "empty"

(* Determinism ------------------------------------------------------------ *)

let full_spec = "reorder:0.2,loss:0.1,dup:0.1,corrupt:0.05,retrans:0.3,delay:0.2,blackhole:0.05"

let test_bit_identical () =
  let trace = small_trace () in
  let snapshot t = List.map (fun p -> (Packet.wire p, p.Packet.ingress_cycle)) t in
  let a, sa = Impair.apply ~seed:11 (spec_of full_spec) trace in
  let b, sb = Impair.apply ~seed:11 (spec_of full_spec) trace in
  Alcotest.(check bool) "same seed, bit-identical trace" true (snapshot a = snapshot b);
  Alcotest.(check bool) "same seed, same summary" true (sa = sb);
  let c, _ = Impair.apply ~seed:12 (spec_of full_spec) trace in
  Alcotest.(check bool) "different seed, different trace" false (snapshot a = snapshot c)

let test_inputs_untouched () =
  let trace = small_trace () in
  let before = wires trace in
  let _ = Impair.apply ~seed:5 (spec_of full_spec) trace in
  Alcotest.(check bool) "inputs never mutated" true (before = wires trace)

(* Per-mutator semantics -------------------------------------------------- *)

let test_loss () =
  let trace = small_trace () in
  let out, s = Impair.apply ~seed:3 (spec_of "loss:0.2") trace in
  Alcotest.(check int) "summary adds up" (List.length trace - s.Impair.lost) (List.length out);
  Alcotest.(check bool) "losses leave a subsequence" true (is_subsequence (wires out) (wires trace));
  Alcotest.(check bool) "some packets lost" true (s.Impair.lost > 0)

let test_dup_adjacent () =
  let trace = small_trace () in
  let out, s = Impair.apply ~seed:3 (spec_of "dup:0.2") trace in
  Alcotest.(check int) "summary adds up" (List.length trace + s.Impair.duplicated) (List.length out);
  Alcotest.(check bool) "some packets duplicated" true (s.Impair.duplicated > 0);
  (* Every packet beyond the input multiset is an immediate duplicate. *)
  let rec adjacent_dups acc = function
    | a :: b :: rest when String.equal a b -> adjacent_dups (acc + 1) (b :: rest)
    | _ :: rest -> adjacent_dups acc rest
    | [] -> acc
  in
  Alcotest.(check bool) "duplicates sit next to their original" true
    (adjacent_dups 0 (wires out) >= s.Impair.duplicated)

let test_corrupt_checksums () =
  let trace = small_trace () in
  let stale, s1 = Impair.apply ~seed:9 (spec_of "corrupt:0.3") trace in
  Alcotest.(check bool) "some packets corrupted" true (s1.Impair.corrupted > 0);
  let parseable p = Sb_flow.Five_tuple.of_packet_opt p <> None in
  Alcotest.(check bool) "stale corruption is detectable" true
    (List.exists (fun p -> parseable p && not (Packet.checksums_ok p)) stale);
  let fixed, s2 = Impair.apply ~seed:9 (spec_of "corrupt-fix:0.3") trace in
  Alcotest.(check bool) "some packets corrupted (fix)" true (s2.Impair.corrupted > 0);
  Alcotest.(check bool) "fixed corruption passes checksum verification" true
    (List.for_all (fun p -> (not (parseable p)) || Packet.checksums_ok p) fixed)

let test_retrans_control_only () =
  let trace = small_trace () in
  let out, s = Impair.apply ~seed:4 (spec_of "retrans:0.5") trace in
  Alcotest.(check int) "summary adds up" (List.length trace + s.Impair.retransmitted)
    (List.length out);
  Alcotest.(check bool) "some control packets retransmitted" true (s.Impair.retransmitted > 0);
  (* Count each wire image: anything over its input count must be TCP
     SYN/FIN/RST. *)
  let counts l =
    let h = Hashtbl.create 256 in
    List.iter (fun w -> Hashtbl.replace h w (1 + Option.value ~default:0 (Hashtbl.find_opt h w))) l;
    h
  in
  let inc = counts (wires trace) in
  List.iter
    (fun p ->
      let w = Packet.wire p in
      let extra =
        match Hashtbl.find_opt inc w with
        | Some n when n > 0 ->
            Hashtbl.replace inc w (n - 1);
            false
        | _ -> true
      in
      if extra then begin
        let f = Packet.tcp_flags p in
        Alcotest.(check bool) "extra copy is a control packet" true
          (f.Tcp.Flags.syn || f.Tcp.Flags.fin || f.Tcp.Flags.rst)
      end)
    out

let test_delay_past_expiry () =
  let trace =
    Sb_trace.Workload.fixed_trace ~seed:6 ~n_flows:2 ~packets_per_flow:20 ~payload_len:32 ()
  in
  let out, s = Impair.apply ~seed:6 (spec_of "delay:1") trace in
  Alcotest.(check int) "both flows delayed" 2 s.Impair.delayed_flows;
  Alcotest.(check int) "no packets lost" (List.length trace) (List.length out);
  let tail = List.filteri (fun i _ -> i >= List.length out - 10) out in
  Alcotest.(check bool) "delayed tails arrive past the idle-expiry horizon" true
    (List.for_all (fun p -> p.Packet.ingress_cycle >= Impair.delay_cycles) tail)

let test_blackhole_contiguous () =
  let trace = small_trace () in
  let n = List.length trace in
  let out, s = Impair.apply ~seed:8 (spec_of "blackhole:0.1") trace in
  Alcotest.(check int) "window size" (int_of_float (Float.round (0.1 *. float_of_int n)))
    s.Impair.blackholed;
  Alcotest.(check int) "summary adds up" (n - s.Impair.blackholed) (List.length out);
  (* The survivors are the input minus one contiguous run. *)
  let out_w = wires out and in_w = wires trace in
  let rec split_prefix shared a b =
    match (a, b) with
    | x :: a', y :: b' when String.equal x y -> split_prefix (shared + 1) a' b'
    | _ -> (shared, a, b)
  in
  let _, rest_out, rest_in = split_prefix 0 out_w in_w in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  Alcotest.(check bool) "dropped window is contiguous" true
    (rest_out = drop s.Impair.blackholed rest_in)

let test_monotone_clock () =
  let trace =
    Sb_trace.Workload.with_poisson_times ~seed:5 ~rate_mpps:1.0 (small_trace ())
  in
  let out, _ = Impair.apply ~seed:7 (spec_of "reorder:0.4,delay:0.3,dup:0.1") trace in
  let rec monotone last = function
    | [] -> true
    | p :: rest -> p.Packet.ingress_cycle >= last && monotone p.Packet.ingress_cycle rest
  in
  Alcotest.(check bool) "arrival clock stays monotone" true (monotone 0 out)

(* Conntrack under adversarial timelines ---------------------------------- *)

let observe ct key flags =
  Sb_flow.Conntrack.observe ct key (Test_util.tcp_packet ~flags ())

let test_fin_before_syn () =
  let ct = Sb_flow.Conntrack.create () in
  let key = Test_util.tuple () in
  let v = observe ct key Tcp.Flags.fin_ack in
  Alcotest.(check bool) "FIN-before-SYN closes immediately" true
    (v.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Closing && v.Sb_flow.Conntrack.final)

let test_syn_retransmit_after_establishment () =
  let ct = Sb_flow.Conntrack.create () in
  let key = Test_util.tuple () in
  let _ = observe ct key Tcp.Flags.syn in
  let v = observe ct key Tcp.Flags.ack in
  Alcotest.(check bool) "establishes once" true v.Sb_flow.Conntrack.established_now;
  let v = observe ct key Tcp.Flags.syn in
  Alcotest.(check bool) "SYN retransmit keeps Established" true
    (v.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Established);
  Alcotest.(check bool) "retransmit never re-fires establishment" false
    v.Sb_flow.Conntrack.established_now;
  let v = observe ct key Tcp.Flags.syn_ack in
  Alcotest.(check bool) "SYN-ACK retransmit keeps Established" true
    (v.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Established
    && not v.Sb_flow.Conntrack.established_now)

let test_duplicate_teardown () =
  let ct = Sb_flow.Conntrack.create () in
  let key = Test_util.tuple () in
  let _ = observe ct key Tcp.Flags.syn in
  let _ = observe ct key Tcp.Flags.ack in
  let v1 = observe ct key Tcp.Flags.fin_ack in
  let v2 = observe ct key Tcp.Flags.fin_ack in
  Alcotest.(check bool) "first FIN final" true v1.Sb_flow.Conntrack.final;
  Alcotest.(check bool) "duplicate FIN idempotently final" true
    (v2.Sb_flow.Conntrack.final && v2.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Closing);
  let v3 = observe ct key Tcp.Flags.rst in
  Alcotest.(check bool) "RST on a closed flow stays a clean teardown" true
    (v3.Sb_flow.Conntrack.final && v3.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Closing)

let test_data_after_fin () =
  let ct = Sb_flow.Conntrack.create () in
  let key = Test_util.tuple () in
  let _ = observe ct key Tcp.Flags.syn in
  let _ = observe ct key Tcp.Flags.ack in
  let _ = observe ct key Tcp.Flags.fin_ack in
  (* Until the runtime's teardown removes the entry, straggler data on the
     closed flow stays Closing — it must not resurrect the connection. *)
  let v = observe ct key Tcp.Flags.ack in
  Alcotest.(check bool) "straggler data on a closed entry stays Closing" true
    (v.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Closing
    && not v.Sb_flow.Conntrack.established_now);
  (* After teardown (what the runtime does on a final verdict), delayed
     data is a fresh flow and establishes immediately. *)
  Sb_flow.Conntrack.forget ct key;
  let v = observe ct key Tcp.Flags.ack in
  Alcotest.(check bool) "data after teardown re-establishes fresh" true
    (v.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Established
    && v.Sb_flow.Conntrack.established_now)

(* Classifier rejection --------------------------------------------------- *)

let unparseable_packet () =
  let p = Packet.copy (Test_util.tcp_packet ()) in
  (* Flip the IPv4 protocol byte to something the classifier can't parse. *)
  Bytes.set p.Packet.buf (Packet.l3_offset p + 9) (Char.chr 99);
  p

let test_runtime_rejects_malformed () =
  let run ~burst =
    let chain =
      Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
    in
    let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
    let trace = [ Test_util.tcp_packet (); unparseable_packet (); Test_util.udp_packet () ] in
    let r = Speedybox.Runtime.run_trace ~burst rt trace in
    (r.Speedybox.Runtime.forwarded, r.Speedybox.Runtime.dropped,
     Speedybox.Runtime.rejected_malformed rt)
  in
  Alcotest.(check (triple int int int)) "per-packet: malformed dropped at classifier"
    (2, 1, 1) (run ~burst:1);
  Alcotest.(check (triple int int int)) "burst: same rejection" (2, 1, 1) (run ~burst:8)

(* A rejected packet takes neither path: over a half-corrupted trace
   (checksums verified, as the CLI arms them) every executor's slow and
   fast counts plus the classifier's rejections make up the trace. *)
let test_paths_add_up () =
  let trace, _ = Impair.apply ~seed:1 (spec_of "corrupt:0.5") (small_trace ()) in
  let n = List.length trace in
  let cfg () = Speedybox.Runtime.config ~verify_checksums:true () in
  let build _ = Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ] in
  let check name rejected (r : Speedybox.Runtime.run_result) =
    Alcotest.(check bool) (name ^ ": some packets rejected") true (rejected > 0);
    Alcotest.(check int) (name ^ ": slow + fast + rejected = packets") n
      (r.Speedybox.Runtime.slow_path + r.Speedybox.Runtime.fast_path + rejected)
  in
  List.iter
    (fun burst ->
      let rt = Speedybox.Runtime.create (cfg ()) (build 0) in
      let r = Speedybox.Runtime.run_trace ~burst rt trace in
      check (Printf.sprintf "burst %d" burst) (Speedybox.Runtime.rejected_malformed rt) r)
    [ 1; 32 ];
  let plan () = Sb_shard.Sharded.create ~shards:2 (cfg ()) build in
  let rejected sh =
    List.init 2 (Sb_shard.Sharded.runtime sh)
    |> List.fold_left (fun acc rt -> acc + Speedybox.Runtime.rejected_malformed rt) 0
  in
  (let sh = plan () in
   let r = Sb_shard.Sharded.run_trace sh trace in
   check "det-2" (rejected sh) r);
  (let sh = plan () in
   let r = Sb_shard.Parallel_exec.run_trace sh trace in
   check "par-2" (rejected sh) r);
  let staged =
    Speedybox.Staged_runtime.run
      (Speedybox.Runtime.config ~platform:Sb_sim.Platform.Onvm ~verify_checksums:true ())
      (build 0)
      (Sb_trace.Workload.with_poisson_times ~seed:97 ~rate_mpps:0.5 trace)
  in
  Alcotest.(check int) "staged: malformed = the runtime's rejections"
    (Speedybox.Runtime.rejected_malformed staged.Speedybox.Staged_runtime.runtime)
    staged.Speedybox.Staged_runtime.malformed;
  Alcotest.(check int) "staged: slow + fast + rejected + overflow = packets" n
    (staged.Speedybox.Staged_runtime.slow_path + staged.Speedybox.Staged_runtime.fast_path
    + staged.Speedybox.Staged_runtime.malformed + staged.Speedybox.Staged_runtime.dropped_overflow)

let test_checksum_verification () =
  let damaged =
    let p = Packet.copy (Test_util.tcp_packet ~payload:"corrupt me" ()) in
    (* Flip a payload byte without recomputing checksums. *)
    Bytes.set p.Packet.buf (p.Packet.len - 1) 'X';
    p
  in
  let run ~verify_checksums =
    let chain =
      Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
    in
    let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ~verify_checksums ()) chain in
    let r = Speedybox.Runtime.run_trace rt [ Packet.copy damaged ] in
    (r.Speedybox.Runtime.forwarded, Speedybox.Runtime.rejected_malformed rt)
  in
  Alcotest.(check (pair int int)) "unverified: stale checksum sails through" (1, 0)
    (run ~verify_checksums:false);
  Alcotest.(check (pair int int)) "verified: stale checksum rejected" (0, 1)
    (run ~verify_checksums:true)

let test_dos_dedup () =
  let dos = Sb_nf.Dos_guard.create ~mode:Sb_nf.Dos_guard.Syn_only ~threshold:10 () in
  let chain = Speedybox.Chain.create ~name:"dos" [ Sb_nf.Dos_guard.nf dos ] in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let syn = Test_util.tcp_packet ~payload:"" ~flags:Tcp.Flags.syn () in
  let _ = Speedybox.Runtime.run_trace rt [ Packet.copy syn; Packet.copy syn; Packet.copy syn ] in
  Alcotest.(check int) "duplicate SYNs count once" 1
    (Sb_nf.Dos_guard.count dos (Test_util.tuple ()))

(* Differential properties across executors ------------------------------- *)

let digest_of ~malformed (r : Speedybox.Runtime.run_result) =
  ( r.Speedybox.Runtime.packets,
    r.Speedybox.Runtime.forwarded,
    r.Speedybox.Runtime.dropped,
    r.Speedybox.Runtime.slow_path,
    r.Speedybox.Runtime.fast_path,
    r.Speedybox.Runtime.events_fired,
    malformed )

let build_dos_chain () =
  Speedybox.Chain.create ~name:"impair-diff"
    [
      Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:12 ());
      Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
    ]

let run_unsharded ~burst trace =
  let chain = build_dos_chain () in
  let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
  let r = Speedybox.Runtime.run_trace ~burst rt trace in
  (digest_of ~malformed:(Speedybox.Runtime.rejected_malformed rt) r,
   Speedybox.Chain.state_digest chain)

let run_sharded trace =
  let sh =
    Sb_shard.Sharded.create ~shards:3 (Speedybox.Runtime.config ()) (fun _ ->
        build_dos_chain ())
  in
  let r = Sb_shard.Sharded.run_trace ~burst:8 sh trace in
  let malformed =
    List.init 3 (Sb_shard.Sharded.runtime sh)
    |> List.fold_left (fun acc rt -> acc + Speedybox.Runtime.rejected_malformed rt) 0
  in
  digest_of ~malformed r

let test_impaired_executors_agree () =
  let trace, _ = Impair.apply ~seed:13 (spec_of full_spec) (small_trace ()) in
  let per_packet, state1 = run_unsharded ~burst:1 trace in
  let burst, state32 = run_unsharded ~burst:32 trace in
  Alcotest.(check bool) "per-packet vs burst-32 digests" true (per_packet = burst);
  Alcotest.(check string) "per-packet vs burst-32 chain state" state1 state32;
  Alcotest.(check bool) "per-packet vs sharded-3 digests" true
    (per_packet = run_sharded trace)

(* QCheck: randomized differential properties. *)

let prop_loss_preserves_order =
  QCheck.Test.make ~count:30 ~name:"loss-only leaves a per-flow subsequence"
    QCheck.(pair small_nat (float_range 0. 0.5))
    (fun (seed, rate) ->
      let trace = small_trace ~seed:(400 + seed) ~n_flows:10 () in
      let out, _ = Impair.apply ~seed (spec_of (Printf.sprintf "loss:%f" rate)) trace in
      (* Global subsequence implies per-flow verdict order is preserved. *)
      is_subsequence (wires out) (wires trace))

let prop_delay_preserves_per_flow_order =
  QCheck.Test.make ~count:30 ~name:"delay-only preserves per-flow order"
    QCheck.(pair small_nat (float_range 0. 1.))
    (fun (seed, rate) ->
      let trace = small_trace ~seed:(500 + seed) ~n_flows:10 () in
      let out, _ = Impair.apply ~seed (spec_of (Printf.sprintf "delay:%f" rate)) trace in
      let per_flow t =
        let h = Hashtbl.create 32 in
        List.iter
          (fun p ->
            match Sb_flow.Five_tuple.of_packet_opt p with
            | Some tuple ->
                let key = Sb_flow.Five_tuple.hash tuple in
                Hashtbl.replace h key
                  (Packet.wire p :: Option.value ~default:[] (Hashtbl.find_opt h key))
            | None -> ())
          t;
        h
      in
      let clean = per_flow trace and impaired = per_flow out in
      Hashtbl.fold
        (fun key seq acc -> acc && Hashtbl.find_opt impaired key = Some seq)
        clean true)

let prop_dup_never_double_fires =
  QCheck.Test.make ~count:20 ~name:"duplication never double-fires armed events"
    QCheck.(pair small_nat (float_range 0. 0.5))
    (fun (seed, rate) ->
      (* TCP-only: sequence numbers give the budget counter its dedup
         window (UDP duplicates are indistinguishable by design). *)
      let trace =
        Sb_trace.Workload.fixed_trace ~seed:(600 + seed) ~n_flows:6 ~packets_per_flow:20
          ~payload_len:32 ()
      in
      let events t =
        let chain =
          Speedybox.Chain.create ~name:"dos"
            [ Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:10 ()) ]
        in
        let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in
        (Speedybox.Runtime.run_trace rt t).Speedybox.Runtime.events_fired
      in
      let out, _ = Impair.apply ~seed (spec_of (Printf.sprintf "dup:%f" rate)) trace in
      events out = events trace)

let prop_impaired_executor_agreement =
  QCheck.Test.make ~count:12 ~name:"impaired traces: executors agree"
    QCheck.(pair small_nat (float_range 0. 0.3))
    (fun (seed, rate) ->
      let spec =
        spec_of
          (Printf.sprintf "reorder:%f,loss:%f,dup:%f,retrans:%f" rate (rate /. 2.) rate rate)
      in
      let trace, _ = Impair.apply ~seed spec (small_trace ~seed:(700 + seed) ~n_flows:12 ()) in
      let a, _ = run_unsharded ~burst:1 trace in
      let b, _ = run_unsharded ~burst:16 trace in
      a = b && a = run_sharded trace)

let suite =
  [
    Alcotest.test_case "parse ok" `Quick test_parse_ok;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "bit-identical determinism" `Quick test_bit_identical;
    Alcotest.test_case "inputs untouched" `Quick test_inputs_untouched;
    Alcotest.test_case "loss" `Quick test_loss;
    Alcotest.test_case "dup adjacency" `Quick test_dup_adjacent;
    Alcotest.test_case "corrupt checksums" `Quick test_corrupt_checksums;
    Alcotest.test_case "retrans control-only" `Quick test_retrans_control_only;
    Alcotest.test_case "delay past expiry" `Quick test_delay_past_expiry;
    Alcotest.test_case "blackhole contiguous" `Quick test_blackhole_contiguous;
    Alcotest.test_case "monotone arrival clock" `Quick test_monotone_clock;
    Alcotest.test_case "conntrack: FIN before SYN" `Quick test_fin_before_syn;
    Alcotest.test_case "conntrack: SYN retransmit" `Quick test_syn_retransmit_after_establishment;
    Alcotest.test_case "conntrack: duplicate teardown" `Quick test_duplicate_teardown;
    Alcotest.test_case "conntrack: data after FIN" `Quick test_data_after_fin;
    Alcotest.test_case "runtime rejects malformed" `Quick test_runtime_rejects_malformed;
    Alcotest.test_case "checksum verification" `Quick test_checksum_verification;
    Alcotest.test_case "paths add up under corruption" `Quick test_paths_add_up;
    Alcotest.test_case "dos duplicate dedup" `Quick test_dos_dedup;
    Alcotest.test_case "impaired executors agree" `Quick test_impaired_executors_agree;
  ]
  @ Test_util.qcheck_cases
      [
        prop_loss_preserves_order;
        prop_delay_preserves_per_flow_order;
        prop_dup_never_double_fires;
        prop_impaired_executor_agreement;
      ]
