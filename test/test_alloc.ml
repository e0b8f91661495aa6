(* Allocation budgets of the steady-state fast path and of consolidation.

   Minor-heap words allocated per packet are a property of the code, not
   of the machine, so this gate runs under [dune runtest] everywhere.  A
   warmed [chain1] (MazuNAT, Maglev, Monitor, IPFilter) replays a DCN
   trace with its SYN, FIN and RST packets removed, so every flow is
   established by its first data packet and stays so, and every packet of
   the measured replay takes the Global MAT fast path.  Two figures are gated:

   - words per packet through [Runtime.process_burst_into] at burst 32
     with a no-op emit: classifier, conntrack, event poll, compiled
     program, state functions, profile and output record;
   - words per [Runtime.Acc.consume] call over those packets' outputs.

   What remains in the first figure is the boxed 5-tuple the classifier
   and Monitor each build (a record and two boxed [int32]s, 12 words
   each) and the eight-field output record (9 words), plus a fraction of
   a word per packet for the emit closure built once per burst.

   The benchmark's edge-churn chain gets the same two figures for its
   fast path, where every packet runs the Monitor + DoS guard two-batch
   wave (a [Parallel] cost item), plus words per packet of a slow-path
   only trace: each flow's SYN walks the chain and its first data packet
   records and consolidates.  Every path writes its costs into the
   runtime's int cost vector and shares an interned profile, so none of
   these figures contains a cost-profile list.

   A further figure covers consolidation alone: words per
   [Global_mat.consolidate] call, re-consolidating every recorded flow of
   the same trace on [chain1] and on the edge-churn chain.  What a call
   allocates is the program itself — each non-identity transform, each
   wave's batch array, the batch records and the final code array — and
   nothing per [Forward] action.

   The burst, slow-path and consolidation budgets sit under 10% above
   their measured figures, and [Acc.consume] must not allocate at all; a
   change that allocates more must pay for it elsewhere or raise the
   budget on purpose. *)

open Speedybox
module P = Sb_packet.Packet

(* Measured: 33.19 words per fast-path packet and 0 per consume (OCaml
   5.1, no flambda, dev profile). *)
let burst_budget_words = 36.

let consume_budget_words = 0.

(* Measured on the edge-churn chain: 57.19 words per two-batch-wave
   fast-path packet (122.19 when each packet built its cost-profile
   lists) and 226.60 per slow-path packet, half SYN walks and half
   recording walks with their consolidation (299.36 before). *)
let wave_budget_words = 62.

let slow_budget_words = 245.

(* The benchmark's edge-churn chain: the registry's [edge] NFs with
   Gateway last. *)
let edge_churn_chain = "statefulfw,monitor,dosguard:200,gateway"

(* Measured: 16.19 words per call on the edge-churn chain and 52.02 on
   [chain1] (the list-staged consolidation this pass replaced: 220.63 and
   601.02). *)
let consolidate_edge_budget_words = 17.5

let consolidate_chain1_budget_words = 57.

let steady_trace () =
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
  |> List.filter (fun p ->
         match P.proto p with
         | P.Udp -> true
         | P.Tcp ->
             P.tcp_flag_bits p
             land Sb_packet.Tcp.(fin_bit lor syn_bit lor rst_bit)
             = 0)
  |> Array.of_list

(* The edge-churn chain's steady state: 300 port-80 TCP flows of 8 data
   packets each.  Replayed with their SYNs, every flow is accepted by the
   firewall and consolidated; replayed without them, every packet takes
   the fast path through the Monitor + DoS guard two-batch wave (three
   replays stay under the guard's 200-packet cap). *)
let edge_trace ~syn =
  Sb_trace.Workload.fixed_trace ~seed:21 ~n_flows:300 ~packets_per_flow:8 ~payload_len:64 ()
  |> List.filter (fun p ->
         let flags = P.tcp_flag_bits p in
         flags land Sb_packet.Tcp.(fin_bit lor rst_bit) = 0
         && (syn || flags land Sb_packet.Tcp.syn_bit = 0))
  |> Array.of_list

(* Slow path only: 600 DCN-style flows (edge-churn's 16-128 B payloads)
   that each send a SYN — a plain walk — and one data packet, which
   records and consolidates.  Flows whose FID an earlier flow took are
   left out, so no packet reaches a rule. *)
let slow_trace () =
  let fids = Hashtbl.create 1024 in
  Sb_trace.Workload.dcn_flows
    {
      Sb_trace.Workload.seed = 21;
      n_flows = 600;
      mean_flow_packets = 2.;
      payload_len = (16, 128);
      udp_fraction = 0.;
      malicious_fraction = 0.;
      tokens = [];
    }
  |> List.filter (fun (f : Sb_trace.Workload.flow) ->
         let fid = Sb_flow.Fid.of_tuple f.Sb_trace.Workload.tuple in
         (not (Hashtbl.mem fids fid)) && (Hashtbl.replace fids fid (); true))
  |> List.concat_map (fun (f : Sb_trace.Workload.flow) ->
         Sb_trace.Workload.packets_of_flow
           (Sb_trace.Workload.make_flow ~close:Sb_trace.Workload.Stay_open
              ~tuple:f.Sb_trace.Workload.tuple
              ~payloads:[| f.Sb_trace.Workload.payloads.(0) |]
              ()))
  |> Array.of_list

type run = {
  packets : P.t array;
  rt : Runtime.t;
  pool : P.t array;
}

let build chain_name =
  match Sb_experiments.Chain_registry.build chain_name with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

let setup ?(chain = "chain1") ?(packets = steady_trace ()) () =
  {
    packets;
    rt = Runtime.create (Runtime.config ()) (build chain);
    pool = Array.init Runtime.default_burst (fun _ -> P.scratch ());
  }

(* One replay in bursts of 32; returns the minor words allocated inside
   [process_burst_into] calls only (the ingress copies are outside). *)
let replay r emit =
  let n = Array.length r.packets in
  let words = ref 0. in
  let i = ref 0 in
  while !i < n do
    let len = min Runtime.default_burst (n - !i) in
    for k = 0 to len - 1 do
      P.copy_into ~src:r.packets.(!i + k) ~dst:r.pool.(k)
    done;
    let base = !i in
    let w0 = Gc.minor_words () in
    Runtime.process_burst_into r.rt r.pool ~off:0 ~len (fun k out -> emit (base + k) out);
    words := !words +. (Gc.minor_words () -. w0);
    i := !i + len
  done;
  !words

let per_packet r words = words /. float_of_int (Array.length r.packets)

let test_fast_path_budget () =
  let r = setup () in
  ignore (replay r (fun _ _ -> ()));
  let slow = ref 0 in
  ignore
    (replay r (fun _ out -> if out.Runtime.path = Runtime.Slow_path then incr slow));
  Alcotest.(check int) "warmed replay is all fast path" 0 !slow;
  let words = per_packet r (replay r (fun _ _ -> ())) in
  if words > burst_budget_words then
    Alcotest.failf "fast path allocates %.2f words/packet, budget %.1f" words
      burst_budget_words

(* The edge-churn chain warmed with SYNs, then replayed without them. *)
let edge_setup () =
  let r = setup ~chain:edge_churn_chain ~packets:(edge_trace ~syn:true) () in
  ignore (replay r (fun _ _ -> ()));
  { r with packets = edge_trace ~syn:false }

let test_wave_fast_path_budget () =
  let r = edge_setup () in
  let waves = ref 0 in
  ignore
    (replay r (fun _ out ->
         if out.Runtime.path = Runtime.Fast_path && Test_util.has_parallel_item out then
           incr waves));
  Alcotest.(check int) "every packet runs the two-batch wave" (Array.length r.packets) !waves;
  let words = per_packet r (replay r (fun _ _ -> ())) in
  if words > wave_budget_words then
    Alcotest.failf "wave fast path allocates %.2f words/packet, budget %.1f" words
      wave_budget_words

let test_slow_path_budget () =
  let r = setup ~chain:edge_churn_chain ~packets:(slow_trace ()) () in
  let fast = ref 0 and consolidated = ref 0 in
  let words =
    per_packet r
      (replay r (fun _ out ->
           if out.Runtime.path = Runtime.Fast_path then incr fast;
           if
             List.exists
               (fun (st : Sb_sim.Cost_profile.stage) ->
                 String.equal st.Sb_sim.Cost_profile.label "Consolidate")
               out.Runtime.profile
           then incr consolidated))
  in
  Alcotest.(check int) "no packet reaches a rule" 0 !fast;
  Alcotest.(check bool) "data packets record" true (!consolidated > 0);
  if words > slow_budget_words then
    Alcotest.failf "slow path allocates %.2f words/packet, budget %.1f" words
      slow_budget_words

let check_consume_budget r () =
  ignore (replay r (fun _ _ -> ()));
  let outs = Array.make (Array.length r.packets) None in
  ignore (replay r (fun k out -> outs.(k) <- Some out));
  let acc = Runtime.Acc.create () in
  let consume_all () =
    for k = 0 to Array.length outs - 1 do
      match outs.(k) with
      | Some out -> Runtime.Acc.consume acc r.packets.(k) out
      | None -> Alcotest.fail "missing output"
    done
  in
  (* The first pass creates every stage label's and flow's bucket. *)
  consume_all ();
  let w0 = Gc.minor_words () in
  consume_all ();
  let words = per_packet r (Gc.minor_words () -. w0) in
  if words > consume_budget_words then
    Alcotest.failf "Acc.consume allocates %.3f words/packet, budget %.1f" words
      consume_budget_words

let test_consume_budget () = check_consume_budget (setup ()) ()

let test_consume_wave_budget () = check_consume_budget (edge_setup ()) ()

(* Words per [Global_mat.consolidate] call: replay a DCN trace through
   [chain] so every flow records and consolidates, warm the table's
   scratch buffers with one pass over the installed rules, then
   re-consolidate every rule from its Local MAT records. *)
let consolidate_words chain_name =
  let chain = build chain_name in
  let rt = Runtime.create (Runtime.config ()) chain in
  Array.iter (fun p -> ignore (Runtime.process_packet rt (P.copy p))) (steady_trace ());
  let gm = Runtime.global_mat rt in
  let fids = Array.of_list (Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) gm []) in
  let locals = Chain.local_mats chain in
  let consolidate_all () =
    Array.iter (fun fid -> ignore (Sb_mat.Global_mat.consolidate gm fid locals)) fids
  in
  consolidate_all ();
  let w0 = Gc.minor_words () in
  consolidate_all ();
  (Gc.minor_words () -. w0) /. float_of_int (Array.length fids)

let check_consolidate_budget chain_name budget () =
  let words = consolidate_words chain_name in
  if words > budget then
    Alcotest.failf "consolidate on %s allocates %.2f words/call, budget %.1f" chain_name words
      budget

let suite =
  [
    Alcotest.test_case "fast-path allocation budget" `Quick test_fast_path_budget;
    Alcotest.test_case "Acc.consume allocation budget" `Quick test_consume_budget;
    Alcotest.test_case "Acc.consume budget (waves)" `Quick test_consume_wave_budget;
    Alcotest.test_case "wave fast-path budget" `Quick test_wave_fast_path_budget;
    Alcotest.test_case "slow-path allocation budget" `Quick test_slow_path_budget;
    Alcotest.test_case "consolidate allocation budget (edge-churn chain)" `Quick
      (check_consolidate_budget edge_churn_chain consolidate_edge_budget_words);
    Alcotest.test_case "consolidate allocation budget (chain1)" `Quick
      (check_consolidate_budget "chain1" consolidate_chain1_budget_words);
  ]

