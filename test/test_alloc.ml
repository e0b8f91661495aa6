(* Allocation budgets of the steady-state fast path.

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
   a word per packet for the emit closure built once per burst.  The
   burst budget sits under 10% above the measured figure, and
   [Acc.consume] must not allocate at all; a change that allocates more
   per packet must pay for it elsewhere or raise the budget on
   purpose. *)

open Speedybox
module P = Sb_packet.Packet

(* Measured: 33.19 words per fast-path packet and 0 per consume (OCaml
   5.1, no flambda, dev profile). *)
let burst_budget_words = 36.

let consume_budget_words = 0.

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

type run = {
  packets : P.t array;
  rt : Runtime.t;
  pool : P.t array;
}

let setup () =
  let build =
    match Sb_experiments.Chain_registry.build "chain1" with
    | Ok build -> build
    | Error msg -> Alcotest.fail msg
  in
  {
    packets = steady_trace ();
    rt = Runtime.create (Runtime.config ()) (build ());
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

let test_consume_budget () =
  let r = setup () in
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

let suite =
  [
    Alcotest.test_case "fast-path allocation budget" `Quick test_fast_path_budget;
    Alcotest.test_case "Acc.consume allocation budget" `Quick test_consume_budget;
  ]

