(* The correctness gate every run passes after timing (Khalid & Akella:
   a stateful chain is judged on correctness and performance together).

   - Executor agreement at the timed configuration.  The workload
     replays [passes] passes through burst-32 and through per-packet
     dispatch in lockstep, comparing every packet's verdict and output
     bytes, then the chains' state digests.
   - Section VII-C equivalence: the original chain against SpeedyBox over
     one pass, with 30-bit FIDs (the widest [Fid.of_tuple] allows) and the
     flows whose 30-bit FIDs still collide removed.  At the default 20 bits
     such collisions break equivalence by design (EXPERIMENTS.md A4), so
     they are not failures of the datapath.

   Drops the chain decides itself (IPFilter deny, DoS guard) are outputs
   like any other, compared but never counted as failures. *)

open Speedybox
module W = Workloads
module P = Sb_packet.Packet

let same_output (a : Runtime.output) (b : Runtime.output) =
  a.Runtime.verdict = b.Runtime.verdict
  && (a.Runtime.verdict = Sb_mat.Header_action.Dropped
     || P.equal_wire a.Runtime.packet b.Runtime.packet)

type report = { failed : int; first : string option }

let merge a b =
  { failed = a.failed + b.failed; first = (match a.first with Some _ -> a.first | None -> b.first) }

let digest rt = Chain.state_digest (Runtime.chain rt)

(* Replays [passes] passes of [pass] through [burst_rt] at burst 32 and
   through [packet_rt] one packet per call, in lockstep, comparing every
   packet's output, then the two chains' state digests. *)
let lockstep burst_rt packet_rt pass ~passes =
  let pool = Array.init W.burst (fun _ -> P.scratch ()) in
  let outs = Array.make W.burst None in
  let one = P.scratch () in
  let failed = ref 0 and first = ref None in
  let fail msg =
    incr failed;
    if !first = None then first := Some msg
  in
  let orig = pass.W.packets in
  let n = Array.length orig in
  for p = 0 to passes - 1 do
    let load src dst =
      P.copy_into ~src ~dst;
      dst.P.ingress_cycle <- dst.P.ingress_cycle + (p * pass.W.shift)
    in
    let i = ref 0 in
    while !i < n do
      let len = min W.burst (n - !i) in
      for k = 0 to len - 1 do
        load orig.(!i + k) pool.(k)
      done;
      Runtime.process_burst_into burst_rt pool ~off:0 ~len (fun k out -> outs.(k) <- Some out);
      for k = 0 to len - 1 do
        load orig.(!i + k) one;
        let by_packet = Runtime.process_packet packet_rt one in
        match outs.(k) with
        | Some by_burst when same_output by_burst by_packet -> ()
        | Some _ | None ->
            fail (Printf.sprintf "pass %d packet %d: burst-32 and per-packet outputs differ" p (!i + k))
      done;
      i := !i + len
    done
  done;
  if not (String.equal (digest burst_rt) (digest packet_rt)) then
    fail "burst-32 and per-packet chain state digests differ";
  { failed = !failed; first = !first }

let equivalence wl pass =
  let packets = Array.to_list pass.W.packets in
  let bad, _ = W.colliding ~bits:30 (W.tuples packets) in
  let trace =
    List.filter
      (fun p ->
        match Sb_flow.Five_tuple.of_packet_opt p with
        | Some t -> not (Hashtbl.mem bad t)
        | None -> true)
      packets
  in
  let r =
    Equivalence.check
      ~config_a:(W.config ~mode:Runtime.Original ~expiry:false pass)
      ~config_b:(W.config ~fid_bits:30 ~expiry:false pass)
      ~build_chain:(W.chain_builder wl) trace
  in
  let failed =
    r.Equivalence.verdict_mismatches + r.Equivalence.output_mismatches
    + if r.Equivalence.state_equal then 0 else 1
  in
  { failed; first = Option.map (fun m -> "original vs SpeedyBox: " ^ m) r.Equivalence.first_mismatch }

let run wl pass ~passes =
  let fresh () = Runtime.create (W.config pass) (W.chain_builder wl ()) in
  merge (lockstep (fresh ()) (fresh ()) pass ~passes) (equivalence wl pass)
