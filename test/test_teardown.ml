(* Teardown invariants of the flow table.

   A runtime keeps each flow in one slot: liveness cells, Global MAT rule
   and every NF's Local MAT record.  Every teardown path edits that one
   slot: FIN/RST cleanup, idle expiry and quarantine remove it, while LRU
   eviction, the failure flush and migration drop the rule and records
   and keep the liveness.  This property replays random registry chains
   over traces that mix all of them and, after each run, checks the table
   against a model that follows the traffic:

   - the table holds exactly the flows the model says are live or hold a
     rule, with liveness cells on exactly the live ones;
   - [Global_mat.flow_count] is the model's rule count and its rules are
     the model's;
   - each NF's [Local_mat.flow_count] counts records that rule flows
     hold, and no other flow holds one;
   - evictions and idle expiries match the model's.

   The model learns from the outputs and from counters kept outside the
   table (consolidations, evictions, NF failures).  A run is one phase of
   traffic spanning a quarter of the idle timeout, and phases are far
   apart, so the first packet of a phase fires every earlier flow's timer
   and no flow idles out inside a phase.  The 2-shard half migrates and
   drains between runs; there, rules follow the plan (a rule transplants
   only when portable), and the model checks that migration keeps the
   source's liveness. *)

open Speedybox
module P = Sb_packet.Packet
module FT = Sb_mat.Flow_table
module GM = Sb_mat.Global_mat
module Five_tuple = Sb_flow.Five_tuple

let timeout = 100_000

let gap = 100 * timeout

let chains = [| "chain1"; "chain2"; "edge"; "vpn"; "mazunat,monitor,dosguard:6"; "statefulfw,monitor" |]

let phase_trace ~seed ~flows ~phase =
  let trace =
    Sb_trace.Workload.dcn_trace
      {
        Sb_trace.Workload.seed;
        n_flows = flows;
        mean_flow_packets = 6.;
        payload_len = (16, 256);
        udp_fraction = 0.2;
        malicious_fraction = 0.;
        tokens = [];
      }
  in
  let step = max 1 (timeout / 4 / max 1 (List.length trace)) in
  List.mapi
    (fun i p ->
      let p = P.copy p in
      p.P.ingress_cycle <- (phase * gap) + (i * step);
      p)
    trace

let final p =
  P.proto p = P.Tcp && P.tcp_flag_bits p land Sb_packet.Tcp.(fin_bit lor rst_bit) <> 0

(* One runtime's model. *)
type model = {
  live : (int, unit) Hashtbl.t;
  mutable lru : int list;  (* rule flows, hottest first *)
  mutable evictions : int;
  mutable expired : int;
  mutable phase : int;  (* the phase of the last packet admitted *)
  mutable consolidations : int;
  mutable failures : int;
}

let model () =
  {
    live = Hashtbl.create 64;
    lru = [];
    evictions = 0;
    expired = 0;
    phase = 0;
    consolidations = 0;
    failures = 0;
  }

let drop m fid = m.lru <- List.filter (( <> ) fid) m.lru

let touch m fid = m.lru <- fid :: List.filter (( <> ) fid) m.lru

let forget m fid =
  Hashtbl.remove m.live fid;
  drop m fid

(* Consolidation of a flow with no rule: under the cap the coldest rule
   goes and its flow stays live. *)
let install m ~cap fid =
  (match (cap, List.rev m.lru) with
  | Some c, coldest :: _ when List.length m.lru >= c ->
      drop m coldest;
      m.evictions <- m.evictions + 1
  | _ -> ());
  m.lru <- fid :: m.lru

(* What one packet did to its runtime's flows, in the order the runtime
   does it: timers due at admission, the touch, a failure flush, then
   quarantine, or the rule's use or install and FIN/RST cleanup. *)
let observe m ~cap ~phase rt packet (out : Runtime.output) =
  let consolidations = GM.consolidation_count (Runtime.global_mat rt) in
  let failures = Sb_fault.Health.failures (Sb_fault.Supervisor.health (Runtime.supervisor rt)) in
  if Five_tuple.admits packet then begin
    let fid = Sb_flow.Fid.of_packet packet in
    if phase > m.phase then begin
      m.expired <- m.expired + Hashtbl.length m.live;
      Hashtbl.iter (fun f () -> drop m f) m.live;
      Hashtbl.reset m.live;
      m.phase <- phase
    end;
    Hashtbl.replace m.live fid ();
    if failures > m.failures then m.lru <- [];
    if out.Runtime.faults > 0 then forget m fid
    else begin
      (match out.Runtime.path with
      | Runtime.Fast_path -> touch m fid
      | Runtime.Slow_path -> if consolidations > m.consolidations then install m ~cap fid);
      if final packet then forget m fid
    end
  end;
  m.consolidations <- consolidations;
  m.failures <- failures

let fail fmt = QCheck.Test.fail_reportf fmt

let expect what pp a b = if a <> b then fail "%s: expected %a, got %a" what pp a pp b

let ints = Fmt.(brackets (list ~sep:semi int))

let sorted l = List.sort_uniq compare l

let live_fids m = Hashtbl.fold (fun f () acc -> f :: acc) m.live [] |> sorted

let rule_fids gm = GM.fold (fun f _ acc -> f :: acc) gm [] |> sorted

let table_live rt =
  let flows = GM.flows (Runtime.global_mat rt) in
  FT.fold
    (fun fid _ acc -> if FT.epoch_at flows (FT.find_slot flows fid) <> 0 then fid :: acc else acc)
    flows []
  |> sorted

(* The table against the model, after a run.  [rules] says which flows
   hold a rule: the model's, or, on a plan that migrated, the plan's. *)
let check_table what rt m rules =
  let gm = Runtime.global_mat rt in
  let fids = FT.fold (fun fid _ acc -> fid :: acc) (GM.flows gm) [] |> sorted in
  expect (what ^ ": table = live + rules") ints (sorted (live_fids m @ rules)) fids;
  expect (what ^ ": liveness") ints (live_fids m) (table_live rt);
  expect (what ^ ": rules") ints rules (rule_fids gm);
  expect (what ^ ": flow_count") Fmt.int (List.length rules) (GM.flow_count gm);
  List.iter
    (fun mat ->
      let holders = List.filter (Sb_mat.Local_mat.mem mat) fids in
      expect
        (what ^ ": records of " ^ Sb_mat.Local_mat.nf_name mat ^ " only in rule flows")
        ints
        (List.filter (fun f -> List.mem f rules) holders)
        holders;
      expect
        (what ^ ": Local_mat.flow_count of " ^ Sb_mat.Local_mat.nf_name mat)
        Fmt.int (List.length holders)
        (Sb_mat.Local_mat.flow_count mat))
    (Chain.local_mats (Runtime.chain rt));
  expect (what ^ ": evictions") Fmt.int m.evictions (GM.evictions gm);
  expect (what ^ ": expiries") Fmt.int m.expired (Runtime.expired_flows rt)

let build name =
  match Sb_experiments.Chain_registry.build name with
  | Ok build -> build
  | Error msg -> failwith msg

(* One runtime: FIN/RST, idle expiry, injected raises under a failure
   policy (quarantine, then the flush once the NF fails) and a rule cap
   below the flow count. *)
let unsharded (seed, chain, cap, rate, drop_flow) =
  let chain_v = build chain () in
  let injector =
    if rate = 0. then None
    else begin
      let inj = Sb_fault.Injector.create ~seed () in
      let nfs = Chain.nfs chain_v in
      let nf = List.nth nfs (seed mod List.length nfs) in
      Sb_fault.Injector.set_rate inj ~nf:nf.Nf.name Sb_fault.Injector.Raise rate;
      Some inj
    end
  in
  let on_failure = if drop_flow then Sb_fault.Health.Drop_flow else Sb_fault.Health.Bypass in
  let rt =
    Runtime.create
      (Runtime.config ~idle_timeout_cycles:timeout ?max_rules:cap ?injector
         ~fault_policy:(Sb_fault.Health.policy ~on_failure ())
         ())
      chain_v
  in
  let m = model () in
  for phase = 1 to 4 do
    let trace = phase_trace ~seed:(seed + (phase mod 2)) ~flows:16 ~phase in
    ignore (Runtime.run_trace ~on_output:(observe m ~cap ~phase rt) rt trace);
    check_table (Printf.sprintf "%s phase %d" chain phase) rt m (sorted m.lru)
  done;
  true

(* Where each packet of a run steers: a migration's override until a
   FIN/RST prunes the connection, then the hash. *)
let lanes sh trace =
  let pruned = Hashtbl.create 16 in
  List.map
    (fun p ->
      if not (Five_tuple.admits p) then 0
      else begin
        let k1 = Five_tuple.packet_pack1 p and k2 = Five_tuple.packet_pack2 p in
        let conn = min (k1, k2) (Five_tuple.reverse_pack1 k1 k2, Five_tuple.reverse_pack2 k1 k2) in
        let s =
          if Hashtbl.mem pruned conn then Sb_shard.Steer.shard_of_packet ~shards:2 p
          else Sb_shard.Sharded.shard_of_packet sh p
        in
        if final p then Hashtbl.replace pruned conn ();
        s
      end)
    trace
  |> Array.of_list

(* A 2-shard plan, migrating and draining between runs.  Migration keeps
   the source's liveness; an adopted rule has none until its flow's next
   packet, and idle expiry leaves it alone. *)
let sharded (seed, chain, migrations, drain) =
  let store = Sb_state.Store.create ~shards:2 () in
  let build =
    match Sb_experiments.Chain_registry.build_sharded ~store chain with
    | Ok b -> b
    | Error msg -> failwith msg
  in
  let sh =
    Sb_shard.Sharded.create ~shards:2
      (Runtime.config ~idle_timeout_cycles:timeout ~state:store ())
      build
  in
  let rt i = Sb_shard.Sharded.runtime sh i in
  let ms = [| model (); model () |] in
  let st = Random.State.make [| seed |] in
  for phase = 1 to 4 do
    let trace = phase_trace ~seed:(seed + (phase mod 2)) ~flows:16 ~phase in
    let lane = lanes sh trace in
    let k = ref 0 in
    ignore
      (Sb_shard.Sharded.run_trace sh
         ~on_output:(fun p out ->
           let s = lane.(!k) in
           incr k;
           observe ms.(s) ~cap:None ~phase (rt s) p out)
         trace);
    for s = 0 to 1 do
      check_table (Printf.sprintf "%s shard %d phase %d" chain s phase) (rt s) ms.(s) (sorted ms.(s).lru)
    done;
    let known = sorted (live_fids ms.(0) @ live_fids ms.(1) @ ms.(0).lru @ ms.(1).lru) in
    if known <> [] then
      for _ = 1 to migrations do
        let fid = List.nth known (Random.State.int st (List.length known)) in
        ignore (Sb_shard.Sharded.migrate_flow sh ~fid ~dest:(Random.State.int st 2))
      done;
    if drain then begin
      let from = Random.State.int st 2 in
      ignore (Sb_shard.Sharded.drain_shard sh ~from ~dest:(1 - from))
    end;
    (* Migration drops rules on the source and adopts portable ones on the
       destination; liveness stays where it was. *)
    let after = Array.init 2 (fun s -> rule_fids (Runtime.global_mat (rt s))) in
    let lost = Array.init 2 (fun s -> List.filter (fun f -> not (List.mem f after.(s))) ms.(s).lru) in
    for s = 0 to 1 do
      let gained = List.filter (fun f -> not (List.mem f ms.(s).lru)) after.(s) in
      List.iter
        (fun f ->
          if not (List.mem f lost.(1 - s)) then
            fail "%s: shard %d gained a rule for %d that shard %d did not give up" chain s f
              (1 - s))
        gained;
      List.iter (drop ms.(s)) lost.(s);
      ms.(s).lru <- gained @ ms.(s).lru;
      check_table
        (Printf.sprintf "%s shard %d after migration %d" chain s phase)
        (rt s) ms.(s) after.(s)
    done
  done;
  true

let gen_unsharded =
  QCheck.Gen.(
    quad (int_bound 10_000)
      (map (Array.get chains) (int_bound (Array.length chains - 1)))
      (opt ~ratio:0.6 (int_range 3 12))
      (pair (oneofl [ 0.; 0.02; 0.05 ]) bool)
    |> map (fun (seed, chain, cap, (rate, drop_flow)) -> (seed, chain, cap, rate, drop_flow)))

let print_unsharded (seed, chain, cap, rate, drop_flow) =
  Printf.sprintf "seed=%d chain=%s cap=%s raise=%g on-failure=%s" seed chain
    (match cap with Some c -> string_of_int c | None -> "none")
    rate
    (if drop_flow then "drop-flow" else "bypass")

let prop_unsharded =
  QCheck.Test.make ~count:40 ~name:"teardown leaves exactly live and rule flows"
    (QCheck.make ~print:print_unsharded gen_unsharded)
    unsharded

let gen_sharded =
  QCheck.Gen.(
    quad (int_bound 10_000)
      (map (Array.get chains) (int_bound (Array.length chains - 1)))
      (int_range 0 4) bool)

let print_sharded (seed, chain, migrations, drain) =
  Printf.sprintf "seed=%d chain=%s migrations=%d drain=%b" seed chain migrations drain

let prop_sharded =
  QCheck.Test.make ~count:25 ~name:"teardown on a 2-shard plan with migration"
    (QCheck.make ~print:print_sharded gen_sharded)
    sharded

let suite = List.map QCheck_alcotest.to_alcotest [ prop_unsharded; prop_sharded ]
