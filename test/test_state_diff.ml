(* Cross-shard state differential suite.  The silent-partitioning
   regression (ROADMAP open item 2) was committed first as a failing
   case: cross-flow NF state — a DoS budget — lived in per-shard NF
   instances, so a threshold crossed only by the SUM across shards never
   fired in a sharded deployment.  With the scoped state store the
   budget is a global-scope cell: per-shard replicas merge at burst
   boundaries and the deterministic executor is bit-exact with the
   unsharded run.  This file flips the old divergence assertion into an
   equality and extends it into a differential suite over all three
   store-backed NFs (monitor, maglev, dosguard) under det-1/det-4/par-4
   executors, trace impairment, live migration, and backend faults. *)

open Sb_packet
module Store = Sb_state.Store
module Sharded = Sb_shard.Sharded
module Runtime = Speedybox.Runtime
module Report = Speedybox.Report

let ip = Ipv4_addr.of_string

(* 32 flows x 20 packets, arrivals round-robin across flows so every
   shard keeps receiving traffic after the budget is crossed.  The
   per-flow threshold is unreachably high: only the chain-wide budget can
   block anything.  640 packets total cross the 300-packet budget, but no
   4-way shard split of 32 flows puts 300 packets on one shard. *)
let flows = 32
let pkts_per_flow = 20
let budget = 300
let threshold = 1_000_000
let burst = 32

let trace () =
  List.concat
    (List.init pkts_per_flow (fun p ->
         List.init flows (fun f ->
             Packet.tcp ~payload:"x"
               ~seq:(Int32.of_int (p * 1000))
               ~src:(ip (Printf.sprintf "10.9.0.%d" (f + 1)))
               ~dst:(ip "192.168.1.10") ~src_port:(45000 + f) ~dst_port:80 ())))

let dos_spec = Printf.sprintf "dosguard:%d:%d" threshold budget
let monitor_dos_spec = "monitor," ^ dos_spec

(* All three store-backed NFs in one chain; dosguard's per-flow cap of 6
   (under the 20 packets per flow) makes the verdict mix non-trivial.
   (Mazunat stays out: its NAPT port allocator is instance-local, so its
   rewrites are legitimately shard-dependent.) *)
let chain1_spec = "maglev:4,monitor,dosguard:6"

let get = function Ok v -> v | Error e -> Alcotest.fail e
let build_for ~store spec = get (Sb_experiments.Chain_registry.build_sharded ~store spec)

let run_unsharded ?(spec = dos_spec) trace =
  let store = Store.create ~shards:1 () in
  let rt = Runtime.create (Runtime.config ~state:store ()) (build_for ~store spec 0) in
  let res = Runtime.run_trace ~burst rt trace in
  (rt, res, store)

let make_sharded ?(spec = dos_spec) ~shards () =
  let store = Store.create ~shards () in
  let sh = Sharded.create ~shards (Runtime.config ~state:store ()) (build_for ~store spec) in
  (sh, store)

let run_det ?spec ~shards trace =
  let sh, store = make_sharded ?spec ~shards () in
  (sh, Sharded.run_trace ~burst sh trace, store)

let run_par ?spec ~shards trace =
  let sh, store = make_sharded ?spec ~shards () in
  (sh, Sb_shard.Parallel_exec.run_trace ~burst sh trace, store)

(* Per-NF state merged across shards: each NF's digest lines concatenated,
   sorted, deduplicated.  Per-flow lines are unique per tuple (each flow
   is owned by exactly one shard), so dedup only collapses the
   shard-replicated non-flow lines (maglev's [alive=[...]]) that every
   replica agrees on once global state merges. *)
let merged_digests chains =
  match chains with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun idx nf ->
          let lines =
            List.concat_map
              (fun chain ->
                let nf = List.nth (Speedybox.Chain.nfs chain) idx in
                match nf.Speedybox.Nf.state_digest () with
                | "" -> []
                | d -> String.split_on_char '\n' d)
              chains
          in
          (nf.Speedybox.Nf.name, List.sort_uniq String.compare lines))
        (Speedybox.Chain.nfs first)

(* The "state cells / global state" report section, which must diff clean
   between [run_summary] over one runtime and over a plan's shards.  The
   sharded report's executor-specific "state merge: N rounds" line sits
   outside it. *)
let state_section summary =
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"  state cells:" l then keep (l :: rest) else skip rest
  and keep = function
    | [] -> []
    | l :: _ when String.starts_with ~prefix:"  state merge:" l -> []
    | l :: rest -> l :: keep rest
  in
  let lines = skip (String.split_on_char '\n' summary) in
  String.concat "\n" (List.filter (fun l -> l <> "") lines)

let check_match ~label ~shards (rt_u, (res_u : Runtime.run_result), store_u)
    (sh, (res_s : Runtime.run_result), store_s) =
  Alcotest.(check int) (label ^ ": packets") res_u.packets res_s.packets;
  Alcotest.(check int) (label ^ ": forwarded") res_u.forwarded res_s.forwarded;
  Alcotest.(check int) (label ^ ": dropped") res_u.dropped res_s.dropped;
  let rts = List.init shards (Sharded.runtime sh) in
  Alcotest.(check bool)
    (label ^ ": merged NF digests") true
    (merged_digests [ Runtime.chain rt_u ]
    = merged_digests (List.map Runtime.chain rts));
  if Store.merged_values store_u <> Store.merged_values store_s then
    Alcotest.failf "%s: merged global state diverges" label;
  let section_u = state_section (Report.run_summary [ rt_u ] res_u) in
  let section_s = state_section (Report.run_summary rts res_s) in
  Alcotest.(check bool)
    (label ^ ": report has a global state section") true
    (String.length section_u > 0
    && String.length (String.concat "" (String.split_on_char '\n' section_u)) > 0);
  Alcotest.(check string) (label ^ ": report state sections") section_u section_s

(* The flipped regression: the budget crossed only by the cross-shard sum
   now blocks in sharded mode exactly as it does unsharded. *)
let test_cross_shard_budget_fixed () =
  let ((_, res_u, _) as u) = run_unsharded (trace ()) in
  let ((sh, res_s, _) as s) = run_det ~shards:4 (trace ()) in
  (* The workload must actually spread: at least two shards saw packets,
     and no shard alone crossed the budget — only the merged global total
     can have fired the event. *)
  let stats = Sharded.stats sh in
  let busy = List.filter (fun r -> r.Report.packets > 0) stats in
  Alcotest.(check bool) "trace spreads over >= 2 shards" true (List.length busy >= 2);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d alone stays under the budget" r.Report.shard)
        true
        (r.Report.packets < budget))
    stats;
  Alcotest.(check bool) "unsharded run blocks traffic" true (res_u.Runtime.dropped > 0);
  Alcotest.(check bool) "sharded run blocks traffic" true (res_s.Runtime.dropped > 0);
  check_match ~label:"budget det-4" ~shards:4 u s;
  (* Every shard replica holds live per-flow entries for its owned flows;
     together they cover the whole flow population. *)
  let entries = List.map (fun r -> r.Report.state_entries) stats in
  Alcotest.(check int) "per-flow entries partition the flows" flows
    (List.fold_left ( + ) 0 entries)

let test_det1_parity () =
  let u = run_unsharded (trace ()) in
  let s = run_det ~shards:1 (trace ()) in
  check_match ~label:"budget det-1" ~shards:1 u s

let test_chain1_det () =
  let u = run_unsharded ~spec:chain1_spec (trace ()) in
  let s = run_det ~spec:chain1_spec ~shards:4 (trace ()) in
  check_match ~label:"chain1 det-4" ~shards:4 u s

(* The Domain-parallel executor relaxes mid-run global reads to
   locally-consistent lower bounds, but every per-flow verdict in this
   chain is flow-local (each flow lives on one shard), and the post-join
   merge round makes the final merged global state exact — so the whole
   differential still holds. *)
let test_chain1_par () =
  let u = run_unsharded ~spec:chain1_spec (trace ()) in
  let s = run_par ~spec:chain1_spec ~shards:4 (trace ()) in
  check_match ~label:"chain1 par-4" ~shards:4 u s

let test_impaired_det () =
  let spec = get (Sb_impair.Impair.parse_spec "reorder:0.08,dup:0.03,loss:0.05") in
  let impaired, summary = Sb_impair.Impair.apply ~seed:5 spec (trace ()) in
  Alcotest.(check bool)
    "impairment touched the trace" true
    (summary.Sb_impair.Impair.reordered > 0
    || summary.Sb_impair.Impair.duplicated > 0
    || summary.Sb_impair.Impair.lost > 0);
  let u = run_unsharded ~spec:monitor_dos_spec impaired in
  let s = run_det ~spec:monitor_dos_spec ~shards:4 impaired in
  check_match ~label:"impaired det-4" ~shards:4 u s

(* Live migration: drain shard 0 mid-run.  The scope-aware transplant
   moves each migrating flow's per-flow store entries to the destination
   replica, and per-shard/global contributions stay put (PN-counters
   balance across shards) — so the post-migration run still matches the
   unsharded reference bit for bit. *)
let test_migration_det () =
  let full = trace () in
  let n = List.length full in
  let first = List.filteri (fun i _ -> i < n / 2) full in
  let second = List.filteri (fun i _ -> i >= n / 2) full in
  let store_u = Store.create ~shards:1 () in
  let rt_u =
    Runtime.create
      (Runtime.config ~state:store_u ())
      (build_for ~store:store_u monitor_dos_spec 0)
  in
  let res_u1 = Runtime.run_trace ~burst rt_u first in
  let res_u2 = Runtime.run_trace ~burst rt_u second in
  let sh, store_s = make_sharded ~spec:monitor_dos_spec ~shards:4 () in
  let res_s1 = Sharded.run_trace ~burst sh first in
  let moved = Sharded.drain_shard sh ~from:0 ~dest:1 in
  Alcotest.(check bool) "drain moved flows off shard 0" true (moved > 0);
  let res_s2 = Sharded.run_trace ~burst sh second in
  let open Runtime in
  Alcotest.(check int) "migration: forwarded" (res_u1.forwarded + res_u2.forwarded)
    (res_s1.forwarded + res_s2.forwarded);
  Alcotest.(check int) "migration: dropped" (res_u1.dropped + res_u2.dropped)
    (res_s1.dropped + res_s2.dropped);
  let rts = List.init 4 (Sharded.runtime sh) in
  Alcotest.(check bool)
    "migration: merged NF digests" true
    (merged_digests [ Runtime.chain rt_u ]
    = merged_digests (List.map Runtime.chain rts));
  if Store.merged_values store_u <> Store.merged_values store_s then
    Alcotest.fail "migration: merged global state diverges";
  (* The drained shard's replica no longer holds the transplanted
     per-flow entries; the flow population is conserved across replicas. *)
  (* Two per-flow cells in this chain (monitor.flows, dosguard.flows). *)
  let entries = List.map (fun r -> r.Report.state_entries) (Sharded.stats sh) in
  Alcotest.(check int) "migration: entries conserved" (2 * flows)
    (List.fold_left ( + ) 0 entries)

let backends = List.init 4 (fun i -> (Printf.sprintf "b%d" i, Ipv4_addr.of_octets 10 0 9 (i + 1)))

(* Backend fault differential: maglev's backend health is a global-scope
   LWW register and its connection counts are PN-counters.  Failing and
   restoring a backend mid-run (the control plane hits every instance,
   like fail events broadcast) must leave merged health, per-backend
   connection counts, and per-flow assignments identical to unsharded. *)
let test_maglev_fault_det () =
  let shards = 4 in
  let full = trace () in
  let n = List.length full in
  let first = List.filteri (fun i _ -> i < n / 2) full in
  let second = List.filteri (fun i _ -> i >= n / 2) full in
  let chain_of mag = Speedybox.Chain.create ~name:"maglev-fault" [ Sb_nf.Maglev.nf mag ] in
  let store_u = Store.create ~shards:1 () in
  let mag_u = Sb_nf.Maglev.create ~name:"maglev" ~cells:(Store.replica store_u 0) ~backends () in
  let rt_u = Runtime.create (Runtime.config ~state:store_u ()) (chain_of mag_u) in
  let store_s = Store.create ~shards () in
  let mags =
    Array.init shards (fun i ->
        Sb_nf.Maglev.create ~name:"maglev" ~cells:(Store.replica store_s i) ~backends ())
  in
  let sh =
    Sharded.create ~shards (Runtime.config ~state:store_s ()) (fun i -> chain_of mags.(i))
  in
  ignore (Runtime.run_trace ~burst rt_u first);
  ignore (Sharded.run_trace ~burst sh first);
  Sb_nf.Maglev.fail_backend mag_u "b0";
  Array.iter (fun m -> Sb_nf.Maglev.fail_backend m "b0") mags;
  ignore (Runtime.run_trace ~burst rt_u second);
  ignore (Sharded.run_trace ~burst sh second);
  Alcotest.(check bool) "b0 reported dead (unsharded)" false
    (Sb_nf.Maglev.backend_health mag_u "b0");
  Alcotest.(check bool) "b0 reported dead (merged)" false
    (Sb_nf.Maglev.backend_health mags.(2) "b0");
  List.iter
    (fun (bname, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "backend %s health matches" bname)
        (Sb_nf.Maglev.backend_health mag_u bname)
        (Sb_nf.Maglev.backend_health mags.(0) bname);
      Alcotest.(check int)
        (Printf.sprintf "backend %s conns match" bname)
        (Sb_nf.Maglev.backend_conns mag_u bname)
        (Sb_nf.Maglev.backend_conns mags.(1) bname))
    backends;
  (* No flow may still be pinned to the dead backend on either side. *)
  Alcotest.(check int) "no merged conns on the dead backend" 0
    (Sb_nf.Maglev.backend_conns mags.(0) "b0");
  let rts = List.init shards (Sharded.runtime sh) in
  Alcotest.(check bool)
    "fault: merged NF digests" true
    (merged_digests [ Runtime.chain rt_u ]
    = merged_digests (List.map Runtime.chain rts));
  if Store.merged_values store_u <> Store.merged_values store_s then
    Alcotest.fail "fault: merged global state diverges";
  (* Restore propagates the same way. *)
  Sb_nf.Maglev.restore_backend mag_u "b0";
  Array.iter (fun m -> Sb_nf.Maglev.restore_backend m "b0") mags;
  Alcotest.(check bool) "b0 restored (merged)" true (Sb_nf.Maglev.backend_health mags.(3) "b0")

(* A global cell's write made between runs, on a shard the next run sends
   no packet to, is published by that run's opening merge, before its
   first packet. *)
let test_merge_between_runs () =
  let sh, store = make_sharded ~spec:"monitor" ~shards:2 () in
  let cell =
    Array.init 2 (fun i ->
        Store.global (Store.replica store i) ~name:"test.writes" Sb_state.Kind.G_counter)
  in
  let flow =
    List.init 64 (fun i -> 41000 + i)
    |> List.find_map (fun sport ->
           let f = Test_util.tcp_flow ~sport ~fin:false 3 in
           if List.for_all (fun p -> Sharded.shard_of_packet sh p = 0) f then Some f else None)
    |> Option.get
  in
  ignore (Sharded.run_trace ~burst sh flow);
  Store.add cell.(1) 10;
  let seen = ref [] in
  ignore
    (Sharded.run_trace ~burst sh flow ~on_output:(fun _ _ ->
         seen := Store.read_merged cell.(0) :: !seen));
  Alcotest.(check (list int)) "every packet of the next run sees the write made between runs"
    (List.map (fun _ -> 10) flow) !seen

(* A chain that declares store cells over a store sized for a different
   shard count is a deployment bug; Sharded.create must refuse it. *)
let test_store_size_mismatch () =
  let store = Store.create ~shards:2 () in
  let build = build_for ~store dos_spec in
  match Sharded.create ~shards:4 (Runtime.config ~state:store ()) build with
  | _ -> Alcotest.fail "Sharded.create accepted a 2-replica store for 4 shards"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "cross-shard DoS budget blocks exactly like unsharded" `Quick
      test_cross_shard_budget_fixed;
    Alcotest.test_case "det-1 sharded matches unsharded" `Quick test_det1_parity;
    Alcotest.test_case "chain1 (3 store NFs) det-4 differential" `Quick test_chain1_det;
    Alcotest.test_case "chain1 (3 store NFs) par-4 differential" `Quick test_chain1_par;
    Alcotest.test_case "impaired trace det-4 differential" `Quick test_impaired_det;
    Alcotest.test_case "mid-run drain keeps state exact (transplant)" `Quick test_migration_det;
    Alcotest.test_case "maglev backend fault: merged health/conns exact" `Quick
      test_maglev_fault_det;
    Alcotest.test_case "between-run writes merge before the next run" `Quick
      test_merge_between_runs;
    Alcotest.test_case "store sized for wrong shard count is refused" `Quick
      test_store_size_mismatch;
  ]
