(* Differential suite for consolidation: [Global_mat.consolidate] (one pass
   over the Local MAT records) against the list-staged consolidation it
   replaced ([Consolidate_oracle]).

   After traffic has recorded, consolidated, fired events and evicted
   rules, every installed rule is re-derived by the oracle from the same
   Local MAT records and the two programs are compared instruction by
   instruction: transforms with [Consolidate.equal] plus their cost and
   [incr_ok] flag, waves by width and by the physical identity of each
   batch's state functions.  The rule's derived views — source action
   count, static head, transform count, batches, plan, printed form and
   position-insensitive merge — must match the oracle's too.  Random
   Local MAT records then cover encap/decap/drop mixes the registry
   chains never record, including decap/encap mismatches. *)
open Sb_mat

let policies =
  [
    ("table-one", Parallel.Table_one);
    ("sequential", Parallel.Sequential);
    ("always-parallel", Parallel.Always_parallel);
  ]

let same_batch (a : State_function.Batch.t) (b : State_function.Batch.t) =
  String.equal a.State_function.Batch.nf b.State_function.Batch.nf
  && State_function.Batch.mode a = State_function.Batch.mode b
  && List.length a.State_function.Batch.fns = List.length b.State_function.Batch.fns
  && List.for_all2 ( == ) a.State_function.Batch.fns b.State_function.Batch.fns

let same_batches a b = List.length a = List.length b && List.for_all2 same_batch a b

let step_diff i (got : Global_mat.cstep) (want : Global_mat.cstep) =
  match (got, want) with
  | C_transform g, C_transform w ->
      if not (Consolidate.equal g.c w.c) then
        Some
          (Format.asprintf "step %d: transform %a, oracle %a" i Consolidate.pp g.c
             Consolidate.pp w.c)
      else if g.cost <> w.cost then
        Some (Printf.sprintf "step %d: cost %d, oracle %d" i g.cost w.cost)
      else if g.incr_ok <> w.incr_ok then Some (Printf.sprintf "step %d: incr_ok differs" i)
      else None
  | C_wave g, C_wave w ->
      if same_batches (Array.to_list g) (Array.to_list w) then None
      else
        Some
          (Printf.sprintf "step %d: wave of %d batches, oracle %d" i (Array.length g)
             (Array.length w))
  | C_transform _, C_wave _ | C_wave _, C_transform _ ->
      Some (Printf.sprintf "step %d: transform/wave kind differs" i)

(* Every way [rule] disagrees with the oracle's consolidation of the same
   records. *)
let rule_diffs policy fid locals rule =
  let want = Consolidate_oracle.consolidate policy fid locals in
  let code = Global_mat.rule_code rule in
  let diffs = ref [] in
  let differ msg = diffs := msg :: !diffs in
  if Array.length code <> Array.length want.code then
    differ (Printf.sprintf "%d steps, oracle %d" (Array.length code) (Array.length want.code))
  else Array.iteri (fun i s -> Option.iter differ (step_diff i s want.code.(i))) code;
  if Global_mat.rule_static_head rule <> want.static_head then differ "static_head";
  if Global_mat.rule_transform_count rule <> want.transforms then differ "transform count";
  if not (Consolidate.equal (Global_mat.rule_action rule) want.overall) then differ "rule_action";
  if not (same_batches (Global_mat.rule_batches rule) (Consolidate_oracle.batches want)) then
    differ "rule_batches";
  if Global_mat.rule_plan rule <> Consolidate_oracle.plan want then differ "rule_plan";
  let printed = Format.asprintf "%a" Global_mat.pp_rule rule in
  let want_printed = Format.asprintf "%a" Consolidate_oracle.pp want in
  if printed <> want_printed then
    differ (Printf.sprintf "pp_rule %S, oracle %S" printed want_printed);
  List.rev !diffs

(* Checks every installed rule; returns how many there were. *)
let check_table label policy rt =
  let locals = Speedybox.Chain.local_mats (Speedybox.Runtime.chain rt) in
  let gm = Speedybox.Runtime.global_mat rt in
  Global_mat.fold
    (fun fid rule n ->
      (match rule_diffs policy fid locals rule with
      | [] -> ()
      | diffs ->
          Alcotest.failf "%s, fid %d: %s" label fid (String.concat "; " diffs));
      n + 1)
    gm 0

let dcn_trace ?(n_flows = 40) seed =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed;
      n_flows;
      mean_flow_packets = 8.;
      payload_len = (16, 128);
      udp_fraction = 0.2;
      malicious_fraction = 0.1;
      tokens = [ "attack" ];
    }

let build spec =
  match Sb_experiments.Chain_registry.build spec with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

(* Replays [trace] through [rt], checking the whole table every [every]
   packets and at the end; returns the largest table checked. *)
let replay_checked ?(every = 32) label policy rt trace =
  let most = ref 0 in
  List.iteri
    (fun i p ->
      ignore (Speedybox.Runtime.process_packet rt p);
      if (i + 1) mod every = 0 then most := max !most (check_table label policy rt))
    trace;
  max !most (check_table label policy rt)

(* Every registry chain, plus chains whose records carry drops (an ACL
   deny, a DoS guard whose event rewrites a flow to drop), under all three
   parallelism policies. *)
let chain_specs =
  List.map fst (Sb_experiments.Chain_registry.registry ())
  @ [ "ipfilter:80,monitor"; "mazunat,dosguard:4,monitor"; "monitor,snort,maglev,monitor" ]

let runtime ?max_rules ?idle_timeout_cycles policy chain =
  Speedybox.Runtime.create
    (Speedybox.Runtime.config ~policy ?max_rules ?idle_timeout_cycles ())
    chain

let test_dcn () =
  List.iter
    (fun spec ->
      List.iter
        (fun (pname, policy) ->
          let label = Printf.sprintf "%s/%s" spec pname in
          let rt = runtime policy (build spec) in
          let rules = replay_checked label policy rt (dcn_trace 7) in
          if rules = 0 then Alcotest.failf "%s: no rule was checked" label)
        policies)
    chain_specs

(* Rule-table churn: a small cap recycles rule records through the spare
   list and idle expiry tears flows down between checks. *)
let test_eviction_and_expiry () =
  List.iter
    (fun spec ->
      let trace = dcn_trace ~n_flows:80 11 in
      List.iteri (fun i p -> p.Sb_packet.Packet.ingress_cycle <- i * 400) trace;
      let rt = runtime ~max_rules:12 ~idle_timeout_cycles:20_000 Parallel.Table_one (build spec) in
      ignore (replay_checked ~every:8 spec Parallel.Table_one rt trace);
      if Global_mat.evictions (Speedybox.Runtime.global_mat rt) = 0 then
        Alcotest.failf "%s: the cap never evicted" spec)
    [ "chain1"; "edge"; "vpn" ]

let test_impaired () =
  let spec =
    match
      Sb_impair.Impair.parse_spec "reorder:0.05,dup:0.02,loss:0.02,corrupt:0.05,retrans:0.2"
    with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun chain ->
      let trace, _ = Sb_impair.Impair.apply ~seed:5 spec (dcn_trace 13) in
      let rt = runtime Parallel.Table_one (build chain) in
      ignore (replay_checked (chain ^ "/impaired") Parallel.Table_one rt trace))
    [ "chain1"; "chain2"; "edge"; "vpn"; "mazunat,dosguard:4,monitor" ]

(* Maglev backend failure and restore: the Event Table rewrites recorded
   actions (a new DIP, then a drop with every backend dead, then a forward
   again) and each firing reconsolidates in place. *)
let test_maglev_events () =
  let backends =
    List.init 4 (fun i -> (Printf.sprintf "b%d" i, Sb_packet.Ipv4_addr.of_octets 10 0 9 (i + 1)))
  in
  let mag = Sb_nf.Maglev.create ~name:"maglev" ~backends () in
  let chain =
    Speedybox.Chain.create ~name:"maglev-events"
      [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ~name:"monitor" ()); Sb_nf.Maglev.nf mag ]
  in
  let policy = Parallel.Table_one in
  let rt = runtime policy chain in
  (* One long pass split into phases, so established flows' next packets
     meet each membership change on the fast path. *)
  let trace = Array.of_list (dcn_trace ~n_flows:24 17) in
  let phase k =
    let n = Array.length trace in
    Array.to_list (Array.sub trace (k * n / 4) (((k + 1) * n / 4) - (k * n / 4)))
  in
  let check label = ignore (replay_checked label policy rt []) in
  ignore (replay_checked "maglev/all alive" policy rt (phase 0));
  Sb_nf.Maglev.fail_backend mag "b0";
  ignore (replay_checked "maglev/b0 dead" policy rt (phase 1));
  List.iter (Sb_nf.Maglev.fail_backend mag) [ "b1"; "b2"; "b3" ];
  ignore (replay_checked "maglev/all dead" policy rt (phase 2));
  check "maglev/all dead, end";
  List.iter (Sb_nf.Maglev.restore_backend mag) [ "b0"; "b2" ];
  ignore (replay_checked "maglev/restored" policy rt (phase 3));
  let gm = Speedybox.Runtime.global_mat rt in
  if Global_mat.consolidation_count gm <= Global_mat.flow_count gm then
    Alcotest.fail "no event-driven reconsolidation happened"

(* ---- Random Local MAT records ---- *)

let ah spi = Sb_packet.Encap_header.Auth { spi = Int32.of_int spi; seq = 0l }

let gen_action =
  let open QCheck.Gen in
  let field_value =
    oneofl
      Sb_packet.
        [
          (Field.Src_ip, Field.Ip (Ipv4_addr.of_string "10.9.9.1"));
          (Field.Dst_ip, Field.Ip (Ipv4_addr.of_string "192.168.1.77"));
          (Field.Dst_ip, Field.Ip (Ipv4_addr.of_string "192.168.1.78"));
          (Field.Src_port, Field.Port 1111);
          (Field.Dst_port, Field.Port 2222);
          (Field.Ttl, Field.Int 17);
          (Field.Tos, Field.Int 0x10);
        ]
  in
  frequency
    [
      (4, return Header_action.Forward);
      (1, return Header_action.Drop);
      (3, map (fun fvs -> Header_action.Modify fvs) (list_size (int_range 0 3) field_value));
      (2, map (fun spi -> Header_action.Encap (ah spi)) (int_range 0 2));
      (2, map (fun spi -> Header_action.Decap (ah spi)) (int_range 0 2));
    ]

let gen_mode = QCheck.Gen.oneofl State_function.[ Ignore; Read; Write ]

(* Per NF: its recorded actions and the modes of its state functions;
   [None] for an NF that holds no record for the flow. *)
let gen_records =
  let open QCheck.Gen in
  list_size (int_range 1 5)
    (opt ~ratio:0.85
       (pair (list_size (int_range 0 4) gen_action) (list_size (int_range 0 2) gen_mode)))

let print_records records =
  String.concat " | "
    (List.map
       (function
         | None -> "-"
         | Some (actions, modes) ->
             Printf.sprintf "[%s] {%s}"
               (String.concat "; " (List.map (Format.asprintf "%a" Header_action.pp) actions))
               (String.concat ";" (List.map (Format.asprintf "%a" State_function.pp_mode) modes)))
       records)

let arbitrary_records = QCheck.make gen_records ~print:print_records

let fid = 1

(* Each record's state functions, made once: tables filled from the same
   records then share every function physically, as the comparison wants. *)
let with_functions records =
  List.mapi
    (fun i record ->
      let nf = Printf.sprintf "nf%d" i in
      Option.map
        (fun (actions, modes) ->
          ( actions,
            List.mapi
              (fun k mode ->
                State_function.make ~nf ~label:(Printf.sprintf "%s.sf%d" nf k) ~mode (fun _ -> k))
              modes ))
        record)
    records

(* One Local MAT per record, over one table, as a chain builds them. *)
let locals_of records =
  let locals = Local_mat.chain (List.mapi (fun i _ -> Printf.sprintf "nf%d" i) records) in
  List.iter2
    (fun local record ->
      Option.iter
        (fun (actions, sfs) ->
          (* [replace_actions] creates the record even when both lists are
             empty. *)
          Local_mat.replace_actions local fid actions;
          List.iter (Local_mat.add_state_function local fid) sfs)
        record)
    locals records;
  locals

(* Each Global MAT keeps its rules in a table of its own, built from
   [records], so comparing policies never shares a flow's slot. *)
let consolidated policy records =
  let locals = locals_of records in
  let gm = Global_mat.create ~policy (Local_mat.table (List.hd locals)) in
  match Global_mat.consolidate gm fid locals with
  | _ -> Ok (Option.get (Global_mat.find gm fid))
  | exception Invalid_argument msg -> Error msg

let prop_rule_action =
  QCheck.Test.make ~count:1000 ~name:"rule_action = of_actions over the source actions"
    arbitrary_records (fun records ->
      let records = with_functions records in
      let locals = locals_of records in
      let actions = Consolidate_oracle.source_actions fid locals in
      match (Consolidate.of_actions actions, consolidated Parallel.Table_one records) with
      | want, Ok rule -> Consolidate.equal (Global_mat.rule_action rule) want
      | _, Error msg -> QCheck.Test.fail_reportf "consolidate raised %s" msg
      | exception Invalid_argument _ -> (
          match consolidated Parallel.Table_one records with
          | Error _ -> true
          | Ok _ -> QCheck.Test.fail_report "of_actions raises, consolidate did not"))

let prop_program =
  QCheck.Test.make ~count:1000 ~name:"single pass = list-staged oracle on random records"
    arbitrary_records (fun records ->
      let records = with_functions records in
      let locals = locals_of records in
      List.for_all
        (fun (pname, policy) ->
          match
            (Consolidate_oracle.consolidate policy fid locals, consolidated policy records)
          with
          | _, Error msg -> QCheck.Test.fail_reportf "%s: consolidate raised %s" pname msg
          | _, Ok rule -> (
              match rule_diffs policy fid locals rule with
              | [] -> true
              | diffs -> QCheck.Test.fail_reportf "%s: %s" pname (String.concat "; " diffs))
          | exception Invalid_argument _ -> (
              match consolidated policy records with
              | Error _ -> true
              | Ok _ ->
                  QCheck.Test.fail_reportf "%s: the oracle raises, consolidate did not" pname))
        policies)

let test_mismatch_raises () =
  let mismatched =
    with_functions
      [
        Some ([ Header_action.Encap (ah 1) ], [ State_function.Read ]);
        Some ([ Header_action.Decap (ah 2) ], []);
      ]
  in
  (match consolidated Parallel.Table_one mismatched with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a decap of another header than the pending encap consolidated");
  let matching =
    with_functions
      [
        Some ([ Header_action.Encap (ah 1) ], [ State_function.Read ]);
        Some ([ Header_action.Decap (ah 1) ], []);
      ]
  in
  match consolidated Parallel.Table_one matching with
  | Ok rule ->
      Alcotest.(check bool)
        "an encap and its decap across a wave cancel in rule_action" true
        (Consolidate.equal (Global_mat.rule_action rule) Consolidate.forward);
      Alcotest.(check int) "but both transforms stay in the program" 2
        (Global_mat.rule_transform_count rule)
  | Error msg -> Alcotest.failf "matching decap raised %s" msg

let suite =
  [
    Alcotest.test_case "registry chains on DCN traffic" `Quick test_dcn;
    Alcotest.test_case "eviction and idle expiry" `Quick test_eviction_and_expiry;
    Alcotest.test_case "impaired traffic" `Quick test_impaired;
    Alcotest.test_case "maglev fail/restore recompiles" `Quick test_maglev_events;
    Alcotest.test_case "decap/encap mismatch raises" `Quick test_mismatch_raises;
  ]
  @ Test_util.qcheck_cases [ prop_rule_action; prop_program ]
