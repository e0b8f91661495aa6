(* Tests for state functions, the Table I parallelism analysis, Local MATs,
   the Event Table and the Global MAT. *)
open Sb_mat

let sf ?(nf = "nf") ?(label = "sf") ?(mode = State_function.Ignore) ?(cost = 10) () =
  State_function.make ~nf ~label ~mode (fun _ -> cost)

let counting_sf ?(nf = "nf") ?(mode = State_function.Ignore) counter =
  State_function.make ~nf ~label:"count" ~mode (fun _ ->
      incr counter;
      10)

(* --- state functions --------------------------------------------------- *)

let test_batch_mode_priority () =
  let batch modes =
    State_function.Batch.make ~nf:"x" (List.map (fun mode -> sf ~mode ()) modes)
  in
  Alcotest.(check bool) "write dominates" true
    (State_function.Batch.mode
       (batch [ State_function.Read; State_function.Write; State_function.Ignore ])
    = State_function.Write);
  Alcotest.(check bool) "read over ignore" true
    (State_function.Batch.mode (batch [ State_function.Ignore; State_function.Read ])
    = State_function.Read);
  Alcotest.(check bool) "empty batch ignores" true
    (State_function.Batch.mode (batch []) = State_function.Ignore)

let test_batch_run_order_and_cost () =
  let order = ref [] in
  let mk label =
    State_function.make ~nf:"x" ~label ~mode:State_function.Ignore (fun _ ->
        order := label :: !order;
        100)
  in
  let batch = State_function.Batch.make ~nf:"x" [ mk "a"; mk "b"; mk "c" ] in
  let p = Test_util.tcp_packet () in
  let cycles = State_function.Batch.run batch p in
  Alcotest.(check (list string)) "runs in order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "cost includes dispatch" (3 * (100 + Sb_sim.Cycles.sf_invoke)) cycles

(* --- Table I ----------------------------------------------------------- *)

let test_compatibility_matrix () =
  let open State_function in
  let cases =
    [
      (Write, Write, false);
      (Write, Read, false);
      (Write, Ignore, true);
      (Read, Write, false);
      (Read, Read, true);
      (Read, Ignore, true);
      (Ignore, Write, true);
      (Ignore, Read, true);
      (Ignore, Ignore, true);
    ]
  in
  List.iter
    (fun (m1, m2, expected) ->
      Alcotest.(check bool)
        (Format.asprintf "%a || %a" pp_mode m1 pp_mode m2)
        expected (Parallel.compatible m1 m2))
    cases

let test_plan_policies () =
  let open State_function in
  let modes = [ Read; Read; Write; Ignore; Read ] in
  Alcotest.(check (list (list int))) "sequential = singleton waves"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    (Parallel.plan Parallel.Sequential modes);
  Alcotest.(check (list (list int))) "always-parallel = one wave"
    [ [ 0; 1; 2; 3; 4 ] ]
    (Parallel.plan Parallel.Always_parallel modes);
  (* Table I: the two READs share a wave; WRITE may join only IGNOREs, so
     it starts a wave and the following IGNORE joins it; the final READ
     conflicts with that WRITE and starts its own wave. *)
  Alcotest.(check (list (list int))) "table-I grouping"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Parallel.plan Parallel.Table_one modes);
  Alcotest.(check (list (list int))) "empty plan" [] (Parallel.plan Parallel.Table_one []);
  Alcotest.(check (list (list int))) "all-ignore fuses"
    [ [ 0; 1; 2 ] ]
    (Parallel.plan Parallel.Table_one [ Ignore; Ignore; Ignore ])

let prop_plan_partitions =
  let open QCheck in
  let mode_gen =
    Gen.oneofl [ State_function.Write; State_function.Read; State_function.Ignore ]
  in
  Test.make ~count:300 ~name:"table-I plan partitions indices in order and soundly"
    (make (Gen.list_size (Gen.int_range 0 12) mode_gen))
    (fun modes ->
      let plan = Parallel.plan Parallel.Table_one modes in
      let flat = List.concat plan in
      flat = List.init (List.length modes) Fun.id
      && List.for_all
           (fun wave ->
             (* Every pair inside a wave must be compatible. *)
             List.for_all
               (fun i ->
                 List.for_all
                   (fun j ->
                     i = j
                     || Parallel.compatible (List.nth modes i) (List.nth modes j))
                   wave)
               wave)
           plan)

(* --- Local MAT --------------------------------------------------------- *)

let test_local_mat_recording () =
  let mat = Local_mat.create ~nf:"nat" in
  Alcotest.(check string) "name" "nat" (Local_mat.nf_name mat);
  Alcotest.(check bool) "empty" true (Local_mat.find mat 1 = None);
  Local_mat.add_header_action mat 1 Header_action.Forward;
  Local_mat.add_header_action mat 1 Header_action.Drop;
  Local_mat.add_state_function mat 1 (sf ~label:"a" ());
  Local_mat.add_state_function mat 1 (sf ~label:"b" ());
  let rule = Option.get (Local_mat.find mat 1) in
  Alcotest.(check int) "two actions" 2 (List.length (Local_mat.rule_actions rule));
  Alcotest.(check bool) "action order kept" true
    (Header_action.equal (List.hd (Local_mat.rule_actions rule)) Header_action.Forward);
  Alcotest.(check (list string)) "sf order kept" [ "a"; "b" ]
    (List.map
       (fun (s : State_function.t) -> s.State_function.label)
       (Local_mat.rule_state_functions rule));
  Local_mat.replace_actions mat 1 [ Header_action.Drop ];
  let rule = Option.get (Local_mat.find mat 1) in
  Alcotest.(check int) "replace swaps actions" 1 (List.length (Local_mat.rule_actions rule));
  Local_mat.replace_state_functions mat 1 [];
  let rule = Option.get (Local_mat.find mat 1) in
  Alcotest.(check int) "replace clears sfs" 0
    (List.length (Local_mat.rule_state_functions rule));
  Local_mat.remove_flow mat 1;
  Alcotest.(check bool) "removed" false (Local_mat.mem mat 1);
  Local_mat.add_header_action mat 2 Header_action.Forward;
  Local_mat.clear mat;
  Alcotest.(check int) "cleared" 0 (Local_mat.flow_count mat)

(* --- Event Table ------------------------------------------------------- *)

(* A consolidation takes the flow's in-flight events; the fast path then
   polls the list. *)
let fire events evs =
  ignore (Event_table.poll events evs);
  Event_table.last_fired events

let test_event_registration_and_fire () =
  let events = Event_table.create () in
  let armed = ref false in
  Event_table.register events ~fid:7
    ~condition:(fun () -> !armed)
    (Event_table.update ~nf:"lb" ~new_actions:(fun () -> [ Header_action.Drop ]) ());
  Alcotest.(check int) "armed count" 1 (Event_table.armed_count events 7);
  Alcotest.(check int) "other flows unaffected" 0 (Event_table.armed_count events 8);
  let evs = Event_table.take events 7 in
  Alcotest.(check int) "taken out of the table" 0 (Event_table.armed_count events 7);
  Alcotest.(check int) "condition false: no fire" 0 (List.length (fire events evs));
  armed := true;
  let fired = fire events evs in
  Alcotest.(check int) "fires once armed" 1 (List.length fired);
  Alcotest.(check string) "update names the NF" "lb" (List.hd fired).Event_table.nf;
  Alcotest.(check int) "one-shot disarms" 0 (Event_table.armed evs);
  Alcotest.(check int) "no refire" 0 (List.length (fire events evs))

let test_recurring_event () =
  let events = Event_table.create () in
  let hot = ref true in
  Event_table.register events ~fid:1
    ~condition:(fun () -> !hot)
    (Event_table.update ~nf:"x" ~one_shot:false ());
  let evs = Event_table.take events 1 in
  Alcotest.(check int) "fires" 1 (List.length (fire events evs));
  Alcotest.(check int) "still armed" 1 (Event_table.armed evs);
  hot := false;
  Alcotest.(check int) "quiet when condition false" 0 (List.length (fire events evs));
  hot := true;
  Alcotest.(check int) "re-fires" 1 (List.length (fire events evs));
  Alcotest.(check int) "per-packet: every poll evaluates" 3 (Event_table.evaluations events);
  Event_table.register events ~fid:1 ~condition:(fun () -> true) (Event_table.update ~nf:"x" ());
  Event_table.remove_flow events 1;
  Alcotest.(check int) "flow removal disarms" 0 (Event_table.armed_count events 1);
  Alcotest.(check int) "total armed" 0 (Event_table.total_armed events)

let test_event_order () =
  let events = Event_table.create () in
  Event_table.register events ~fid:1 ~condition:(fun () -> true)
    (Event_table.update ~nf:"first" ());
  Event_table.register events ~fid:1 ~condition:(fun () -> true)
    (Event_table.update ~nf:"second" ());
  let fired = fire events (Event_table.take events 1) in
  Alcotest.(check (list string)) "registration order" [ "first"; "second" ]
    (List.map (fun (u : Event_table.update) -> u.Event_table.nf) fired)

(* An [Epoch] condition found false is skipped until its epoch moves; a
   recurring one that fired is due again.  So a write that does not bump
   the epoch stays unseen: the declaring NF must bump on every write that
   could make the condition true. *)
let test_epoch_trigger () =
  let events = Event_table.create () in
  let epoch = Event_table.epoch () in
  let hot = ref false and calls = ref 0 in
  Event_table.register events ~fid:1
    ~condition:(fun () ->
      incr calls;
      !hot)
    (Event_table.update ~nf:"x" ~one_shot:false ~trigger:epoch ());
  let evs = Event_table.take events 1 in
  let poll () =
    let armed = Event_table.poll events evs in
    (armed, List.length (Event_table.last_fired events), !calls)
  in
  let check what expected = Alcotest.(check (triple int int int)) what expected (poll ()) in
  check "fresh: evaluated" (1, 0, 1);
  check "false, epoch still: skipped but armed" (1, 0, 1);
  Alcotest.(check bool) "not due" false (Event_table.is_due (List.hd evs));
  hot := true;
  check "unbumped write: unseen" (1, 0, 1);
  Event_table.bump epoch;
  check "bumped: evaluated, fires" (1, 1, 2);
  check "fired: due again" (1, 1, 3);
  hot := false;
  check "false again" (1, 0, 4);
  check "skipped" (1, 0, 4);
  Alcotest.(check int) "evaluations counted" 4 (Event_table.evaluations events)

(* Walks interleave in the staged executor: another flow's registration
   parks the slot's events, and each flow takes back exactly its own. *)
let test_interleaved_walks () =
  let events = Event_table.create () in
  let reg fid nf = Event_table.register events ~fid ~condition:(fun () -> true) (Event_table.update ~nf ()) in
  reg 1 "a";
  reg 2 "b";
  reg 1 "c";
  reg 3 "d";
  Alcotest.(check int) "all in flight" 4 (Event_table.total_armed events);
  let names fid =
    List.map (fun (u : Event_table.update) -> u.Event_table.nf) (fire events (Event_table.take events fid))
  in
  Alcotest.(check (list string)) "flow 1, in order" [ "a"; "c" ] (names 1);
  Alcotest.(check (list string)) "flow 2" [ "b" ] (names 2);
  Event_table.remove_flow events 3;
  Alcotest.(check (list string)) "flow 3 removed" [] (names 3);
  Alcotest.(check int) "none left" 0 (Event_table.total_armed events)

(* --- Global MAT -------------------------------------------------------- *)

let chain_mats () =
  let a = Local_mat.create ~nf:"a" and b = Local_mat.create ~nf:"b" in
  (a, b, [ a; b ])

let test_consolidation_merges_locals () =
  let a, b, mats = chain_mats () in
  Local_mat.add_header_action a 1
    (Header_action.Modify [ (Sb_packet.Field.Dst_port, Sb_packet.Field.Port 8080) ]);
  Local_mat.add_state_function a 1 (sf ~nf:"a" ~mode:State_function.Read ());
  Local_mat.add_header_action b 1 Header_action.Forward;
  Local_mat.add_state_function b 1 (sf ~nf:"b" ~mode:State_function.Ignore ());
  let global = Global_mat.create () in
  let cost = Global_mat.consolidate global 1 mats in
  Alcotest.(check int) "consolidation cost scales with locals"
    (2 * Sb_sim.Cycles.global_consolidate_per_nf) cost;
  let rule = Option.get (Global_mat.find global 1) in
  Alcotest.(check int) "two batches" 2 (List.length (Global_mat.rule_batches rule));
  Alcotest.(check (list (list int))) "read+ignore fuse into one wave" [ [ 0; 1 ] ]
    (Global_mat.rule_plan rule);
  Alcotest.(check bool) "action merged" false
    (Consolidate.is_drop (Global_mat.rule_action rule));
  Alcotest.(check int) "one consolidation" 1 (Global_mat.consolidation_count global)

let test_drop_rule_keeps_upstream_batches () =
  let a, b, mats = chain_mats () in
  Local_mat.add_header_action a 1 Header_action.Forward;
  Local_mat.add_state_function a 1 (sf ~nf:"a" ());
  Local_mat.add_header_action b 1 Header_action.Drop;
  let global = Global_mat.create () in
  ignore (Global_mat.consolidate global 1 mats);
  let rule = Option.get (Global_mat.find global 1) in
  Alcotest.(check bool) "rule drops" true (Consolidate.is_drop (Global_mat.rule_action rule));
  Alcotest.(check int) "upstream batch retained" 1
    (List.length (Global_mat.rule_batches rule))

let test_execute_runs_batches_and_counts () =
  let a, b, mats = chain_mats () in
  let counter_a = ref 0 and counter_b = ref 0 in
  Local_mat.add_header_action a 1 Header_action.Forward;
  Local_mat.add_state_function a 1 (counting_sf ~nf:"a" counter_a);
  Local_mat.add_header_action b 1 Header_action.Forward;
  Local_mat.add_state_function b 1 (counting_sf ~nf:"b" counter_b);
  let global = Global_mat.create () in
  let events = Event_table.create () in
  ignore (Global_mat.consolidate global 1 mats);
  let p = Test_util.tcp_packet () in
  p.Sb_packet.Packet.fid <- 1;
  let verdict = Option.get (Global_mat.execute global events mats 1 p) in
  Alcotest.(check bool) "forwarded" true (verdict = Header_action.Forwarded);
  Alcotest.(check int) "sf a ran" 1 !counter_a;
  Alcotest.(check int) "sf b ran" 1 !counter_b;
  Alcotest.(check int) "no events" 0 (Global_mat.events_fired global);
  Alcotest.(check bool) "unknown fid yields none" true
    (Global_mat.execute global events mats 99 p = None)

let test_execute_rule_rejects_no_rule () =
  let a, _, mats = chain_mats () in
  Local_mat.add_header_action a 1 Header_action.Forward;
  let global = Global_mat.create () in
  ignore (Global_mat.consolidate global 1 mats);
  let p = Test_util.tcp_packet () in
  Alcotest.(check bool) "lookup misses to the sentinel" true
    (Global_mat.lookup global 99 == Global_mat.no_rule);
  Alcotest.check_raises "sentinel refused"
    (Invalid_argument "Global_mat.execute_rule: no_rule") (fun () ->
      ignore
        (Global_mat.execute_rule global (Event_table.create ()) mats 99 Global_mat.no_rule p))

(* [execute] writes the packet's GlobalMAT stage into the table's cost
   vector: the head, one item per step — [Serial] for a one-batch wave,
   [Parallel] for a two-batch one — and the egress item when forwarded. *)
let test_execute_writes_stage () =
  let a, b, mats = chain_mats () in
  Local_mat.add_header_action a 1 Header_action.Forward;
  Local_mat.add_state_function a 1 (sf ~nf:"a" ());
  Local_mat.add_header_action a 2 Header_action.Forward;
  Local_mat.add_state_function a 2 (sf ~nf:"a" ~mode:State_function.Read ());
  Local_mat.add_state_function b 2 (sf ~nf:"b" ());
  let global = Global_mat.create () in
  let events = Event_table.create () in
  ignore (Global_mat.consolidate global 1 [ a ]);
  ignore (Global_mat.consolidate global 2 mats);
  Alcotest.(check (list (list int))) "flow 2 runs a two-batch wave" [ [ 0; 1 ] ]
    (Global_mat.rule_plan (Option.get (Global_mat.find global 2)));
  let stage fid =
    ignore (Global_mat.execute ~egress:7 global events mats fid (Test_util.tcp_packet ()));
    Format.asprintf "%a" Sb_sim.Cost_profile.pp
      (Sb_sim.Cost_vec.to_profile (Sb_sim.Cost_vec.labels [||]) (Global_mat.costs global))
  in
  let head = Sb_sim.Cycles.(fast_path_lookup + fast_path_per_action + ha_forward) in
  let batch = 10 + Sb_sim.Cycles.sf_invoke in
  Alcotest.(check string) "serial wave"
    (Printf.sprintf "GlobalMAT:%d+%d+7" head batch)
    (stage 1);
  Alcotest.(check string) "repeat writes the same stage" (stage 1) (stage 1);
  Alcotest.(check string) "two-batch wave"
    (Printf.sprintf "GlobalMAT:%d+par[%d,%d]+7" head batch batch)
    (stage 2)

let test_execute_event_rewrites_rule () =
  let a, _, mats = chain_mats () in
  let threshold_hit = ref false in
  Local_mat.add_header_action a 1 Header_action.Forward;
  let global = Global_mat.create () in
  let events = Event_table.create () in
  Event_table.register events ~fid:1
    ~condition:(fun () -> !threshold_hit)
    (Event_table.update ~nf:"a" ~new_actions:(fun () -> [ Header_action.Drop ]) ());
  (* The recording walk's consolidation moves the event into the rule. *)
  ignore (Global_mat.consolidate ~events global 1 mats);
  Alcotest.(check int) "event moved into the rule" 1
    (Event_table.armed (Global_mat.rule_events (Option.get (Global_mat.find global 1))));
  let p = Test_util.tcp_packet () in
  let v1 = Option.get (Global_mat.execute global events mats 1 p) in
  Alcotest.(check bool) "forwards before event" true (v1 = Header_action.Forwarded);
  threshold_hit := true;
  let v2 = Option.get (Global_mat.execute global events mats 1 (Test_util.tcp_packet ())) in
  Alcotest.(check int) "event fired" 1 (Global_mat.events_fired global);
  Alcotest.(check bool) "drops immediately on firing packet" true (v2 = Header_action.Dropped);
  Alcotest.(check int) "re-consolidated" 2 (Global_mat.consolidation_count global);
  let v3 = Option.get (Global_mat.execute global events mats 1 (Test_util.tcp_packet ())) in
  Alcotest.(check bool) "keeps dropping" true (v3 = Header_action.Dropped);
  Alcotest.(check int) "one-shot does not refire" 0 (Global_mat.events_fired global)

let test_wave_snapshot_semantics () =
  (* A WRITE batch and a READ batch forced into one wave (unsound policy):
     the reader must observe the wave-start payload, not the writer's
     output, and the writer's bytes win in the merged packet. *)
  let a, b, mats = chain_mats () in
  let seen_by_reader = ref "" in
  let writer =
    State_function.make ~nf:"a" ~label:"w" ~mode:State_function.Write (fun p ->
        Sb_packet.Packet.blit_payload p "WWWW";
        10)
  in
  let reader =
    State_function.make ~nf:"b" ~label:"r" ~mode:State_function.Read (fun p ->
        seen_by_reader := Sb_packet.Packet.payload p;
        10)
  in
  Local_mat.add_state_function a 1 writer;
  Local_mat.add_state_function b 1 reader;
  let global = Global_mat.create ~policy:Parallel.Always_parallel () in
  let events = Event_table.create () in
  ignore (Global_mat.consolidate global 1 mats);
  let p = Test_util.tcp_packet ~payload:"orig" () in
  ignore (Global_mat.execute global events mats 1 p);
  Alcotest.(check string) "reader saw the snapshot" "orig" !seen_by_reader;
  Alcotest.(check string) "writer's bytes merged back" "WWWW" (Sb_packet.Packet.payload p);
  (* Under Table I the same chain is sequenced, so the reader sees the
     writer's output — the original chain's semantics. *)
  let a2, b2, mats2 = chain_mats () in
  Local_mat.add_state_function a2 1 writer;
  Local_mat.add_state_function b2 1 reader;
  let global2 = Global_mat.create ~policy:Parallel.Table_one () in
  ignore (Global_mat.consolidate global2 1 mats2);
  ignore (Global_mat.execute global2 events mats2 1 (Test_util.tcp_packet ~payload:"orig" ()));
  Alcotest.(check string) "table-I reader sees writer output" "WWWW" !seen_by_reader

let test_global_mat_removal () =
  let a, _, mats = chain_mats () in
  Local_mat.add_header_action a 3 Header_action.Forward;
  let global = Global_mat.create () in
  ignore (Global_mat.consolidate global 3 mats);
  Alcotest.(check bool) "rule present" true (Global_mat.mem global 3);
  Global_mat.remove_flow global 3;
  Alcotest.(check bool) "rule removed" false (Global_mat.mem global 3);
  ignore (Global_mat.consolidate global 4 mats);
  Global_mat.clear global;
  Alcotest.(check int) "cleared" 0 (Global_mat.flow_count global)

(* --- Pooled Local MAT records -------------------------------------------

   Random calls over a 4-bit FID space against a [Hashtbl] of lists: after
   every call the table must read as the model does, so a record that
   [remove_flow] scrubbed and a later flow refilled never shows an earlier
   flow's entries. *)

type pool_op =
  | Add_ha of int * int
  | Add_sf of int * int
  | Replace_ha of int * int list
  | Replace_sf of int * int list
  | Remove of int
  | Clear

let pool_action k =
  match k mod 3 with
  | 0 -> Header_action.Forward
  | 1 -> Header_action.Drop
  | _ -> Header_action.Modify [ (Sb_packet.Field.Dst_port, Sb_packet.Field.Port k) ]

let pool_op_print = function
  | Add_ha (fid, k) -> Printf.sprintf "add_ha %d %d" fid k
  | Add_sf (fid, k) -> Printf.sprintf "add_sf %d %d" fid k
  | Replace_ha (fid, ks) ->
      Printf.sprintf "replace_ha %d [%s]" fid (String.concat ";" (List.map string_of_int ks))
  | Replace_sf (fid, ks) ->
      Printf.sprintf "replace_sf %d [%s]" fid (String.concat ";" (List.map string_of_int ks))
  | Remove fid -> Printf.sprintf "remove %d" fid
  | Clear -> "clear"

let pool_op_gen =
  let open QCheck.Gen in
  let fid = int_bound 15 and k = int_bound 99 in
  let ks = list_size (int_bound 4) k in
  frequency
    [
      (6, map2 (fun f k -> Add_ha (f, k)) fid k);
      (6, map2 (fun f k -> Add_sf (f, k)) fid k);
      (2, map2 (fun f ks -> Replace_ha (f, ks)) fid ks);
      (2, map2 (fun f ks -> Replace_sf (f, ks)) fid ks);
      (4, map (fun f -> Remove f) fid);
      (1, return Clear);
    ]

let prop_pooled_records =
  QCheck.Test.make ~count:300 ~name:"pooled Local MAT records match a list model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pool_op_print ops))
       QCheck.Gen.(list_size (int_range 1 120) pool_op_gen))
    (fun ops ->
      let mat = Local_mat.create ~nf:"nf" in
      let model : (int, Header_action.t list * string list) Hashtbl.t = Hashtbl.create 16 in
      let get fid = Option.value (Hashtbl.find_opt model fid) ~default:([], []) in
      let label k = "sf" ^ string_of_int k in
      let apply = function
        | Add_ha (fid, k) ->
            Local_mat.add_header_action mat fid (pool_action k);
            let has, sfs = get fid in
            Hashtbl.replace model fid (has @ [ pool_action k ], sfs)
        | Add_sf (fid, k) ->
            Local_mat.add_state_function mat fid (sf ~label:(label k) ());
            let has, sfs = get fid in
            Hashtbl.replace model fid (has, sfs @ [ label k ])
        | Replace_ha (fid, ks) ->
            Local_mat.replace_actions mat fid (List.map pool_action ks);
            Hashtbl.replace model fid (List.map pool_action ks, snd (get fid))
        | Replace_sf (fid, ks) ->
            Local_mat.replace_state_functions mat fid
              (List.map (fun k -> sf ~label:(label k) ()) ks);
            Hashtbl.replace model fid (fst (get fid), List.map label ks)
        | Remove fid ->
            Local_mat.remove_flow mat fid;
            Hashtbl.remove model fid
        | Clear ->
            Local_mat.clear mat;
            Hashtbl.reset model
      in
      let agrees fid =
        let has, sfs = get fid in
        let r = Local_mat.lookup mat fid in
        Local_mat.mem mat fid = Hashtbl.mem model fid
        && List.equal Header_action.equal (Local_mat.rule_actions r) has
        && Local_mat.action_count r = List.length has
        && List.equal String.equal
             (List.map
                (fun (s : State_function.t) -> s.State_function.label)
                (Local_mat.rule_state_functions r))
             sfs
      in
      List.for_all
        (fun op ->
          apply op;
          Local_mat.flow_count mat = Hashtbl.length model && List.for_all agrees (List.init 16 Fun.id))
        ops)

(* An expired flow's state function must be collectable once idle expiry
   has torn the flow down, although its Local MAT records and its Global
   MAT rule husk are kept for reuse: both must be scrubbed.  The DoS guard
   records a per-flow function (it captures the flow's counter entry), so
   a surviving one can only be held by a record or a husk. *)
let dos_sf_weak_refs rt chain =
  let gm = Speedybox.Runtime.global_mat rt in
  let fids = Global_mat.fold (fun fid _ acc -> fid :: acc) gm [] in
  let mat = List.hd (Speedybox.Chain.local_mats chain) in
  let w = Weak.create (List.length fids) in
  List.iteri
    (fun i fid ->
      match Local_mat.rule_state_functions (Local_mat.lookup mat fid) with
      | [ sf ] -> Weak.set w i (Some sf)
      | _ -> Alcotest.fail "the DoS guard records one state function per flow")
    fids;
  w

let test_expired_state_function_collected () =
  let timeout = 10_000 in
  let chain =
    Speedybox.Chain.create ~name:"dos"
      [ Sb_nf.Dos_guard.nf (Sb_nf.Dos_guard.create ~threshold:100 ()) ]
  in
  let rt =
    Speedybox.Runtime.create (Speedybox.Runtime.config ~idle_timeout_cycles:timeout ()) chain
  in
  let flows = 4 in
  for i = 0 to flows - 1 do
    ignore (Speedybox.Runtime.process_packet rt (Test_util.udp_packet ~sport:(41000 + i) ()))
  done;
  let w = dos_sf_weak_refs rt chain in
  Alcotest.(check int) "one recorded function per flow" flows (Weak.length w);
  let late = Test_util.udp_packet ~sport:42000 () in
  late.Sb_packet.Packet.ingress_cycle <- 100 * timeout;
  ignore (Speedybox.Runtime.process_packet rt late);
  Alcotest.(check int) "every flow expires" flows (Speedybox.Runtime.expired_flows rt);
  Gc.full_major ();
  for i = 0 to flows - 1 do
    if Weak.check w i then
      Alcotest.failf "flow %d's state function outlived its expiry" i
  done;
  (* The runtime, and the records and husks it keeps, must outlive the
     collection: a dead runtime would pass for a scrubbed one. *)
  Alcotest.(check int) "the late flow's rule stays" 1
    (Global_mat.flow_count (Speedybox.Runtime.global_mat rt))

let suite =
  [
    Alcotest.test_case "batch mode priority" `Quick test_batch_mode_priority;
    Alcotest.test_case "batch run order and cost" `Quick test_batch_run_order_and_cost;
    Alcotest.test_case "table-I compatibility matrix" `Quick test_compatibility_matrix;
    Alcotest.test_case "plan policies" `Quick test_plan_policies;
    Alcotest.test_case "local mat recording" `Quick test_local_mat_recording;
    Alcotest.test_case "event registration and fire" `Quick test_event_registration_and_fire;
    Alcotest.test_case "recurring events" `Quick test_recurring_event;
    Alcotest.test_case "event ordering" `Quick test_event_order;
    Alcotest.test_case "epoch trigger skips until bumped" `Quick test_epoch_trigger;
    Alcotest.test_case "interleaved walks keep their events" `Quick test_interleaved_walks;
    Alcotest.test_case "consolidation merges locals" `Quick test_consolidation_merges_locals;
    Alcotest.test_case "drop keeps upstream batches" `Quick test_drop_rule_keeps_upstream_batches;
    Alcotest.test_case "execute runs batches" `Quick test_execute_runs_batches_and_counts;
    Alcotest.test_case "execute_rule refuses no_rule" `Quick test_execute_rule_rejects_no_rule;
    Alcotest.test_case "execute writes the stage" `Quick test_execute_writes_stage;
    Alcotest.test_case "event rewrites rule mid-stream" `Quick test_execute_event_rewrites_rule;
    Alcotest.test_case "wave snapshot semantics" `Quick test_wave_snapshot_semantics;
    Alcotest.test_case "global mat removal" `Quick test_global_mat_removal;
    Alcotest.test_case "expired state function is collected" `Quick
      test_expired_state_function_collected;
  ]
  @ Test_util.qcheck_cases [ prop_plan_partitions; prop_pooled_records ]
