(* Properties of the cost vector and its intern (Sb_sim.Cost_vec).

   Random profiles of 1-10 stages over every label of a three-NF table,
   each stage holding [Serial] items and [Parallel] items of 0, 1 and
   many costs, are written into a vector the way the datapath writes
   them.  The intern must hand back exactly the list a direct build gives,
   with [Platform.latency_and_service]'s figures on both platforms; a
   repeat must return the physically same entry; and a slot shared by
   two vectors must never answer one with the other's profile. *)

open Sb_sim

let names = Cost_vec.labels [| "mazunat"; "monitor"; "ipfilter" |]

let item_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun c -> Cost_profile.Serial c) (int_bound 50_000));
        (1, return (Cost_profile.Parallel []));
        (1, map (fun c -> Cost_profile.Parallel [ c ]) (int_bound 50_000));
        ( 2,
          map
            (fun cs -> Cost_profile.Parallel cs)
            (list_size (int_range 2 6) (int_bound 50_000)) );
      ])

(* A stage as (label id, items); the direct build names the label. *)
let stage_gen =
  QCheck.Gen.(pair (int_bound (Array.length names - 1)) (list_size (int_bound 4) item_gen))

let profile_gen = QCheck.Gen.list_size (QCheck.Gen.int_range 1 10) stage_gen

let direct stages = List.map (fun (l, items) -> Cost_profile.stage names.(l) items) stages

let print stages = Format.asprintf "%a" Cost_profile.pp (direct stages)

let arb = QCheck.make ~print profile_gen

let write v stages =
  Cost_vec.reset v;
  List.iter
    (fun (l, items) ->
      Cost_vec.stage v l;
      List.iter
        (function
          | Cost_profile.Serial c -> Cost_vec.serial v c
          | Cost_profile.Parallel cs ->
              Cost_vec.parallel v (List.length cs);
              List.iter (Cost_vec.cost v) cs)
        items)
    stages

let vector stages =
  let v = Cost_vec.create () in
  write v stages;
  v

let prop_profile_matches =
  QCheck.Test.make ~count:500 ~name:"interned profile = direct build" arb (fun stages ->
      let v = vector stages in
      let e = Cost_vec.intern (Cost_vec.intern_create Platform.Bess names) v in
      e.Cost_vec.profile = direct stages && Cost_vec.to_profile names v = direct stages)

let prop_platform_costs =
  QCheck.Test.make ~count:500 ~name:"latency, service = Platform's" arb (fun stages ->
      let v = vector stages in
      List.for_all
        (fun platform ->
          let e = Cost_vec.intern (Cost_vec.intern_create platform names) v in
          (e.Cost_vec.latency, e.Cost_vec.service)
          = Platform.latency_and_service platform (direct stages))
        [ Platform.Bess; Platform.Onvm ])

let prop_repeat_is_physical =
  QCheck.Test.make ~count:300 ~name:"repeat lookup is the same value" arb (fun stages ->
      let t = Cost_vec.intern_create Platform.Onvm names in
      let first = Cost_vec.intern t (vector stages) in
      (* A fresh vector with equal contents, written over a dirtier one. *)
      let v = vector [ (0, [ Cost_profile.Parallel [ 1; 2; 3 ] ]) ] in
      write v stages;
      let again = Cost_vec.intern t v in
      first == again && Cost_vec.hits t = 1 && Cost_vec.misses t = 1)

(* One slot holds every vector, so each lookup of [b] after [a] lands on
   [a]'s occupant — including when [b] is a prefix of [a], whose tokens
   the slot's reused key buffer still carries. *)
let prop_collision_never_stale =
  let prefix stages = match stages with s :: _ -> [ s ] | [] -> [] in
  QCheck.Test.make ~count:500 ~name:"slot collision never stale"
    (QCheck.pair arb arb)
    (fun (a, b) ->
      List.for_all
        (fun slots ->
          let t = Cost_vec.intern_create ~slots Platform.Bess names in
          List.for_all
            (fun stages -> (Cost_vec.intern t (vector stages)).Cost_vec.profile = direct stages)
            [ a; b; a; prefix a; a; b; b ])
        [ 1; 2; 64 ])

let test_slots_validated () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Cost_vec.intern_create: slots must be a power of two") (fun () ->
      ignore (Cost_vec.intern_create ~slots:48 Platform.Bess names))

(* The runtime marks the vector after the classifier stage; an execution
   that raised halfway through its stage is rewound to the mark. *)
let test_rewind_drops_partial_stage () =
  let v = vector [ (Cost_vec.classifier, [ Cost_profile.Serial 40 ]) ] in
  Cost_vec.mark v;
  Cost_vec.stage v Cost_vec.global_mat;
  Cost_vec.parallel v 3;
  Cost_vec.cost v 5;
  Cost_vec.rewind v;
  Cost_vec.serial_stage v Cost_vec.global_mat 90;
  Alcotest.(check string) "partial stage replaced" "Classifier:40 | GlobalMAT:90"
    (Format.asprintf "%a" Cost_profile.pp (Cost_vec.to_profile names v));
  (* The rewound vector hashes like one written directly. *)
  let t = Cost_vec.intern_create Platform.Bess names in
  let direct =
    vector
      [
        (Cost_vec.classifier, [ Cost_profile.Serial 40 ]);
        (Cost_vec.global_mat, [ Cost_profile.Serial 90 ]);
      ]
  in
  Alcotest.(check bool) "same entry as a direct write" true
    (Cost_vec.intern t direct == Cost_vec.intern t v)

let suite =
  [
    Alcotest.test_case "slot count validated" `Quick test_slots_validated;
    Alcotest.test_case "rewind drops a partial stage" `Quick test_rewind_drops_partial_stage;
  ]
  @ Test_util.qcheck_cases
      [
        prop_profile_matches;
        prop_platform_costs;
        prop_repeat_is_physical;
        prop_collision_never_stale;
      ]
