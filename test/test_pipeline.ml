(* Tests for the min-heap and the discrete-event stage engine, including
   cross-validation against the closed-form Queueing recurrences. *)
open Sb_sim

let test_heap_basics () =
  let h = Min_heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Min_heap.is_empty h);
  List.iter (Min_heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Min_heap.length h);
  Alcotest.(check (option int)) "peek" (Some 1) (Min_heap.peek_min h);
  let drained = List.init 5 (fun _ -> Option.get (Min_heap.pop_min h)) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] drained;
  Alcotest.(check (option int)) "empty pop" None (Min_heap.pop_min h)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains in sorted order"
    QCheck.(list small_int)
    (fun xs ->
      let h = Min_heap.create ~cmp:Int.compare in
      List.iter (Min_heap.push h) xs;
      let rec drain acc =
        match Min_heap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* Tokens through the engine: a token is an id, an arrival cycle and the
   (stage, service cycles) it visits in order.  Returns the departures as
   (id, cycle) in departure order and the dropped ids in drop order. *)
let run_tokens ?(ring_capacity = 64) tokens =
  let departures = ref [] and dropped = ref [] in
  let work =
    {
      Stages.serve =
        (fun label (_, services) ~now:_ ~hop ->
          match services with
          | (l, service) :: _ when String.equal l label -> (service + hop, ())
          | _ -> Alcotest.fail "served at a stage the token does not name");
      complete =
        (fun (id, services) () ~now ->
          match services with
          | _ :: ((next, _) :: _ as rest) -> Stages.Forward (next, (id, rest))
          | _ ->
              departures := (id, now) :: !departures;
              Stages.Depart);
      overflow = (fun (id, _) -> dropped := id :: !dropped);
    }
  in
  Stages.run ~ring_capacity ~burst:1 work
    (List.map (fun (id, at, services) -> (at, fst (List.hd services), (id, services))) tokens);
  (List.rev !departures, List.rev !dropped)

let test_pipeline_single_stage () =
  let departures, dropped =
    run_tokens [ (0, 0, [ ("nf", 1000) ]); (1, 0, [ ("nf", 1000) ]); (2, 5000, [ ("nf", 1000) ]) ]
  in
  Alcotest.(check (list int)) "no drops" [] dropped;
  let dep id = List.assoc id departures in
  Alcotest.(check int) "first" 1000 (dep 0);
  Alcotest.(check int) "second queued" 2000 (dep 1);
  Alcotest.(check int) "third unqueued" 6000 (dep 2)

let test_pipeline_two_stages () =
  let services = [ ("a", 1000); ("b", 500) ] in
  let departures, _ = run_tokens [ (0, 0, services); (1, 0, services) ] in
  let dep id = List.assoc id departures in
  let hop = Cycles.ring_hop_onvm in
  (* Token 0: 1000 + hop + 500.  Token 1 leaves stage a at 2000, enters b
     at 2000 + hop (b idle since 1500 + hop): 2500 + hop. *)
  Alcotest.(check int) "pipelined head" (1500 + hop) (dep 0);
  Alcotest.(check int) "pipelined second" (2500 + hop) (dep 1)

let test_pipeline_tail_drop () =
  let burst = List.init 5 (fun i -> (i, 0, [ ("nf", 1000) ])) in
  let departures, dropped = run_tokens ~ring_capacity:3 burst in
  Alcotest.(check int) "three admitted" 3 (List.length departures);
  Alcotest.(check (list int)) "overflow ids dropped" [ 3; 4 ] dropped

let test_pipeline_zero_stage_token () =
  (* A profile with no stages never enters a ring: it departs on arrival. *)
  let r = Sb_experiments.Load_sweep.replay ~platform:Platform.Onvm ~ring_capacity:64 [ (42, []) ] in
  Alcotest.(check int) "none dropped" 0 r.Sb_experiments.Load_sweep.dropped;
  Alcotest.(check int) "completed" 1 r.Sb_experiments.Load_sweep.completed;
  Alcotest.(check (float 0.)) "departs on arrival" 0.
    (Stats.max_value r.Sb_experiments.Load_sweep.sojourn_us)

(* Cross-validation: the load sweep's replay through the stage engine and
   the closed-form Queueing recurrences agree on completions, drops,
   makespan and every sojourn time, wherever each stage sees its packets
   in arrival order — one shared route, or tree-shaped routes (a shared
   prefix, then branches).  Arrivals and services sit on a 100-cycle grid
   (the ONVM ring hop is 100 cycles too), so completions and arrivals
   often land on the same cycle at the same stage and small rings fill:
   the same-cycle rule (a departure frees its slot before a simultaneous
   arrival is offered) decides drops and is exercised. *)
let prop_stages_match_queueing =
  let open QCheck in
  let grid lo hi = Gen.map (fun k -> 100 * k) (Gen.int_range lo hi) in
  let arrival = Gen.triple (grid 0 30) (Gen.list_repeat 4 (grid 1 12)) (Gen.int_range 0 2) in
  let gen =
    Gen.(
      quad (list_size (int_range 1 40) arrival) (int_range 1 4) bool bool
      |> map (fun (arrivals, cap, tree, bess) ->
             (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) arrivals, cap, tree, bess)))
  in
  Test.make ~count:300 ~name:"stage engine = queueing recurrences"
    (make
       ~print:(fun (arrivals, cap, tree, bess) ->
         Printf.sprintf "%d arrivals, cap %d, tree %b, bess %b" (List.length arrivals) cap tree
           bess)
       gen)
    (fun (arrivals, ring_capacity, tree, bess) ->
      (* Same route: s0 > s1 > s2.  Tree: p0 > p1, then branch b adds b
         stages of its own (branch 0 ends at the shared prefix). *)
      let route branch =
        if tree then [ "p0"; "p1" ] @ List.init branch (fun j -> Printf.sprintf "b%d.%d" branch j)
        else [ "s0"; "s1"; "s2" ]
      in
      let profiles =
        List.map
          (fun (at, services, branch) ->
            ( at,
              List.map2 Cost_profile.serial_stage (route branch)
                (List.filteri (fun i _ -> i < List.length (route branch)) services) ))
          arrivals
      in
      let platform = if bess then Platform.Bess else Platform.Onvm in
      let engine = Sb_experiments.Load_sweep.replay ~platform ~ring_capacity profiles in
      let oracle =
        Queueing.simulate
          (Queueing.config ~ring_capacity platform)
          (List.map (fun (at, profile) -> { Queueing.at; profile }) profiles)
      in
      engine.Sb_experiments.Load_sweep.completed = oracle.Queueing.completed
      && engine.Sb_experiments.Load_sweep.dropped = oracle.Queueing.dropped
      && engine.Sb_experiments.Load_sweep.makespan_cycles = oracle.Queueing.makespan_cycles
      && Stats.values engine.Sb_experiments.Load_sweep.sojourn_us
         = Stats.values oracle.Queueing.sojourn_us)

let suite =
  [
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "pipeline single stage" `Quick test_pipeline_single_stage;
    Alcotest.test_case "pipeline two stages" `Quick test_pipeline_two_stages;
    Alcotest.test_case "pipeline tail drop" `Quick test_pipeline_tail_drop;
    Alcotest.test_case "zero-stage token" `Quick test_pipeline_zero_stage_token;
  ]
  @ Test_util.qcheck_cases [ prop_heap_sorts; prop_stages_match_queueing ]
