(* The list-staged consolidation [Global_mat.consolidate] used before it
   became a single pass, kept as the oracle of the consolidation
   differential suite: per-NF lists, then positional steps, then the
   compiled instruction array, plus an eager position-insensitive merge.
   It shares only [Consolidate.of_actions] and [Parallel.plan] with the
   library. *)
open Sb_mat

type step =
  | Transform of Consolidate.t
  | Waves of { batches : State_function.Batch.t list; plan : int list list }

type program = {
  steps : step list;
  code : Global_mat.cstep array;
  transforms : int;
  static_head : int;
  serial : bool;
  n_source_actions : int;
  overall : Consolidate.t;
}

let is_identity (c : Consolidate.t) =
  (not c.Consolidate.drop)
  && c.Consolidate.pops = []
  && c.Consolidate.pushes = []
  && c.Consolidate.sets = []

(* Positional consolidation: contiguous header-action runs merge into one
   transform each; the state-function batches between non-identity
   transforms form one wave group (within one NF, header actions are taken
   to precede its state functions).  Identity transforms are elided so
   forward-only NFs do not break batch adjacency. *)
let build_steps policy per_nf =
  let steps = ref [] in
  let run = ref [] in
  let run_has_drop = ref false in
  let group = ref [] in
  (* Once a drop transform lands, everything positioned after it is dead
     code: the original path never reaches those NFs. *)
  let stopped = ref false in
  let flush_group () =
    match !group with
    | [] -> ()
    | batches ->
        let batches = List.rev batches in
        let plan = Parallel.plan policy (List.map State_function.Batch.mode batches) in
        steps := Waves { batches; plan } :: !steps;
        group := []
  in
  let flush_run () =
    let c = Consolidate.of_actions (List.rev !run) in
    run := [];
    run_has_drop := false;
    if not (is_identity c) then begin
      flush_group ();
      steps := Transform c :: !steps;
      if Consolidate.is_drop c then stopped := true
    end
  in
  List.iter
    (fun (actions, batch) ->
      if not !stopped then begin
        List.iter
          (fun a ->
            run := a :: !run;
            if a = Header_action.Drop then run_has_drop := true)
          actions;
        (* HAs precede SFs within an NF, so a drop in this NF's own actions
           also silences its batch. *)
        if !run_has_drop then flush_run ();
        if (not !stopped) && batch.State_function.Batch.fns <> [] then begin
          flush_run ();
          group := batch :: !group
        end
      end)
    per_nf;
  if not !stopped then flush_run ();
  flush_group ();
  List.rev !steps

(* Flatten the step list into the executable program: plan indices
   resolve to batch arrays and each transform's cycle cost is computed
   once. *)
let compile ~n_source_actions steps =
  let rev_code = ref [] in
  let transforms = ref 0 in
  let payload_written = ref false in
  List.iter
    (function
      | Transform c ->
          incr transforms;
          let cost = Consolidate.cost c in
          rev_code :=
            Global_mat.C_transform { c; cost; incr_ok = not !payload_written } :: !rev_code
      | Waves { batches; plan } ->
          let arr = Array.of_list batches in
          List.iter
            (fun wave ->
              rev_code :=
                Global_mat.C_wave (Array.of_list (List.map (Array.get arr) wave)) :: !rev_code)
            plan;
          if
            List.exists
              (fun b -> State_function.Batch.mode b = State_function.Write)
              batches
          then payload_written := true)
    steps;
  let transforms = !transforms in
  let code = Array.of_list (List.rev !rev_code) in
  ( code,
    transforms,
    Array.for_all
      (function
        | Global_mat.C_transform _ -> true | Global_mat.C_wave batches -> Array.length batches < 2)
      code,
    Sb_sim.Cycles.fast_path_lookup
    + (n_source_actions * Sb_sim.Cycles.fast_path_per_action)
    + if transforms = 0 then Sb_sim.Cycles.ha_forward else 0 )

(* The flow's records as the old consolidation read them: one
   (actions, batch) pair per NF that holds a record, in chain order. *)
let per_nf fid locals =
  List.filter_map
    (fun local ->
      match Local_mat.find local fid with
      | None -> None
      | Some r ->
          Some
            ( Local_mat.rule_actions r,
              State_function.Batch.make ~nf:(Local_mat.nf_name local)
                (Local_mat.rule_state_functions r) ))
    locals

let source_actions fid locals = List.concat_map fst (per_nf fid locals)

let consolidate policy fid locals =
  let per_nf = per_nf fid locals in
  let actions = List.concat_map fst per_nf in
  let n_source_actions = List.length actions in
  let steps = build_steps policy per_nf in
  let code, transforms, serial, static_head = compile ~n_source_actions steps in
  let overall = Consolidate.of_actions actions in
  { steps; code; transforms; static_head; serial; n_source_actions; overall }

let batches p =
  List.concat_map (function Transform _ -> [] | Waves { batches; _ } -> batches) p.steps

(* Each group's plan re-indexed into the global batch numbering. *)
let plan p =
  let _, rev_plans =
    List.fold_left
      (fun (offset, acc) step ->
        match step with
        | Transform _ -> (offset, acc)
        | Waves { batches; plan } ->
            ( offset + List.length batches,
              List.rev_append (List.map (List.map (fun i -> i + offset)) plan) acc ))
      (0, []) p.steps
  in
  List.rev rev_plans

let pp_step fmt = function
  | Transform c -> Format.fprintf fmt "T(%a)" Consolidate.pp c
  | Waves { batches; plan } ->
      Format.fprintf fmt "W[%s]%a"
        (String.concat "; " (List.map (Format.asprintf "%a" State_function.Batch.pp) batches))
        Parallel.pp_plan plan

let pp fmt p =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ") pp_step)
    p.steps
