type rule = {
  mutable rev_actions : Header_action.t list;
  mutable rev_sfs : State_function.t list;
}

let rule_actions r = List.rev r.rev_actions

let rule_state_functions r = List.rev r.rev_sfs

let rev_actions r = r.rev_actions

let rev_state_functions r = r.rev_sfs

(* Never stored in a table, so never mutated: [rule_for] makes a fresh
   record for every flow it records. *)
let empty = { rev_actions = []; rev_sfs = [] }

type t = { nf : string; rules : rule Sb_flow.Flat_table.t }

let create ~nf = { nf; rules = Sb_flow.Flat_table.create () }

let nf_name t = t.nf

let rule_for t fid =
  match Sb_flow.Flat_table.find t.rules fid with
  | Some r -> r
  | None ->
      let r = { rev_actions = []; rev_sfs = [] } in
      Sb_flow.Flat_table.set t.rules fid r;
      r

let add_header_action t fid action =
  let r = rule_for t fid in
  r.rev_actions <- action :: r.rev_actions

let add_state_function t fid sf =
  let r = rule_for t fid in
  r.rev_sfs <- sf :: r.rev_sfs

let replace_actions t fid actions =
  let r = rule_for t fid in
  r.rev_actions <- List.rev actions

let replace_state_functions t fid sfs =
  let r = rule_for t fid in
  r.rev_sfs <- List.rev sfs

let find t fid = Sb_flow.Flat_table.find t.rules fid

let lookup t fid =
  let s = Sb_flow.Flat_table.find_slot t.rules fid in
  if s < 0 then empty else Sb_flow.Flat_table.value_at t.rules s

let mem t fid = Sb_flow.Flat_table.mem t.rules fid

let remove_flow t fid = Sb_flow.Flat_table.remove t.rules fid

let clear t = Sb_flow.Flat_table.clear t.rules

let flow_count t = Sb_flow.Flat_table.length t.rules

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>HA:[%s] SF:[%s]@]"
    (String.concat "; " (List.map (Format.asprintf "%a" Header_action.pp) (rule_actions r)))
    (String.concat "; "
       (List.map (fun (sf : State_function.t) -> sf.State_function.label)
          (rule_state_functions r)))
