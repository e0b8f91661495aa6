(* The NF's view of one chain position of a {!Flow_table}: its records are
   the flow slots' records at that position.  A standalone Local MAT is a
   table of one position. *)
type rule = Flow_table.record

type t = { nf : string; pos : int; table : Flow_table.t }

let create ~nf = { nf; pos = 0; table = Flow_table.create ~width:1 () }

let chain nfs =
  let table = Flow_table.create ~width:(List.length nfs) () in
  List.mapi (fun pos nf -> { nf; pos; table }) nfs

let nf_name t = t.nf

let table t = t.table

let action_count (r : rule) = r.n_actions

let action (r : rule) i =
  if i < 0 || i >= r.n_actions then invalid_arg "Local_mat.action: index out of range";
  Array.unsafe_get r.actions i

let rec list_from arr i acc = if i < 0 then acc else list_from arr (i - 1) (arr.(i) :: acc)

let rule_actions (r : rule) = list_from r.actions (r.n_actions - 1) []

let rule_state_functions (r : rule) = list_from r.sfs (r.n_sfs - 1) []

(* The flow's record, claimed through the table's cursor: a recording walk
   probes for its first NF only. *)
let rule_for t fid = Flow_table.bind (Flow_table.flow_for t.table fid) t.pos

let add_header_action t fid action = Flow_table.push_action (rule_for t fid) action

let add_state_function t fid sf = Flow_table.push_sf (rule_for t fid) sf

let replace_actions t fid actions =
  let r = rule_for t fid in
  Flow_table.clear_actions r;
  List.iter (Flow_table.push_action r) actions

let replace_state_functions t fid sfs =
  let r = rule_for t fid in
  Flow_table.clear_sfs r;
  List.iter (Flow_table.push_sf r) sfs

(* An unbound record is scrubbed, so it reads as an empty one. *)
let lookup t fid =
  let f = Flow_table.find_flow t.table fid in
  if f == Flow_table.vacant then Flow_table.no_record else Flow_table.record f t.pos

let find t fid =
  let r = lookup t fid in
  if r.bound then Some r else None

let mem t fid = (lookup t fid).bound

let remove_flow t fid = Flow_table.unbind t.table fid t.pos

let clear t =
  Flow_table.fold (fun fid _ acc -> fid :: acc) t.table []
  |> List.iter (fun fid -> remove_flow t fid)

let flow_count t = Flow_table.bound_count t.table t.pos

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>HA:[%s] SF:[%s]@]"
    (String.concat "; " (List.map (Format.asprintf "%a" Header_action.pp) (rule_actions r)))
    (String.concat "; "
       (List.map (fun (sf : State_function.t) -> sf.State_function.label)
          (rule_state_functions r)))
