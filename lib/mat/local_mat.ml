(* A flow's record: its actions and state functions in recording order, in
   grow-only arrays that a recycled record keeps, so re-recording a flow
   of the same shape allocates nothing. *)
type rule = {
  mutable actions : Header_action.t array;
  mutable n_actions : int;
  mutable sfs : State_function.t array;
  mutable n_sfs : int;
}

(* Fills the unused slots. *)
let no_sf = State_function.make ~nf:"" ~label:"" ~mode:State_function.Ignore (fun _ -> 0)

let action_count r = r.n_actions

let action r i =
  if i < 0 || i >= r.n_actions then invalid_arg "Local_mat.action: index out of range";
  Array.unsafe_get r.actions i

let rec list_from arr i acc = if i < 0 then acc else list_from arr (i - 1) (arr.(i) :: acc)

let rule_actions r = list_from r.actions (r.n_actions - 1) []

let rule_state_functions r = list_from r.sfs (r.n_sfs - 1) []

(* Never stored in a table, so never mutated: [rule_for] only returns
   records it bound. *)
let empty = { actions = [||]; n_actions = 0; sfs = [||]; n_sfs = 0 }

(* Scrubbed records kept per table: bounded, so that a table whose flows
   all expired pins a few kilobytes, not one record per flow it ever
   had. *)
let spare_cap = 64

type t = { nf : string; rules : rule Sb_flow.Flat_table.t; spare : rule Free_stack.t }

let nf_name t = t.nf

let rule_for t fid =
  let s = Sb_flow.Flat_table.find_slot t.rules fid in
  if s >= 0 then Sb_flow.Flat_table.value_at t.rules s
  else begin
    let r =
      if Free_stack.is_empty t.spare then { actions = [||]; n_actions = 0; sfs = [||]; n_sfs = 0 }
      else Free_stack.pop t.spare
    in
    Sb_flow.Flat_table.set t.rules fid r;
    r
  end

(* Doubling from one slot: a fresh record's first entry costs a 2-word
   array. *)
let grown arr filler =
  let b = Array.make (max 1 (2 * Array.length arr)) filler in
  Array.blit arr 0 b 0 (Array.length arr);
  b

let push_action r a =
  if r.n_actions = Array.length r.actions then
    r.actions <- grown r.actions Header_action.Forward;
  Array.unsafe_set r.actions r.n_actions a;
  r.n_actions <- r.n_actions + 1

let push_sf r sf =
  if r.n_sfs = Array.length r.sfs then r.sfs <- grown r.sfs no_sf;
  Array.unsafe_set r.sfs r.n_sfs sf;
  r.n_sfs <- r.n_sfs + 1

let clear_actions r =
  Array.fill r.actions 0 r.n_actions Header_action.Forward;
  r.n_actions <- 0

let clear_sfs r =
  Array.fill r.sfs 0 r.n_sfs no_sf;
  r.n_sfs <- 0

(* A kept record references no flow's closures. *)
let scrub r =
  clear_actions r;
  clear_sfs r

let create ~nf =
  {
    nf;
    rules = Sb_flow.Flat_table.create ();
    spare = Free_stack.create ~cap:spare_cap ~scrub empty;
  }

let add_header_action t fid action = push_action (rule_for t fid) action

let add_state_function t fid sf = push_sf (rule_for t fid) sf

let replace_actions t fid actions =
  let r = rule_for t fid in
  clear_actions r;
  List.iter (push_action r) actions

let replace_state_functions t fid sfs =
  let r = rule_for t fid in
  clear_sfs r;
  List.iter (push_sf r) sfs

let find t fid = Sb_flow.Flat_table.find t.rules fid

let lookup t fid =
  let s = Sb_flow.Flat_table.find_slot t.rules fid in
  if s < 0 then empty else Sb_flow.Flat_table.value_at t.rules s

let mem t fid = Sb_flow.Flat_table.mem t.rules fid

(* By slot: FIN cleanup and idle expiry build no option. *)
let remove_flow t fid =
  let s = Sb_flow.Flat_table.find_slot t.rules fid in
  if s >= 0 then begin
    let r = Sb_flow.Flat_table.value_at t.rules s in
    Sb_flow.Flat_table.remove_at t.rules s;
    Free_stack.push t.spare r
  end

let clear t = Sb_flow.Flat_table.clear t.rules

let flow_count t = Sb_flow.Flat_table.length t.rules

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>HA:[%s] SF:[%s]@]"
    (String.concat "; " (List.map (Format.asprintf "%a" Header_action.pp) (rule_actions r)))
    (String.concat "; "
       (List.map (fun (sf : State_function.t) -> sf.State_function.label)
          (rule_state_functions r)))
