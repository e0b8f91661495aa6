type policy = Sequential | Table_one | Always_parallel

let compatible m1 m2 =
  match (m1, m2) with
  | State_function.Ignore, _ | _, State_function.Ignore -> true
  | State_function.Read, State_function.Read -> true
  | State_function.Write, (State_function.Read | State_function.Write)
  | State_function.Read, State_function.Write ->
      false

(* Whether a batch joins the open wave whose aggregate mode is [wave].
   [compatible] is monotone in mode priority, so checking against the
   wave's aggregate mode is checking against every member. *)
let joins policy wave mode =
  match policy with
  | Sequential -> false
  | Always_parallel -> true
  | Table_one -> compatible wave mode

let join_mode wave mode =
  if State_function.mode_priority mode > State_function.mode_priority wave then mode else wave

(* Greedy left-to-right: each batch joins the current wave or opens the
   next one. *)
let plan policy modes =
  let finish wave = List.rev wave in
  let rec go i wave wave_mode acc = function
    | [] -> List.rev (if wave = [] then acc else finish wave :: acc)
    | mode :: rest ->
        if wave = [] then go (i + 1) [ i ] mode acc rest
        else if joins policy wave_mode mode then
          go (i + 1) (i :: wave) (join_mode wave_mode mode) acc rest
        else go (i + 1) [ i ] mode (finish wave :: acc) rest
  in
  go 0 [] State_function.Ignore [] modes

let wave_count = List.length

let pp_plan fmt plan =
  Format.pp_print_string fmt
    (String.concat " ; "
       (List.map
          (fun wave -> "[" ^ String.concat "," (List.map string_of_int wave) ^ "]")
          plan))
