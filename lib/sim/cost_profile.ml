type item = Serial of int | Parallel of int list

type stage = { label : string; items : item list }

type t = stage list

let stage label items = { label; items }

let serial_stage label cycles = { label; items = [ Serial cycles ] }

(* The folds below are top-level int loops: the per-packet accounting
   ([Runtime.Acc.consume]) runs them over every profile, and a fold
   carrying a tuple or a closure would allocate on each [Parallel] item. *)
let rec sum acc = function [] -> acc | c :: rest -> sum (acc + c) rest

let rec longest acc = function
  | [] -> acc
  | c :: rest -> longest (if c > acc then c else acc) rest

let item_cycles = function
  | Serial c -> c
  | Parallel [] -> 0
  | Parallel [ c ] -> c
  | Parallel costs ->
      let total = sum 0 costs and longest = longest 0 costs in
      (* Imperfect overlap: a slice of the off-critical-path work still
         serialises (contention, skew). *)
      Cycles.parallel_sync + longest
      + ((total - longest) * Cycles.parallel_overlap_pct / 100)

let item_core_work = function Serial c -> c | Parallel costs -> sum 0 costs

let rec items_cycles acc = function
  | [] -> acc
  | i :: rest -> items_cycles (acc + item_cycles i) rest

let rec items_core_work acc = function
  | [] -> acc
  | i :: rest -> items_core_work (acc + item_core_work i) rest

let stage_cycles { items; _ } = items_cycles 0 items

let stage_core_work { items; _ } = items_core_work 0 items

let total_cycles t = List.fold_left (fun acc s -> acc + stage_cycles s) 0 t

let pp_item fmt = function
  | Serial c -> Format.fprintf fmt "%d" c
  | Parallel costs ->
      Format.fprintf fmt "par[%s]" (String.concat "," (List.map string_of_int costs))

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " | ")
    (fun fmt s ->
      Format.fprintf fmt "%s:%a" s.label
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_char fmt '+') pp_item)
        s.items)
    fmt t
