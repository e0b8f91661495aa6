(* A view over {!Flat_table}: the key is the tuple's {!Five_tuple.hash},
   which lands in [0, max_int], clear of {!Flat_table.empty_key}; cells 0
   and 1 hold {!Five_tuple.pack1}/{!Five_tuple.pack2}.  The packing is
   bijective, so packed equality {e is} tuple equality; a miss never
   leaves the key lane, and a hit touches one extra line for the cells. *)

type key = Five_tuple.t

type 'a t = 'a Flat_table.t

let create initial_size = Flat_table.create ~initial_size ~cells:2 ()

let length = Flat_table.length

let value_at = Flat_table.value_at

let prefetch = Flat_table.prefetch

let find_slot_h t ~hash key =
  Flat_table.find_slot2 t hash (Five_tuple.pack1 key) (Five_tuple.pack2 key)

let find_opt_h t ~hash key =
  let s = find_slot_h t ~hash key in
  if s >= 0 then Some (Flat_table.value_at t s) else None

let find_opt t key = find_opt_h t ~hash:(Five_tuple.hash key) key

let find_or t key ~default =
  let s = find_slot_h t ~hash:(Five_tuple.hash key) key in
  if s >= 0 then Flat_table.value_at t s else default

let mem t key = find_slot_h t ~hash:(Five_tuple.hash key) key >= 0

let replace_h t ~hash key v =
  Flat_table.set_value_at t
    (Flat_table.claim2 t hash (Five_tuple.pack1 key) (Five_tuple.pack2 key))
    v

let replace t key v = replace_h t ~hash:(Five_tuple.hash key) key v

(* Like every insert, checks growth before the probe, hit or miss (see
   {!Flat_table.reserve}). *)
let find_or_add t key ~default =
  Flat_table.reserve t;
  let hash = Five_tuple.hash key in
  let s = find_slot_h t ~hash key in
  if s >= 0 then Flat_table.value_at t s
  else begin
    let v = default () in
    replace_h t ~hash key v;
    v
  end

let remove_h t ~hash key =
  let s = find_slot_h t ~hash key in
  if s >= 0 then Flat_table.remove_at t s

let remove t key = remove_h t ~hash:(Five_tuple.hash key) key

let fold f t init =
  Flat_table.fold_slots
    (fun s acc ->
      f
        (Five_tuple.of_packed (Flat_table.cell t s 0) (Flat_table.cell t s 1))
        (Flat_table.value_at t s) acc)
    t init
