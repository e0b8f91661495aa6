(* A view over {!Flat_table}: the key is the tuple's {!Five_tuple.hash},
   which lands in [0, max_int], clear of {!Flat_table.empty_key}; cells 0
   and 1 hold {!Five_tuple.pack1}/{!Five_tuple.pack2}.  The packing is
   bijective, so packed equality {e is} tuple equality; a miss never
   leaves the key lane, and a hit touches one extra line for the cells.
   The record-keyed operations pack their tuple and call the packed
   ones. *)

type key = Five_tuple.t

type 'a t = 'a Flat_table.t

let create initial_size = Flat_table.create ~initial_size ~cells:2 ()

let length = Flat_table.length

let value_at = Flat_table.value_at

let prefetch = Flat_table.prefetch

let find_slot_packed t ~hash k1 k2 = Flat_table.find_slot2 t hash k1 k2

let replace_packed t ~hash k1 k2 v = Flat_table.set_value_at t (Flat_table.claim2 t hash k1 k2) v

(* Like every insert, checks growth before the probe, hit or miss (see
   {!Flat_table.reserve}). *)
let find_or_add_packed t ~hash k1 k2 ~default =
  Flat_table.reserve t;
  let s = Flat_table.find_slot2 t hash k1 k2 in
  if s >= 0 then Flat_table.value_at t s
  else begin
    let v = default () in
    replace_packed t ~hash k1 k2 v;
    v
  end

let remove_at = Flat_table.remove_at

let remove_packed t ~hash k1 k2 =
  let s = Flat_table.find_slot2 t hash k1 k2 in
  if s >= 0 then Flat_table.remove_at t s

let find_slot t key =
  let k1 = Five_tuple.pack1 key and k2 = Five_tuple.pack2 key in
  Flat_table.find_slot2 t (Five_tuple.hash_packed k1 k2) k1 k2

let find_opt t key =
  let s = find_slot t key in
  if s >= 0 then Some (Flat_table.value_at t s) else None

let mem t key = find_slot t key >= 0

let replace t key v =
  let k1 = Five_tuple.pack1 key and k2 = Five_tuple.pack2 key in
  replace_packed t ~hash:(Five_tuple.hash_packed k1 k2) k1 k2 v

let find_or_add t key ~default =
  let k1 = Five_tuple.pack1 key and k2 = Five_tuple.pack2 key in
  find_or_add_packed t ~hash:(Five_tuple.hash_packed k1 k2) k1 k2 ~default

let remove t key =
  let k1 = Five_tuple.pack1 key and k2 = Five_tuple.pack2 key in
  remove_packed t ~hash:(Five_tuple.hash_packed k1 k2) k1 k2

let fold f t init =
  Flat_table.fold_slots
    (fun s acc ->
      f
        (Five_tuple.of_packed (Flat_table.cell t s 0) (Flat_table.cell t s 1))
        (Flat_table.value_at t s) acc)
    t init
