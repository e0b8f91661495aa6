(* Flow-state maps keyed by 5-tuples, flattened the same way as
   {!Flat_table}: open addressing with linear probing over plain arrays.

   Structure-of-arrays layout: a slot is its precomputed hash in the
   [hashes] lane plus the tuple packed into two ints ({!Five_tuple.pack1}/
   {!Five_tuple.pack2}) in adjacent cells of the [keys] lane — no boxed
   tuple record, no boxed [int32] fields.  A probe compares ints only
   (the packing is bijective, so packed equality {e is} tuple equality);
   a miss never leaves the hash lane, and a hit touches one extra line
   for the key pair.  Nothing here is traced by the GC except the value
   lane, so a million-entry map costs the major collector three flat
   arrays, not a million tuple records.

   [Five_tuple.hash] lands in [0, max_int], so [-1] is free to mark empty
   slots; vacated key cells are zeroed so no stale bits survive. *)

type key = Five_tuple.t

let no_hash = -1

type 'a t = {
  mutable hashes : int array;  (* [no_hash] marks a free slot *)
  mutable keys : int array;  (* 2 cells per slot: pack1 at [2i], pack2 at [2i+1] *)
  mutable vals : 'a array;  (* [||] until the first insert *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
  mutable filler : 'a option;
}

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

let create initial_size =
  let cap = ceil_pow2 (max initial_size 8) 8 in
  {
    hashes = Array.make cap no_hash;
    keys = Array.make (2 * cap) 0;
    vals = [||];
    mask = cap - 1;
    size = 0;
    filler = None;
  }

let slot_of_hash mask h =
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

let length t = t.size

(* The slot holding the packed key, or [-1 - slot] of the free slot where
   it would be inserted — one probe serves lookup and insertion.  A
   top-level loop over explicit arguments, not a closure: it runs several
   times per packet (conntrack, NAT, per-flow NF cells). *)
let rec probe_from hashes keys mask h k1 k2 i =
  let hi = Array.unsafe_get hashes i in
  if hi = no_hash then -1 - i
  else if
    hi = h && Array.unsafe_get keys (2 * i) = k1 && Array.unsafe_get keys ((2 * i) + 1) = k2
  then i
  else probe_from hashes keys mask h k1 k2 ((i + 1) land mask)

let probe_packed t h k1 k2 = probe_from t.hashes t.keys t.mask h k1 k2 (slot_of_hash t.mask h)

let probe_slot t h key = probe_packed t h (Five_tuple.pack1 key) (Five_tuple.pack2 key)

let find_opt_h t ~hash key =
  let s = probe_slot t hash key in
  if s >= 0 then Some (Array.unsafe_get t.vals s) else None

let find_slot_h t ~hash key =
  let s = probe_slot t hash key in
  if s < 0 then -1 else s

let value_at t s = Array.unsafe_get t.vals s

let find_opt t key = find_opt_h t ~hash:(Five_tuple.hash key) key

let find_or t key ~default =
  let s = probe_slot t (Five_tuple.hash key) key in
  if s >= 0 then Array.unsafe_get t.vals s else default

let mem t key = probe_slot t (Five_tuple.hash key) key >= 0

let prefetch t hash =
  let s = slot_of_hash t.mask hash in
  Prefetch.field t.hashes s;
  Prefetch.field t.keys (2 * s)

let ensure_vals t v =
  if Array.length t.vals = 0 then begin
    t.vals <- Array.make (Array.length t.hashes) v;
    t.filler <- Some v
  end

let rec free_from hashes mask i =
  if Array.unsafe_get hashes i = no_hash then i else free_from hashes mask ((i + 1) land mask)

let insert_fresh hashes keys vals mask h k1 k2 v =
  let i = free_from hashes mask (slot_of_hash mask h) in
  hashes.(i) <- h;
  keys.(2 * i) <- k1;
  keys.((2 * i) + 1) <- k2;
  vals.(i) <- v

let grow t =
  let old_hashes = t.hashes and old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  let hashes = Array.make cap no_hash in
  let keys = Array.make (2 * cap) 0 in
  match t.filler with
  | None -> begin
      t.hashes <- hashes;
      t.keys <- keys;
      t.mask <- cap - 1
    end
  | Some filler ->
      let vals = Array.make cap filler in
      let mask = cap - 1 in
      for i = 0 to Array.length old_hashes - 1 do
        let h = Array.unsafe_get old_hashes i in
        if h <> no_hash then
          insert_fresh hashes keys vals mask h
            (Array.unsafe_get old_keys (2 * i))
            (Array.unsafe_get old_keys ((2 * i) + 1))
            (Array.unsafe_get old_vals i)
      done;
      t.hashes <- hashes;
      t.keys <- keys;
      t.vals <- vals;
      t.mask <- mask

let maybe_grow t = if (t.size + 1) * 4 > (t.mask + 1) * 3 then grow t

let replace_h t ~hash key v =
  maybe_grow t;
  ensure_vals t v;
  let s = probe_slot t hash key in
  if s >= 0 then t.vals.(s) <- v
  else begin
    let s = -1 - s in
    t.hashes.(s) <- hash;
    t.keys.(2 * s) <- Five_tuple.pack1 key;
    t.keys.((2 * s) + 1) <- Five_tuple.pack2 key;
    t.vals.(s) <- v;
    t.size <- t.size + 1
  end

let replace t key v = replace_h t ~hash:(Five_tuple.hash key) key v

let find_or_add t key ~default =
  maybe_grow t;
  let h = Five_tuple.hash key in
  let s = probe_slot t h key in
  if s >= 0 then Array.unsafe_get t.vals s
  else begin
    let s = -1 - s in
    let v = default () in
    ensure_vals t v;
    t.hashes.(s) <- h;
    t.keys.(2 * s) <- Five_tuple.pack1 key;
    t.keys.((2 * s) + 1) <- Five_tuple.pack2 key;
    t.vals.(s) <- v;
    t.size <- t.size + 1;
    v
  end

(* Backward-shift deletion, as in {!Flat_table.remove}. *)
let rec shift t hashes keys mask hole j =
  let j = (j + 1) land mask in
  let hj = Array.unsafe_get hashes j in
  if hj = no_hash then begin
    hashes.(hole) <- no_hash;
    keys.(2 * hole) <- 0;
    keys.((2 * hole) + 1) <- 0;
    (match t.filler with Some f -> t.vals.(hole) <- f | None -> ());
    t.size <- t.size - 1
  end
  else begin
    let ideal = slot_of_hash mask hj in
    let stays = if hole <= j then ideal > hole && ideal <= j else ideal > hole || ideal <= j in
    if stays then shift t hashes keys mask hole j
    else begin
      hashes.(hole) <- hj;
      keys.(2 * hole) <- keys.(2 * j);
      keys.((2 * hole) + 1) <- keys.((2 * j) + 1);
      t.vals.(hole) <- t.vals.(j);
      shift t hashes keys mask j j
    end
  end

let remove_h t ~hash key =
  let s = probe_slot t hash key in
  if s >= 0 then shift t t.hashes t.keys t.mask s s

let remove t key = remove_h t ~hash:(Five_tuple.hash key) key

(* Pipelined batch lookup over caller-supplied keys: one prefetch pass over
   every key's destination slot, then a probe pass (reusing each hash
   computed in pass 1).  Bit-identical to [len] scalar [find_opt]s. *)
let find_batch t keys ~off ~len out =
  if len < 0 || off < 0 || off + len > Array.length keys then
    invalid_arg "Tuple_map.find_batch: range out of bounds";
  if len > Array.length out then invalid_arg "Tuple_map.find_batch: out too short";
  let hs = Array.make (max len 1) 0 in
  for k = 0 to len - 1 do
    let h = Five_tuple.hash (Array.unsafe_get keys (off + k)) in
    hs.(k) <- h;
    prefetch t h
  done;
  for k = 0 to len - 1 do
    out.(k) <- find_opt_h t ~hash:hs.(k) (Array.unsafe_get keys (off + k))
  done

let clear t =
  Array.fill t.hashes 0 (Array.length t.hashes) no_hash;
  Array.fill t.keys 0 (Array.length t.keys) 0;
  (match t.filler with
  | Some f -> Array.fill t.vals 0 (Array.length t.vals) f
  | None -> ());
  t.size <- 0

let key_at t i = Five_tuple.of_packed t.keys.(2 * i) t.keys.((2 * i) + 1)

let iter f t =
  let hashes = t.hashes in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i <> no_hash then f (key_at t i) t.vals.(i)
  done

let fold f t init =
  let hashes = t.hashes in
  let acc = ref init in
  for i = 0 to Array.length hashes - 1 do
    if Array.unsafe_get hashes i <> no_hash then acc := f (key_at t i) t.vals.(i) !acc
  done;
  !acc
