(* The flow layer's one open-addressing hash table.

   [Hashtbl]'s int instantiation boxes every binding in a bucket cell and
   chases a pointer per collision; on the per-packet fast path (Global MAT
   rule lookup, liveness touch, conntrack) that is a cache miss per hop.
   Here a slot is an int key, [width] int cells and an optional value, in
   three plain arrays probed linearly: a lookup is one multiplicative
   hash, int compares, and (almost always) zero pointer chases before the
   value array is touched.

   FID-keyed tables use the key and the value, and a runtime's flow table
   keeps a flow's liveness in four cells beside it.  {!Tuple_map} keys on
   the tuple hash and keeps the packed tuple in cells 0-1 (distinct tuples
   can share a hash, so its probe also matches the cells).

   Deletion uses backward-shift (no tombstones): removing an entry
   re-packs the cluster behind it, so probe lengths never degrade under
   churn — the LRU-eviction workload inserts and removes a rule per
   packet and must not accumulate garbage slots. *)

let empty_key = min_int

type 'a t = {
  mutable keys : int array;  (* [empty_key] marks a free slot *)
  mutable cells : int array;  (* [width] cells per slot, slot [s] at [width * s] *)
  width : int;
  mutable vals : 'a array;  (* [||] until the first value is stored; a slot
                               is meaningful iff its key is non-empty *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
  mutable filler : 'a option;  (* scrub value for vacated slots, so the
                                  table never retains a removed binding *)
}

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

let create ?(initial_size = 1024) ?(cells = 0) () =
  let cap = ceil_pow2 (max initial_size 8) 8 in
  {
    keys = Array.make cap empty_key;
    cells = Array.make (cells * cap) 0;
    width = cells;
    vals = [||];
    mask = cap - 1;
    size = 0;
    filler = None;
  }

(* Multiplicative mix (SplitMix64-style odd constant, truncated to fit
   OCaml's 63-bit int): fids and tuple hashes are already well hashed, but
   the table also serves arbitrary small-int keys (tests, sentinel
   buckets), and the odd multiplier spreads sequential keys over distinct
   slots. *)
let slot_of_key mask key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

let length t = t.size

(* Every probe loop below is a top-level tail-recursive function taking
   what it reads as arguments: a local [let rec] over [keys]/[mask]/[key]
   would be a closure, heap-allocated on each call of a per-packet
   lookup. *)

(* The slot holding [key], or [-1 - s] where [s] is the free slot that ends
   its probe window. *)
let rec slot_from keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_key then -1 - i
  else slot_from keys mask key ((i + 1) land mask)

(* As [slot_from], for the slot whose key is [key] and whose cells 0 and 1
   hold [c0] and [c1]. *)
let rec slot2_from keys cells width mask key c0 c1 i =
  let k = Array.unsafe_get keys i in
  if k = empty_key then -1 - i
  else if
    k = key
    && Array.unsafe_get cells (width * i) = c0
    && Array.unsafe_get cells ((width * i) + 1) = c1
  then i
  else slot2_from keys cells width mask key c0 c1 ((i + 1) land mask)

(* The first free slot at or after [i].  The rehash places every entry
   here, never by key match: distinct {!Tuple_map} entries share a key. *)
let rec free_from keys mask i =
  if Array.unsafe_get keys i = empty_key then i else free_from keys mask ((i + 1) land mask)

let slot t key = slot_from t.keys t.mask key (slot_of_key t.mask key)

let slot2 t key c0 c1 = slot2_from t.keys t.cells t.width t.mask key c0 c1 (slot_of_key t.mask key)

let find t key =
  let s = slot t key in
  if s >= 0 then Some (Array.unsafe_get t.vals s) else None

let find_slot t key =
  let s = slot t key in
  if s < 0 then -1 else s

let find_slot2 t key c0 c1 =
  let s = slot2 t key c0 c1 in
  if s < 0 then -1 else s

let value_at t s = Array.unsafe_get t.vals s

let key_at t s = Array.unsafe_get t.keys s

let values t = t.vals

let cell t s c = Array.unsafe_get t.cells ((t.width * s) + c)

let set_cell t s c v = Array.unsafe_set t.cells ((t.width * s) + c) v

let cell0 t s = Array.unsafe_get t.cells (t.width * s)

let set_cell0 t s v = Array.unsafe_set t.cells (t.width * s) v

(* Start the cache-line fills for [key]'s probe window: its ideal slot in
   the key lane, plus the first cell a hit reads — cell 0 when the table
   has cells, else the value.  Purely a hint — behavior is identical (and
   the call free) under the no-op fallback. *)
let prefetch t key =
  let s = slot_of_key t.mask key in
  Prefetch.field t.keys s;
  if t.width > 0 then Prefetch.field t.cells (t.width * s)
  else if Array.length t.vals > 0 then Prefetch.field t.vals s

(* As [prefetch], for a probe that reads the value, and cell 0 only when
   [cells]: a hint for a lane the probe skips costs a line fill that
   evicts one it needs. *)
let prefetch_value t key ~cells =
  let s = slot_of_key t.mask key in
  Prefetch.field t.keys s;
  if cells then Prefetch.field t.cells (t.width * s);
  if Array.length t.vals > 0 then Prefetch.field t.vals s

let find_exn t key =
  let s = slot t key in
  if s >= 0 then Array.unsafe_get t.vals s else raise Not_found

let mem t key = slot t key >= 0

(* The value array springs into existence at the first store, using that
   first value as the filler for the not-yet-occupied slots — a legitimate
   value of the type, never observable because occupancy is tracked by the
   key array alone.  This keeps ['a] storage unboxed-in-the-array without
   [Obj.magic] or per-binding [option] wrappers. *)
let set_value_at t s v =
  if Array.length t.vals = 0 then begin
    t.vals <- Array.make (Array.length t.keys) v;
    t.filler <- Some v
  end;
  Array.unsafe_set t.vals s v

let set_default t v =
  if t.size > 0 || Array.length t.vals > 0 then invalid_arg "Flat_table.set_default: table in use";
  t.vals <- Array.make (Array.length t.keys) v;
  t.filler <- Some v

(* Slot moves copy cells with a plain loop: [Array.blit] is a C call even
   at width 0. *)
let copy_cells width src s dst d =
  for c = 0 to width - 1 do
    Array.unsafe_set dst ((width * d) + c) (Array.unsafe_get src ((width * s) + c))
  done

let grow t =
  let old_keys = t.keys and old_cells = t.cells and old_vals = t.vals in
  let width = t.width in
  let cap = 2 * (t.mask + 1) in
  let mask = cap - 1 in
  let keys = Array.make cap empty_key in
  let cells = Array.make (width * cap) 0 in
  let vals = match t.filler with None -> [||] | Some f -> Array.make cap f in
  let has_vals = Array.length vals > 0 in
  for s = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys s in
    if k <> empty_key then begin
      let d = free_from keys mask (slot_of_key mask k) in
      Array.unsafe_set keys d k;
      copy_cells width old_cells s cells d;
      if has_vals then Array.unsafe_set vals d (Array.unsafe_get old_vals s)
    end
  done;
  t.keys <- keys;
  t.cells <- cells;
  t.vals <- vals;
  t.mask <- mask

(* Max load factor 3/4: beyond it, linear-probe clusters get long enough
   to matter more than the halved footprint.  Checked before the probe of
   every insert, so the probed slot survives until it is filled. *)
let reserve t = if (t.size + 1) * 4 > (t.mask + 1) * 3 then grow t

let occupy t s key =
  Array.unsafe_set t.keys s key;
  t.size <- t.size + 1

let claim t key =
  reserve t;
  let s = slot t key in
  if s >= 0 then s
  else begin
    let s = -1 - s in
    occupy t s key;
    s
  end

let claim2 t key c0 c1 =
  reserve t;
  let s = slot2 t key c0 c1 in
  if s >= 0 then s
  else begin
    let s = -1 - s in
    occupy t s key;
    set_cell t s 0 c0;
    set_cell t s 1 c1;
    s
  end

let set t key v =
  if key = empty_key then invalid_arg "Flat_table.set: reserved key";
  set_value_at t (claim t key) v

(* The single-lookup read-modify-write the double-hash
   [find_opt]-then-[replace] idiom collapses into: one probe finds either
   the binding (updated in place) or the insertion slot. *)
let update t key ~default f =
  if key = empty_key then invalid_arg "Flat_table.update: reserved key";
  reserve t;
  let s = slot t key in
  if s >= 0 then t.vals.(s) <- f (Array.unsafe_get t.vals s)
  else begin
    let v = f default in
    let s = -1 - s in
    occupy t s key;
    set_value_at t s v
  end

(* Backward-shift deletion: scan the cluster past the hole; an entry whose
   ideal slot does not lie (cyclically) between the hole and its current
   position can fill the hole, which then moves forward, key, cells and
   value together.  The cluster ends at the first empty slot, and the
   final hole's cells are zeroed so no stale bits survive. *)
let rec shift t keys mask hole j =
  let j = (j + 1) land mask in
  let k = Array.unsafe_get keys j in
  if k = empty_key then begin
    keys.(hole) <- empty_key;
    for c = t.width * hole to (t.width * hole) + t.width - 1 do
      Array.unsafe_set t.cells c 0
    done;
    (match t.filler with Some f -> t.vals.(hole) <- f | None -> ());
    t.size <- t.size - 1
  end
  else begin
    let ideal = slot_of_key mask k in
    let stays = if hole <= j then ideal > hole && ideal <= j else ideal > hole || ideal <= j in
    if stays then shift t keys mask hole j
    else begin
      keys.(hole) <- k;
      copy_cells t.width t.cells j t.cells hole;
      if Array.length t.vals > 0 then t.vals.(hole) <- t.vals.(j);
      shift t keys mask j j
    end
  end

let remove_at t s = shift t t.keys t.mask s s

let remove t key =
  if key <> empty_key then begin
    let s = slot t key in
    if s >= 0 then remove_at t s
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.cells 0 (Array.length t.cells) 0;
  (match t.filler with
  | Some f -> Array.fill t.vals 0 (Array.length t.vals) f
  | None -> ());
  t.size <- 0

let fold_slots f t init =
  let keys = t.keys in
  let acc = ref init in
  for s = 0 to Array.length keys - 1 do
    if Array.unsafe_get keys s <> empty_key then acc := f s !acc
  done;
  !acc

let fold f t init = fold_slots (fun s acc -> f (Array.unsafe_get t.keys s) t.vals.(s) acc) t init

let iter f t = fold_slots (fun s () -> f (Array.unsafe_get t.keys s) t.vals.(s)) t ()
