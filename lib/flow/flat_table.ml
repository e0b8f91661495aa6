(* A flat open-addressing hash table keyed by ints.

   [Hashtbl]'s int instantiation boxes every binding in a bucket cell and
   chases a pointer per collision; on the per-packet fast path (Global MAT
   rule lookup, liveness touch) that is a cache miss per hop.  Here keys
   and values live in two plain arrays probed linearly, so a lookup is one
   multiplicative hash, one bounds-free array read, and (almost always)
   zero pointer chases before the value array is touched.

   Deletion uses backward-shift (no tombstones): removing an entry
   re-packs the cluster behind it, so probe lengths never degrade under
   churn — the LRU-eviction workload inserts and removes a rule per
   packet and must not accumulate garbage slots. *)

let empty_key = min_int

type 'a t = {
  mutable keys : int array;  (* [empty_key] marks a free slot *)
  mutable vals : 'a array;  (* [||] until the first insert; a slot is
                               meaningful iff its key is non-empty *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
  mutable filler : 'a option;  (* scrub value for vacated slots, so the
                                  table never retains a removed binding *)
}

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

let create ?(initial_size = 16) () =
  let cap = ceil_pow2 (max initial_size 8) 8 in
  { keys = Array.make cap empty_key; vals = [||]; mask = cap - 1; size = 0; filler = None }

(* Multiplicative mix (SplitMix64-style odd constant, truncated to fit
   OCaml's 63-bit int): fids are already well hashed, but the table also
   serves arbitrary small-int keys (tests, sentinel buckets), and the odd
   multiplier spreads sequential keys over distinct slots. *)
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

let slot t key = slot_from t.keys t.mask key (slot_of_key t.mask key)

let find t key =
  let s = slot t key in
  if s >= 0 then Some (Array.unsafe_get t.vals s) else None

let find_slot t key =
  let s = slot t key in
  if s < 0 then -1 else s

let value_at t s = Array.unsafe_get t.vals s

let values t = t.vals

(* Start the cache-line fill for [key]'s probe window: its ideal slot in
   the key lane, plus the value cell that a hit will read.  Purely a hint —
   behavior is identical (and the call free) under the no-op fallback. *)
let prefetch t key =
  let s = slot_of_key t.mask key in
  Prefetch.field t.keys s;
  if Array.length t.vals > 0 then Prefetch.field t.vals s

(* Pipelined batch lookup: pass 1 issues prefetches for every key's probe
   window, pass 2 probes — by the time slot [k] is probed its line fill
   has been in flight for the whole remainder of pass 1, which is what
   flattens the curve when the table outgrows the cache. *)
let find_batch t keys ~off ~len out =
  if len < 0 || off < 0 || off + len > Array.length keys then
    invalid_arg "Flat_table.find_batch: range out of bounds";
  if len > Array.length out then invalid_arg "Flat_table.find_batch: out too short";
  for k = 0 to len - 1 do
    prefetch t (Array.unsafe_get keys (off + k))
  done;
  for k = 0 to len - 1 do
    out.(k) <- find t (Array.unsafe_get keys (off + k))
  done

let find_exn t key =
  let s = slot t key in
  if s >= 0 then Array.unsafe_get t.vals s else raise Not_found

let mem t key = slot t key >= 0

(* The value array springs into existence at the first insert, using that
   first value as the filler for the not-yet-occupied slots — a legitimate
   value of the type, never observable because occupancy is tracked by the
   key array alone.  This keeps ['a] storage unboxed-in-the-array without
   [Obj.magic] or per-binding [option] wrappers. *)
let ensure_vals t v =
  if Array.length t.vals = 0 then begin
    t.vals <- Array.make (Array.length t.keys) v;
    t.filler <- Some v
  end

(* Insert a key known to be absent, with no growth check (used by [grow]). *)
let insert_fresh keys vals mask key v =
  let i = -1 - slot_from keys mask key (slot_of_key mask key) in
  keys.(i) <- key;
  vals.(i) <- v

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  let keys = Array.make cap empty_key in
  match t.filler with
  | None -> begin
      (* No value was ever inserted, so there is nothing to rehash. *)
      t.keys <- keys;
      t.mask <- cap - 1
    end
  | Some filler ->
      let vals = Array.make cap filler in
      let mask = cap - 1 in
      for i = 0 to Array.length old_keys - 1 do
        let k = Array.unsafe_get old_keys i in
        if k <> empty_key then insert_fresh keys vals mask k (Array.unsafe_get old_vals i)
      done;
      t.keys <- keys;
      t.vals <- vals;
      t.mask <- mask

(* Max load factor 3/4: beyond it, linear-probe clusters get long enough
   to matter more than the halved footprint. *)
let maybe_grow t = if (t.size + 1) * 4 > (t.mask + 1) * 3 then grow t

let set t key v =
  if key = empty_key then invalid_arg "Flat_table.set: reserved key";
  maybe_grow t;
  ensure_vals t v;
  let s = slot t key in
  if s >= 0 then t.vals.(s) <- v
  else begin
    let i = -1 - s in
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* The single-lookup read-modify-write the double-hash
   [find_opt]-then-[replace] idiom collapses into: one probe finds either
   the binding (updated in place) or the insertion slot. *)
let update t key ~default f =
  if key = empty_key then invalid_arg "Flat_table.update: reserved key";
  maybe_grow t;
  let s = slot t key in
  if s >= 0 then t.vals.(s) <- f (Array.unsafe_get t.vals s)
  else begin
    let i = -1 - s in
    let v = f default in
    ensure_vals t v;
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: scan the cluster past the hole; an entry whose
   ideal slot does not lie (cyclically) between the hole and its current
   position can fill the hole, which then moves forward.  The cluster ends
   at the first empty slot. *)
let rec shift t keys mask hole j =
  let j = (j + 1) land mask in
  let k = Array.unsafe_get keys j in
  if k = empty_key then begin
    keys.(hole) <- empty_key;
    (match t.filler with Some f -> t.vals.(hole) <- f | None -> ());
    t.size <- t.size - 1
  end
  else begin
    let ideal = slot_of_key mask k in
    let stays = if hole <= j then ideal > hole && ideal <= j else ideal > hole || ideal <= j in
    if stays then shift t keys mask hole j
    else begin
      keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      shift t keys mask j j
    end
  end

let remove t key =
  if key <> empty_key then begin
    let s = slot t key in
    if s >= 0 then shift t t.keys t.mask s s
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  (match t.filler with
  | Some f -> Array.fill t.vals 0 (Array.length t.vals) f
  | None -> ());
  t.size <- 0

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then f k t.vals.(i)
  done

let fold f t init =
  let keys = t.keys in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then acc := f k t.vals.(i) !acc
  done;
  !acc
