type t = {
  mutable buf : int array;
  mutable len : int;
  mutable h : int;  (* polynomial hash of [buf.(0 .. len-1)], kept by the writers *)
  mutable mark : int;
  mutable mark_h : int;  (* [h] when [len] was [mark] *)
}

(* Token encoding.  A stage opens with [-2 - label] (always <= -2); a
   [Serial c] item is [-1; c]; a [Parallel] item of [k] costs is [k]
   (always >= 0) followed by the costs.  Tokens are unambiguous, so a
   vector decodes to exactly one profile and equal vectors to equal ones. *)
let serial_tag = -1

let create () = { buf = Array.make 32 0; len = 0; h = 0; mark = 0; mark_h = 0 }

let reset v =
  v.len <- 0;
  v.h <- 0;
  v.mark <- 0;
  v.mark_h <- 0

let mark v =
  v.mark <- v.len;
  v.mark_h <- v.h

let rewind v =
  v.len <- v.mark;
  v.h <- v.mark_h

(* Writers check capacity once per call and store in place; only the rare
   growth is a call.  Tokens are ints, so the stores need no write barrier. *)
let grow v k =
  let b = Array.make (2 * (Array.length v.buf + k)) 0 in
  Array.blit v.buf 0 b 0 v.len;
  v.buf <- b

let stage v label =
  if v.len + 1 > Array.length v.buf then grow v 1;
  let x = -2 - label in
  Array.unsafe_set v.buf v.len x;
  v.len <- v.len + 1;
  v.h <- (v.h * 31) + x

let serial v c =
  let n = v.len in
  if n + 2 > Array.length v.buf then grow v 2;
  let b = v.buf in
  Array.unsafe_set b n serial_tag;
  Array.unsafe_set b (n + 1) c;
  v.len <- n + 2;
  v.h <- (((v.h * 31) + serial_tag) * 31) + c

let cost v c =
  if v.len + 1 > Array.length v.buf then grow v 1;
  Array.unsafe_set v.buf v.len c;
  v.len <- v.len + 1;
  v.h <- (v.h * 31) + c

let parallel = cost

let serial_stage v label c =
  let n = v.len in
  if n + 3 > Array.length v.buf then grow v 3;
  let b = v.buf in
  let x = -2 - label in
  Array.unsafe_set b n x;
  Array.unsafe_set b (n + 1) serial_tag;
  Array.unsafe_set b (n + 2) c;
  v.len <- n + 3;
  v.h <- (((((v.h * 31) + x) * 31) + serial_tag) * 31) + c

let classifier = 0

let consolidate = 1

let global_mat = 2

let injected_stall = 3

let nf i = 4 + i

let labels nf_names =
  Array.append [| "Classifier"; "Consolidate"; "GlobalMAT"; "InjectedStall" |] nf_names

(* ---- Decoding ----

   Non-tail recursion builds each list front to back with no reversal and
   no intermediate tuples; [items] hands back where its list ended through
   the [stop] cell. *)

let rec costs buf i k = if k = 0 then [] else buf.(i) :: costs buf (i + 1) (k - 1)

let rec items buf len stop i =
  if i >= len || buf.(i) <= -2 then begin
    stop := i;
    []
  end
  else if buf.(i) = serial_tag then
    let c = buf.(i + 1) in
    Cost_profile.Serial c :: items buf len stop (i + 2)
  else
    let k = buf.(i) in
    let p = Cost_profile.Parallel (costs buf (i + 1) k) in
    p :: items buf len stop (i + 1 + k)

let rec stages labels buf len stop i =
  if i >= len then []
  else
    let label = labels.(-2 - buf.(i)) in
    let items = items buf len stop (i + 1) in
    let next = !stop in
    Cost_profile.stage label items :: stages labels buf len stop next

let to_profile labels v = stages labels v.buf v.len (ref 0) 0

(* ---- The intern ---- *)

type entry = { profile : Cost_profile.t; latency : int; service : int }

type slot = { mutable key : int array; mutable key_len : int; mutable entry : entry }

type intern = {
  platform : Platform.t;
  names : string array;
  slots : slot array;
  mutable hits : int;
  mutable misses : int;
}

let no_entry = { profile = []; latency = 0; service = 0 }

(* Sized from measured vector counts: per runtime, chain1 produces 5
   distinct vectors and the edge-churn benchmark chain 12.  Direct-mapped
   slots keep them apart only if no two share a slot, and one shared
   slot between two hot vectors misses on every alternation: an earlier
   hash put two pairs of the edge-churn chain's vectors together at 64
   slots and missed 15% of lookups.  256 slots keep both chains apart
   with margin.  A chain whose costs follow the payload misses at any
   affordable size, and a miss costs what building the profile always
   did. *)
let default_slots = 256

let intern_create ?(slots = default_slots) platform names =
  if slots < 1 || slots land (slots - 1) <> 0 then
    invalid_arg "Cost_vec.intern_create: slots must be a power of two";
  {
    platform;
    names;
    (* [key_len = -1] never matches a vector, the empty one included. *)
    slots = Array.init slots (fun _ -> { key = [||]; key_len = -1; entry = no_entry });
    hits = 0;
    misses = 0;
  }

let rec prefix_equal (a : int array) (b : int array) n i =
  i = n || (Array.unsafe_get a i = Array.unsafe_get b i && prefix_equal a b n (i + 1))

let intern t v =
  let n = v.len in
  let h = v.h * 0x9e3779b97f4a7c1 in
  let s = Array.unsafe_get t.slots ((h lxor (h lsr 31)) land (Array.length t.slots - 1)) in
  if s.key_len = n && prefix_equal s.key v.buf n 0 then begin
    t.hits <- t.hits + 1;
    s.entry
  end
  else begin
    t.misses <- t.misses + 1;
    let profile = to_profile t.names v in
    let latency, service = Platform.latency_and_service t.platform profile in
    let e = { profile; latency; service } in
    if Array.length s.key < n then s.key <- Array.make n 0;
    Array.blit v.buf 0 s.key 0 n;
    s.key_len <- n;
    s.entry <- e;
    e
  end

let hits t = t.hits

let misses t = t.misses
