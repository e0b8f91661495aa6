(* An intrusive doubly-linked recency list over flow identifiers, stored
   as an index arena: a node is an int handle into parallel [keys]/[prev]/
   [next] int lanes, threaded through a sentinel at index 0.  Freed
   handles chain through [next] onto a free list and are reused by [add],
   so steady-state churn (the Global MAT's per-flow rule cache under LRU
   eviction) allocates nothing and gives the major GC no pointer graph to
   trace — where boxed nodes cost four scattered heap blocks per touch and
   a random-order marking walk over the whole list.

   [keys.(i) = free_key] marks a free (or never-allocated) handle;
   [prev.(i) = unlinked] marks a live handle that is not currently on the
   list.  Operations on a removed handle are no-ops, as before — but a
   removed handle is immediately reusable by [add], so owners must drop
   their copy once they remove it (the Global MAT does: a rule dies with
   its node). *)

type node = int

let free_key = -2
let unlinked = -1

type t = {
  mutable keys : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable free : int;  (* free-list head through [next]; -1 when empty *)
  mutable cap : int;  (* allocated handles, including the sentinel *)
  mutable size : int;  (* linked nodes *)
}

let initial = 16

let create () =
  let t =
    {
      keys = Array.make initial free_key;
      prev = Array.make initial unlinked;
      next = Array.make initial unlinked;
      free = -1;
      cap = 1;
      size = 0;
    }
  in
  (* Sentinel at index 0: circular, never linked/unlinked. *)
  t.keys.(0) <- -1;
  t.prev.(0) <- 0;
  t.next.(0) <- 0;
  t

let length t = t.size

let key t n = t.keys.(n)

let grow t =
  let cap = 2 * Array.length t.keys in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.keys <- extend t.keys free_key;
  t.prev <- extend t.prev unlinked;
  t.next <- extend t.next unlinked

let alloc t =
  if t.free >= 0 then begin
    let n = t.free in
    t.free <- t.next.(n);
    n
  end
  else begin
    if t.cap = Array.length t.keys then grow t;
    let n = t.cap in
    t.cap <- t.cap + 1;
    n
  end

let unlink t n =
  if t.prev.(n) >= 0 then begin
    let p = t.prev.(n) and nx = t.next.(n) in
    t.next.(p) <- nx;
    t.prev.(nx) <- p;
    t.prev.(n) <- unlinked;
    t.size <- t.size - 1
  end

let link_hot t n =
  let first = t.next.(0) in
  t.prev.(n) <- 0;
  t.next.(n) <- first;
  t.prev.(first) <- n;
  t.next.(0) <- n;
  t.size <- t.size + 1

let release t n =
  t.keys.(n) <- free_key;
  t.next.(n) <- t.free;
  t.free <- n

let add t key =
  let n = alloc t in
  t.keys.(n) <- key;
  link_hot t n;
  n

let touch t n =
  if t.keys.(n) <> free_key && t.prev.(n) >= 0 then begin
    unlink t n;
    link_hot t n
  end

let remove t n =
  if t.keys.(n) <> free_key then begin
    unlink t n;
    release t n
  end

let coldest t =
  let c = t.prev.(0) in
  if c = 0 then None else Some t.keys.(c)

let pop_coldest t =
  let c = t.prev.(0) in
  if c = 0 then None
  else begin
    let k = t.keys.(c) in
    unlink t c;
    release t c;
    Some k
  end

let clear t =
  let rec go n =
    if n <> 0 then begin
      let next = t.next.(n) in
      t.prev.(n) <- unlinked;
      release t n;
      go next
    end
  in
  go t.next.(0);
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t.size <- 0
