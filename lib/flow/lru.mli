(** An intrusive doubly-linked recency list over flow identifiers.

    Owners of per-flow tables (the Global MAT's rule cache) embed one
    {!node} per entry; [touch] moves it to the hot end and [pop_coldest]
    evicts from the cold end, both in O(1) — replacing the O(n) full-table
    scans a fold-based LRU needs.

    Nodes are int handles into an index arena (parallel [keys]/[prev]/
    [next] int lanes threaded through a sentinel): a touch rewrites a few
    int cells in flat arrays instead of chasing four boxed list blocks,
    steady-state add/remove churn reuses freed handles through a free list
    (no allocation, nothing new for the GC to trace). *)

type node
(** One entry's position in the recency order.  A node belongs to exactly
    one list; operations on a node that was already removed (or popped)
    are no-ops — but a removed handle is immediately reusable by {!add},
    so owners must drop their copy of a node once they remove it. *)

type t

val create : unit -> t

val length : t -> int

val add : t -> Fid.t -> node
(** Links a fresh node at the hot (most recently used) end. *)

val key : t -> node -> Fid.t

val touch : t -> node -> unit
(** Moves the node to the hot end; no-op when the node is not linked. *)

val remove : t -> node -> unit
(** Unlinks the node; subsequent [touch]/[remove] on it are no-ops. *)

val coldest : t -> Fid.t option
(** The least recently used key, without removing it. *)

val pop_coldest : t -> Fid.t option
(** Removes and returns the least recently used key. *)

val clear : t -> unit
(** Unlinks every node (nodes still held by callers become inert). *)
