(** The cross-shard control plane: a per-shard message inbox.

    Per-flow state needs no coordination (steering co-locates it), but two
    things are genuinely global and must reach every shard: NF health
    (a fault on one shard's packet degrades the NF everywhere — thresholds
    are chain-wide, not per-shard) and operator/control events that rewrite
    chain-wide NF state (a Maglev backend dying, a DoS-guard threshold
    change).  Both travel as broadcast messages; each shard drains its
    inbox before processing its next stretch of packets.

    Inboxes are mutex-protected, so the same queue serves both executors:
    the deterministic scheduler drains synchronously (messages are
    absorbed before the very next packet, which is what keeps sharded
    execution bit-exact with unsharded), the parallel executor drains at
    batch boundaries (eventual, which is all a real NUMA deployment gets
    anyway). *)

type msg =
  | Nf_fault of string
      (** NF [nf] faulted on the sending shard (already counted there);
          receivers advance their health view without re-counting. *)
  | Apply of (int -> Speedybox.Runtime.t -> unit)
      (** Run this closure against the receiving shard's runtime (shard
          index first) — the carrier for chain-wide control events. *)

type t

val create : shards:int -> t
(** @raise Invalid_argument when [shards < 1]. *)

val post : t -> shard:int -> msg -> unit
(** Enqueue to one shard's inbox. *)

val broadcast : t -> ?from:int -> msg -> unit
(** Enqueue to every shard's inbox except [from] (default [-1]: all). *)

val drain : t -> shard:int -> (msg -> unit) -> int
(** Apply the handler to every queued message in arrival order, returning
    how many were absorbed.  Messages posted by the handler itself are
    left for the next drain.  An empty inbox costs one atomic load — no
    mutex — so executors can afford a drain at every batch boundary. *)

val absorbed : t -> shard:int -> int
(** Total messages this shard has drained so far. *)
