(** The runtime's idle-expiry liveness table, in structure-of-arrays form.

    Maps a {!Fid.t} to (last-seen cycle, timer-wheel epoch, packed ingress
    tuple) stored in the int cells of a {!Flat_table} slot — the per-packet
    liveness touch is one probe plus one int store, with no boxed record
    and nothing for the GC to trace.

    Reads go through a transient slot returned by {!probe}: any {!set} or
    {!remove} invalidates outstanding slots, so callers probe, read and
    write without interleaving table mutations. *)

type t

val create : ?initial_size:int -> unit -> t
val length : t -> int

val prefetch : t -> Fid.t -> unit
(** Hints that the fid's probe window is about to be probed (issued by the
    burst prescan).  Semantically a no-op; see {!Prefetch}. *)

val probe : t -> Fid.t -> int
(** The fid's slot, or [-1] when untracked.  The slot is invalidated by
    the next [set]/[remove]. *)

val last_seen_at : t -> int -> int
val epoch_at : t -> int -> int

val set_last_seen_at : t -> int -> int -> unit
(** [set_last_seen_at t slot now] — the per-packet liveness touch: one
    int-lane store, the only write a packet for an already-tracked flow
    performs here. *)

val pack1_at : t -> int -> int
val pack2_at : t -> int -> int
(** The flow's ingress tuple as {!Five_tuple.pack1}/{!Five_tuple.pack2}. *)

val set : t -> Fid.t -> last_seen:int -> epoch:int -> pack1:int -> pack2:int -> unit
(** Inserts or overwrites the fid's entry; [pack1]/[pack2] are the
    ingress tuple's {!Five_tuple.pack1}/{!Five_tuple.pack2}. *)

val remove : t -> Fid.t -> unit
