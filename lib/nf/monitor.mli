(** The network Monitor NF: per-flow packet and byte counters.

    The counter update is the canonical payload-IGNORE state function: it
    reads only the frame length, so it parallelises with anything under
    the Table I analysis.  Under SpeedyBox the per-flow increment closure
    is recorded in the Local MAT and keeps counting on the fast path; the
    equivalence tests compare the full counter table against the original
    chain's. *)

type counters = { mutable packets : int; mutable bytes : int }

type t

val create : ?name:string -> ?cells:Sb_state.Store.replica -> unit -> t
(** [cells] is the shard's replica of a shared state store.  The monitor
    declares per-flow counters ([NAME.flows]), Global chain-wide totals
    ([NAME.packets], [NAME.bytes] G-counters, [NAME.active] PN-counter of
    live flows, [NAME.max_len] max-register watermark) and a Per_shard
    diagnostic counter ([NAME.shard.packets]).  Defaults to a private
    single-shard store. *)

val name : t -> string

val nf : t -> Speedybox.Nf.t

val counters : t -> Sb_flow.Five_tuple.t -> counters option
(** Counters for the flow as keyed by the tuple the monitor saw (i.e.
    after any upstream rewrites). *)

val flow_count : t -> int

val total_packets : t -> int
(** Sum over this instance's per-flow counters (removal forgets). *)

val dump : t -> string
(** Sorted, human-readable counter table (the state digest). *)
