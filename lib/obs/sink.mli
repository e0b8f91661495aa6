(** The observability sink: the one handle the executors, the MAT layer and
    the fault supervisor hold.  A sink bundles up to three pillars — a
    {!Metrics} registry, a {!Tracer} and a {!Timeline} — and a precomputed
    [armed] flag.

    The contract that keeps observability near-free when off: every hook in
    the per-packet path is guarded by a single [Sink.armed] test (one
    immutable-field load and branch), and {!null} — the default everywhere —
    is never armed.  Arming any pillar arms the sink; the unarmed fast path
    therefore pays exactly one predictable branch per packet
    ([BENCH_fastpath.json], `obs-unarmed` entry).

    {b Sharding.}  An armed sink {!split}s into per-domain children: each
    child owns a private registry, tracer ring (with [pid = shard + 1], so
    a merged Chrome trace renders one lane per shard) and timeline, so a
    domain's hot path touches memory only it writes — the single-branch
    contract holds per domain, with no atomics.  After the domains join,
    {!merge} recomputes the parent from the children deterministically:
    counters and gauges sum, histograms merge bucket-wise, tracer spans
    interleave by timestamp, timelines concatenate per fid.  Merge clears
    the parent first, so re-merging after another run never
    double-counts.

    {b Snapshots.}  With [snapshot_every] set (and the metrics pillar
    armed), every [N]th {!packet_tick} serialises the sink's registry into
    an in-memory snapshot list — a time series of the run, exported with
    {!snapshots_json} ([--metrics-interval] on the CLI).  Ticks ride
    inside the armed branch and cost one branch when snapshots are off. *)

type t

(** One periodic metrics capture: [body] is a complete
    [speedybox-metrics/1] JSON document serialised at the capture point;
    [ts_us] is the simulated clock of the packet that triggered it, so
    snapshot series are deterministic and identical across executors. *)
type snapshot = { shard : int; seq : int; ts_us : float; packets : int; body : string }

val null : t
(** The disarmed sink (no pillars).  The default for every consumer. *)

val create :
  ?metrics:bool ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?trace_flows:int ->
  ?timeline:bool ->
  ?snapshot_every:int ->
  unit ->
  t
(** Arms the requested pillars (all default [false]; creating with none
    armed returns an unarmed sink, equivalent to {!null}).
    [trace_capacity] and [trace_flows] configure the {!Tracer} ring size
    and flow-sampled retention.  [snapshot_every] enables periodic
    snapshots every that many packets (requires the metrics pillar;
    ignored without it).
    @raise Invalid_argument when [snapshot_every < 1]. *)

val armed : t -> bool
(** The single fast-path check. *)

val shard : t -> int
(** The child index a {!split} assigned, [-1] for a parent or unsharded
    sink.  Runtimes use it to label per-shard instruments (sojourn
    histograms) and tracers use [shard + 1] as the Chrome [pid]. *)

val metrics : t -> Metrics.t option

val tracer : t -> Tracer.t option

val timeline : t -> Timeline.t option

val split : t -> int -> t array
(** [split parent n] builds [n] child sinks carrying the same pillar
    selection as [parent] but private instances: child [i] gets a fresh
    registry, a fresh tracer (same capacity/flow cap, [pid = i + 1]) and a
    fresh timeline, plus [parent]'s snapshot cadence.  The parent's own
    pillars are untouched (they become the {!merge} target).
    @raise Invalid_argument when [n < 1] or [parent] is disarmed. *)

val merge : t -> t array -> unit
(** [merge parent children] recomputes [parent]'s pillars from the
    children, in child-index order (children are left untouched): the
    parent registry is cleared then every child registry merged in
    ({!Metrics.merge_into}), the parent tracer rebuilt by timestamp
    interleaving ({!Tracer.merge}), the parent timeline rebuilt per fid
    ({!Timeline.merge}), and the children's snapshot series concatenated
    in shard order.  Clearing first makes the merge idempotent — merging
    again after the children accumulated more yields the new totals, never
    double-counts.  A no-op when [children] is empty or aliases the parent
    (the unsplit single-shard arrangement). *)

val packet_tick : t -> now_us:float -> unit
(** Advance the snapshot clock by one packet; on every [snapshot_every]th
    tick, captures the registry ({!snapshot} list).  One branch when
    snapshots are disabled.  Call from inside the armed per-packet hook
    only. *)

val snapshot_every : t -> int option

val snapshots : t -> snapshot list
(** Captured snapshots, oldest first; after {!merge}, child 0's series,
    then child 1's, ... *)

val snapshots_json : t -> string
(** The snapshot series as JSON
    ({v {"schema": "speedybox-metrics-snapshots/1", "snapshots": [...]} v});
    valid (an empty array) when no snapshot was captured. *)
