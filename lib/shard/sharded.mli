(** The sharded runtime: N independent {!Speedybox.Runtime.t}s behind a
    symmetric-flow-hash steering function.

    Each shard owns a full runtime — its own Global/Local MATs, conntrack,
    Event Table, fault supervisor — over its own chain instance, so
    per-flow state needs no locking: steering ({!Steer}) sends both
    directions of a connection to one shard.  NF health is chain-wide, so
    the plan keeps one {!Sb_fault.Health} table that every shard's
    supervisor records into and reads; a shard learns of another shard's
    faults through {!Speedybox.Runtime.sync_health}, which wakes its
    supervisor and, after a new [Failed], flushes its fast path.

    Two executors share one plan, and dispatch from one lane of shard
    indices that {!run_steered} fills per run.  {!run_trace} here is the
    {e deterministic} one: single-threaded, packets processed in global
    arrival order with maximal same-shard stretches of the lane batched
    through the burst path, every shard synced with the health table
    before each of its stretches.  Its results are bit-exact with an unsharded
    {!Speedybox.Runtime.run_trace} over the same trace (same per-packet
    outputs, aggregates, NF state and fault attribution) whenever the
    chain's cross-flow state is per-flow — the property the differential
    tests pin down.  {!Parallel_exec} runs
    the same plan across OCaml domains for wall-clock speedup.

    Shard failure or load imbalance is handled by explicit flow migration
    ({!migrate_flow}, {!drain_shard}, {!rebalance}): the flow's conntrack
    entries (both directions) and — when no events are armed on it — its
    consolidated rule move to the new shard; event-armed flows tear down
    and re-record on their new home, and quarantined flows move by
    steering alone (no rule is resurrected).  Migrations are logged to the
    flow timeline as [Migrated].  Migration, {!drain_shard} and
    {!rebalance} act between runs: each run steers its whole trace before
    the first packet, so they raise [Invalid_argument] when called during
    one (from [on_output], say). *)

type t

val create : ?shards:int -> Speedybox.Runtime.config -> (int -> Speedybox.Chain.t) -> t
(** [create ~shards cfg build_chain] builds [shards] (default 1) runtimes,
    each over its own [build_chain i].  The config is shared — including
    the injector (one global fault schedule, drawn in arrival order by the
    deterministic executor) — and so is one health table, shard 0's, so
    every shard's chain must name the same NFs.  An armed observability
    sink on a multi-shard plan is {!Sb_obs.Sink.split} into per-shard
    children — shard [i] records into its own registry/tracer/timeline,
    and both executors recompute the parent sink from the children at end
    of run ({!merge_obs}), so reading [cfg.obs] after a run sees merged
    totals.
    @raise Invalid_argument when [shards < 1]. *)

val shard_count : t -> int

val runtime : t -> int -> Speedybox.Runtime.t
(** Shard [i]'s runtime, for inspection (supervisor counters, MAT
    occupancy, chain state). *)

val shard_of_packet : t -> Sb_packet.Packet.t -> int
(** Where this packet steers right now: the migration override when its
    flow has one, the symmetric hash otherwise; [0] for packets without a
    5-tuple. *)

val run_trace :
  ?on_output:(Sb_packet.Packet.t -> Speedybox.Runtime.output -> unit) ->
  ?burst:int ->
  t ->
  Sb_packet.Packet.t list ->
  Speedybox.Runtime.run_result
(** The deterministic executor: global arrival order, same-shard stretches
    (capped at [burst], default {!Speedybox.Runtime.default_burst}) batched
    through {!Speedybox.Runtime.process_burst_into}, the shard's runtime
    synced with the shared health table before each stretch and every
    shard once more at end of run (so every shard's supervisor and fast
    path end as the unsharded run's).  A multi-shard state store merges at
    every stretch boundary, and in full as the run opens and as it
    closes.  [on_output] fires per packet in global
    order.  With one shard this delegates to the unsharded burst path.
    @raise Invalid_argument when [burst < 1], or when a multi-shard plan
    is already running (a run started from [on_output]). *)

val migrate_flow : t -> fid:Sb_flow.Fid.t -> dest:int -> bool
(** [migrate_flow t ~fid ~dest] hands the flow — and its reverse
    direction — to shard [dest]: conntrack entries move, the consolidated
    rule transplants when the flow has no armed events (otherwise it tears
    down to re-record), steering overrides point at [dest], and the
    timeline logs [Migrated].  False when the flow is unknown or already
    on [dest].
    @raise Invalid_argument when [dest] is out of range, or during a run. *)

val drain_shard : t -> from:int -> dest:int -> int
(** Migrate every flow owned by shard [from] to [dest] (evacuation before
    taking a shard out); returns the number of flows moved.
    @raise Invalid_argument during a run. *)

val rebalance : t -> int
(** Even out directory ownership by migrating flows from the most- to the
    least-loaded shard until the spread stops improving; returns the
    number of flows moved.
    @raise Invalid_argument during a run. *)

val stats : t -> Speedybox.Report.shard_row list
(** Per-shard end-of-run figures, ready for
    {!Speedybox.Report.shard_summary}. *)

(** {2 Executor plumbing}

    Hooks {!Parallel_exec} drives the shared plan through; not part of the
    user-facing API. *)

val config : t -> Speedybox.Runtime.config

val merge_obs : t -> unit
(** Recompute the parent sink ([config t].obs) from the per-shard children
    ({!Sb_obs.Sink.merge}): call after a run — both executors already do —
    or between runs for a consistent point-in-time reading (e.g. after
    {!migrate_flow}, whose timeline entry lands in the source shard's
    child).  Idempotent; a no-op on single-shard or disarmed plans. *)

val finish_obs : t -> Speedybox.Runtime.run_result -> unit
(** Write the end-of-run gauges (per-shard packets/flows/rules, plus each
    shard's contribution to the run-level rules/events/non-flow series)
    into the child registries; with no child registry (an unarmed run) it
    does nothing.  Both executors call this, then {!merge_obs}, at the end
    of every run. *)

val run_steered : t -> Sb_packet.Packet.t array -> (int array -> 'a) -> 'a
(** [run_steered t packets f] steers each packet once, in order, from the
    books every earlier packet left, and returns [f lane]: packet [k] goes
    to shard [lane.(k)].  The pass also counts arrivals, records each
    flow's first packet and owner, and prunes both directions after a
    FIN/RST.  Until [f] returns, {!migrate_flow}, {!drain_shard} and
    {!rebalance} raise.  Multi-shard plans only; each executor runs
    through it once per run.
    @raise Invalid_argument when the plan is already running. *)
