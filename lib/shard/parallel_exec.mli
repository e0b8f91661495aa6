(** The Domain-parallel executor over a {!Sharded.t} plan.

    Feederless: after one serial {!Sharded.run_steered} pass (ints only, no
    packet copied), the trace is split into one contiguous slice per
    shard, and each domain batches its own slice by lane — home-shard
    packets and misdirected ones alike travel as
    pointer batches over an N x N mesh of lock-free SPSC rings
    ({!Shard_ring}), with empty batches recycling back over return rings
    so the steady state allocates nothing per batch.  The receiving shard
    copies originals into its own scratch pool ({!Sb_packet.Packet.copy_into})
    and processes them with {!Speedybox.Runtime.process_burst_into}; it
    drains sources in slice order, so a flow's packets keep their global
    trace order and per-flow results stay bit-exact with the deterministic
    executor.

    Aggregates equal the deterministic executor's whenever processing is
    order-independent across shards (per-flow chains, no faults); health
    broadcasts over {!Control} converge at batch boundaries — eventually
    rather than before-the-very-next-packet, which is the one freedom this
    executor trades for wall-clock scaling.  Steering bookkeeping (packet
    counts, the flow directory, FIN/RST prunes) is the steering pass's, so
    it and every placement match the deterministic executor's.

    One restriction, checked up front: no fault injector (the injector's
    per-NF draw sequences are global mutable state — racing domains over
    them would corrupt the schedule, not just reorder it).  Organic NF
    behaviour, including raising NFs, is fine — containment is per-shard
    and health broadcasts are mutex-protected.

    Armed observability runs domain-local: the plan's sink was
    {!Sb_obs.Sink.split} into per-shard children at {!Sharded.create}, each
    domain records only into its own child (no atomics on the hot path —
    the single-branch unarmed contract holds per domain), and after the
    join the executor folds mesh telemetry into the children
    ([speedybox_mesh_*] steering-prescan time, misdirected src→dst
    counters, queueing-delay and batch-fill histograms; [speedybox_ring_*]
    push/pop/spin/park counts and occupancy high-water from
    {!Shard_ring.stats}) and recomputes the parent via
    {!Sharded.merge_obs} — merged counters are bit-identical to the
    deterministic executor's, modulo those parallel-only families. *)

val run_trace :
  ?burst:int ->
  Sharded.t ->
  Sb_packet.Packet.t list ->
  Speedybox.Runtime.run_result
(** [run_trace ~burst t packets] processes the trace across one domain per
    shard — shard 0 on the calling thread — in batches of [burst] (default
    {!Speedybox.Runtime.default_burst}).
    @raise Invalid_argument when [burst < 1] or when the plan carries an
    injector. *)
