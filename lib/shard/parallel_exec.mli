(** The Domain-parallel executor over a {!Sharded.t} plan.

    Lane dispatch: one serial {!Sharded.run_steered} pass (ints only, no
    packet copied) writes every packet's shard into the lane, then one
    domain per shard walks the whole lane in trace order and takes the
    entries that name it.  It copies those packets into its own scratch
    pool ({!Sb_packet.Packet.copy_into}), [burst] at a time, and
    processes them with {!Speedybox.Runtime.process_burst_into}.  Each
    shard therefore sees its packets in global trace order, so per-flow
    results stay bit-exact with the deterministic executor, and nothing
    crosses domains during a run but the plan's shared health counts and
    the state store's flushes.  (An earlier design shipped
    packet batches between domains over an N x N mesh of lock-free SPSC
    rings; the lane made that second mechanism redundant, and with it
    went a spin/park protocol in which two deadlocks were found by hand.)

    Aggregates equal the deterministic executor's whenever processing is
    order-independent across shards (per-flow chains, no faults).  A
    fault one shard records lands in the plan's shared health table at
    once, but another shard wakes its supervisor and flushes its fast path
    for it only at its next batch boundary
    ({!Speedybox.Runtime.sync_health}) — eventually rather than
    before-the-very-next-packet, which is the one freedom this executor
    trades for wall-clock scaling.  Steering bookkeeping (packet
    counts, the flow directory, FIN/RST prunes) is the steering pass's, so
    it and every placement match the deterministic executor's.

    One restriction, checked up front: no fault injector (the injector's
    per-NF draw sequences are global mutable state — racing domains over
    them would corrupt the schedule, not just reorder it).  Organic NF
    behaviour, including raising NFs, is fine — containment is per-shard,
    and the shared health table's counts are atomics over an NF set fixed
    when the plan was created.

    Armed observability runs domain-local: the plan's sink was
    {!Sb_obs.Sink.split} into per-shard children at {!Sharded.create}, each
    domain records only into its own child (no atomics on the hot path —
    the single-branch unarmed contract holds per domain), and the run ends
    as the deterministic executor's does: {!Sharded.finish_obs} writes the
    end-of-run gauges and {!Sharded.merge_obs} recomputes the parent, so
    the merged exports equal the deterministic executor's. *)

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
