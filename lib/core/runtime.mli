(** The SpeedyBox runtime: drives packets through a service chain either the
    original way (every packet traverses every NF) or the SpeedyBox way
    (initial packets traverse and record; subsequent packets take the
    consolidated Global MAT fast path), producing per-packet cost profiles
    under the configured execution platform. *)

type mode = Original | Speedybox

type config = {
  platform : Sb_sim.Platform.t;
  mode : mode;
  policy : Sb_mat.Parallel.policy;  (** state-function parallelism policy *)
  fid_bits : int;
  idle_timeout_cycles : int option;
      (** Extension beyond the paper (which cleans rules up only on TCP
          FIN/RST, §VI-B): evict a flow's consolidated rule after this
          much arrival-clock idleness, bounding the state leak from UDP
          and abandoned flows.  Requires packets stamped with
          [ingress_cycle] (see {!Sb_trace.Workload} timing helpers);
          untimed packets never expire anything.  [None] (default)
          disables expiry. *)
  max_rules : int option;
      (** Cap on the Global MAT rule table (LRU eviction beyond it, like a
          megaflow cache); an evicted flow's next packet re-records.
          [None] (default) leaves the table unbounded. *)
  fault_policy : Sb_fault.Health.policy;
      (** Health thresholds and per-NF failure handling (see
          {!Sb_fault.Health}).  Only consulted once a fault occurs or an
          injector is armed; a fault-free run never touches it. *)
  injector : Sb_fault.Injector.t option;
      (** Deterministic fault injector consulted once per (NF, packet) on
          both paths.  [None] (default) disables injection and its
          per-packet bookkeeping entirely. *)
  obs : Sb_obs.Sink.t;
      (** Observability sink ({!Sb_obs.Sink.null} by default — disarmed).
          When armed, the runtime feeds whichever pillars the sink carries:
          per-path packet counters and latency histograms plus end-of-run
          occupancy gauges into the metrics registry, one span per visited
          stage into the tracer, and flow-lifecycle events (first-packet,
          consolidated, event-rewrite, quarantined, degraded-NF bypass,
          LRU-evicted, idle-expired) into the timeline.  Unarmed, the
          per-packet cost is a single branch (see the `obs-unarmed` entry
          in [BENCH_fastpath.json]). *)
  verify_checksums : bool;
      (** Validate IPv4/L4 checksums at classifier admission and reject
          stale packets as malformed (they drop before reaching any NF).
          Off by default: clean traces always verify, and the check costs
          a payload scan per packet.  The CLI arms it automatically when
          [--impair] can corrupt packets.  Packets with no parseable
          5-tuple are rejected regardless of this flag (in SpeedyBox
          mode; Original mode runs no classifier, so an NF's own parse
          failure is contained as a fault instead). *)
  state : Sb_state.Store.t;
      (** The chain's declared-cell state store (lib/state).  A sharded
          deployment passes one multi-shard store to every shard's config
          (each chain building against its own replica), making
          global-scope cells chain-wide; by default each runtime gets a
          private single-shard store. *)
}

val config :
  ?platform:Sb_sim.Platform.t ->
  ?mode:mode ->
  ?policy:Sb_mat.Parallel.policy ->
  ?fid_bits:int ->
  ?idle_timeout_cycles:int ->
  ?max_rules:int ->
  ?fault_policy:Sb_fault.Health.policy ->
  ?injector:Sb_fault.Injector.t ->
  ?obs:Sb_obs.Sink.t ->
  ?verify_checksums:bool ->
  ?state:Sb_state.Store.t ->
  unit ->
  config
(** Defaults: BESS, SpeedyBox mode, Table I policy, 20-bit FIDs, no
    expiry, unbounded rule table, default fault policy, no injector,
    disarmed observability sink, no checksum verification, private
    single-shard state store. *)

type t

val create : config -> Chain.t -> t
(** @raise Invalid_argument when the chain exceeds the platform's core
    budget (OpenNetVM chains are capped at 5 NFs, as on the paper's
    14-core testbed). *)

val chain : t -> Chain.t

val state : t -> Sb_state.Store.t
(** The config's state store — shared between shard runtimes when the
    deployment is sharded. *)

val global_mat : t -> Sb_mat.Global_mat.t

val classifier : t -> Classifier.t

val supervisor : t -> Sb_fault.Supervisor.t
(** The fault-containment state: per-NF health records and the
    contained/corrupted/stalled/quarantine counters. *)

val sync_health : t -> unit
(** A sharded plan's shards share one health table
    ({!Sb_fault.Supervisor.share_health}).  [sync_health t] catches this
    runtime up with what the other shards recorded there: any fault wakes
    its supervisor, and an NF that another shard pushed into [Failed]
    since the last sync tears this runtime's fast path down, as its own
    failure would have.  Both sharded executors call it before each
    stretch or batch of a shard's packets and once per shard at the end
    of a run. *)

val expired_flows : t -> int
(** Flows evicted by the idle timeout so far. *)

val rejected_malformed : t -> int
(** Packets rejected at ingress so far: by the classifier — no parseable
    5-tuple, or stale checksums under [verify_checksums] — and, in
    [Original] mode, frames cut short of their headers.  Rejected packets
    drop with at most the classifier stage charged and never touch
    conntrack, the MATs, or any NF. *)

(** How a packet left: it walked the chain, ran its flow's Global MAT
    rule, or was [Rejected] at ingress (see {!rejected_malformed}) and
    took neither path.  Over a run, slow + fast + rejected = packets. *)
type path = Slow_path | Fast_path | Rejected

type output = {
  verdict : Sb_mat.Header_action.verdict;
  packet : Sb_packet.Packet.t;  (** the processed packet (final bytes) *)
  profile : Sb_sim.Cost_profile.t;
      (** shared, not fresh: every path writes the packet's costs into the
          runtime's cost vector, and {!Sb_sim.Cost_vec.intern} hands back
          the profile an earlier packet with the same costs already built
          whenever its slot still holds it.  Never mutate it, and never
          compare profiles with [==] to tell packets apart *)
  path : path;
  latency_cycles : int;  (** end-to-end under the configured platform *)
  service_cycles : int;  (** per-packet cycles at the throughput bottleneck *)
  events_fired : int;
  faults : int;
      (** faults charged while processing this packet (contained raises,
          corrupted verdicts, injected stalls) — nonzero marks the packet's
          flow as fault-affected *)
}

val process_packet : t -> Sb_packet.Packet.t -> output
(** Processes one packet (mutating it) as a burst of one through
    {!process_burst_into}; there is no other per-packet path.  In
    [Original] mode every packet walks the chain; in [Speedybox] mode the
    classifier routes it to the slow path (recording when it is the flow's
    initial packet) or to the Global MAT fast path, and FIN/RST tears the
    flow's rules down.  The call allocates no closure and no
    classification record: the one-slot burst and its emit belong to the
    runtime.

    Faults never propagate out: any raise from an NF [process] call, a
    recorded state function, or an event update is contained — the packet
    is dropped, the NF's health record advances, and in SpeedyBox mode the
    flow's consolidated state (Global MAT rule, Local MAT records, armed
    events, classifier mapping) is quarantined so the next packet starts
    from scratch. *)

val default_burst : int
(** The DPDK-style default burst size, 32. *)

val process_burst : t -> Sb_packet.Packet.t array -> output array
(** Processes a burst of packets (mutating them), identical to
    {!process_packet} (a burst of one) in sequence.  A prepare pass over
    the whole burst parses, hashes and FIDs every packet and prefetches
    the conntrack, Global MAT and liveness slots each packet will probe;
    it reads no table.  Then each packet in order is observed by
    conntrack, touched for idle expiry, resolved against the Global MAT
    and executed, so every packet sees the state all earlier packets
    left, FIN/RST teardowns, expiries and fault quarantines included. *)

val process_burst_into :
  t -> Sb_packet.Packet.t array -> off:int -> len:int -> (int -> output -> unit) -> unit
(** [process_burst_into t packets ~off ~len emit] is {!process_burst} over
    [packets.(off .. off+len-1)] without materialising the output array:
    [emit k out] fires per packet in order, [k] relative to [off].  This
    is the allocation-free core {!process_burst} and {!run_trace} are built
    on, exposed for executors (the sharded runtime) that interleave bursts
    across several runtimes. *)

(** {2 Stages}

    One packet's semantics as separate steps, so an executor holding
    packets in flight between them ({!Staged_runtime}) runs exactly what
    {!process_burst_into} runs back to back: {!prepare} and {!admit};
    then {!execute} when a rule was found, or else {!start_walk}, {!nf_step}
    per NF and {!consolidate} when the walk records; then {!retire}, or
    {!quarantine} after a contained walk.  None allocates.  After each,
    {!charged} reads the cycles it wrote to the cost vector and
    {!contained} whether it dropped the packet for a fault ({!execute}
    then quarantined the flow itself; after {!nf_step} the caller must). *)

type classification = Classifier.classification

val classification : unit -> classification
(** A blank record: an executor keeps one per packet in flight. *)

val prepare : t -> Sb_packet.Packet.t -> classification -> unit
(** Parse, hash and FID, plus prefetch hints for the conntrack, Global MAT
    and liveness slots the packet will probe.  Reads no table. *)

val admit : t -> Sb_packet.Packet.t -> classification -> Sb_mat.Global_mat.rule
(** Conntrack observe, idle-expiry touch and Global MAT lookup, charged as
    the Classifier stage; {!Sb_mat.Global_mat.no_rule} means the slow
    path.  A [malformed] packet touches no table: the caller drops it. *)

val start_walk : t -> Sb_packet.Packet.t -> classification -> bool
(** Whether the walk may record (established, consolidable, allowed by the
    fault layer); a flow's first walk lands on its timeline. *)

val nf_step :
  t ->
  Sb_packet.Packet.t ->
  fid:Sb_flow.Fid.t ->
  recording:bool ->
  int ->
  Sb_mat.Header_action.verdict
(** [nf_step t packet ~fid ~recording i] calls the chain's [i]-th NF (from
    0) under the supervisor's gate, the injector's draw and containment.
    A Failed NF under [Bypass] forwards and logs a degraded bypass. *)

val quarantine : t -> Sb_packet.Packet.t -> classification -> unit
(** Tears the flow's state down after a contained walk. *)

val execute :
  t ->
  Sb_packet.Packet.t ->
  classification ->
  Sb_mat.Global_mat.rule ->
  Sb_mat.Header_action.verdict
(** The fast path: one injector draw per NF, as on a walk, then the rule,
    with egress charged to a forwarded packet only.  An odd number of
    corrupt draws flips the verdict; stalls add an [InjectedStall] stage. *)

val consolidate : t -> Sb_packet.Packet.t -> classification -> unit
(** Builds the flow's Global MAT rule from its Local MAT records. *)

val retire : t -> classification -> unit
(** A final packet (FIN/RST) that was not contained tears its flow down. *)

val charged : t -> int

val contained : t -> bool

val count :
  t -> path -> Sb_mat.Header_action.verdict -> latency_cycles:int -> now_us:float -> unit
(** One packet into the metrics registry's path, verdict and latency
    series, and the snapshot cadence. *)

(** A stage label's totals over a run: [visits] packets visited it and
    spent [cycles] there in all.  Integer sums are exact, so
    [float cycles /. float visits] is the mean a float accumulator over
    the same samples gives, bit for bit.  There are no percentiles: the
    stage breakdown reads only counts and means, and keeping a sample per
    stage per packet would put a hash lookup and a reservoir write per
    stage on every packet's accounting. *)
type stage_total = { visits : int; cycles : int }

(** Aggregate statistics over a trace run. *)
type run_result = {
  packets : int;
  forwarded : int;
  dropped : int;
  slow_path : int;
  fast_path : int;
  events_fired : int;
  faulted_packets : int;  (** packets whose processing charged ≥ 1 fault *)
  latency_us : Sb_sim.Stats.t;  (** per-packet processing latency *)
  cycles_per_packet : Sb_sim.Stats.t;  (** per-packet latency cycles *)
  service : Sb_sim.Stats.t;  (** per-packet bottleneck service cycles *)
  flow_time_us : float Sb_flow.Flat_table.t;
      (** per-FID aggregated processing time (the paper's flow processing
          time metric, Fig. 9); packets without a 5-tuple (non-TCP/UDP)
          bucket under the sentinel {!no_flow_fid} — reporting surfaces
          that bucket as a named "non-flow" line, never as a raw FID *)
  stage_cycles : (string, stage_total) Hashtbl.t;
      (** per-stage-label totals — where the chain's time actually goes;
          a fresh table per {!Acc.result}, with a binding for each label
          at least one packet visited *)
}

val no_flow_fid : int
(** The sentinel FID ([-1]) that buckets non-TCP/UDP packets in
    {!run_result.flow_time_us}. *)

val rate_mpps : run_result -> float
(** Sustained rate implied by the mean bottleneck service time. *)

(** The accumulator {!run_trace} folds outputs through, exposed so sharded
    executors build their {!run_result} via the identical code: feed one
    accumulator in global order (deterministic executor) or one per shard
    merged with {!Acc.absorb} (parallel executor).

    Counters, the three sample sets and the flow-time buckets take every
    packet as it comes, in order.  Stage totals do not: an accumulator
    tallies packets per cost profile in a fixed number of slots, keyed by
    physical identity, and expands a slot's count into per-label totals
    only when it flushes the slot — when a new profile needs a full
    tally's slot, and in {!Acc.result} and {!Acc.absorb}.  Identity is a
    speed key, never a proof of equality: equal profiles in two slots
    expand to the same totals, so no result depends on sharing. *)
module Acc : sig
  type acc

  val tally_slots : int
  (** Profile slots per accumulator: a constant, so its memory is bounded
      whatever number of distinct profiles a chain produces. *)

  val create : ?fid_bits:int -> unit -> acc
  (** [fid_bits] (default {!Sb_flow.Fid.default_bits}) must match the
      runtime's, for the flow-time fallback re-derivation. *)

  val consume : acc -> Sb_packet.Packet.t -> output -> unit
  (** [consume acc original out] folds one packet's output in; [original]
      is the packet as submitted (pre-processing), used to key the
      flow-time bucket when the chain dropped before classification. *)

  val absorb : acc -> acc -> unit
  (** [absorb dst src] merges [src]'s accumulation into [dst]: counters
      add, sample sets union, flow-time buckets sum per FID, stage totals
      add per label.  It flushes [src]'s tallies first, which changes none
      of [src]'s results; [src] is otherwise left untouched. *)

  val result : acc -> run_result
  (** Flushes the tallies and returns the run so far.  The sample sets and
      the flow-time table are the accumulator's own, the stage totals a
      copy; consuming more and calling [result] again counts nothing
      twice. *)
end

val run_trace :
  ?on_output:(Sb_packet.Packet.t -> output -> unit) ->
  ?burst:int ->
  t ->
  Sb_packet.Packet.t list ->
  run_result
(** Runs the packets in order; [on_output original_input output] fires per
    packet (the first argument is the packet as submitted, before chain
    modifications — the runtime processes a private copy).  One replay
    loop feeds the trace through {!process_burst_into} in chunks of
    [burst] packets; the default, 1, is per-packet dispatch as a burst of
    one.  Results are identical at every size, processing is cheaper per
    packet at larger ones.
    Without [on_output] the private copies live in reusable scratch
    buffers, so the replay loop allocates no packet per iteration.  With
    a metrics registry on the sink, ends with
    [record_run_gauges ~whole_run:true].
    @raise Invalid_argument when [burst < 1]. *)

val record_run_gauges : t -> whole_run:bool -> run_result -> unit
(** Writes the end-of-run gauges into the sink's metrics registry (a no-op
    without one): this runtime's installed rules, armed events and armed
    global-state events, and with [whole_run] the run's figures too, the
    non-flow time bucket of [result] and the state store's cell counts,
    merge rounds and merged global values.  A sharded run calls it once
    per shard, with [whole_run] on one shard only. *)
