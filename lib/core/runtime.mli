(** The SpeedyBox runtime: drives packets through a service chain either the
    original way (every packet traverses every NF) or the SpeedyBox way
    (initial packets traverse and record; subsequent packets take the
    consolidated Global MAT fast path), producing per-packet cost profiles
    under the configured execution platform. *)

type mode = Original | Speedybox

val pp_mode : Format.formatter -> mode -> unit

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
  fastpath : Sb_mat.Global_mat.exec_mode;
      (** How the Global MAT executes consolidated rules: [Compiled] (the
          default flat-program fast path) or [Interpreted] (the reference
          step-list walker the differential tests compare against). *)
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
  ?fastpath:Sb_mat.Global_mat.exec_mode ->
  ?fault_policy:Sb_fault.Health.policy ->
  ?injector:Sb_fault.Injector.t ->
  ?obs:Sb_obs.Sink.t ->
  ?verify_checksums:bool ->
  ?state:Sb_state.Store.t ->
  unit ->
  config
(** Defaults: BESS, SpeedyBox mode, Table I policy, 20-bit FIDs, no
    expiry, unbounded rule table, compiled fast path, default fault
    policy, no injector, disarmed observability sink, no checksum
    verification, private single-shard state store. *)

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

val set_fault_listener : t -> (string -> unit) -> unit
(** [set_fault_listener t f] calls [f nf] after every fault this runtime
    records against NF [nf] (on either path, including event-update
    faults).  The sharded runtime uses this to broadcast NF health changes
    to sibling shards; the listener fires after local containment (health
    advance, fast-path flush on failure) has completed. *)

val absorb_remote_fault : t -> nf:string -> unit
(** [absorb_remote_fault t ~nf] advances [nf]'s health as if a fault had
    been recorded here — including tearing the fast path down when the NF
    crosses into [Failed] — without counting it in metrics or notifying
    the fault listener.  This is the receiving side of a sharded
    runtime's fault broadcast: the shard that owned the faulting packet
    already counted it. *)

val expired_flows : t -> int
(** Flows evicted by the idle timeout so far. *)

val rejected_malformed : t -> int
(** Packets rejected at the classifier so far — no parseable 5-tuple, or
    stale checksums under [verify_checksums].  Rejected packets drop with
    only the classifier stage charged and never touch conntrack, the
    MATs, or any NF. *)

type path = Slow_path | Fast_path

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
(** Processes one packet (mutating it).  In [Original] mode every packet
    walks the chain; in [Speedybox] mode the classifier routes it to the
    slow path (recording when it is the flow's initial packet) or to the
    Global MAT fast path, and FIN/RST tears the flow's rules down.

    Faults never propagate out: any raise from an NF [process] call, a
    recorded state function, or an event update is contained — the packet
    is dropped, the NF's health record advances, and in SpeedyBox mode the
    flow's consolidated state (Global MAT rule, Local MAT records, armed
    events, classifier mapping) is quarantined so the next packet starts
    from scratch. *)

val default_burst : int
(** The DPDK-style default burst size, 32. *)

val process_burst : t -> Sb_packet.Packet.t array -> output array
(** Processes a burst of packets (mutating them), semantically identical
    to {!process_packet} in sequence but cheaper per packet — the burst
    pipelines DPDK-style.  A pure prepare pass over the whole burst
    parses, hashes and FIDs every packet and prefetches the conntrack,
    Global MAT and liveness slots the later passes will probe; an observe
    pass advances conntrack and pre-resolves each packet's rule; execution
    then uses each pre-resolved rule after re-validating it against
    {!Sb_mat.Global_mat.generation} (a pre-resolved miss is always
    re-probed — an earlier slow-path packet may have installed a rule
    without a generation bump).  Consecutive packets of one flow share a
    one-entry last-flow memo, so they cost a single Global MAT lookup;
    in-place event rewrites update the resolved rule record directly.

    The observe pass stops after any packet whose execution can erase
    conntrack state that later packets would otherwise have read: a
    FIN/RST classification, or — with idle expiry on — a packet whose
    liveness touch can expire a flow (an entry due on the timer wheel by
    its arrival, an arrival a full timeout after the pass's earliest one,
    or its own flow already idle past the timeout).  Outputs then match
    {!process_packet} in sequence.  A fault quarantine cannot be foreseen:
    a same-flow SYN or SYN-ACK observed beyond the faulting packet is
    classified against the pre-quarantine state, where per-packet order
    sees a fresh flow. *)

val process_burst_into :
  t -> Sb_packet.Packet.t array -> off:int -> len:int -> (int -> output -> unit) -> unit
(** [process_burst_into t packets ~off ~len emit] is {!process_burst} over
    [packets.(off .. off+len-1)] without materialising the output array:
    [emit k out] fires per packet in order, [k] relative to [off].  This
    is the allocation-free core {!process_burst} and {!run_trace} are built
    on, exposed for executors (the sharded runtime) that interleave bursts
    across several runtimes. *)

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
  flow_time_us : float Sb_flow.Flow_table.t;
      (** per-FID aggregated processing time (the paper's flow processing
          time metric, Fig. 9); packets without a 5-tuple (non-TCP/UDP)
          bucket under the sentinel {!no_flow_fid} — reporting surfaces
          that bucket as a named "non-flow" line, never as a raw FID *)
  stage_cycles : (string, Sb_sim.Stats.t) Hashtbl.t;
      (** per-stage-label cycle samples (one per packet that visited the
          stage) — where the chain's time actually goes *)
}

val no_flow_fid : int
(** The sentinel FID ([-1]) that buckets non-TCP/UDP packets in
    {!run_result.flow_time_us}. *)

val rate_mpps : run_result -> float
(** Sustained rate implied by the mean bottleneck service time. *)

(** The accumulator {!run_trace} folds outputs through, exposed so sharded
    executors build their {!run_result} via the identical code: feed one
    accumulator in global order (deterministic executor) or one per shard
    merged with {!Acc.absorb} (parallel executor). *)
module Acc : sig
  type acc

  val create : ?fid_bits:int -> unit -> acc
  (** [fid_bits] (default {!Sb_flow.Fid.default_bits}) must match the
      runtime's, for the flow-time fallback re-derivation. *)

  val consume : acc -> Sb_packet.Packet.t -> output -> unit
  (** [consume acc original out] folds one packet's output in; [original]
      is the packet as submitted (pre-processing), used to key the
      flow-time bucket when the chain dropped before classification. *)

  val absorb : acc -> acc -> unit
  (** [absorb dst src] merges [src]'s accumulation into [dst] ([src] is
      left untouched): counters add, sample sets union, flow-time buckets
      sum per FID. *)

  val result : acc -> run_result
end

val run_trace :
  ?on_output:(Sb_packet.Packet.t -> output -> unit) ->
  ?burst:int ->
  t ->
  Sb_packet.Packet.t list ->
  run_result
(** Runs the packets in order; [on_output original_input output] fires per
    packet (the first argument is the packet as submitted, before chain
    modifications — the runtime processes a private copy).  [burst]
    (default 1) batches the trace through {!process_burst} in chunks of
    that size; results are identical, processing is cheaper per packet.
    Without [on_output] the private copies live in reusable scratch
    buffers, so the replay loop allocates no packet per iteration.
    @raise Invalid_argument when [burst < 1]. *)
