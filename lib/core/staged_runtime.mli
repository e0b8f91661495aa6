(** The staged OpenNetVM executor: the chain as a real pipeline.

    {!Runtime} processes packets one at a time and prices the platform
    analytically; this executor instead runs the classifier and every NF
    as pipeline stages connected by finite rings, on the discrete-event
    stage engine {!Sb_sim.Stages} (the load sweep replays cost profiles
    through the same engine).  This module supplies each stage's work —
    classify, walk an NF, execute a Global MAT rule, consolidate at
    completion — and the engine supplies the heap, the rings, the
    same-cycle tie rule and burst drains.  All processing is the real thing — NF closures run when their
    stage serves the packet, recording and consolidation happen exactly
    where they would on the wire — so the execution exhibits effects the
    closed-form model cannot:

    - {b queueing}: sojourn times include waiting in rings, and bursts
      overflow them (tail drops);
    - {b consolidation races}: packets of a flow that arrive while its
      initial packet is still mid-chain take the slow path too (the rule
      does not exist yet), and only one of them records;
    - {b reordering}: once the rule installs, a later packet can take the
      one-stage fast path and depart before earlier packets of the same
      flow still queued in NF stages — measured and reported.

    Packets must carry arrival times ([ingress_cycle]; see
    {!Sb_trace.Workload.with_poisson_times}). *)

type result = {
  forwarded : int;
  dropped_by_chain : int;  (** NF verdicts *)
  dropped_overflow : int;  (** ring tail drops *)
  slow_path : int;
  fast_path : int;
  reordered : int;
      (** departures that overtook an earlier-arrived packet of the same
          flow *)
  sojourn_us : Sb_sim.Stats.t;  (** arrival to departure, completed packets *)
  events_fired : int;
  faults : int;  (** contained + corrupted + stalled faults over the run *)
  quarantines : int;  (** flows whose consolidated state a fault tore down *)
}

val run :
  ?ring_capacity:int ->
  ?burst:int ->
  ?policy:Sb_mat.Parallel.policy ->
  ?injector:Sb_fault.Injector.t ->
  ?fault_policy:Sb_fault.Health.policy ->
  ?obs:Sb_obs.Sink.t ->
  Chain.t ->
  Sb_packet.Packet.t list ->
  result
(** [run chain trace] — the trace must be in non-decreasing arrival order.
    Default ring capacity: 64 slots per stage.
    @raise Invalid_argument when it is not, or when [ring_capacity < 1].

    [burst] (default 1) sets the ring dequeue burst: with [burst > 1] a
    stage drains up to that many jobs from its ring in one access,
    charging [ring_hop_onvm] once per drain (to the drain's first job)
    instead of once per forwarded packet — OpenNetVM's dequeue-burst
    amortization.  Drained jobs also free their ring slots immediately,
    so bursty arrivals overflow less.  [burst = 1] is the original
    job-at-a-time model, bit-for-bit.
    @raise Invalid_argument when [burst < 1].

    [obs] (default {!Sb_obs.Sink.null}): when armed, every stage service
    records one tracer span on the event clock (ring waits appear as gaps
    between a flow's spans), departures feed verdict counters and a
    sojourn histogram ([speedybox_staged_*]), ring overflows are counted,
    and fault quarantines land on the flow timeline.

    Faults are contained per stage: a raise from an NF's service (injected
    by [injector] or organic, including state functions and event updates
    on the Global MAT stage) drops the packet, quarantines the flow's
    consolidated state and advances the NF's health under [fault_policy]. *)
