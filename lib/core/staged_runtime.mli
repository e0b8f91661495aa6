(** The staged OpenNetVM executor: the chain as a real pipeline.

    {!Runtime} processes packets one at a time and prices the platform
    analytically; this executor instead runs the classifier and every NF
    as pipeline stages connected by finite rings, on the discrete-event
    stage engine {!Sb_sim.Stages} (the load sweep replays cost profiles
    through the same engine).  Each stage's work is the {!Runtime}'s own
    stage function — admit, walk an NF, execute a Global MAT rule,
    consolidate at completion — and the engine supplies the heap, the
    rings, the same-cycle tie rule and burst drains.  All processing is
    the real thing — NF closures run when their
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
  dropped_by_chain : int;  (** NF verdicts and containment drops *)
  malformed : int;  (** packets the classifier rejected *)
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
  runtime : Runtime.t;
      (** the runtime the stages ran on, whose tables, supervisor and
          classifier {!Report.staged_summary} reads *)
}

val run :
  ?ring_capacity:int ->
  ?burst:int ->
  ?on_departure:(int -> Sb_mat.Header_action.verdict -> Sb_packet.Packet.t -> unit) ->
  Runtime.config ->
  Chain.t ->
  Sb_packet.Packet.t list ->
  result
(** [run cfg chain trace] — the trace must be in non-decreasing arrival
    order.  Default ring capacity: 64 slots per stage.
    [on_departure i verdict packet] fires as the trace's [i]-th packet
    (from 0) leaves the pipeline, with its processed bytes; a packet a
    full ring tail-dropped never departs.
    @raise Invalid_argument when the trace is out of order, when
    [ring_capacity < 1], or when [cfg] asks for what a staged pipeline
    cannot be: [Original] mode (there is no classifier stage to stage) or
    a platform other than OpenNetVM.

    [burst] (default 1) sets the ring dequeue burst: with [burst > 1] a
    stage drains up to that many jobs from its ring in one access,
    charging [ring_hop_onvm] once per drain (to the drain's first job)
    instead of once per forwarded packet — OpenNetVM's dequeue-burst
    amortization.  Drained jobs also free their ring slots immediately,
    so bursty arrivals overflow less.  [burst = 1] is the original
    job-at-a-time model, bit-for-bit.
    @raise Invalid_argument when [burst < 1].

    Every other field of [cfg] is honoured, as each stage runs the
    {!Runtime} stage functions on one {!Runtime.t}: the Classifier stage
    {!Runtime.prepare} and {!Runtime.admit}, an NF stage {!Runtime.nf_step},
    the GlobalMAT stage {!Runtime.execute}, and a recording walk's last NF
    {!Runtime.consolidate} at completion.  Only what a pipeline has stays
    here: the rings, one recording packet per flow in flight, the fallback
    to the walk when a rule vanished between admission and service,
    final-packet cleanup at departure, and the reordering and sojourn
    books.  So when no two packets of a flow are in flight at once, the
    departures carry {!Runtime.run_trace}'s verdicts and bytes and leave
    the chain in the same state.

    [cfg.obs]: when armed, every stage service records one tracer span on
    the event clock (ring waits appear as gaps between a flow's spans),
    departures feed the runtime's path, verdict and latency series (the
    latency being the packet's service time, ring hops included), a
    sojourn histogram ([speedybox_staged_sojourn_us]) and the snapshot
    cadence, ring overflows are counted, and the flow timeline gets the
    runtime's events.

    Faults follow the runtime's schedule: the injector is consulted once
    per (NF, packet) on both paths, a fast-path packet drawing for every
    NF as {!Runtime.execute} does.  A raise (injected or organic,
    including state functions and event updates on the GlobalMAT stage)
    drops the packet, quarantines the flow's consolidated state and
    advances the NF's health under [cfg.fault_policy]. *)
