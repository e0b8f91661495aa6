(** Load sweep (extension beyond the paper's figures).

    The paper reports latency at low load; this experiment feeds the
    Snort + Monitor chain Poisson arrivals at increasing offered rates
    through the discrete-event stage engine ({!Sb_sim.Stages}, the one
    the staged executor runs on) and reports achieved
    throughput, sojourn-time percentiles and ingress-ring loss.  The
    expected shape: the original chain's latency knee and loss cliff sit
    at a lower offered rate than SpeedyBox's — the throughput headroom the
    fast path buys. *)

type point = {
  offered_mpps : float;
  achieved_mpps : float;
  p50_us : float;
  p99_us : float;
  loss_pct : float;
}

type replay = {
  completed : int;
  dropped : int;  (** ring-overflow tail drops *)
  sojourn_us : Sb_sim.Stats.t;  (** arrival to departure, completed packets *)
  makespan_cycles : int;  (** first arrival to last departure, at least 1 *)
}

val replay :
  platform:Sb_sim.Platform.t ->
  ring_capacity:int ->
  (int * Sb_sim.Cost_profile.t) list ->
  replay
(** [replay ~platform ~ring_capacity arrivals] runs [(arrival cycle,
    profile)] packets through {!Sb_sim.Stages} with [ring_capacity]-slot
    rings.  On BESS the whole profile ({!Sb_sim.Platform.latency_cycles})
    is served on one ["core"] stage; on OpenNetVM each stage label is its
    own stage, visited in profile order with
    {!Sb_sim.Cycles.ring_hop_onvm} between stages, and a profile with no
    stages departs on arrival.
    @raise Invalid_argument when the arrivals are not time-ordered. *)

val sweep :
  platform:Sb_sim.Platform.t ->
  mode:Speedybox.Runtime.mode ->
  rates:float list ->
  point list

val saturation_rate : point list -> float
(** The highest offered rate with under 1% loss (0 when none qualifies). *)

val run : unit -> unit
