(** Closed-form tandem-queue recurrences: the oracle the stage engine
    ({!Sb_sim.Stages}, through {!Sb_experiments.Load_sweep.replay}) is
    checked against.

    Each server keeps the departure cycles of the packets it holds; a
    packet offered at cycle [t] first retires every departure [<= t] (a
    departure frees its slot for a simultaneous arrival), is tail-dropped
    when the ring is still full, and otherwise departs at
    [max t last_departure + service].  Packets are walked one at a time in
    arrival order through every server they visit, so the recurrences
    agree with an event-driven pipeline exactly when each server sees its
    packets in arrival order: when all packets share one route, or when
    routes form a tree (a shared prefix, then branches).

    Topology follows the platform model: on BESS a packet occupies the one
    chain core for its whole profile; on OpenNetVM each stage label is its
    own server, with {!Sb_sim.Cycles.ring_hop_onvm} between stages. *)

open Sb_sim

type config = {
  platform : Platform.t;
  ring_capacity : int;  (** per-server ingress ring slots *)
}

val config : ?ring_capacity:int -> Platform.t -> config
(** Default ring capacity: 64, the load sweep's. *)

type arrival = { at : int;  (** arrival cycle *) profile : Cost_profile.t }

type result = {
  offered : int;  (** packets submitted *)
  completed : int;
  dropped : int;  (** ring-overflow tail drops *)
  sojourn_us : Stats.t;  (** arrival-to-departure, completed packets *)
  makespan_cycles : int;  (** first arrival to last departure *)
  achieved_mpps : float;
}

val simulate : config -> arrival list -> result
(** Arrivals must be in non-decreasing [at] order.
    @raise Invalid_argument otherwise. *)
