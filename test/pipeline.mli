(** Token-level discrete-event pipeline executor.

    Where {!Sb_sim.Queueing} computes departures with closed-form tandem-queue
    recurrences, this executor actually moves packet tokens through
    per-stage {!Sb_sim.Ring} buffers under an event heap: arrivals enqueue into
    the first stage's ring (tail-dropping when full), each stage serves
    its ring FIFO one token at a time, and completed tokens hop to the
    next stage after the transfer delay.  The two engines implement the
    same semantics by different mechanisms, so the test suite
    cross-validates them event for event; nothing outside the tests
    uses this engine. *)

type token = {
  id : int;
  arrival : int;  (** cycles *)
  services : (string * int) list;  (** (stage label, service cycles), in order *)
}

type outcome = { id : int; departure : int }

type result = {
  completed : outcome list;  (** in departure order *)
  dropped : int list;  (** token ids tail-dropped at some ring, in drop order *)
}

val run : ?ring_capacity:int -> ?hop_cycles:int -> token list -> result
(** [run tokens] — arrivals may be given in any order (the heap sorts
    them).  Defaults: 64-slot rings, {!Sb_sim.Cycles.ring_hop_onvm} between
    stages.  A token with no stages departs at its arrival time. *)
