(** The per-impairment correctness matrix (robustness extension).

    One fixed workload through one chain, impaired by each mutator at two
    severities, each impaired trace executed three ways — per-packet,
    burst-32 and the deterministic 4-shard executor — and the three runs'
    correctness digests (verdict, path and event counters, malformed
    rejections) compared for exact agreement.  A clean baseline anchors
    the latency column, so each row also reports how far the scenario
    pushed p50 latency.

    The digests must agree: the burst path (prefetch prescan) and
    the sharded executor make no semantic promises weaker than the
    per-packet slow/fast machinery, impaired or not.  [run] prints the
    matrix and exits nonzero on any divergence, which is how CI consumes
    it. *)

type digest = {
  packets : int;
  forwarded : int;
  dropped : int;
  slow_path : int;
  fast_path : int;
  events_fired : int;
  malformed : int;
}
(** The executor-independent slice of a run: what happened to the traffic,
    not how long it took. *)

type row = {
  label : string;  (** mutator spec, e.g. ["loss:0.2"], or ["clean"] *)
  input_packets : int;  (** clean-trace size *)
  output_packets : int;  (** impaired-trace size *)
  digest : digest;  (** per-packet executor's digest *)
  mean_us : float;
  delta_mean_us : float;  (** vs the clean baseline *)
  agree : bool;  (** burst-32 and sharded-4 digests match per-packet's *)
}

val scenarios : string list
(** The mutator-spec strings of the matrix, severities included —
    [scenarios] has every mutator at two rates. *)

val matrix : unit -> row list
(** Runs the whole matrix (clean row first) and returns it. *)

val check : unit -> bool
(** [true] when every row agrees across the three executors. *)

val run : unit -> unit
(** Prints the matrix as a table; exits with status 1 on divergence. *)
