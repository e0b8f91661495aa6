(** Sample accumulators for latency/throughput reporting: means, percentiles
    and CDFs, matching the quantities the paper's figures plot.

    Memory is bounded: count, mean, min and max are exact over every
    sample, while order statistics are computed over a uniform reservoir
    of at most 65536 samples (exact below that, an unbiased estimate
    beyond it) — so accumulators stay small even when a run streams
    millions of packets. *)

type t

val create : unit -> t

val add : t -> float -> unit

val add_int : t -> int -> unit

val add_ratio : t -> int -> float -> unit
(** [add_ratio t n d] is [add t (float_of_int n /. d)], with the quotient
    formed here: a float computed by the caller is boxed on its way in,
    while [n] and a preallocated [d] are not. *)

val absorb : t -> t -> unit
(** [absorb dst src] adds every sample of [src] to [dst] (leaving [src]
    untouched) — how per-shard accumulators merge into a run total. *)

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float

val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100], by linear interpolation between
    order statistics.  [nan] when empty. *)

val median : t -> float

val cdf : t -> points:int -> (float * float) list
(** [cdf t ~points] samples the empirical CDF at [points] evenly spaced
    cumulative probabilities; each pair is [(value, probability)]. *)

val values : t -> float array
(** A sorted copy of the retained samples (all of them below the
    reservoir cap). *)

(** A one-line summary record for table printing. *)
type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  min : float;
  max : float;
}

val summarize : t -> summary

val pp_stat : Format.formatter -> float -> unit
(** ["%.2f"], except [nan] (the empty-accumulator value) prints as ["-"]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Empty summaries ([n = 0]) print ["-"] for every statistic, never
    ["nan"]. *)
