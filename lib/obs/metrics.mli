(** The metrics registry: named counters, gauges and log-bucketed
    histograms with label dimensions (per-NF, per-chain, per-stage…),
    exportable as Prometheus text format or JSON.

    Instruments are get-or-create: looking a metric up by (name, labels)
    registers it on first use and returns the same instrument thereafter,
    so hot-path call sites resolve their instruments once (at runtime
    construction) and then pay only an unboxed field update per event.
    Registering the same (name, labels) pair under a different instrument
    kind raises. *)

type t

type labels = (string * string) list
(** Label pairs, e.g. [[("nf", "monitor"); ("chain", "chain1")]].
    Rendered sorted by key, so label order never distinguishes metrics. *)

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val value : t -> float
end

val create : unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t

val gauge : t -> ?help:string -> ?labels:labels -> string -> Gauge.t

val histogram : t -> ?help:string -> ?labels:labels -> string -> Histogram.t

val clear : t -> unit
(** Drops every registered instrument.  Handles resolved before the clear
    stay functional but detached — they no longer export.  Used by
    {!Sink.merge} to recompute a parent registry from its children, which
    is what makes repeated merges idempotent. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s instruments into [dst] by
    (name, labels), creating missing ones with [src]'s help text ([src] is
    left untouched): counters and gauges add, histograms merge bucket-wise
    ({!Histogram.merge_into}).  A per-shard series (a [shard] label, such
    as a high-water mark) has one contributor, so it keeps its value.  Iteration follows [src]'s
    sorted entries, so merging the same registries in the same order is
    deterministic — bit-identical exports, float sums included.
    @raise Invalid_argument when a (name, labels) series exists in both
    registries under different instrument kinds. *)

val to_prometheus : t -> string
(** Prometheus text exposition format: one [# HELP]/[# TYPE] header per
    metric family, series sorted by name then labels, histograms as
    cumulative [_bucket{le=...}] series (non-empty buckets plus [+Inf])
    with [_sum] and [_count]. *)

val to_json : t -> string
(** JSON export ({v {"schema": "speedybox-metrics/1", "metrics": [...]} v});
    histograms carry count/sum/mean and the p50/p90/p99 estimates. *)
