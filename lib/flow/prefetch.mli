(** Software-prefetch hints for the burst prescan.

    The burst prescan computes every packet's hashes up front and uses
    these hints to start the cache-line fills for the slots the
    per-packet loop will probe (Global MAT rule lookup, conntrack
    observe, the liveness touch), DPDK-style.  Hints are semantically no-ops: the real
    implementation is a tiny C stub around [__builtin_prefetch], and a
    pure-OCaml no-op fallback is selected at build time with
    [SB_PREFETCH_IMPL=noop] (see lib/flow/dune) so the build works on
    toolchains without the builtin.  Every caller must behave identically
    under both implementations. *)

val enabled : bool
(** [true] iff the C stub implementation is linked in. *)

val field : 'a array -> int -> unit
(** [field arr i] hints that [arr.(i)]'s cache line is about to be read.
    No bounds check and no memory access — an out-of-range index merely
    wastes the hint.  Works for [int array], [float array] and pointer
    arrays alike (all 8-byte elements). *)
