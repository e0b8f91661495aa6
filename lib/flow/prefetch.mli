(** Software-prefetch hints for the burst prescan.

    The burst prescan computes every packet's hashes up front and uses
    these hints to start the cache-line fills for the slots the
    per-packet loop will probe (Global MAT rule lookup, conntrack
    observe, the liveness touch), DPDK-style.  Hints are semantically
    no-ops: a tiny C stub around [__builtin_prefetch], which compiles to
    nothing on compilers without the builtin (see prefetch_stubs.c), so
    every caller behaves identically whether or not a hint is issued. *)

val field : 'a array -> int -> unit
(** [field arr i] hints that [arr.(i)]'s cache line is about to be read.
    No bounds check and no memory access — an out-of-range index merely
    wastes the hint.  Works for [int array], [float array] and pointer
    arrays alike (all 8-byte elements). *)
