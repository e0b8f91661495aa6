(** Deterministic pseudo-random numbers (SplitMix64).

    Every workload in the repository is generated from an explicit seed so
    traces, benchmarks and equivalence runs are exactly reproducible. *)

type t

val create : int -> t
(** [create seed] — equal seeds yield equal streams. *)

val split : t -> t
(** An independent stream derived from the current state. *)

val bits64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument when
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val choice : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)
