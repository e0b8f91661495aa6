(** Deterministic per-NF fault injection.

    Soak and property tests drive the containment layer with faults drawn
    from this injector; because every NF has its own SplitMix64 stream
    (derived from the seed and the NF's name) a schedule depends only on
    the seed and the NF's own call sequence, so an exact fault schedule
    replays across runs, chain compositions and executors.

    The executors consult [draw] once per NF invocation (both the slow-path
    walk and the fast-path rule execution count as one invocation per NF):

    - {!Raise} — the NF invocation is contained like a raising NF instead
      of running;
    - {!Corrupt_verdict} — the NF runs but its verdict is flipped;
    - {!Stall} — the NF runs but charges an extra {!stall_cycles}.

    Faults can be probabilistic ([set_rate]) or scripted one-shots at an
    exact call index ([script]); scripted faults take priority and do not
    perturb the probabilistic stream. *)

type kind = Raise | Corrupt_verdict | Stall

val pp_kind : Format.formatter -> kind -> unit

val kind_of_string : string -> kind option
(** ["raise"], ["corrupt"] / ["corrupt-verdict"], ["stall"]. *)

type t

val create : ?stall_cycles:int -> seed:int -> unit -> t
(** [stall_cycles] (default 50k) is the penalty a {!Stall} fault adds. *)

val seed : t -> int

val stall_cycles : t -> int

val set_rate : t -> nf:string -> kind -> float -> unit
(** Arms a Bernoulli fault for every subsequent call of [nf].  Multiple
    rules are evaluated in registration order; the first hit wins.
    @raise Invalid_argument when the rate is outside [0,1]. *)

val script : t -> nf:string -> at:int -> kind -> unit
(** Arms a one-shot fault at [nf]'s [at]-th call (1-based). *)

val draw : t -> nf:string -> kind option
(** Called by the executors once per NF invocation; counts the call and,
    when a fault fires, the injection. *)

val calls : t -> nf:string -> int

val injected : t -> nf:string -> int

val total_injected : t -> int

val by_nf : t -> (string * int) list
(** Injection counts per NF, sorted by name. *)
