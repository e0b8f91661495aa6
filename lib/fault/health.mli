(** Per-NF health tracking: the [Healthy -> Degraded -> Failed] state
    machine the containment layer advances on every attributed fault, and
    the per-NF policy that decides what a [Failed] NF's flows do.

    The thresholds are cumulative fault counts and an NF's state is worked
    out from its count, so states never regress.  One table can serve
    several runtimes at once: a sharded plan gives every shard's
    supervisor the same table, counts are atomics, and the NF set is fixed
    at {!create}, so concurrent shards record into it and only read its
    index.  What each state means to the executors:

    - [Healthy] — normal processing.
    - [Degraded] — the NF still runs everywhere, but the runtime stops
      building {e new} consolidated rules for chains containing it (its
      closures are suspect; existing rules stay until they fault, expire
      or the NF fails).
    - [Failed] — the [on_failure] policy applies: [Bypass] elides the NF
      from the chain (it records nothing, so fast paths rebuild without
      it), [Drop_flow] drops every packet reaching it (recording a drop
      rule, so fast paths early-drop), [Slow_path_only] keeps running it
      but pins the whole chain to the original path. *)

type state = Healthy | Degraded | Failed

val pp_state : Format.formatter -> state -> unit

type on_failure = Bypass | Drop_flow | Slow_path_only

val pp_on_failure : Format.formatter -> on_failure -> unit

type policy = {
  degraded_after : int;  (** faults at which an NF enters [Degraded] *)
  failed_after : int;  (** faults at which an NF enters [Failed] *)
  on_failure : on_failure;  (** default policy *)
  overrides : (string * on_failure) list;  (** per-NF policy overrides *)
}

val policy :
  ?degraded_after:int ->
  ?failed_after:int ->
  ?on_failure:on_failure ->
  ?overrides:(string * on_failure) list ->
  unit ->
  policy
(** Defaults: degraded after 3 faults, failed after 8, [Slow_path_only].
    @raise Invalid_argument on non-positive or inverted thresholds. *)

val default_policy : policy

type t

val create : policy -> string list -> t
(** [create policy nfs] tracks the NFs named in [nfs] (duplicates count
    once), each healthy with no faults. *)

type transition = No_change | To_degraded | To_failed

val record_fault : t -> string -> transition
(** Counts one fault against the NF and advances its state machine,
    reporting a threshold crossing so the owner can react (e.g. flush
    consolidated rules on [To_failed]).  Safe from several domains at
    once: each crossing is reported to exactly one caller.
    @raise Invalid_argument when [nf] is not one of the table's NFs. *)

val state : t -> string -> state
(** [Healthy] for an NF the table does not track. *)

val faults : t -> string -> int

val on_failure : t -> string -> on_failure

val total_faults : t -> int
(** Faults recorded against every NF. *)

val failures : t -> int
(** How many NFs have reached [Failed]: a runtime sharing the table
    compares it with the last value it acted on to learn that another
    runtime failed an NF. *)

val snapshot : t -> (string * state * int) list
(** Per-NF (name, state, faults) for every NF with at least one fault,
    sorted by name. *)
