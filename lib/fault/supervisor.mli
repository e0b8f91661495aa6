(** The containment-layer bookkeeping shared by both executors.

    A supervisor couples the per-NF {!Health} table with an optional
    {!Injector} and the run-wide containment counters.  The executors own
    the actual containment actions (dropping the faulted packet, tearing
    the flow's consolidated state down, flushing the rule table on an NF
    failure); this module answers the three questions they ask per NF
    invocation — should it run at all ({!gate}), does the injector fault it
    ({!draw}), and what does a fault do to its health ({!record_fault}) —
    and accumulates what happened for reporting.

    When no injector is attached and no fault has occurred, {!active} is
    false and the executors skip all per-NF supervision work; containment
    is then a single branch plus the exception handler already wrapping
    the fast path, which is how supervision stays near-free on the
    fault-free hot path. *)

type t

val create : ?injector:Injector.t -> ?obs:Sb_obs.Sink.t -> Health.t -> t
(** A supervisor over the given health table.  [obs] (default
    {!Sb_obs.Sink.null}) receives fault metrics
    ([speedybox_faults_total{nf}], [speedybox_fault_kinds_total{kind}],
    [speedybox_quarantines_total], [speedybox_faulted_packets_total]) when
    armed with a metrics registry; the counters only cost a registry
    lookup when a fault actually occurs. *)

val health : t -> Health.t

val active : t -> bool
(** True once an injector is attached or any fault has been recorded. *)

val draw : t -> nf:string -> Injector.kind option

val stall_cycles : t -> int

val record_fault : t -> nf:string -> Health.transition
(** Attributes one fault and advances the NF's health; also wakes the
    supervisor ({!active} becomes true). *)

val share_health : t -> Health.t -> unit
(** Point the supervisor at a table other supervisors record into too (a
    sharded plan's one table), before any packet.  The table must track
    every NF this supervisor records faults against. *)

val sync : t -> bool
(** Catch up with what other supervisors recorded into the shared table:
    wakes this supervisor ({!active}) once the table holds any fault, and
    returns true when an NF reached [Failed] since this supervisor last
    synced or saw its own {!record_fault} return [To_failed] — the owner
    must then flush its consolidated rules. *)

val record_contained : t -> unit
(** A raise (injected or organic) was caught and contained. *)

val record_corrupted : t -> unit

val record_stalled : t -> unit

val record_quarantine : t -> unit
(** A flow's consolidated state was torn down because of a fault. *)

val record_faulted_packet : t -> unit
(** A packet was dropped (or its verdict corrupted) by the fault layer. *)

type gate = Run | Bypass_nf | Drop_packet

val gate : t -> nf:string -> gate
(** [Run] unless the NF is [Failed] with a [Bypass] or [Drop_flow]
    policy. *)

val allow_recording : t -> string array -> bool
(** Whether a chain over these NFs may still build new consolidated rules:
    false when any NF is [Degraded] or [Failed] under [Slow_path_only]. *)

val contained : t -> int

val corrupted : t -> int

val stalled : t -> int

val quarantines : t -> int

val faulted_packets : t -> int

val total_faults : t -> int
(** [contained + corrupted + stalled] — with an injector and no organic
    faults, summed over a plan's supervisors this equals the injector's
    {!Injector.total_injected}. *)

val summary : t list -> string list
(** Report lines for a plan's supervisors, which share one health table
    and one injector: the containment counters summed over them, the
    injector's total and the health table once.  Empty when none of them
    activated. *)
