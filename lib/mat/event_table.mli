(** The Event Table (§V-C1).

    Observation #2 of the paper: some NFs change a flow's processing at
    runtime when internal state reaches a condition — Maglev reroutes a
    flow when its backend fails, a DoS preventer starts dropping when a SYN
    counter crosses a threshold.  NFs register such events through
    [register_event] (Fig. 2): a condition handler closed over the NF's
    state, plus the update to perform when it fires (a replacement header
    action list for the NF's Local MAT record and/or an arbitrary update
    function).  The update describes behaviour, not the flow, so an NF
    whose update depends on nothing per flow (the DoS guard's cut-off)
    builds it once and hands the same value to every registration; only
    the condition, and the event that carries it, is per flow.

    Where a flow's events live: a recording walk registers them here,
    keyed by FID, while the walk is in flight; consolidation moves them
    into the flow's Global MAT rule ({!take}), and they leave with that
    rule.  The fast path polls the rule's own list ({!poll}) before using
    the consolidated program, so updates take effect immediately on the
    packet that finds the condition true.

    {b Declared triggers.}  An update names what its condition reads.
    [Per_packet] (the default) evaluates the condition on every poll.
    [Epoch e] declares that every write of the state the condition reads
    either bumps [e] or happens only while the condition holds (Maglev:
    backend health bumps it; the flow's assignment changes only when its
    backend is dead): a poll then skips a condition whose last
    evaluation returned [false] while [e] has not moved since.  A
    condition that fired, raised or has never been evaluated is evaluated
    on the next poll, so a skipped condition is always one that would
    have returned [false]. *)

type trigger = private
  | Per_packet  (** evaluate on every poll *)
  | Epoch of { mutable now : int }
      (** an NF-wide counter: evaluate once it has moved since a [false] *)

val epoch : unit -> trigger
(** A fresh [Epoch] counter, built once per NF instance and shared by
    every update that declares it. *)

val bump : trigger -> unit
(** Moves an [Epoch] counter (a no-op on [Per_packet]): every write of
    the state its conditions read must bump it, unless the write happens
    only while the condition holds. *)

type update = private {
  nf : string;  (** the NF whose recorded behaviour is rewritten *)
  one_shot : bool;  (** disarm the event after it fires *)
  global_state : bool;
      (** the condition reads global-scope cells of the state store, i.e.
          it can only become true through other shards' contributions
          arriving at a merge point — see {!total_global_armed} *)
  trigger : trigger;  (** when a poll must evaluate the condition *)
  new_actions : (unit -> Header_action.t list) option;
      (** computes the replacement for the NF's header-action list at fire
          time, when the NF's state (e.g. the surviving Maglev backend) is
          known *)
  new_state_functions : (unit -> State_function.t list) option;
      (** computes the replacement for the NF's recorded state functions
          (e.g. an NF that flips to drop stops counting) *)
}

val update :
  nf:string ->
  ?one_shot:bool ->
  ?global_state:bool ->
  ?trigger:trigger ->
  ?new_actions:(unit -> Header_action.t list) ->
  ?new_state_functions:(unit -> State_function.t list) ->
  unit ->
  update
(** [one_shot] defaults to [true] (a recurring event stays armed after
    it fires, and is due again at the next poll), [global_state] to
    [false] and [trigger] to [Per_packet].  The trigger sits on the update, which an NF may build
    once and share, so a registration allocates nothing for it. *)

type event
(** One armed registration: its condition, its update and whether (and
    at which epoch) it was last found [false]. *)

type t

val create : unit -> t

val register : t -> fid:Sb_flow.Fid.t -> condition:(unit -> bool) -> update -> unit
(** Arms an event for the flow's recording walk, after any it already
    has: when [condition] holds, [update] fires.  Allocates the event and
    one list cell.  Registrations of one walk at a time go to a one-flow
    slot; a walk interleaved with another (the staged executor's) parks
    the other's events in a FID-keyed table. *)

val take : t -> Sb_flow.Fid.t -> event list
(** [take t fid] removes and returns the flow's in-flight events, in
    registration order: consolidation moves them into the flow's rule.
    Probes no table unless walks were interleaved. *)

val remove_flow : t -> Sb_flow.Fid.t -> unit
(** Drops the flow's in-flight events ({!take}, discarded).  Events that
    consolidation moved into a rule leave with the rule. *)

val poll : t -> event list -> int
(** The fast path's per-packet check of a rule's events: evaluates, in
    registration order, every armed condition its trigger makes due, and
    returns the number of armed events (skipped ones included — the cycle
    model charges each [Cycles.event_check]).  The updates that fired are
    then {!last_fired}; one-shot events that fired are disarmed.  A
    {e raising} condition never propagates out of the fast path: the
    event is disarmed, counted in {!condition_faults} and reported through
    the fault hook, and the flow's remaining events and consolidated rule
    stay usable.  Allocates nothing unless a condition fires. *)

val last_fired : t -> update list
(** The updates the latest {!poll} fired, in registration order ([[]]
    when none did). *)

val armed : event list -> int
(** The events of the list still armed. *)

val is_armed : event -> bool

val is_due : event -> bool
(** Whether the next {!poll} evaluates the (armed) event's condition:
    [false] only for an [Epoch] event found [false] at the epoch's
    current value. *)

val condition : event -> unit -> bool
(** The registered condition, for calling it outside a poll (the tests'
    oracle does). *)

val event_update : event -> update

val evaluations : t -> int
(** Conditions evaluated by polls so far. *)

val condition_faults : t -> int
(** Conditions that raised (and were disarmed) so far. *)

val set_fault_hook : t -> (string -> exn -> unit) -> unit
(** [set_fault_hook t f] — [f nf exn] runs when a condition registered by
    [nf] raises [exn]; the runtime points this at its fault supervisor so
    condition faults advance the NF's health record. *)

val set_obs : t -> Sb_obs.Sink.t -> unit
(** Points the table at an observability sink: fired conditions and
    condition faults bump [speedybox_events_fired_total{nf}] and
    [speedybox_event_condition_faults_total{nf}] when the sink is armed
    with a metrics registry.  The per-packet {!poll} of a quiet flow
    touches none of this. *)

val set_residents : t -> ((Sb_flow.Fid.t -> event list -> int -> int) -> int -> int) -> unit
(** [set_residents t fold] tells the table where the events it handed
    out with {!take} live: [fold f acc] folds [f fid events] over every
    flow's rule.  The runtime points it at its Global MAT, so the counts
    below cover armed events wherever they are.  Defaults to none. *)

val armed_count : t -> Sb_flow.Fid.t -> int
(** Armed events of the flow, in flight or in its rule. *)

val total_armed : t -> int

val total_global_armed : t -> int
(** Armed events whose condition was declared [~global_state:true] —
    the sharded executors consult this to decide whether cross-shard
    merge rounds can affect event firing at all. *)
