(** The Event Table (§V-C1).

    Observation #2 of the paper: some NFs change a flow's processing at
    runtime when internal state reaches a condition — Maglev reroutes a
    flow when its backend fails, a DoS preventer starts dropping when a SYN
    counter crosses a threshold.  NFs register such events through
    [register_event] (Fig. 2): a condition handler closed over the NF's
    state, plus the update to perform when it fires (a replacement header
    action list for the NF's Local MAT record and/or an arbitrary update
    function).  The Global MAT checks a flow's armed events before using
    the flow's consolidated rule, so updates take effect immediately on the
    packet that finds the condition true. *)

type update = {
  nf : string;  (** the NF whose recorded behaviour is rewritten *)
  new_actions : (unit -> Header_action.t list) option;
      (** computes the replacement for the NF's header-action list at fire
          time, when the NF's state (e.g. the surviving Maglev backend) is
          known *)
  new_state_functions : (unit -> State_function.t list) option;
      (** computes the replacement for the NF's recorded state functions
          (e.g. an NF that flips to drop stops counting) *)
  update_fn : (unit -> unit) option;  (** NF-state fix-up to run on fire *)
}

type t

val create : unit -> t

val register :
  t ->
  fid:Sb_flow.Fid.t ->
  nf:string ->
  ?one_shot:bool ->
  ?global_state:bool ->
  condition:(unit -> bool) ->
  ?new_actions:(unit -> Header_action.t list) ->
  ?new_state_functions:(unit -> State_function.t list) ->
  ?update_fn:(unit -> unit) ->
  unit ->
  unit
(** Arms an event for the flow.  [one_shot] (default [true]) disarms the
    event after it fires; recurring events re-evaluate on every packet.
    [global_state] (default [false]) declares that the condition reads
    global-scope cells of the state store, i.e. it can only become true
    through other shards' contributions arriving at a merge point —
    see {!total_global_armed}. *)

val armed_count : t -> Sb_flow.Fid.t -> int
(** Number of conditions the fast path must evaluate for this flow — each
    costs [Cycles.event_check]. *)

val check : t -> Sb_flow.Fid.t -> update list
(** Evaluates the flow's armed conditions in registration order and returns
    the updates of those that fired (disarming one-shot events).  A
    {e raising} condition never propagates out of the fast path: the event
    is disarmed, counted in {!condition_faults} and reported through the
    fault hook, and the flow's remaining events and consolidated rule stay
    usable. *)

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
    with a metrics registry.  The per-packet {!poll_armed} on event-free
    flows touches none of this. *)

val poll_armed : t -> Sb_flow.Fid.t -> int
(** The fast path's per-packet event probe: in one table access and one
    pass, evaluates what {!check} would and returns {!armed_count} as it
    stood before the pass.  The updates that fired are then
    {!last_fired}.  Allocates nothing unless a condition fires. *)

val last_fired : t -> update list
(** The updates the latest {!poll_armed} fired, in registration order
    ([[]] when none did). *)

val remove_flow : t -> Sb_flow.Fid.t -> unit

val total_armed : t -> int

val total_global_armed : t -> int
(** Armed events whose condition was declared [~global_state:true] —
    the sharded executors consult this to decide whether cross-shard
    merge rounds can affect event firing at all. *)
