(** The Local Match-Action Table each NF is instrumented with (§IV).

    As the initial packet of a flow traverses the chain, the NF calls the
    SpeedyBox APIs, which append the header actions and state functions it
    performed for that flow to its Local MAT record, in execution order
    (order preservation is what keeps the consolidated path logically
    equivalent, §IV-B).

    A Local MAT is the NF's view of its chain position in a
    {!Flow_table}: the records of one flow, one per NF, share the flow's
    slot with its liveness and its Global MAT rule. *)

type rule = Flow_table.record
(** One flow's record.  A record from {!find} or {!lookup} is valid only
    until its flow is removed: {!remove_flow} scrubs it and keeps it for
    the next flow the table records, which refills it in place.  Read
    what you need from it before the flow can go. *)

val rule_actions : rule -> Header_action.t list
(** Header actions in the order the NF added them (a fresh list). *)

val rule_state_functions : rule -> State_function.t list
(** State functions in the order the NF added them (the queue of §IV-B),
    as a fresh list. *)

val action_count : rule -> int

val action : rule -> int -> Header_action.t
(** [action r i] is the [i]th action the NF added, from 0: consolidation
    reads a record by index and copies nothing.
    @raise Invalid_argument unless [0 <= i < action_count r]. *)

type t

val create : nf:string -> t
(** A standalone Local MAT, in a table of its own. *)

val chain : string list -> t list
(** One Local MAT per NF name, in order, over one shared table. *)

val nf_name : t -> string

val table : t -> Flow_table.t

val add_header_action : t -> Sb_flow.Fid.t -> Header_action.t -> unit

val add_state_function : t -> Sb_flow.Fid.t -> State_function.t -> unit

val replace_actions : t -> Sb_flow.Fid.t -> Header_action.t list -> unit
(** Used by the Event Table when a fired event rewrites the NF's recorded
    behaviour for a flow (e.g. modify -> drop in the DoS example, Fig. 3). *)

val replace_state_functions : t -> Sb_flow.Fid.t -> State_function.t list -> unit
(** Event-driven rewrite of the NF's recorded state functions (an NF that
    flips a flow to drop also stops running its per-packet functions). *)

val find : t -> Sb_flow.Fid.t -> rule option

val lookup : t -> Sb_flow.Fid.t -> rule
(** {!find} without the option: a flow the NF never recorded reads as a
    record with no actions and no state functions, which consolidates
    exactly as an absent one. *)

val mem : t -> Sb_flow.Fid.t -> bool

val remove_flow : t -> Sb_flow.Fid.t -> unit
(** Unbinds the flow's record, scrubbed of its actions and state
    functions; the flow's husk keeps it for reuse. *)

val clear : t -> unit
(** Unbinds every record. *)

val flow_count : t -> int

val pp_rule : Format.formatter -> rule -> unit
