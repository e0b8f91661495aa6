(** The Global MAT: the consolidated fast path (§V).

    After the initial packet of a flow has traversed the original chain and
    every Local MAT holds the flow's record, [consolidate] merges them
    {e positionally}: walking the chain, contiguous runs of header actions
    collapse into one {!Consolidate.t} each, and the state-function batches
    between them group into parallel waves by the Table I analysis.
    Identity transforms (all-forward runs) are elided, so chains whose NFs
    only forward leave their batches adjacent and fully parallelisable —
    while a state function positioned {e before} a modifying NF still
    observes the packet exactly as it did on the original path (headers
    are rewritten by the transform that follows it, not before it).
    [execute] then processes a subsequent packet entirely inside the
    Global MAT: poll the rule's armed events, then interleave transforms
    and waves.

    Wave execution models parallel cores deterministically with snapshot
    semantics: every batch of a wave reads the payload as it was when the
    wave started, and payload writes merge back afterwards (later batches
    win).  Under the sound [Table_one] policy this is indistinguishable
    from sequential execution — no wave mixes a writer with a reader — but
    under the unsound [Always_parallel] ablation the equivalence tests can
    observe the race.

    Consolidation is one pass over the flow's Local MAT records in chain
    order that writes a flat fast-path program directly: an instruction
    array of merged transforms, each carrying its precomputed cost, and
    waves pre-resolved into batch arrays.  A subsequent packet pays a
    single rule lookup plus straight-line execution — no list walks, no
    plan indexing, no per-packet cost recomputation, and no snapshot
    allocation (wave snapshot/merge reuses grow-only scratch buffers owned
    by the table).  The program is the rule: the batches, the wave plan,
    the printed form and the position-insensitive merge are all derived
    from it on demand.  A flow's events live in its rule: consolidation
    after a recording walk moves them out of the Event Table, the fast path
    polls the rule's own list, and teardown drops them with the rule.
    Event firing reconsolidates the flow's program in place, preserving
    Event Table semantics exactly.  Under a [max_rules] cap, rule recency
    is tracked in an intrusive doubly-linked list ({!Sb_flow.Lru}), making
    both the per-packet touch and the at-capacity eviction O(1); an
    uncapped table keeps no recency list. *)

type rule

(** One instruction of a rule's program. *)
type cstep =
  | C_transform of {
      c : Consolidate.t;  (** one merged run of header actions, never the identity *)
      cost : int;  (** [Consolidate.cost c] *)
      incr_ok : bool;
          (** no Write-mode batch runs before it, so the incremental
              checksum fix-up is exact *)
    }
  | C_wave of State_function.Batch.t array
      (** batches that run as one parallel wave; consecutive waves form
          one wave group *)

val rule_code : rule -> cstep array
(** The program the fast path executes, in chain order. *)

val rule_static_head : rule -> int
(** The per-packet serial cycles that do not depend on events: fast-path
    lookup, the per-source-action walk and, without a transform, one base
    forward. *)

val rule_reach : rule -> int
(** How many NFs, in chain order, the rule's program spans: up to and
    including the NF whose recorded drop ends it, else the whole chain.
    The fast path consults the fault injector for these NFs only, as a
    walk would. *)

val rule_events : rule -> Event_table.event list
(** The flow's events, in registration order (disarmed ones included),
    moved into the rule when its recording walk consolidated. *)

val rule_action : rule -> Consolidate.t
(** The position-insensitive merge of every action the rule recorded
    ([Consolidate.of_actions] over their concatenation), computed on
    demand — introspection only (execution interleaves per-position
    transforms). *)

val rule_batches : rule -> State_function.Batch.t list
(** Every state-function batch, in chain order. *)

val rule_plan : rule -> int list list
(** The wave grouping over {!rule_batches} (indices are global across the
    rule's wave groups; batches separated by a non-identity transform never
    share a wave). *)

val rule_transform_count : rule -> int
(** Number of non-identity transforms the fast path applies. *)

(** How [execute] runs a consolidated rule.  [Compiled] (the default) runs
    the flat program; [Interpreted] rebuilds the program's positional step
    list (transforms and wave groups with their plans) and walks it step
    by step.  Both produce bit-identical verdicts,
    packet bytes and cost vectors — the [Interpreted] mode exists as the
    reference the differential tests compare the compiler against. *)
type exec_mode = Compiled | Interpreted

type t

val create :
  ?policy:Parallel.policy ->
  ?max_rules:int ->
  ?exec:exec_mode ->
  ?on_evict:(Sb_flow.Fid.t -> unit) ->
  ?obs:Sb_obs.Sink.t ->
  ?costs:Sb_sim.Cost_vec.t ->
  unit ->
  t
(** [max_rules] caps the consolidated-rule table (unbounded by default):
    inserting beyond the cap evicts the least-recently-used flow's rule —
    the evicted flow's next packet simply re-records, like a megaflow
    cache miss.  Only a capped table keeps the recency order.  [on_evict] lets the runtime tear down the flow's Local
    MAT records alongside.  [obs] (default {!Sb_obs.Sink.null}) receives
    [speedybox_consolidations_total] and, on Event Table firings,
    [speedybox_event_rewrites_total{nf}] plus an ["event-rewrite"] trace
    span and a flow-timeline entry; nothing is recorded per packet.
    [costs] is the vector {!execute_rule} writes each packet's GlobalMAT
    stage into — the owning runtime's (a fresh one by default).
    @raise Invalid_argument when [max_rules < 1]. *)

val evictions : t -> int
(** Rules evicted by the LRU cap so far. *)

val consolidate : ?events:Event_table.t -> t -> Sb_flow.Fid.t -> Local_mat.t list -> int
(** [consolidate t fid locals] (re)builds the flow's consolidated rule from
    the chain's Local MATs (in chain order) and returns the cycle cost of
    the consolidation work (charged to the initial packet's walk).  With
    [events] (the end of a recording walk), the flow's in-flight events
    move from that table into the rule, after any it holds; without it
    (an event's re-consolidation) the rule keeps its events.
    @raise Invalid_argument when a recorded decap does not match the
    encap pending before it; the flow's rule is then left as it was. *)

val find : t -> Sb_flow.Fid.t -> rule option

val no_rule : rule
(** The sentinel {!lookup} returns for a flow without a rule; compare with
    [==].  It is never installed; {!execute_rule} raises [Invalid_argument]
    when handed it. *)

val lookup : t -> Sb_flow.Fid.t -> rule
(** {!find} without the option: the flow's rule, or {!no_rule}.  The
    per-packet form. *)

val prefetch : t -> Sb_flow.Fid.t -> unit
(** [prefetch t fid] hints that [fid]'s rule-table probe window is about
    to be probed (the burst prescan issues one per packet, a burst ahead
    of the lookups).  Semantically a no-op. *)

val mem : t -> Sb_flow.Fid.t -> bool

val remove_flow : t -> Sb_flow.Fid.t -> unit

val adopt : t -> Sb_flow.Fid.t -> rule -> unit
(** [adopt t fid src] installs a copy of [src] — a rule exported (via
    {!find}) from {e another} table — as [fid]'s rule here: the Global-MAT
    half of a flow-migration handoff.  The source record is left untouched
    (its intrusive LRU node belongs to the source table); the caller is
    expected to [remove_flow] it from the source afterwards.  Replaces any
    existing binding and honours this table's [max_rules] cap.  The copy
    carries no events: the source's are bound to the source chain. *)

val clear : t -> unit

val flow_count : t -> int

val fold : (Sb_flow.Fid.t -> rule -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the installed rules (unspecified order). *)

val consolidation_count : t -> int
(** Total number of consolidations performed (initial + event-driven). *)

(** Rule-table memory accounting, for the sharing ablation: many flows
    through the same chain consolidate to identical header actions, so a
    hash-consed table would store far fewer distinct actions than rules. *)
type memory_stats = {
  rules : int;
  distinct_actions : int;  (** structurally distinct consolidated actions *)
  field_writes : int;  (** total field writes across all rules *)
  batches : int;  (** total state-function batches across all rules *)
}

val memory_stats : t -> memory_stats

val execute_rule :
  ?egress:int ->
  t ->
  Event_table.t ->
  Local_mat.t list ->
  Sb_flow.Fid.t ->
  rule ->
  Sb_packet.Packet.t ->
  Header_action.verdict
(** [execute_rule t events locals fid rule p] processes a subsequent packet
    on the fast path using an already-looked-up [rule], so a caller that
    routed on {!find} pays exactly one table access per packet.  The
    rule's events are polled through [events] (the chain's Event Table,
    which counts evaluations and reports firings and condition faults)
    without a table probe.  Fired events rewrite the Local MATs and
    trigger re-consolidation (updating [rule] in place) before the packet
    is processed, so the update takes effect immediately (§III).

    The packet's GlobalMAT stage is written to {!costs} after its mark
    ({!Sb_sim.Cost_vec.rewind} first, so repeated calls replace the stage
    rather than grow the vector): the head item (lookup, per-action walk,
    event checks and firings), one item per program step — a merged
    transform's cost, or a wave's, [Parallel] when it runs two or more
    batches — and, for forwarded packets only, [Serial egress] (dropped
    packets release their descriptor without paying egress work).  If the
    execution raises, the stage may be partly written.  Returns the
    verdict; {!events_fired} gives the firings.  Raises [Invalid_argument]
    when [rule] is {!no_rule}. *)

val events_fired : t -> int
(** Event Table updates the last {!execute_rule} applied. *)

val costs : t -> Sb_sim.Cost_vec.t
(** The cost vector {!execute_rule} writes into. *)

val execute :
  ?egress:int ->
  t ->
  Event_table.t ->
  Local_mat.t list ->
  Sb_flow.Fid.t ->
  Sb_packet.Packet.t ->
  Header_action.verdict option
(** [execute t events locals fid p] resets {!costs}, then is {!find}
    followed by {!execute_rule}; [None] when the flow has no consolidated
    rule yet. *)

val pp_rule : Format.formatter -> rule -> unit
