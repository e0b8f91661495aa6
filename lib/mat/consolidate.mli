(** The header-action consolidation algorithm (§V-B).

    Input: the list of header actions the NFs of a chain recorded for a
    flow, in chain order.  Output: one consolidated action that has the same
    effect on any packet, so a subsequent packet pays for one application
    instead of N.

    The merge rules are the paper's:
    - {b Drop} — if the list contains a drop, the consolidated action is
      drop (enabling early drop at the head of the chain, redundancy R2);
    - {b Encap/Decap} — a stack simulates the header pushes and pops;
      adjacent push/pop pairs of equal headers cancel, surviving pops apply
      to headers the packet already carries;
    - {b Modify} — writes to the same field keep the later value; writes to
      different fields merge into one multi-field write (redundancy R3),
      applied with a single checksum fix-up.  Auxiliary fields (TTL, ToS,
      MAC) are applied at the end of consolidation, after the main fields.

    Field modifies target the inner (Ethernet/IPv4/L4) headers, whose
    layout is invariant under outer-header pushes and pops, so modifies
    commute with encap/decap and the split representation below loses no
    generality. *)

type t = {
  drop : bool;
      (** The packet is discarded.  The transformation fields below then
          describe the rewrites accumulated {e up to} the dropping NF, which
          [apply] still performs so upstream state functions observe the
          packet exactly as on the original path; the model charges only
          the cheap drop cost for it (early drop, redundancy R2). *)
  pops : Sb_packet.Encap_header.t list;
      (** Headers to pop from the packet, outermost first — decaps that were
          not cancelled by a preceding encap in the chain. *)
  pushes : Sb_packet.Encap_header.t list;
      (** Headers to push, in push order (the last ends up outermost). *)
  sets : (Sb_packet.Field.t * Sb_packet.Field.value) list;
      (** At most one write per field, in canonical field order with main
          fields before auxiliary ones. *)
}

val forward : t
(** The consolidation of an empty (or all-[Forward]) action list. *)

val of_actions : Header_action.t list -> t
(** @raise Invalid_argument when a decap meets a pending encap of a
    different header. *)

val seq : t list -> t
(** [seq [c1; ...; cn]] is the consolidation of the [ci]'s actions in
    order: [of_actions (a1 @ ... @ an)] whenever [ci = of_actions ai] and
    the concatenation consolidates. *)

(** {2 In-place merging}

    The merge {!of_actions} performs, one action at a time, cut into
    consecutive runs: the Global MAT walks a flow's Local MAT records once
    and closes a run wherever a state function sits between header
    actions.  Encap/decap matching spans runs, so a decap that no encap of
    its own run cancels must match the encap an earlier run left pending,
    exactly as in {!of_actions} over the whole chain.  A [Forward] costs
    nothing and an all-[Forward] run allocates nothing. *)

type run

val run : unit -> run
(** An empty chain with an open, empty run. *)

val reset : run -> unit
(** Back to an empty chain, forgetting pending encaps. *)

val add : run -> Header_action.t -> unit
(** Folds one action into the open run; actions after a [Drop] are
    ignored.
    @raise Invalid_argument on a decap/encap mismatch, as {!of_actions}. *)

val run_drops : run -> bool
(** The open run has met a [Drop]. *)

val cut : run -> t
(** The consolidation of the open run's actions ({!forward} itself when
    they amount to nothing), which then starts a new run.  The run's
    surviving encaps stay pending for the runs after it. *)

val is_drop : t -> bool

val apply : t -> Sb_packet.Packet.t -> Header_action.verdict
(** Applies the consolidated action: pops, all field writes with exactly
    one checksum fix-up, then pushes; returns [Dropped] for a dropping
    rule (after the rewrites — see {!type:t}). *)

val apply_incremental : t -> Sb_packet.Packet.t -> Header_action.verdict
(** Same observable behaviour as {!apply}, but the L4 checksum fix-up uses
    the RFC 1624 incremental update (O(fields)) instead of re-summing the
    whole segment (O(payload)).  Byte-identical to [apply] whenever the
    stored L4 checksum matched the packet contents on entry — which holds
    on the fast path as long as no upstream state function has written the
    payload (see [Global_mat]'s compile-time gating); falls back to the
    full recompute when the stored checksum is zero. *)

val cost : t -> int
(** Fast-path cycle cost of [apply]. *)

val equivalent_on : t -> Header_action.t list -> Sb_packet.Packet.t -> bool
(** [equivalent_on c actions p] checks that applying [c] to a copy of [p]
    produces the same verdict and wire bytes as applying [actions] in
    sequence — the property the test suite exercises with random packets
    and action lists. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
