(** The state-function parallelism analysis of §V-C2 / Table I.

    State functions inside one batch always run sequentially (they encode
    one NF's internal logic); batches from different NFs may run in
    parallel when they cannot race on the packet payload.  Header
    dependencies never arise on the fast path because the Global MAT has
    already merged all header actions, so payload access is the only
    hazard.

    Two batches are parallelisable exactly when neither writes the payload
    while the other touches it: both-READ is safe, either-IGNORE is safe,
    and any WRITE paired with a READ or WRITE is unsafe.  (The row/column
    rendering of Table I in the paper is ambiguous; its accompanying text —
    "if batch1 writes the payload, they cannot be parallelized unless
    batch2 ignores the payload" — pins down this sound rule, which is what
    we implement.) *)

type policy =
  | Sequential  (** never parallelise (the ablation baseline) *)
  | Table_one  (** the paper's dependency-aware rule *)
  | Always_parallel
      (** unsound: parallelise everything; kept to let the equivalence
          tests demonstrate why the analysis is needed *)

val compatible : State_function.payload_mode -> State_function.payload_mode -> bool
(** [compatible m1 m2] — may two batches with these modes share a wave? *)

val plan : policy -> State_function.payload_mode list -> int list list
(** [plan policy modes] groups batch indices (in chain order) into
    sequential {e waves}; all batches inside a wave execute concurrently.
    Order is preserved: waves partition [0 .. n-1] into consecutive runs,
    and a batch joins the current wave only when compatible with every
    batch already in it. *)

val joins : policy -> State_function.payload_mode -> State_function.payload_mode -> bool
(** [joins policy wave mode] — does a batch of [mode] join the open wave,
    whose aggregate mode is [wave]?  {!plan} is this rule applied greedily
    left to right, so a caller that meets batches one at a time forms the
    same waves without building the mode list. *)

val join_mode :
  State_function.payload_mode -> State_function.payload_mode -> State_function.payload_mode
(** The wave's aggregate mode once a batch of the second mode joins it: the
    higher-priority of the two. *)

val pp_plan : Format.formatter -> int list list -> unit
