(** A runtime's one FID-keyed table: a slot holds everything the datapath
    keeps for a flow.  Four int cells hold its liveness (last-seen cycle,
    timer-wheel epoch, packed ingress tuple; epoch [0] marks none), and
    the value its {!flow}: the Global MAT rule and every NF's Local MAT
    record by chain position.  A live flow that never recorded holds the
    shared {!vacant}, so it allocates nothing.  So admission finds the
    idle-expiry touch and the rule with one probe, and each teardown is
    one probe and one removal.

    {!Local_mat} is the NF's view of one position.  A cursor remembers the
    last flow whose husk was claimed, so a recording walk probes for its
    first NF only.  Removed flows' husks are scrubbed and kept, at most 64,
    for the next recorded flow.  A slot is valid until the next insert or
    removal. *)

type record = private {
  mutable actions : Header_action.t array;
  mutable n_actions : int;
  mutable sfs : State_function.t array;
  mutable n_sfs : int;
  mutable bound : bool;  (** the NF recorded since the record was last scrubbed *)
}
(** One NF's Local MAT record of a flow, in grow-only arrays. *)

type cstep =
  | C_transform of { c : Consolidate.t; cost : int; incr_ok : bool }
  | C_wave of State_function.Batch.t array
(** One instruction of a consolidated program; see {!Global_mat.cstep}. *)

type program = { code : cstep array; static_head : int; reach : int }

type flow = {
  mutable program : program;  (** {!no_program} until consolidated *)
  mutable node : Sb_flow.Lru.node;  (** in a capped table's recency order *)
  mutable events : Event_table.event list;
  records : record array;  (** by chain position; {!no_record} until the NF records *)
}

val no_program : program

val no_record : record
(** Never written. *)

val vacant : flow
(** Never written. *)

type t

val create : ?initial_size:int -> width:int -> unit -> t
(** A table for a chain of [width] NFs. *)

val length : t -> int

val prefetch : t -> Sb_flow.Fid.t -> live:bool -> unit
(** Hints the key and value lanes, and the liveness cells when [live]. *)

val find_slot : t -> Sb_flow.Fid.t -> int
(** The flow's slot, or [-1]. *)

val claim : t -> Sb_flow.Fid.t -> int
(** The flow's slot, added with no liveness and {!vacant} when absent. *)

val flow_at : t -> int -> flow
val last_seen_at : t -> int -> int
val set_last_seen_at : t -> int -> int -> unit
val epoch_at : t -> int -> int
val pack1_at : t -> int -> int
val pack2_at : t -> int -> int
val set_live : t -> int -> last_seen:int -> epoch:int -> pack1:int -> pack2:int -> unit

val remove_at : t -> int -> unit
(** The flow leaves, liveness, program and records. *)

val vacate_at : t -> int -> unit
(** The flow's program and records go and its liveness stays; a flow with
    no liveness leaves. *)

val fold : (Sb_flow.Fid.t -> flow -> 'a -> 'a) -> t -> 'a -> 'a
val clear : t -> unit

val flow_for : t -> Sb_flow.Fid.t -> flow
(** The flow's husk, claimed (a kept or fresh one in place of {!vacant})
    unless the cursor holds it; the cursor then does. *)

val find_flow : t -> Sb_flow.Fid.t -> flow
(** The flow's value, {!vacant} when absent; claims nothing. *)

val record : flow -> int -> record

val bind : flow -> int -> record
(** The position's record of a husk from {!flow_for}, bound. *)

val push_action : record -> Header_action.t -> unit
val push_sf : record -> State_function.t -> unit
val clear_actions : record -> unit
val clear_sfs : record -> unit

val unbind : t -> Sb_flow.Fid.t -> int -> unit
(** Drops one position's record; a flow left with no program, record or
    liveness leaves. *)

val bound_count : t -> int -> int
(** Flows with a bound record at the position, by a fold. *)
