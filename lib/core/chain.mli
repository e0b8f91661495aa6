(** A service chain: an ordered list of NFs with their Local MATs and the
    shared Event Table. *)

type t

val create : name:string -> Nf.t list -> t
(** Builds a chain, instantiating one Local MAT per NF (in chain order),
    all views of one {!Sb_mat.Flow_table}, and one Event Table for the
    chain.
    @raise Invalid_argument on an empty NF list or duplicate NF names
    (event updates address Local MATs by NF name). *)

val name : t -> string

val nfs : t -> Nf.t list

val length : t -> int

val local_mats : t -> Sb_mat.Local_mat.t list
(** Same order as [nfs]. *)

val events : t -> Sb_mat.Event_table.t

val consolidable : t -> bool
(** False when any NF opted out of consolidation (§IV-A3); the runtime
    then keeps every packet on the original path. *)

val state_digest : t -> string
(** Concatenated per-NF state digests, for equivalence comparison. *)

val remove_flow : t -> Sb_flow.Fid.t -> unit
(** Drops the events the flow's in-flight recording walk registered, and
    leaves the NFs' own state alone (FIN cleanup, quarantine, rule
    eviction, migration).  The flow's Local MAT records share its slot of
    the runtime's flow table and leave with it
    ({!Sb_mat.Global_mat.remove_flow}, {!Sb_mat.Global_mat.drop_rule}),
    as do events already consolidated into its rule. *)

val expire_flow : t -> Sb_flow.Fid.t -> int -> int -> unit
(** [expire_flow t fid k1 k2] is {!remove_flow}, then each NF's
    {!Nf.t.remove_flow} hook with the flow's packed ingress key [k1 k2],
    so conntrack-style per-flow NF state is reclaimed when a flow goes
    idle.  Only the idle-expiry path calls it. *)
