(** One NF call on the original path and the fault handling around it,
    shared by {!Runtime} and {!Staged_runtime}: the supervisor's gate, the
    injector's draw, [process] under containment, and an injected verdict
    corruption or stall.  Faults are charged to the supervisor; the rest
    ({!cycles}, {!faulted}) is left for the executor's own accounting, and
    the executor quarantines a [Contained] packet's flow. *)

type t

type outcome =
  | Forwarded
  | Dropped  (** by the NF, or by its Failed gate under [Drop_flow] *)
  | Bypassed  (** Failed under [Bypass]: the packet only transited the port *)
  | Contained  (** the call raised: the packet drops *)

val create : Sb_fault.Supervisor.t -> Chain.t -> Sb_mat.Global_mat.t -> t
(** Also routes the chain's Event-Table fault hook to {!note_fault}. *)

val run :
  t ->
  Nf.t ->
  fid:Sb_flow.Fid.t ->
  local_mat:Sb_mat.Local_mat.t ->
  recording:bool ->
  Sb_packet.Packet.t ->
  outcome
(** Allocates nothing beyond what the NF itself does: the call reuses the
    executor's one {!Api.nf_context}, and its {!Nf.result} is an
    immediate int. *)

val cycles : t -> int
(** What the last {!run} charged, overheads, stall and containment included. *)

val faulted : t -> bool
(** Whether the last {!run} charged a fault. *)

val note_fault : t -> nf:string -> unit
(** Charges a fault to [nf], then notifies the listener.  An NF that
    crosses into Failed tears the whole fast path down. *)

val contain : t -> nf:string -> unit
(** {!note_fault} for a contained raise whose packet is dropped. *)

val absorb_remote_fault : t -> nf:string -> unit
(** Advances [nf]'s health for a fault another runtime counted: the same
    teardown, no metrics and no listener. *)

val set_listener : t -> (string -> unit) -> unit
