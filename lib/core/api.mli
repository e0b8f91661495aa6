(** The SpeedyBox instrumentation APIs (Fig. 2 of the paper).

    An NF developer adds a handful of calls to these functions to an
    existing NF — the paper's Snort integration is 27 lines — and the NF
    becomes consolidation-ready.  The calls only {e record} behaviour; they
    never change the NF's own processing, so an instrumented NF behaves
    identically when the framework runs in [Original] mode (where the
    context has [recording = false] and every call is a no-op).

    A no-op call still has its arguments evaluated.  A state function, an
    event's closures or any other value built only to be recorded is
    therefore allocated on every walk unless its construction is guarded:
    write [if ctx.Api.recording then Api.localmat_add_sf ctx (...)], so a
    walk that does not record (a handshake packet, an [Original]-mode
    packet) builds none of it. *)

type nf_context = {
  mutable fid : Sb_flow.Fid.t;  (** the classifier-assigned FID of the packet *)
  mutable local_mat : Sb_mat.Local_mat.t;  (** this NF's Local MAT *)
  events : Sb_mat.Event_table.t;  (** the chain's Event Table *)
  mutable recording : bool;
      (** true only while the flow's initial packet traverses the chain
          under SpeedyBox *)
}
(** One context serves every NF call of an executor: the framework
    rewrites its fields before each call, so no record is built per call.
    A context is valid only for the duration of the [process] call it was
    passed to.  An NF must not retain it — in a closure it records, an
    event it registers or its own state — because by the next call it
    describes another NF and another flow.  Read the fields a recorded
    closure needs into locals first. *)

val nf_extract_fid : Sb_packet.Packet.t -> Sb_flow.Fid.t
(** [nf_extract_fid p] reads the FID metadata the Packet Classifier
    attached.  @raise Invalid_argument when the packet carries none. *)

val localmat_add_ha : nf_context -> Sb_mat.Header_action.t -> unit
(** Records a header action for the context's flow, in execution order. *)

val localmat_add_sf : nf_context -> Sb_mat.State_function.t -> unit
(** Records a state-function handler for the context's flow. *)

val register_event :
  nf_context -> condition:(unit -> bool) -> Sb_mat.Event_table.update -> unit
(** Registers a runtime event for the flow: when [condition] becomes true
    the update fires — the NF's recorded header actions (and, when given,
    state functions) are replaced with the freshly computed lists, after
    which the Global MAT re-consolidates.  Build the update with
    {!Sb_mat.Event_table.update}, naming this NF; pass
    [~global_state:true] there when the condition reads global-scope
    state-store cells (so it can become true through another shard's
    contribution at a merge point), and [~trigger:e], [e] an NF-wide
    {!Sb_mat.Event_table.epoch} built once, when every write of the state
    the condition reads either bumps [e] or happens only while the
    condition holds (the fast path then skips a condition found [false]
    until [e] moves; the default [Per_packet] evaluates it on every
    packet).  An update that depends
    on nothing per flow is best built once per NF instance and passed to
    every registration: only the condition is then built per flow.
    @raise Invalid_argument when the update names another NF. *)
