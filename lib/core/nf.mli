(** The network-function abstraction the framework chains together.

    An NF is its original packet-processing code plus the SpeedyBox
    instrumentation calls.  [process] runs the NF's full logic on a packet
    — parsing, classification, state updates, header rewriting — and
    returns the verdict together with the cycles the work cost under the
    {!Sb_sim.Cycles} model.  The instrumentation records into the context's
    Local MAT only while [ctx.recording] is set; the context itself is
    valid only during the call and must not be retained
    ({!Api.nf_context}). *)

type result = private int
(** A verdict and its cycles, packed into one immediate int so that an NF
    call allocates no result: [cycles lsl 1] with the low bit set for
    [Dropped].  Build one with {!forwarded} or {!dropped}; read it with
    {!verdict} and {!cycles}. *)

type t = {
  name : string;
  process : Api.nf_context -> Sb_packet.Packet.t -> result;
  state_digest : unit -> string;
      (** A stable rendering of the NF's internal state (counters, logs,
          mappings), compared by the equivalence checker; [""] for
          stateless NFs. *)
  remove_flow : int -> int -> unit;
      (** [remove_flow k1 k2] drops any per-flow state the NF holds for
          the ingress tuple packed as [k1 = Five_tuple.pack1 tuple] and
          [k2 = Five_tuple.pack2 tuple] — the key the runtime's liveness
          table holds, so expiry builds no tuple; probe with
          [Five_tuple.hash_packed k1 k2].  Called when the runtime's idle
          timer expires a flow, so stateful NFs (conntrack-style
          counters) stay bounded under flow churn.  Best-effort: an NF
          that keys its state by a tuple some upstream NF rewrote will not
          find the ingress tuple and keeps the entry.  Defaults to a
          no-op. *)
  consolidable : bool;
      (** The paper's applicable-scope boundary (§IV-A3): an NF whose
          per-packet behaviour is not determined per flow — buffering NFs,
          samplers, anything sequence-dependent — must opt out.  A chain
          containing a non-consolidable NF never builds a fast path (every
          packet walks the chain), keeping it correct at the cost of the
          speedup; instrumenting such an NF naively instead produces wrong
          fast-path behaviour, which the scope tests demonstrate. *)
}

val forwarded : int -> result
(** [forwarded cycles]: the NF passed the packet on after [cycles]. *)

val dropped : int -> result

val verdict : result -> Sb_mat.Header_action.verdict

val cycles : result -> int

val make :
  name:string ->
  ?state_digest:(unit -> string) ->
  ?remove_flow:(int -> int -> unit) ->
  ?consolidable:bool ->
  (Api.nf_context -> Sb_packet.Packet.t -> result) ->
  t
(** [consolidable] defaults to [true]; [remove_flow] to a no-op. *)
