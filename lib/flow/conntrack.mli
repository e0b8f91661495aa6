(** TCP connection tracking.

    The Packet Classifier uses this state machine to decide when a flow is
    {e established} — the paper defines the initial packet of a flow as the
    first packet after the 3-way handshake — and to detect the final packet
    (FIN or RST) that triggers rule cleanup in the Global MAT and all Local
    MATs (§VI-B).  UDP flows have no handshake: their first packet is the
    initial packet and they close only by expiry. *)

type state =
  | Syn_sent  (** SYN seen from the initiator *)
  | Syn_received  (** SYN+ACK seen from the responder *)
  | Established  (** handshake complete (or UDP) *)
  | Closing  (** FIN or RST observed *)

val pp_state : Format.formatter -> state -> unit

(** What the classifier should do with the packet that caused a transition. *)
type verdict = {
  state : state;
  established_now : bool;  (** this packet completed the handshake *)
  final : bool;  (** this packet carries FIN or RST *)
}

type t
(** A tracker holding per-flow connection state, keyed by the flow's
    forward-direction 5-tuple. *)

val create : unit -> t

val observe : t -> Five_tuple.t -> Sb_packet.Packet.t -> verdict
(** [observe t key p] advances the flow's state machine with packet [p].
    [key] must be direction-normalised by the caller (the classifier keys
    both directions of a connection by the initiator's tuple).  Non-TCP
    packets jump straight to [Established].

    Adversarial timelines degrade to defined states rather than undefined
    transitions: a SYN (or SYN-ACK) retransmitted after establishment
    keeps the flow [Established] (never [established_now], so recording
    is not re-triggered); a duplicate SYN mid-handshake holds its
    position; FIN-before-SYN yields [Closing] with [final] set (cleanup
    then removes the entry); a FIN or RST on an already-closed flow is
    [Closing]+[final] again, and the cleanup it triggers is idempotent;
    data after FIN re-establishes as a fresh flow (the entry was removed
    at cleanup). *)

val observe_packed : t -> hash:int -> int -> int -> Sb_packet.Packet.t -> verdict
(** {!observe} keyed by the packed tuple and its hash (see {!Tuple_map}):
    the classifier reads the three ints from the packet once (the hash
    also makes the FID) and shares them here, so admission hashes the 13
    wire bytes exactly once and builds no tuple. *)

val prefetch : t -> int -> unit
(** [prefetch t hash] hints that the flow with this tuple hash is about to
    be observed (the burst prescan issues these a burst ahead of the
    probes).  Semantically a no-op. *)

val state : t -> Five_tuple.t -> state option

val adopt : t -> Five_tuple.t -> state -> unit
(** [adopt t key st] installs an entry exported from another tracker
    (via {!state}) — the conntrack half of a flow migration handoff, so
    an established connection stays established on its new shard. *)

val forget : t -> Five_tuple.t -> unit
(** Removes the flow, freeing its state (called on rule cleanup). *)

val forget_packed : t -> hash:int -> int -> int -> unit
(** {!forget} keyed as {!observe_packed}. *)

val active_flows : t -> int
