(** The Packet Classifier (§VI-B).

    For every arriving packet the classifier hashes the 5-tuple to a
    20-bit FID (configurable width) and attaches it to the packet as
    metadata that stays consistent along the chain even when NFs rewrite
    the tuple.  It also tracks connection state: the paper defines a flow's
    {e initial packet} as the first packet after the connection is
    established (post 3-way handshake), and treats FIN/RST as the final
    packet that triggers rule cleanup. *)

type classification = {
  mutable fid : Sb_flow.Fid.t;
  mutable thash : int;
      (** the ingress tuple's {!Sb_flow.Five_tuple.hash}, computed once in
          {!prepare_into} and shared by the FID fold and every conntrack
          operation *)
  mutable pack1 : int;
  mutable pack2 : int;
      (** the tuple as seen at chain ingress, before any NF rewrites it, in
          its packed form ({!Sb_flow.Five_tuple.pack1}/[pack2]), read
          straight from the packet: classification builds no tuple *)
  mutable tuple : Sb_flow.Five_tuple.t;
      (** the ingress tuple as a record, built by {!observe_into} for a
          [final] packet only — the key {!forget} takes once the packet
          has run.  Any other packet leaves it as it was. *)
  mutable established : bool;
      (** the flow is past its handshake — recording may begin when no
          consolidated rule exists yet *)
  mutable final : bool;
      (** FIN or RST: delete the flow's rules after processing *)
  mutable malformed : bool;
      (** the packet failed admission — no 5-tuple (non-TCP/UDP or a
          corrupted protocol byte), a frame cut short of its Ethernet,
          IPv4 and TCP/UDP headers ({!Sb_flow.Five_tuple.admits}), or
          stale checksums under [verify_checksums] — and must be rejected
          before reaching any NF; [fid] is [-1] and conntrack was not
          touched *)
  mutable cycles : int;  (** classifier work for this packet *)
}
(** Fields are mutable: callers classify into reusable scratch records
    ({!prepare_into}, then {!observe_into}), so classification allocates
    no record. *)

type t

val create : ?fid_bits:int -> ?verify_checksums:bool -> unit -> t
(** [fid_bits] defaults to {!Sb_flow.Fid.default_bits} (20, as the paper).
    [verify_checksums] (default [false]) additionally validates IPv4 and
    L4 checksums at admission, marking stale packets [malformed] — the
    defense against in-flight corruption, off by default because clean
    traces always verify and the check costs a payload scan per packet. *)

val fid_bits : t -> int

val rejected : t -> int
(** Packets marked [malformed] by this classifier so far. *)

val scratch : unit -> classification
(** A blank classification for use with {!prepare_into} and
    {!observe_into}. *)

val prepare_into : t -> Sb_packet.Packet.t -> classification -> unit
(** Phase one of classification, a pure function of the packet bytes:
    admission checks (a truncated frame is [malformed] and counted in
    {!rejected}), the packed key, the single per-packet FNV hash,
    the FID (written into the packet metadata) — plus a prefetch hint for
    the conntrack slot {!observe_into} will probe.  Leaves [established]/
    [final] false; conntrack is not touched.  The burst loop runs this
    over the whole burst first (phase one), so every later probe lands on
    a warming cache line. *)

val observe_into : t -> Sb_packet.Packet.t -> classification -> unit
(** Advances the flow's connection state (one conntrack observation
    reusing [thash]) and fills [established]/[final].  The burst loop runs
    it per packet, in order, right before that packet executes, so it
    sees every earlier packet's teardown.  Must only run on a
    classification {!prepare_into} left non-malformed. *)

val export_flow : t -> Sb_flow.Five_tuple.t -> Sb_flow.Conntrack.state option
(** The connection state tracked under this (direction-sensitive) tuple,
    for a flow-migration handoff.  Conntrack keys each direction of a
    connection separately, so a full handoff exports both the tuple and
    its reverse. *)

val adopt_flow : t -> Sb_flow.Five_tuple.t -> Sb_flow.Conntrack.state -> unit
(** Installs connection state exported from another classifier
    ({!export_flow}) — the receiving half of a flow-migration handoff. *)

val forget : t -> Sb_flow.Five_tuple.t -> unit
(** Drops connection state for the flow with this ingress tuple (rule
    cleanup after the final packet). *)

val forget_flow : t -> classification -> unit
(** {!forget} of the classified packet's ingress tuple, by its packed key:
    rule cleanup, quarantine and expiry-on-arrival build no tuple. *)

val forget_packed : t -> int -> int -> unit
(** [forget_packed t k1 k2] is {!forget} of the tuple packed as
    [(k1, k2)] ({!Sb_flow.Five_tuple.pack1}/{!Sb_flow.Five_tuple.pack2}):
    idle expiry forgets by the key its liveness table holds. *)

val active_flows : t -> int
