(** The Maglev load balancer NF (Eisenbud et al., NSDI 2016).

    Implements the lookup-table population algorithm of §3.4 of the Maglev
    paper — each backend fills a prime-sized table by walking its own
    permutation [(offset + j*skip) mod M] — plus per-flow connection
    tracking.  When a backend fails the table is rebuilt over the survivors
    (consistent hashing keeps most entries stable) and tracked flows
    assigned to the dead backend are rerouted on their next packet.

    This NF is the paper's showcase for the Event Table (§V-A Observation
    #2): under SpeedyBox it registers a recurring per-flow event whose
    condition is "the flow's tracked backend is dead" and whose update
    replaces the recorded [modify(DIP)] with one pointing at the newly
    selected backend.

    Total backend failure is a reachability verdict, not an error: with no
    backend alive, packets get a [Drop] verdict (recorded, so fast paths
    early-drop) and the flow's assignment is released; the same recurring
    event re-selects a backend — and rewrites the drop rule back to a
    forward — once one is restored. *)

(** How the lookup table is populated. *)
type algorithm =
  | Consistent  (** the Maglev §3.4 permutation algorithm *)
  | Mod_hash
      (** the naive baseline: slot [i] owned by alive backend
          [i mod n_alive] — any membership change reshuffles almost every
          slot, which the disruption ablation quantifies *)

type t

val create :
  ?name:string ->
  ?table_size:int ->
  ?algorithm:algorithm ->
  ?cells:Sb_state.Store.replica ->
  backends:(string * Sb_packet.Ipv4_addr.t) list ->
  unit ->
  t
(** [table_size] must be prime (default 251; Maglev production uses 65537);
    [algorithm] defaults to [Consistent].  [cells] is the shard's replica
    of a shared state store: conntrack becomes a [Per_flow] cell
    ([NAME.assign]) that migrates with the flow, and each backend gets a
    [Global] PN-counter of assignments ([NAME.conns.B]) and a [Global]
    LWW health register ([NAME.alive.B]).  Defaults to a private
    single-shard store.
    @raise Invalid_argument on a non-prime size, empty backend list or
    duplicate backend names. *)

val name : t -> string

val nf : t -> Speedybox.Nf.t

val fail_backend : t -> string -> unit
(** Marks the backend dead and rebuilds the lookup table.
    @raise Invalid_argument on an unknown name. *)

val restore_backend : t -> string -> unit

val alive_backends : t -> string list

val lookup_table : t -> string array
(** The current table as backend names, for inspecting balance and
    disruption properties in tests. *)

val backend_of_flow : t -> Sb_flow.Five_tuple.t -> string option
(** The tracked assignment, if any (may point at a dead backend until the
    flow's next packet reroutes it). *)

val flow_hash : Sb_flow.Five_tuple.t -> int
(** The salted FNV-1a flow hash that indexes the lookup table (the Maglev
    paper's 5-tuple hash), taken over the text {!Sb_flow.Five_tuple.pp}
    prints. *)

val tracked_flows : t -> int

val backend_conns : t -> string -> int
(** Flows currently assigned to the backend, merged across shards
    (PN-counter: reroutes and releases retract).
    @raise Invalid_argument on an unknown name. *)

val backend_health : t -> string -> bool
(** The merged LWW health verdict for the backend — the last
    fail/restore write anywhere wins.
    @raise Invalid_argument on an unknown name. *)

val dump : t -> string
