(** The scoped, mergeable state store (ROADMAP item 2, after TransNFV and
    the SFC state-management vision paper): NFs declare their state cells
    up front — name, scope, merge semantics — instead of hiding cross-flow
    state in instance fields where sharding silently partitions it.

    Three scopes:

    - {b Per_flow}: keyed by 5-tuple, owned by whichever shard owns the
      flow; migration moves the entry ({!transplant}).
    - {b Per_shard}: one private value per shard, never merged (sharding
      diagnostics, shard-local caches).
    - {b Global}: one logical value observed by every shard, kept as
      per-shard CRDT replicas ({!Kind}) that merge deterministically at
      burst boundaries.  The per-packet path touches only plain fields of
      this shard's replica — no lock, no atomic, no fence.

    Concurrency contract: each replica is owned by its shard's domain.
    {!flush} is the only operation a worker domain may call concurrently
    with other shards (it publishes this shard's contribution with a
    single-writer [Atomic.set] per cell and refreshes the cached view of
    the others).  {!merge_round}, {!merged_values}, {!transplant} and the
    counting accessors are single-threaded operations for the
    deterministic executor and post-join code.

    Read semantics of {!read_merged}: own live contribution combined with
    the other shards' contributions as of the last flush/merge point.
    Under the deterministic executor (which merges at every shard switch,
    and once more at the start and end of each run) and in a solo store
    this is exact at every packet;
    under the Domain-parallel executor it is a locally-consistent bound
    that converges at batch boundaries and is exact after the post-join
    merge. *)

type scope = Per_flow | Per_shard | Global

type t

type replica
(** One shard's view of the store: its private handles, flow cells and
    live contributions. *)

val create : ?shards:int -> unit -> t
(** A store sized for [shards] replicas (default 1).
    @raise Invalid_argument when [shards < 1]. *)

val shards : t -> int

val replica : t -> int -> replica
(** @raise Invalid_argument when the index is outside [0, shards). *)

val solo : unit -> replica
(** A fresh single-shard store's only replica — the default an NF uses
    when no shared store is supplied, making the store-backed hot path
    semantically identical to the old instance-local fields. *)

(** {1 Declarations}

    Declaring is idempotent per replica (the same handle comes back) and
    checked across replicas: redeclaring a name with a different scope or
    kind raises [Invalid_argument].  All declarations must happen at
    chain-build time, before packets flow. *)

type handle
(** A replica-local handle on a [Global] or [Per_shard] cell. *)

val global : replica -> name:string -> Kind.t -> handle

val per_shard : replica -> name:string -> Kind.t -> handle

type entry = { mutable x : int; mutable y : int; mutable set : bool }
(** A per-flow cell entry: two integer lanes and a flag, covering the
    ported NFs (Monitor: packets/bytes; DoS guard: count/last-seq/
    has-last; Maglev: backend index) with one table probe per packet.
    The NF captures the entry in its recorded state-function closure, so
    the fast path cost matches the old per-NF cell records. *)

type flow_cell

val flow : replica -> name:string -> flow_cell

(** {1 Hot-path operations} — plain field updates, no allocation. *)

val add : handle -> int -> unit
(** Counter increment (G or PN). *)

val sub : handle -> int -> unit
(** PN-counter decrement. *)

val write : handle -> stamp:int -> int -> unit
(** LWW write.  Stamps must be monotone per replica; cross-shard ties
    break on shard index. *)

val observe : handle -> int -> unit
(** Min/max register fold.
    @raise Invalid_argument on counter or LWW handles. *)

val read_merged : handle -> int
(** Own live contribution combined with the cached view of the other
    shards (see the module header for exactness). *)

val flow_entry : flow_cell -> Sb_flow.Five_tuple.t -> entry
(** Find-or-create, zeroed ([set = false]). *)

val flow_find : flow_cell -> Sb_flow.Five_tuple.t -> entry option

(** Per-packet code keys its entries without building a tuple:
    {!flow_entry_of_packet} reads the key from the packet's current
    bytes, and {!flow_find_or_packed} takes a key packed once and kept
    as ints — an event condition captures them when its NF registers
    it.  Both find exactly the entry a tuple-keyed call finds (see
    {!Sb_flow.Five_tuple.packet_pack1}). *)

val flow_entry_of_packet : flow_cell -> Sb_packet.Packet.t -> entry
(** [flow_entry fc (Five_tuple.of_packet p)], building no tuple.
    @raise Invalid_argument on a non-TCP/UDP packet, as
    {!Sb_flow.Five_tuple.of_packet}. *)

val flow_find_or_packed : flow_cell -> hash:int -> int -> int -> default:entry -> entry
(** [flow_find_or_packed fc ~hash:(Five_tuple.hash_packed k1 k2) k1 k2
    ~default] is the entry of the tuple packed as [(k1, k2)], or
    [default] when it has none: {!flow_find} without the option or the
    tuple, for the event conditions every fast-path packet polls and for
    idle expiry. *)

val no_entry : entry
(** A zeroed stand-in for an absent entry, to pass as
    {!flow_find_or_packed}'s [default] and recognise with [==].  Shared
    and never stored in a table: read it, never write it. *)

val flow_remove : flow_cell -> Sb_flow.Five_tuple.t -> unit

val flow_remove_packed : flow_cell -> hash:int -> int -> int -> unit
(** {!flow_remove} by packed key, as {!flow_find_or_packed} takes it. *)

val flow_fold : (Sb_flow.Five_tuple.t -> entry -> 'a -> 'a) -> flow_cell -> 'a -> 'a

val flow_count : flow_cell -> int

(** {1 Merge points} *)

val flush : replica -> unit
(** Publish this shard's global contributions (one single-writer atomic
    store per cell) and refresh the cached combine of the other shards'
    published slots.  The parallel executor calls this at batch
    boundaries; safe to run concurrently with other shards' flushes. *)

val merge_round : t -> unit
(** Publish then refresh every replica — the round that opens and closes
    a deterministic run and the parallel executor's post-join
    convergence.  Single-threaded callers only. *)

val hand_off : t -> from:int -> unit
(** [hand_off t ~from] publishes replica [from] and refreshes every other
    replica: a {!merge_round} for when only shard [from] ran since the
    last merge point — the deterministic executor's stretch boundary.
    Single-threaded callers only. *)

val merge_rounds : t -> int

val merge_rounds_delta : t -> int
(** Rounds since the last call — for folding into a metrics counter
    idempotently across repeated end-of-run reports. *)

val has_global : t -> bool
(** Cheap guard the executors use to skip merge machinery entirely when
    no global cell was ever declared. *)

(** {1 Whole-store readings} (single-threaded, post-run) *)

val merged_values : t -> (string * Kind.t * int) list
(** Every global cell's merged value, sorted by name — the [Report]
    "global state" section.  Exact without a prior merge round: each
    shard's published slot is joined with its live contribution. *)

type scope_counts = { per_flow : int; per_shard : int; global : int }

val cell_counts : t -> scope_counts
(** Declared cells per scope. *)

val cell_count : t -> int

val flow_entries : replica -> int
(** Live per-flow entries on this replica, over all per-flow cells. *)

val transplant : t -> src:int -> dest:int -> Sb_flow.Five_tuple.t -> int
(** Move the flow's entries in every per-flow cell from [src]'s replica
    to [dest]'s (deterministic cell order); returns entries moved.
    Called by flow migration alongside conntrack export.
    @raise Invalid_argument on out-of-range shards. *)
