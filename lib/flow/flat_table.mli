(** Flat open-addressing (linear-probe) hash table keyed by ints.

    Keys and values live in two plain arrays, so a hit costs one
    multiplicative hash and a short linear scan with no per-binding boxing
    and no bucket pointer chasing.  Deletion is backward-shift (no
    tombstones), so probe lengths stay short under insert/remove churn.

    The key {!empty_key} ([min_int]) is reserved as the free-slot marker
    and must not be used as a table key. *)

type 'a t

val empty_key : int
(** Reserved sentinel; [set]/[update] on it raise [Invalid_argument]. *)

val create : ?initial_size:int -> unit -> 'a t
(** [create ?initial_size ()] makes an empty table; capacity is rounded up
    to a power of two (minimum 8). *)

val find : 'a t -> int -> 'a option
val find_exn : 'a t -> int -> 'a
val mem : 'a t -> int -> bool

val find_slot : 'a t -> int -> int
(** [find_slot t key] is the slot holding [key]'s binding, or [-1] when
    unbound — the option-free lookup for per-packet code.  A slot is valid
    until the next insert or removal. *)

val value_at : 'a t -> int -> 'a
(** The value in a slot {!find_slot} returned. *)

val values : 'a t -> 'a array
(** The slot-indexed value lane itself, valid until the next insert or
    removal (growth replaces it).  For a [float t] it is a flat float
    array, so a caller can update a {!find_slot} slot in place without
    boxing the float across a function boundary. *)

val prefetch : 'a t -> int -> unit
(** [prefetch t key] hints that [key]'s probe window (ideal slot in the
    key lane, matching value cell) is about to be probed.  Semantically a
    no-op; see {!Prefetch}. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or overwrite the binding for a key. *)

val update : 'a t -> int -> default:'a -> ('a -> 'a) -> unit
(** [update t key ~default f] rebinds [key] to [f v] if bound to [v], else
    to [f default] — a single probe, no find-then-replace double hash. *)

val remove : 'a t -> int -> unit
val clear : 'a t -> unit
val length : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
