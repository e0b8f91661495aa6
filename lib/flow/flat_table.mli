(** The flow layer's open-addressing (linear-probe) hash table, keyed by
    ints: a runtime's flow table and the Event Table key it on the FID,
    and {!Tuple_map} is a view over it.

    A slot is an int key, a fixed number of int {e cells} (0 for FID
    tables) and an optional value, in plain arrays, so a hit costs one
    multiplicative hash and a short linear scan with no per-binding boxing
    and no bucket pointer chasing.  Deletion is backward-shift (no
    tombstones), so probe lengths stay short under insert/remove churn.

    The key {!empty_key} ([min_int]) is reserved as the free-slot marker
    and must not be used as a table key. *)

type 'a t

val empty_key : int
(** Reserved sentinel; [set]/[update] on it raise [Invalid_argument]. *)

val create : ?initial_size:int -> ?cells:int -> unit -> 'a t
(** [create ?initial_size ?cells ()] makes an empty table with [cells]
    int cells per slot (default 0); capacity is [initial_size] (default
    1024) rounded up to a power of two (minimum 8). *)

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
    key lane, plus its cell 0 in a table with cells, else its value) is
    about to be probed.  Semantically a no-op; see {!Prefetch}. *)

val prefetch_value : 'a t -> int -> cells:bool -> unit
(** As {!prefetch} for a probe that reads the value: the key lane and the
    value lane, and cell 0 only when [cells]. *)

val set_default : 'a t -> 'a -> unit
(** [set_default t v] makes [v] the value of every slot no value was
    stored in: {!claim}'s new slots read it, and removal puts it back.
    @raise Invalid_argument once a value was stored. *)

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

(** {2 Slots and cells}

    The interface {!Tuple_map} and the flow table are built on.  Slot
    arguments must come from {!find_slot}, {!find_slot2}, {!claim} or
    {!claim2} with no insert or removal since, and cell indices must be
    below the table's [cells]; neither is checked. *)

val find_slot2 : 'a t -> int -> int -> int -> int
(** [find_slot2 t key c0 c1] is the slot whose key is [key] and whose cells
    0 and 1 hold [c0] and [c1], or [-1]: for tables of at least two cells
    where distinct entries share a key. *)

val reserve : 'a t -> unit
(** Grow the table if one more entry would pass its 3/4 load factor: what
    every insert does before its probe, hit or miss.  An operation that
    may insert after a lookup calls it first too. *)

val claim : 'a t -> int -> int
(** [claim t key] is [key]'s slot, added with zeroed cells when absent.
    Store a value with {!set_value_at} before reading one, unless the
    table has a {!set_default}. *)

val claim2 : 'a t -> int -> int -> int -> int
(** As {!claim}, for the entry {!find_slot2} matches; a new entry gets
    [c0] and [c1] in cells 0 and 1. *)

val cell : 'a t -> int -> int -> int
(** [cell t s c] is cell [c] of slot [s]. *)

val set_cell : 'a t -> int -> int -> int -> unit

val cell0 : 'a t -> int -> int
(** [cell0 t s = cell t s 0], for a view to alias as its per-packet
    accessor: nothing inlines across modules, so a wrapper that fixes the
    cell index costs a second call per packet. *)

val set_cell0 : 'a t -> int -> int -> unit

val set_value_at : 'a t -> int -> 'a -> unit
(** Store the value of an occupied slot. *)

val remove_at : 'a t -> int -> unit
(** Remove the entry in an occupied slot. *)

val fold_slots : (int -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over the occupied slots in slot order (the order of {!fold}). *)

val key_at : 'a t -> int -> int
(** The key of an occupied slot. *)
