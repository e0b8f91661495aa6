(** Hash tables keyed by 5-tuples — the flow-state tables NFs keep
    internally (their original code keys on the tuple it sees, not on the
    SpeedyBox FID).

    Flat structure-of-arrays layout: each slot is a precomputed hash in an
    int lane plus the tuple packed into two adjacent int cells
    ({!Five_tuple.pack1}/{!Five_tuple.pack2}), probed linearly — a lookup
    compares ints only and never dereferences a tuple record, and the GC
    traces three flat arrays instead of one boxed key per flow.

    The [_h] variants take the key's {!Five_tuple.hash}, letting a caller
    that already computed it (the classifier hashes each packet's tuple
    exactly once) skip rehashing the 13 wire bytes per operation. *)

type key = Five_tuple.t

type 'a t

val create : int -> 'a t
(** [create n] makes an empty map sized for about [n] flows (capacity is
    rounded up to a power of two). *)

val find_opt : 'a t -> key -> 'a option

val find_or : 'a t -> key -> default:'a -> 'a
(** The bound value, or [default] when absent — {!find_opt} without the
    option, for per-packet code. *)

val find_opt_h : 'a t -> hash:int -> key -> 'a option
(** [find_opt_h t ~hash:(Five_tuple.hash key) key = find_opt t key]. *)

val find_slot_h : 'a t -> hash:int -> key -> int
(** The key's slot, or [-1] when absent: the option-free form of
    {!find_opt_h} for per-packet code.  A slot is valid until the next
    insert or removal. *)

val value_at : 'a t -> int -> 'a
(** The value in a slot {!find_slot_h} returned. *)

val prefetch : 'a t -> int -> unit
(** [prefetch t (Five_tuple.hash key)] hints that [key]'s probe window is
    about to be probed.  Semantically a no-op; see {!Prefetch}. *)

val find_batch : 'a t -> key array -> off:int -> len:int -> 'a option array -> unit
(** [find_batch t keys ~off ~len out] writes
    [out.(k) <- find_opt t keys.(off+k)] for [k < len] — pipelined: a
    hash+prefetch pass over the whole range, then a probe pass.
    Bit-identical to [len] scalar {!find_opt}s.
    @raise Invalid_argument when the range or [out] is too short. *)

val find_or_add : 'a t -> key -> default:(unit -> 'a) -> 'a
(** Returns the existing binding or inserts [default ()] first — a single
    probe either way. *)

val replace : 'a t -> key -> 'a -> unit
(** Inserts or overwrites. *)

val replace_h : 'a t -> hash:int -> key -> 'a -> unit
(** {!replace} with the key's hash supplied by the caller. *)

val mem : 'a t -> key -> bool

val remove : 'a t -> key -> unit

val remove_h : 'a t -> hash:int -> key -> unit
(** {!remove} with the key's hash supplied by the caller. *)

val clear : 'a t -> unit

val length : 'a t -> int

val iter : (key -> 'a -> unit) -> 'a t -> unit

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
