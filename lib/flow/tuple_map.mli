(** Hash tables keyed by 5-tuples — the flow-state tables NFs keep
    internally (their original code keys on the tuple it sees, not on the
    SpeedyBox FID).

    A view over {!Flat_table}: each slot is the tuple's precomputed hash in
    the key lane plus the tuple packed into two int cells
    ({!Five_tuple.pack1}/{!Five_tuple.pack2}), probed linearly — a lookup
    compares ints only and never dereferences a tuple record, and the GC
    traces three flat arrays instead of one boxed key per flow.

    The [_packed] operations take the key as its packed pair and its
    {!Five_tuple.hash}: per-packet code reads all three straight from the
    packet ({!Five_tuple.packet_pack1}, {!Five_tuple.packet_pack2},
    {!Five_tuple.hash_packed}), so a probe builds no tuple, and a caller
    that keeps the ints (the classifier, for conntrack) hashes the 13
    wire bytes once per packet.  [hash] must be
    [Five_tuple.hash_packed k1 k2]; nothing checks it. *)

type key = Five_tuple.t

type 'a t

val create : int -> 'a t
(** [create n] makes an empty map sized for about [n] flows (capacity is
    rounded up to a power of two). *)

val find_opt : 'a t -> key -> 'a option

val find_slot_packed : 'a t -> hash:int -> int -> int -> int
(** [find_slot_packed t ~hash k1 k2] is the slot of the key whose packed
    pair is [(k1, k2)], or [-1] when absent: the option-free lookup for
    per-packet code.  A slot is valid until the next insert or removal. *)

val value_at : 'a t -> int -> 'a
(** The value in a slot {!find_slot_packed} returned. *)

val remove_at : 'a t -> int -> unit
(** Removes the entry in a slot {!find_slot_packed} returned. *)

val prefetch : 'a t -> int -> unit
(** [prefetch t (Five_tuple.hash key)] hints that [key]'s probe window is
    about to be probed.  Semantically a no-op; see {!Prefetch}. *)

val find_or_add : 'a t -> key -> default:(unit -> 'a) -> 'a
(** Returns the existing binding or inserts [default ()] first — a single
    probe either way. *)

val find_or_add_packed : 'a t -> hash:int -> int -> int -> default:(unit -> 'a) -> 'a
(** {!find_or_add} by packed key. *)

val replace : 'a t -> key -> 'a -> unit
(** Inserts or overwrites. *)

val replace_packed : 'a t -> hash:int -> int -> int -> 'a -> unit
(** {!replace} by packed key. *)

val mem : 'a t -> key -> bool

val remove : 'a t -> key -> unit

val remove_packed : 'a t -> hash:int -> int -> int -> unit
(** {!remove} by packed key. *)

val length : 'a t -> int

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
