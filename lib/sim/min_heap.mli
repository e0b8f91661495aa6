(** A binary min-heap, the event queue of the stage engine ({!Stages}). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop_min : 'a t -> 'a option
(** Removes and returns the smallest element (stable order between equal
    elements is not guaranteed). *)

val peek_min : 'a t -> 'a option
