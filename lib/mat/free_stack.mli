(** A small bounded stack of scrubbed records kept for reuse.

    The Local MATs and the Global MAT churn one record per flow at flow
    rate under idle expiry, FIN cleanup and LRU eviction.  Handing a dead
    record back here, instead of to the GC, lets the next recorded flow
    refill it without allocating, and keeps the major heap from collecting
    one dead record per flow.  The stack is bounded so that a mass flush
    does not pin an arena the size of the flush: past the cap, records are
    dropped to the GC as before.  A kept record is scrubbed first, so the
    stack pins nothing of the flow that owned it. *)

type 'a t

val create : cap:int -> scrub:('a -> unit) -> 'a -> 'a t
(** [create ~cap ~scrub filler] keeps at most [cap] records, each passed
    to [scrub] as it is kept; [filler] fills the empty slots and is never
    returned. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Scrubs and keeps the record, or leaves it to the GC untouched when the
    stack is full. *)

val pop : 'a t -> 'a
(** The most recently kept record.
    @raise Invalid_argument when the stack is empty. *)
