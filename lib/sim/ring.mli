(** Bounded single-producer single-consumer ring buffer.

    OpenNetVM interconnects NF cores with shared-memory rings carrying
    packet descriptors; the stage engine ({!Stages}) feeds each simulated
    stage from one of these, and the property tests check FIFO order and
    capacity behaviour. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] enqueues [x]; returns [false] (dropping nothing) when the
    ring is full, like DPDK's [rte_ring_enqueue]. *)

val pop : 'a t -> 'a option

val peek : 'a t -> 'a option

val clear : 'a t -> unit
