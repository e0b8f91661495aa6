(** A generic per-flow table keyed by FID.

    Local MATs, the Global MAT and the NFs all keep per-flow state; this
    module centralises the hash-table plumbing and exposes occupancy
    statistics used by the memory-vs-FID-width ablation. *)

type 'a t

val create : ?initial_size:int -> unit -> 'a t

val find : 'a t -> Fid.t -> 'a option

val prefetch : 'a t -> Fid.t -> unit
(** Hints that the fid's probe window is about to be probed; semantically
    a no-op.  See {!Flat_table.prefetch}. *)

val find_batch : 'a t -> Fid.t array -> off:int -> len:int -> 'a option array -> unit
(** Pipelined batch lookup; see {!Flat_table.find_batch}. *)

val find_exn : 'a t -> Fid.t -> 'a
(** @raise Not_found when the FID has no entry. *)

val mem : 'a t -> Fid.t -> bool

val find_slot : 'a t -> Fid.t -> int
(** The fid's slot, or [-1] when absent: the option-free lookup; see
    {!Flat_table.find_slot}. *)

val value_at : 'a t -> int -> 'a

val values : 'a t -> 'a array
(** The slot-indexed value lane; see {!Flat_table.values}. *)

val set : 'a t -> Fid.t -> 'a -> unit
(** Inserts or replaces. *)

val update : 'a t -> Fid.t -> default:'a -> ('a -> 'a) -> unit
(** [update t fid ~default f] replaces the entry with [f] of the current
    value, inserting [f default] when absent. *)

val remove : 'a t -> Fid.t -> unit

val clear : 'a t -> unit

val length : 'a t -> int

val iter : (Fid.t -> 'a -> unit) -> 'a t -> unit

val fold : (Fid.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
