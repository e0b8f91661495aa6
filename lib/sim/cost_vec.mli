(** A packet's cost profile as a flat [int] vector, and the intern that
    turns a vector into a shared {!Cost_profile.t}.

    The datapath writes each packet's costs into one grow-only vector per
    runtime instead of building stage and item lists: a stage is its
    label id followed by its items, and an item is [Serial c] or
    [Parallel [c1..ck]].  Label ids index a table built by {!labels}.
    {!intern} then returns the profile, with its platform latency and
    service cycles, that an earlier packet with the same vector already
    built — the benchmark's chains produce a handful of distinct vectors,
    so nearly every packet shares one. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the vector (capacity is kept) and put the mark at its start. *)

val mark : t -> unit
(** Remember the current end of the vector. *)

val rewind : t -> unit
(** Drop everything written since the last {!mark} (or {!reset}) — how a
    writer replaces a stage instead of appending another, and how a
    caller discards a stage an aborted execution half wrote. *)

val stage : t -> int -> unit
(** [stage v label] opens a stage; the items written next belong to it. *)

val serial : t -> int -> unit
(** Appends a [Serial c] item to the open stage. *)

val parallel : t -> int -> unit
(** [parallel v k] opens a [Parallel] item of [k] costs; exactly [k]
    {!cost} calls must follow. *)

val cost : t -> int -> unit

val serial_stage : t -> int -> int -> unit
(** [serial_stage v label c] is a stage holding one [Serial c] item. *)

(** {2 Label ids} *)

val classifier : int

val consolidate : int

val global_mat : int

val injected_stall : int

val nf : int -> int
(** The label id of the chain's [i]-th NF (from 0). *)

val labels : string array -> string array
(** [labels nf_names] is the label table the ids above index:
    ["Classifier"], ["Consolidate"], ["GlobalMAT"], ["InjectedStall"],
    then the chain's NF names in order. *)

val to_profile : string array -> t -> Cost_profile.t
(** Decodes the vector into the stage list it encodes (fresh). *)

(** {2 The intern} *)

type entry = { profile : Cost_profile.t; latency : int; service : int }
(** A profile with its {!Platform.latency_and_service} figures.  Shared
    between every packet that produced the same vector: never mutate
    [profile]. *)

type intern

val intern_create : ?slots:int -> Platform.t -> string array -> intern
(** [intern_create platform names] is an empty direct-mapped intern
    ([slots], default 256, a power of two) decoding with label table
    [names].  Each slot keeps one vector, so memory stays bounded however
    many distinct vectors a chain produces.
    @raise Invalid_argument when [slots] is not a positive power of two. *)

val intern : intern -> t -> entry
(** The entry for the vector's current contents: the slot's own when it
    holds an equal vector (compared token by token), otherwise a freshly
    decoded one that replaces the slot's occupant. *)

val hits : intern -> int

val misses : intern -> int
