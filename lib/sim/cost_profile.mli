(** The per-packet cost profile a chain run produces.

    A profile is the ordered list of {e stages} a packet visited.  On BESS
    the whole chain is one process, so the profile usually has one stage per
    module but every stage runs on the same core; on OpenNetVM each NF stage
    runs on its own core, with a ring hop between consecutive stages.  A
    stage's work is a list of items, each either serial cycles or a group of
    state-function batch costs that the SpeedyBox scheduler decided to run
    on parallel cores (§V-C2). *)

type item =
  | Serial of int  (** cycles executed in order *)
  | Parallel of int list
      (** batch costs executed concurrently on dedicated cores; the stage
          pays the synchronisation overhead plus the maximum *)

type stage = { label : string; items : item list }

type t = stage list

val stage : string -> item list -> stage

val serial_stage : string -> int -> stage

val parallel_cycles : total:int -> longest:int -> int
(** What a [Parallel] group of two or more costs occupies, given their sum
    and the longest. *)

val stage_cycles : stage -> int
(** Wall-clock cycles the stage occupies: serial items summed, each parallel
    group charged [Cycles.parallel_sync + max]. *)

val stage_core_work : stage -> int
(** Total cycles of CPU work in the stage (parallel groups summed, not
    maxed) — the denominator for CPU-efficiency numbers. *)

val total_cycles : t -> int
(** Sum of {!stage_cycles} without inter-stage transport. *)

val pp : Format.formatter -> t -> unit
