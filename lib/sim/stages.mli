(** The discrete-event stage engine: a pipeline of single-server stages,
    each fed by a bounded FIFO ring, under one event heap.

    OpenNetVM runs one NF per core and moves packets between cores over
    finite rings; this engine models exactly that.  A stage is named by a
    label and created on first use.  An arrival enqueues into its stage's
    ring, tail-dropping when the ring is full (like DPDK RX queues); an
    idle stage starts serving its ring head at once; at completion the
    caller's work decides whether the job leaves the pipeline or moves on
    to another stage.  A completion sorts before an arrival at the same
    cycle, so a departure frees its ring slot for a simultaneous arrival;
    arrivals at one cycle keep their submission order.

    What a stage does is the caller's: the staged executor
    ({!Speedybox.Staged_runtime}) runs real NFs, the load sweep replays
    cost profiles. *)

type 'a next =
  | Forward of string * 'a  (** enqueue at the named stage *)
  | Depart  (** the job leaves the pipeline *)

type ('a, 'o) work = {
  serve : string -> 'a -> now:int -> hop:int -> int * 'o;
      (** [serve label job ~now ~hop] starts [job] on stage [label]:
          returns the service cycles (to include [hop], the ring access
          charged to this service; see [burst] below) and an outcome kept
          until completion *)
  complete : 'a -> 'o -> now:int -> 'a next;  (** at the service's end *)
  overflow : 'a -> unit;  (** the job was tail-dropped by a full ring *)
}

val run : ring_capacity:int -> burst:int -> ('a, 'o) work -> (int * string * 'a) list -> unit
(** [run ~ring_capacity ~burst work arrivals] feeds [(cycle, stage, job)]
    arrivals into the pipeline and runs it until every job has departed
    or been dropped.

    [burst = 1]: a stage serves its ring head in place (the job holds its
    slot until completion, so [ring_capacity] bounds waiting plus
    in-service jobs), and a forwarded job reaches its next ring
    {!Cycles.ring_hop_onvm} cycles after completion; [hop] is 0.
    [burst > 1]: an idle stage with nothing drained drains up to [burst]
    jobs from its ring in one access, passing [~hop:ring_hop_onvm] to the
    first job of the drain and 0 to the rest, and forwarding is free — the
    receiving stage's drain pays the ring access, as OpenNetVM's
    dequeue-burst does.
    @raise Invalid_argument when [burst < 1], [ring_capacity < 1] or the
    arrivals are not in non-decreasing cycle order. *)
