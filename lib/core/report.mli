(** Human-readable reports over runtime results: the run summary the CLI
    prints, and a chain-state inspection for debugging deployments. *)

val run_summary :
  ?label:string -> Runtime.t list -> Runtime.run_result -> string
(** A multi-line summary of a run over a plan's shard runtimes (one for
    an unsharded run): packet/verdict/path counters, latency percentiles,
    model throughput, Global MAT occupancy and sharing, flow processing
    times (the sentinel non-TCP/UDP bucket appears as a named "non-flow"
    line, never as a raw FID), and eviction/expiry counters when those
    features are active.  Occupancy and counters sum over the shards; a
    plan of more than one shard also prints the machine's available core
    count (what bounds the Domain-parallel executor).  The fault block
    prints once for the plan, from the shards' shared health table and
    injector ({!Sb_fault.Supervisor.summary}).  When the chain declared
    state-store cells, a "global state" section lists every global cell's
    merged value, sorted by name — byte-identical for any shard count
    over the same traffic. *)

(** One shard's end-of-run figures, as the sharded runtime reports them
    (Report sits below the shard library, so it takes plain rows). *)
type shard_row = {
  shard : int;
  packets : int;  (** packets steered to this shard *)
  flows : int;  (** flows the shard's directory owned at end of run *)
  rules : int;  (** consolidated rules installed at end of run *)
  migrated_in : int;
  migrated_out : int;
  state_entries : int;
      (** live per-flow state-store entries held by this shard's replica
          of the shared store ([0] when no store is shared) *)
  faults : int;
      (** faults this shard's supervisor contained, corrupted or stalled
          ({!Sb_fault.Supervisor.total_faults}) *)
}

val shard_summary : shard_row list -> string
(** A per-shard table plus a peak/mean balance figure (for >1 shard).
    Migrations, state entries and faults show only when nonzero. *)

val staged_summary : rate:float -> Staged_runtime.result -> string
(** The staged executor's summary at [rate] Mpps offered: verdicts (the
    classifier's rejections apart from the NFs' drops), paths,
    reordering, sojourn and events, then the fault block of
    {!run_summary}. *)

val chain_state : Chain.t -> string
(** Per-NF state digests, indented under the chain name. *)

val flow_rules : Runtime.t -> limit:int -> string
(** The first [limit] consolidated rules (FID and fast-path structure),
    for inspecting what the Global MAT actually installed. *)

val stage_breakdown : Runtime.run_result -> string
(** Where the cycles went: per-stage packet counts, mean cycles and share
    of the total, sorted by total cycles descending. *)
