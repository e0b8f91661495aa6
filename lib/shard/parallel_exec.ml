open Speedybox

let run_trace ?(burst = Runtime.default_burst) t packets =
  if burst < 1 then invalid_arg "Parallel_exec.run_trace: burst must be positive";
  let cfg = Sharded.config t in
  if cfg.Runtime.injector <> None then
    invalid_arg
      "Parallel_exec.run_trace: fault injection requires the deterministic executor \
       (injector draw sequences are global mutable state)";
  let n = Sharded.shard_count t in
  if n = 1 then Sharded.run_trace ~burst t packets
  else begin
    let originals = Array.of_list packets in
    let total = Array.length originals in
    Sharded.run_steered t originals @@ fun lane ->
    let accs =
      Array.init n (fun _ -> Runtime.Acc.create ~fid_bits:cfg.Runtime.fid_bits ())
    in
    let store = cfg.Runtime.state in
    let sync_state = Sb_state.Store.has_global store && Sb_state.Store.shards store = n in
    (* Worker [d] walks the whole lane in trace order and takes the
       entries equal to [d], so each shard processes its packets in
       global trace order — the order the deterministic executor gives
       them — with nothing passed between domains during the run but the
       shared health table's counts and the state store's flushes.
       An armed sink was split per shard at plan creation, so each worker
       records into its own child only. *)
    let worker d =
      let rt = Sharded.runtime t d in
      (* This shard's state-store replica: flushed (own contributions
         published, other shards' cached view refreshed) at batch
         boundaries only — single-writer atomics on a cold path, nothing
         on the per-packet path. *)
      let state_replica = if sync_state then Some (Sb_state.Store.replica store d) else None in
      let acc = accs.(d) in
      let scratch = Array.init burst (fun _ -> Sb_packet.Packet.scratch ()) in
      let index = Array.make burst 0 in
      let emit k out = Runtime.Acc.consume acc originals.(index.(k)) out in
      let process len =
        (* Sibling shards' faults reach this shard's supervisor and fast
           path at batch boundaries; so do global state-cell
           contributions.  Mid-batch, a global read is a
           locally-consistent lower bound (own live contribution plus the
           others as of this flush): a cross-shard threshold fires within
           a batch of where the deterministic executor fires it, still
           exactly once per flow, and the post-join merge makes the final
           merged values exact. *)
        Runtime.sync_health rt;
        (match state_replica with Some r -> Sb_state.Store.flush r | None -> ());
        Runtime.process_burst_into rt scratch ~off:0 ~len emit
      in
      let len = ref 0 in
      for i = 0 to total - 1 do
        if lane.(i) = d then begin
          Sb_packet.Packet.copy_into ~src:originals.(i) ~dst:scratch.(!len);
          index.(!len) <- i;
          incr len;
          if !len = burst then begin
            process burst;
            len := 0
          end
        end
      done;
      if !len > 0 then process !len;
      Runtime.sync_health rt
    in
    (* Shard 0 runs on the calling thread: n shards cost n domains, not
       n + 1. *)
    let domains = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    Array.iter Domain.join domains;
    (* Workers have stopped: catch every shard up with faults recorded on
       another shard's final batch, so all shards end converged. *)
    for s = 0 to n - 1 do
      Runtime.sync_health (Sharded.runtime t s)
    done;
    (* Join gives the happens-before edge that makes every worker's
       accumulator safely readable here.  One final merge round converges
       every replica's view of the global cells, so post-run reads
       ([Report]'s global-state section, NF accessors) are exact. *)
    if sync_state then Sb_state.Store.merge_round store;
    let merged = accs.(0) in
    for s = 1 to n - 1 do
      Runtime.Acc.absorb merged accs.(s)
    done;
    let result = Runtime.Acc.result merged in
    Sharded.finish_obs t result;
    Sharded.merge_obs t;
    result
  end
