open Speedybox

let ring_capacity = 8

(* Batches in flight per (src, dst) pair: [ring_capacity] in the data
   ring, one open at the producer, one being processed at the consumer.
   Returning a batch to its free ring therefore never blocks. *)
let pool_capacity = ring_capacity + 2

(* A mesh transfer unit: up to [burst] pointers to pristine trace
   originals.  The receiving shard copies them into its own scratch pool
   before processing — the copy the old feeder did serially now happens in
   parallel on the consuming domain, and no allocation happens per batch:
   buffers recycle over the free rings for the whole run.  [enq_t] stamps
   the wall-clock enqueue instant when the sink is armed, feeding the
   consumer's queueing-delay histogram. *)
type batch = { pkts : Sb_packet.Packet.t array; mutable len : int; mutable enq_t : float }

let dummy_batch = { pkts = [||]; len = 0; enq_t = 0. }

(* Per-worker mesh telemetry: plain fields written by exactly one domain
   during the run and folded into that shard's child registry after the
   join (armed sinks only — unarmed runs never touch these). *)
type wstats = {
  mutable scan_s : float;  (* wall-clock seconds batching this domain's slice *)
  misdirected : int array;  (* packets this worker steered to each other shard *)
  mutable spins : int;  (* cpu_relax iterations while pushing/acquiring *)
  queue_delay_us : Sb_obs.Histogram.t;  (* batch enqueue-to-drain delay *)
  batch_fill : Sb_obs.Histogram.t;  (* drained batch sizes *)
}

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
    (* An armed sink was split into per-domain children at plan creation;
       each worker records into its own child only, so the hot path stays
       free of cross-domain writes and the single-branch unarmed contract
       holds per domain. *)
    let armed = Sb_obs.Sink.armed cfg.Runtime.obs in
    let originals = Array.of_list packets in
    let total = Array.length originals in
    (* Every packet's shard, steered once in trace order before any domain
       starts: a serial pass over ints that copies no packet and touches
       no ring, so the workers below stay feederless. *)
    Sharded.run_steered t originals @@ fun lane ->
    let filler = Sb_packet.Packet.scratch () in
    (* The N x N mesh: [data.(src).(dst)] carries full batches from the
       domain that scanned them to the shard that owns them ([src = dst]
       for a slice's home-shard packets — one uniform path keeps buffering
       bounded by the pool, wherever the packets came from);
       [free.(src).(dst)] carries empty batches back.  Each ring has
       exactly one pushing and one popping domain. *)
    let mk_data () = Shard_ring.create ~capacity:ring_capacity ~dummy:dummy_batch in
    let data = Array.init n (fun _ -> Array.init n (fun _ -> mk_data ())) in
    let free =
      Array.init n (fun _ ->
          Array.init n (fun _ ->
              let r = Shard_ring.create ~capacity:pool_capacity ~dummy:dummy_batch in
              for _ = 1 to pool_capacity do
                if not
                     (Shard_ring.try_push r
                        { pkts = Array.make burst filler; len = 0; enq_t = 0. })
                then assert false
              done;
              r))
    in
    let accs =
      Array.init n (fun _ -> Runtime.Acc.create ~fid_bits:cfg.Runtime.fid_bits ())
    in
    let wstats =
      Array.init n (fun _ ->
          {
            scan_s = 0.;
            misdirected = Array.make n 0;
            spins = 0;
            queue_delay_us = Sb_obs.Histogram.create ();
            batch_fill = Sb_obs.Histogram.create ();
          })
    in
    let store = cfg.Runtime.state in
    let sync_state = Sb_state.Store.has_global store && Sb_state.Store.shards store = n in
    let worker d =
      let rt = Sharded.runtime t d in
      (* This shard's state-store replica: flushed (own contributions
         published, other shards' cached view refreshed) at batch
         boundaries only — single-writer atomics on a cold path, nothing
         on the per-packet path. *)
      let state_replica = if sync_state then Some (Sb_state.Store.replica store d) else None in
      let acc = accs.(d) in
      let ws = wstats.(d) in
      (* This domain's slice of the trace: it batches these packets by
         their lane entries, keeping the home-shard ones and exchanging the
         rest — there is no central feeder to serialise behind. *)
      let lo = total * d / n and hi = total * (d + 1) / n in
      let scratch = Array.init burst (fun _ -> Sb_packet.Packet.scratch ()) in
      let outbox = Array.make n dummy_batch in
      let cpos = ref 0 in
      let process_batch src b =
        (* Health broadcasts from sibling shards converge at batch
           boundaries; so do global state-cell contributions.  Mid-batch,
           a global read is a locally-consistent lower bound (own live
           contribution plus the others as of this flush): a cross-shard
           threshold fires within a batch of where the deterministic
           executor fires it, still exactly once per flow, and the
           post-join merge makes the final merged values exact. *)
        Sharded.drain_control t d;
        (match state_replica with Some r -> Sb_state.Store.flush r | None -> ());
        let len = b.len in
        if armed then begin
          Sb_obs.Histogram.observe ws.queue_delay_us
            ((Unix.gettimeofday () -. b.enq_t) *. 1e6);
          Sb_obs.Histogram.observe_int ws.batch_fill len
        end;
        for k = 0 to len - 1 do
          Sb_packet.Packet.copy_into ~src:b.pkts.(k) ~dst:scratch.(k)
        done;
        Runtime.process_burst_into rt scratch ~off:0 ~len (fun k out ->
            Runtime.Acc.consume acc b.pkts.(k) out);
        b.len <- 0;
        if not (Shard_ring.try_push free.(src).(d) b) then assert false
      in
      (* One step of in-order consumption: sources drain in slice order
         (ring [src] fully, then [src+1], ...), which is what keeps a
         flow's packets in global trace order even when they arrive from
         different slices.  [blocking] only once this domain has nothing
         left to scan. *)
      let consume_step ~blocking =
        if !cpos >= n then false
        else begin
          let src = !cpos in
          let ring = data.(src).(d) in
          match Shard_ring.try_pop ring with
          | Some b ->
              process_batch src b;
              true
          | None ->
              if Shard_ring.closed_and_drained ring then begin
                incr cpos;
                true
              end
              else if blocking then begin
                (match Shard_ring.pop ring with
                | Some b -> process_batch src b
                | None -> incr cpos);
                true
              end
              else false
        end
      in
      (* A full peer ring (or exhausted free pool) is relieved by
         consuming our own input; when there is nothing consumable either
         we SPIN, we never park while scanning.  Progress is guaranteed
         for spinners: take the minimal consume position [m] over all
         domains — some blocked domain sits at [m] with a full or closing
         inbound ring [m -> c], and because every spinner re-runs
         [consume_step] each iteration, that domain consumes.  Parking
         would break exactly this argument: a producer parked on a full
         ring is not re-checking its own inbox, and the peer wake-up for
         that inbox goes to consumer-side parkers only — two domains each
         parked pushing into the other's full ring deadlock (observed on
         bursty per-flow traces; the slice-order constraint forbids the
         obvious escape of draining a later source early). *)
      let rec push_data ring b =
        if armed then b.enq_t <- Unix.gettimeofday ();
        if not (Shard_ring.try_push ring b) then begin
          if not (consume_step ~blocking:false) then begin
            ws.spins <- ws.spins + 1;
            Domain.cpu_relax ()
          end;
          push_data ring b
        end
      in
      let rec acquire_batch ring =
        match Shard_ring.try_pop ring with
        | Some b -> b
        | None ->
            if not (consume_step ~blocking:false) then begin
              ws.spins <- ws.spins + 1;
              Domain.cpu_relax ()
            end;
            acquire_batch ring
      in
      let scan_pos = ref lo in
      let scan_chunk budget =
        let remaining = ref budget in
        while !remaining > 0 && !scan_pos < hi do
          let p = originals.(!scan_pos) in
          let s = lane.(!scan_pos) in
          if armed && s <> d then ws.misdirected.(s) <- ws.misdirected.(s) + 1;
          let ob =
            if outbox.(s) == dummy_batch then begin
              let b = acquire_batch free.(d).(s) in
              outbox.(s) <- b;
              b
            end
            else outbox.(s)
          in
          ob.pkts.(ob.len) <- p;
          ob.len <- ob.len + 1;
          if ob.len = burst then begin
            outbox.(s) <- dummy_batch;
            push_data data.(d).(s) ob
          end;
          incr scan_pos;
          decr remaining
        done
      in
      while !scan_pos < hi do
        if armed then begin
          let t0 = Unix.gettimeofday () in
          scan_chunk (4 * burst);
          ws.scan_s <- ws.scan_s +. (Unix.gettimeofday () -. t0)
        end
        else scan_chunk (4 * burst);
        ignore (consume_step ~blocking:false : bool)
      done;
      (* Flush partial batches and close this domain's outgoing rings —
         close is the termination signal; no in-band sentinel. *)
      for s = 0 to n - 1 do
        let ob = outbox.(s) in
        if ob != dummy_batch then begin
          outbox.(s) <- dummy_batch;
          if ob.len > 0 then push_data data.(d).(s) ob
        end;
        Shard_ring.close data.(d).(s)
      done;
      while !cpos < n do
        ignore (consume_step ~blocking:true : bool)
      done;
      Sharded.drain_control t d
    in
    (* Shard 0 runs on the calling thread: n shards cost n domains, not
       n + 1. *)
    let domains = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    Array.iter Domain.join domains;
    (* Workers have stopped: absorb any broadcast still queued (a fault on
       one shard's final batch), so health converges across shards. *)
    for s = 0 to n - 1 do
      Sharded.drain_control t s
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
    if armed then begin
      (* Fold the mesh and ring telemetry into each shard's child registry
         — after the join (the counters are owner-written plain fields)
         and after the last packet tick, so periodic snapshots never
         contain these wall-clock-dependent families. *)
      for d = 0 to n - 1 do
        match Sb_obs.Sink.metrics (Sharded.obs_child t d) with
        | None -> ()
        | Some m ->
            let chain_label = ("chain", Chain.name (Runtime.chain (Sharded.runtime t d))) in
            let shard_labels = [ chain_label; ("shard", string_of_int d) ] in
            let c ?(labels = shard_labels) name help v =
              Sb_obs.Metrics.Counter.add (Sb_obs.Metrics.counter m ~help ~labels name) v
            and g name help v =
              Sb_obs.Metrics.Gauge.set (Sb_obs.Metrics.gauge m ~help ~labels:shard_labels name) v
            and h name help v =
              Sb_obs.Histogram.merge_into
                (Sb_obs.Metrics.histogram m ~help ~labels:shard_labels name)
                v
            in
            let ws = wstats.(d) in
            for s = 0 to n - 1 do
              if s <> d && ws.misdirected.(s) > 0 then
                c "speedybox_mesh_misdirected_total"
                  "Packets a scanning domain steered to another shard"
                  ~labels:[ chain_label; ("src", string_of_int d); ("dst", string_of_int s) ]
                  ws.misdirected.(s)
            done;
            g "speedybox_mesh_scan_us"
              "Wall-clock microseconds this domain spent batching its trace slice"
              (ws.scan_s *. 1e6);
            c "speedybox_mesh_spins_total"
              "cpu_relax iterations while pushing to or acquiring from the mesh" ws.spins;
            h "speedybox_mesh_queue_delay_us"
              "Batch enqueue-to-drain wall-clock delay in microseconds" ws.queue_delay_us;
            h "speedybox_mesh_batch_fill" "Packets per drained mesh batch" ws.batch_fill;
            (* Inbound ring telemetry, aggregated over sources: shard [d]
               consumes rings [src -> d]. *)
            let rings = List.init n (fun src -> Shard_ring.stats data.(src).(d)) in
            let sum f = List.fold_left (fun a st -> a + f st) 0 rings in
            c "speedybox_ring_pushes_total" "Batches pushed into this shard's inbound rings"
              (sum (fun st -> st.Shard_ring.pushes));
            c "speedybox_ring_pops_total" "Batches drained from this shard's inbound rings"
              (sum (fun st -> st.Shard_ring.pops));
            c "speedybox_ring_spins_total"
              "cpu_relax iterations inside blocking ring ops on this shard's inbound rings"
              (sum (fun st -> st.Shard_ring.push_spins + st.Shard_ring.pop_spins));
            c "speedybox_ring_parks_total" "Times a side parked on this shard's inbound rings"
              (sum (fun st -> st.Shard_ring.push_parks + st.Shard_ring.pop_parks));
            g "speedybox_ring_occupancy_highwater"
              "Highest occupancy observed across this shard's inbound rings"
              (float_of_int
                 (List.fold_left (fun a st -> max a st.Shard_ring.highwater) 0 rings))
      done;
      Sharded.finish_obs t result;
      Sharded.merge_obs t
    end;
    result
  end
