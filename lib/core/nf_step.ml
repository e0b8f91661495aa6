type outcome = Forwarded | Dropped | Bypassed | Contained

type t = {
  sup : Sb_fault.Supervisor.t;
  chain : Chain.t;
  global : Sb_mat.Global_mat.t;
  ctx : Api.nf_context;  (* rewritten before each NF call *)
  mutable listener : (string -> unit) option;
  (* What the last [run] charged besides its outcome. *)
  mutable cycles : int;
  mutable faulted : bool;
}

(* A Failed NF invalidates every consolidated rule embedding its closures:
   tear the whole fast path down (flows re-record under the failure
   policy).  Local MAT records and events go with each rule so no stale
   per-NF state survives the failure. *)
let flush_fast_state t =
  let fids = Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) t.global [] in
  List.iter
    (fun fid ->
      Chain.remove_flow t.chain fid;
      Sb_mat.Global_mat.remove_flow t.global fid)
    fids

let on_transition t = function
  | Sb_fault.Health.To_failed -> flush_fast_state t
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ()

let note_fault t ~nf =
  on_transition t (Sb_fault.Supervisor.record_fault t.sup ~nf);
  match t.listener with Some f -> f nf | None -> ()

let absorb_remote_fault t ~nf = on_transition t (Sb_fault.Supervisor.absorb_fault t.sup ~nf)

let contain t ~nf =
  note_fault t ~nf;
  Sb_fault.Supervisor.record_contained t.sup;
  Sb_fault.Supervisor.record_faulted_packet t.sup

let create sup chain global =
  let ctx =
    {
      Api.fid = -1;
      local_mat = List.hd (Chain.local_mats chain);
      events = Chain.events chain;
      recording = false;
    }
  in
  let t = { sup; chain; global; ctx; listener = None; cycles = 0; faulted = false } in
  (* Raising event conditions are contained inside the Event Table; route
     them here so they still advance the registering NF's health. *)
  Sb_mat.Event_table.set_fault_hook (Chain.events chain) (fun nf _exn ->
      Sb_fault.Supervisor.record_contained sup;
      note_fault t ~nf);
  t

let set_listener t f = t.listener <- Some f

let cycles t = t.cycles

let faulted t = t.faulted

(* A raise (injected or organic) in the NF's call: the fault is the NF's,
   the packet drops and the caller quarantines the flow. *)
let contained t name overhead =
  contain t ~nf:name;
  t.cycles <- overhead + Sb_sim.Cycles.fault_contain;
  t.faulted <- true;
  Contained

let of_verdict = function
  | Sb_mat.Header_action.Forwarded -> Forwarded
  | Sb_mat.Header_action.Dropped -> Dropped

(* The executor's one context, pointed at this call's flow and NF. *)
let context t ~fid ~local_mat ~recording =
  let ctx = t.ctx in
  ctx.Api.fid <- fid;
  ctx.Api.local_mat <- local_mat;
  ctx.Api.recording <- recording;
  ctx

(* One NF call, the same for both executors: the supervisor's gate, the
   injector's draw, [process] under containment, then the corrupt or stall
   adjustment.  [recording] instruments the call with Local MAT recording
   (the SpeedyBox initial-packet traversal), charged to the NF's cycles. *)
let run t (nf : Nf.t) ~fid ~local_mat ~recording packet =
  let sup = t.sup in
  let name = nf.Nf.name in
  let gate =
    if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.gate sup ~nf:name
    else Sb_fault.Supervisor.Run
  in
  t.faulted <- false;
  match gate with
  | Sb_fault.Supervisor.Bypass_nf ->
      (* Failed NF elided from the chain: the packet only transits the
         port; nothing records, so rebuilt fast paths omit the NF. *)
      t.cycles <- Sb_sim.Cycles.nf_rx_tx;
      Bypassed
  | Sb_fault.Supervisor.Drop_packet ->
      (* Failed NF under Drop_flow: the drop records like an ordinary
         verdict, so the flow's fast path early-drops. *)
      Api.localmat_add_ha (context t ~fid ~local_mat ~recording) Sb_mat.Header_action.Drop;
      t.cycles <- Sb_sim.Cycles.nf_rx_tx + Sb_sim.Cycles.ha_drop;
      Dropped
  | Sb_fault.Supervisor.Run -> (
      let overhead =
        Sb_sim.Cycles.nf_rx_tx + if recording then Sb_sim.Cycles.local_mat_record else 0
      in
      let injected =
        if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.draw sup ~nf:name else None
      in
      match injected with
      | Some Sb_fault.Injector.Raise -> contained t name overhead
      | Some Sb_fault.Injector.Corrupt_verdict | Some Sb_fault.Injector.Stall | None -> (
          match nf.Nf.process (context t ~fid ~local_mat ~recording) packet with
          | exception _exn -> contained t name overhead
          | r -> (
              t.cycles <- Nf.cycles r + overhead;
              match injected with
              | Some Sb_fault.Injector.Corrupt_verdict ->
                  note_fault t ~nf:name;
                  Sb_fault.Supervisor.record_corrupted sup;
                  Sb_fault.Supervisor.record_faulted_packet sup;
                  t.faulted <- true;
                  (match Nf.verdict r with
                  | Sb_mat.Header_action.Forwarded -> Dropped
                  | Sb_mat.Header_action.Dropped -> Forwarded)
              | Some Sb_fault.Injector.Stall ->
                  note_fault t ~nf:name;
                  Sb_fault.Supervisor.record_stalled sup;
                  t.cycles <- t.cycles + Sb_fault.Supervisor.stall_cycles sup;
                  t.faulted <- true;
                  of_verdict (Nf.verdict r)
              | Some Sb_fault.Injector.Raise | None -> of_verdict (Nf.verdict r))))
