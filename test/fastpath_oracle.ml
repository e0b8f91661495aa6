(* The reference fast-path walker: a consolidated rule executed by
   rebuilding its positional step list (each merged transform, and each
   maximal run of waves as one wave group) and walking it step by step.
   Every transform recomputes checksums in full, and a multi-batch wave
   snapshots the payload into fresh bytes, restores it before each batch
   and merges the last batch that changed it.  Kept as the oracle of
   test/test_fastpath_compile.ml, which checks [Global_mat.execute]'s flat
   program against it. *)
open Sb_mat
open Sb_packet

type step = Transform of Consolidate.t | Waves of State_function.Batch.t array list

(* Consolidation closes a wave group only to emit a transform, so every
   maximal run of consecutive waves is one group. *)
let steps_of_code code =
  Array.fold_right
    (fun s steps ->
      match (s, steps) with
      | Global_mat.C_wave w, Waves ws :: rest -> Waves (w :: ws) :: rest
      | Global_mat.C_wave w, _ -> Waves [ w ] :: steps
      | Global_mat.C_transform { c; _ }, _ -> Transform c :: steps)
    code []

let payload_region packet =
  let off = Packet.payload_offset packet in
  Bytes.sub packet.Packet.buf off (packet.Packet.len - off)

let restore_payload packet saved =
  let off = Packet.payload_offset packet in
  Bytes.blit saved 0 packet.Packet.buf off (Bytes.length saved)

let run_wave costs batches packet =
  match batches with
  | [] -> Sb_sim.Cost_vec.serial costs 0
  | [ batch ] -> Sb_sim.Cost_vec.serial costs (State_function.Batch.run batch packet)
  | _ ->
      let snapshot = payload_region packet in
      let merged = ref None in
      let batch_costs =
        List.map
          (fun batch ->
            restore_payload packet snapshot;
            let cost = State_function.Batch.run batch packet in
            let after = payload_region packet in
            if not (Bytes.equal after snapshot) then merged := Some after;
            cost)
          batches
      in
      restore_payload packet (Option.value !merged ~default:snapshot);
      Sb_sim.Cost_vec.parallel costs (List.length batch_costs);
      List.iter (Sb_sim.Cost_vec.cost costs) batch_costs

let run_steps costs code packet =
  List.fold_left
    (fun verdict step ->
      match step with
      | Transform c ->
          let v = Consolidate.apply c packet in
          Sb_sim.Cost_vec.serial costs (Consolidate.cost c);
          (match v with Header_action.Dropped -> v | Header_action.Forwarded -> verdict)
      | Waves ws ->
          List.iter (fun w -> run_wave costs (Array.to_list w) packet) ws;
          verdict)
    Header_action.Forwarded (steps_of_code code)

(* The fired updates rewrite the Local MATs, each raise attributed to the
   registering NF, and the flow reconsolidates; returns the cycles. *)
let apply_fired gm locals fid fired =
  let cycles =
    List.fold_left
      (fun cycles (u : Event_table.update) ->
        (try
           match List.find_opt (fun l -> Local_mat.nf_name l = u.Event_table.nf) locals with
           | Some local ->
               Option.iter (fun f -> Local_mat.replace_actions local fid (f ())) u.new_actions;
               Option.iter
                 (fun f -> Local_mat.replace_state_functions local fid (f ()))
                 u.new_state_functions
           | None -> ()
         with exn ->
           raise (Sb_fault.Fault.attribute ~nf:u.Event_table.nf ~origin:"event-update" exn));
        cycles + Sb_sim.Cycles.event_fire)
      0 fired
  in
  cycles + Global_mat.consolidate gm fid locals

(* [Global_mat.execute] by the step list: the flow's rule, its events
   polled (firings reconsolidate it first), then the GlobalMAT stage
   written to [Global_mat.costs gm] — the head item, one item per step and
   [egress] when forwarded.  Returns the verdict and the updates fired;
   [None] without a rule.  The rule's recency is left alone. *)
let execute ?egress gm events locals fid packet =
  match Global_mat.find gm fid with
  | None -> None
  | Some rule ->
      let costs = Global_mat.costs gm in
      Sb_sim.Cost_vec.reset costs;
      let armed =
        match Global_mat.rule_events rule with [] -> 0 | evs -> Event_table.poll events evs
      in
      let fired = if armed = 0 then [] else Event_table.last_fired events in
      let fire_cycles = match fired with [] -> 0 | _ -> apply_fired gm locals fid fired in
      Sb_sim.Cost_vec.stage costs Sb_sim.Cost_vec.global_mat;
      Sb_sim.Cost_vec.serial costs
        (Global_mat.rule_static_head rule + (armed * Sb_sim.Cycles.event_check) + fire_cycles);
      let verdict = run_steps costs (Global_mat.rule_code rule) packet in
      (match (egress, verdict) with
      | Some c, Header_action.Forwarded -> Sb_sim.Cost_vec.serial costs c
      | (Some _ | None), _ -> ());
      Some (verdict, List.length fired)
