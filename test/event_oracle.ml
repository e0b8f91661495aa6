(* The Event Table's poll as it was before declared triggers: every armed
   condition of a flow's events evaluated on every fast-path packet, in
   registration order.  Kept as the oracle of test/test_event_oracle.ml,
   which checks the epoch poll against it. *)
open Sb_mat

(* The updates the always-evaluate poll fires on [events] now, in
   registration order.  Evaluates each armed condition once and changes
   nothing: the registry NFs' conditions only read state. *)
let fires events =
  List.filter_map
    (fun e ->
      if Event_table.is_armed e && Event_table.condition e () then Some (Event_table.event_update e)
      else None)
    events

(* Makes the runtime's next poll of [events] the always-evaluate poll:
   every epoch they declare moves, so every armed condition is due. *)
let force_due events =
  List.iter (fun e -> Event_table.bump (Event_table.event_update e).Event_table.trigger) events
