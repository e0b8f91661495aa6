module Flat = Sb_flow.Flat_table

type record = {
  mutable actions : Header_action.t array;
  mutable n_actions : int;
  mutable sfs : State_function.t array;
  mutable n_sfs : int;
  mutable bound : bool;
}

type cstep =
  | C_transform of { c : Consolidate.t; cost : int; incr_ok : bool }
  | C_wave of State_function.Batch.t array

type program = { code : cstep array; static_head : int; reach : int }

type flow = {
  mutable program : program;
  mutable node : Sb_flow.Lru.node;
  mutable events : Event_table.event list;
  records : record array;
}

let no_program = { code = [||]; static_head = 0; reach = 0 }

(* The node of a flow with no place in a recency list.  A handle allocated
   from a throwaway list, and handles are plain ints, so it names a live
   slot in any real list: only flows of an uncapped table, and flows with
   no program, hold it. *)
let no_node = Sb_flow.Lru.add (Sb_flow.Lru.create ()) (-1)

let no_record = { actions = [||]; n_actions = 0; sfs = [||]; n_sfs = 0; bound = false }

let vacant = { program = no_program; node = no_node; events = []; records = [||] }

(* Fills a record's unused state-function slots. *)
let no_sf = State_function.make ~nf:"" ~label:"" ~mode:State_function.Ignore (fun _ -> 0)

(* Liveness cells.  [last_seen] is cell 0, which the per-packet touch
   reads and writes through [Flat_table.cell0]. *)
let last_seen = 0
let epoch = 1
let pack1 = 2
let pack2 = 3

(* Husks of removed flows, kept for the next recorded flow in a stack of
   at most 64: a table whose flows all expired pins a few kilobytes, not
   one husk per flow it ever had. *)
type t = {
  slots : flow Flat.t;
  width : int;
  spare : flow array;  (* [0, kept) hold husks, the rest [vacant] *)
  mutable kept : int;
  mutable cur_fid : int;  (* the flow [cur] is the husk of, or [empty_key] *)
  mutable cur : flow;
}

let clear_actions r =
  Array.fill r.actions 0 r.n_actions Header_action.Forward;
  r.n_actions <- 0

let clear_sfs r =
  Array.fill r.sfs 0 r.n_sfs no_sf;
  r.n_sfs <- 0

let unbind_record r =
  if r.bound then begin
    clear_actions r;
    clear_sfs r;
    r.bound <- false
  end


let create ?initial_size ~width () =
  let slots = Flat.create ?initial_size ~cells:4 () in
  Flat.set_default slots vacant;
  {
    slots;
    width;
    spare = Array.make 64 vacant;
    kept = 0;
    cur_fid = Flat.empty_key;
    cur = vacant;
  }

let length t = Flat.length t.slots
let prefetch t fid ~live = Flat.prefetch_value t.slots fid ~cells:live
let find_slot t fid = Flat.find_slot t.slots fid
let claim t fid = Flat.claim t.slots fid
let flow_at t s = Flat.value_at t.slots s
let last_seen_at t s = Flat.cell0 t.slots s
let set_last_seen_at t s now = Flat.set_cell0 t.slots s now
let epoch_at t s = Flat.cell t.slots s epoch
let pack1_at t s = Flat.cell t.slots s pack1
let pack2_at t s = Flat.cell t.slots s pack2

let set_live t s ~last_seen:seen ~epoch:e ~pack1:k1 ~pack2:k2 =
  Flat.set_cell t.slots s last_seen seen;
  Flat.set_cell t.slots s epoch e;
  Flat.set_cell t.slots s pack1 k1;
  Flat.set_cell t.slots s pack2 k2

let record f pos = Array.unsafe_get f.records pos

(* Doubling from one slot: a fresh record's first entry costs a 2-word
   array. *)
let grown arr filler =
  let b = Array.make (max 1 (2 * Array.length arr)) filler in
  Array.blit arr 0 b 0 (Array.length arr);
  b

let push_action r a =
  if r.n_actions = Array.length r.actions then r.actions <- grown r.actions Header_action.Forward;
  Array.unsafe_set r.actions r.n_actions a;
  r.n_actions <- r.n_actions + 1

let push_sf r sf =
  if r.n_sfs = Array.length r.sfs then r.sfs <- grown r.sfs no_sf;
  Array.unsafe_set r.sfs r.n_sfs sf;
  r.n_sfs <- r.n_sfs + 1

(* A dead flow's husk: the cursor lets go of it, and the stack keeps it
   scrubbed of the flow's program, events and records, or leaves it to
   the GC untouched when full. *)
let release t f =
  if f != vacant then begin
    if t.cur == f then begin
      t.cur_fid <- Flat.empty_key;
      t.cur <- vacant
    end;
    if t.kept < Array.length t.spare then begin
      f.program <- no_program;
      f.node <- no_node;
      f.events <- [];
      Array.iter unbind_record f.records;
      t.spare.(t.kept) <- f;
      t.kept <- t.kept + 1
    end
  end

let remove_at t s =
  release t (flow_at t s);
  Flat.remove_at t.slots s

let vacate_at t s =
  if epoch_at t s = 0 then remove_at t s
  else begin
    release t (flow_at t s);
    Flat.set_value_at t.slots s vacant
  end

let fold f t init = Flat.fold f t.slots init

let clear t =
  Flat.clear t.slots;
  t.cur_fid <- Flat.empty_key;
  t.cur <- vacant

let husk t =
  if t.kept = 0 then
    { program = no_program; node = no_node; events = []; records = Array.make t.width no_record }
  else begin
    t.kept <- t.kept - 1;
    let h = t.spare.(t.kept) in
    t.spare.(t.kept) <- vacant;
    h
  end

let flow_for t fid =
  if t.cur_fid = fid then t.cur
  else begin
    let s = Flat.claim t.slots fid in
    let f = flow_at t s in
    let f =
      if f != vacant then f
      else begin
        let h = husk t in
        Flat.set_value_at t.slots s h;
        h
      end
    in
    t.cur_fid <- fid;
    t.cur <- f;
    f
  end

let find_flow t fid =
  if t.cur_fid = fid then t.cur
  else
    let s = Flat.find_slot t.slots fid in
    if s < 0 then vacant else flow_at t s

let bind f pos =
  let r = record f pos in
  let r =
    if r != no_record then r
    else begin
      let r = { actions = [||]; n_actions = 0; sfs = [||]; n_sfs = 0; bound = false } in
      Array.unsafe_set f.records pos r;
      r
    end
  in
  r.bound <- true;
  r

let unbind t fid pos =
  let s = Flat.find_slot t.slots fid in
  if s >= 0 then begin
    let f = flow_at t s in
    if f != vacant then begin
      unbind_record (record f pos);
      if f.program == no_program && Array.for_all (fun r -> not r.bound) f.records then
        vacate_at t s
    end
  end

let bound_count t pos =
  fold (fun _ f n -> if f != vacant && (record f pos).bound then n + 1 else n) t 0
