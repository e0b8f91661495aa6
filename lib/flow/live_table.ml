(* A view over {!Flat_table} keyed by FID, with four int cells per slot
   and no value lane.  The per-packet touch is one probe and one int store
   into the [last_seen] cell, where a boxed record per flow would cost a
   pointer chase to a GC-traced block to rewrite one field. *)

type t = unit Flat_table.t

(* Cell indices.  [last_seen] must stay cell 0: the per-packet touch
   reads and writes it through {!Flat_table.cell0}. *)
let last_seen = 0
let epoch = 1
let pack1 = 2
let pack2 = 3

let create ?initial_size () = Flat_table.create ?initial_size ~cells:4 ()
let length = Flat_table.length
let prefetch = Flat_table.prefetch
let probe = Flat_table.find_slot
let last_seen_at = Flat_table.cell0
let epoch_at t s = Flat_table.cell t s epoch
let set_last_seen_at = Flat_table.set_cell0
let pack1_at t s = Flat_table.cell t s pack1
let pack2_at t s = Flat_table.cell t s pack2

let set t fid ~last_seen:seen ~epoch:e ~pack1:k1 ~pack2:k2 =
  if fid = Flat_table.empty_key then invalid_arg "Live_table.set: reserved key";
  let s = Flat_table.claim t fid in
  Flat_table.set_cell t s last_seen seen;
  Flat_table.set_cell t s epoch e;
  Flat_table.set_cell t s pack1 k1;
  Flat_table.set_cell t s pack2 k2

let remove = Flat_table.remove
