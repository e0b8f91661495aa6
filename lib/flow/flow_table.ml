(* FID-keyed flow tables ride directly on the flat open-addressing table:
   fids are plain ints, so a lookup is one multiplicative hash and a short
   linear probe over an int array — no per-binding boxing, no bucket
   chains.  [Fid.t] values are non-negative, well clear of the reserved
   [Flat_table.empty_key]. *)

type 'a t = 'a Flat_table.t

let create ?(initial_size = 1024) () = Flat_table.create ~initial_size ()

let find = Flat_table.find

let prefetch = Flat_table.prefetch

let find_exn = Flat_table.find_exn

let mem = Flat_table.mem

let find_slot = Flat_table.find_slot

let value_at = Flat_table.value_at

let values = Flat_table.values

let set = Flat_table.set

let update = Flat_table.update

let remove = Flat_table.remove

let clear = Flat_table.clear

let length = Flat_table.length

let iter = Flat_table.iter

let fold = Flat_table.fold
