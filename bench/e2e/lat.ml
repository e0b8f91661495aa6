(* Dispatch-latency histogram over integer nanoseconds: log-linear buckets
   with 128 sub-buckets per power of two, so any bucket is at most 0.8%
   wide.  Fixed size and allocation-free to fill — a per-packet workload
   dispatches millions of times per run, too many samples to keep. *)

let sub_bits = 7
let sub = 1 lsl sub_bits

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make (64 * sub) 0; n = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

(* Values below [sub] get one bucket each; above, the octave's top
   [sub_bits] bits pick the sub-bucket. *)
let index v =
  if v < sub then max v 0
  else
    let e = msb v 0 - sub_bits in
    ((e + 1) lsl sub_bits) + ((v lsr e) - sub)

let bounds i =
  if i < sub then (float_of_int i, 1.)
  else
    let e = (i lsr sub_bits) - 1 in
    (float_of_int ((sub + (i land (sub - 1))) lsl e), float_of_int (1 lsl e))

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

(* [percentile t p] for [p] in [0, 1], in nanoseconds, interpolated
   linearly by rank inside the bucket holding the target rank. *)
let percentile t p =
  if t.n = 0 then nan
  else begin
    let rank = p *. float_of_int t.n in
    let rec go i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= rank then begin
        let lo, width = bounds i in
        lo +. (width *. Float.max 0. (rank -. float_of_int cum) /. float_of_int c)
      end
      else go (i + 1) (cum + c)
    in
    go 0 0
  end
