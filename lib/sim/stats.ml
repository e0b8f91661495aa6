(* Count, mean, min and max are exact over every sample ever added.  Order
   statistics (percentiles, CDFs) read a uniform reservoir (Vitter's
   algorithm R) of at most [reservoir_cap] samples, so an accumulator's
   memory is bounded no matter how many packets a run streams — a
   million-flow load sweep must not retain a float per packet.  Below the
   cap nothing is discarded and every statistic is exact, which covers the
   differential tests that compare accumulators sample-for-sample. *)
let reservoir_cap = 1 lsl 16

(* The exact aggregates live in an all-float record, which OCaml stores
   flat: updating them writes raw doubles.  As mutable float fields of [t]
   (a mixed record) every update would box a fresh float. *)
type agg = { mutable sum : float; mutable lo : float; mutable hi : float }

type t = {
  mutable data : float array;
  mutable len : int;  (* filled reservoir slots, <= reservoir_cap *)
  mutable seen : int;  (* samples offered over the accumulator's life *)
  agg : agg;
  mutable sorted : bool;
  mutable rng : int;  (* xorshift state for replacement draws *)
}

let create () =
  {
    data = Array.make 64 0.;
    len = 0;
    seen = 0;
    agg = { sum = 0.; lo = infinity; hi = neg_infinity };
    sorted = true;
    rng = 0x9e3779b9;
  }

(* Deterministic xorshift: reservoir contents depend only on the sample
   sequence, never on global randomness. *)
let draw t bound =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x land max_int;
  t.rng mod bound

let grow t =
  let bigger = Array.make (min reservoir_cap (2 * t.len)) 0. in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

(* Inlined into every caller, so the sample reaches the float array and
   the aggregates without ever being boxed. *)
let[@inline] add t x =
  t.seen <- t.seen + 1;
  let a = t.agg in
  a.sum <- a.sum +. x;
  if x < a.lo then a.lo <- x;
  if x > a.hi then a.hi <- x;
  if t.len < reservoir_cap then begin
    if t.len = Array.length t.data then grow t;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1;
    t.sorted <- false
  end
  else begin
    let j = draw t t.seen in
    if j < reservoir_cap then begin
      t.data.(j) <- x;
      t.sorted <- false
    end
  end

let add_int t x = add t (float_of_int x)

let add_ratio t n d = add t (float_of_int n /. d)

let count t = t.seen

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    Array.sort Float.compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let mean t = if t.seen = 0 then nan else t.agg.sum /. float_of_int t.seen

let min_value t = if t.seen = 0 then nan else t.agg.lo

let max_value t = if t.seen = 0 then nan else t.agg.hi

let percentile t p =
  if t.len = 0 then nan
  else begin
    ensure_sorted t;
    let p = Float.max 0. (Float.min 100. p) in
    let rank = p /. 100. *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      ((1. -. frac) *. t.data.(lo)) +. (frac *. t.data.(hi))
    end
  end

let median t = percentile t 50.

(* Bulk merge, for combining per-shard accumulators.  The exact aggregates
   merge exactly; the reservoirs concatenate while they fit (the common
   case — shard runs stay far below the cap, so the merge stays
   sample-for-sample exact).  Overflowing samples displace random slots,
   which keeps the reservoir a fair-enough mixture without re-weighting. *)
let absorb dst src =
  dst.seen <- dst.seen + src.seen;
  let d = dst.agg and s = src.agg in
  d.sum <- d.sum +. s.sum;
  if s.lo < d.lo then d.lo <- s.lo;
  if s.hi > d.hi then d.hi <- s.hi;
  if src.len > 0 then begin
    let fits = min src.len (reservoir_cap - dst.len) in
    if fits > 0 then begin
      let need = dst.len + fits in
      if need > Array.length dst.data then begin
        let rec cap n = if n >= need then n else cap (2 * n) in
        let bigger = Array.make (min reservoir_cap (cap (Array.length dst.data))) 0. in
        Array.blit dst.data 0 bigger 0 dst.len;
        dst.data <- bigger
      end;
      Array.blit src.data 0 dst.data dst.len fits;
      dst.len <- need
    end;
    for i = fits to src.len - 1 do
      dst.data.(draw dst reservoir_cap) <- src.data.(i)
    done;
    dst.sorted <- false
  end

let cdf t ~points =
  if t.len = 0 || points < 1 then []
  else begin
    ensure_sorted t;
    List.init points (fun i ->
        let prob = float_of_int (i + 1) /. float_of_int points in
        let idx = min (t.len - 1) (int_of_float (Float.ceil (prob *. float_of_int t.len)) - 1) in
        (t.data.(max 0 idx), prob))
  end

let values t =
  ensure_sorted t;
  Array.sub t.data 0 t.len

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  min : float;
  max : float;
}

let summarize t =
  {
    n = t.seen;
    mean = mean t;
    p50 = percentile t 50.;
    p90 = percentile t 90.;
    p99 = percentile t 99.;
    min = min_value t;
    max = max_value t;
  }

(* An empty accumulator summarizes to nan everywhere; print those fields as
   "-" rather than leaking "nan" into reports. *)
let pp_stat fmt v =
  if Float.is_nan v then Format.pp_print_string fmt "-" else Format.fprintf fmt "%.2f" v

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%a p50=%a p90=%a p99=%a min=%a max=%a" s.n pp_stat s.mean
    pp_stat s.p50 pp_stat s.p90 pp_stat s.p99 pp_stat s.min pp_stat s.max
