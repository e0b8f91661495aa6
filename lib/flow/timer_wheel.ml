type action = Expire | Rearm of int

let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 4

(* One slot holds its entries in parallel growable arrays: three words per
   armed flow, no per-entry heap block, and firing a slot is a flat array
   walk. *)
type slot = {
  mutable keys : int array;
  mutable stamps : int array;
  mutable deadlines : int array;
  mutable len : int;
}

type t = {
  tick_shift : int;
  wheel : slot array;  (* flattened [levels * slots_per_level] *)
  mutable now_tick : int;
  mutable count : int;
}

let tick_shift_for_timeout timeout =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  max 0 (log2 (max 1 timeout) 0 - slot_bits)

let make_slot () = { keys = [||]; stamps = [||]; deadlines = [||]; len = 0 }

let create ~tick_shift =
  if tick_shift < 0 || tick_shift > 40 then invalid_arg "Timer_wheel.create: tick_shift";
  {
    tick_shift;
    wheel = Array.init (levels * slots_per_level) (fun _ -> make_slot ());
    now_tick = 0;
    count = 0;
  }

let length t = t.count

let slot_push s ~key ~stamp ~deadline =
  let cap = Array.length s.keys in
  if s.len = cap then begin
    let cap' = if cap = 0 then 4 else cap * 2 in
    let grow a = Array.append a (Array.make (cap' - cap) 0) in
    s.keys <- grow s.keys;
    s.stamps <- grow s.stamps;
    s.deadlines <- grow s.deadlines
  end;
  s.keys.(s.len) <- key;
  s.stamps.(s.len) <- stamp;
  s.deadlines.(s.len) <- deadline;
  s.len <- s.len + 1

(* Horizon clamp: the wheel addresses [2^(tick_shift + 32)] cycles ahead;
   anything further fires early and relies on the callback re-arming. *)
let horizon_ticks = 1 lsl (slot_bits * levels)

(* [min_tick] is the earliest tick the entry may fire at: [now_tick + 1]
   for external arms (the current tick's slot has already fired), the
   current tick during a cascade (its level-0 slot fires right after). *)
let place t ~min_tick ~key ~stamp ~deadline =
  let dl_tick = deadline asr t.tick_shift in
  let dl_tick = if dl_tick < min_tick then min_tick else dl_tick in
  let dl_tick =
    if dl_tick - t.now_tick >= horizon_ticks then t.now_tick + horizon_ticks - 1
    else dl_tick
  in
  let delta = dl_tick - t.now_tick in
  let level =
    if delta < slots_per_level then 0
    else if delta < 1 lsl (2 * slot_bits) then 1
    else if delta < 1 lsl (3 * slot_bits) then 2
    else 3
  in
  let idx = (dl_tick lsr (level * slot_bits)) land slot_mask in
  slot_push t.wheel.((level * slots_per_level) + idx) ~key ~stamp ~deadline;
  t.count <- t.count + 1

let add t ~key ~stamp ~deadline =
  place t ~min_tick:(t.now_tick + 1) ~key ~stamp ~deadline

(* Re-place a higher-level slot's entries one level down when the tick
   counter's lower digits wrap.  An entry never re-places into the slot
   being drained: its delta is below this level's span, so it lands in a
   strictly lower level (or at level 0 for due entries, whose slot fires
   right after the cascade). *)
let rec cascade t level tick =
  if level < levels then begin
    let idx = (tick lsr (level * slot_bits)) land slot_mask in
    if idx = 0 then cascade t (level + 1) tick;
    let s = t.wheel.((level * slots_per_level) + idx) in
    let keys = s.keys and stamps = s.stamps and deadlines = s.deadlines in
    let n = s.len in
    s.len <- 0;
    t.count <- t.count - n;
    for i = 0 to n - 1 do
      place t ~min_tick:tick ~key:keys.(i) ~stamp:stamps.(i) ~deadline:deadlines.(i)
    done
  end

let fire_slot t idx fire =
  let s = t.wheel.(idx) in
  if s.len > 0 then begin
    let keys = s.keys and stamps = s.stamps in
    let n = s.len in
    s.len <- 0;
    t.count <- t.count - n;
    for i = 0 to n - 1 do
      match fire keys.(i) stamps.(i) with
      | Expire -> ()
      | Rearm deadline ->
          place t ~min_tick:(t.now_tick + 1) ~key:keys.(i) ~stamp:stamps.(i) ~deadline
    done
  end

(* The earliest tick in (now_tick, limit] where anything can happen: a
   non-empty level-0 slot fires, or a cascade boundary visits a non-empty
   higher-level slot.  Level-0 entries always sit within one revolution of
   the clock, and each level's slots are visited in increasing-tick order,
   so every scan stops at the first hit (or as soon as its next visit
   would overshoot the best tick found so far).  This is what lets
   [advance] cross a million-tick quiet stretch in a few hundred array
   reads instead of a million loop iterations. *)
let next_event_tick t limit =
  let best = ref limit in
  (let j = ref 1 in
   let continue_ = ref true in
   while !continue_ && !j < slots_per_level do
     let tick = t.now_tick + !j in
     if tick > !best then continue_ := false
     else if t.wheel.(tick land slot_mask).len > 0 then begin
       best := tick;
       continue_ := false
     end
     else incr j
   done);
  for level = 1 to levels - 1 do
    let base = t.now_tick lsr (level * slot_bits) in
    let j = ref 1 in
    let continue_ = ref true in
    while !continue_ && !j <= slots_per_level do
      let visit = base + !j in
      let tick = visit lsl (level * slot_bits) in
      if tick > !best then continue_ := false
      else if t.wheel.((level * slots_per_level) + (visit land slot_mask)).len > 0
      then begin
        best := tick;
        continue_ := false
      end
      else incr j
    done
  done;
  !best

let advance t ~now fire =
  let target = now asr t.tick_shift in
  while t.now_tick < target do
    if t.count = 0 then t.now_tick <- target
    else begin
      (* Jump straight to the next tick that can fire or cascade; the
         skipped ticks' slots are all empty, and skipped cascade
         boundaries would only have cascaded empty slots. *)
      let tick = next_event_tick t target in
      t.now_tick <- tick;
      if tick land slot_mask = 0 then cascade t 1 tick;
      fire_slot t (tick land slot_mask) fire
    end
  done

let behind t ~now = now asr t.tick_shift > t.now_tick

(* [next_event_tick] answers its limit when nothing happens before it, so
   asking one tick past the target separates "an event at the target"
   from "none". *)
let due t ~now =
  let target = now asr t.tick_shift in
  target > t.now_tick && t.count > 0 && next_event_tick t (target + 1) <= target

let clear t =
  Array.iter (fun s -> s.len <- 0) t.wheel;
  t.count <- 0
