(* In-memory span recorder for the traced run.  The benchmark brackets its
   own calls into each layer with [enter]/[leave]; a span's self time is
   its duration minus the time its child spans cover, and likewise for the
   minor-heap words it allocated.  Totals accumulate per layer for every
   span; the first [capacity] spans are also kept (name, start, end,
   parent) for a Chrome trace written at exit.  Filling the recorder
   allocates nothing, so the per-layer allocation figures are the
   layers' own. *)

type t = {
  names : string array;
  self_ns : int array;
  self_words : int array;
  (* the open-span stack *)
  st_id : int array;
  st_t0 : int array;
  st_w0 : int array;
  st_child_ns : int array;
  st_child_w : int array;
  st_ev : int array;
  mutable depth : int;
  (* retained spans *)
  ev_id : int array;
  ev_t0 : int array;
  ev_t1 : int array;
  ev_parent : int array;
  mutable n_ev : int;
}

let max_depth = 8
let capacity = 200_000

let create names =
  let n = Array.length names in
  let z k = Array.make k 0 in
  {
    names;
    self_ns = z n;
    self_words = z n;
    st_id = z max_depth;
    st_t0 = z max_depth;
    st_w0 = z max_depth;
    st_child_ns = z max_depth;
    st_child_w = z max_depth;
    st_ev = z max_depth;
    depth = 0;
    ev_id = z capacity;
    ev_t0 = z capacity;
    ev_t1 = z capacity;
    ev_parent = z capacity;
    n_ev = 0;
  }

let words () = int_of_float (Gc.minor_words ())

let enter t id =
  let d = t.depth in
  t.st_id.(d) <- id;
  t.st_child_ns.(d) <- 0;
  t.st_child_w.(d) <- 0;
  let e = t.n_ev in
  if e < Array.length t.ev_id then begin
    t.ev_id.(e) <- id;
    t.ev_parent.(e) <- (if d = 0 then -1 else t.st_ev.(d - 1));
    t.n_ev <- e + 1;
    t.st_ev.(d) <- e
  end
  else t.st_ev.(d) <- -1;
  t.depth <- d + 1;
  t.st_w0.(d) <- words ();
  t.st_t0.(d) <- Clock.ns ()

let leave t =
  let t1 = Clock.ns () in
  let w1 = words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let id = t.st_id.(d) in
  let dur = t1 - t.st_t0.(d) and alloc = w1 - t.st_w0.(d) in
  t.self_ns.(id) <- t.self_ns.(id) + dur - t.st_child_ns.(d);
  t.self_words.(id) <- t.self_words.(id) + alloc - t.st_child_w.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) + alloc
  end;
  let e = t.st_ev.(d) in
  if e >= 0 then begin
    t.ev_t0.(e) <- t.st_t0.(d);
    t.ev_t1.(e) <- t1
  end

let self_ns t id = t.self_ns.(id)
let self_bytes t id = t.self_words.(id) * (Sys.word_size / 8)

(* Chrome trace-event JSON: "X" complete events, one thread lane per
   recorder, microseconds from the earliest retained span; each event
   names its own index and its parent's within its lane. *)
let write_chrome path lanes =
  let origin =
    List.fold_left (fun acc (_, t) -> if t.n_ev > 0 then min acc t.ev_t0.(0) else acc) max_int lanes
  in
  let events =
    List.concat_map
      (fun (tid, t) ->
        List.init t.n_ev (fun e ->
            Printf.sprintf
              "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
               \"dur\": %.3f, \"args\": {\"span\": %d, \"parent\": %d}}"
              t.names.(t.ev_id.(e)) tid
              (float_of_int (t.ev_t0.(e) - origin) /. 1e3)
              (float_of_int (t.ev_t1.(e) - t.ev_t0.(e)) /. 1e3)
              e t.ev_parent.(e)))
      lanes
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  output_string oc (String.concat ",\n" events);
  output_string oc "\n]}\n";
  close_out oc
