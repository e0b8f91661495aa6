(* Monotonic nanoseconds.  bechamel's clock stub returns an unboxed int64,
   so reading the clock inside the timed loop never allocates. *)
let ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
