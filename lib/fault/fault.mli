(** The shared fault vocabulary of the containment layer.

    A fault that escapes an NF closure deep inside the fast path — a state
    function, an event update — is re-raised as {!Nf_fault} carrying the
    owning NF's name, so the supervising executor can attribute it to the
    right health record without unwinding the whole runtime. *)

exception Nf_fault of string * string * exn
(** [Nf_fault (nf, origin, exn)] — [origin] names the closure class that
    raised ("state-function", "event-update", "process", ...). *)

val attribute : nf:string -> origin:string -> exn -> exn
(** Wraps [exn] in {!Nf_fault} unless it already carries an attribution
    (re-wrapping would lose the innermost — most precise — NF name). *)

val describe : exn -> string
(** One-line rendering for logs and reports. *)
