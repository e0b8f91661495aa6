exception Nf_fault of string * string * exn

let attribute ~nf ~origin = function
  | Nf_fault _ as e -> e
  | exn -> Nf_fault (nf, origin, exn)

let describe = function
  | Nf_fault (nf, origin, exn) ->
      Printf.sprintf "%s (%s): %s" nf origin (Printexc.to_string exn)
  | exn -> Printexc.to_string exn
