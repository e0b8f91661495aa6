type payload_mode = Write | Read | Ignore

let mode_priority = function Write -> 2 | Read -> 1 | Ignore -> 0

let pp_mode fmt m =
  Format.pp_print_string fmt
    (match m with Write -> "WRITE" | Read -> "READ" | Ignore -> "IGNORE")

type t = {
  nf : string;
  label : string;
  mode : payload_mode;
  run : Sb_packet.Packet.t -> int;
}

let make ~nf ~label ~mode run = { nf; label; mode; run }

module Batch = struct
  type sf = t

  type t = { nf : string; fns : sf list; mode : payload_mode }

  let make ~nf fns =
    let mode =
      List.fold_left
        (fun acc (f : sf) -> if mode_priority f.mode > mode_priority acc then f.mode else acc)
        Ignore fns
    in
    { nf; fns; mode }

  let mode t = t.mode

  (* A top-level loop rather than a fold over a closure capturing
     [packet]: batches run on every fast-path packet. *)
  let rec run_fns packet acc = function
    | [] -> acc
    | (sf : sf) :: rest -> run_fns packet (acc + Sb_sim.Cycles.sf_invoke + sf.run packet) rest

  let run t packet =
    try run_fns packet 0 t.fns
    with exn -> raise (Sb_fault.Fault.attribute ~nf:t.nf ~origin:"state-function" exn)

  let pp fmt t =
    Format.fprintf fmt "%s{%s}" t.nf (String.concat ";" (List.map (fun sf -> sf.label) t.fns))
end
