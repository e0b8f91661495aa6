(* [cycles lsl 1], low bit set for a drop. *)
type result = int

type t = {
  name : string;
  process : Api.nf_context -> Sb_packet.Packet.t -> result;
  state_digest : unit -> string;
  remove_flow : int -> int -> unit;
  consolidable : bool;
}

let forwarded cycles = cycles lsl 1

let dropped cycles = (cycles lsl 1) lor 1

let verdict r =
  if r land 1 = 0 then Sb_mat.Header_action.Forwarded else Sb_mat.Header_action.Dropped

let cycles r = r asr 1

let make ~name ?(state_digest = fun () -> "") ?(remove_flow = fun _ _ -> ())
    ?(consolidable = true) process =
  { name; process; state_digest; remove_flow; consolidable }
