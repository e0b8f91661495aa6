open Sb_packet

type t = {
  name : string;
  mode : Sb_mat.State_function.payload_mode;
  cost_cycles : int;
  mutable invocations : int;
  mutable payload_checksum : int;
}

let create ?(name = "synthetic") ?(mode = Sb_mat.State_function.Read) ?(cost_cycles = 2600) ()
    =
  { name; mode; cost_cycles; invocations = 0; payload_checksum = 0 }

let snort_like name = create ~name ~mode:Sb_mat.State_function.Read ()

let name t = t.name

let invocations t = t.invocations

let payload_checksum t = t.payload_checksum

let work t packet =
  t.invocations <- t.invocations + 1;
  (match t.mode with
  | Sb_mat.State_function.Ignore -> ()
  | Sb_mat.State_function.Read ->
      let buf, off, len = Packet.payload_bytes packet in
      let sum = ref 0 in
      for i = off to off + len - 1 do
        sum := !sum + Char.code (Bytes.get buf i)
      done;
      t.payload_checksum <- (t.payload_checksum + !sum) land 0xffffff
  | Sb_mat.State_function.Write ->
      let buf, off, len = Packet.payload_bytes packet in
      let sum = ref 0 in
      for i = off to off + len - 1 do
        sum := !sum + Char.code (Bytes.get buf i)
      done;
      t.payload_checksum <- (t.payload_checksum + !sum) land 0xffffff;
      if len > 0 then Bytes.set buf off (Char.chr (!sum land 0x7f)));
  t.cost_cycles

(* [work_sf] captures nothing of the flow, so one value serves every flow
   the NF records. *)
let process t work_sf ctx packet =
  let work_cycles = work t packet in
  Speedybox.Api.localmat_add_sf ctx work_sf;
  Speedybox.Nf.forwarded (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + work_cycles)

let nf t =
  let work_sf =
    Sb_mat.State_function.make ~nf:t.name ~label:(t.name ^ ".work") ~mode:t.mode (fun pkt ->
        work t pkt)
  in
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () ->
      Printf.sprintf "invocations=%d checksum=%06x" t.invocations t.payload_checksum)
    (fun ctx packet -> process t work_sf ctx packet)
