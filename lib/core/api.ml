type nf_context = {
  mutable fid : Sb_flow.Fid.t;
  mutable local_mat : Sb_mat.Local_mat.t;
  events : Sb_mat.Event_table.t;
  mutable recording : bool;
}

let nf_extract_fid (p : Sb_packet.Packet.t) =
  if p.Sb_packet.Packet.fid < 0 then invalid_arg "Api.nf_extract_fid: packet has no FID";
  p.Sb_packet.Packet.fid

let localmat_add_ha ctx action =
  if ctx.recording then Sb_mat.Local_mat.add_header_action ctx.local_mat ctx.fid action

let localmat_add_sf ctx sf =
  if ctx.recording then Sb_mat.Local_mat.add_state_function ctx.local_mat ctx.fid sf

let register_event ctx ~condition (update : Sb_mat.Event_table.update) =
  if ctx.recording then begin
    (* Fired updates find the Local MAT to rewrite by NF name. *)
    if not (String.equal update.Sb_mat.Event_table.nf (Sb_mat.Local_mat.nf_name ctx.local_mat))
    then invalid_arg "Api.register_event: the update names another NF";
    Sb_mat.Event_table.register ctx.events ~fid:ctx.fid ~condition update
  end
