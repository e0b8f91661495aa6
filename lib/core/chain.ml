type t = {
  name : string;
  nfs : Nf.t list;
  local_mats : Sb_mat.Local_mat.t list;
  events : Sb_mat.Event_table.t;
}

let create ~name nfs =
  if nfs = [] then invalid_arg "Chain.create: empty chain";
  let names = List.map (fun nf -> nf.Nf.name) nfs in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Chain.create: duplicate NF names";
  {
    name;
    nfs;
    local_mats = Sb_mat.Local_mat.chain names;
    events = Sb_mat.Event_table.create ();
  }

let name t = t.name

let nfs t = t.nfs

let length t = List.length t.nfs

let local_mats t = t.local_mats

let events t = t.events

let consolidable t = List.for_all (fun nf -> nf.Nf.consolidable) t.nfs

let state_digest t =
  String.concat "\n"
    (List.map (fun nf -> Printf.sprintf "%s: %s" nf.Nf.name (nf.Nf.state_digest ())) t.nfs)

(* A top-level loop rather than [List.iter] over a closure capturing the
   key: expiry runs it once per idle flow. *)
let rec remove_nf_state k1 k2 = function
  | [] -> ()
  | nf :: nfs ->
      nf.Nf.remove_flow k1 k2;
      remove_nf_state k1 k2 nfs

let remove_flow t fid = Sb_mat.Event_table.remove_flow t.events fid

(* Only idle expiry reaches into the NFs' own per-flow state: FIN cleanup
   and rule eviction leave it alone (counters outliving their connection
   is what the original NF code does, and the equivalence checker compares
   against that). *)
let expire_flow t fid k1 k2 =
  remove_flow t fid;
  remove_nf_state k1 k2 t.nfs
