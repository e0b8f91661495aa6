open Sb_packet

type t =
  | Forward
  | Drop
  | Modify of (Field.t * Field.value) list
  | Encap of Encap_header.t
  | Decap of Encap_header.t

let modify1 field value =
  if not (Field.value_compatible field value) then
    invalid_arg
      (Format.asprintf "Header_action.modify1: %a does not fit %a" Field.pp_value value
         Field.pp field);
  Modify [ (field, value) ]

type verdict = Forwarded | Dropped

(* A top-level loop, not [List.iter] over a closure capturing [packet]. *)
let rec set_fields packet = function
  | [] -> ()
  | (field, value) :: sets ->
      Packet.set_field packet field value;
      set_fields packet sets

let apply t packet =
  match t with
  | Forward -> Forwarded
  | Drop -> Dropped
  | Modify sets ->
      set_fields packet sets;
      Packet.fix_checksums packet;
      Forwarded
  | Encap header ->
      Packet.encap packet header;
      Forwarded
  | Decap header -> (
      match Packet.outer_stack packet with
      | top :: _ when Encap_header.equal top header ->
          ignore (Packet.decap packet);
          Forwarded
      | top :: _ ->
          invalid_arg
            (Format.asprintf "Header_action.apply: decap %a but packet has %a" Encap_header.pp
               header Encap_header.pp top)
      | [] -> invalid_arg "Header_action.apply: decap on packet without outer header")

let cost = function
  | Forward -> Sb_sim.Cycles.ha_forward
  | Drop -> Sb_sim.Cycles.ha_drop
  | Modify sets -> List.length sets * Sb_sim.Cycles.ha_modify_field
  | Encap _ -> Sb_sim.Cycles.ha_encap
  | Decap _ -> Sb_sim.Cycles.ha_decap

let equal a b =
  match (a, b) with
  | Forward, Forward | Drop, Drop -> true
  | Modify s1, Modify s2 ->
      List.length s1 = List.length s2
      && List.for_all2
           (fun (f1, v1) (f2, v2) -> Field.equal f1 f2 && Field.equal_value v1 v2)
           s1 s2
  | Encap h1, Encap h2 | Decap h1, Decap h2 -> Encap_header.equal h1 h2
  | (Forward | Drop | Modify _ | Encap _ | Decap _), _ -> false

let pp fmt = function
  | Forward -> Format.pp_print_string fmt "forward"
  | Drop -> Format.pp_print_string fmt "drop"
  | Modify sets ->
      Format.fprintf fmt "modify(%s)"
        (String.concat ","
           (List.map
              (fun (f, v) -> Format.asprintf "%a=%a" Field.pp f Field.pp_value v)
              sets))
  | Encap h -> Format.fprintf fmt "encap(%a)" Encap_header.pp h
  | Decap h -> Format.fprintf fmt "decap(%a)" Encap_header.pp h
