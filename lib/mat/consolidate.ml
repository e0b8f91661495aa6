open Sb_packet

type t = {
  drop : bool;
  pops : Encap_header.t list;
  pushes : Encap_header.t list;
  sets : (Field.t * Field.value) list;
}

let forward = { drop = false; pops = []; pushes = []; sets = [] }

let canonical_sets sets =
  (* Keep the last write per field, then order main fields before auxiliary
     ones (the paper applies checksum/TTL/MAC-style fields at the end). *)
  let last_writes =
    List.fold_left
      (fun acc (f, v) -> (f, v) :: List.filter (fun (f', _) -> not (Field.equal f f')) acc)
      [] sets
  in
  let ordered = List.sort (fun (f1, _) (f2, _) -> Field.compare f1 f2) last_writes in
  let main, aux = List.partition (fun (f, _) -> not (Field.is_auxiliary f)) ordered in
  main @ aux

let of_actions actions =
  let drop = ref false in
  let pops = ref [] (* reversed: first pop at head after final rev *) in
  let pushes = ref [] (* stack: head = top = outermost pending push *) in
  let sets = ref [] in
  let consume action =
    if not !drop then
      match action with
      | Header_action.Forward -> ()
      | Header_action.Drop -> drop := true
      | Header_action.Modify s -> sets := !sets @ s
      | Header_action.Encap h -> pushes := h :: !pushes
      | Header_action.Decap h -> (
          match !pushes with
          | top :: rest when Encap_header.equal top h ->
              (* An encap earlier in the chain cancels this decap. *)
              pushes := rest
          | _ :: _ ->
              invalid_arg
                (Format.asprintf
                   "Consolidate.of_actions: decap %a does not match pending encap"
                   Encap_header.pp h)
          | [] ->
              (* Pops a header the packet carried before entering the chain. *)
              pops := h :: !pops)
  in
  List.iter consume actions;
  (* A dropping rule keeps the transformation accumulated up to the drop:
     the state functions of upstream NFs must observe the packet as they
     did on the original path (e.g. a monitor downstream of a NAT counts
     the rewritten tuple), even though the packet is then discarded. *)
  {
    drop = !drop;
    pops = List.rev !pops;
    pushes = List.rev !pushes (* push order: first-encapped first *);
    sets = canonical_sets !sets;
  }

let is_drop t = t.drop

(* Top-level loops rather than [List.iter] over a closure capturing
   [packet]: the fast path runs a transform per packet, and most have no
   pops or pushes at all. *)
let rec apply_pops packet = function
  | [] -> ()
  | h :: rest ->
      (match Packet.outer_stack packet with
      | top :: _ when Encap_header.equal top h -> ignore (Packet.decap packet)
      | top :: _ ->
          invalid_arg
            (Format.asprintf "Consolidate.apply: expected outer %a, found %a"
               Encap_header.pp h Encap_header.pp top)
      | [] -> invalid_arg "Consolidate.apply: pop on packet without outer header");
      apply_pops packet rest

let rec apply_pushes packet = function
  | [] -> ()
  | h :: rest ->
      Packet.encap packet h;
      apply_pushes packet rest

let apply t packet =
  apply_pops packet t.pops;
  List.iter (fun (f, v) -> Packet.set_field packet f v) t.sets;
  if t.sets <> [] then Packet.fix_checksums packet;
  apply_pushes packet t.pushes;
  if t.drop then Header_action.Dropped else Header_action.Forwarded

let apply_incremental t packet =
  apply_pops packet t.pops;
  if t.sets <> [] && not (Packet.apply_sets_incremental packet t.sets) then begin
    (* Stored L4 checksum is zero ("not computed"): only the full re-sum
       reconstructs it, exactly as [apply] would. *)
    List.iter (fun (f, v) -> Packet.set_field packet f v) t.sets;
    Packet.fix_checksums packet
  end;
  apply_pushes packet t.pushes;
  if t.drop then Header_action.Dropped else Header_action.Forwarded

let cost t =
  if t.drop then Sb_sim.Cycles.ha_drop
  else
    Sb_sim.Cycles.ha_forward
    + (List.length t.pops * Sb_sim.Cycles.ha_decap)
    + (List.length t.pushes * Sb_sim.Cycles.ha_encap)
    + (List.length t.sets * Sb_sim.Cycles.ha_modify_field)

let equivalent_on t actions packet =
  let sequential = Packet.copy packet in
  let consolidated = Packet.copy packet in
  let rec run_actions = function
    | [] -> Header_action.Forwarded
    | a :: rest -> (
        match Header_action.apply a sequential with
        | Header_action.Dropped -> Header_action.Dropped
        | Header_action.Forwarded -> run_actions rest)
  in
  let v_seq = run_actions actions in
  let v_con = apply t consolidated in
  match (v_seq, v_con) with
  | Header_action.Dropped, Header_action.Dropped -> true
  | Header_action.Forwarded, Header_action.Forwarded ->
      Packet.equal_wire sequential consolidated
  | (Header_action.Dropped | Header_action.Forwarded), _ -> false

let equal a b =
  a.drop = b.drop
  && List.length a.pops = List.length b.pops
  && List.for_all2 Encap_header.equal a.pops b.pops
  && List.length a.pushes = List.length b.pushes
  && List.for_all2 Encap_header.equal a.pushes b.pushes
  && List.length a.sets = List.length b.sets
  && List.for_all2
       (fun (f1, v1) (f2, v2) -> Field.equal f1 f2 && Field.equal_value v1 v2)
       a.sets b.sets

let pp fmt t =
  if t.drop then Format.pp_print_string fmt "drop"
  else begin
    Format.pp_print_string fmt "fwd";
    List.iter (fun h -> Format.fprintf fmt " pop(%a)" Encap_header.pp h) t.pops;
    if t.sets <> [] then
      Format.fprintf fmt " set(%s)"
        (String.concat ","
           (List.map
              (fun (f, v) -> Format.asprintf "%a=%a" Field.pp f Field.pp_value v)
              t.sets));
    List.iter (fun h -> Format.fprintf fmt " push(%a)" Encap_header.pp h) t.pushes
  end
