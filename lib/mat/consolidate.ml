open Sb_packet

type t = {
  drop : bool;
  pops : Encap_header.t list;
  pushes : Encap_header.t list;
  sets : (Field.t * Field.value) list;
}

let forward = { drop = false; pops = []; pushes = []; sets = [] }

(* Insert one write into a list sorted by field, replacing an earlier
   write to the same field.  Field order puts the main fields before the
   auxiliary ones (the paper applies checksum/TTL/MAC-style fields at the
   end), so sorted order is the canonical order. *)
let rec insert_set ((f, _) as w) = function
  | [] -> [ w ]
  | ((f', _) as w') :: rest ->
      let c = Field.compare f f' in
      if c < 0 then w :: w' :: rest
      else if c = 0 then w :: rest
      else w' :: insert_set w rest

let rec insert_sets acc = function [] -> acc | w :: rest -> insert_sets (insert_set w acc) rest

(* The Modify payloads come newest first: recurse before inserting so
   later writes replace earlier ones. *)
let rec canonical_sets = function
  | [] -> []
  | s :: older -> insert_sets (canonical_sets older) s

type run = {
  mutable r_drop : bool;
  mutable r_pops : Encap_header.t list;  (* reversed: first pop last *)
  mutable r_pushes : Encap_header.t list;  (* stack: head = outermost pending push *)
  mutable r_sets : (Field.t * Field.value) list list;  (* Modify payloads, newest first *)
  mutable below : Encap_header.t list;
      (* pushes earlier runs left pending, top first: a decap the run
         cannot cancel itself must match these *)
}

let run () = { r_drop = false; r_pops = []; r_pushes = []; r_sets = []; below = [] }

let mismatch h =
  invalid_arg
    (Format.asprintf "Consolidate.of_actions: decap %a does not match pending encap"
       Encap_header.pp h)

let add r action =
  if not r.r_drop then
    match action with
    | Header_action.Forward -> ()
    | Header_action.Drop -> r.r_drop <- true
    | Header_action.Modify s -> r.r_sets <- s :: r.r_sets
    | Header_action.Encap h -> r.r_pushes <- h :: r.r_pushes
    | Header_action.Decap h -> (
        match r.r_pushes with
        | top :: rest ->
            (* An encap earlier in the run cancels this decap. *)
            if Encap_header.equal top h then r.r_pushes <- rest else mismatch h
        | [] -> (
            (* For the run, this pops a header the packet carried on
               entering it; an earlier run's pending encap cancels it for
               the chain as a whole. *)
            r.r_pops <- h :: r.r_pops;
            match r.below with
            | top :: rest -> if Encap_header.equal top h then r.below <- rest else mismatch h
            | [] -> ()))

let run_drops r = r.r_drop

let cut r =
  let sets = canonical_sets r.r_sets in
  let t =
    if (not r.r_drop) && r.r_pops = [] && r.r_pushes = [] && sets = [] then forward
    else { drop = r.r_drop; pops = List.rev r.r_pops; pushes = List.rev r.r_pushes; sets }
  in
  (match r.r_pushes with [] -> () | pushes -> r.below <- pushes @ r.below);
  r.r_drop <- false;
  r.r_pops <- [];
  r.r_pushes <- [];
  r.r_sets <- [];
  t

let reset r =
  ignore (cut r);
  r.below <- []

(* A dropping rule keeps the transformation accumulated up to the drop:
   the state functions of upstream NFs must observe the packet as they
   did on the original path (e.g. a monitor downstream of a NAT counts
   the rewritten tuple), even though the packet is then discarded. *)
let of_actions actions =
  let r = run () in
  List.iter (add r) actions;
  cut r

(* Feed [t] back as the actions it stands for: pops, one modify, pushes,
   then the drop that ends it. *)
let add_consolidated r t =
  List.iter (fun h -> add r (Header_action.Decap h)) t.pops;
  (match t.sets with [] -> () | sets -> add r (Header_action.Modify sets));
  List.iter (fun h -> add r (Header_action.Encap h)) t.pushes;
  if t.drop then add r Header_action.Drop

let seq ts =
  let r = run () in
  List.iter (add_consolidated r) ts;
  cut r

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
