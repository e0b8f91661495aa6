type node = {
  mutable rules : int list;  (* rule indices anchored at this prefix, ascending *)
  mutable zero : node option;
  mutable one : node option;
}

type t = { root : node; all : Ipfilter_rule.t array; mutable nodes : int }

let new_node () = { rules = []; zero = None; one = None }

let bit (addr : Sb_packet.Ipv4_addr.t) i = ((addr :> int) lsr (31 - i)) land 1

let insert t prefix idx =
  let rec go node depth =
    match prefix with
    | None -> node.rules <- node.rules @ [ idx ]
    | Some { Sb_packet.Ipv4_addr.Prefix.base; bits } ->
        if depth = bits then node.rules <- node.rules @ [ idx ]
        else begin
          let next =
            if bit base depth = 0 then begin
              match node.zero with
              | Some n -> n
              | None ->
                  let n = new_node () in
                  node.zero <- Some n;
                  t.nodes <- t.nodes + 1;
                  n
            end
            else begin
              match node.one with
              | Some n -> n
              | None ->
                  let n = new_node () in
                  node.one <- Some n;
                  t.nodes <- t.nodes + 1;
                  n
            end
          in
          go next (depth + 1)
        end
  in
  go t.root 0

let build rules =
  let t = { root = new_node (); all = rules; nodes = 1 } in
  Array.iteri (fun idx rule -> insert t rule.Ipfilter_rule.src idx) rules;
  t

(* Indices of every rule whose source prefix covers the address: collected
   root-to-leaf along the address's bit path. *)
let candidate_indices t (tuple : Sb_flow.Five_tuple.t) =
  let addr = tuple.Sb_flow.Five_tuple.src_ip in
  let rec go node depth acc =
    let acc = List.rev_append node.rules acc in
    if depth = 32 then acc
    else
      match if bit addr depth = 0 then node.zero else node.one with
      | None -> acc
      | Some next -> go next (depth + 1) acc
  in
  go t.root 0 [] |> List.sort_uniq Int.compare

let candidates t tuple = List.length (candidate_indices t tuple)

let lookup t tuple =
  (* Candidates are in priority (index) order after the sort; the source
     dimension is satisfied by construction. *)
  List.find_opt
    (fun idx -> Ipfilter_rule.matches_except_src t.all.(idx) tuple)
    (candidate_indices t tuple)

let node_count t = t.nodes
