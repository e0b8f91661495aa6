open Sb_flow

type acl_action = Ipfilter_rule.acl_action = Permit | Deny

type acl_rule = Ipfilter_rule.t = {
  acl_action : acl_action;
  src : Sb_packet.Ipv4_addr.Prefix.t option;
  dst : Sb_packet.Ipv4_addr.Prefix.t option;
  proto : int option;
  src_ports : (int * int) option;
  dst_ports : (int * int) option;
}

let rule = Ipfilter_rule.make

let rule_matches = Ipfilter_rule.matches

type engine = Linear | Trie

type t = {
  name : string;
  rules : acl_rule array;
  default : acl_action;
  engine : engine;
  trie : Acl_trie.t;  (* built eagerly; only consulted by the Trie engine *)
  cache : acl_action Tuple_map.t;
  mutable denied : int;
}

let create ?(name = "ipfilter") ?(default = Permit) ?(engine = Linear) ~rules () =
  let rules = Array.of_list rules in
  {
    name;
    rules;
    default;
    engine;
    trie = Acl_trie.build rules;
    cache = Tuple_map.create 256;
    denied = 0;
  }

let name t = t.name

let rec linear_scan rules tuple i =
  if i >= Array.length rules then None
  else if Ipfilter_rule.matches rules.(i) tuple then Some i
  else linear_scan rules tuple (i + 1)

let lookup_index t tuple =
  match t.engine with Linear -> linear_scan t.rules tuple 0 | Trie -> Acl_trie.lookup t.trie tuple

let lookup t tuple =
  match lookup_index t tuple with Some i -> t.rules.(i).acl_action | None -> t.default

let lookup_cycles t tuple =
  match t.engine with
  | Linear -> (Array.length t.rules + 1) * Sb_sim.Cycles.acl_rule_scan
  | Trie ->
      Sb_sim.Cycles.acl_trie_walk
      + ((Acl_trie.candidates t.trie tuple + 1) * Sb_sim.Cycles.acl_rule_scan)

let flows_cached t = Tuple_map.length t.cache

let denied_count t = t.denied

(* The verdict's header action, charged [lookup_cost] on top of the rest. *)
let verdict_result t ctx lookup_cost = function
  | Permit ->
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
      Speedybox.Nf.forwarded (Sb_sim.Cycles.(parse + classify + ha_forward) + lookup_cost)
  | Deny ->
      t.denied <- t.denied + 1;
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
      Speedybox.Nf.dropped (Sb_sim.Cycles.(parse + classify + ha_drop) + lookup_cost)

(* Keyed by the packet's bytes, as the stateful firewall is: only a flow's
   first packet builds a tuple, for the ACL lookup. *)
let process t ctx packet =
  let k1 = Five_tuple.packet_pack1 packet and k2 = Five_tuple.packet_pack2 packet in
  let hash = Five_tuple.hash_packed k1 k2 in
  let s = Tuple_map.find_slot_packed t.cache ~hash k1 k2 in
  if s >= 0 then
    verdict_result t ctx Sb_sim.Cycles.acl_established (Tuple_map.value_at t.cache s)
  else begin
    let tuple = Five_tuple.of_packet packet in
    let v = lookup t tuple in
    Tuple_map.replace_packed t.cache ~hash k1 k2 v;
    verdict_result t ctx (lookup_cycles t tuple) v
  end

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () -> Printf.sprintf "flows=%d" (Tuple_map.length t.cache))
    (fun ctx packet -> process t ctx packet)
