open Sb_packet
open Sb_flow

type service = {
  public_port : int;
  internal_servers : Ipv4_addr.t list;
  internal_port : int;
  dscp : int;
}

let service ~public_port ~internal_port ?(dscp = 0x2e) internal_servers =
  if internal_servers = [] then invalid_arg "Gateway.service: empty server pool";
  { public_port; internal_servers; internal_port; dscp }

(* One internal server of one service, with the rewrite that pins a flow
   to it: built once at [create] and shared by every flow it serves. *)
type target = {
  server : Ipv4_addr.t;
  port : int;
  action : Sb_mat.Header_action.t;
  cost : int;
}

(* A service's servers are [targets.(first) .. targets.(first + size - 1)]. *)
type pool = { first : int; size : int; mutable next : int }

type t = {
  name : string;
  services : (int, pool) Hashtbl.t;  (* keyed by public port *)
  targets : target array;
  assignments : int Tuple_map.t;  (* ingress tuple -> index into [targets] *)
}

let target s server =
  let action =
    Sb_mat.Header_action.Modify
      [
        (Field.Dst_ip, Field.Ip server);
        (Field.Dst_port, Field.Port s.internal_port);
        (Field.Tos, Field.Int s.dscp);
      ]
  in
  { server; port = s.internal_port; action; cost = Sb_mat.Header_action.cost action }

let create ?(name = "gateway") ~services () =
  let table = Hashtbl.create 8 in
  let first = ref 0 in
  List.iter
    (fun s ->
      let size = List.length s.internal_servers in
      Hashtbl.replace table s.public_port { first = !first; size; next = 0 };
      first := !first + size)
    services;
  let targets =
    Array.of_list (List.concat_map (fun s -> List.map (target s) s.internal_servers) services)
  in
  { name; services = table; targets; assignments = Tuple_map.create 256 }

let name t = t.name

let assignment t tuple =
  Option.map
    (fun i ->
      let tg = t.targets.(i) in
      (tg.server, tg.port))
    (Tuple_map.find_opt t.assignments tuple)

let flows_assigned t = Tuple_map.length t.assignments

(* The flow's target, picked round-robin from its service's pool the first
   time the flow is seen. *)
let assign t k1 k2 pool =
  let hash = Five_tuple.hash_packed k1 k2 in
  let s = Tuple_map.find_slot_packed t.assignments ~hash k1 k2 in
  if s >= 0 then Tuple_map.value_at t.assignments s
  else begin
    let i = pool.first + (pool.next mod pool.size) in
    pool.next <- pool.next + 1;
    Tuple_map.replace_packed t.assignments ~hash k1 k2 i;
    i
  end

(* Keyed by the packet's bytes, as the firewall is: the lookup builds no
   tuple, and the rewrite is the target's shared action. *)
let process t ctx packet =
  let k1 = Five_tuple.packet_pack1 packet and k2 = Five_tuple.packet_pack2 packet in
  let base = Sb_sim.Cycles.parse + Sb_sim.Cycles.classify in
  match Hashtbl.find t.services (k2 land 0xFFFF) with
  | exception Not_found ->
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
      Speedybox.Nf.forwarded (base + Sb_sim.Cycles.ha_forward)
  | pool ->
      let tg = t.targets.(assign t k1 k2 pool) in
      (match Sb_mat.Header_action.apply tg.action packet with
      | Sb_mat.Header_action.Forwarded -> ()
      | Sb_mat.Header_action.Dropped -> assert false (* modify never drops *));
      Speedybox.Api.localmat_add_ha ctx tg.action;
      Speedybox.Nf.forwarded (base + Sb_sim.Cycles.classify + tg.cost)

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () ->
      Tuple_map.fold
        (fun tuple i acc ->
          let tg = t.targets.(i) in
          Format.asprintf "%a => %a:%d" Five_tuple.pp tuple Ipv4_addr.pp tg.server tg.port
          :: acc)
        t.assignments []
      |> List.sort String.compare |> String.concat "\n")
    (fun ctx packet -> process t ctx packet)
