open Sb_packet
open Sb_flow

type flow_state = Accepted | Rejected

type t = {
  name : string;
  udp_allowed : int list;
  flows : flow_state Tuple_map.t;
}

let create ?(name = "statefulfw") ?(udp_allowed_ports = [ 53; 123 ]) () =
  { name; udp_allowed = udp_allowed_ports; flows = Tuple_map.create 256 }

let name t = t.name

let state t tuple = Tuple_map.find_opt t.flows tuple

let count t wanted =
  Tuple_map.fold (fun _ s acc -> if s = wanted then acc + 1 else acc) t.flows 0

let accepted_flows t = count t Accepted

let rejected_flows t = count t Rejected

(* The verdict for a flow whose first packet is [packet]. *)
let admit t packet =
  match Packet.proto packet with
  | Packet.Tcp -> if (Packet.tcp_flags packet).Tcp.Flags.syn then Accepted else Rejected
  | Packet.Udp -> if List.mem (Packet.dst_port packet) t.udp_allowed then Accepted else Rejected

(* Keyed by the packet's bytes: the lookup builds no tuple. *)
let process t ctx packet =
  let k1 = Five_tuple.packet_pack1 packet and k2 = Five_tuple.packet_pack2 packet in
  let hash = Five_tuple.hash_packed k1 k2 in
  let s = Tuple_map.find_slot_packed t.flows ~hash k1 k2 in
  let verdict, lookup_cycles =
    if s >= 0 then (Tuple_map.value_at t.flows s, Sb_sim.Cycles.acl_established)
    else begin
      let v = admit t packet in
      Tuple_map.replace_packed t.flows ~hash k1 k2 v;
      (v, Sb_sim.Cycles.acl_established + Sb_sim.Cycles.classify)
    end
  in
  let base = Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + lookup_cycles in
  match verdict with
  | Accepted ->
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
      Speedybox.Nf.forwarded (base + Sb_sim.Cycles.ha_forward)
  | Rejected ->
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
      Speedybox.Nf.dropped (base + Sb_sim.Cycles.ha_drop)

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () ->
      Printf.sprintf "accepted=%d rejected=%d" (accepted_flows t) (rejected_flows t))
    (fun ctx packet -> process t ctx packet)
