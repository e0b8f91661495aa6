open Sb_packet
open Sb_flow

type role = Encap of { spi_base : int32 } | Decap

type t = {
  name : string;
  role : role;
  spis : int32 Tuple_map.t;
  mutable next_spi : int32;
  mutable auth_failures : int;
}

let encapsulator ?(name = "vpn-in") ?(spi_base = 1000l) () =
  {
    name;
    role = Encap { spi_base };
    spis = Tuple_map.create 64;
    next_spi = spi_base;
    auth_failures = 0;
  }

let decapsulator ?(name = "vpn-out") () =
  { name; role = Decap; spis = Tuple_map.create 64; next_spi = 0l; auth_failures = 0 }

let name t = t.name

let auth_failures t = t.auth_failures

let process_encap t ctx packet =
  let tuple = Five_tuple.of_packet packet in
  let spi =
    Tuple_map.find_or_add t.spis tuple ~default:(fun () ->
        let spi = t.next_spi in
        t.next_spi <- Int32.add t.next_spi 1l;
        spi)
  in
  let action = Sb_mat.Header_action.Encap (Encap_header.Auth { spi; seq = 0l }) in
  (match Sb_mat.Header_action.apply action packet with
  | Sb_mat.Header_action.Forwarded -> ()
  | Sb_mat.Header_action.Dropped -> assert false (* encap never drops *));
  Speedybox.Api.localmat_add_ha ctx action;
  Speedybox.Nf.forwarded
    (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + Sb_mat.Header_action.cost action)

let process_decap t ctx packet =
  let base = Sb_sim.Cycles.parse + Sb_sim.Cycles.classify in
  match Packet.outer_stack packet with
  | Encap_header.Auth _ :: _ ->
      let header = List.hd (Packet.outer_stack packet) in
      let action = Sb_mat.Header_action.Decap header in
      (match Sb_mat.Header_action.apply action packet with
      | Sb_mat.Header_action.Forwarded -> ()
      | Sb_mat.Header_action.Dropped -> assert false (* decap never drops *));
      Speedybox.Api.localmat_add_ha ctx action;
      Speedybox.Nf.forwarded (base + Sb_mat.Header_action.cost action)
  | _ ->
      t.auth_failures <- t.auth_failures + 1;
      Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
      Speedybox.Nf.dropped (base + Sb_sim.Cycles.ha_drop)

let process t ctx packet =
  match t.role with
  | Encap _ -> process_encap t ctx packet
  | Decap -> process_decap t ctx packet

let nf t =
  Speedybox.Nf.make ~name:t.name
    (* auth_failures is a per-packet drop tally, i.e. exactly the redundant
       work early drop eliminates — like a firewall's deny counter it is
       reporting state, not flow-processing state, so it stays out of the
       equivalence digest. *)
    ~state_digest:(fun () -> Printf.sprintf "flows=%d" (Tuple_map.length t.spis))
    (fun ctx packet -> process t ctx packet)
