open Sb_packet

type acl_action = Permit | Deny

type t = {
  acl_action : acl_action;
  src : Ipv4_addr.Prefix.t option;
  dst : Ipv4_addr.Prefix.t option;
  proto : int option;
  src_ports : (int * int) option;
  dst_ports : (int * int) option;
}

let make ?src ?dst ?proto ?src_ports ?dst_ports acl_action =
  {
    acl_action;
    src = Option.map Ipv4_addr.Prefix.of_string src;
    dst = Option.map Ipv4_addr.Prefix.of_string dst;
    proto;
    src_ports;
    dst_ports;
  }

(* Each optional field is pattern-matched, so a rule check builds no
   closure over the tuple. *)
let matches_except_src r (tuple : Sb_flow.Five_tuple.t) =
  (match r.dst with
  | None -> true
  | Some p -> Ipv4_addr.Prefix.matches p tuple.Sb_flow.Five_tuple.dst_ip)
  && (match r.proto with None -> true | Some p -> p = tuple.Sb_flow.Five_tuple.proto)
  && (match r.src_ports with
     | None -> true
     | Some (lo, hi) ->
         let p = tuple.Sb_flow.Five_tuple.src_port in
         p >= lo && p <= hi)
  &&
  match r.dst_ports with
  | None -> true
  | Some (lo, hi) ->
      let p = tuple.Sb_flow.Five_tuple.dst_port in
      p >= lo && p <= hi

let matches r tuple =
  (match r.src with
  | None -> true
  | Some p -> Ipv4_addr.Prefix.matches p tuple.Sb_flow.Five_tuple.src_ip)
  && matches_except_src r tuple
