(* Shared helpers for the test suites. *)
open Sb_packet

let ip = Ipv4_addr.of_string

let tuple ?(proto = 6) ?(src = "10.0.0.1") ?(dst = "192.168.1.10") ?(sport = 40000)
    ?(dport = 80) () =
  {
    Sb_flow.Five_tuple.src_ip = ip src;
    dst_ip = ip dst;
    src_port = sport;
    dst_port = dport;
    proto;
  }

let tcp_packet ?(payload = "hello world") ?(flags = Tcp.Flags.ack) ?(src = "10.0.0.1")
    ?(dst = "192.168.1.10") ?(sport = 40000) ?(dport = 80) () =
  Packet.tcp ~payload ~flags ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport ()

let udp_packet ?(payload = "hello") ?(src = "10.0.0.1") ?(dst = "192.168.1.10")
    ?(sport = 40000) ?(dport = 53) () =
  Packet.udp ~payload ~src:(ip src) ~dst:(ip dst) ~src_port:sport ~dst_port:dport ()

(* A short TCP flow: SYN then [n] data packets, last one carrying FIN. *)
let tcp_flow ?(src = "10.0.0.1") ?(dst = "192.168.1.10") ?(sport = 40000) ?(dport = 80)
    ?(payload = "hello world") ?(fin = true) n =
  let syn = tcp_packet ~payload:"" ~flags:Tcp.Flags.syn ~src ~dst ~sport ~dport () in
  let data =
    List.init n (fun k ->
        let flags =
          if fin && k = n - 1 then Tcp.Flags.fin_ack else Tcp.Flags.ack
        in
        tcp_packet ~payload ~flags ~src ~dst ~sport ~dport ())
  in
  syn :: data

let check_equivalent name report =
  Alcotest.(check bool)
    (name ^ ": equivalent"
    ^
    match report.Speedybox.Equivalence.first_mismatch with
    | Some m -> " (" ^ m ^ ")"
    | None -> "")
    true
    (Speedybox.Equivalence.equivalent report)

let qcheck_cases tests = List.map QCheck_alcotest.to_alcotest tests

(* Does the output's profile carry a [Parallel] item (a multi-batch wave)? *)
let has_parallel_item (out : Speedybox.Runtime.output) =
  List.exists
    (fun (st : Sb_sim.Cost_profile.stage) ->
      List.exists
        (function Sb_sim.Cost_profile.Parallel _ -> true | Sb_sim.Cost_profile.Serial _ -> false)
        st.Sb_sim.Cost_profile.items)
    out.Speedybox.Runtime.profile
