(* Quickstart: build a service chain, instrument a custom NF with the
   SpeedyBox APIs, and watch packets move from the slow path to the
   consolidated fast path.

   Run with: dune exec examples/quickstart.exe *)

open Sb_packet

let ip = Ipv4_addr.of_string

(* A custom NF written against the public API: marks every packet of a
   flow with a DSCP value (a [modify] header action) and counts packets (a
   payload-IGNORE state function).  The three [Speedybox.Api] calls are the
   entire integration effort. *)
let tos_marker () =
  let packets = ref 0 in
  Speedybox.Nf.make ~name:"tos-marker"
    ~state_digest:(fun () -> Printf.sprintf "packets=%d" !packets)
    (fun ctx packet ->
      let action = Sb_mat.Header_action.modify1 Field.Tos (Field.Int 0x2e) in
      (match Sb_mat.Header_action.apply action packet with
      | Sb_mat.Header_action.Forwarded -> ()
      | Sb_mat.Header_action.Dropped -> assert false);
      incr packets;
      Speedybox.Api.localmat_add_ha ctx action;
      Speedybox.Api.localmat_add_sf ctx
        (Sb_mat.State_function.make ~nf:"tos-marker" ~label:"count"
           ~mode:Sb_mat.State_function.Ignore (fun _ ->
             incr packets;
             20));
      Speedybox.Nf.forwarded 300)

let () =
  (* A chain of the custom NF plus two stock NFs. *)
  let chain =
    Speedybox.Chain.create ~name:"quickstart"
      [
        tos_marker ();
        Sb_nf.Mazunat.nf (Sb_nf.Mazunat.create ~external_ip:(ip "203.0.113.1") ());
        Sb_nf.Monitor.nf (Sb_nf.Monitor.create ());
      ]
  in
  let runtime = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in

  (* One TCP flow: SYN, then five data packets. *)
  let packets =
    Packet.tcp ~flags:Tcp.Flags.syn ~src:(ip "10.0.0.1") ~dst:(ip "192.168.1.10")
      ~src_port:40000 ~dst_port:80 ()
    :: List.init 5 (fun i ->
           Packet.tcp
             ~payload:(Printf.sprintf "request %d" i)
             ~src:(ip "10.0.0.1") ~dst:(ip "192.168.1.10") ~src_port:40000 ~dst_port:80 ())
  in

  print_endline "pkt  path  latency   output";
  List.iteri
    (fun i p ->
      let out = Speedybox.Runtime.process_packet runtime (Packet.copy p) in
      Format.printf "%3d  %-4s  %5.2fus   %a@." i
        (match out.Speedybox.Runtime.path with
        | Speedybox.Runtime.Slow_path -> "slow"
        | Speedybox.Runtime.Fast_path -> "fast"
        | Speedybox.Runtime.Rejected -> "rejected")
        (Sb_sim.Cycles.to_microseconds out.Speedybox.Runtime.latency_cycles)
        Packet.pp out.Speedybox.Runtime.packet)
    packets;

  Format.printf "@.consolidated rules installed: %d@."
    (Sb_mat.Global_mat.flow_count (Speedybox.Runtime.global_mat runtime));
  print_endline "note: the SYN and the first data packet take the slow path (the";
  print_endline "      data packet records the flow's rule); packets 2-5 hit the";
  print_endline "      Global MAT fast path with NAT rewrite and DSCP mark merged."
