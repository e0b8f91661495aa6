(* The Event Table in action: Maglev backend failover (§VII-C2).

   A flow of 10 packets is load-balanced to a backend; after the 5th packet
   the backend fails.  On the SpeedyBox fast path, the per-flow event
   registered by Maglev fires on the next packet: the flow's consolidated
   modify(DIP) is rewritten to the surviving backend, so packets 6-10 go to
   the new destination — exactly the paper's equivalence case study.

   Run with: dune exec examples/maglev_failover.exe *)

open Sb_packet

let ip = Ipv4_addr.of_string

let () =
  let backends =
    List.init 4 (fun i ->
        (Printf.sprintf "backend%d" i, Ipv4_addr.of_octets 192 168 2 (10 + i)))
  in
  let maglev = Sb_nf.Maglev.create ~backends () in
  let chain =
    Speedybox.Chain.create ~name:"lb"
      [ Sb_nf.Maglev.nf maglev; Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ]
  in
  let runtime = Speedybox.Runtime.create (Speedybox.Runtime.config ()) chain in

  let flow_packet i =
    Packet.udp
      ~payload:(Printf.sprintf "payload %d" i)
      ~src:(ip "10.0.0.1") ~dst:(ip "192.168.1.10") ~src_port:40000 ~dst_port:80 ()
  in

  print_endline "pkt  path  dst-ip         events-fired";
  for i = 1 to 10 do
    (* The flow's tracked backend fails after the 5th packet. *)
    if i = 6 then begin
      let tuple =
        Sb_flow.Five_tuple.of_packet (flow_packet 0)
      in
      match Sb_nf.Maglev.backend_of_flow maglev tuple with
      | Some victim ->
          Printf.printf "  -- failing %s --\n" victim;
          Sb_nf.Maglev.fail_backend maglev victim
      | None -> ()
    end;
    let out = Speedybox.Runtime.process_packet runtime (flow_packet i) in
    Printf.printf "%3d  %-4s  %-13s  %d\n" i
      (match out.Speedybox.Runtime.path with
      | Speedybox.Runtime.Slow_path -> "slow"
      | Speedybox.Runtime.Fast_path -> "fast"
      | Speedybox.Runtime.Rejected -> "rejected")
      (Ipv4_addr.to_string (Packet.dst_ip out.Speedybox.Runtime.packet))
      out.Speedybox.Runtime.events_fired
  done;
  Printf.printf "\nsurviving backends: %s\n"
    (String.concat ", " (Sb_nf.Maglev.alive_backends maglev));
  print_endline "packets 1-5 reach the original backend; the event fires on packet 6";
  print_endline "and rewrites the consolidated rule, so 6-10 reach the new backend."
