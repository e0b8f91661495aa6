(* Recording-only values are built only while recording.

   An instrumentation call is a no-op on a walk that does not record, but
   its arguments are still evaluated, so the NFs guard the state functions
   and event closures they record with [ctx.recording].  These tests pin
   down what that guard must keep: a walk that does not record (every
   Original-mode packet, and a SpeedyBox flow's handshake) leaves every
   Local MAT and the Event Table empty, and a recording walk records the
   same header actions, state-function labels and events as it did before
   the guards. *)

open Speedybox
module P = Sb_packet.Packet

(* The registry's chains, the benchmark's edge-churn chain (Gateway last)
   and a Synthetic NF, so every guarded NF runs. *)
let chains =
  List.map fst (Sb_experiments.Chain_registry.registry ())
  @ [ "statefulfw,monitor,dosguard:200,gateway"; "synthetic,dosguard:4" ]

let build name =
  match Sb_experiments.Chain_registry.build name with
  | Ok build -> build ()
  | Error msg -> Alcotest.fail msg

let trace () =
  Sb_trace.Workload.dcn_trace
    {
      Sb_trace.Workload.seed = 5;
      n_flows = 60;
      mean_flow_packets = 6.;
      payload_len = (16, 256);
      udp_fraction = 0.2;
      malicious_fraction = 0.2;
      tokens = [ "attack" ];
    }

let flags p =
  match P.proto p with P.Tcp -> P.tcp_flag_bits p | P.Udp -> 0

let open_flows () =
  List.filter (fun p -> flags p land Sb_packet.Tcp.(fin_bit lor rst_bit) = 0) (trace ())

let check_nothing_recorded what chain =
  List.iter
    (fun mat ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s Local MAT is empty" what (Sb_mat.Local_mat.nf_name mat))
        0 (Sb_mat.Local_mat.flow_count mat))
    (Chain.local_mats chain);
  Alcotest.(check int) (what ^ ": no event armed") 0
    (Sb_mat.Event_table.total_armed (Chain.events chain))

let run mode chain packets =
  ignore (Runtime.run_trace (Runtime.create (Runtime.config ~mode ()) chain) packets)

let test_original_records_nothing () =
  List.iter
    (fun name ->
      let chain = build name in
      run Runtime.Original chain (trace ());
      check_nothing_recorded (name ^ " original") chain)
    chains

(* SYNs only: no flow finishes its handshake, so every packet walks the
   chain without recording. *)
let test_syn_walks_record_nothing () =
  List.iter
    (fun name ->
      let chain = build name in
      let syns =
        List.filter
          (fun p -> P.proto p = P.Tcp && flags p land Sb_packet.Tcp.syn_bit <> 0)
          (trace ())
      in
      Alcotest.(check bool) "the trace has SYNs" true (syns <> []);
      run Runtime.Speedybox chain syns;
      check_nothing_recorded (name ^ " SYN walks") chain)
    chains

(* Every recorded flow's Local MAT rule per NF, and its armed events, in a
   stable order: the header actions print with their values, the state
   functions by label. *)
let recorded chain rt =
  let fids =
    Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) (Runtime.global_mat rt) []
    |> List.sort compare
  in
  List.concat_map
    (fun fid ->
      Printf.sprintf "%d events=%d" fid
        (Sb_mat.Event_table.armed_count (Chain.events chain) fid)
      :: List.filter_map
           (fun mat ->
             Option.map
               (fun rule ->
                 Format.asprintf "%d %s %a" fid (Sb_mat.Local_mat.nf_name mat)
                   Sb_mat.Local_mat.pp_rule rule)
               (Sb_mat.Local_mat.find mat fid))
           (Chain.local_mats chain))
    fids

(* Digests of [recorded] after a SpeedyBox run of [open_flows] (no FIN or
   RST, so every record survives the run), taken before the NFs guarded
   their recording-only values. *)
let expected =
  [
    ("chain1", (250, "53f451a22e7c6cf3ba5349b3deab94db"));
    ("chain2", (200, "dc5c99714739cb7cd38afd6d88d48079"));
    ("snort-monitor", (150, "12c79cd0ecb45771da2c17f32d945169"));
    ("vpn", (200, "9120648e853c9145e43a3438f91a0eb9"));
    ("edge", (211, "fb70869c761eb5bcdd3c58f3f4fd37e2"));
    ("statefulfw,monitor,dosguard:200,gateway", (211, "f0d2c5191c2965e5ec64337f2f6f3f92"));
    ("synthetic,dosguard:4", (150, "275597fe09a7e1be01f423846f140338"));
  ]

let test_recording_unchanged () =
  let armed = ref 0 in
  List.iter
    (fun name ->
      let chain = build name in
      let rt = Runtime.create (Runtime.config ()) chain in
      ignore (Runtime.run_trace rt (open_flows ()));
      armed := !armed + Sb_mat.Event_table.total_armed (Chain.events chain);
      let lines = recorded chain rt in
      let n, digest = List.assoc name expected in
      Alcotest.(check int) (name ^ ": recorded lines") n (List.length lines);
      Alcotest.(check string) (name ^ ": records") digest
        (Digest.to_hex (Digest.string (String.concat "\n" lines))))
    chains;
  Alcotest.(check bool) "recording walks arm events" true (!armed > 0)

let suite =
  [
    Alcotest.test_case "original mode records nothing" `Quick test_original_records_nothing;
    Alcotest.test_case "SYN walks record nothing" `Quick test_syn_walks_record_nothing;
    Alcotest.test_case "recording walks record as before" `Quick test_recording_unchanged;
  ]
