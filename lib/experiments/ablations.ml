open Sb_packet

(* A1 ------------------------------------------------------------------ *)

let xor_merge_vs_field_merge () =
  Harness.print_header "Ablation A1" "modify merge: field-level vs literal XOR formula";
  let rng = Sb_trace.Rng.create 11 in
  let actions =
    [
      Sb_mat.Header_action.Modify [ (Field.Dst_ip, Field.Ip (Ipv4_addr.of_string "192.168.2.7")) ];
      Sb_mat.Header_action.Modify [ (Field.Dst_port, Field.Port 8080) ];
      Sb_mat.Header_action.Modify [ (Field.Ttl, Field.Int 40) ];
    ]
  in
  let mismatches = ref 0 in
  let trials = 500 in
  for _ = 1 to trials do
    let packet =
      Packet.tcp
        ~payload:(Sb_trace.Workload.random_payload rng ~len:(Sb_trace.Rng.int_in rng 0 128))
        ~src:(Ipv4_addr.of_octets 10 (Sb_trace.Rng.int rng 256) 0 1)
        ~dst:(Ipv4_addr.of_octets 192 168 1 (Sb_trace.Rng.int_in rng 1 254))
        ~src_port:(Sb_trace.Rng.int_in rng 1024 65535)
        ~dst_port:80 ()
    in
    let by_field = Packet.copy packet in
    let by_xor = Packet.copy packet in
    (match Sb_mat.Consolidate.apply (Sb_mat.Consolidate.of_actions actions) by_field with
    | Sb_mat.Header_action.Forwarded -> ()
    | Sb_mat.Header_action.Dropped -> assert false (* modifies never drop *));
    Sb_mat.Xor_merge.apply_modifies by_xor actions;
    if not (Packet.equal_wire by_field by_xor) then incr mismatches
  done;
  let frame_len = 64 in
  Harness.print_row
    (Printf.sprintf "  output equality on %d random packets: %s" trials
       (if !mismatches = 0 then "identical" else Printf.sprintf "%d mismatches" !mismatches));
  Harness.print_row
    (Printf.sprintf "  model cost, 3 modifies on a %dB frame: field-merge %d cycles, XOR %d cycles"
       frame_len
       (3 * Sb_sim.Cycles.ha_modify_field)
       (Sb_mat.Xor_merge.cost ~n_modifies:3 ~frame_len));
  Harness.print_note "field-level merge wins: XOR pays a full-frame pass per source modify"

(* A2 ------------------------------------------------------------------ *)

let event_table_overhead () =
  Harness.print_header "Ablation A2" "Event Table: fast-path cost per armed event";
  let trace = Harness.micro_trace ~n_flows:32 ~packets_per_flow:24 () in
  let latency_with_events n_events =
    let build_chain () =
      (* A monitor-like NF that registers [n_events] never-firing events. *)
      let monitor = Sb_nf.Monitor.create () in
      let base = Sb_nf.Monitor.nf monitor in
      let quiet = Sb_mat.Event_table.update ~nf:"monitor" ~one_shot:false () in
      let nf =
        Speedybox.Nf.make ~name:"monitor" (fun ctx packet ->
            let result = base.Speedybox.Nf.process ctx packet in
            for _ = 1 to n_events do
              Speedybox.Api.register_event ctx ~condition:(fun () -> false) quiet
            done;
            result)
      in
      Speedybox.Chain.create ~name:"events" [ nf ]
    in
    let rt =
      Speedybox.Runtime.create
        (Speedybox.Runtime.config ~mode:Speedybox.Runtime.Speedybox ())
        (build_chain ())
    in
    let classify = Harness.phase_tracker () in
    let cycles = Sb_sim.Stats.create () in
    let _ =
      Speedybox.Runtime.run_trace
        ~on_output:(fun input out ->
          match classify input with
          | Harness.Handshake | Harness.Init -> ()
          | Harness.Subsequent ->
              Sb_sim.Stats.add_int cycles out.Speedybox.Runtime.latency_cycles)
        rt trace
    in
    Sb_sim.Stats.mean cycles
  in
  let base = latency_with_events 0 in
  List.iter
    (fun n ->
      let with_n = latency_with_events n in
      Harness.print_row
        (Printf.sprintf "  %2d armed events: %6.0f cycles/packet (+%.0f, %.0f per event)" n
           with_n (with_n -. base)
           (if n = 0 then 0. else (with_n -. base) /. float_of_int n)))
    [ 0; 1; 2; 4; 8 ];
  Harness.print_note "per-packet pre-check keeps updates immediate at ~tens of cycles per event"

(* A3 ------------------------------------------------------------------ *)

let parallelism_policies () =
  Harness.print_header "Ablation A3" "parallelism policy: latency vs soundness";
  (* A writer NF followed by a reader NF: Table I must separate them. *)
  let build_chain () =
    Speedybox.Chain.create ~name:"war"
      [
        Sb_nf.Synthetic.nf
          (Sb_nf.Synthetic.create ~name:"writer" ~mode:Sb_mat.State_function.Write ());
        Sb_nf.Synthetic.nf
          (Sb_nf.Synthetic.create ~name:"reader" ~mode:Sb_mat.State_function.Read ());
      ]
  in
  let trace = Harness.micro_trace ~n_flows:16 ~packets_per_flow:16 () in
  List.iter
    (fun (label, policy) ->
      let result =
        Harness.run ~platform:Sb_sim.Platform.Bess ~mode:Speedybox.Runtime.Speedybox ~policy
          ~build_chain trace
      in
      let report =
        Speedybox.Equivalence.check
          ~config_b:(Speedybox.Runtime.config ~mode:Speedybox.Runtime.Speedybox ~policy ())
          ~build_chain trace
      in
      Harness.print_row
        (Printf.sprintf "  %-16s mean latency %5.2fus   equivalent to original: %b" label
           (Sb_sim.Stats.mean result.Speedybox.Runtime.latency_us)
           (Speedybox.Equivalence.equivalent report)))
    [
      ("sequential", Sb_mat.Parallel.Sequential);
      ("table-I", Sb_mat.Parallel.Table_one);
      ("always-parallel", Sb_mat.Parallel.Always_parallel);
    ];
  Harness.print_note
    "Table I keeps WRITE->READ batches sequential (same latency here, still sound); always-parallel races and breaks equivalence"

(* A4 ------------------------------------------------------------------ *)

let fid_width () =
  Harness.print_header "Ablation A4" "FID width vs collision probability";
  let rng = Sb_trace.Rng.create 23 in
  let n_flows = 20000 in
  let tuples =
    List.init n_flows (fun _ ->
        {
          Sb_flow.Five_tuple.src_ip =
            Ipv4_addr.of_octets 10 (Sb_trace.Rng.int rng 256) (Sb_trace.Rng.int rng 256)
              (1 + Sb_trace.Rng.int rng 254);
          dst_ip = Ipv4_addr.of_octets 192 168 1 (1 + Sb_trace.Rng.int rng 254);
          src_port = Sb_trace.Rng.int_in rng 1024 65535;
          dst_port = 80;
          proto = 6;
        })
  in
  List.iter
    (fun bits ->
      let seen = Hashtbl.create n_flows in
      let collisions = ref 0 in
      List.iter
        (fun tuple ->
          let fid = Sb_flow.Fid.of_tuple ~bits tuple in
          if Hashtbl.mem seen fid then incr collisions else Hashtbl.replace seen fid ())
        tuples;
      Harness.print_row
        (Printf.sprintf "  %2d-bit FID: %5d/%d colliding flows (%.2f%%), table at %.1f%% load"
           bits !collisions n_flows
           (100. *. float_of_int !collisions /. float_of_int n_flows)
           (100. *. float_of_int n_flows /. float_of_int (1 lsl bits))))
    [ 12; 16; 20; 24 ];
  Harness.print_note "20 bits (the paper's choice) keeps collisions negligible at this scale"

(* A5 ------------------------------------------------------------------ *)

let rule_sharing () =
  Harness.print_header "Ablation A5" "consolidated-rule sharing across flows";
  let population chain =
    (* Flows stay open so the rule table holds the full population. *)
    let trace =
      Sb_trace.Workload.fixed_flows ~proto:17 ~n_flows:1000 ~packets_per_flow:3
        ~payload_len:32 ()
      |> List.map (fun flow -> { flow with Sb_trace.Workload.close = Sb_trace.Workload.Stay_open })
      |> List.map Sb_trace.Workload.packets_of_flow
      |> Sb_trace.Workload.interleave (Sb_trace.Rng.create 17)
    in
    let rt = Speedybox.Runtime.create (Speedybox.Runtime.config ()) (chain ()) in
    let _ = Speedybox.Runtime.run_trace rt trace in
    Sb_mat.Global_mat.memory_stats (Speedybox.Runtime.global_mat rt)
  in
  List.iter
    (fun (label, spec) ->
      match Chain_registry.build spec with
      | Error msg -> Harness.print_note (label ^ ": " ^ msg)
      | Ok chain ->
          let s = population chain in
          Harness.print_row
            (Printf.sprintf
               "  %-24s %5d rules, %4d distinct actions (%.1fx shareable), %d field writes"
               label s.Sb_mat.Global_mat.rules s.Sb_mat.Global_mat.distinct_actions
               (float_of_int s.Sb_mat.Global_mat.rules
               /. float_of_int (max 1 s.Sb_mat.Global_mat.distinct_actions))
               s.Sb_mat.Global_mat.field_writes))
    [
      ("ipfilter,snort,monitor", "ipfilter,snort,monitor");
      ("mazunat,monitor", "mazunat,monitor");
      ("maglev,monitor", "maglev:8,monitor");
    ];
  Harness.print_note
    "filter/IDS chains collapse to one shared action; NAT ports make every rule unique"

(* A6 ------------------------------------------------------------------ *)

let rule_table_size () =
  Harness.print_header "Ablation A6" "LRU rule-table cap vs fast-path hit rate";
  let trace =
    Sb_trace.Workload.fixed_trace ~proto:17 ~n_flows:512 ~packets_per_flow:20
      ~payload_len:16 ()
  in
  List.iter
    (fun cap ->
      let rt =
        Speedybox.Runtime.create
          (Speedybox.Runtime.config ?max_rules:cap ())
          (Speedybox.Chain.create ~name:"mon" [ Sb_nf.Monitor.nf (Sb_nf.Monitor.create ()) ])
      in
      let result = Speedybox.Runtime.run_trace rt trace in
      let total = result.Speedybox.Runtime.packets in
      Harness.print_row
        (Printf.sprintf "  cap %8s: fast-path %5.1f%%, %5d evictions"
           (match cap with None -> "infinite" | Some c -> string_of_int c)
           (100. *. float_of_int result.Speedybox.Runtime.fast_path /. float_of_int total)
           (Sb_mat.Global_mat.evictions (Speedybox.Runtime.global_mat rt))))
    [ Some 64; Some 128; Some 256; Some 512; None ];
  Harness.print_note "512 concurrent flows: caps below the population thrash like a megaflow cache"

(* A7 ------------------------------------------------------------------ *)

let acl_engine () =
  Harness.print_header "Ablation A7" "ACL engine: linear scan vs source-prefix trie (init cost)";
  let rng = Sb_trace.Rng.create 31 in
  List.iter
    (fun n_rules ->
      (* Deny rules over random /24 source prefixes; the workload never
         matches, so every lookup walks the whole structure. *)
      let rules =
        List.init n_rules (fun _ ->
            Sb_nf.Ipfilter.rule
              ~src:
                (Printf.sprintf "172.%d.%d.0/24" (16 + Sb_trace.Rng.int rng 16)
                   (Sb_trace.Rng.int rng 256))
              Sb_nf.Ipfilter.Deny)
      in
      let linear = Sb_nf.Ipfilter.create ~engine:Sb_nf.Ipfilter.Linear ~rules () in
      let trie = Sb_nf.Ipfilter.create ~engine:Sb_nf.Ipfilter.Trie ~rules () in
      let tuple =
        {
          Sb_flow.Five_tuple.src_ip = Ipv4_addr.of_string "10.1.2.3";
          dst_ip = Ipv4_addr.of_string "192.168.1.10";
          src_port = 40000;
          dst_port = 80;
          proto = 6;
        }
      in
      Harness.print_row
        (Printf.sprintf "  %5d rules: linear %6d cycles, trie %4d cycles (%.0fx)" n_rules
           (Sb_nf.Ipfilter.lookup_cycles linear tuple)
           (Sb_nf.Ipfilter.lookup_cycles trie tuple)
           (float_of_int (Sb_nf.Ipfilter.lookup_cycles linear tuple)
           /. float_of_int (Sb_nf.Ipfilter.lookup_cycles trie tuple))))
    [ 16; 64; 256; 1024 ];
  Harness.print_note
    "the trie flattens Fig. 4's initial-packet cost; verdicts are property-tested equal"

(* A8 ------------------------------------------------------------------ *)

let lb_disruption () =
  Harness.print_header "Ablation A8"
    "LB table algorithm: connection disruption when one backend fails";
  let backends n =
    List.init n (fun i ->
        (Printf.sprintf "b%d" i, Ipv4_addr.of_octets 192 168 2 (10 + i)))
  in
  List.iter
    (fun (label, algorithm) ->
      let disruption n =
        let lb =
          Sb_nf.Maglev.create ~table_size:251 ~algorithm ~backends:(backends n) ()
        in
        let before = Sb_nf.Maglev.lookup_table lb in
        Sb_nf.Maglev.fail_backend lb "b0";
        let after = Sb_nf.Maglev.lookup_table lb in
        let moved = ref 0 and was_victim = ref 0 in
        Array.iteri
          (fun i name ->
            if String.equal name "b0" then incr was_victim
            else if not (String.equal name after.(i)) then incr moved)
          before;
        100. *. float_of_int !moved /. float_of_int (251 - !was_victim)
      in
      Harness.print_row
        (Printf.sprintf "  %-11s foreign slots moved: n=4 %5.1f%%, n=8 %5.1f%%, n=16 %5.1f%%"
           label (disruption 4) (disruption 8) (disruption 16)))
    [ ("consistent", Sb_nf.Maglev.Consistent); ("mod-hash", Sb_nf.Maglev.Mod_hash) ];
  Harness.print_note
    "Maglev's §3.4 population keeps surviving assignments nearly intact; hash-mod-N reshuffles \
     almost everything, rerouting established connections needlessly"

let run () =
  xor_merge_vs_field_merge ();
  event_table_overhead ();
  parallelism_policies ();
  fid_width ();
  rule_sharing ();
  rule_table_size ();
  acl_engine ();
  lb_disruption ()
