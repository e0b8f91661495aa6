open Sb_packet
open Sb_trace

type mutator =
  | Reorder of float
  | Loss of float
  | Dup of float
  | Corrupt of { rate : float; fix : bool }
  | Retrans of float
  | Delay of float
  | Blackhole of float

type spec = mutator list

(* 25 ms at the simulated 2 GHz: far past any idle timeout the experiments
   configure, so a delayed flow tail always finds its rules torn down. *)
let delay_cycles = 50_000_000

let mutator_name = function
  | Reorder _ -> "reorder"
  | Loss _ -> "loss"
  | Dup _ -> "dup"
  | Corrupt { fix = false; _ } -> "corrupt"
  | Corrupt { fix = true; _ } -> "corrupt-fix"
  | Retrans _ -> "retrans"
  | Delay _ -> "delay"
  | Blackhole _ -> "blackhole"

let known_names =
  "reorder, loss, dup, corrupt, corrupt-fix, retrans, delay, blackhole"

let parse_entry entry =
  match String.split_on_char ':' entry with
  | [ name; rate ] -> (
      match float_of_string_opt rate with
      | None -> Error (Printf.sprintf "impair spec %S: rate %S is not a number" entry rate)
      | Some r when r < 0. || r > 1. ->
          Error (Printf.sprintf "impair spec %S: rate must be in [0,1]" entry)
      | Some r -> (
          match name with
          | "reorder" -> Ok (Reorder r)
          | "loss" -> Ok (Loss r)
          | "dup" -> Ok (Dup r)
          | "corrupt" -> Ok (Corrupt { rate = r; fix = false })
          | "corrupt-fix" -> Ok (Corrupt { rate = r; fix = true })
          | "retrans" -> Ok (Retrans r)
          | "delay" -> Ok (Delay r)
          | "blackhole" -> Ok (Blackhole r)
          | _ ->
              Error
                (Printf.sprintf "impair spec %S: unknown mutator %S (want %s)" entry name
                   known_names)))
  | _ -> Error (Printf.sprintf "impair spec %S: want NAME:RATE" entry)

let parse_spec s =
  let entries = String.split_on_char ',' (String.trim s) in
  let entries = List.map String.trim entries in
  if entries = [ "" ] then Error "impair spec is empty (want NAME:RATE[,NAME:RATE...])"
  else if List.exists (fun e -> e = "") entries then
    Error (Printf.sprintf "impair spec %S: empty entry (stray comma?)" s)
  else
    List.fold_left
      (fun acc entry ->
        match acc with
        | Error _ -> acc
        | Ok spec -> Result.map (fun m -> m :: spec) (parse_entry entry))
      (Ok []) entries
    |> Result.map List.rev

type summary = {
  input_packets : int;
  output_packets : int;
  reordered : int;
  lost : int;
  duplicated : int;
  corrupted : int;
  retransmitted : int;
  delayed_flows : int;
  blackholed : int;
}

let summary_line ~seed s =
  let effects =
    List.filter
      (fun (_, n) -> n > 0)
      [
        ("reorder", s.reordered);
        ("loss", s.lost);
        ("dup", s.duplicated);
        ("corrupt", s.corrupted);
        ("retrans", s.retransmitted);
        ("delay", s.delayed_flows);
        ("blackhole", s.blackholed);
      ]
  in
  let body =
    if effects = [] then "no packets affected"
    else String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "%s %d" n c) effects)
  in
  Printf.sprintf "impairments: %s (%d -> %d packets, seed %d)" body s.input_packets
    s.output_packets seed

(* ---- mutators ----

   Each mutator consumes its own split-off RNG, draws in array order (one
   pass, deterministic), and returns a fresh array; packets themselves are
   shared across arrays except where a mutator rewrites bytes (corrupt)
   or clones (dup/retrans) — [apply] copied every input up front, so
   in-place byte writes never reach the caller's trace. *)

let m_reorder rng p s packets =
  let keyed =
    Array.mapi
      (fun i pkt ->
        let jitter = if Rng.bool rng p then 1 + Rng.int rng 8 else 0 in
        if jitter > 0 then s := { !s with reordered = !s.reordered + 1 };
        (i + jitter, i, pkt))
      packets
  in
  (* Sort by displaced position, original index as tie-break: a stable
     total order, so equal-seed runs produce identical permutations. *)
  Array.sort
    (fun (ka, ia, _) (kb, ib, _) ->
      match Int.compare ka kb with 0 -> Int.compare ia ib | c -> c)
    keyed;
  Array.map (fun (_, _, pkt) -> pkt) keyed

let m_loss rng p s packets =
  let kept =
    Array.to_list packets
    |> List.filter (fun _pkt ->
           let drop = Rng.bool rng p in
           if drop then s := { !s with lost = !s.lost + 1 };
           not drop)
  in
  Array.of_list kept

let m_dup rng p s packets =
  let out = ref [] in
  Array.iter
    (fun pkt ->
      out := pkt :: !out;
      if Rng.bool rng p then begin
        s := { !s with duplicated = !s.duplicated + 1 };
        out := Packet.copy pkt :: !out
      end)
    packets;
  Array.of_list (List.rev !out)

let m_corrupt rng ~rate ~fix s packets =
  Array.iter
    (fun pkt ->
      if Rng.bool rng rate then begin
        let l3 = Packet.l3_offset pkt in
        if pkt.Packet.len > l3 then begin
          s := { !s with corrupted = !s.corrupted + 1 };
          let off = l3 + Rng.int rng (pkt.Packet.len - l3) in
          let flip = 1 + Rng.int rng 255 in
          Bytes.set pkt.Packet.buf off
            (Char.chr (Char.code (Bytes.get pkt.Packet.buf off) lxor flip));
          if fix then
            (* Recompute checksums so the damage is silent; a corrupted
               protocol byte can make the packet unparseable, in which
               case the stale checksums stay (the classifier rejects it
               on the 5-tuple parse anyway). *)
            try Packet.fix_checksums pkt with Invalid_argument _ -> ()
        end
      end)
    packets

let is_tcp_control pkt =
  match Sb_flow.Five_tuple.of_packet_opt pkt with
  | Some t when t.Sb_flow.Five_tuple.proto = 6 ->
      let f = Packet.tcp_flags pkt in
      f.Tcp.Flags.syn || f.Tcp.Flags.fin || f.Tcp.Flags.rst
  | Some _ | None -> false

let m_retrans rng p s packets =
  let n = Array.length packets in
  (* [extras.(i)] = retransmitted copies to emit right after slot [i],
     oldest first. *)
  let extras = Array.make n [] in
  Array.iteri
    (fun i pkt ->
      if is_tcp_control pkt && Rng.bool rng p then begin
        s := { !s with retransmitted = !s.retransmitted + 1 };
        let at = min (n - 1) (i + 1 + Rng.int rng 3) in
        extras.(at) <- Packet.copy pkt :: extras.(at)
      end)
    packets;
  let out = ref [] in
  Array.iteri
    (fun i pkt ->
      out := pkt :: !out;
      List.iter (fun r -> out := r :: !out) (List.rev extras.(i)))
    packets;
  Array.of_list (List.rev !out)

let m_delay rng p s packets =
  (* One probability draw per distinct flow, in order of first appearance;
     an affected flow's tail (its second half of packets) moves to the end
     of the trace with the arrival clock pushed past idle-expiry.  Flows
     are keyed by 5-tuple; packets with no tuple are never delayed. *)
  let flow_counts = Hashtbl.create 64 in
  Array.iter
    (fun pkt ->
      match Sb_flow.Five_tuple.of_packet_opt pkt with
      | Some tuple ->
          Hashtbl.replace flow_counts tuple
            (1 + Option.value ~default:0 (Hashtbl.find_opt flow_counts tuple))
      | None -> ())
    packets;
  let delayed = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun pkt ->
      match Sb_flow.Five_tuple.of_packet_opt pkt with
      | Some tuple when not (Hashtbl.mem seen tuple) ->
          Hashtbl.replace seen tuple ();
          if Rng.bool rng p && Hashtbl.find flow_counts tuple > 1 then begin
            s := { !s with delayed_flows = !s.delayed_flows + 1 };
            (* Tail = everything after the flow's first half. *)
            Hashtbl.replace delayed tuple (Hashtbl.find flow_counts tuple / 2)
          end
      | Some _ | None -> ())
    packets;
  let keep = ref [] and tail = ref [] in
  let emitted = Hashtbl.create 64 in
  Array.iter
    (fun pkt ->
      let route_tail =
        match Sb_flow.Five_tuple.of_packet_opt pkt with
        | Some tuple -> (
            match Hashtbl.find_opt delayed tuple with
            | Some keep_n ->
                let k = Option.value ~default:0 (Hashtbl.find_opt emitted tuple) in
                Hashtbl.replace emitted tuple (k + 1);
                k >= keep_n
            | None -> false)
        | None -> false
      in
      if route_tail then begin
        pkt.Packet.ingress_cycle <- pkt.Packet.ingress_cycle + delay_cycles;
        tail := pkt :: !tail
      end
      else keep := pkt :: !keep)
    packets;
  Array.of_list (List.rev !keep @ List.rev !tail)

let m_blackhole rng f s packets =
  let n = Array.length packets in
  let w = int_of_float (Float.round (f *. float_of_int n)) in
  let w = min n (max 0 w) in
  if w = 0 then packets
  else begin
    let start = if n = w then 0 else Rng.int rng (n - w + 1) in
    s := { !s with blackholed = w };
    Array.append (Array.sub packets 0 start) (Array.sub packets (start + w) (n - start - w))
  end

let run_mutator rng s packets = function
  | Reorder p -> m_reorder rng p s packets
  | Loss p -> m_loss rng p s packets
  | Dup p -> m_dup rng p s packets
  | Corrupt { rate; fix } ->
      m_corrupt rng ~rate ~fix s packets;
      packets
  | Retrans p -> m_retrans rng p s packets
  | Delay p -> m_delay rng p s packets
  | Blackhole f -> m_blackhole rng f s packets

let apply ?(seed = 1) spec trace =
  let master = Rng.create seed in
  (* Split once per mutator in pipeline order: editing one mutator's rate
     never perturbs another's draws beyond its own position. *)
  let rngs = List.map (fun m -> (m, Rng.split master)) spec in
  let packets = Array.of_list (List.map Packet.copy trace) in
  let s =
    ref
      {
        input_packets = Array.length packets;
        output_packets = 0;
        reordered = 0;
        lost = 0;
        duplicated = 0;
        corrupted = 0;
        retransmitted = 0;
        delayed_flows = 0;
        blackholed = 0;
      }
  in
  let packets =
    List.fold_left (fun packets (m, rng) -> run_mutator rng s packets m) packets rngs
  in
  (* Monotone arrival clock: a displaced packet inherits the high-water
     mark instead of travelling back in time (the runtime's idle-expiry
     clock advances with packet timestamps). *)
  let clock = ref 0 in
  Array.iter
    (fun pkt ->
      if pkt.Packet.ingress_cycle < !clock then pkt.Packet.ingress_cycle <- !clock
      else clock := pkt.Packet.ingress_cycle)
    packets;
  s := { !s with output_packets = Array.length packets };
  (Array.to_list packets, !s)
