open Sb_packet
open Sb_flow

type flow_state = {
  group : (int * Snort_rule.t) list;  (* indices into [rules] *)
  bits : (string, unit) Hashtbl.t;  (* flowbits, shared by all rules *)
  match_counts : (int, int) Hashtbl.t;  (* rule index -> full matches *)
}

type t = {
  name : string;
  rules : Snort_rule.t array;
  cs_auto : Aho_corasick.t;
  cs_slots : (int * int) array;  (* automaton pattern -> (rule, content position) *)
  nc_auto : Aho_corasick.t;
  nc_slots : (int * int) array;
  flows : flow_state Tuple_map.t;
  mutable alerts : string list;  (* newest first *)
  mutable logged : string list;
}

let compile_automata rules =
  let cs = ref [] and cs_slots = ref [] and nc = ref [] and nc_slots = ref [] in
  Array.iteri
    (fun r rule ->
      List.iteri
        (fun ci (content : Snort_rule.content_match) ->
          if rule.Snort_rule.nocase then begin
            nc := content.Snort_rule.pattern :: !nc;
            nc_slots := (r, ci) :: !nc_slots
          end
          else begin
            cs := content.Snort_rule.pattern :: !cs;
            cs_slots := (r, ci) :: !cs_slots
          end)
        rule.Snort_rule.contents)
    rules;
  ( Aho_corasick.create (List.rev !cs),
    Array.of_list (List.rev !cs_slots),
    Aho_corasick.create ~nocase:true (List.rev !nc),
    Array.of_list (List.rev !nc_slots) )

let create ?(name = "snort") ~rules () =
  let rules = Array.of_list rules in
  let cs_auto, cs_slots, nc_auto, nc_slots = compile_automata rules in
  {
    name;
    rules;
    cs_auto;
    cs_slots;
    nc_auto;
    nc_slots;
    flows = Tuple_map.create 256;
    alerts = [];
    logged = [];
  }

let name t = t.name

let alerts t = List.rev t.alerts

let logged t = List.rev t.logged

let flows_seen t = Tuple_map.length t.flows

(* Aho-Corasick prefilter: one payload pass marking, per rule, which of its
   contents occur at all — a necessary condition before the (costlier)
   positional chain matcher runs. *)
let payload_hits t packet =
  let buf, off, len = Packet.payload_bytes packet in
  let hits : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let record slots idx =
    let r, ci = slots.(idx) in
    let set =
      match Hashtbl.find_opt hits r with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 4 in
          Hashtbl.replace hits r s;
          s
    in
    Hashtbl.replace set ci ()
  in
  List.iter (record t.cs_slots) (Aho_corasick.scan t.cs_auto buf off len);
  List.iter (record t.nc_slots) (Aho_corasick.scan t.nc_auto buf off len);
  hits

let all_contents_present hits r rule =
  match rule.Snort_rule.contents with
  | [] -> true
  | contents -> (
      match Hashtbl.find_opt hits r with
      | None -> false
      | Some set -> Hashtbl.length set = List.length contents)

let tcp_flags_of packet =
  match Packet.proto packet with
  | Packet.Tcp -> Some (Packet.tcp_flags packet)
  | Packet.Udp -> None

(* Full per-packet evaluation of one rule against the flow state. *)
let rule_matches flow hits flags payload (r, rule) =
  Snort_rule.bits_precondition_ok rule (Hashtbl.mem flow.bits)
  && Snort_rule.dsize_ok rule (String.length payload)
  && Snort_rule.flags_ok rule flags
  && all_contents_present hits r rule
  && Snort_rule.contents_ok rule payload

(* The per-flow detection function: Snort wraps this as a callback, and
   SpeedyBox stores its handler in the Local MAT. *)
let detect t flow tuple packet =
  let hits = payload_hits t packet in
  let payload = Packet.payload packet in
  let flags = tcp_flags_of packet in
  let matched = List.filter (rule_matches flow hits flags payload) flow.group in
  (* Full matches update flowbits and per-rule counters before actions are
     taken, in rule order. *)
  let fired =
    List.filter
      (fun (r, rule) ->
        List.iter
          (fun (bit, value) ->
            if value then Hashtbl.replace flow.bits bit () else Hashtbl.remove flow.bits bit)
          (Snort_rule.bits_updates rule);
        let count = 1 + Option.value (Hashtbl.find_opt flow.match_counts r) ~default:0 in
        Hashtbl.replace flow.match_counts r count;
        count >= rule.Snort_rule.threshold)
      matched
  in
  let passed =
    List.exists (fun (_, rule) -> rule.Snort_rule.action = Snort_rule.Pass) fired
  in
  if not passed then
    List.iter
      (fun (_, rule) ->
        let line =
          Format.asprintf "[sid:%d] %s %a" rule.Snort_rule.sid rule.Snort_rule.msg
            Five_tuple.pp tuple
        in
        match rule.Snort_rule.action with
        | Snort_rule.Alert -> t.alerts <- line :: t.alerts
        | Snort_rule.Log -> t.logged <- line :: t.logged
        | Snort_rule.Pass -> ())
      fired;
  let group_overhead = 20 * List.length flow.group in
  (Packet.payload_length packet * Sb_sim.Cycles.payload_scan_per_byte) + group_overhead

let process t ctx packet =
  let tuple = Five_tuple.of_packet packet in
  let fresh = not (Tuple_map.mem t.flows tuple) in
  let flow =
    Tuple_map.find_or_add t.flows tuple ~default:(fun () ->
        let group =
          Array.to_list t.rules
          |> List.mapi (fun r rule -> (r, rule))
          |> List.filter (fun (_, rule) -> Snort_rule.matches_header rule tuple)
        in
        { group; bits = Hashtbl.create 4; match_counts = Hashtbl.create 4 })
  in
  let setup_cycles =
    if fresh then Sb_sim.Cycles.snort_flow_setup + (Array.length t.rules * 8) else 0
  in
  (* Snort's inline front end (decode, stream bookkeeping, dispatch) runs on
     every packet of the original path; the fast path invokes only the
     recorded rule-match handler below. *)
  let preprocess_cycles = Sb_sim.Cycles.snort_preprocess in
  let detect_cycles = detect t flow tuple packet in
  Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
  if ctx.Speedybox.Api.recording then
    Speedybox.Api.localmat_add_sf ctx
      (Sb_mat.State_function.make ~nf:t.name ~label:"snort.detect"
         ~mode:Sb_mat.State_function.Read
         (fun pkt -> detect t flow tuple pkt));
  Speedybox.Nf.forwarded
    (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + setup_cycles + preprocess_cycles
   + detect_cycles + Sb_sim.Cycles.ha_forward)

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () ->
      String.concat "\n" (("ALERTS:" :: alerts t) @ ("LOGS:" :: logged t)))
    (fun ctx packet -> process t ctx packet)
