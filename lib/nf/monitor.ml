open Sb_packet
open Sb_flow
module Store = Sb_state.Store

type counters = { mutable packets : int; mutable bytes : int }

type t = {
  name : string;
  (* Declared state cells (lib/state).  Per-flow counters use entry lanes
     [x]=packets, [y]=bytes; [set] marks the flow as counted in the
     Global active-flow PN-counter (so idle teardown can retract it).
     The chain-wide packet/byte totals and the largest-frame watermark are
     Global cells; [shard_packets] is a Per_shard diagnostic counter. *)
  flows : Store.flow_cell;
  packets : Store.handle;
  bytes : Store.handle;
  active : Store.handle;
  max_len : Store.handle;
  shard_packets : Store.handle;
}

let create ?(name = "monitor") ?cells () =
  let cells = match cells with Some r -> r | None -> Store.solo () in
  {
    name;
    flows = Store.flow cells ~name:(name ^ ".flows");
    packets = Store.global cells ~name:(name ^ ".packets") Sb_state.Kind.G_counter;
    bytes = Store.global cells ~name:(name ^ ".bytes") Sb_state.Kind.G_counter;
    active = Store.global cells ~name:(name ^ ".active") Sb_state.Kind.Pn_counter;
    max_len = Store.global cells ~name:(name ^ ".max_len") Sb_state.Kind.Max_register;
    shard_packets =
      Store.per_shard cells ~name:(name ^ ".shard.packets") Sb_state.Kind.G_counter;
  }

let name t = t.name

let counters t tuple =
  match Store.flow_find t.flows tuple with
  | Some e -> Some { packets = e.Store.x; bytes = e.Store.y }
  | None -> None

let flow_count t = Store.flow_count t.flows

let total_packets t = Store.flow_fold (fun _ e acc -> acc + e.Store.x) t.flows 0

let global_packets t = Store.read_merged t.packets

let global_bytes t = Store.read_merged t.bytes

let global_flows t = Store.read_merged t.active

let global_max_len t = Store.read_merged t.max_len

let dump t =
  Store.flow_fold
    (fun tuple e acc ->
      Format.asprintf "%a pkts=%d bytes=%d" Five_tuple.pp tuple e.Store.x e.Store.y :: acc)
    t.flows []
  |> List.sort String.compare
  |> String.concat "\n"

(* Keyed per packet by the packet's current bytes, exactly as the original
   monitor code does: an upstream event (e.g. Maglev rerouting the flow to
   a new backend) changes the header mid-stream, and the counters must
   then split across the old and new tuples just as they do on the
   original path.  So the key cannot be the classifier's ingress key, nor
   one captured when the state function was recorded; it is read from the
   rewritten header, as ints, with no tuple built. *)
let count t packet =
  let cell = Store.flow_entry_of_packet t.flows packet in
  if not cell.Store.set then begin
    cell.Store.set <- true;
    Store.add t.active 1
  end;
  let len = packet.Packet.len in
  cell.Store.x <- cell.Store.x + 1;
  cell.Store.y <- cell.Store.y + len;
  Store.add t.packets 1;
  Store.add t.bytes len;
  Store.observe t.max_len len;
  Store.add t.shard_packets 1;
  Sb_sim.Cycles.monitor_count

(* [count_sf] keys its entry from the packet, so it captures nothing of
   the flow: one value, built with the NF, serves every flow it records. *)
let process t count_sf ctx packet =
  let count_cycles = count t packet in
  Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
  Speedybox.Api.localmat_add_sf ctx count_sf;
  Speedybox.Nf.forwarded
    (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + count_cycles + Sb_sim.Cycles.ha_forward)

(* Idle expiry, once per expired flow: one probe by packed key finds the
   slot the entry is then read and removed through. *)
let remove_flow t k1 k2 =
  let s = Store.flow_slot_packed t.flows ~hash:(Five_tuple.hash_packed k1 k2) k1 k2 in
  if s >= 0 then begin
    if (Store.flow_entry_at t.flows s).Store.set then Store.sub t.active 1;
    Store.flow_remove_at t.flows s
  end

let nf t =
  let count_sf =
    Sb_mat.State_function.make ~nf:t.name ~label:"monitor.count"
      ~mode:Sb_mat.State_function.Ignore
      (fun pkt -> count t pkt)
  in
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () -> dump t)
    ~remove_flow:(fun k1 k2 -> remove_flow t k1 k2)
    (fun ctx packet -> process t count_sf ctx packet)
