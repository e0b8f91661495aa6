open Sb_packet
open Sb_flow
module Store = Sb_state.Store

type count_mode = All_packets | Syn_only

type t = {
  name : string;
  mode : count_mode;
  threshold : int;
  budget : int option;
  (* Declared state cells (lib/state): the per-flow counters live in a
     Per_flow cell keyed by 5-tuple — entry lanes are [x]=count,
     [y]=last counted TCP seq, [set]=seq valid — and the chain-wide
     budget total is a Global G-counter, so a sharded deployment (one
     instance per shard over one shared store) sums the per-shard
     contributions instead of silently partitioning them. *)
  flows : Store.flow_cell;
  total : Store.handle;
  cut_off : Sb_mat.Event_table.update;
      (* what every flow's threshold event does: the same for all flows,
         so built once *)
}

let create ?(name = "dosguard") ?(mode = All_packets) ?global_budget ?cells ~threshold () =
  if threshold < 1 then invalid_arg "Dos_guard.create: threshold must be positive";
  (match global_budget with
  | Some b when b < 1 -> invalid_arg "Dos_guard.create: global budget must be positive"
  | Some _ | None -> ());
  let cells = match cells with Some r -> r | None -> Store.solo () in
  {
    name;
    mode;
    threshold;
    budget = global_budget;
    flows = Store.flow cells ~name:(name ^ ".flows");
    total = Store.global cells ~name:(name ^ ".total") Sb_state.Kind.G_counter;
    cut_off =
      Sb_mat.Event_table.update ~nf:name ~global_state:(global_budget <> None)
        ~new_actions:(fun () -> [ Sb_mat.Header_action.Drop ])
          (* once the flow is cut off the original NF stops counting too *)
        ~new_state_functions:(fun () -> [])
        ();
  }

let name t = t.name

let over_budget t =
  match t.budget with Some b -> Store.read_merged t.total >= b | None -> false

let count t tuple =
  match Store.flow_find t.flows tuple with Some e -> e.Store.x | None -> 0

let blocked_flows t =
  Store.flow_fold
    (fun _ e acc -> if e.Store.x >= t.threshold then acc + 1 else acc)
    t.flows 0

let dump t =
  Store.flow_fold
    (fun tuple e acc -> Format.asprintf "%a cnt=%d" Five_tuple.pp tuple e.Store.x :: acc)
    t.flows []
  |> List.sort String.compare
  |> String.concat "\n"

let counts_packet t packet =
  match t.mode with
  | All_packets -> true
  | Syn_only -> (
      match Packet.proto packet with
      | Packet.Tcp -> (Packet.tcp_flags packet).Tcp.Flags.syn
      | Packet.Udp -> false)

let count_one t (cell : Store.entry) =
  cell.Store.x <- cell.Store.x + 1;
  Store.add t.total 1

(* Shared by the slow path and the recorded fast-path state function, so
   both paths agree on what counts — including the duplicate skip.  The
   duplicate check compares the entry's [y] lane against the packet's
   seq; UDP has no sequence numbers, so UDP duplicates stay
   indistinguishable from new packets.  Per packet it allocates nothing:
   [count_one] is top-level (a local one would be a closure over [t] and
   [cell]) and the seq is read as an int. *)
let bump t (cell : Store.entry) packet =
  (if counts_packet t packet then
     match Packet.proto packet with
     | Packet.Udp -> count_one t cell
     | Packet.Tcp ->
         let seq = Tcp.get_seq packet.Packet.buf (Packet.l4_offset packet) in
         if not (cell.Store.set && cell.Store.y = seq) then begin
           count_one t cell;
           cell.Store.y <- seq;
           cell.Store.set <- true
         end);
  Sb_sim.Cycles.monitor_count

let process t ctx packet =
  let cell = Store.flow_entry_of_packet t.flows packet in
  let base = Sb_sim.Cycles.parse + Sb_sim.Cycles.classify in
  if cell.Store.x >= t.threshold || over_budget t then begin
    (* Over budget: the flow is cut off before any further counting. *)
    Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
    Speedybox.Nf.dropped (base + Sb_sim.Cycles.ha_drop)
  end
  else begin
    let count_cycles = bump t cell packet in
    Speedybox.Api.localmat_add_ha ctx Sb_mat.Header_action.Forward;
    if ctx.Speedybox.Api.recording then begin
      Speedybox.Api.localmat_add_sf ctx
        (Sb_mat.State_function.make ~nf:t.name ~label:"dos.count"
           ~mode:Sb_mat.State_function.Ignore
           (fun pkt -> bump t cell pkt));
      Speedybox.Api.register_event ctx
        ~condition:(fun () -> cell.Store.x >= t.threshold || over_budget t)
        t.cut_off
    end;
    Speedybox.Nf.forwarded (base + count_cycles + Sb_sim.Cycles.ha_forward)
  end

(* Idle teardown reclaims counters below the threshold; a flow that earned
   a block keeps it even through a quiet spell.  One probe by packed key
   finds the slot the counter is read and removed through. *)
let remove_flow t k1 k2 =
  let s = Store.flow_slot_packed t.flows ~hash:(Five_tuple.hash_packed k1 k2) k1 k2 in
  if s >= 0 && (Store.flow_entry_at t.flows s).Store.x < t.threshold then
    Store.flow_remove_at t.flows s

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () -> dump t)
    ~remove_flow:(fun k1 k2 -> remove_flow t k1 k2)
    (fun ctx packet -> process t ctx packet)
