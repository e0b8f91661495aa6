open Sb_packet

type state = Syn_sent | Syn_received | Established | Closing

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Syn_sent -> "SYN_SENT"
    | Syn_received -> "SYN_RECEIVED"
    | Established -> "ESTABLISHED"
    | Closing -> "CLOSING")

type verdict = { state : state; established_now : bool; final : bool }

type t = state Tuple_map.t

let create () = Tuple_map.create 1024

let prefetch t hash = Tuple_map.prefetch t hash

(* Verdicts are immutable and range over 4 states x 2 x 2 flags, so all 16
   are built once and observation hands out a shared one instead of
   allocating a record per packet. *)
let state_index = function Syn_sent -> 0 | Syn_received -> 1 | Established -> 2 | Closing -> 3

let verdicts =
  Array.init 16 (fun i ->
      {
        state = [| Syn_sent; Syn_received; Established; Closing |].(i lsr 2);
        established_now = i land 2 <> 0;
        final = i land 1 <> 0;
      })

let verdict state ~established_now ~final =
  Array.unsafe_get verdicts
    ((state_index state lsl 2)
    lor (if established_now then 2 else 0)
    lor if final then 1 else 0)

(* The 13-byte tuple is hashed exactly once per observation
   ([observe_packed] lets the classifier share the hash it computed for
   the FID, so the packet's whole admission costs one FNV pass); the
   steady-state path then does a single slot probe and no [replace] when
   the state would not change (the common case — an established flow's
   mid-stream segment).  Flags are read as the raw byte, so observing
   allocates nothing. *)
let observe_packed t ~hash k1 k2 p =
  let s = Tuple_map.find_slot_packed t ~hash k1 k2 in
  let fresh = s < 0 in
  match Packet.proto p with
  | Packet.Udp ->
      if fresh || Tuple_map.value_at t s <> Established then
        Tuple_map.replace_packed t ~hash k1 k2 Established;
      verdict Established ~established_now:fresh ~final:false
  | Packet.Tcp ->
      let flags = Packet.tcp_flag_bits p in
      let syn = flags land Tcp.syn_bit <> 0 and ack = flags land Tcp.ack_bit <> 0 in
      let final = flags land (Tcp.fin_bit lor Tcp.rst_bit) <> 0 in
      let prev = if fresh then Closing else Tuple_map.value_at t s in
      let next =
        if final then Closing
        else if syn && ack then
          (* A SYN-ACK retransmitted after the handshake completed must not
             regress the connection to mid-handshake. *)
          match prev with
          | Established when not fresh -> Established
          | Syn_sent | Syn_received | Established | Closing -> Syn_received
        else if syn then
          (* A retransmitted SYN never downgrades progress: an established
             flow stays established (its consolidated rule stays valid),
             and a mid-handshake flow holds its position. *)
          match prev with
          | Established when not fresh -> Established
          | Syn_received when not fresh -> Syn_received
          | Syn_sent | Syn_received | Established | Closing -> Syn_sent
        else
          (* A plain segment: completes the handshake when we were mid-way,
             otherwise keeps the current state. *)
          match prev with
          | Syn_sent | Syn_received -> Established
          | Established -> Established
          | Closing -> if fresh then Established else Closing
      in
      if fresh || prev <> next then Tuple_map.replace_packed t ~hash k1 k2 next;
      verdict next
        ~established_now:
          (next = Established && (fresh || prev = Syn_sent || prev = Syn_received))
        ~final

let observe t key p =
  let k1 = Five_tuple.pack1 key and k2 = Five_tuple.pack2 key in
  observe_packed t ~hash:(Five_tuple.hash_packed k1 k2) k1 k2 p

let state t key = Tuple_map.find_opt t key

(* Cross-tracker handoff (flow migration): the source tracker exports via
   [state], the target installs the entry verbatim so the connection does
   not re-handshake on its new home. *)
let adopt t key st = Tuple_map.replace t key st

let forget t key = Tuple_map.remove t key

let forget_packed = Tuple_map.remove_packed

let active_flows t = Tuple_map.length t
