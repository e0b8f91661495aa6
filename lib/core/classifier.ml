type classification = {
  mutable fid : Sb_flow.Fid.t;
  mutable thash : int;
  mutable pack1 : int;
  mutable pack2 : int;
  mutable tuple : Sb_flow.Five_tuple.t;
  mutable established : bool;
  mutable final : bool;
  mutable malformed : bool;
  mutable cycles : int;
}

type t = {
  conntrack : Sb_flow.Conntrack.t;
  fid_bits : int;
  verify_checksums : bool;
  mutable rejected : int;
}

let create ?(fid_bits = Sb_flow.Fid.default_bits) ?(verify_checksums = false) () =
  { conntrack = Sb_flow.Conntrack.create (); fid_bits; verify_checksums; rejected = 0 }

let fid_bits t = t.fid_bits

let rejected t = t.rejected

let scratch () =
  {
    fid = 0;
    thash = 0;
    pack1 = 0;
    pack2 = 0;
    tuple = Sb_flow.Five_tuple.dummy;
    established = false;
    final = false;
    malformed = false;
    cycles = 0;
  }

let reject t cls =
  t.rejected <- t.rejected + 1;
  cls.fid <- -1;
  cls.thash <- 0;
  cls.pack1 <- 0;
  cls.pack2 <- 0;
  cls.established <- false;
  cls.final <- false;
  cls.malformed <- true;
  cls.cycles <- Sb_sim.Cycles.classifier

(* The burst path classifies into caller-owned scratch records, and the
   flow key is three ints read from the packet's bytes — the packed tuple
   and its hash — so classifying a packet allocates nothing and stores no
   pointer: no write barrier per packet.

   Classification is split into two phases so the burst prescan can
   start every packet's line fills early.  [prepare_into] is a pure
   function of the packet bytes: admission checks, the packed key, one
   FNV hash shared by the FID fold and every conntrack operation, and a
   prefetch hint for the conntrack slot the second phase will probe.
   [observe_into] advances the flow's connection state, per packet and in
   order.  Running phase one over a whole burst first means every
   conntrack probe lands on a line whose fill started earlier in the
   burst.

   A frame that is not TCP/UDP, or is cut short of its headers, or — with
   [verify_checksums] — whose checksums are stale is marked [malformed]
   in phase one and never touches conntrack: corrupted headers are
   rejected before any NF state can absorb them, and no reader ever looks
   past the frame's [len]. *)
let prepare_into t packet cls =
  if not (Sb_flow.Five_tuple.admits packet) then reject t cls
  else if t.verify_checksums && not (Sb_packet.Packet.checksums_ok packet) then reject t cls
  else begin
    let k1 = Sb_flow.Five_tuple.packet_pack1 packet
    and k2 = Sb_flow.Five_tuple.packet_pack2 packet in
    let h = Sb_flow.Five_tuple.hash_packed k1 k2 in
    let fid = Sb_flow.Fid.of_hash ~bits:t.fid_bits h in
    packet.Sb_packet.Packet.fid <- fid;
    cls.fid <- fid;
    cls.thash <- h;
    cls.pack1 <- k1;
    cls.pack2 <- k2;
    cls.established <- false;
    cls.final <- false;
    cls.malformed <- false;
    cls.cycles <- Sb_sim.Cycles.classifier;
    Sb_flow.Conntrack.prefetch t.conntrack h
  end

(* Only a final packet gets its tuple: [forget] takes one, and FIN/RST
   packets are few. *)
let observe_into t packet cls =
  let verdict =
    Sb_flow.Conntrack.observe_packed t.conntrack ~hash:cls.thash cls.pack1 cls.pack2 packet
  in
  cls.established <- verdict.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Established;
  cls.final <- verdict.Sb_flow.Conntrack.final;
  if cls.final then cls.tuple <- Sb_flow.Five_tuple.of_packed cls.pack1 cls.pack2

let export_flow t tuple = Sb_flow.Conntrack.state t.conntrack tuple

let adopt_flow t tuple st = Sb_flow.Conntrack.adopt t.conntrack tuple st

let forget t tuple = Sb_flow.Conntrack.forget t.conntrack tuple

let forget_flow t cls =
  Sb_flow.Conntrack.forget_packed t.conntrack ~hash:cls.thash cls.pack1 cls.pack2

let forget_packed t k1 k2 =
  Sb_flow.Conntrack.forget_packed t.conntrack ~hash:(Sb_flow.Five_tuple.hash_packed k1 k2) k1 k2

let active_flows t = Sb_flow.Conntrack.active_flows t.conntrack
