type classification = {
  mutable fid : Sb_flow.Fid.t;
  mutable tuple : Sb_flow.Five_tuple.t;
  mutable thash : int;
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
    tuple = Sb_flow.Five_tuple.dummy;
    thash = 0;
    established = false;
    final = false;
    malformed = false;
    cycles = 0;
  }

let reject t cls =
  t.rejected <- t.rejected + 1;
  cls.fid <- -1;
  cls.tuple <- Sb_flow.Five_tuple.dummy;
  cls.thash <- 0;
  cls.established <- false;
  cls.final <- false;
  cls.malformed <- true;
  cls.cycles <- Sb_sim.Cycles.classifier

(* The burst path classifies into caller-owned scratch records, so a whole
   burst costs no classification allocations (the tuple itself is still
   built fresh: it outlives the packet as a conntrack / liveness key).

   Classification is split into two phases so the burst prescan can
   start every packet's line fills early.  [prepare_into] is a pure
   function of the packet bytes: admission checks, tuple extraction, one
   FNV hash shared by the FID fold and every conntrack operation, and a
   prefetch hint for the conntrack slot the second phase will probe.  [observe_into]
   advances the flow's connection state, per packet and in order.
   Running phase one over a whole burst first means every conntrack probe
   lands on a line whose fill started earlier in the burst.

   A packet that does not parse to a 5-tuple — or, with
   [verify_checksums], whose checksums are stale — is marked [malformed]
   in phase one and never touches conntrack: corrupted headers are
   rejected before any NF state can absorb them. *)
let prepare_into t packet cls =
  (* A bare proto-byte read, not [Five_tuple.of_packet_opt]: the hot path
     pays two integer compares instead of an option allocation. *)
  let proto =
    Sb_packet.Ipv4.get_proto packet.Sb_packet.Packet.buf
      (Sb_packet.Packet.l3_offset packet)
  in
  if proto <> 6 && proto <> 17 then reject t cls
  else if t.verify_checksums && not (Sb_packet.Packet.checksums_ok packet) then reject t cls
  else begin
    let tuple = Sb_flow.Five_tuple.of_packet packet in
    let h = Sb_flow.Five_tuple.hash tuple in
    let fid = Sb_flow.Fid.of_hash ~bits:t.fid_bits h in
    packet.Sb_packet.Packet.fid <- fid;
    cls.fid <- fid;
    cls.tuple <- tuple;
    cls.thash <- h;
    cls.established <- false;
    cls.final <- false;
    cls.malformed <- false;
    cls.cycles <- Sb_sim.Cycles.classifier;
    Sb_flow.Conntrack.prefetch t.conntrack h
  end

let observe_into t packet cls =
  let verdict = Sb_flow.Conntrack.observe_h t.conntrack ~hash:cls.thash cls.tuple packet in
  cls.established <- verdict.Sb_flow.Conntrack.state = Sb_flow.Conntrack.Established;
  cls.final <- verdict.Sb_flow.Conntrack.final

let classify_into t packet cls =
  prepare_into t packet cls;
  if not cls.malformed then observe_into t packet cls

let export_flow t tuple = Sb_flow.Conntrack.state t.conntrack tuple

let adopt_flow t tuple st = Sb_flow.Conntrack.adopt t.conntrack tuple st

let forget t tuple = Sb_flow.Conntrack.forget t.conntrack tuple

let active_flows t = Sb_flow.Conntrack.active_flows t.conntrack
