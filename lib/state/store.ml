module Tuple_map = Sb_flow.Tuple_map

type scope = Per_flow | Per_shard | Global

let scope_to_string = function
  | Per_flow -> "per-flow"
  | Per_shard -> "per-shard"
  | Global -> "global"

(* The shared half of a global cell: one published contribution per
   shard.  Slot [s] is written by shard [s] only (Atomic.set of an
   immutable snap, no CAS), and read by every other shard's refresh —
   single-writer atomics, touched only at flush/merge points, never on
   the per-packet path. *)
type gcell = { slots : Kind.snap Atomic.t array }

type handle = {
  hkind : Kind.t;
  hshard : int;
  cell : gcell option;  (* [None] for Per_shard scope: nothing to publish *)
  (* This shard's live contribution: plain mutable fields, the only
     state the hot path touches. *)
  mutable lp : int;
  mutable ln : int;
  mutable lstamp : int;
  mutable lv : int;
  mutable lset : bool;
  (* Cached [combine] of the OTHER shards' published slots, refreshed at
     flush/merge points; [read_merged] is then pure field arithmetic. *)
  mutable others : Kind.snap;
}

type entry = { mutable x : int; mutable y : int; mutable set : bool }

type flow_cell = { entries : entry Tuple_map.t }

type decl = { dscope : scope; dkind : Kind.t option; dcell : gcell option }

(* The pieces every replica shares with the store, split out so replicas
   need no back-pointer to the store record itself. *)
type core = {
  shards : int;
  schema : (string, decl) Hashtbl.t;
  mutable globals : int;  (* Global-scope cells declared, executor fast guard *)
  mutable rounds : int;
  mutable rounds_reported : int;  (* high-water already folded into obs *)
}

type replica = {
  shard : int;
  core : core;
  handles : (string, handle) Hashtbl.t;
  (* The Global-scope handles, in declaration order: all a merge touches. *)
  mutable shared : handle array;
  flow_cells : (string, flow_cell) Hashtbl.t;
}

type t = { core : core; replicas : replica array }

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Store.create: shards must be positive";
  let core =
    { shards; schema = Hashtbl.create 16; globals = 0; rounds = 0; rounds_reported = 0 }
  in
  {
    core;
    replicas =
      Array.init shards (fun shard ->
          {
            shard;
            core;
            handles = Hashtbl.create 16;
            shared = [||];
            flow_cells = Hashtbl.create 8;
          });
  }

let shards t = t.core.shards

let replica t i =
  if i < 0 || i >= t.core.shards then
    invalid_arg
      (Printf.sprintf "Store.replica: shard %d out of range (store has %d)" i t.core.shards);
  t.replicas.(i)

let solo () = replica (create ~shards:1 ()) 0

(* ---- declarations ---- *)

let mismatch name what declared redeclared =
  invalid_arg
    (Printf.sprintf "Store.declare: cell %S already declared with %s %s, redeclared with %s"
       name what declared redeclared)

let find_decl (r : replica) ~name ~scope ~kind =
  let t = r.core in
  match Hashtbl.find_opt t.schema name with
  | Some d ->
      if d.dscope <> scope then
        mismatch name "scope" (scope_to_string d.dscope) (scope_to_string scope);
      (match (d.dkind, kind) with
      | Some k, Some k' when k <> k' -> mismatch name "kind" (Kind.to_string k) (Kind.to_string k')
      | _ -> ());
      d
  | None ->
      let d =
        {
          dscope = scope;
          dkind = kind;
          dcell =
            (if scope = Global then
               Some { slots = Array.init t.shards (fun _ -> Atomic.make Kind.identity) }
             else None);
        }
      in
      Hashtbl.replace t.schema name d;
      if scope = Global then t.globals <- t.globals + 1;
      d

let declare_cell r ~name ~scope kind =
  let d = find_decl r ~name ~scope ~kind:(Some kind) in
  match Hashtbl.find_opt r.handles name with
  | Some h -> h
  | None ->
      let h =
        {
          hkind = kind;
          hshard = r.shard;
          cell = d.dcell;
          lp = 0;
          ln = 0;
          lstamp = 0;
          lv = 0;
          lset = false;
          others = Kind.identity;
        }
      in
      Hashtbl.replace r.handles name h;
      if scope = Global then r.shared <- Array.append r.shared [| h |];
      h

let global r ~name kind = declare_cell r ~name ~scope:Global kind

let per_shard r ~name kind = declare_cell r ~name ~scope:Per_shard kind

let flow r ~name =
  ignore (find_decl r ~name ~scope:Per_flow ~kind:None);
  match Hashtbl.find_opt r.flow_cells name with
  | Some fc -> fc
  | None ->
      let fc = { entries = Tuple_map.create 256 } in
      Hashtbl.replace r.flow_cells name fc;
      fc

(* ---- hot-path operations (plain field updates only) ---- *)

let add h k = h.lp <- h.lp + k

let sub h k = h.ln <- h.ln + k

let write h ~stamp v =
  if (not h.lset) || stamp >= h.lstamp then begin
    h.lstamp <- stamp;
    h.lv <- v;
    h.lset <- true
  end

let observe h v =
  match h.hkind with
  | Kind.Min_register -> if (not h.lset) || v < h.lv then begin h.lv <- v; h.lset <- true end
  | Kind.Max_register -> if (not h.lset) || v > h.lv then begin h.lv <- v; h.lset <- true end
  | Kind.G_counter | Kind.Pn_counter | Kind.Lww_register ->
      invalid_arg "Store.observe: min/max register required"

let live_snap h =
  Kind.normalize h.hkind
    { Kind.p = h.lp; n = h.ln; stamp = h.lstamp; shard = h.hshard; v = h.lv; set = h.lset }

let read_merged h = Kind.value h.hkind (Kind.combine h.hkind (live_snap h) h.others)

(* ---- per-flow operations ---- *)

let fresh_entry () = { x = 0; y = 0; set = false }

let flow_entry fc tuple = Tuple_map.find_or_add fc.entries tuple ~default:fresh_entry

let flow_find fc tuple = Tuple_map.find_opt fc.entries tuple

(* The packet-keyed forms read the key from the packet's bytes: the
   per-packet paths build no tuple. *)
let flow_entry_of_packet fc packet =
  let k1 = Sb_flow.Five_tuple.packet_pack1 packet
  and k2 = Sb_flow.Five_tuple.packet_pack2 packet in
  Tuple_map.find_or_add_packed fc.entries
    ~hash:(Sb_flow.Five_tuple.hash_packed k1 k2)
    k1 k2 ~default:fresh_entry

let no_entry = fresh_entry ()

let flow_find_or_packed fc ~hash k1 k2 ~default =
  let s = Tuple_map.find_slot_packed fc.entries ~hash k1 k2 in
  if s >= 0 then Tuple_map.value_at fc.entries s else default

let flow_remove fc tuple = Tuple_map.remove fc.entries tuple

let flow_slot_packed fc ~hash k1 k2 = Tuple_map.find_slot_packed fc.entries ~hash k1 k2

let flow_entry_at fc s = Tuple_map.value_at fc.entries s

let flow_remove_at fc s = Tuple_map.remove_at fc.entries s

let flow_fold f fc acc = Tuple_map.fold f fc.entries acc

let flow_count fc = Tuple_map.length fc.entries

(* ---- merge machinery ---- *)

let publish r =
  Array.iter
    (fun h ->
      match h.cell with
      | Some c -> Atomic.set c.slots.(h.hshard) (live_snap h)
      | None -> ())
    r.shared

let refresh r =
  Array.iter
    (fun h ->
      match h.cell with
      | Some c ->
          let acc = ref Kind.identity in
          for s = 0 to Array.length c.slots - 1 do
            if s <> h.hshard then acc := Kind.combine h.hkind !acc (Atomic.get c.slots.(s))
          done;
          h.others <- !acc
      | None -> ())
    r.shared

let flush r = publish r; refresh r

let merge_round t =
  Array.iter publish t.replicas;
  Array.iter refresh t.replicas;
  t.core.rounds <- t.core.rounds + 1

(* Only [from] ran since the last merge point, so only its slots can have
   moved, and every other replica's cached view reads that slot. *)
let hand_off t ~from =
  publish t.replicas.(from);
  Array.iter (fun r -> if r.shard <> from then refresh r) t.replicas;
  t.core.rounds <- t.core.rounds + 1

let merge_rounds t = t.core.rounds

let merge_rounds_delta t =
  let d = t.core.rounds - t.core.rounds_reported in
  t.core.rounds_reported <- t.core.rounds;
  d

let has_global t = t.core.globals > 0

(* ---- whole-store readings (single-threaded, post-run) ---- *)

let merged_snap t name d =
  match (d.dkind, d.dcell) with
  | Some kind, Some cell ->
      let acc = ref Kind.identity in
      for s = 0 to t.core.shards - 1 do
        (* Join the published slot with the replica's live contribution:
           counters are monotone and registers ordered, so the join picks
           whichever is fresher — no flush required before reading, and a
           solo store (which never publishes) reads exactly. *)
        let slot = Atomic.get cell.slots.(s) in
        let live =
          match Hashtbl.find_opt t.replicas.(s).handles name with
          | Some h -> live_snap h
          | None -> Kind.identity
        in
        acc := Kind.combine kind !acc (Kind.join kind slot live)
      done;
      Some (kind, !acc)
  | _ -> None

let merged_values t =
  Hashtbl.fold
    (fun name d acc ->
      if d.dscope = Global then
        match merged_snap t name d with
        | Some (kind, snap) -> (name, kind, Kind.value kind snap) :: acc
        | None -> acc
      else acc)
    t.core.schema []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

type scope_counts = { per_flow : int; per_shard : int; global : int }

let cell_counts t =
  Hashtbl.fold
    (fun _ d acc ->
      match d.dscope with
      | Per_flow -> { acc with per_flow = acc.per_flow + 1 }
      | Per_shard -> { acc with per_shard = acc.per_shard + 1 }
      | Global -> { acc with global = acc.global + 1 })
    t.core.schema
    { per_flow = 0; per_shard = 0; global = 0 }

let cell_count t = Hashtbl.length t.core.schema

let flow_entries r =
  Hashtbl.fold (fun _ fc acc -> acc + Tuple_map.length fc.entries) r.flow_cells 0

(* ---- scope-aware state migration ---- *)

let transplant t ~src ~dest tuple =
  if src < 0 || src >= t.core.shards || dest < 0 || dest >= t.core.shards then
    invalid_arg "Store.transplant: shard out of range";
  if src = dest then 0
  else begin
    (* Deterministic cell order, so a migration's effect on iteration-
       order-sensitive digests is reproducible. *)
    let names =
      Hashtbl.fold
        (fun name d acc -> if d.dscope = Per_flow then name :: acc else acc)
        t.core.schema []
      |> List.sort String.compare
    in
    List.fold_left
      (fun moved name ->
        match
          ( Hashtbl.find_opt t.replicas.(src).flow_cells name,
            Hashtbl.find_opt t.replicas.(dest).flow_cells name )
        with
        | Some sfc, Some dfc -> (
            match Tuple_map.find_opt sfc.entries tuple with
            | Some e ->
                Tuple_map.remove sfc.entries tuple;
                Tuple_map.replace dfc.entries tuple e;
                moved + 1
            | None -> moved)
        | _ -> moved)
      0 names
  end
