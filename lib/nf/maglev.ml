open Sb_packet
open Sb_flow
module Store = Sb_state.Store

(* [action] rewrites a flow's destination to the backend's address: built
   once at [create] and shared by every flow the backend serves. *)
type backend = { bname : string; mutable alive : bool; action : Sb_mat.Header_action.t }

type algorithm = Consistent | Mod_hash

type t = {
  name : string;
  table_size : int;
  algorithm : algorithm;
  backends : backend array;
  mutable table : int array;  (* slot -> backend index; -1 when no backend alive *)
  (* Declared state cells (lib/state).  The conntrack table is a Per_flow
     cell ([x]=backend index, [set]=assigned — an unassigned flow has no
     entry, exactly like the old Tuple_map); per-backend assignment
     counts are Global PN-counters and per-backend health a Global LWW
     register (1 alive / 0 dead) stamped by a per-instance operation
     counter, so every shard applying the same fail/restore sequence
     converges on the same verdict. *)
  assignments : Store.flow_cell;
  conns : Store.handle array;  (* by backend index *)
  health : Store.handle array;  (* by backend index *)
  mutable stamp : int;
  alive_epoch : Sb_mat.Event_table.trigger;  (* bumped by [set_alive], the writer of [alive] *)
}

let is_prime n =
  if n < 2 then false
  else begin
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  end

(* FNV-1a over a string with a salt, for the two name hashes and the flow
   hash the Maglev paper calls h1, h2 and the 5-tuple hash. *)
let fnv_step h c =
  (h lxor Char.code c) * 0x01000193 land 0x3fffffff

let fnv_hash ~salt s = String.fold_left fnv_step (0x1b873593 + salt) s

let populate_mod_hash table_size backends =
  let alive = ref [] in
  Array.iteri (fun i b -> if b.alive then alive := i :: !alive) backends;
  let alive = Array.of_list (List.rev !alive) in
  let table = Array.make table_size (-1) in
  if Array.length alive > 0 then
    Array.iteri (fun slot _ -> table.(slot) <- alive.(slot mod Array.length alive)) table;
  table

let populate_consistent table_size backends =
  let alive = ref [] in
  Array.iteri (fun i b -> if b.alive then alive := i :: !alive) backends;
  let alive = Array.of_list (List.rev !alive) in
  let table = Array.make table_size (-1) in
  if Array.length alive = 0 then table
  else begin
    let m = table_size in
    let offsets = Array.map (fun i -> fnv_hash ~salt:1 backends.(i).bname mod m) alive in
    let skips = Array.map (fun i -> (fnv_hash ~salt:2 backends.(i).bname mod (m - 1)) + 1) alive in
    let next = Array.make (Array.length alive) 0 in
    let filled = ref 0 in
    while !filled < m do
      for k = 0 to Array.length alive - 1 do
        if !filled < m then begin
          (* Walk backend k's permutation to its next empty slot. *)
          let slot = ref ((offsets.(k) + (next.(k) * skips.(k))) mod m) in
          while table.(!slot) >= 0 do
            next.(k) <- next.(k) + 1;
            slot := (offsets.(k) + (next.(k) * skips.(k))) mod m
          done;
          table.(!slot) <- alive.(k);
          next.(k) <- next.(k) + 1;
          incr filled
        end
      done
    done;
    table
  end

let populate algorithm table_size backends =
  match algorithm with
  | Consistent -> populate_consistent table_size backends
  | Mod_hash -> populate_mod_hash table_size backends

(* Health writes are LWW: the stamp is a per-instance operation counter,
   so shards replaying the same create/fail/restore sequence write equal
   stamps and the shard-index tie-break keeps the merge deterministic. *)
let mark_health t i alive =
  t.stamp <- t.stamp + 1;
  Store.write t.health.(i) ~stamp:t.stamp (if alive then 1 else 0)

(* Assignment bookkeeping: the flow entry mirrors the old Tuple_map (no
   entry = untracked), and every transition retargets the per-backend
   PN-counters — decrement the backend the flow leaves, increment the one
   it joins. *)
let track t tuple i =
  match Store.flow_find t.assignments tuple with
  | Some e when e.Store.set ->
      if e.Store.x <> i then begin
        Store.sub t.conns.(e.Store.x) 1;
        Store.add t.conns.(i) 1;
        e.Store.x <- i
      end
  | Some e ->
      e.Store.x <- i;
      e.Store.set <- true;
      Store.add t.conns.(i) 1
  | None ->
      let e = Store.flow_entry t.assignments tuple in
      e.Store.x <- i;
      e.Store.set <- true;
      Store.add t.conns.(i) 1

(* The tracked backend index, or [-1]: [tracked] without the options, for
   the reroute condition — keyed by the packed tuple it captured, so it
   builds no tuple.  It runs only after the alive epoch moves, so it
   hashes the key here rather than keep the hash in its closure. *)
let tracked_backend t k1 k2 =
  let hash = Five_tuple.hash_packed k1 k2 in
  let e = Store.flow_find_or_packed t.assignments ~hash k1 k2 ~default:Store.no_entry in
  if e.Store.set then e.Store.x else -1

let untrack t tuple =
  match Store.flow_find t.assignments tuple with
  | Some e ->
      if e.Store.set then Store.sub t.conns.(e.Store.x) 1;
      Store.flow_remove t.assignments tuple
  | None -> ()

let tracked t tuple =
  match Store.flow_find t.assignments tuple with
  | Some e when e.Store.set -> Some e.Store.x
  | Some _ | None -> None

let create ?(name = "maglev") ?(table_size = 251) ?(algorithm = Consistent) ?cells
    ~backends () =
  if backends = [] then invalid_arg "Maglev.create: no backends";
  if not (is_prime table_size) then invalid_arg "Maglev.create: table size must be prime";
  let names = List.map fst backends in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Maglev.create: duplicate backend names";
  let backends =
    Array.of_list
      (List.map
         (fun (bname, ip) ->
           {
             bname;
             alive = true;
             action = Sb_mat.Header_action.Modify [ (Field.Dst_ip, Field.Ip ip) ];
           })
         backends)
  in
  let cells = match cells with Some r -> r | None -> Store.solo () in
  let t =
    {
      name;
      table_size;
      algorithm;
      backends;
      table = populate algorithm table_size backends;
      assignments = Store.flow cells ~name:(name ^ ".assign");
      conns =
        Array.map
          (fun b ->
            Store.global cells ~name:(name ^ ".conns." ^ b.bname) Sb_state.Kind.Pn_counter)
          backends;
      health =
        Array.map
          (fun b ->
            Store.global cells ~name:(name ^ ".alive." ^ b.bname) Sb_state.Kind.Lww_register)
          backends;
      stamp = 0;
      alive_epoch = Sb_mat.Event_table.epoch ();
    }
  in
  Array.iteri (fun i _ -> mark_health t i true) t.backends;
  t

let name t = t.name

let backend_index t bname =
  let found = ref (-1) in
  Array.iteri (fun i b -> if String.equal b.bname bname then found := i) t.backends;
  if !found < 0 then invalid_arg (Printf.sprintf "Maglev: unknown backend %s" bname);
  !found

(* Backend health changes: the reroute conditions' epoch moves. *)
let set_alive t bname alive =
  let i = backend_index t bname in
  t.backends.(i).alive <- alive;
  Sb_mat.Event_table.bump t.alive_epoch;
  mark_health t i alive;
  t.table <- populate t.algorithm t.table_size t.backends

let fail_backend t bname = set_alive t bname false

let restore_backend t bname = set_alive t bname true

let alive_backends t =
  Array.to_list t.backends |> List.filter (fun b -> b.alive) |> List.map (fun b -> b.bname)

let lookup_table t =
  Array.map (fun i -> if i < 0 then "-" else t.backends.(i).bname) t.table

let backend_of_flow t tuple = Option.map (fun i -> t.backends.(i).bname) (tracked t tuple)

let tracked_flows t = Store.flow_count t.assignments

let backend_conns t bname = Store.read_merged t.conns.(backend_index t bname)

let backend_health t bname = Store.read_merged t.health.(backend_index t bname) = 1

let dump t =
  let assignments =
    Store.flow_fold
      (fun tuple e acc ->
        Format.asprintf "%a -> %s" Five_tuple.pp tuple t.backends.(e.Store.x).bname :: acc)
      t.assignments []
    |> List.sort String.compare
  in
  String.concat "\n"
    ((Printf.sprintf "alive=[%s]" (String.concat "," (alive_backends t))) :: assignments)

(* The 5-tuple hash, streamed over the text [Five_tuple.pp] prints. *)
let flow_hash tuple = Five_tuple.fold_printed fnv_step (0x1b873593 + 3) tuple

let table_lookup t tuple =
  let h = flow_hash tuple in
  t.table.(h mod t.table_size)

(* The flow's current backend: the tracked one while it is alive, otherwise
   a fresh consistent-hash selection (retracked) — the Maglev rerouting
   behaviour both the original path and the fired event go through.  With
   every backend dead there is nothing to select: the assignment is
   dropped (so the flow re-selects once a backend is restored) and the
   caller turns the packet into a drop. *)
let current_backend t tuple =
  let select () =
    let i = table_lookup t tuple in
    if i < 0 then begin
      untrack t tuple;
      None
    end
    else begin
      track t tuple i;
      Some t.backends.(i)
    end
  in
  match tracked t tuple with
  | Some i when t.backends.(i).alive -> Some t.backends.(i)
  | Some _ | None -> select ()

(* The per-flow reroute actions at fire time: a fresh backend selection, or
   a plain drop while no backend is alive. *)
let reroute_actions t tuple () =
  match current_backend t tuple with
  | Some backend -> [ backend.action ]
  | None -> [ Sb_mat.Header_action.Drop ]

(* Recurring: fires when the tracked backend dies, and again (for a flow
   parked on a drop by total backend failure) when any backend comes back.
   Runs within [process] and keeps nothing of [ctx].  Polled only once
   the alive epoch moves: DESIGN.md §7 argues why that is exact. *)
let register_reroute t ctx tuple =
  let k1 = Five_tuple.pack1 tuple and k2 = Five_tuple.pack2 tuple in
  Speedybox.Api.register_event ctx
    ~condition:(fun () ->
      let i = tracked_backend t k1 k2 in
      if i >= 0 then not t.backends.(i).alive else Array.exists (fun b -> b.alive) t.backends)
    (Sb_mat.Event_table.update ~nf:t.name ~one_shot:false ~trigger:t.alive_epoch
       ~new_actions:(reroute_actions t tuple)
       ~update_fn:(fun () -> ignore (current_backend t tuple))
       ())

let process t ctx packet =
  let tuple = Five_tuple.of_packet packet in
  match current_backend t tuple with
  | None ->
      (* Total backend failure: the flow degrades to a recorded drop — a
         reachability verdict, never an exception out of the datapath. *)
      let action = Sb_mat.Header_action.Drop in
      Speedybox.Api.localmat_add_ha ctx action;
      if ctx.Speedybox.Api.recording then register_reroute t ctx tuple;
      Speedybox.Nf.dropped
        (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + Sb_sim.Cycles.lb_consistent_hash
       + Sb_mat.Header_action.cost action)
  | Some backend ->
      let action = backend.action in
      let apply_cost = Sb_mat.Header_action.cost action in
      (match Sb_mat.Header_action.apply action packet with
      | Sb_mat.Header_action.Forwarded -> ()
      | Sb_mat.Header_action.Dropped -> assert false (* modify never drops *));
      Speedybox.Api.localmat_add_ha ctx action;
      if ctx.Speedybox.Api.recording then register_reroute t ctx tuple;
      Speedybox.Nf.forwarded
        (Sb_sim.Cycles.parse + Sb_sim.Cycles.classify + Sb_sim.Cycles.lb_consistent_hash
       + apply_cost)

let nf t =
  Speedybox.Nf.make ~name:t.name
    ~state_digest:(fun () -> dump t)
    (fun ctx packet -> process t ctx packet)
