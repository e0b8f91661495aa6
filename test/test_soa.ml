(* Differential properties for the SoA flow tables: the flat layouts must
   agree with a boxed reference model under arbitrary insert / remove /
   resize interleavings, with prefetch hints on arbitrary keys (present or
   not) mixed in, since a hint must be a semantic no-op.

   The tables under test keep no shadow of the reference model — every
   check drives both from the same random op stream and compares final
   answers, so backward-shift deletion bugs, wraparound-cluster probe bugs
   and grow-time rehash bugs all surface as a model divergence with a
   printable seed. *)

open Sb_flow

let ip = Sb_packet.Ipv4_addr.of_octets

(* Deterministic op streams: a (seed, size) pair drives a Random.State, so
   a failing case reproduces from its printed seed. *)
let seeded ~name ~count gen_size prop =
  QCheck.Test.make ~count ~name
    (QCheck.make
       ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
       QCheck.Gen.(pair (int_bound 1_000_000) gen_size))
    prop

let random_tuple st =
  {
    Five_tuple.src_ip = ip (Random.State.int st 256) (Random.State.int st 256)
                          (Random.State.int st 256) (Random.State.int st 256);
    dst_ip = ip (Random.State.int st 256) (Random.State.int st 256)
               (Random.State.int st 256) (Random.State.int st 256);
    src_port = Random.State.int st 65536;
    dst_port = Random.State.int st 65536;
    proto = Random.State.int st 256;
  }

(* The packed probes, keyed by a tuple and a caller-chosen hash. *)
let replace_h t ~hash k v =
  Tuple_map.replace_packed t ~hash (Five_tuple.pack1 k) (Five_tuple.pack2 k) v

let remove_h t ~hash k = Tuple_map.remove_packed t ~hash (Five_tuple.pack1 k) (Five_tuple.pack2 k)

let find_opt_h t ~hash k =
  let s = Tuple_map.find_slot_packed t ~hash (Five_tuple.pack1 k) (Five_tuple.pack2 k) in
  if s >= 0 then Some (Tuple_map.value_at t s) else None

(* A small pool of keys, so op streams revisit them: inserts overwrite,
   removes hit, probe clusters pile up and small initial sizes force
   several grows mid-stream. *)
let tuple_pool st = Array.init 24 (fun _ -> random_tuple st)

(* --- Five_tuple packed form ------------------------------------------- *)

let prop_pack_roundtrip =
  seeded ~name:"pack1/pack2 round-trip through of_packed" ~count:200
    (QCheck.Gen.return 1) (fun (seed, _) ->
      let st = Random.State.make [| seed; 0xbeef |] in
      let t = random_tuple st in
      let t' = Five_tuple.of_packed (Five_tuple.pack1 t) (Five_tuple.pack2 t) in
      Five_tuple.equal t t'
      && Five_tuple.pack1 t >= 0
      && Five_tuple.pack2 t >= 0
      && Five_tuple.hash t = Five_tuple.hash t')

(* --- Flat_table ------------------------------------------------------- *)

let prop_flat_table_model =
  seeded ~name:"Flat_table: random churn agrees with Hashtbl model" ~count:60
    QCheck.Gen.(int_range 50 400) (fun (seed, n) ->
      let st = Random.State.make [| seed; 0xf1a7 |] in
      (* Prefetched keys come from their own stream (a range wider than
         the stored keys), so the op stream is the same with or without
         them. *)
      let hints = Random.State.make [| seed; 0xba7c |] in
      let t = Flat_table.create ~initial_size:8 () in
      let model = Hashtbl.create 64 in
      for _ = 1 to n do
        let k = Random.State.int st 64 in
        (match Random.State.int st 3 with
        | 0 | 1 ->
            let v = Random.State.int st 1_000_000 in
            Flat_table.set t k v;
            Hashtbl.replace model k v
        | _ ->
            Flat_table.remove t k;
            Hashtbl.remove model k);
        Flat_table.prefetch t (Random.State.int hints 128)
      done;
      Flat_table.length t = Hashtbl.length model
      && List.for_all
           (fun k ->
             Flat_table.prefetch t k;
             Flat_table.find t k = Hashtbl.find_opt model k)
           (List.init 64 Fun.id))

(* --- Tuple_map -------------------------------------------------------- *)

let prop_tuple_map_model =
  seeded ~name:"Tuple_map: random churn agrees with Hashtbl model" ~count:60
    QCheck.Gen.(int_range 50 400) (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x70b1 |] in
      let hints = Random.State.make [| seed; 0x7ba7 |] in
      let t = Tuple_map.create 4 in
      let model = Hashtbl.create 64 in
      let pool = tuple_pool st in
      (* A hinted key is a pool key or, one time in four, a tuple never
         stored. *)
      let hint () =
        let k =
          if Random.State.int hints 4 = 0 then random_tuple hints
          else pool.(Random.State.int hints (Array.length pool))
        in
        Tuple_map.prefetch t (Five_tuple.hash k)
      in
      for _ = 1 to n do
        let k = pool.(Random.State.int st (Array.length pool)) in
        let h = Five_tuple.hash k in
        hint ();
        match Random.State.int st 6 with
        | 0 | 1 ->
            let v = Random.State.int st 1_000_000 in
            Tuple_map.replace t k v;
            Hashtbl.replace model k v
        | 2 ->
            let v = Random.State.int st 1_000_000 in
            replace_h t ~hash:h k v;
            Hashtbl.replace model k v
        | 3 ->
            let v =
              Tuple_map.find_or_add t k ~default:(fun () -> Random.State.int st 1_000_000)
            in
            if not (Hashtbl.mem model k) then Hashtbl.replace model k v
        | 4 ->
            Tuple_map.remove t k;
            Hashtbl.remove model k
        | _ ->
            remove_h t ~hash:h k;
            Hashtbl.remove model k
      done;
      Tuple_map.length t = Hashtbl.length model
      && Array.for_all
           (fun k ->
             hint ();
             let expect = Hashtbl.find_opt model k in
             Tuple_map.find_opt t k = expect
             && find_opt_h t ~hash:(Five_tuple.hash k) k = expect
             && Tuple_map.mem t k = Option.is_some expect)
           pool)

(* Backward-shift deletion in a saturated cluster that wraps the table
   end: fill a minimum-size table close to its load limit, delete from the
   middle of clusters, and require every survivor to stay reachable. *)
let test_wraparound_cluster () =
  let t = Flat_table.create ~initial_size:8 () in
  (* 12 keys in a 16-slot table (3/4 load): with only 16 slots, several
     keys collide and at least one probe cluster wraps the table end. *)
  let keys = List.init 12 (fun i -> (i * 7919) + 1) in
  List.iter (fun k -> Flat_table.set t k (k * 3)) keys;
  List.iteri
    (fun i k ->
      if i mod 3 = 1 then begin
        Flat_table.remove t k;
        Alcotest.(check bool) "removed key gone" true (Flat_table.find t k = None)
      end)
    keys;
  List.iteri
    (fun i k ->
      if i mod 3 <> 1 then
        Alcotest.(check (option int))
          (Printf.sprintf "survivor %d intact after backward shift" k)
          (Some (k * 3)) (Flat_table.find t k))
    keys

(* Distinct tuples under one key: with the hash cut to two bits, every
   cluster holds several tuples sharing a key, across several grows.  A
   rehash or shift that placed entries by key match alone would merge or
   lose them. *)
let prop_tuple_map_shared_hash =
  seeded ~name:"Tuple_map: tuples sharing a hash agree with Hashtbl model" ~count:60
    QCheck.Gen.(int_range 50 400) (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x54a4 |] in
      let t = Tuple_map.create 4 in
      let model = Hashtbl.create 64 in
      let pool = tuple_pool st in
      let hash k = Five_tuple.hash k land 3 in
      for _ = 1 to n do
        let k = pool.(Random.State.int st (Array.length pool)) in
        if Random.State.int st 3 < 2 then begin
          let v = Random.State.int st 1_000_000 in
          replace_h t ~hash:(hash k) k v;
          Hashtbl.replace model k v
        end
        else begin
          remove_h t ~hash:(hash k) k;
          Hashtbl.remove model k
        end
      done;
      let pairs = Tuple_map.fold (fun k v acc -> (k, v) :: acc) t [] in
      Tuple_map.length t = Hashtbl.length model
      && Array.for_all
           (fun k -> find_opt_h t ~hash:(hash k) k = Hashtbl.find_opt model k)
           pool
      && List.length pairs = Hashtbl.length model
      && List.for_all (fun (k, v) -> Hashtbl.find_opt model k = Some v) pairs)

(* --- Flow table liveness ----------------------------------------------- *)

let prop_flow_table_liveness_model =
  seeded ~name:"Flow_table liveness: probe/set/remove agree with Hashtbl model" ~count:60
    QCheck.Gen.(int_range 50 300) (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x11fe |] in
      let t = Sb_mat.Flow_table.create ~initial_size:8 ~width:2 () in
      let model = Hashtbl.create 64 in
      for _ = 1 to n do
        let fid = Random.State.int st 48 in
        match Random.State.int st 4 with
        | 0 | 1 ->
            let last_seen = Random.State.int st 1_000_000 in
            let epoch = Random.State.int st 1000 in
            let tuple = random_tuple st in
            Sb_mat.Flow_table.set_live t (Sb_mat.Flow_table.claim t fid) ~last_seen ~epoch
              ~pack1:(Five_tuple.pack1 tuple) ~pack2:(Five_tuple.pack2 tuple);
            Hashtbl.replace model fid (last_seen, epoch, tuple)
        | 2 -> (
            (* The per-packet touch: bump last_seen through the slot. *)
            let s = Sb_mat.Flow_table.find_slot t fid in
            match Hashtbl.find_opt model fid with
            | Some (_, epoch, tuple) ->
                if s < 0 then failwith "tracked fid not found";
                let now = Random.State.int st 1_000_000 in
                Sb_mat.Flow_table.set_last_seen_at t s now;
                Hashtbl.replace model fid (now, epoch, tuple)
            | None -> if s >= 0 then failwith "untracked fid found")
        | _ ->
            let s = Sb_mat.Flow_table.find_slot t fid in
            if s >= 0 then Sb_mat.Flow_table.remove_at t s;
            Hashtbl.remove model fid
      done;
      Sb_mat.Flow_table.length t = Hashtbl.length model
      && List.for_all
           (fun fid ->
             Sb_mat.Flow_table.prefetch t fid ~live:true;
             let s = Sb_mat.Flow_table.find_slot t fid in
             match Hashtbl.find_opt model fid with
             | None -> s < 0
             | Some (last_seen, epoch, tuple) ->
                 s >= 0
                 && Sb_mat.Flow_table.last_seen_at t s = last_seen
                 && Sb_mat.Flow_table.epoch_at t s = epoch
                 && Five_tuple.equal
                      (Five_tuple.of_packed (Sb_mat.Flow_table.pack1_at t s)
                         (Sb_mat.Flow_table.pack2_at t s))
                      tuple)
           (List.init 48 Fun.id))

(* --- Lru arena -------------------------------------------------------- *)

let prop_lru_model =
  seeded ~name:"Lru arena: recency order agrees with list model" ~count:60
    QCheck.Gen.(int_range 20 200) (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x14a |] in
      let t = Lru.create () in
      (* Model: (key, node) pairs, hottest first; keys are unique (the
         loop counter) and nodes are dropped on removal, per the arena
         reuse contract. *)
      let model = ref [] in
      for i = 1 to n do
        match Random.State.int st 5 with
        | 0 | 1 -> model := (i, Lru.add t i) :: !model
        | 2 when !model <> [] ->
            let k, node = List.nth !model (Random.State.int st (List.length !model)) in
            Lru.touch t node;
            model := (k, node) :: List.filter (fun (k', _) -> k' <> k) !model
        | 3 when !model <> [] ->
            let k, node = List.nth !model (Random.State.int st (List.length !model)) in
            Lru.remove t node;
            model := List.filter (fun (k', _) -> k' <> k) !model
        | _ -> (
            match (Lru.pop_coldest t, List.rev !model) with
            | None, [] -> ()
            | Some k, (k', _) :: _ when k = k' ->
                model := List.filter (fun (k'', _) -> k'' <> k) !model
            | got, _ ->
                failwith
                  (Printf.sprintf "pop_coldest mismatch: got %s"
                     (match got with None -> "None" | Some k -> string_of_int k)))
      done;
      Lru.length t = List.length !model
      && Lru.coldest t = (match List.rev !model with [] -> None | (k, _) :: _ -> Some k)
      && List.for_all (fun (k, node) -> Lru.key t node = k) !model)

let test_lru_handle_reuse () =
  let t = Lru.create () in
  let a = Lru.add t 1 in
  let b = Lru.add t 2 in
  Lru.remove t a;
  (* The freed handle is recycled by the next add: the arena's free list
     hands the same slot back, and recency still reflects only live
     entries. *)
  let _c = Lru.add t 3 in
  Alcotest.(check int) "length counts live entries" 2 (Lru.length t);
  Lru.touch t b;
  Alcotest.(check (option int)) "recency intact" (Some 3) (Lru.coldest t);
  Alcotest.(check (option int)) "pop order" (Some 3) (Lru.pop_coldest t);
  Alcotest.(check (option int)) "then hot survivor" (Some 2) (Lru.pop_coldest t);
  Alcotest.(check (option int)) "empty" None (Lru.pop_coldest t)

let suite =
  [
    Alcotest.test_case "wraparound cluster backward-shift" `Quick test_wraparound_cluster;
    Alcotest.test_case "lru arena handle reuse" `Quick test_lru_handle_reuse;
  ]
  @ Test_util.qcheck_cases
      [
        prop_pack_roundtrip;
        prop_flat_table_model;
        prop_tuple_map_model;
        prop_flow_table_liveness_model;
        prop_lru_model;
        prop_tuple_map_shared_hash;
      ]
