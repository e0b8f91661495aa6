(* The microbench gate table (bench/gate.ml), evaluated over hand-built
   name -> figure lists and over the committed BENCH_fastpath.json: no
   bench runs here. *)
open Sb_bench

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Gate.Pass -> "OK"
        | Gate.Fail -> "FAIL"
        | Gate.Skipped -> "SKIPPED"
        | Gate.Info -> "informational"))
    ( = )

let eval ?(cores = 4) ?(baseline = []) current row =
  fst (Gate.eval ~cores ~baseline ~current row)

let ratio_rows =
  List.filter
    (fun r -> match (r.Gate.den, r.Gate.bound) with
      | Gate.Current _, (Gate.At_most _ | Gate.At_least _) -> true
      | _ -> false)
    Gate.table

let absolute_rows = List.filter (fun r -> r.Gate.den = Gate.Baseline) Gate.table

let find title = List.find (fun r -> String.equal r.Gate.title title) Gate.table
let den_key r = match r.Gate.den with Gate.Current k -> k | Gate.Baseline -> assert false

(* Every bound of the table, by direction and value: a changed constant
   shows up here before it changes what CI accepts. *)
let test_bounds () =
  let bound_of r =
    match r.Gate.bound with
    | Gate.At_most x -> Printf.sprintf "<= %.2f" x
    | Gate.At_least x -> Printf.sprintf ">= %.2f" x
    | Gate.Informational -> "info"
  in
  Alcotest.(check (list string))
    "bounds in table order"
    [
      "<= 1.05"; "<= 1.05"; "<= 1.05"; "<= 1.05"; "<= 1.05"; "<= 0.75"; "<= 1.10"; "info";
      ">= 1.50"; "<= 3.00"; "<= 1.50"; "<= 1.10"; "<= 1.10"; "<= 0.15";
    ]
    (List.map bound_of Gate.table);
  Alcotest.(check int) "five absolute rows" 5 (List.length absolute_rows);
  Alcotest.(check int) "eight ratio rows" 8 (List.length ratio_rows)

(* Each ratio row with its numerator exactly at the bound over a
   denominator of 1000, then one unit past it. *)
let test_ratio_rows_at_bound () =
  List.iter
    (fun r ->
      let x, past =
        match r.Gate.bound with
        | Gate.At_most x -> (x, 1.)
        | Gate.At_least x -> (x, -1.)
        | Gate.Informational -> assert false
      in
      let at = Float.round (x *. 1000.) in
      let current num = [ (List.hd r.Gate.num, num); (den_key r, 1000.) ] in
      Alcotest.check verdict (r.Gate.title ^ " at its bound") Gate.Pass (eval (current at) r);
      Alcotest.check verdict (r.Gate.title ^ " past its bound") Gate.Fail
        (eval (current (at +. past)) r))
    ratio_rows

let test_absolute_rows () =
  List.iter
    (fun r ->
      let key = List.hd r.Gate.num in
      let baseline = [ (key, 1000.) ] in
      Alcotest.check verdict (key ^ " at 1.05x") Gate.Pass
        (eval ~baseline [ (key, 1050.) ] r);
      Alcotest.check verdict (key ^ " past 1.05x") Gate.Fail
        (eval ~baseline [ (key, 1051.) ] r);
      (* A file with no baseline for the bench used to compare the run
         with itself and pass. *)
      let v, detail = Gate.eval ~cores:4 ~baseline:[] ~current:[ (key, 1000.) ] r in
      Alcotest.check verdict (key ^ " without a baseline") Gate.Fail v;
      Alcotest.(check string) "names the missing key" ("no baseline for " ^ key) detail)
    absolute_rows

let test_missing_bench () =
  let r = find "deterministic-1 / unsharded run_trace" in
  let v, detail = Gate.eval ~cores:4 ~baseline:[] ~current:[ (den_key r, 600.) ] r in
  Alcotest.check verdict "numerator missing" Gate.Fail v;
  Alcotest.(check string) "names it" ("missing " ^ List.hd r.Gate.num) detail;
  let v, detail = Gate.eval ~cores:4 ~baseline:[] ~current:[ (List.hd r.Gate.num, 600.) ] r in
  Alcotest.check verdict "denominator missing" Gate.Fail v;
  Alcotest.(check string) "names it" ("missing " ^ den_key r) detail;
  (* The informational row too: a renamed bench must not go quiet. *)
  Alcotest.check verdict "informational row, input missing" Gate.Fail
    (eval [] (find "deterministic-4 / unsharded run_trace (steering cost)"))

let test_parallel_row_by_cores () =
  let r = find "deterministic-4 / parallel-4 (parallel speedup)" in
  let current det4 = [ (List.hd r.Gate.num, det4); (den_key r, 1000.) ] in
  Alcotest.check verdict "1 core" Gate.Skipped (eval ~cores:1 (current 1500.) r);
  Alcotest.check verdict "2 cores" Gate.Skipped (eval ~cores:2 (current 1500.) r);
  Alcotest.check verdict "4 cores, 1.5x" Gate.Pass (eval ~cores:4 (current 1500.) r);
  Alcotest.check verdict "4 cores, below 1.5x" Gate.Fail (eval ~cores:4 (current 1499.) r);
  Alcotest.check verdict "2 cores, input missing" Gate.Fail (eval ~cores:2 [] r)

let test_scale_tiers () =
  let r = find "scale sweep top tier / 10k flows" in
  let k10 = Scale_sweep.key 10_000
  and k100 = Scale_sweep.key 100_000
  and k1m = Scale_sweep.key 1_000_000 in
  Alcotest.check verdict "10k+100k, flat" Gate.Pass (eval [ (k10, 1000.); (k100, 2900.) ] r);
  Alcotest.check verdict "10k+100k, growing" Gate.Fail (eval [ (k10, 1000.); (k100, 3100.) ] r);
  (* With the 1M tier present, it is the one gated. *)
  Alcotest.check verdict "1M gated, 100k ignored" Gate.Pass
    (eval [ (k10, 1000.); (k100, 9000.); (k1m, 2900.) ] r);
  Alcotest.check verdict "1M growing" Gate.Fail
    (eval [ (k10, 1000.); (k100, 1100.); (k1m, 3100.) ] r);
  Alcotest.check verdict "10k alone" Gate.Fail (eval [ (k10, 1000.) ] r)

(* dune copies the committed record next to the test directory. *)
let committed = "../BENCH_fastpath.json"

(* The verdicts the shell gate this table replaced gave for the committed
   record: 11 OK and 2 SKIPPED — the parallel row (recorded on 1 core)
   and the state-store row, whose input the record lacked then and holds
   now. *)
let test_committed_record () =
  let baseline = Gate.read_block committed "baseline"
  and current = Gate.read_block committed "current" in
  Alcotest.(check bool) "baseline read" true (List.length baseline >= 25);
  Alcotest.(check bool) "current read" true (List.length current >= 25);
  let cores = int_of_float (List.assoc Microbench.cores_key current) in
  Alcotest.(check int) "recorded on 1 core" 1 cores;
  let expected =
    List.map
      (fun r ->
        match r.Gate.title with
        | "deterministic-4 / unsharded run_trace (steering cost)" -> Gate.Info
        | "deterministic-4 / parallel-4 (parallel speedup)" -> Gate.Skipped
        | _ -> Gate.Pass)
      Gate.table
  in
  Alcotest.(check (list verdict))
    "row by row" expected
    (List.map (fun r -> fst (Gate.eval ~cores ~baseline ~current r)) Gate.table)

(* [record] over a file with no baseline: the record is written, the
   absolute rows fail, and a second recording does not heal them by
   having seeded the gated keys from the first. *)
let test_record_without_baseline () =
  let current = Gate.read_block committed "current" in
  let path = Filename.temp_file "bench-gate" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let failed = Gate.record path ~ran:[ Gate.Micro; Gate.Scale ] ~cores:1 current in
      Alcotest.(check int) "absolute rows fail" 5 failed;
      Alcotest.(check int) "current written" (List.length current)
        (List.length (Gate.read_block path "current"));
      let baseline = Gate.read_block path "baseline" in
      Alcotest.(check bool) "ungated bench seeded" true
        (List.mem_assoc Microbench.fid.key baseline);
      Alcotest.(check bool) "gated bench not seeded" false
        (List.exists (fun k -> List.mem_assoc k baseline) Gate.gated);
      Alcotest.(check int) "still failing" 5
        (Gate.record path ~ran:[ Gate.Micro; Gate.Scale ] ~cores:1 current);
      (* The scale section alone reads no baseline. *)
      Alcotest.(check int) "scale only" 0 (Gate.record path ~ran:[ Gate.Scale ] ~cores:1 current))

let suite =
  [
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "ratio rows at and past their bounds" `Quick test_ratio_rows_at_bound;
    Alcotest.test_case "absolute rows, baseline present and missing" `Quick test_absolute_rows;
    Alcotest.test_case "missing input bench fails" `Quick test_missing_bench;
    Alcotest.test_case "parallel row at 1, 2 and 4 cores" `Quick test_parallel_row_by_cores;
    Alcotest.test_case "scale tiers 10k+100k and 10k+100k+1M" `Quick test_scale_tiers;
    Alcotest.test_case "committed BENCH_fastpath.json" `Quick test_committed_record;
    Alcotest.test_case "record without a baseline" `Quick test_record_without_baseline;
  ]
