(* The SpeedyBox benchmark harness.

   With no arguments it regenerates every table and figure of the paper's
   evaluation (each printed with the paper's reference numbers for
   comparison), runs the ablation benches and finishes with Bechamel
   wall-clock microbenchmarks of the hot operations.  Individual sections
   run via `dune exec bench/main.exe -- <section>`; see `--help`.

   `--json OUT` writes the micro and scale results to OUT (see gate.ml for
   the schema), checks them against the gate table and exits 1 when a row
   fails; with no section arguments it runs just the micro section. *)

open Sb_bench

(* Set by a failing gate row; the process exits 1 once every requested
   section ran. *)
let gate_failed = ref false

let record path ran results =
  if Gate.record path ~ran ~cores:(Domain.recommended_domain_count ()) results > 0 then
    gate_failed := true

let sections json : (string * string * (unit -> unit)) list =
  [
    ("fig4", "header action consolidation (Fig. 4)", Sb_experiments.Fig4.run);
    ("table3", "early packet drop (Table III)", Sb_experiments.Table3.run);
    ("fig5", "state function parallelism (Fig. 5)", Sb_experiments.Fig5.run);
    ("fig6", "Snort+Monitor chain (Fig. 6)", Sb_experiments.Fig6.run);
    ("fig7", "latency reduction split (Fig. 7)", Sb_experiments.Fig7.run);
    ("fig8", "chain length sweep (Fig. 8)", Sb_experiments.Fig8.run);
    ("fig9", "real-world chain CDFs (Fig. 9)", Sb_experiments.Fig9.run);
    ("fig4nfs", "Fig. 4 sweep for other NFs (paper's [7])", Sb_experiments.Fig4_other_nfs.run);
    ("table2", "NF integration LOC (Table II)", Sb_experiments.Table2.run);
    ("baselines", "OpenBox/ParaBox-style baseline comparison", Sb_experiments.Baseline_compare.run);
    ("loadsweep", "latency/loss vs offered load (queueing extension)", Sb_experiments.Load_sweep.run);
    ("eventrate", "fast-path cost vs event frequency (extension)", Sb_experiments.Event_rate.run);
    ("staged", "staged ONVM executor: races, reordering, queueing (extension)", Sb_experiments.Staged_pipeline.run);
    ("ablations", "design-choice ablations (A1-A4)", Sb_experiments.Ablations.run);
    ("impair", "adversarial-impairment correctness matrix (robustness extension)", Sb_experiments.Impair_matrix.run);
    ( "scale",
      "million-flow idle-expiry load sweep",
      fun () ->
        (* Run standalone with --json (e.g. the CI 10k/100k tiers): the
           sweep's figures land in their own file, gated by the scale row
           alone. *)
        let results = Scale_sweep.run () in
        Option.iter (fun path -> record path [ Gate.Scale ] results) json );
    ( "micro",
      "Bechamel wall-clock microbenchmarks",
      fun () ->
        let results = Microbench.run () in
        (* When recording JSON the scale sweep rides along, after every
           micro measurement: its million-flow heap would otherwise
           inflate every figure measured after it. *)
        Option.iter
          (fun path -> record path [ Gate.Micro; Gate.Scale ] (results @ Scale_sweep.run ()))
          json );
  ]

let usage () =
  print_endline "usage: main.exe [--json OUT] [section...]";
  print_endline "sections:";
  List.iter (fun (name, descr, _) -> Printf.printf "  %-10s %s\n" name descr) (sections None);
  print_endline "with no arguments, every section runs in order.";
  print_endline "--json OUT writes micro/scale results (ns/run) to OUT as JSON and gates them."

let () =
  let rec split_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--json" :: [] ->
        prerr_endline "--json requires a path";
        usage ();
        exit 2
    | a :: rest -> split_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json, args = split_json [] (List.tl (Array.to_list Sys.argv)) in
  let sections = sections json in
  (match args with
  | ("-h" | "--help" | "help") :: _ -> usage ()
  | [] -> (
      match json with
      | Some _ ->
          (* A JSON target with no explicit sections means just the
             micro section, which records the scale sweep too. *)
          List.iter (fun (n, _, run) -> if n = "micro" then run ()) sections
      | None -> List.iter (fun (_, _, run) -> run ()) sections)
  | requested ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> String.equal n name) sections with
          | Some (_, _, run) -> run ()
          | None ->
              Printf.eprintf "unknown section %S\n" name;
              usage ();
              exit 2)
        requested);
  if !gate_failed then exit 1
