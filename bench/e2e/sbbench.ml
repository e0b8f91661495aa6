(* The end-to-end benchmark's command line (see README.md):

     sbbench.exe --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--json OUT]

   One workload per process.  [--workload all] re-executes this program
   once per workload, because after the first [Domain.spawn] every later
   single-threaded measurement in the same process reads 15-50% slow. *)

let usage =
  "sbbench --workload NAME|all --seed N [--seconds S] [--trace 0|1] [--json OUT]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.E2e.Workloads.name) E2e.Workloads.all)

let fail msg =
  prerr_endline ("sbbench: " ^ msg);
  prerr_endline usage;
  exit 2

let run_all ~seed ~seconds ~trace ~json =
  List.fold_left
    (fun code w ->
      let name = w.E2e.Workloads.name in
      let args =
        [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed ]
        @ [ "--seconds"; string_of_int seconds; "--trace"; string_of_int trace ]
        @ if json = "" then [] else [ "--json"; Printf.sprintf "%s.%s.json" json name ]
      in
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> code
      | Unix.WEXITED c -> max code c
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> max code 2)
    0 E2e.Workloads.all

let () =
  let workload = ref "" and seed = ref None and seconds = ref 30 and trace = ref 0 in
  let json = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N seed of the generated traffic");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed passes (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs traced and reports per-layer metrics");
      ( "--json",
        Arg.Set_string json,
        "OUT also write the result object to OUT, and a traced run's spans to OUT.trace.json" );
    ]
    (fun a -> fail ("unexpected argument " ^ a))
    usage;
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds < 0 then fail "--seconds must not be negative";
  if !workload = "all" then exit (run_all ~seed ~seconds:!seconds ~trace:!trace ~json:!json);
  let w =
    match E2e.Workloads.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let r =
    E2e.Runner.run
      { E2e.Runner.workload = w; seed; seconds = !seconds; traced = !trace = 1; smoke = false }
  in
  if !json <> "" then begin
    let oc = open_out !json in
    output_string oc (E2e.Runner.to_json r ^ "\n");
    close_out oc;
    if r.E2e.Runner.spans <> [] then
      E2e.Spans.write_chrome (!json ^ ".trace.json") r.E2e.Runner.spans
  end;
  exit (E2e.Runner.finish r)
