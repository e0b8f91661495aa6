(* The microbench record and the gate over it.

   [record] writes a run's figures to a JSON file, keeping the file's
   "baseline" block, then checks them against [table] and prints one
   verdict per row.  Each row is data: the benches it reads, the bound it
   applies and the message it prints when it fails.  Ratio rows divide
   two figures of the same run, so machine speed cancels; absolute rows
   hold a bench within [tolerance] of the baseline recorded in the file.
   A row whose section ran but whose input is missing (a renamed bench, a
   lost baseline) fails rather than passing or skipping. *)

module M = Microbench

type section = Micro | Scale

type bound = At_most of float | At_least of float | Informational

(* What a row divides by: the bench's own recorded baseline, or another
   bench of the same run. *)
type den = Baseline | Current of string

type row = {
  title : string;
  section : section;
  num : string list;  (** the first of these the run measured *)
  den : den;
  bound : bound;
  min_cores : int;  (** the row is skipped on a machine with fewer cores *)
  why : string;  (** printed when the row fails *)
}

let tolerance = 1.05

let absolute key why =
  {
    title = key ^ ", current / baseline";
    section = Micro;
    num = [ key ];
    den = Baseline;
    bound = At_most tolerance;
    min_cores = 1;
    why;
  }

let ratio ?(min_cores = 1) title num den bound why =
  { title; section = Micro; num = [ num ]; den = Current den; bound; min_cores; why }

let table =
  let unsharded = M.shard_unsharded.key in
  let det4 = M.shard_deterministic_4.key and par4 = M.shard_parallel_4.key in
  [
    absolute M.fast_path_obs_unarmed.key
      "the disabled-observability hook must stay one branch per packet";
    absolute M.fast_path.key "the per-packet fast path regressed";
    absolute M.burst_fast_path.key "the burst fast path regressed";
    absolute M.burst_lru_churn.key "the burst lru-churn path regressed";
    absolute M.impaired_fastpath.key "the fast path over impaired traffic regressed";
    ratio "burst-32 / per-packet fast path" M.burst_fast_path.key M.fast_path.key
      (At_most 0.75) "the burst-32 fast path is not enough faster than the per-packet one";
    ratio "deterministic-1 / unsharded run_trace" M.shard_deterministic_1.key unsharded
      (At_most 1.10) "the sharded framework taxes an unsharded deployment";
    (* Steering and stretch segmentation buy the parallelism below, so
       their cost is reported, not gated. *)
    ratio "deterministic-4 / unsharded run_trace (steering cost)" det4 unsharded Informational
      "";
    (* Meaningless without spare cores: skipped below 4, gated from 4. *)
    ratio ~min_cores:4 "deterministic-4 / parallel-4 (parallel speedup)" det4 par4
      (At_least 1.5) "the Domain-parallel executor does not scale despite spare cores";
    (* The timer wheel and the SoA tables hold the per-packet cost near
       flat as flows grow 100x; a linear expiry sweep fails this by orders
       of magnitude.  The top tier is 1M when it ran, else 100k (CI). *)
    {
      (ratio "scale sweep top tier / 10k flows" "" (Scale_sweep.key 10_000) (At_most 3.0)
         "per-packet cost blows up with the flow population (is idle expiry scanning linearly?)")
      with
      section = Scale;
      num = [ Scale_sweep.key 1_000_000; Scale_sweep.key 100_000 ];
    };
    ratio "impaired burst-32 / clean unsharded run_trace" M.impaired_fastpath.key unsharded
      (At_most 1.5) "adversarial traffic collapses the burst fast path";
    ratio "parallel-4 obs-armed / parallel-4" M.shard_parallel_4_armed.key par4 (At_most 1.10)
      "domain-local observability taxes the parallel hot path";
    ratio "deterministic-4 state-store / deterministic-4" M.shard_deterministic_4_state.key det4
      (At_most 1.10) "the scoped state store taxes the deterministic hot path";
    (* The per-stage hash lookups and reservoirs the per-profile tally
       replaced measured 0.30-0.32 on a 2-vCPU VM; the tally 0.08-0.09. *)
    ratio "acc.consume / burst-32 fast path" M.acc_consume.key M.burst_fast_path.key
      (At_most 0.15) "run accounting grew back toward per-stage work on every packet";
  ]

type verdict = Pass | Fail | Skipped | Info

let need = function
  | At_most x -> Printf.sprintf " (need <= %.2f)" x
  | At_least x -> Printf.sprintf " (need >= %.2f)" x
  | Informational -> ""

let holds bound r =
  match bound with At_most x -> r <= x | At_least x -> r >= x | Informational -> true

(* One row over name -> figure lists; the string is what it measured, or
   which input it lacks. *)
let eval ~cores ~baseline ~current row =
  match List.find_opt (fun k -> List.mem_assoc k current) row.num with
  | None -> (Fail, "missing " ^ String.concat " and " row.num)
  | Some key -> (
      let den =
        match row.den with
        | Baseline -> Option.to_result ~none:("no baseline for " ^ key) (List.assoc_opt key baseline)
        | Current k -> Option.to_result ~none:("missing " ^ k) (List.assoc_opt k current)
      in
      match den with
      | Error missing -> (Fail, missing)
      | Ok b ->
          let a = List.assoc key current in
          let detail = Printf.sprintf "%.1f / %.1f = %.3f%s" a b (a /. b) (need row.bound) in
          if row.bound = Informational then (Info, detail)
          else if cores < row.min_cores then
            (Skipped, Printf.sprintf "%s, %d cores, needs >= %d" detail cores row.min_cores)
          else ((if holds row.bound (a /. b) then Pass else Fail), detail))

(* Prints every row of the sections that ran and a summary line; returns
   the number of failed rows. *)
let check ~ran ~cores ~baseline ~current =
  let passed = ref 0 and failed = ref 0 and skipped = ref 0 in
  List.iter
    (fun row ->
      if List.mem row.section ran then begin
        let verdict, detail = eval ~cores ~baseline ~current row in
        let tag =
          match verdict with
          | Pass -> incr passed; "OK"
          | Fail -> incr failed; "FAIL: " ^ row.why
          | Skipped -> incr skipped; "SKIPPED"
          | Info -> "informational"
        in
        Printf.printf "gate: %s\n  %s -> %s\n" row.title detail tag
      end)
    table;
  Printf.printf "gate: %d guards passed, %d failed, %d skipped\n%!" !passed !failed !skipped;
  !failed

(* ---- the JSON record (hand-rolled; the build has no JSON library) ----

   Schema: {"schema": "speedybox-microbench/1",
            "baseline": {"<bench key>": <figure>, ...},
            "current":  {...}}

   The baseline block is preserved from an existing file so repeated runs
   keep comparing against the first recorded numbers.  A bench that no
   row reads enters it at its first measured value; a bench some row
   reads enters it only by hand, so a lost baseline fails its row instead
   of being re-seeded from the very run it should judge. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Line-oriented scan of a file [write] emitted: the entries of block
   [name] are the `"key": 12.3,` lines after its opening line.  Returns
   [] when the file is missing or laid out differently. *)
let read_block path name =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      let opening = "\"" ^ name ^ "\": {" in
      let rec find = function
        | [] -> []
        | l :: rest -> if String.trim l = opening then entries [] rest else find rest
      and entries acc = function
        | [] -> List.rev acc
        | l :: rest -> (
            match Scanf.sscanf l " %S : %f" (fun k v -> (k, v)) with
            | kv -> entries (kv :: acc) rest
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> List.rev acc)
      in
      find (String.split_on_char '\n' text)

let write path ~baseline current =
  let oc = open_out path in
  let block kvs =
    String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "    \"%s\": %.1f" (json_escape k) v) kvs)
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"speedybox-microbench/1\",\n  \"baseline\": {\n%s\n  },\n  \"current\": {\n%s\n  }\n}\n"
    (block baseline) (block current);
  close_out oc;
  Printf.printf "  wrote %s (%d benches)\n" path (List.length current)

let gated =
  List.concat_map (fun r -> r.num @ match r.den with Current k -> [ k ] | Baseline -> []) table

(* Writes [current] to [path] first, so the file survives a failing gate,
   then checks the rows of the sections that ran against it and the
   baseline the file held; returns the number of failed rows. *)
let record path ~ran ~cores current =
  let baseline = read_block path "baseline" in
  let seeded =
    List.filter (fun (k, _) -> not (List.mem_assoc k baseline || List.mem k gated)) current
  in
  write path ~baseline:(baseline @ seeded) current;
  check ~ran ~cores ~baseline ~current
