type state = Healthy | Degraded | Failed

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with Healthy -> "Healthy" | Degraded -> "Degraded" | Failed -> "Failed")

type on_failure = Bypass | Drop_flow | Slow_path_only

let pp_on_failure fmt p =
  Format.pp_print_string fmt
    (match p with
    | Bypass -> "bypass"
    | Drop_flow -> "drop-flow"
    | Slow_path_only -> "slow-path-only")

let on_failure_of_string = function
  | "bypass" -> Some Bypass
  | "drop-flow" | "drop_flow" | "drop" -> Some Drop_flow
  | "slow-path-only" | "slow_path_only" | "slow-path" -> Some Slow_path_only
  | _ -> None

type policy = {
  degraded_after : int;
  failed_after : int;
  on_failure : on_failure;
  overrides : (string * on_failure) list;
}

let policy ?(degraded_after = 3) ?(failed_after = 8) ?(on_failure = Slow_path_only)
    ?(overrides = []) () =
  if degraded_after < 1 then invalid_arg "Health.policy: degraded_after must be positive";
  if failed_after < degraded_after then
    invalid_arg "Health.policy: failed_after must be >= degraded_after";
  { degraded_after; failed_after; on_failure; overrides }

let default_policy = policy ()

let policy_for pol nf =
  match List.assoc_opt nf pol.overrides with Some p -> p | None -> pol.on_failure

(* Counts are atomics and the table is filled once, at [create]: shards
   sharing one table record into it concurrently and only read the
   [Hashtbl]. *)
type record = { name : string; on_fail : on_failure; faults : int Atomic.t }

type t = {
  pol : policy;
  table : (string, record) Hashtbl.t;
  total : int Atomic.t;  (* faults recorded against every NF *)
  failures : int Atomic.t;  (* NFs that have reached [Failed] *)
}

let create pol names =
  let table = Hashtbl.create 8 in
  List.iter
    (fun nf ->
      if not (Hashtbl.mem table nf) then
        Hashtbl.replace table nf
          { name = nf; on_fail = policy_for pol nf; faults = Atomic.make 0 })
    names;
  { pol; table; total = Atomic.make 0; failures = Atomic.make 0 }

let state_of pol n =
  if n >= pol.failed_after then Failed else if n >= pol.degraded_after then Degraded
  else Healthy

type transition = No_change | To_degraded | To_failed

(* The fault that brings the count to a threshold crosses it, so exactly
   one recorder sees each transition however many shards record. *)
let record_fault t nf =
  match Hashtbl.find_opt t.table nf with
  | None -> invalid_arg (Printf.sprintf "Health.record_fault: %s is not in the table" nf)
  | Some r ->
      Atomic.incr t.total;
      let n = 1 + Atomic.fetch_and_add r.faults 1 in
      if n = t.pol.failed_after then begin
        Atomic.incr t.failures;
        To_failed
      end
      else if n = t.pol.degraded_after then To_degraded
      else No_change

let faults t nf =
  match Hashtbl.find_opt t.table nf with Some r -> Atomic.get r.faults | None -> 0

let state t nf = state_of t.pol (faults t nf)

let on_failure t nf =
  match Hashtbl.find_opt t.table nf with Some r -> r.on_fail | None -> policy_for t.pol nf

let total_faults t = Atomic.get t.total

let failures t = Atomic.get t.failures

let snapshot t =
  Hashtbl.fold
    (fun _ r acc ->
      match Atomic.get r.faults with
      | 0 -> acc
      | n -> (r.name, state_of t.pol n, n) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
