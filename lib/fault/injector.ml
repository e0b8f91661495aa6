type kind = Raise | Corrupt_verdict | Stall

let pp_kind fmt k =
  Format.pp_print_string fmt
    (match k with Raise -> "raise" | Corrupt_verdict -> "corrupt-verdict" | Stall -> "stall")

let kind_of_string = function
  | "raise" -> Some Raise
  | "corrupt" | "corrupt-verdict" -> Some Corrupt_verdict
  | "stall" -> Some Stall
  | _ -> None

(* SplitMix64, one independent stream per NF name: the schedule an NF sees
   depends only on the seed, its name and its own call sequence — not on
   how calls to different NFs interleave — so a recorded fault schedule
   replays exactly even when the chain composition around the NF changes. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

type stream = { mutable state : int64 }

let next_bits s =
  s.state <- Int64.add s.state golden_gamma;
  mix s.state

let next_float s =
  Int64.to_float (Int64.shift_right_logical (next_bits s) 11) /. 9007199254740992. (* 2^53 *)

let hash_name name =
  (* FNV-1a, folded into the seed to derive the per-NF stream. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    name;
  !h

type rate_rule = { rkind : kind; rate : float }

type nf_state = {
  stream : stream;
  mutable rates : rate_rule list;  (* registration order; first hit wins *)
  mutable scripted : (int * kind) list;  (* (call index, kind), ascending *)
  mutable calls : int;
  mutable injected : int;
}

type t = {
  seed : int;
  stall_cycles : int;
  per_nf : (string, nf_state) Hashtbl.t;
  mutable total : int;
}

let create ?(stall_cycles = 50_000) ~seed () =
  { seed; stall_cycles; per_nf = Hashtbl.create 8; total = 0 }

let stall_cycles t = t.stall_cycles

let seed t = t.seed

let nf_state t nf =
  match Hashtbl.find_opt t.per_nf nf with
  | Some s -> s
  | None ->
      let s =
        {
          stream = { state = mix (Int64.add (Int64.of_int t.seed) (hash_name nf)) };
          rates = [];
          scripted = [];
          calls = 0;
          injected = 0;
        }
      in
      Hashtbl.replace t.per_nf nf s;
      s

let set_rate t ~nf kind rate =
  if rate < 0. || rate > 1. then invalid_arg "Injector.set_rate: rate must be in [0,1]";
  let s = nf_state t nf in
  s.rates <- s.rates @ [ { rkind = kind; rate } ]

let script t ~nf ~at kind =
  if at < 1 then invalid_arg "Injector.script: call index is 1-based";
  let s = nf_state t nf in
  s.scripted <-
    List.merge (fun (a, _) (b, _) -> Int.compare a b) s.scripted [ (at, kind) ]

let draw t ~nf =
  match Hashtbl.find_opt t.per_nf nf with
  | None -> None
  | Some s ->
      s.calls <- s.calls + 1;
      let hit =
        match s.scripted with
        | (at, kind) :: rest when at = s.calls ->
            s.scripted <- rest;
            Some kind
        | _ ->
            (* Every rate rule consumes one stream draw whether or not it
               fires, so a schedule is a pure function of the call index. *)
            List.fold_left
              (fun acc r ->
                let x = next_float s.stream in
                match acc with
                | Some _ -> acc
                | None -> if r.rate > 0. && x < r.rate then Some r.rkind else None)
              None s.rates
      in
      (match hit with
      | Some _ ->
          s.injected <- s.injected + 1;
          t.total <- t.total + 1
      | None -> ());
      hit

let calls t ~nf = match Hashtbl.find_opt t.per_nf nf with Some s -> s.calls | None -> 0

let injected t ~nf =
  match Hashtbl.find_opt t.per_nf nf with Some s -> s.injected | None -> 0

let total_injected t = t.total

let by_nf t =
  Hashtbl.fold (fun nf s acc -> (nf, s.injected) :: acc) t.per_nf []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
