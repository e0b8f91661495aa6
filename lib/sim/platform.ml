type t = Bess | Onvm

let name = function Bess -> "BESS" | Onvm -> "ONVM"

let max_chain_length = function Bess -> None | Onvm -> Some 5

let hop_cycles = function Bess -> Cycles.module_hop_bess | Onvm -> Cycles.ring_hop_onvm

let latency_cycles t profile =
  let stages = List.length profile in
  let hops = max 0 (stages - 1) in
  Cost_profile.total_cycles profile + (hops * hop_cycles t)

(* Top-level int loops, like [Cost_profile]'s folds: no closures and no
   polymorphic [max] on a path the intern's misses run per packet. *)
let rec onvm_serial acc = function
  | [] -> acc
  | Cost_profile.Serial c :: rest -> onvm_serial (acc + c) rest
  | Cost_profile.Parallel _ :: rest -> onvm_serial (acc + Cycles.parallel_sync) rest

let rec onvm_batch_max acc = function
  | [] -> acc
  | c :: rest ->
      let hop = c + Cycles.ring_hop_onvm in
      onvm_batch_max (if hop > acc then hop else acc) rest

let rec onvm_parallel_max acc = function
  | [] -> acc
  | Cost_profile.Serial _ :: rest -> onvm_parallel_max acc rest
  | Cost_profile.Parallel costs :: rest -> onvm_parallel_max (onvm_batch_max acc costs) rest

(* Parallel batches are dispatched to other cores and pipeline with the
   manager's own work, so each is its own bottleneck candidate rather than
   blocking the stage (unlike BESS's run-to-completion join). *)
let onvm_stage_bottleneck (stage : Cost_profile.stage) =
  let items = stage.Cost_profile.items in
  onvm_parallel_max (onvm_serial 0 items + Cycles.ring_hop_onvm) items

let rec onvm_bottleneck acc = function
  | [] -> acc
  | stage :: rest ->
      let b = onvm_stage_bottleneck stage in
      onvm_bottleneck (if b > acc then b else acc) rest

let service_cycles t profile =
  match t with Bess -> latency_cycles t profile | Onvm -> onvm_bottleneck 0 profile

let latency_and_service t profile =
  let latency = latency_cycles t profile in
  match t with Bess -> (latency, latency) | Onvm -> (latency, service_cycles t profile)

let pp fmt t = Format.pp_print_string fmt (name t)
