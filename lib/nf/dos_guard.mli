(** The DoS-prevention NF of the paper's Event Table walkthrough (Fig. 3):
    counts packets (or TCP SYNs) per flow and, once a flow's counter
    crosses the threshold, turns the flow's action from forward into drop.

    Under SpeedyBox the counter increment is a payload-IGNORE state
    function and the cut-off is a one-shot event — condition
    [count >= threshold], update [drop] — so a flow's fast path flips to
    early drop the moment it exceeds its budget, exactly the top-right
    transition of Fig. 3. *)

(** What the per-flow counter counts. *)
type count_mode = All_packets | Syn_only

type t

val create :
  ?name:string ->
  ?mode:count_mode ->
  ?global_budget:int ->
  ?cells:Sb_state.Store.replica ->
  threshold:int ->
  unit ->
  t
(** [global_budget] arms a chain-wide cut-off on top of the per-flow
    [threshold]: once that many packets have been counted {e in total}
    (across all flows, and — when instances share a state store — across
    all shards), every flow's armed event fires and further packets
    drop — the paper's "DoS budget" reading of the Event Table
    walkthrough, where the attack is spread over many flows that each stay
    under the per-flow threshold.

    [cells] is the shard's replica of a shared state store: the per-flow
    counters become a [Per_flow] cell ([NAME.flows]) and the budget total
    a [Global] G-counter ([NAME.total]).  Defaults to a private
    single-shard store, which behaves exactly like the old instance-local
    fields.
    @raise Invalid_argument when [threshold < 1] or [global_budget < 1]. *)

val name : t -> string

val nf : t -> Speedybox.Nf.t

val count : t -> Sb_flow.Five_tuple.t -> int

val blocked_flows : t -> int
(** Flows whose counter has reached the threshold. *)

val dump : t -> string
