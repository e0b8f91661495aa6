(** Workload synthesis.

    The paper drives its real-world experiments with a datacenter trace
    (Benson et al. [11]) whose payloads are null for anonymisation, so the
    authors synthesise payloads matching Snort's inspection rules.  This
    module does the equivalent from scratch: heavy-tailed flows with
    configurable payloads, optionally seeded with tokens that match IDS
    rules, rendered into full wire-format packet sequences. *)

type close = Fin | Rst | Stay_open

type flow = {
  tuple : Sb_flow.Five_tuple.t;
  payloads : string array;  (** one entry per data packet, in order *)
  close : close;  (** how the last data packet ends the connection *)
}

val make_flow :
  ?close:close -> tuple:Sb_flow.Five_tuple.t -> payloads:string array -> unit -> flow

val packet_count : flow -> int
(** Data packets plus the TCP SYN (UDP flows have no handshake). *)

val packets_of_flow : flow -> Sb_packet.Packet.t list
(** Renders the flow: for TCP a SYN, then the data packets (the last one
    carrying FIN or RST per [close]); for UDP just the data packets. *)

val interleave : Rng.t -> 'a list list -> 'a list
(** Random merge that preserves each sequence's internal order — the
    arrival pattern a chain sees when many flows are concurrently active. *)

val round_robin : 'a list list -> 'a list

(** {1 Arrival timing} *)

val poisson_cycles : seed:int -> rate_mpps:float -> int -> int array
(** [poisson_cycles ~seed ~rate_mpps n] draws [n] arrival cycles (at the
    simulated 2 GHz clock) with cumulative exponential inter-arrival gaps
    at the given offered rate: the one Poisson arrival process behind
    {!with_poisson_times} and the load sweep.
    @raise Invalid_argument when [rate_mpps <= 0]. *)

val with_poisson_times :
  seed:int -> rate_mpps:float -> Sb_packet.Packet.t list -> Sb_packet.Packet.t list
(** Stamps each packet's [ingress_cycle] with {!poisson_cycles}.  Mutates
    and returns the same packets, in order.  Timed traces enable the
    runtime's idle-expiry extension and the staged executor. *)

(** {1 Payload synthesis} *)

val random_payload : Rng.t -> len:int -> string
(** Printable random bytes. *)

val payload_with_token : Rng.t -> token:string -> len:int -> string
(** Random payload with [token] embedded at a random offset (padding the
    length up if needed), so content-matching IDS rules fire on it. *)

(** {1 Generators} *)

type dcn_config = {
  seed : int;
  n_flows : int;
  mean_flow_packets : float;  (** lognormal body; tail clamped to 500 *)
  payload_len : int * int;  (** per-flow payload length range *)
  udp_fraction : float;
  malicious_fraction : float;  (** flows whose payloads carry [tokens] *)
  tokens : string list;  (** IDS-triggering tokens, cycled over *)
}

val default_dcn : dcn_config
(** seed 42, 200 flows, heavy-tailed sizes, 10% UDP, 5% malicious with
    token ["attack"]. *)

val dcn_flows : dcn_config -> flow list
(** Benson-style flow population: sources in 10/8, a small set of service
    destinations, Zipf-popular service ports, lognormal flow sizes. *)

val dcn_trace : dcn_config -> Sb_packet.Packet.t list
(** [dcn_flows] rendered and randomly interleaved. *)

val fixed_flows :
  ?seed:int ->
  ?proto:int ->
  n_flows:int ->
  packets_per_flow:int ->
  payload_len:int ->
  unit ->
  flow list
(** Homogeneous flows for microbenchmarks: distinct tuples, equal sizes,
    random payloads.  [proto] is 6 (TCP, default) or 17 (UDP — no
    handshake, so the flow's very first packet is its initial packet, as in
    the paper's packet-generator experiments).  [payload_len 10] yields
    64-byte TCP frames, the paper's microbenchmark packet size. *)

val fixed_trace :
  ?seed:int ->
  ?proto:int ->
  ?interleaved:bool ->
  n_flows:int ->
  packets_per_flow:int ->
  payload_len:int ->
  unit ->
  Sb_packet.Packet.t list
