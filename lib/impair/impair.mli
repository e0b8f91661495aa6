(** Deterministic, seeded network-impairment stage.

    A pipeline of composable mutators that transforms any trace (generated
    or loaded) {e before} it reaches an executor — {!Speedybox.Runtime.run_trace},
    the burst path, or the sharded executors — turning a clean workload
    into an adversarial one: reordering from latency jitter, probabilistic
    loss, duplication, payload/header corruption (with or without checksum
    recomputation), retransmission of TCP control packets, unidirectional
    delay past idle-expiry, and contiguous blackhole windows.

    Determinism contract: mutators never touch the input packets (every
    output packet is a fresh copy), and all randomness derives from one
    master SplitMix64 generator ({!Sb_trace.Rng}) split once per mutator in
    pipeline order — the same [seed] and the same [spec] always produce a
    bit-identical impaired trace, so every adversarial run is replayable. *)

type mutator =
  | Reorder of float
      (** Per-packet probability of a jitter displacement: an affected
          packet is pushed up to 8 slots later in the trace (a stable sort
          keeps unaffected packets in order), reordering both within and
          across flows. *)
  | Loss of float  (** Per-packet drop probability. *)
  | Dup of float
      (** Per-packet probability of emitting an immediate duplicate (same
          bytes, same timestamp) right after the original. *)
  | Corrupt of { rate : float; fix : bool }
      (** Per-packet probability of flipping one random byte in the
          IPv4/L4/payload region.  With [fix = false] checksums are left
          stale (the damage is detectable); with [fix = true] they are
          recomputed when the packet still parses (silent damage). *)
  | Retrans of float
      (** Per-control-packet (TCP SYN/FIN/RST) probability of re-injecting
          a copy 1-3 slots later — the retransmitted handshake and
          teardown packets that stress conntrack and rule cleanup. *)
  | Delay of float
      (** Per-flow probability of a unidirectional delay: the tail of an
          affected flow (everything after its first half) moves to the end
          of the trace with its arrival clock pushed {!delay_cycles}
          ahead — past any reasonable idle-expiry timeout, so the flow's
          rules are torn down before the tail arrives. *)
  | Blackhole of float
      (** A contiguous window of this fraction of the trace, at a seeded
          position, is dropped entirely — a transient routing blackhole. *)

type spec = mutator list

val delay_cycles : int
(** How far {!Delay} pushes an affected flow tail's arrival clock
    (50M cycles = 25 ms at the simulated 2 GHz — beyond any idle timeout
    the experiments configure). *)

val mutator_name : mutator -> string

val parse_spec : string -> (spec, string) result
(** Parses a comma-separated mutator spec, e.g.
    ["reorder:0.05,dup:0.01,loss:0.02"].  Each entry is [name:rate] with
    [name] one of [reorder], [loss], [dup], [corrupt], [corrupt-fix],
    [retrans], [delay], [blackhole] and [rate] a probability in [0,1].
    Returns a one-line error message on malformed input. *)

(** Per-mutator effect counts for one {!apply} run. *)
type summary = {
  input_packets : int;
  output_packets : int;
  reordered : int;  (** packets displaced by jitter *)
  lost : int;
  duplicated : int;
  corrupted : int;
  retransmitted : int;
  delayed_flows : int;
  blackholed : int;
}

val summary_line : seed:int -> summary -> string
(** One human-readable line for the CLI, e.g.
    ["impairments: reorder 12, dup 3 (1000 -> 1003 packets, seed 7)"]. *)

val apply : ?seed:int -> spec -> Sb_packet.Packet.t list -> Sb_packet.Packet.t list * summary
(** [apply ~seed spec trace] runs the mutators over [trace] in spec order
    and returns the impaired trace plus the effect summary.  The input
    packets are never mutated.  After the pipeline, arrival timestamps are
    normalised to a running maximum so the trace's arrival clock stays
    monotone (reordered packets inherit the clock high-water mark instead
    of travelling back in time).  [seed] defaults to 1. *)
