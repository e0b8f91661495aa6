(** The cycle-accounting cost model.

    This module substitutes for the paper's testbed (Intel Xeon E5-2660 v4,
    2.00 GHz, DPDK): every primitive operation a platform or NF performs is
    charged a cycle cost, and virtual-clock cycles convert to microseconds at
    the testbed frequency.  Constants are calibrated so the {e original}
    chain lands in the ballpark of the paper's measurements (Table III puts
    one IPFilter traversal at 510-582 cycles per packet) — the claims the
    benchmarks reproduce are relative, not absolute.

    All costs are per packet unless stated otherwise. *)

val frequency_ghz : float
(** 2.0, the paper's CPU frequency. *)

val cycles_per_us : float
(** [frequency_ghz *. 1000.]: cycles in one microsecond. *)

val to_microseconds : int -> float
(** [to_microseconds cycles] at {!frequency_ghz}: [cycles /. cycles_per_us]. *)

val rate_mpps : int -> float
(** [rate_mpps service_cycles] is the packet rate a core sustains when each
    packet costs [service_cycles]: [frequency / cycles], in Mpps. *)

(** {1 Platform primitives} *)

val parse : int
(** Parse Ethernet + IPv4 + L4 headers (the per-NF redundancy R1). *)

val classify : int
(** Flow-table lookup inside an NF. *)

val nf_rx_tx : int
(** Per-NF packet descriptor receive/transmit bookkeeping. *)

val module_hop_bess : int
(** Moving a packet between modules of the BESS dataflow graph (function
    call + metadata, same core). *)

val ring_hop_onvm : int
(** Moving a descriptor across an OpenNetVM inter-core ring (cache-line
    transfer + ring protocol). *)

(** {1 Header actions} *)

val ha_forward : int
val ha_drop : int
val ha_modify_field : int
(** Per modified field, including the incremental checksum update. *)

val ha_encap : int
val ha_decap : int

(** {1 SpeedyBox machinery} *)

val classifier : int
(** Packet Classifier: hash the 5-tuple, attach FID metadata. *)

val meta_detach : int
(** Removing the FID metadata when the packet leaves the chain. *)

val local_mat_record : int
(** Per-NF Local MAT recording on the initial packet's traversal. *)

val global_consolidate_per_nf : int
(** One-time consolidation work per Local MAT merged into the Global MAT. *)

val fast_path_lookup : int
(** Global MAT rule lookup for a subsequent packet. *)

val fast_path_per_action : int
(** Per consolidated source action: the Global MAT executor walks the
    per-NF entries that fed the rule, so the fast path grows mildly with
    chain length (visible in the paper's Fig. 4 slope). *)

val event_check : int
(** Per registered event condition evaluated on the fast path. *)

val event_fire : int
(** Rewriting a consolidated rule when an event triggers. *)

val sf_invoke : int
(** Dispatching one recorded state-function handler. *)

val fault_contain : int
(** Catching an NF fault and releasing the packet's descriptor: the
    exception unwind plus the fault-counter and quarantine bookkeeping. *)

val parallel_sync : int
(** Per-packet fork/join overhead when state-function batches run on extra
    cores (amortised over DPDK-style packet batches). *)

val parallel_overlap_pct : int
(** Percentage of the non-critical-path work that still serialises when
    batches run "in parallel" (cache contention, core skew); keeps the
    measured speedup at the paper's ~2.1x rather than the ideal N. *)

(** {1 NF-specific work} *)

val acl_rule_scan : int
(** Linear ACL scan, per rule inspected (IPFilter initial packets). *)

val acl_trie_walk : int
(** Fixed cost of a source-prefix trie descent (the alternative ACL
    engine; ablation A7). *)

val acl_established : int
(** IPFilter verdict for a flow already in its flow cache. *)

val nat_translate : int
(** MazuNAT mapping lookup + header rewrite bookkeeping. *)

val nat_allocate : int
(** MazuNAT port allocation for a new flow. *)

val lb_consistent_hash : int
(** Maglev lookup-table probe. *)

val monitor_count : int
(** Monitor counter increment. *)

val payload_scan_per_byte : int
(** Aho-Corasick payload inspection, per payload byte (Snort). *)

val snort_flow_setup : int
(** Snort per-flow rule-group assignment on the initial packet. *)

val snort_preprocess : int
(** Snort's per-packet front end (decode, stream bookkeeping, dispatch)
    that runs before the flow's rule-match function.  On the SpeedyBox
    fast path only the recorded rule-match handler runs, so this is
    exactly the per-NF redundancy consolidation removes. *)
