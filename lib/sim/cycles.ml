(* Calibration notes: one IPFilter traversal for an established flow on BESS
   should cost about 530 cycles (Table III of the paper); the SpeedyBox fast
   path should cost about 590-710 cycles regardless of chain length (Fig. 4:
   a one-NF chain is slightly slower with SpeedyBox, a three-NF chain 57.7%
   faster; Table III's early-drop chain saves 65%). *)

let frequency_ghz = 2.0

let cycles_per_us = frequency_ghz *. 1000.

let to_microseconds cycles = float_of_int cycles /. cycles_per_us

let rate_mpps service_cycles =
  if service_cycles <= 0 then infinity else frequency_ghz *. 1000. /. float_of_int service_cycles

let parse = 110

let classify = 90

let nf_rx_tx = 70

let module_hop_bess = 50

let ring_hop_onvm = 100

let ha_forward = 40

let ha_drop = 40

let ha_modify_field = 90

let ha_encap = 260

let ha_decap = 220

let classifier = 150

let meta_detach = 80

let local_mat_record = 60

let global_consolidate_per_nf = 80

let fast_path_lookup = 200

let fast_path_per_action = 55

let event_check = 45

let event_fire = 420

let sf_invoke = 55

let fault_contain = 180

(* Fork/join is amortised over DPDK-style 32-packet batches, so the
   per-packet charge is small; the overlap percentage models imperfect
   concurrency between the helper cores (cache contention, skew). *)
let parallel_sync = 60

let parallel_overlap_pct = 15

let acl_rule_scan = 16

let acl_trie_walk = 64

let acl_established = 200

let nat_translate = 150

let nat_allocate = 380

let lb_consistent_hash = 130

let monitor_count = 280

let payload_scan_per_byte = 4

let snort_flow_setup = 900

let snort_preprocess = 550
