#!/bin/sh
# Guard the hot-path microbench contracts.
#
# For each guarded bench, compares the "current" measurement against its
# frozen "baseline" entry in BENCH_fastpath.json and fails when current
# exceeds baseline by more than TOLERANCE (default 5%):
#
#   - obs-unarmed fast path: the zero-cost-when-disabled observability
#     contract (a disarmed sink must stay one branch per packet);
#   - fast-path packet (NAT+Monitor): the per-packet fast path must not
#     regress;
#   - burst-32 fast path / burst lru-churn: the burst path (per-packet
#     figures) must not regress.
#
# Additionally checks the burst speedup contract: the burst-32 fast path
# must be at least 25% faster per packet than the per-packet fast path
# measured in the same run (ratio of the two "current" entries must stay
# <= BURST_SPEEDUP, default 0.75).
#
# Shard executor contracts (same-run ratios, so machine speed cancels):
#
#   - the deterministic sharded executor at 1 shard must stay within
#     SHARD_OVERHEAD (default 1.10) of the unsharded run_trace over the
#     same trace — the framework may not tax an unsharded deployment;
#   - the Domain-parallel executor at 4 shards must be at least
#     SHARD_SPEEDUP (default 1.5) times faster than the deterministic
#     executor over the same 4-shard plan — enforced only when the run
#     recorded >= 4 available cores ("speedybox/shard/available-cores");
#     on smaller machines the guard is SKIPPED (counted in the summary).
#
# Scale sweep contract (same-run ratio): the per-packet cost of the
# idle-expiry stream at 1M flows must stay within SCALE_GROWTH (default
# 3.0) of the 10k-flow figure — the SoA tables and pipelined burst
# lookups hold the curve near-flat; a linear expiry sweep fails this by
# orders of magnitude.  When the 1M tier is absent but 100k is present
# (the CI tiers), the 100k/10k ratio is guarded with the same bound
# instead.  Skipped entirely when the JSON predates the scale sweep.
#
# Impairment contract (PR 7, same-run ratio): the burst fast path over a
# moderately impaired trace (reorder+dup+loss) must stay within
# IMPAIR_OVERHEAD (default 1.5) of the clean run_trace over the same
# trace shape — adversarial traffic may break up bursts and churn flows,
# but must not collapse the fast path.  Skipped when the JSON predates
# the impairment bench.
#
# Armed-parallel observability contract (PR 8, same-run ratio): the
# parallel executor with a metrics-armed sink (per-domain child
# registries, end-of-run merge + mesh-telemetry fold) must stay within
# OBS_PARALLEL_OVERHEAD (default 1.10) of the unarmed parallel run over
# the same plan — domain-local recording may not tax the parallel hot
# path.  Skipped when the JSON predates the armed-parallel bench.
#
# State-store contract (PR 10, same-run ratio): the deterministic 4-shard
# executor over a store-backed monitor chain (per-flow cells in the
# replica tuple map, global counters merged at stretch boundaries) must
# stay within STATE_OVERHEAD (default 1.10) of the same plan with
# instance-local NF state.  Skipped when the JSON predates the
# state-store bench.
#
# Run-accounting contract (same-run ratio): Runtime.Acc.consume over
# chain1's DCN outputs must cost at most 0.15 of a burst-32 fast-path
# packet measured in the same run — the accounting the simulation adds
# to every packet may not grow back toward the per-stage hash lookups
# and reservoirs it replaced, which measured 0.30-0.32 on a 2-vCPU VM
# (the per-profile tally: 0.08-0.09).  The bound is fixed in the script.
# Skipped when the JSON predates the consume bench.
#
# SCALE_ONLY=1 restricts the run to the scale-sweep contract — for JSON
# files recorded by `main.exe --json OUT scale`, which carry only the
# scale entries.
#
# Every guard resolves to OK, FAIL or SKIPPED, and the run ends with a
# one-line summary including the "guards skipped" count, so a log reader
# can tell a green run from a green-because-skipped run at a glance.
#
# Usage: scripts/check_bench.sh [BENCH_fastpath.json]
set -eu

BENCH_FILE="${1:-BENCH_fastpath.json}"
TOLERANCE="${TOLERANCE:-1.05}"
BURST_SPEEDUP="${BURST_SPEEDUP:-0.75}"
SHARD_OVERHEAD="${SHARD_OVERHEAD:-1.10}"
SHARD_SPEEDUP="${SHARD_SPEEDUP:-1.5}"
SCALE_GROWTH="${SCALE_GROWTH:-3.0}"
IMPAIR_OVERHEAD="${IMPAIR_OVERHEAD:-1.5}"
OBS_PARALLEL_OVERHEAD="${OBS_PARALLEL_OVERHEAD:-1.10}"
STATE_OVERHEAD="${STATE_OVERHEAD:-1.10}"
SCALE_ONLY="${SCALE_ONLY:-0}"

if [ ! -f "$BENCH_FILE" ]; then
  echo "check_bench: $BENCH_FILE not found" >&2
  exit 1
fi

python3 - "$BENCH_FILE" "$TOLERANCE" "$BURST_SPEEDUP" "$SHARD_OVERHEAD" "$SHARD_SPEEDUP" "$SCALE_GROWTH" "$IMPAIR_OVERHEAD" "$OBS_PARALLEL_OVERHEAD" "$STATE_OVERHEAD" "$SCALE_ONLY" <<'EOF'
import json
import sys

path, tolerance, burst_speedup = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
shard_overhead, shard_speedup = float(sys.argv[4]), float(sys.argv[5])
scale_growth = float(sys.argv[6])
impair_overhead = float(sys.argv[7])
obs_parallel_overhead = float(sys.argv[8])
state_overhead = float(sys.argv[9])
scale_only = sys.argv[10] not in ("", "0")
data = json.load(open(path))

passed = failed = skipped = 0


def ok():
    global passed
    passed += 1


def fail(why):
    global failed
    failed += 1
    print(f"check_bench: {why}", file=sys.stderr)


def skip():
    global skipped
    skipped += 1


def summary_and_exit():
    print(
        f"check_bench: summary: {passed} guards passed, {failed} failed, "
        f"{skipped} guards skipped"
    )
    sys.exit(1 if failed else 0)


GUARDED = [
    (
        "speedybox/runtime/fast-path packet obs-unarmed (NAT+Monitor, armed injector)",
        "the disabled-observability hook must stay one branch per packet",
    ),
    (
        "speedybox/runtime/fast-path packet (NAT+Monitor)",
        "the per-packet fast path regressed",
    ),
    (
        "speedybox/runtime/burst-32 fast-path (NAT+Monitor, per packet)",
        "the burst fast path regressed",
    ),
    (
        "speedybox/runtime/burst lru-churn (64 flows, 32-rule cap, per packet)",
        "the burst lru-churn path regressed",
    ),
    (
        "speedybox/runtime/impaired-fastpath burst-32 (reorder+dup+loss, per packet)",
        "the fast path over impaired traffic regressed",
    ),
]

if not scale_only:
    for name, why in GUARDED:
        try:
            baseline = data["baseline"][name]
            current = data["current"][name]
        except KeyError as missing:
            print(f"check_bench: {missing} entry for {name!r} missing in {path}", file=sys.stderr)
            sys.exit(1)
        limit = baseline * tolerance
        verdict = "OK" if current <= limit else "FAIL"
        print(
            f"check_bench: {name}\n"
            f"  baseline {baseline:.1f} ns, current {current:.1f} ns, "
            f"limit {limit:.1f} ns ({tolerance:.2f}x) -> {verdict}"
        )
        if current > limit:
            fail(f"{why} beyond tolerance")
        else:
            ok()

    # Burst speedup: compare burst-32 against the per-packet fast path from the
    # SAME run (current vs current), so machine speed cancels out.
    fast = data["current"]["speedybox/runtime/fast-path packet (NAT+Monitor)"]
    burst = data["current"]["speedybox/runtime/burst-32 fast-path (NAT+Monitor, per packet)"]
    ratio = burst / fast
    verdict = "OK" if ratio <= burst_speedup else "FAIL"
    print(
        f"check_bench: burst-32 speedup\n"
        f"  per-packet {fast:.1f} ns, burst-32 {burst:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {burst_speedup:.2f}) -> {verdict}"
    )
    if ratio > burst_speedup:
        fail(
            "burst-32 fast path is not enough faster than the per-packet fast path"
        )
    else:
        ok()

    # Shard executor contracts (PR 5), all same-run ratios.
    unsharded = data["current"]["speedybox/shard/unsharded run_trace (64 flows x 32, per packet)"]
    det1 = data["current"]["speedybox/shard/deterministic-1 (64 flows x 32, per packet)"]
    det4 = data["current"]["speedybox/shard/deterministic-4 (64 flows x 32, per packet)"]
    par4 = data["current"]["speedybox/shard/parallel-4 (64 flows x 32, per packet)"]
    cores = data["current"].get("speedybox/shard/available-cores", 1.0)

    ratio = det1 / unsharded
    verdict = "OK" if ratio <= shard_overhead else "FAIL"
    print(
        f"check_bench: sharded deterministic overhead (1 shard)\n"
        f"  unsharded {unsharded:.1f} ns, deterministic-1 {det1:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {shard_overhead:.2f}) -> {verdict}"
    )
    if ratio > shard_overhead:
        fail(
            "the deterministic sharded executor taxes an unsharded deployment "
            "beyond tolerance"
        )
    else:
        ok()

    # Steering + stretch segmentation cost across 4 shards: informational (it
    # buys the parallelism below, so it is not a regression gate).
    print(
        f"check_bench: sharded deterministic steering cost (4 shards)\n"
        f"  unsharded {unsharded:.1f} ns, deterministic-4 {det4:.1f} ns/packet, "
        f"ratio {det4 / unsharded:.2f} (informational)"
    )

    speedup = det4 / par4
    if cores >= 4:
        verdict = "OK" if speedup >= shard_speedup else "FAIL"
        print(
            f"check_bench: parallel executor speedup (4 shards, {cores:.0f} cores)\n"
            f"  deterministic-4 {det4:.1f} ns, parallel-4 {par4:.1f} ns/packet, "
            f"speedup {speedup:.2f}x (need >= {shard_speedup:.2f}x) -> {verdict}"
        )
        if speedup < shard_speedup:
            fail(
                "the Domain-parallel executor does not scale over the "
                "deterministic executor despite spare cores"
            )
        else:
            ok()
    else:
        label = "1 core" if cores == 1 else f"{cores:.0f} cores"
        print(
            f"check_bench: parallel executor speedup (4 shards)\n"
            f"  deterministic-4 {det4:.1f} ns, parallel-4 {par4:.1f} ns/packet, "
            f"speedup {speedup:.2f}x -> SKIPPED ({label}, needs >= 4 to be meaningful)"
        )
        skip()

# Scale sweep (PR 6, tightened PR 9): per-packet cost must stay roughly
# flat as the flow population grows — the timer wheel's O(ticks) expiry
# plus the SoA tables and pipelined burst lookups against a linear
# sweep's O(live flows) per advance.  Same-run ratios.
small = data["current"].get("speedybox/scale/10k-flows idle-expiry stream (ns per packet)")
mid = data["current"].get("speedybox/scale/100k-flows idle-expiry stream (ns per packet)")
large = data["current"].get("speedybox/scale/1M-flows idle-expiry stream (ns per packet)")
if small is None or (large is None and mid is None):
    print("check_bench: scale sweep entries absent -> SKIPPED (re-record to gate)")
    skip()
else:
    top, top_label = (large, "1M") if large is not None else (mid, "100k")
    ratio = top / small
    verdict = "OK" if ratio <= scale_growth else "FAIL"
    print(
        f"check_bench: scale sweep flatness (10k -> {top_label} flows)\n"
        f"  10k {small:.1f} ns/packet, {top_label} {top:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {scale_growth:.2f}) -> {verdict}"
    )
    if ratio > scale_growth:
        fail(
            "per-packet cost blows up with the flow population "
            "(is idle expiry scanning linearly?)"
        )
    else:
        ok()

if scale_only:
    summary_and_exit()

# Impairment overhead (PR 7): the burst fast path over an impaired trace
# vs the clean unsharded run_trace (same trace shape: 64 flows x 32
# packets of 64B TCP through a Monitor chain).  Same-run ratio.
impaired = data["current"].get(
    "speedybox/runtime/impaired-fastpath burst-32 (reorder+dup+loss, per packet)"
)
if impaired is None:
    print("check_bench: impaired-fastpath entry absent -> SKIPPED (re-record to gate)")
    skip()
else:
    ratio = impaired / unsharded
    verdict = "OK" if ratio <= impair_overhead else "FAIL"
    print(
        f"check_bench: impaired-traffic overhead (reorder+dup+loss)\n"
        f"  clean {unsharded:.1f} ns, impaired {impaired:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {impair_overhead:.2f}) -> {verdict}"
    )
    if ratio > impair_overhead:
        fail("adversarial traffic collapses the burst fast path")
    else:
        ok()

# Armed-parallel observability overhead (PR 8): the parallel executor with
# per-domain metrics registries vs the same plan unarmed.  Same-run ratio.
armed_par4 = data["current"].get(
    "speedybox/shard/parallel-4 obs-armed (64 flows x 32, per packet)"
)
if armed_par4 is None:
    print("check_bench: armed-parallel entry absent -> SKIPPED (re-record to gate)")
    skip()
else:
    ratio = armed_par4 / par4
    verdict = "OK" if ratio <= obs_parallel_overhead else "FAIL"
    print(
        f"check_bench: armed-parallel observability overhead (4 shards)\n"
        f"  unarmed {par4:.1f} ns, armed {armed_par4:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {obs_parallel_overhead:.2f}) -> {verdict}"
    )
    if ratio > obs_parallel_overhead:
        fail("domain-local observability taxes the parallel hot path beyond tolerance")
    else:
        ok()

# State-store overhead (PR 10): the deterministic 4-shard executor over a
# chain whose monitor declares its cells on a shared 4-shard store (per-
# flow tuple-map entries, global counters merged at stretch boundaries)
# vs the same plan with instance-local NF state.  Same-run ratio.
det4_state = data["current"].get(
    "speedybox/shard/deterministic-4 state-store (64 flows x 32, per packet)"
)
if det4_state is None:
    print("check_bench: state-store entry absent -> SKIPPED (re-record to gate)")
    skip()
else:
    ratio = det4_state / det4
    verdict = "OK" if ratio <= state_overhead else "FAIL"
    print(
        f"check_bench: state-store overhead (deterministic, 4 shards)\n"
        f"  plain {det4:.1f} ns, store-backed {det4_state:.1f} ns/packet, "
        f"ratio {ratio:.2f} (need <= {state_overhead:.2f}) -> {verdict}"
    )
    if ratio > state_overhead:
        fail("the scoped state store taxes the deterministic hot path beyond tolerance")
    else:
        ok()

# Run accounting: Acc.consume per packet against the burst-32 fast-path
# packet from the same run (ratios measured: see the header).
ACC_CONSUME_RATIO = 0.15
consume = data["current"].get("speedybox/run/acc.consume (chain1 DCN outputs, per packet)")
if consume is None:
    print("check_bench: acc.consume entry absent -> SKIPPED (re-record to gate)")
    skip()
else:
    ratio = consume / burst
    verdict = "OK" if ratio <= ACC_CONSUME_RATIO else "FAIL"
    print(
        f"check_bench: run accounting (Acc.consume vs burst-32 fast path)\n"
        f"  burst-32 {burst:.1f} ns, consume {consume:.1f} ns/packet, "
        f"ratio {ratio:.3f} (need <= {ACC_CONSUME_RATIO:.3f}) -> {verdict}"
    )
    if ratio > ACC_CONSUME_RATIO:
        fail("run accounting grew back toward per-stage work on every packet")
    else:
        ok()

summary_and_exit()
EOF
