#!/usr/bin/env bash
# The full local gate, in the order fastest-failure-first. Offline-safe:
# no network access, no tool installation — everything here ships with a
# stock Rust toolchain.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo build --release --examples --benches"
cargo build --workspace --release --examples --benches

echo "==> cargo test"
# Includes the thresholds of the `repro` experiments (the linuxfp-bench
# unit tests and crates/core/tests/opt_shrink.rs).
cargo test --workspace -q

echo "==> benchmark crate: unit tests, then a release build and quick run (oracle byte-equality + ledger on all seven workloads)"
# No timing gate: --quick numbers are marked not comparable. The run
# fails on any oracle mismatch or ledger violation.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- run --quick \
  | grep -E "correct (true|false)|^wrote "

# Runs one benchmark workload in --quick mode and fails unless its oracle
# agrees and allocs_per_op (an exact count, so --quick reproduces it) is
# at most the bound.
gate_allocs() {
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
      run --workload "$1" --quick \
    | tail -n 1 \
    | python3 -c '
import json, sys
workload, bound = sys.argv[1], sys.argv[2]
doc = json.load(sys.stdin)
assert doc["correct"] and doc["failed"] == 0, f"{workload}: oracle or ledger failed"
allocs = doc["metrics"]["allocs_per_op"]["value"]
assert allocs <= float(bound), f"FAIL: {workload} allocs_per_op {allocs} > {bound}"
print(f"ok: {workload} allocs_per_op {allocs}")
' "$1" "$2"
}

echo "==> a burst allocates only its outcome vector: allocs_per_op <= 1/32 on gateway_miss, router_thrash and router_steady"
# One allocation per 32-frame burst: the returned outcome vector. A hit,
# a first-sighting miss and the burst's own bookkeeping (amortizers, cost
# trackers, effects) allocate nothing; on gateway_miss and router_thrash no
# flow is sighted twice before a flush or an eviction, so every frame is a
# first-sighting miss.
gate_allocs gateway_miss 0.03125
gate_allocs router_thrash 0.03125
gate_allocs router_steady 0.03125

echo "==> a sharded burst allocates what an unsharded one does: allocs_per_op <= 1/32 on router_sharded"
gate_allocs router_sharded 0.03125

echo "==> a warm pod-to-pod send allocates six times: the pod's frame, a veth re-queue deque per node, the VXLAN outer and decapsulated inner frames, and the wire vector"
# The learned VTEP and the frames put on the wire are moved, not copied.
gate_allocs pod_to_pod 6

echo "==> verifying and optimizing allocate nothing per instruction: allocs_per_op <= 213 on reaction_storm"
# Whole command cycles (six reactions) read 212.67 allocations per
# reaction; a window that stops mid-cycle reads a little below, so the
# gate is the ceiling. A verifier that allocates per instruction, run
# three times per swapped program, read 1,790.
gate_allocs reaction_storm 213

echo "==> telemetry budget: sampled tracing at 1-in-64 costs router_steady at most 5% (benchmark quiet-block p50)"
# telemetry.trace64_overhead_pct compares two fresh windows of the same
# workload, recorder off and on. An overhead really above the budget reads
# above it every time; a noisy neighbour on a shared box does not, so the
# gate passes on the first of three readings inside the budget.
trace64_ok=0
for attempt in 1 2 3; do
  pct=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
      run --workload router_steady --trace 1 \
    | tail -n 1 \
    | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["correct"] and doc["failed"] == 0, "router_steady traced pass: oracle or ledger failed"
print(doc["metrics"]["telemetry.trace64_overhead_pct"]["value"])
')
  if awk -v pct="$pct" 'BEGIN { exit !(pct + 0 <= 5) }'; then
    echo "ok: telemetry.trace64_overhead_pct $pct (attempt $attempt)"
    trace64_ok=1
    break
  fi
  echo "attempt $attempt: telemetry.trace64_overhead_pct $pct > 5"
done
if [ "$trace64_ok" -ne 1 ]; then
  echo "FAIL: trace 1-in-64 overhead above the 5% budget on three readings"
  exit 1
fi

echo "==> linuxfp_trace --json parses and records spans on a corpus fixture"
cargo run -q --release --example linuxfp_trace -- --json \
  tests/difftest_corpus/bad-ipv4-checksum.json \
  | python3 -c '
import json, sys
doc = json.load(sys.stdin)
spans = doc["spans"]
assert spans, "no spans recorded"
for s in spans:
    assert s["total_ns"] > 0 and s["stages"], f"empty span: {s}"
pkts = doc["breakdown"]["packets"]
assert pkts > 0, "empty breakdown"
print(f"ok: {len(spans)} span(s), breakdown over {pkts} packet(s)")
'

echo "==> difftest: corpus replay (each fixture in its recorded mode) + 400-seed sweep over drawn modes"
# Each seed draws its datapath mode: 1 or 4 RSS shards x optimizer on or off.
cargo run -q -p linuxfp-difftest --bin difftest --release -- \
  replay tests/difftest_corpus/*.json
cargo run -q -p linuxfp-difftest --bin difftest --release -- \
  run --seeds 400

echo "==> difftest: corpus replay stays transparent on a 4-shard datapath and with the optimizer off"
cargo run -q -p linuxfp-difftest --bin difftest --release -- \
  replay --shards 4 tests/difftest_corpus/*.json
cargo run -q -p linuxfp-difftest --bin difftest --release -- \
  replay --opt 0 tests/difftest_corpus/*.json

echo "==> parity fuzz smoke: compiled engine vs the reference interpreter (outcome, frame and cost); naive vs optimized bytecode"
cargo test -q -p linuxfp-ebpf --release --test alu_parity --test jit_parity --test opt_parity \
  | grep "test result"

echo "ci: all green"
