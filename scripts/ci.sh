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
cargo test --workspace -q

echo "==> benchmark crate: unit tests, then a release build and quick run (oracle byte-equality + ledger on all seven workloads)"
# No timing gate: --quick numbers are marked not comparable. The run
# fails on any oracle mismatch or ledger violation.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- run --quick \
  | grep -E "correct (true|false)|^wrote "

echo "==> flow-cache misses allocate like hits: allocs_per_op <= 2.15625 on gateway_miss and router_thrash"
# A flow is recorded on its second sighting; on these two workloads no flow
# is sighted twice before a flush or an eviction, so a miss must allocate
# no more than a hit does. The count is exact, so --quick reproduces it.
for workload in gateway_miss router_thrash; do
  cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
      run --workload "$workload" --quick \
    | tail -n 1 \
    | python3 -c '
import json, sys
workload = sys.argv[1]
doc = json.load(sys.stdin)
assert doc["correct"] and doc["failed"] == 0, f"{workload}: oracle or ledger failed"
allocs = doc["metrics"]["allocs_per_op"]["value"]
assert allocs <= 2.15625, f"FAIL: {workload} allocs_per_op {allocs} > 2.15625"
print(f"ok: {workload} allocs_per_op {allocs}")
' "$workload"
done

echo "==> verifying and optimizing allocate nothing per instruction: allocs_per_op <= 281 on reaction_storm"
# Whole command cycles (six reactions) read 280.67 allocations per
# reaction; a window that stops mid-cycle reads a little below, so the
# gate is the ceiling. A verifier that allocates per instruction, run
# three times per swapped program, read 1,790.
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload reaction_storm --quick \
  | tail -n 1 \
  | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["correct"] and doc["failed"] == 0, "reaction_storm: oracle or ledger failed"
allocs = doc["metrics"]["allocs_per_op"]["value"]
assert allocs <= 281, f"FAIL: reaction_storm allocs_per_op {allocs} > 281"
print(f"ok: reaction_storm allocs_per_op {allocs}")
'

echo "==> bench smoke: batching must not regress (burst 32 <= burst 1)"
cargo run -q -p linuxfp-bench --bin repro --release -- batch_sweep \
  | awk '
    / LinuxFP / && NF >= 5 {
      b1 = $2; b32 = $4
      if (b32 + 0 > b1 + 0) {
        printf "FAIL: LinuxFP burst-32 %s ns/pkt > burst-1 %s ns/pkt\n", b32, b1
        exit 1
      }
      printf "ok: LinuxFP %s ns/pkt at burst 1 -> %s at burst 32\n", b1, b32
      found = 1
    }
    END { if (!found) { print "FAIL: LinuxFP row not found in batch_sweep"; exit 1 } }
  '

echo "==> bench smoke: flow cache (steady >=20% under 487 ns/pkt; churn-heavy never slower)"
cargo run -q -p linuxfp-bench --bin repro --release -- flow_cache \
  | awk '
    /steady single flow/ { on = $(NF-1) }
    /churn-heavy/        { coff = $(NF-2); con = $(NF-1) }
    END {
      if (on == "" || coff == "") { print "FAIL: flow_cache rows not found"; exit 1 }
      if (on + 0 > 487 * 0.8) {
        printf "FAIL: steady cache-on %s ns/pkt is not 20%% under the 487 ns/pkt baseline\n", on
        exit 1
      }
      if (con + 0 > coff + 0) {
        printf "FAIL: churn-heavy cache-on %s ns/pkt > cache-off %s ns/pkt\n", con, coff
        exit 1
      }
      printf "ok: steady %s ns/pkt with the cache on; churn-heavy %s vs %s off\n", on, con, coff
    }
  '

echo "==> bench smoke: l7 gateway (offloaded allows beat the stock stack; punts cost more, never break)"
cargo run -q -p linuxfp-bench --bin repro --release -- l7_gateway \
  | awk '
    /allow \(offloaded\)/        { off = $NF }
    /allow \(linux slow path\)/  { lin = $NF }
    /unparseable \(punted\)/     { punt = $NF }
    END {
      if (off == "" || lin == "" || punt == "") { print "FAIL: l7_gateway rows not found"; exit 1 }
      if (off + 0 >= lin + 0) {
        printf "FAIL: offloaded allow %s ns/request is not faster than the stock stack %s\n", off, lin
        exit 1
      }
      if (punt + 0 < lin + 0) {
        printf "FAIL: punted %s ns/request beats the stock stack %s — punt accounting broke\n", punt, lin
        exit 1
      }
      printf "ok: allow %s ns/request offloaded vs %s stock; punt tax %s\n", off, lin, punt
    }
  '

echo "==> bench smoke: core scaling (8-shard aggregate pps >= 5x 1-shard on the steady-flow router)"
cargo run -q -p linuxfp-bench --bin repro --release -- core_scaling \
  | awk '
    $1 == "1" && NF >= 5 { base = $2 }
    $1 == "8" && NF >= 5 { eight = $2 }
    END {
      if (base == "" || eight == "") { print "FAIL: core_scaling rows not found"; exit 1 }
      if (eight + 0 < 5 * (base + 0)) {
        printf "FAIL: 8-shard %s pps is under 5x the 1-shard %s pps\n", eight, base
        exit 1
      }
      printf "ok: %s pps at 8 shards vs %s at 1 (%.2fx)\n", eight, base, (eight + 0) / (base + 0)
    }
  '

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

echo "==> parity fuzz smoke: compiled engine vs the reference interpreter (outcome, frame and cost)"
cargo test -q -p linuxfp-ebpf --release --test alu_parity --test jit_parity \
  | tail -n 2

echo "==> parity fuzz smoke: naive vs optimized bytecode"
cargo test -q -p linuxfp-ebpf --release --test opt_parity \
  | tail -n 2

echo "==> optimizer shrink: plain router loses >=25% of its instructions"
cargo run -q --release --example linuxfp_opt_dump \
  | awk '
    $2 == "router" {
      before = $3; after = $5
      if (after + 0 > 0.75 * (before + 0)) {
        printf "FAIL: router only shrank %s -> %s insns (needs >=25%%)\n", before, after
        exit 1
      }
      printf "ok: router %s -> %s insns\n", before, after
      found = 1
    }
    $2 != "router" && $1 == "opt_dump:" {
      if ($5 + 0 > $3 + 0) {
        printf "FAIL: %s grew %s -> %s insns\n", $2, $3, $5
        exit 1
      }
    }
    END { if (!found) { print "FAIL: router row not found in opt_dump"; exit 1 } }
  '

echo "==> bench smoke: optimizer dispatch (optimized churn-heavy >=5% under naive, beats 517 ns/pkt baseline)"
cargo run -q -p linuxfp-bench --bin repro --release -- opt_dispatch \
  | awk '
    /churn-heavy/ { naive = $(NF-2); optimized = $(NF-1) }
    END {
      if (naive == "" || optimized == "") { print "FAIL: opt_dispatch churn-heavy row not found"; exit 1 }
      if (optimized + 0 > 0.95 * (naive + 0)) {
        printf "FAIL: optimized churn-heavy %s ns/pkt is not 5%% under naive %s\n", optimized, naive
        exit 1
      }
      if (optimized + 0 > 0.95 * 517) {
        printf "FAIL: optimized churn-heavy %s ns/pkt does not beat the 517 ns/pkt pre-optimizer baseline by 5%%\n", optimized
        exit 1
      }
      printf "ok: churn-heavy %s ns/pkt optimized vs %s naive\n", optimized, naive
    }
  '

echo "ci: all green"
