//! Differential-transparency regression gate.
//!
//! Every fixture under `tests/difftest_corpus/` is a shrunk repro of a
//! divergence the fuzzer once found (each named after the bug it
//! demonstrates); replaying them, in the mode each recorded, pins the
//! fixes. The smoke test then runs a band of freshly generated seeds end
//! to end, each in the datapath mode its seed draws.

use linuxfp_difftest::{divergence_trace, generate, run, DiffScenario, Divergence};
use std::collections::HashSet;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/difftest_corpus")
}

/// Every corpus fixture, parsed, in file-name order.
fn corpus() -> Vec<(PathBuf, DiffScenario)> {
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    let fixtures: Vec<_> = entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable fixture");
            let scenario = DiffScenario::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, scenario)
        })
        .collect();
    assert!(
        fixtures.len() >= 3,
        "corpus unexpectedly small: {}",
        fixtures.len()
    );
    fixtures
}

#[test]
fn every_corpus_fixture_replays_transparent() {
    for (path, scenario) in corpus() {
        let outcome = run(&scenario);
        assert!(
            outcome.transparent(),
            "{} ({}) diverged: {:?}",
            path.display(),
            scenario.name,
            outcome.divergence
        );
    }
}

/// The optimizer override: every corpus fixture must also replay
/// transparently with `net.linuxfp.opt=0` on both kernels — the fixed
/// bugs stay fixed whether the programs load naive or shrunk.
#[test]
fn every_corpus_fixture_replays_transparent_without_opt() {
    for (path, scenario) in corpus() {
        let outcome = run(&DiffScenario {
            opt: false,
            ..scenario.clone()
        });
        assert!(
            outcome.transparent(),
            "{} ({}) diverged with opt off: {:?}",
            path.display(),
            scenario.name,
            outcome.divergence
        );
    }
}

#[test]
fn divergence_trace_captures_both_kernels() {
    // The corpus fixtures no longer diverge (that's the point of the
    // regression gate), so exercise the capture machinery by pointing it
    // at a burst directly: replay with sampling forced to 1-in-1 must
    // yield a full span from *each* kernel, attributing every stage.
    let text = std::fs::read_to_string(corpus_dir().join("bad-ipv4-checksum.json"))
        .expect("readable fixture");
    let scenario = DiffScenario::from_json(&text).expect("parses");
    let burst_op = scenario
        .ops
        .iter()
        .position(|op| matches!(op, linuxfp_difftest::Op::Burst { .. }))
        .expect("fixture has a burst");
    let synthetic = Divergence {
        op: burst_op,
        kind: "output",
        steady: false,
        detail: String::new(),
    };
    let trace = divergence_trace(&scenario, &synthetic).expect("burst op yields a trace");
    for side in ["linux", "linuxfp"] {
        let span = trace
            .get(side)
            .unwrap_or_else(|| panic!("{side} span present"));
        assert!(
            span.get("total_ns").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0,
            "{side} span has no cost: {span}"
        );
        let stages = span["stages"].as_array().expect("stages array");
        assert!(!stages.is_empty(), "{side} span has no stages");
    }
    // Non-output divergences have no per-packet trace to capture.
    let ledger = Divergence {
        op: scenario.ops.len(),
        kind: "ledger",
        steady: false,
        detail: String::new(),
    };
    assert!(divergence_trace(&scenario, &ledger).is_none());
}

#[test]
fn seeded_scenarios_stay_transparent() {
    // A smoke band over every datapath mode; CI sweeps a much larger
    // range via scripts/ci.sh.
    let mut packets = 0;
    let mut modes = HashSet::new();
    for seed in 0..50 {
        let scenario = generate(seed);
        modes.insert((scenario.shards, scenario.opt));
        let outcome = run(&scenario);
        assert!(
            outcome.transparent(),
            "seed {seed} (rss_shards={}, opt={}) diverged: {:?}",
            scenario.shards,
            scenario.opt,
            outcome.divergence
        );
        packets += outcome.packets;
    }
    assert!(packets > 1000, "smoke band suspiciously small: {packets}");
    assert_eq!(modes.len(), 4, "band misses a mode: {modes:?}");
}

#[test]
fn seeded_scenarios_stay_transparent_without_opt() {
    // Same smoke band with the bytecode optimizer forced off, whatever
    // each seed drew — the naive synthesized programs must stay
    // byte-identical to the slow path too; CI sweeps 200 seeds in this
    // mode via scripts/ci.sh.
    for seed in 0..25 {
        let scenario = DiffScenario {
            opt: false,
            ..generate(seed)
        };
        let outcome = run(&scenario);
        assert!(
            outcome.transparent(),
            "seed {seed} (rss_shards={}) diverged with opt off: {:?}",
            scenario.shards,
            outcome.divergence
        );
    }
}
