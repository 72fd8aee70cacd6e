//! `linuxfp_trace` — explain any packet in a difftest corpus fixture.
//!
//! Replays a fixture on the accelerated kernel with the flight recorder
//! sampling 1-in-N (default every packet) and prints each recorded span:
//! which regime decided the packet (flow-cache hit, fast path, punt,
//! slow path), the chronological typed events (VM runs, netfilter
//! chains, NAT rewrites, drops with taxonomy reasons), and the
//! per-stage virtual-time attribution whose sum equals the total
//! service time charged. A cost-breakdown table over all sampled spans
//! and a tally of flow-cache outcomes (hit, first sighting, recorded
//! second sighting, other misses) close the report.
//!
//! ```text
//! linuxfp_trace [--json] [--every N] [--seq I] [--shards N] FIXTURE.json
//!   --json      machine-readable output (spans + breakdown)
//!   --every N   sample 1-in-N packets (default 1: trace everything)
//!   --seq I     print only the span with sequence number I
//!   --shards N  replay on an N-shard datapath (default: the fixture's
//!               recorded mode); spans then carry the owning shard and a
//!               `coherence` stage showing cross-core penalties in the
//!               breakdown
//! ```
//!
//! Exit status is 2 on usage or parse errors, 1 if no packet was
//! sampled, 0 otherwise.

use linuxfp_difftest::{trace_scenario, DiffScenario};
use linuxfp_json::{json, Value};
use linuxfp_telemetry::trace::{CostBreakdown, TraceEvent, TraceSpan};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_mode = args.iter().any(|a| a == "--json");
    let every = flag_value(&args, "--every")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1);
    let seq = flag_value(&args, "--seq").and_then(|v| v.parse::<u64>().ok());
    let shards = flag_value(&args, "--shards").and_then(|v| v.parse::<u32>().ok());
    let Some(path) = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .find(|a| !is_flag_value(&args, a))
    else {
        eprintln!("usage: linuxfp_trace [--json] [--every N] [--seq I] [--shards N] FIXTURE.json");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("linuxfp_trace: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut scenario = match DiffScenario::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("linuxfp_trace: cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(shards) = shards {
        scenario.shards = shards;
    }

    let mut spans = trace_scenario(&scenario, every);
    if let Some(want) = seq {
        spans.retain(|s| s.seq == want);
    }
    if spans.is_empty() {
        eprintln!("linuxfp_trace: no packet sampled (fixture without bursts, or --seq miss)");
        return ExitCode::FAILURE;
    }
    let breakdown = CostBreakdown::from_spans(&spans);
    let outcomes = flow_cache_outcomes(&spans);

    if json_mode {
        let span_values: Vec<Value> = spans.iter().map(|s| s.to_json()).collect();
        let mut doc = linuxfp_json::Map::new();
        doc.insert("fixture".to_string(), Value::from(scenario.name.as_str()));
        doc.insert("every".to_string(), Value::from(every));
        doc.insert("spans".to_string(), json!(span_values));
        doc.insert("breakdown".to_string(), breakdown.to_json());
        let tally: linuxfp_json::Map = outcomes
            .iter()
            .map(|(outcome, n)| (outcome.to_string(), Value::from(*n)))
            .collect();
        doc.insert("flowcache".to_string(), Value::Object(tally));
        println!("{}", linuxfp_json::to_string_pretty(&Value::Object(doc)));
    } else {
        println!(
            "fixture {} — {} span(s) at 1-in-{every} sampling\n",
            scenario.name,
            spans.len()
        );
        for span in &spans {
            println!("{}", span.render_text());
        }
        println!("{}", breakdown.render_text());
        let tally: Vec<String> = outcomes.iter().map(|(o, n)| format!("{o}={n}")).collect();
        println!("flow cache outcomes: {}", tally.join(" "));
    }
    ExitCode::SUCCESS
}

/// How many sampled packets met each flow-cache outcome — hits, first
/// sightings (`miss (cold)`), recorded second sightings (`miss
/// (recording)`) and the other miss causes.
fn flow_cache_outcomes(spans: &[TraceSpan]) -> BTreeMap<&'static str, u64> {
    let mut tally = BTreeMap::new();
    for event in spans.iter().flat_map(|s| &s.events) {
        if let TraceEvent::FlowCache { outcome } = event {
            *tally.entry(outcome.as_str()).or_insert(0) += 1;
        }
    }
    tally
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).map(String::as_str)
}

/// Whether `arg` is the value operand of `--every`, `--seq`, or
/// `--shards` (so the positional-fixture scan skips it).
fn is_flag_value(args: &[String], arg: &str) -> bool {
    args.iter()
        .position(|a| a == arg)
        .is_some_and(|i| i > 0 && matches!(args[i - 1].as_str(), "--every" | "--seq" | "--shards"))
}
