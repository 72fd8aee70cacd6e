//! The parent side: starts one child per workload and repetition, one
//! after another, and folds their reports into per-workload results.

use crate::results::{Measured, WorkloadEntry};
use crate::stats::median;
use crate::workloads::WorkloadId;
use linuxfp_json::Value;
use std::process::{Command, Stdio};

/// Repetitions (child processes) per workload in a comparable run.
pub const REPETITIONS: usize = 3;

/// The end-to-end metrics every workload reports, with units. The
/// driver-facing `BENCHMARK.json` lists all but `failed_op_share`, which
/// is 0 on every workload (the driver forbids metrics that can be 0)
/// and which the driver reads from `failed` / `attempted` instead.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_ns_per_op_p50", "ns"),
    ("host_ns_per_op_p90", "ns"),
    ("virt_ns_per_op", "virt_ns"),
    ("allocs_per_op", "count"),
    ("failed_op_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Runs this binary's `child` subcommand and parses the JSON line it
/// prints last. The child's stderr passes through. `output()` waits for
/// the child to end, so no process outlives the call.
fn spawn_child(id: WorkloadId, seed: u64, seconds: f64, mode: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", id.name(), "--mode", mode])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} child ({mode}) exited with {}",
            id.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} child ({mode}) printed nothing", id.name()))?;
    linuxfp_json::from_str(line).map_err(|e| format!("{} child output: {e}", id.name()))
}

fn field(report: &Value, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child report lacks numeric `{key}`"))
}

/// Runs the oracle pass and then `reps` untraced repetitions of `id`,
/// `window_s` each, and folds them. The three host-clock metrics (`host_ns_per_op_*`, `setup_s`)
/// take the **lowest** repetition, for the reason `WindowSummary`
/// gives: interference only adds time, and it can cover a whole
/// repetition. Everything else is the median over the repetitions.
/// Also returns the oracle's first mismatch, if any.
pub fn run_timed(
    id: WorkloadId,
    seed: u64,
    window_s: f64,
    reps: usize,
) -> Result<(WorkloadEntry, Option<String>), String> {
    let oracle = spawn_child(id, seed, window_s, "oracle")?;
    let mut reports = Vec::with_capacity(reps);
    for _ in 0..reps {
        reports.push(spawn_child(id, seed, window_s, "timed")?);
    }
    let column =
        |key: &str| -> Result<Vec<f64>, String> { reports.iter().map(|r| field(r, key)).collect() };
    let sum = |key: &str| -> Result<u64, String> { Ok(column(key)?.iter().sum::<f64>() as u64) };
    let least = |key: &str| -> Result<f64, String> {
        Ok(column(key)?.into_iter().fold(f64::INFINITY, f64::min))
    };

    let attempted = sum("ops")? + field(&oracle, "attempted")? as u64;
    let failed = sum("window_failed")? + field(&oracle, "failed")? as u64;
    let invariants_ok = oracle["ledger_ok"] == true && sum("unchanged_reactions")? == 0;
    let mut entry = WorkloadEntry {
        attempted,
        failed,
        correct: failed == 0 && invariants_ok,
        ..WorkloadEntry::default()
    };
    for (name, unit) in END_TO_END {
        let reps = match name {
            "failed_op_share" => vec![failed as f64 / attempted.max(1) as f64],
            _ => column(name)?,
        };
        let value = if name.starts_with("host_ns_per_op") || name == "setup_s" {
            reps.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            median(&reps)
        };
        entry.end_to_end.insert(
            name.to_string(),
            Measured {
                value,
                unit: unit.to_string(),
                reps,
            },
        );
    }
    // Printed, not compared: they moved more than 10 % between runs of
    // the prototype on the shared box.
    for key in [
        "whole_window_p50",
        "whole_window_p90",
        "whole_window_p99",
        "ops_per_s",
    ] {
        entry
            .diagnostics
            .insert(key.to_string(), median(&column(key)?));
    }
    for key in ["samples", "blocks", "block_samples_beyond_p90"] {
        entry
            .diagnostics
            .insert(format!("{key}_per_rep_min"), least(key)?);
    }
    let first_mismatch = oracle["first_mismatch"].as_str().map(str::to_string);
    Ok((entry, first_mismatch))
}

/// Runs the traced pass of `id` in a child and returns its report.
pub fn run_traced(id: WorkloadId, seed: u64, seconds: f64) -> Result<Value, String> {
    spawn_child(id, seed, seconds, "traced")
}
