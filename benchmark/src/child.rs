//! One repetition of one workload, in a process of its own.
//!
//! The parent starts one child per workload and repetition, one after
//! another, so that every repetition sees a fresh heap, `VmHWM` is the
//! workload's own, and nothing leaks from one workload into the next.
//! The child prints its measurements as one JSON line on stdout.

use crate::alloc::allocations;
use crate::stats::{percentile, WindowSampler, WindowSummary};
use crate::trace::{SpanName, Spans};
use crate::workloads::{oracle, Instance, WorkloadId};
use linuxfp_json::{json, Value};
use std::time::{Duration, Instant};

/// Set-up is repeated at least this many times per child; the child
/// reports the lower quartile, and the parent the lowest of its children.
const MIN_SETUPS: usize = 5;
/// Cheap set-ups are repeated more, until this much time went into
/// them or [`MAX_SETUPS`] ran: a few milliseconds measured five times
/// is too noisy for a 15 % bound.
const SETUP_BUDGET: Duration = Duration::from_millis(600);
const MAX_SETUPS: usize = 25;

/// Runs the fixed warm-up as ordinary groups.
pub fn warm_up(id: WorkloadId, instance: &mut Instance) {
    let mut spans = Spans::off();
    for _ in 0..id.warmup_groups() {
        let out = instance.group(id, &mut spans);
        assert_eq!(out.failed, 0, "{}: warm-up op failed its check", id.name());
    }
}

/// Builds the workload and warms it up; the interval `setup_s` reports.
/// Program compilation at load is part of `Controller::attach` and so
/// counted; building the benchmark binary is not.
fn timed_set_up(id: WorkloadId, seed: u64) -> (Instance, Duration) {
    let start = Instant::now();
    let mut instance = Instance::set_up(id, seed, None);
    warm_up(id, &mut instance);
    (instance, start.elapsed())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one window of groups measured.
#[derive(Debug)]
pub struct Window {
    pub summary: WindowSummary,
    /// Modelled ns charged over the first `min_groups` groups.
    pub virt_ns: f64,
    pub failed: u64,
    pub drops: u64,
    pub allocs: u64,
}

/// Runs groups for `window` of host time and at least `min_groups`
/// groups, one host-time sample per group. With a live recorder every
/// group is a span whose children the workload records; with
/// `Spans::off()` the recorder costs one predictable branch per call.
pub fn measure_window(
    id: WorkloadId,
    instance: &mut Instance,
    window: Duration,
    min_groups: usize,
    spans: &mut Spans,
) -> Window {
    let mut sampler = WindowSampler::new(window, min_groups, id.ops_per_group());
    let (mut virt_ns, mut failed, mut drops) = (0.0f64, 0u64, 0u64);
    let allocs_before = allocations();
    while sampler.open() {
        spans.set_group(sampler.groups() as u64);
        let start = Instant::now();
        let span = spans.open(SpanName::Group);
        let out = instance.group(id, spans);
        spans.close(span);
        sampler.record(start.elapsed());
        if sampler.groups() <= min_groups {
            virt_ns += out.virt_ns;
        }
        failed += out.failed;
        drops += out.drops;
    }
    Window {
        allocs: allocations() - allocs_before,
        summary: sampler.finish(),
        virt_ns,
        failed,
        drops,
    }
}

/// The oracle pass, in a child of its own so that the timed
/// repetitions all start from the same heap and `VmHWM` is theirs alone.
pub fn run_oracle(id: WorkloadId, seed: u64) -> Value {
    let report = oracle(id, seed);
    json!({
        "mode": "oracle",
        "workload": id.name(),
        "seed": seed,
        "attempted": report.attempted,
        "failed": report.failed,
        "ledger_ok": report.ledger_ok,
        "first_mismatch": report.first_mismatch,
    })
}

/// The untraced repetition: repeated set-up, then one timed window.
/// Telemetry and the flight recorder are off throughout.
pub fn run_timed(id: WorkloadId, seed: u64, window: Duration) -> Value {
    let mut setups: Vec<f64> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut instance = loop {
        let (instance, took) = timed_set_up(id, seed);
        setups.push(took.as_secs_f64());
        spent += took;
        if setups.len() >= MIN_SETUPS && (spent >= SETUP_BUDGET || setups.len() >= MAX_SETUPS) {
            break instance;
        }
    };

    // The lower quartile, for the reason the host-time quantiles take
    // the quietest block: interference only adds time. On 30 recorded
    // children per workload the median of a child's set-ups spread
    // 3.4–4.8 % between runs, the lower quartile 1.3–3.0 %.
    setups.sort_by(f64::total_cmp);
    let w = measure_window(
        id,
        &mut instance,
        window,
        id.virt_groups(),
        &mut Spans::off(),
    );
    let virt_ops = id.virt_groups() as u64 * id.ops_per_group();
    let unchanged = match &instance {
        Instance::Storm(s) => s.unchanged,
        _ => 0,
    };
    drop(instance);

    json!({
        "mode": "timed",
        "workload": id.name(),
        "seed": seed,
        "window_s": window.as_secs_f64(),
        "host_ns_per_op_p50": w.summary.p50,
        "host_ns_per_op_p90": w.summary.p90,
        "whole_window_p50": w.summary.whole_p50,
        "whole_window_p90": w.summary.whole_p90,
        "whole_window_p99": w.summary.whole_p99,
        "ops_per_s": w.summary.ops_per_s,
        "samples": w.summary.samples,
        "blocks": w.summary.blocks,
        "block_samples_beyond_p90": w.summary.block_samples_beyond_p90,
        "ops": w.summary.ops,
        "virt_ns_per_op": w.virt_ns / virt_ops as f64,
        "allocs_per_op": w.allocs as f64 / w.summary.ops as f64,
        "window_failed": w.failed,
        "unchanged_reactions": unchanged,
        "setup_s": percentile(&setups, 0.25),
        "setups": setups.len(),
        "peak_rss_mb": peak_rss_mb(),
    })
}
