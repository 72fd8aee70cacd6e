//! Core-scaling experiment: measured aggregate throughput of the
//! sharded datapath versus shard count, plus the contention census the
//! sweep enables.
//!
//! Two lanes:
//!
//! - **Steady flows** — the RSS-balanced steady-flow router workload at
//!   1/2/4/8/16 shards. Wall clock per burst is the slowest shard, so
//!   the table is a *measured* version of the paper's Fig. 5 scaling
//!   curve (the analytic `CoreModel` is validated against it in
//!   `tests/paper_claims.rs`).
//! - **Churn** — the same workload at 8 shards with a route replaced
//!   between bursts. Every shared-structure generation bump makes the
//!   other shards' views stale; `linuxfp_coherence_events_total` then
//!   names the most contended structure (on a routed workload: the FIB).

use crate::table::ExperimentTable;
use linuxfp_ebpf::hook::HookPoint;
use linuxfp_netstack::stack::rss;
use linuxfp_packet::Batch;
use linuxfp_platforms::scenario::NEXT_HOP;
use linuxfp_platforms::{LinuxFpPlatform, Platform, Scenario};
use linuxfp_telemetry::Registry;
use linuxfp_traffic::pktgen::sweep_rss_shards;

/// Burst size: 16 packets per NAPI poll, evenly divisible by every
/// swept shard count so bursts stay balanced.
pub const BURST: usize = 16;

/// Shard counts the sweep covers (the paper's Figs. 5/7 stop at 6
/// cores; 16 probes the model's extrapolation limit).
pub const SHARD_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// The churn lane: runs the steady workload on `shards` shards with
/// telemetry wired, replacing a route (same next hop — semantics-free)
/// between bursts, and returns `(structure, events)` sorted by events
/// descending.
fn coherence_census(scenario: Scenario, shards: u32, bursts: usize) -> Vec<(String, u64)> {
    let registry = Registry::new();
    let mut lfp = LinuxFpPlatform::with_telemetry(scenario, HookPoint::Xdp, registry.clone());
    let mac = lfp.dut_mac();
    lfp.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", i64::from(shards))
        .expect("rss_shards sysctl exists");
    // A balanced flow per shard, like the sweep uses.
    let mut flows: Vec<Vec<u8>> = Vec::new();
    let mut i = 0u64;
    while flows.len() < BURST {
        let frame = scenario.frame(mac, i, 60);
        if rss::shard_for(&frame, shards) as usize == flows.len() % shards as usize {
            flows.push(frame);
        }
        i += 1;
    }
    for _ in 0..bursts {
        let _ = lfp
            .kernel_mut()
            .ip_route_add(Scenario::route_prefix(0), Some(NEXT_HOP), None);
        lfp.poll_controller();
        let mut batch = Batch::with_capacity(BURST);
        for f in &flows {
            batch.push(f.clone());
        }
        lfp.process_batch(&mut batch);
    }
    let mut census: Vec<(String, u64)> = registry
        .counter_series("linuxfp_coherence_events_total")
        .into_iter()
        .map(|(labels, v)| {
            let structure = labels
                .into_iter()
                .find(|(k, _)| k == "structure")
                .map(|(_, v)| v)
                .unwrap_or_default();
            (structure, v)
        })
        .collect();
    census.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    census
}

/// The `core_scaling` experiment: measured shard-scaling sweep plus the
/// churn-lane contention census.
pub fn core_scaling_experiment() -> ExperimentTable {
    let scenario = Scenario::router();
    let points = sweep_rss_shards(scenario, &SHARD_COUNTS, BURST);
    let mut table = ExperimentTable::new(
        "Core scaling",
        "Measured sharded-datapath scaling: steady-flow router, burst 16",
        &["shards", "pps", "speedup", "wall [ns/pkt]", "cpu [ns/pkt]"],
    );
    let base = points[0].pps;
    for p in &points {
        table.row(vec![
            p.shards.to_string(),
            ExperimentTable::num(p.pps, 0),
            ExperimentTable::num(p.pps / base, 2),
            ExperimentTable::num(p.wall_ns_per_pkt, 1),
            ExperimentTable::num(p.cpu_ns_per_pkt, 1),
        ]);
    }
    let census = coherence_census(scenario, 8, 16);
    match census.first() {
        Some((structure, events)) => {
            let rest: Vec<String> = census
                .iter()
                .skip(1)
                .map(|(s, v)| format!("{s}={v}"))
                .collect();
            table.note(format!(
                "churn lane (8 shards, route replace between bursts): most contended \
                 structure is `{structure}` ({events} coherence misses{})",
                if rest.is_empty() {
                    String::new()
                } else {
                    format!("; then {}", rest.join(", "))
                }
            ));
        }
        None => {
            table.note("churn lane recorded no coherence events");
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_shards_scale_at_least_five_fold() {
        let t = core_scaling_experiment();
        let speedup = t.value("8", 2);
        assert!(speedup >= 5.0, "8-shard speedup {speedup}: {t}");
        // Wall time falls monotonically; CPU time per packet rises
        // (replicated per-queue fixed costs).
        for shards in ["2", "4", "8", "16"] {
            assert!(t.value(shards, 3) < t.value("1", 3), "{t}");
            assert!(t.value(shards, 4) > t.value("1", 4), "{t}");
        }
    }

    #[test]
    fn churn_census_names_the_fib() {
        let census = coherence_census(Scenario::router(), 8, 16);
        assert!(!census.is_empty(), "no coherence events under churn");
        assert_eq!(
            census[0].0, "fib",
            "routed churn must contend on the FIB: {census:?}"
        );
        assert!(census[0].1 > 0);
    }
}
