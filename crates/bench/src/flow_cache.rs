//! Microflow verdict cache experiment: per-packet service time on
//! steady and churn-heavy workloads with the cache on and off.
//!
//! Three workloads bound the cache's behavior. A steady single flow is
//! the best case: after two misses (the second one recorded) every
//! packet replays the cached verdict at the flat hit price. A 1k-flow
//! round-robin shows the working-set case (all flows fit the 4k-entry
//! cache, each revisit hits). The churn-heavy workload replaces a route
//! before every burst — a semantics-free netlink event that still
//! invalidates the cache — so every packet misses; the cache must cost nothing there, because the
//! recording path charges no virtual time.

use crate::table::ExperimentTable;
use linuxfp_packet::{Batch, BufferPool, MacAddr};
use linuxfp_platforms::scenario::NEXT_HOP;
use linuxfp_platforms::{LinuxFpPlatform, Platform, Scenario};

/// The NAPI burst size every measurement uses.
pub const BURST: usize = 32;
/// Warm-up bursts (enough for the 1k-flow workload to see every flow at
/// least twice — a flow is recorded on its second sighting — before
/// measurement starts).
const WARM_BURSTS: usize = 63;
/// Measured bursts.
const MEASURE_BURSTS: usize = 16;

/// Measures per-packet service time over [`MEASURE_BURSTS`] bursts of
/// [`BURST`] frames, mapping the monotone packet index to a flow via
/// `flow_of`. With `churn`, an `ip route replace` of an existing prefix
/// (same next hop — no semantic change) lands before every burst and the
/// controller redeploys, invalidating all derived fast-path state.
pub(crate) fn service_ns(
    lfp: &mut LinuxFpPlatform,
    scenario: Scenario,
    mac: MacAddr,
    flow_of: &dyn Fn(u64) -> u64,
    churn: bool,
) -> f64 {
    let pool = BufferPool::new();
    let mut i = 0u64;
    let mut run_burst = |lfp: &mut LinuxFpPlatform| -> f64 {
        if churn {
            let _ = lfp
                .kernel_mut()
                .ip_route_add(Scenario::route_prefix(0), Some(NEXT_HOP), None);
            lfp.poll_controller();
        }
        let mut batch = Batch::with_capacity(BURST);
        for _ in 0..BURST {
            let mut buf = pool.acquire();
            scenario.fill_frame(mac, flow_of(i), 60, &mut buf);
            batch.push(buf);
            i += 1;
        }
        lfp.process_batch(&mut batch).total_ns()
    };
    for _ in 0..WARM_BURSTS {
        let _ = run_burst(lfp);
    }
    let mut total = 0.0;
    for _ in 0..MEASURE_BURSTS {
        total += run_burst(lfp);
    }
    total / (MEASURE_BURSTS * BURST) as f64
}

/// The flow-cache experiment: the three workloads with the
/// `net.linuxfp.flow_cache` sysctl off and on, at burst 32 on the
/// virtual router.
pub fn flow_cache_experiment() -> ExperimentTable {
    let scenario = Scenario::router();
    let mut table = ExperimentTable::new(
        "Flow cache",
        "Microflow verdict cache: router service time at burst 32",
        &[
            "workload",
            "cache off [ns/pkt]",
            "cache on [ns/pkt]",
            "speedup",
        ],
    );
    type FlowOf = Box<dyn Fn(u64) -> u64>;
    let workloads: [(&str, FlowOf, bool); 3] = [
        ("steady single flow", Box::new(|_| 0), false),
        ("steady 1k flows", Box::new(|i| i % 1000), false),
        ("churn-heavy", Box::new(|i| i % 1000), true),
    ];
    for (name, flow_of, churn) in workloads {
        let run = |cache_on: bool| {
            let mut lfp = LinuxFpPlatform::new(scenario);
            let mac = lfp.dut_mac();
            lfp.kernel_mut()
                .sysctl_set("net.linuxfp.flow_cache", i64::from(cache_on))
                .expect("flow_cache sysctl exists");
            service_ns(&mut lfp, scenario, mac, flow_of.as_ref(), churn)
        };
        let off = run(false);
        let on = run(true);
        table.row(vec![
            name.to_string(),
            ExperimentTable::num(off, 1),
            ExperimentTable::num(on, 1),
            ExperimentTable::num(off / on, 2),
        ]);
    }
    table.note(
        "churn replaces a route before every burst; the cache never decelerates it \
         because recording charges no virtual time",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_flows_beat_the_batched_baseline_and_churn_never_loses() {
        let t = flow_cache_experiment();
        // The acceptance bar: a steady single flow at burst 32 must beat
        // the pre-cache batched baseline (487 ns/pkt) by at least 20%.
        let steady_on = t.value("steady single flow", 2);
        assert!(
            steady_on < 487.0 * 0.8,
            "steady single flow {steady_on:.1} ns/pkt not 20% under 487: {t}"
        );
        // With the cache off, both steady workloads pay interpretation.
        assert!(t.value("steady single flow", 1) > steady_on, "{t}");
        // The 1k-flow working set fits the cache, so revisits hit too.
        assert!(
            t.value("steady 1k flows", 2) < t.value("steady 1k flows", 1),
            "{t}"
        );
        // Churn-heavy: every burst invalidates, every packet misses — and
        // the miss path charges nothing, so cache-on must never be slower
        // than cache-off (the deterministic cost model makes them equal).
        assert!(
            t.value("churn-heavy", 2) <= t.value("churn-heavy", 1) + 1e-6,
            "cache decelerated the churn-heavy workload: {t}"
        );
    }
}
