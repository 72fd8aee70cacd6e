//! Multi-core throughput scaling.
//!
//! The paper's Figures 5 and 7 sweep the number of cores with RSS spreading
//! flows across hardware queues. Scaling is close to linear with a small
//! contention penalty from shared kernel state (route caches, conntrack
//! buckets, device counters). [`CoreModel`] converts a per-packet service
//! time into packets-per-second for `n` cores, capped at the line rate.
//!
//! **Validation.** The model is analytic, but it is no longer
//! unfalsifiable: the sharded datapath (`net.linuxfp.rss_shards`)
//! measures the same quantity directly — each RSS shard accumulates its
//! own virtual time and the wall clock of a burst is its slowest shard
//! (`BatchOutcome::wall_ns`). `sweep_rss_shards` in `linuxfp-traffic`
//! runs the steady-flow router workload at 1/2/4/8/16 shards, and the
//! `core_model_validates_against_measured_shard_sweep` paper-claims test
//! asserts this curve stays within 15% of the measurement over 1..=8
//! cores (the range the paper's figures cover). At 16 shards the
//! measurement scales *better* than the analytic curve — per-queue fixed
//! costs amortize away faster than the `(1 - contention)^(n-1)` term
//! predicts — so treat extrapolations past 8 cores as lower bounds.

use crate::cost::CostModel;
use crate::rate::line_rate_pps;

/// Converts per-packet service times into multi-core throughput.
///
/// # Example
///
/// ```
/// use linuxfp_sim::{CoreModel, CostModel};
///
/// let cost = CostModel::calibrated();
/// let cores = CoreModel::new(&cost);
/// let one = cores.throughput_pps(1000.0, 1);
/// let four = cores.throughput_pps(1000.0, 4);
/// assert!(four > 3.5 * one && four < 4.0 * one); // sublinear but close
/// ```
#[derive(Debug, Clone)]
pub struct CoreModel {
    contention: f64,
    line_rate_gbps: f64,
}

impl CoreModel {
    /// Builds a core model from the cost model's contention and line-rate
    /// parameters.
    pub fn new(cost: &CostModel) -> Self {
        CoreModel {
            contention: cost.core_contention,
            line_rate_gbps: cost.line_rate_gbps,
        }
    }

    /// Packets per second sustained by `cores` cores when one packet costs
    /// `service_ns` nanoseconds, ignoring the line rate.
    ///
    /// # Panics
    ///
    /// Panics if `service_ns` is not positive or `cores` is zero.
    pub fn throughput_pps(&self, service_ns: f64, cores: u32) -> f64 {
        assert!(service_ns > 0.0, "service_ns must be positive");
        assert!(cores > 0, "cores must be positive");
        let per_core = 1e9 / service_ns;
        let eff = (1.0 - self.contention).powi(cores as i32 - 1);
        per_core * cores as f64 * eff
    }

    /// Packets per second capped at the NIC line rate for the given frame
    /// length (including FCS).
    pub fn throughput_pps_capped(&self, service_ns: f64, cores: u32, frame_len: u32) -> f64 {
        let cpu = self.throughput_pps(service_ns, cores);
        let wire = line_rate_pps(self.line_rate_gbps, frame_len);
        cpu.min(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CoreModel {
        CoreModel::new(&CostModel::calibrated())
    }

    #[test]
    fn single_core_is_inverse_service_time() {
        let m = model();
        assert!((m.throughput_pps(500.0, 1) - 2.0e6).abs() < 1.0);
    }

    #[test]
    fn scaling_is_sublinear_but_monotonic() {
        let m = model();
        let mut prev = 0.0;
        for cores in 1..=6 {
            let pps = m.throughput_pps(1000.0, cores);
            assert!(pps > prev, "not monotonic at {cores} cores");
            assert!(pps <= cores as f64 * 1e6 + 1.0, "superlinear at {cores}");
            prev = pps;
        }
    }

    #[test]
    fn line_rate_caps_large_packets() {
        let m = model();
        // 565 ns/packet at 1518-byte frames: one core delivers ~21.5 of the
        // 25 Gbps wire ("near line rate" in paper Fig. 6) and two cores are
        // fully line-rate limited.
        let one = m.throughput_pps_capped(565.0, 1, 1518);
        let gbps = crate::rate::gbps_from_pps(one, 1518);
        assert!(gbps > 20.0, "gbps {gbps}");
        let capped = m.throughput_pps_capped(565.0, 2, 1518);
        let wire = line_rate_pps(25.0, 1518);
        assert!((capped - wire).abs() < 1.0);
        // Minimum-size packets remain CPU limited on one core.
        assert_eq!(
            m.throughput_pps_capped(565.0, 1, 64),
            m.throughput_pps(565.0, 1)
        );
    }

    #[test]
    #[should_panic(expected = "cores must be positive")]
    fn zero_cores_panics() {
        model().throughput_pps(100.0, 0);
    }

    #[test]
    #[should_panic(expected = "service_ns must be positive")]
    fn zero_service_panics() {
        model().throughput_pps(0.0, 1);
    }
}
