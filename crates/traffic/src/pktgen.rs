//! Open-loop throughput measurement (the DPDK-Pktgen role).
//!
//! Measures a platform's steady-state per-packet service time on a
//! representative workload (after warm-up, as the paper lets Pktgen warm
//! up for 10 seconds), then converts it to sustained packets-per-second
//! for a given core count via the calibrated multi-core model, capped at
//! the NIC line rate.

use linuxfp_platforms::{Platform, Scenario};
use linuxfp_sim::rate::gbps_from_pps;
use linuxfp_sim::{CoreModel, CostModel};

/// One measured throughput point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Cores used.
    pub cores: u32,
    /// Frame length including FCS.
    pub frame_len: u32,
    /// Sustained packets per second.
    pub pps: f64,
    /// The same in Gbps of L2 payload.
    pub gbps: f64,
    /// Measured per-packet service time (ns).
    pub service_ns: f64,
}

/// Measures sustained throughput for `cores` cores at the given frame
/// length (`frame_len` includes the 4-byte FCS; the frame handed to the
/// platform is 4 bytes shorter, like real NICs strip it).
pub fn throughput_pps(
    platform: &mut dyn Platform,
    scenario: Scenario,
    dut_mac: linuxfp_packet::MacAddr,
    cores: u32,
    frame_len: u32,
) -> ThroughputPoint {
    throughput_pps_from(platform, scenario, dut_mac, cores, frame_len, &mut 0)
}

/// The sweep-aware measurement primitive: generates flows starting at
/// `*flow_base` and advances it past the flows consumed. Sweeps that
/// revisit the *same* platform must thread one counter through every
/// point, the way a real Pktgen run keeps one monotone flow sequence —
/// restarting at zero would replay flows from earlier points and measure
/// LinuxFP's microflow verdict cache instead of the datapath under test.
fn throughput_pps_from(
    platform: &mut dyn Platform,
    scenario: Scenario,
    dut_mac: linuxfp_packet::MacAddr,
    cores: u32,
    frame_len: u32,
    flow_base: &mut u64,
) -> ThroughputPoint {
    let on_wire_len = frame_len.max(64);
    let handed_len = (on_wire_len - 4) as usize;
    let base = *flow_base;
    let mut used = 0u64;
    let service_ns = platform.service_time_ns(&mut |i, buf| {
        used = used.max(i + 1);
        scenario.fill_frame(dut_mac, base + i, handed_len, buf)
    });
    *flow_base = base + used;
    let cost = CostModel::calibrated();
    let model = CoreModel::new(&cost);
    let pps = model.throughput_pps_capped(service_ns, cores, on_wire_len);
    ThroughputPoint {
        cores,
        frame_len: on_wire_len,
        pps,
        gbps: gbps_from_pps(pps, on_wire_len),
        service_ns,
    }
}

/// Sweeps core counts at minimum frame size (paper Figs. 5 and 7). One
/// monotone flow sequence spans the whole sweep (see
/// [`throughput_pps_from`]).
pub fn sweep_cores(
    platform: &mut dyn Platform,
    scenario: Scenario,
    dut_mac: linuxfp_packet::MacAddr,
    max_cores: u32,
) -> Vec<ThroughputPoint> {
    let mut flow_base = 0u64;
    (1..=max_cores)
        .map(|c| throughput_pps_from(platform, scenario, dut_mac, c, 64, &mut flow_base))
        .collect()
}

/// Sweeps frame sizes on one core (paper Fig. 6), one monotone flow
/// sequence across the sizes.
pub fn sweep_packet_sizes(
    platform: &mut dyn Platform,
    scenario: Scenario,
    dut_mac: linuxfp_packet::MacAddr,
    sizes: &[u32],
) -> Vec<ThroughputPoint> {
    let mut flow_base = 0u64;
    sizes
        .iter()
        .map(|s| throughput_pps_from(platform, scenario, dut_mac, 1, *s, &mut flow_base))
        .collect()
}

/// One measured point of the RSS shard-scaling sweep: aggregate
/// throughput when the same steady flow workload is spread over
/// `shards` receive queues, each serviced by its own core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardScalingPoint {
    /// RSS shard (receive queue / core) count.
    pub shards: u32,
    /// Aggregate sustained packets per second: packets divided by
    /// wall-clock time, where each burst's wall time is the *maximum*
    /// over its shards' virtual time (shards run in parallel).
    pub pps: f64,
    /// Wall-clock ns per packet (the parallel view).
    pub wall_ns_per_pkt: f64,
    /// Total CPU ns per packet summed over every shard (the work view;
    /// grows with shard count as per-queue fixed costs replicate).
    pub cpu_ns_per_pkt: f64,
}

/// Measures aggregate throughput of the sharded datapath for each shard
/// count in `shard_counts`, on a steady-flow minimum-size workload.
///
/// Methodology (mirroring how a multi-queue pktgen run exercises RSS):
///
/// - Each point gets a **fresh platform** (identically seeded), with
///   `net.linuxfp.rss_shards` set through the standard sysctl surface.
/// - The flow set is **RSS-balanced**: candidate 5-tuples are bucketed
///   by [`linuxfp_netstack::stack::rss::shard_for`] until every shard
///   owns `burst / shards` flows, so each burst splits evenly — the
///   open-loop generator's equivalent of a well-spread hash.
/// - Flows repeat across bursts (steady flows, warm caches), so the
///   sweep measures the sharded steady state rather than cold misses.
/// - Per-burst wall time is `BatchOutcome::wall_ns()` — the slowest
///   shard — and aggregate pps is packets over summed wall time.
///
/// # Panics
///
/// Panics if any shard count does not divide `burst` (the sweep needs
/// exactly balanced bursts to isolate scaling from load imbalance).
pub fn sweep_rss_shards(
    scenario: Scenario,
    shard_counts: &[u32],
    burst: usize,
) -> Vec<ShardScalingPoint> {
    use linuxfp_netstack::stack::rss;
    use linuxfp_packet::Batch;
    use linuxfp_platforms::LinuxFpPlatform;

    const WARMUP_BURSTS: usize = 8;
    const MEASURE_BURSTS: usize = 64;

    shard_counts
        .iter()
        .map(|&shards| {
            assert!(
                shards >= 1 && burst.is_multiple_of(shards as usize),
                "burst {burst} must divide evenly over {shards} shards"
            );
            let mut platform = LinuxFpPlatform::new(scenario);
            let mac = platform.dut_mac();
            platform
                .kernel_mut()
                .sysctl_set("net.linuxfp.rss_shards", i64::from(shards))
                .expect("rss_shards sysctl exists");

            // Balanced flow selection: walk the scenario's flow sequence
            // and keep the first `burst / shards` flows that RSS steers
            // to each shard, interleaved round-robin so every burst
            // carries each shard's share.
            let per_shard = burst / shards as usize;
            let mut buckets: Vec<Vec<Vec<u8>>> = vec![Vec::new(); shards as usize];
            let mut i = 0u64;
            while buckets.iter().any(|b| b.len() < per_shard) {
                let frame = scenario.frame(mac, i, 60);
                let shard = rss::shard_for(&frame, shards) as usize;
                if buckets[shard].len() < per_shard {
                    buckets[shard].push(frame);
                }
                i += 1;
                assert!(i < 1_000_000, "RSS never filled every shard bucket");
            }
            let flows: Vec<Vec<u8>> = (0..per_shard)
                .flat_map(|f| buckets.iter().map(move |b| b[f].clone()))
                .collect();

            let inject = |platform: &mut LinuxFpPlatform| {
                let mut batch = Batch::new();
                for frame in &flows {
                    batch.push(frame.clone());
                }
                platform.process_batch(&mut batch)
            };
            for _ in 0..WARMUP_BURSTS {
                inject(&mut platform);
            }
            let mut wall_ns = 0.0f64;
            let mut cpu_ns = 0.0f64;
            let mut packets = 0usize;
            for _ in 0..MEASURE_BURSTS {
                let out = inject(&mut platform);
                wall_ns += out.wall_ns();
                cpu_ns += out.total_ns();
                packets += out.batch_size;
            }
            ShardScalingPoint {
                shards,
                pps: packets as f64 / wall_ns * 1e9,
                wall_ns_per_pkt: wall_ns / packets as f64,
                cpu_ns_per_pkt: cpu_ns / packets as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_platforms::{LinuxFpPlatform, LinuxPlatform};

    #[test]
    fn min_size_throughput_matches_calibration() {
        let s = Scenario::router();
        let mut linux = LinuxPlatform::new(s);
        let mac = linux.dut_mac();
        let p = throughput_pps(&mut linux, s, mac, 1, 64);
        // Plain Linux forwarding ~1 Mpps single core.
        assert!((0.85e6..1.15e6).contains(&p.pps), "pps {}", p.pps);
        assert_eq!(p.cores, 1);
        assert_eq!(p.frame_len, 64);

        let mut lfp = LinuxFpPlatform::new(s);
        let mac = lfp.dut_mac();
        let p = throughput_pps(&mut lfp, s, mac, 1, 64);
        // LinuxFP ~1.77 Mpps single core (paper Table VII: 1,768,221).
        assert!((1.5e6..2.0e6).contains(&p.pps), "pps {}", p.pps);
    }

    #[test]
    fn core_sweep_is_monotonic() {
        let s = Scenario::router();
        let mut lfp = LinuxFpPlatform::new(s);
        let mac = lfp.dut_mac();
        let points = sweep_cores(&mut lfp, s, mac, 6);
        assert_eq!(points.len(), 6);
        for w in points.windows(2) {
            assert!(w[1].pps > w[0].pps, "sweep not monotonic");
        }
        // Roughly linear: 6 cores within [5x, 6x] of 1 core.
        let ratio = points[5].pps / points[0].pps;
        assert!((5.0..6.01).contains(&ratio), "scaling ratio {ratio}");
    }

    #[test]
    fn shard_sweep_scales_near_linearly() {
        let points = sweep_rss_shards(Scenario::router(), &[1, 2, 4, 8, 16], 16);
        assert_eq!(points.len(), 5);
        for w in points.windows(2) {
            assert!(
                w[1].pps > w[0].pps,
                "{} shards ({:.0} pps) not faster than {} ({:.0} pps)",
                w[1].shards,
                w[1].pps,
                w[0].shards,
                w[0].pps
            );
        }
        // 8 shards sustain at least 5x one shard; the per-queue fixed
        // costs keep it under perfectly linear 8x.
        let ratio = points[3].pps / points[0].pps;
        assert!((5.0..8.0).contains(&ratio), "8-shard scaling {ratio:.2}x");
        // CPU time per packet must *rise* with shards (replicated fixed
        // costs) even as wall time falls — work and wall views differ.
        for p in &points[1..] {
            assert!(p.cpu_ns_per_pkt > points[0].cpu_ns_per_pkt, "{p:?}");
            assert!(p.wall_ns_per_pkt < points[0].wall_ns_per_pkt, "{p:?}");
        }
    }

    #[test]
    fn size_sweep_hits_line_rate_at_mtu() {
        let s = Scenario::router();
        let mut lfp = LinuxFpPlatform::new(s);
        let mac = lfp.dut_mac();
        let points = sweep_packet_sizes(&mut lfp, s, mac, &[64, 128, 256, 512, 1024, 1518]);
        // pps falls with size once line-rate limited; gbps rises.
        assert!(points.last().unwrap().gbps > 20.0, "near line rate at MTU");
        assert!(points[0].gbps < 2.0);
        // Service time is ~size independent (no payload copies on XDP).
        let spread = points
            .iter()
            .map(|p| p.service_ns)
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        assert!(spread.1 - spread.0 < 50.0, "service spread {spread:?}");
    }
}
