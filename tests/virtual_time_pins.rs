//! Virtual time is a contract: what one packet is charged on the warm
//! router (also with the optimizer off, and with the flow cache off) and
//! on the 100-rule gateway is pinned here to the last bit.
//! How charges are summed (per item or counted and priced once, `f64` or
//! fixed point) may change; these totals and the per-stage counts behind
//! them may not.

use linuxfp::netstack::stack::RxOutcome;
use linuxfp::packet::{Batch, PacketBuf};
use linuxfp::prelude::*;
use linuxfp::sim::CostTracker;

const BURST: u64 = 32;

/// What one packet (or one burst) was charged: the total, then the
/// engine's instruction stage and the chain walk's rule stage as
/// `(count, ns)`.
type Pin = (f64, (u64, f64), (u64, f64));

struct Dut {
    platform: LinuxFpPlatform,
    scenario: Scenario,
}

impl Dut {
    /// A deployed platform with `sysctl` set (and redeployed under it)
    /// and the dispatcher's one-off slot resolution already taken by
    /// another flow.
    fn warm(scenario: Scenario, sysctl: Option<(&str, i64)>) -> Self {
        let mut g = Dut {
            platform: LinuxFpPlatform::new(scenario),
            scenario,
        };
        if let Some((name, value)) = sysctl {
            g.platform.kernel_mut().sysctl_set(name, value).unwrap();
            g.platform.poll_controller();
        }
        g.packet(0);
        g
    }

    fn frame(&self, flow: u64) -> Vec<u8> {
        self.scenario.frame(self.platform.dut_mac(), flow, 60)
    }

    fn pin(cost: &CostTracker) -> Pin {
        let stage = |s: &str| (cost.stage_count(s), cost.stage_ns(s));
        (cost.total_ns(), stage("jit_insn"), stage("nf_rule_match"))
    }

    fn forwarded(out: &RxOutcome) {
        assert_eq!(out.transmissions().len(), 1, "forwarded");
    }

    fn packet(&mut self, flow: u64) -> Pin {
        let out = self.platform.process(self.frame(flow));
        Self::forwarded(&out);
        Self::pin(&out.cost)
    }

    /// One burst of `BURST` consecutive flows from `first`, amortized
    /// per-burst charges included.
    fn burst(&mut self, first: u64) -> Pin {
        let mut batch = Batch::with_capacity(BURST as usize);
        for flow in first..first + BURST {
            batch.push(PacketBuf::from_vec(self.frame(flow)));
        }
        let out = self.platform.process_batch(&mut batch);
        out.outcomes.iter().for_each(Self::forwarded);
        let mut cost = out.batch_cost.clone();
        out.outcomes.iter().for_each(|o| cost.merge(&o.cost));
        Self::pin(&cost)
    }
}

#[test]
fn per_packet_virtual_totals_are_pinned() {
    // (what, scenario, sysctl, a flow's first packet, a burst of new
    // flows, and the third sighting of each). A flow is recorded on its
    // second sighting, which costs exactly what the first did; the third
    // packet and the third burst hit the flow cache and cost the same
    // everywhere.
    let hit: Pin = (316.0, (0, 0.0), (0, 0.0));
    let burst_hit: Pin = (7880.0, (0, 0.0), (0, 0.0));
    let router_miss: Pin = (556.0, (70, 70.0), (0, 0.0));
    let router_burst_miss: Pin = (15560.0, (2240, 2240.0), (0, 0.0));
    let naive_miss: Pin = (586.0, (100, 100.0), (0, 0.0));
    let naive_burst_miss: Pin = (16520.0, (3200, 3200.0), (0, 0.0));
    let cases = [
        (
            "router",
            Scenario::router(),
            None,
            router_miss,
            router_burst_miss,
            (hit, burst_hit),
        ),
        (
            "100-rule gateway",
            Scenario::gateway(),
            None,
            (1644.0, (103, 103.0), (100, 1000.0)),
            (50376.0, (3296, 3296.0), (3200, 32000.0)),
            (hit, burst_hit),
        ),
        // The naive synthesized program: only a miss runs it, so only a
        // miss costs more.
        (
            "router, optimizer off",
            Scenario::router(),
            Some(("net.linuxfp.opt", 0)),
            naive_miss,
            naive_burst_miss,
            (hit, burst_hit),
        ),
        // No cache: the third sighting costs what the first did, which
        // is also what a recording miss costs, so the cache can only win
        // or tie.
        (
            "router, flow cache off",
            Scenario::router(),
            Some(("net.linuxfp.flow_cache", 0)),
            router_miss,
            router_burst_miss,
            (router_miss, router_burst_miss),
        ),
    ];
    for (what, scenario, sysctl, miss, burst_miss, (third, burst_third)) in cases {
        let mut g = Dut::warm(scenario, sysctl);
        assert_eq!(
            (g.packet(7), g.packet(7), g.packet(7)),
            (miss, miss, third),
            "{what}"
        );
        assert_eq!(
            (g.burst(100), g.burst(100), g.burst(100)),
            (burst_miss, burst_miss, burst_third),
            "{what}"
        );
    }
    // The optimizer's shrink pays back on every missed packet.
    assert!(
        router_burst_miss.0 <= 0.95 * naive_burst_miss.0,
        "optimized {} vs naive {} ns per burst",
        router_burst_miss.0,
        naive_burst_miss.0
    );
}
