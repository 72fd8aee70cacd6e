//! Virtual time is a contract: what one packet is charged on the warm
//! router and on the 100-rule gateway is pinned here to the last bit.
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
    /// A deployed platform with the dispatcher's one-off slot resolution
    /// already taken by another flow.
    fn warm(scenario: Scenario) -> Self {
        let mut g = Dut {
            platform: LinuxFpPlatform::new(scenario),
            scenario,
        };
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
    // (scenario, a flow's first packet, a burst of new flows). A flow is
    // recorded on its second sighting, which costs exactly what the first
    // did; the third packet and the third burst hit the flow cache and
    // cost the same everywhere.
    let hit: Pin = (316.0, (0, 0.0), (0, 0.0));
    let burst_hit: Pin = (7880.0, (0, 0.0), (0, 0.0));
    let cases: [(Scenario, Pin, Pin); 2] = [
        (
            Scenario::router(),
            (556.0, (70, 70.0), (0, 0.0)),
            (15560.0, (2240, 2240.0), (0, 0.0)),
        ),
        (
            Scenario::gateway(),
            (1644.0, (103, 103.0), (100, 1000.0)),
            (50376.0, (3296, 3296.0), (3200, 32000.0)),
        ),
    ];
    for (scenario, miss, burst_miss) in cases {
        let what = format!("{} rules", scenario.filter_rules);
        let mut g = Dut::warm(scenario);
        assert_eq!(
            (g.packet(7), g.packet(7), g.packet(7)),
            (miss, miss, hit),
            "{what}"
        );
        assert_eq!(
            (g.burst(100), g.burst(100), g.burst(100)),
            (burst_miss, burst_miss, burst_hit),
            "{what}"
        );
    }
}
