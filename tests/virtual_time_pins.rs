//! Virtual time is a contract: what one packet is charged on the warm
//! router and on the 100-rule gateway, under either engine, is pinned
//! here to the last bit. How charges are summed (per item or counted
//! and priced once, `f64` or fixed point) may change; these totals and
//! the per-stage counts behind them may not.

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
    engine_stage: &'static str,
}

impl Dut {
    /// A deployed platform with the dispatcher's one-off slot resolution
    /// already taken by another flow.
    fn warm(scenario: Scenario, jit: bool) -> Self {
        let mut platform = LinuxFpPlatform::new(scenario);
        platform
            .kernel_mut()
            .sysctl_set("net.linuxfp.jit", i64::from(jit))
            .expect("jit sysctl exists");
        let mut g = Dut {
            platform,
            scenario,
            engine_stage: if jit { "jit_insn" } else { "ebpf_insn" },
        };
        g.packet(0);
        g
    }

    fn frame(&self, flow: u64) -> Vec<u8> {
        self.scenario.frame(self.platform.dut_mac(), flow, 60)
    }

    fn pin(&self, cost: &CostTracker) -> Pin {
        let stage = |s: &str| (cost.stage_count(s), cost.stage_ns(s));
        (
            cost.total_ns(),
            stage(self.engine_stage),
            stage("nf_rule_match"),
        )
    }

    fn forwarded(out: &RxOutcome) {
        assert_eq!(out.transmissions().len(), 1, "forwarded");
    }

    fn packet(&mut self, flow: u64) -> Pin {
        let out = self.platform.process(self.frame(flow));
        Self::forwarded(&out);
        self.pin(&out.cost)
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
        self.pin(&cost)
    }
}

#[test]
fn per_packet_virtual_totals_are_pinned() {
    // (scenario, jit, a flow's first packet, a burst of new flows). A
    // flow is recorded on its second sighting, which costs exactly what
    // the first did; the third packet and the third burst hit the flow
    // cache and cost the same everywhere.
    let hit: Pin = (316.0, (0, 0.0), (0, 0.0));
    let burst_hit: Pin = (7880.0, (0, 0.0), (0, 0.0));
    let cases: [(Scenario, bool, Pin, Pin); 4] = [
        (
            Scenario::router(),
            true,
            (556.0, (70, 70.0), (0, 0.0)),
            (15560.0, (2240, 2240.0), (0, 0.0)),
        ),
        (
            Scenario::router(),
            false,
            (696.0, (70, 210.0), (0, 0.0)),
            (20040.0, (2240, 6720.0), (0, 0.0)),
        ),
        (
            Scenario::gateway(),
            true,
            (1644.0, (103, 103.0), (100, 1000.0)),
            (50376.0, (3296, 3296.0), (3200, 32000.0)),
        ),
        (
            Scenario::gateway(),
            false,
            (1850.0, (103, 309.0), (100, 1000.0)),
            (56968.0, (3296, 9888.0), (3200, 32000.0)),
        ),
    ];
    for (scenario, jit, miss, burst_miss) in cases {
        let what = format!("{} rules, jit {jit}", scenario.filter_rules);
        let mut g = Dut::warm(scenario, jit);
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
