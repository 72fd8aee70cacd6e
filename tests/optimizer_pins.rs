//! What the controller deploys is a contract too: for five preset
//! scenarios, every pipeline's synthesized (naive) and deployed
//! instruction counts are pinned here, and every deployed program must be
//! exactly `opt::optimize` of the program synthesized for its interface.
//! How the optimizer and the verifier walk a program may change; what
//! they produce may not.

use linuxfp::core::graph::build_graph;
use linuxfp::core::objects::ObjectStore;
use linuxfp::core::synth::synthesize;
use linuxfp::ebpf::opt;
use linuxfp::prelude::*;

/// `(interface, FPM label, naive instructions, deployed instructions)`.
type Pin = (&'static str, &'static str, usize, usize);

fn assert_pinned(scenario: Scenario, what: &str, pins: &[Pin]) {
    let mut platform = LinuxFpPlatform::new(scenario);
    let store = ObjectStore::snapshot(platform.kernel_mut());
    let graph = build_graph(&store, &Capabilities::full());
    let fps = synthesize(&graph).expect("preset synthesizes");
    let deployer = platform.controller().deployer();
    let mut seen = Vec::new();
    for fp in &fps {
        let deployed = deployer
            .installed(fp.ifindex)
            .unwrap_or_else(|| panic!("{what}: nothing deployed on {}", fp.ifname));
        let (optimized, stats) = opt::optimize(&fp.program.insns);
        assert_eq!(
            deployed.insns(),
            optimized.as_slice(),
            "{what}/{}: deployed program is not the optimizer's output",
            fp.ifname
        );
        assert_eq!(
            (stats.before, stats.after),
            (fp.program.len(), deployed.len())
        );
        seen.push((
            fp.ifname.as_str(),
            fp.fpm_label.as_str(),
            fp.program.len(),
            deployed.len(),
        ));
    }
    assert_eq!(seen, pins, "{what}");
}

#[test]
fn router_programs_are_pinned() {
    assert_pinned(
        Scenario::router(),
        "router",
        &[("ens1f0", "router", 104, 72), ("ens1f1", "router", 104, 72)],
    );
}

#[test]
fn gateway_programs_are_pinned() {
    assert_pinned(
        Scenario::gateway(),
        "gateway",
        &[
            ("ens1f0", "router+filter", 143, 110),
            ("ens1f1", "router+filter", 143, 110),
        ],
    );
}

#[test]
fn l7_gateway_programs_are_pinned() {
    assert_pinned(
        Scenario::api_gateway(),
        "api_gateway",
        &[
            ("ens1f0", "router+l7", 128, 99),
            ("ens1f1", "router+l7", 128, 99),
        ],
    );
}

#[test]
fn nat_gateway_programs_are_pinned() {
    assert_pinned(
        Scenario::nat_gateway(),
        "nat_gateway",
        &[
            ("ens1f0", "router+nat", 293, 252),
            ("ens1f1", "router+nat", 293, 252),
        ],
    );
}

#[test]
fn ipset_gateway_programs_are_pinned() {
    assert_pinned(
        Scenario::gateway_ipset(),
        "gateway_ipset",
        &[
            ("ens1f0", "router+filter", 143, 110),
            ("ens1f1", "router+filter", 143, 110),
        ],
    );
}
