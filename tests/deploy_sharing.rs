//! Deploy sharing oracle: interfaces whose synthesized programs are
//! identical share one optimize-and-verify, yet every interface must end
//! up with exactly what building its own program alone would install —
//! under its own program name.
//!
//! A three-interface router, with a two-port bridge beside it (so that a
//! round has more than one distinct program), runs seeded sequences of
//! FORWARD, NAT and L7 appends and flushes, route adds,
//! `net.linuxfp.opt` flips and one custom-module install. After every
//! controller reaction, each interface's installed instructions must
//! equal `opt::optimize` of a fresh synthesis of `Controller::graph()`
//! (the naive program with the optimizer off), and the round must have
//! built exactly one program per distinct synthesized program.

use linuxfp::core::fpm::CustomFpm;
use linuxfp::core::synth::synthesize_with_customs;
use linuxfp::ebpf::insn::Insn;
use linuxfp::ebpf::opt;
use linuxfp::netstack::l7::{L7Action, L7Policy};
use linuxfp::netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp::netstack::netfilter::{ChainHook, IptRule};
use linuxfp::prelude::*;
use linuxfp::sim::rng::SimRng;

/// Commands the sequences draw from.
const OPS: usize = 9;

fn router_kernel(seed: u64) -> (Kernel, [IfIndex; 3]) {
    let mut k = Kernel::new(seed);
    let mut ifs = [IfIndex(0); 3];
    for (i, slot) in ifs.iter_mut().enumerate() {
        let dev = k.add_physical(&format!("eth{i}")).unwrap();
        k.ip_addr_add(
            dev,
            format!("10.0.{}.1/24", i + 1).parse::<IfAddr>().unwrap(),
        )
        .unwrap();
        k.ip_link_set_up(dev).unwrap();
        *slot = dev;
    }
    let br = k.add_bridge("br0").unwrap();
    for name in ["p0", "p1"] {
        let port = k.add_physical(name).unwrap();
        k.brctl_addif(br, port).unwrap();
        k.ip_link_set_up(port).unwrap();
    }
    k.ip_link_set_up(br).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    k.ip_route_add(
        "10.10.0.0/16".parse::<Prefix>().unwrap(),
        Some("10.0.2.2".parse().unwrap()),
        None,
    )
    .unwrap();
    (k, ifs)
}

/// Applies command `op` through the kernel's standard API.
fn command(k: &mut Kernel, ifs: &[IfIndex; 3], op: usize, rng: &mut SimRng) {
    match op {
        0 => k.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst(
                format!("10.10.{}.0/24", rng.uniform_u64(200))
                    .parse()
                    .unwrap(),
            ),
        ),
        1 => k.iptables_flush(ChainHook::Forward),
        2 => {
            let out_if = *rng.choose(ifs);
            let rule = NatRule {
                out_if: Some(out_if),
                ..NatRule::any(NatTarget::Masquerade)
            };
            assert!(k.iptables_nat_append(NatChain::Postrouting, rule));
        }
        3 => k.iptables_nat_flush(),
        4 => k.l7_policy_append(L7Policy::prefix(b"/blocked", L7Action::Deny)),
        5 => k.l7_policy_flush(),
        6 => {
            let prefix = format!("10.{}.0.0/16", 20 + rng.uniform_u64(200));
            // A duplicate prefix is refused like `ip route add` refuses it.
            let _ = k.ip_route_add(
                prefix.parse().unwrap(),
                Some("10.0.3.2".parse().unwrap()),
                None,
            );
        }
        _ => {
            let opt = i64::from(!k.opt_enabled());
            k.sysctl_set("net.linuxfp.opt", opt).unwrap();
        }
    }
}

/// The oracle: what the controller installed is what building each
/// interface's program alone gives, and the round built each distinct
/// program exactly once.
fn check(k: &Kernel, ctrl: &Controller, customs: &[CustomFpm], report: &ReactionReport, ctx: &str) {
    let fps = synthesize_with_customs(ctrl.graph(), customs).expect("graph synthesizes");
    let mut distinct: Vec<&[Insn]> = Vec::new();
    for fp in &fps {
        if !distinct.contains(&fp.program.insns.as_slice()) {
            distinct.push(&fp.program.insns);
        }
    }
    let expected_built = if report.changed { distinct.len() } else { 0 };
    assert_eq!(report.built, expected_built, "{ctx}: programs built");

    let deployer = ctrl.deployer();
    let mut active: Vec<IfIndex> = fps.iter().map(|fp| fp.ifindex).collect();
    active.sort();
    assert_eq!(deployer.active_interfaces(), active, "{ctx}: active set");
    for fp in &fps {
        let installed = deployer.installed(fp.ifindex).expect("installed");
        let want = if k.opt_enabled() {
            opt::optimize(&fp.program.insns).0
        } else {
            fp.program.insns.clone()
        };
        assert_eq!(installed.insns(), want.as_slice(), "{ctx}: {}", fp.ifname);
        assert_eq!(installed.name(), fp.program.name, "{ctx}: name");
    }
}

#[test]
fn shared_builds_install_what_per_interface_builds_would() {
    for seed in 0..24u64 {
        let (mut k, ifs) = router_kernel(seed);
        let (mut ctrl, report) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
        let mut customs: Vec<CustomFpm> = Vec::new();
        check(&k, &ctrl, &customs, &report, &format!("seed {seed} attach"));
        assert_eq!(report.built, 2, "one router build, one bridge-port build");

        let mut rng = SimRng::seed(seed);
        let steps = 24;
        let install_at = rng.uniform_u64(steps) as usize;
        for step in 0..steps as usize {
            let ctx = format!("seed {seed} step {step}");
            let report = if step == install_at {
                let counter = ctrl.deployer().maps().create_hash(4);
                let module = CustomFpm::packet_counter("pkt_count", counter.0);
                customs.push(module.clone());
                ctrl.install_custom_module(&mut k, module).unwrap()
            } else {
                let op = rng.uniform_u64(OPS as u64) as usize;
                command(&mut k, &ifs, op, &mut rng);
                match ctrl.poll(&mut k).unwrap() {
                    Some(report) => report,
                    None => continue,
                }
            };
            check(&k, &ctrl, &customs, &report, &ctx);
        }
    }
}
