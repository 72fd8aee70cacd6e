//! Custom module injection (paper §VIII): user-supplied eBPF snippets —
//! here a packet-counting monitor — inlined into every synthesized fast
//! path at runtime, with the verifier still gating deployment.

use linuxfp::core::fpm::CustomFpm;
use linuxfp::core::Trigger;
use linuxfp::ebpf::insn::{AluOp, Insn, MemSize};
use linuxfp::packet::builder;
use linuxfp::prelude::*;
use std::net::Ipv4Addr;

fn router_kernel() -> (Kernel, IfIndex, IfIndex) {
    let mut k = Kernel::new(61);
    let eth0 = k.add_physical("eth0").unwrap();
    let eth1 = k.add_physical("eth1").unwrap();
    k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_link_set_up(eth0).unwrap();
    k.ip_link_set_up(eth1).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    k.ip_route_add(
        "10.10.0.0/16".parse::<Prefix>().unwrap(),
        Some("10.0.2.2".parse().unwrap()),
        None,
    )
    .unwrap();
    let now = k.now();
    k.neigh.learn(
        "10.0.2.2".parse().unwrap(),
        MacAddr::from_index(0xBEEF),
        eth1,
        now,
    );
    (k, eth0, eth1)
}

fn frame(k: &Kernel, eth0: IfIndex) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0xAAAA),
        k.device(eth0).unwrap().mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 10, 3, 7),
        1,
        2,
        b"count me",
    )
}

#[test]
fn monitoring_module_counts_fast_path_packets() {
    let (mut k, eth0, _) = router_kernel();
    let registry = Registry::new();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry.clone()),
        ..ControllerConfig::default()
    };
    let (mut ctrl, _) = Controller::attach(&mut k, cfg).unwrap();

    // Create the counter map in the controller's shared map store, then
    // hot-install the monitoring module referencing it.
    let counter = ctrl.deployer().maps().create_hash(4);
    let report = ctrl
        .install_custom_module(&mut k, CustomFpm::packet_counter("pkt_count", counter.0))
        .unwrap();
    assert!(report.changed);
    assert_eq!(report.triggers, vec![Trigger::CustomModule]);

    for _ in 0..5 {
        let out = k.receive(eth0, frame(&k, eth0));
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.cost.stage_count("skb_alloc"), 0, "still fast-pathed");
        assert_eq!(out.cost.stage_count("map_update"), 1, "monitor ran");
    }
    // A pipeline with a custom helper is statically uncacheable: its
    // repeats miss the flow cache and are not even recorded.
    assert_eq!(registry.counter_total("linuxfp_flowcache_misses_total"), 5);
    assert_eq!(registry.counter_total("linuxfp_flowcache_records_total"), 0);
    // User space reads the live counter out of the shared map.
    let value = ctrl
        .deployer()
        .maps()
        .lookup(counter, &0u32.to_le_bytes())
        .unwrap()
        .expect("counter present");
    assert_eq!(u64::from_le_bytes(value.try_into().unwrap()), 5);
}

#[test]
fn unsafe_custom_module_is_rejected_and_rolled_back() {
    let (mut k, eth0, _) = router_kernel();
    let (mut ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();

    // A malicious/buggy module: unguarded far-out-of-bounds packet read.
    let evil = CustomFpm {
        name: "oob_reader".into(),
        insns: vec![Insn::Load {
            size: MemSize::DW,
            dst: 2,
            src: 6, // packet pointer from the prologue
            off: 4096,
        }],
    };
    let err = ctrl.install_custom_module(&mut k, evil).unwrap_err();
    assert!(err.to_string().contains("rejected"), "{err}");

    // Rolled back: the previous (clean) fast path still runs.
    let out = k.receive(eth0, frame(&k, eth0));
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.cost.stage_count("skb_alloc"), 0);
    assert_eq!(
        out.cost.stage_count("map_update"),
        0,
        "evil module not present"
    );
}

#[test]
fn register_clobbering_module_cannot_corrupt_the_pipeline() {
    // A module that trashes every scratch register: the synthesized
    // pipeline after it must still verify (it re-derives its state) and
    // forward correctly.
    let mut insns = Vec::new();
    for r in [0u8, 1, 2, 3, 4, 5, 9] {
        insns.push(Insn::AluImm {
            op: AluOp::Mov,
            dst: r,
            imm: 0x5A5A,
        });
    }
    let clobber = CustomFpm {
        name: "clobber".into(),
        insns,
    };
    let (mut k, eth0, eth1) = router_kernel();
    let cfg = ControllerConfig {
        custom_modules: vec![clobber],
        ..ControllerConfig::default()
    };
    let (_ctrl, report) = Controller::attach(&mut k, cfg).unwrap();
    assert!(report.changed);
    let out = k.receive(eth0, frame(&k, eth0));
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, eth1);
    assert_eq!(out.cost.stage_count("skb_alloc"), 0);
}

#[test]
fn custom_modules_survive_reconfiguration() {
    // The monitor keeps counting across a configuration change that
    // resynthesizes the data path.
    let (mut k, eth0, _) = router_kernel();
    let (mut ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    let counter = ctrl.deployer().maps().create_hash(4);
    ctrl.install_custom_module(&mut k, CustomFpm::packet_counter("pkt_count", counter.0))
        .unwrap();
    let _ = k.receive(eth0, frame(&k, eth0));

    // Reconfigure: add a FORWARD rule -> router+filter resynthesis.
    k.iptables_append(
        linuxfp::netstack::netfilter::ChainHook::Forward,
        linuxfp::netstack::netfilter::IptRule::drop_dst("10.99.0.0/16".parse().unwrap()),
    );
    let report = ctrl.poll(&mut k).unwrap().unwrap();
    assert!(report.changed);

    let _ = k.receive(eth0, frame(&k, eth0));
    let value = ctrl
        .deployer()
        .maps()
        .lookup(counter, &0u32.to_le_bytes())
        .unwrap()
        .expect("counter present");
    assert_eq!(u64::from_le_bytes(value.try_into().unwrap()), 2);
}
