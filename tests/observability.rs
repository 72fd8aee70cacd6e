//! End-to-end observability: one host mixing bridging, forwarding and
//! filtering, with the telemetry registry wired through every layer.
//! Checks the transparency ledger (`fast_path_hits + slow_path_fallbacks
//! == packets_injected`, globally and per FPM pipeline) and that both
//! renderers emit every registered metric.

use linuxfp::netstack::ipvs::Scheduler;
use linuxfp::netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp::netstack::netfilter::{ChainHook, IptRule};
use linuxfp::packet::builder;
use linuxfp::packet::ipv4::IpProto;
use linuxfp::platforms::scenario::SOURCE_MAC;
use linuxfp::prelude::*;
use linuxfp::telemetry::trace::{CostBreakdown, TraceEvent, TraceSpan};
use linuxfp::telemetry::Scale;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A host that bridges `p1<->p2` on `br0` and routes `eth0->eth1` behind
/// a FORWARD blacklist: the controller synthesizes `bridge` pipelines on
/// the bridge ports and `router+filter` pipelines on the routed NICs.
fn mixed_kernel() -> (Kernel, [IfIndex; 4]) {
    let mut k = Kernel::new(47);
    let p1 = k.add_physical("p1").unwrap();
    let p2 = k.add_physical("p2").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.brctl_addif(br, p2).unwrap();
    let eth0 = k.add_physical("eth0").unwrap();
    let eth1 = k.add_physical("eth1").unwrap();
    k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    for d in [p1, p2, br, eth0, eth1] {
        k.ip_link_set_up(d).unwrap();
    }
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
    k.iptables_append(
        ChainHook::Forward,
        IptRule::drop_dst("10.10.3.7/32".parse::<Prefix>().unwrap()),
    );
    (k, [p1, p2, eth0, eth1])
}

fn bridged_frame(src: u64, dst: u64) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0x200 + src),
        MacAddr::from_index(0x200 + dst),
        Ipv4Addr::new(192, 168, 0, src as u8 + 1),
        Ipv4Addr::new(192, 168, 0, dst as u8 + 1),
        1000,
        2000,
        b"obs",
    )
}

fn routed_frame(k: &Kernel, eth0: IfIndex, last_octet: u8) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0xAAAA),
        k.device(eth0).unwrap().mac,
        "10.0.1.100".parse().unwrap(),
        Ipv4Addr::new(10, 10, 3, last_octet),
        1000,
        2000,
        b"obs",
    )
}

#[test]
fn mixed_traffic_conserves_packets_per_fpm() {
    let registry = Registry::new();
    let (mut k, [p1, p2, eth0, _eth1]) = mixed_kernel();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry.clone()),
        ..ControllerConfig::default()
    };
    let (_ctrl, report) = Controller::attach(&mut k, cfg).unwrap();
    assert!(report.changed);

    // Count what we inject, per FPM pipeline carrying the ingress hook.
    let mut injected: BTreeMap<&str, u64> = BTreeMap::new();

    // Bridging: the first frame floods (unknown destination -> slow-path
    // fallback, which learns the source); replies then unicast on the
    // fast path via the FDB helper.
    let out = k.receive(p1, bridged_frame(1, 2));
    assert!(!out.transmissions().is_empty());
    *injected.entry("bridge").or_default() += 1;
    for _ in 0..4 {
        let out = k.receive(p2, bridged_frame(2, 1));
        assert_eq!(out.transmissions().len(), 1, "learned unicast");
        *injected.entry("bridge").or_default() += 1;
    }

    // Forwarding: allowed traffic redirects on the fast path.
    for i in 0..6u8 {
        let out = k.receive(eth0, routed_frame(&k, eth0, 10 + i));
        assert_eq!(out.transmissions().len(), 1, "forwarded");
        *injected.entry("router+filter").or_default() += 1;
    }
    // Filtering: blacklisted traffic drops on the fast path.
    for _ in 0..3 {
        let out = k.receive(eth0, routed_frame(&k, eth0, 7));
        assert!(out.transmissions().is_empty(), "blocked");
        *injected.entry("router+filter").or_default() += 1;
    }

    // Per-FPM conservation: each pipeline decided exactly the packets
    // injected at its interfaces, as a hit or a fallback.
    for (fpm, count) in &injected {
        let hits = registry
            .counter_value("linuxfp_fp_hits_total", &[("fpm", fpm)])
            .unwrap_or(0);
        let fallbacks = registry
            .counter_value("linuxfp_slowpath_fallbacks_total", &[("fpm", fpm)])
            .unwrap_or(0);
        assert_eq!(hits + fallbacks, *count, "conservation for fpm={fpm}");
        assert!(hits > 0, "fpm={fpm} never hit the fast path");
    }

    // Global conservation against the stack's own injection counter.
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    let total = registry.counter_total("linuxfp_packets_injected_total");
    assert_eq!(total, injected.values().sum::<u64>());
    assert_eq!(hits + fallbacks, total, "packet lost or double-counted");

    // The microflow verdict cache keeps the same ledger one level down:
    // every packet that entered a dispatcher hook either hit the cache or
    // was counted a miss (ineligible packets included), so hits + misses
    // must also equal the injected count.
    let fc_hits = registry.counter_total("linuxfp_flowcache_hits_total");
    let fc_misses = registry.counter_total("linuxfp_flowcache_misses_total");
    assert_eq!(fc_hits + fc_misses, total, "flow-cache ledger must balance");
    // Only a flow's second sighting is recorded, and only a recording that
    // passes every gate is stored.
    let fc_records = registry.counter_total("linuxfp_flowcache_records_total");
    let fc_inserts = registry.counter_total("linuxfp_flowcache_inserts_total");
    assert!(
        fc_records <= fc_misses,
        "{fc_records} records > {fc_misses} misses"
    );
    assert!(
        fc_inserts <= fc_records,
        "{fc_inserts} inserts > {fc_records} records"
    );
    assert!(fc_inserts > 0 && fc_hits > 0, "the cache never engaged");

    // The layers below agree: VM verdicts sum to the hook decisions, and
    // the verifier accepted every deployed program.
    assert_eq!(registry.counter_total("linuxfp_vm_verdicts_total"), total);
    assert!(registry.counter_total("linuxfp_verifier_accepted_total") >= 3);
    assert_eq!(registry.counter_total("linuxfp_verifier_rejected_total"), 0);
    // Controller telemetry captured the startup reconcile.
    let reconciles = registry.histogram("linuxfp_reconcile_seconds", &[], Scale::NanosToSeconds);
    assert!(reconciles.count() >= 1);
    assert!(registry.counter_total("linuxfp_graph_rebuilds_total") >= 1);
}

#[test]
fn both_renderers_emit_every_registered_metric() {
    let registry = Registry::new();
    let (mut k, [p1, _p2, eth0, _eth1]) = mixed_kernel();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry.clone()),
        ..ControllerConfig::default()
    };
    let (_ctrl, _) = Controller::attach(&mut k, cfg).unwrap();
    k.receive(p1, bridged_frame(1, 2));
    k.receive(eth0, routed_frame(&k, eth0, 9));
    k.receive(eth0, routed_frame(&k, eth0, 7)); // fast-path drop

    let names = registry.names();
    assert!(
        names.len() >= 10,
        "expected a populated registry: {names:?}"
    );
    for required in [
        "linuxfp_fp_hits_total",
        "linuxfp_slowpath_fallbacks_total",
        "linuxfp_packets_injected_total",
        "linuxfp_slowpath_packets_total",
        "linuxfp_vm_insns_total",
        "linuxfp_vm_helper_calls_total",
        "linuxfp_vm_verdicts_total",
        "linuxfp_verifier_accepted_total",
        "linuxfp_deploy_programs_total",
        "linuxfp_reconcile_seconds",
        "linuxfp_graph_rebuilds_total",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }

    let prom = render_prometheus(&registry);
    let json = snapshot_json(&registry).to_string();
    for name in &names {
        assert!(
            prom.contains(name.as_str()),
            "{name} absent from Prometheus text"
        );
        assert!(
            json.contains(name.as_str()),
            "{name} absent from JSON snapshot"
        );
    }
    // Histograms render the full Prometheus triplet.
    assert!(prom.contains("linuxfp_reconcile_seconds_bucket"));
    assert!(prom.contains("linuxfp_reconcile_seconds_sum"));
    assert!(prom.contains("linuxfp_reconcile_seconds_count"));
}

// ---------------------------------------------------------------------
// Flight-recorder stage attribution: for every accelerated subsystem,
// each sampled span's per-stage costs must sum to exactly the virtual
// time the packet was charged — no stage unaccounted, none counted
// twice, in every regime (slow path, fast path, flow-cache hit).
// ---------------------------------------------------------------------

/// Every span conserves cost: stage sums equal the charged total.
fn assert_spans_conserve(spans: &[TraceSpan], subsystem: &str) {
    assert!(!spans.is_empty(), "{subsystem}: no spans sampled");
    for s in spans {
        assert!(
            s.total_ns > 0.0,
            "{subsystem}: span #{} cost nothing",
            s.seq
        );
        assert!(
            !s.stages.is_empty(),
            "{subsystem}: span #{} has no stages",
            s.seq
        );
        assert!(
            (s.attributed_ns() - s.total_ns).abs() < 1e-6,
            "{subsystem}: span #{} attributes {:.3} of {:.3} ns",
            s.seq,
            s.attributed_ns(),
            s.total_ns
        );
    }
}

#[test]
fn router_spans_conserve_stage_attribution() {
    let scenario = Scenario::router();
    let mut lfp = LinuxFpPlatform::new(scenario);
    let mac = lfp.dut_mac();
    let ring = lfp.kernel_mut().enable_flight_recorder(256, 1);
    for i in 0..8u64 {
        lfp.process(scenario.frame(mac, i, 60));
    }
    // A frame for the DUT itself and one with a corrupt IPv4 checksum:
    // both punt, one to local delivery and one to a drop.
    lfp.process(builder::udp_packet(
        SOURCE_MAC,
        mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 0, 1, 1),
        4000,
        4791,
        b"for the host",
    ));
    let mut corrupt = scenario.frame(mac, 8, 60);
    corrupt[25] = !corrupt[25];
    lfp.process(corrupt);
    let spans = ring.recent();
    assert_eq!(spans.len(), 10, "1-in-1 sampling records every packet");
    assert_spans_conserve(&spans, "router");
    // The breakdown `linuxfp_trace` prints puts every packet in exactly
    // one regime/disposition group.
    let breakdown = CostBreakdown::from_spans(&spans);
    assert_eq!(breakdown.packets(), 10);
    let groups: Vec<String> = breakdown
        .rows()
        .iter()
        .map(|r| format!("{}/{}", r.0.as_str(), r.1))
        .collect();
    for want in ["fastpath/transmit", "punt/deliver", "punt/drop"] {
        assert!(groups.iter().any(|g| g == want), "no {want} in {groups:?}");
    }
    // The steady state must include fast-path spans, and those must
    // attribute the VM run.
    assert!(
        spans.iter().any(|s| s.events.iter().any(|e| matches!(
            e,
            TraceEvent::Vm {
                verdict: "redirect",
                ..
            }
        ))),
        "router never redirected on the fast path"
    );
}

#[test]
fn bridge_spans_conserve_stage_attribution() {
    let registry = Registry::new();
    let (mut k, [p1, p2, _eth0, _eth1]) = mixed_kernel();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry),
        ..ControllerConfig::default()
    };
    let (_ctrl, _) = Controller::attach(&mut k, cfg).unwrap();
    let ring = k.enable_flight_recorder(256, 1);
    k.receive(p1, bridged_frame(1, 2)); // flood + learn
    for _ in 0..4 {
        k.receive(p2, bridged_frame(2, 1)); // learned unicast
    }
    let spans = ring.recent();
    assert_eq!(spans.len(), 5);
    assert_spans_conserve(&spans, "bridge");
}

#[test]
fn filter_spans_conserve_stage_attribution_and_carry_drop_reasons() {
    let registry = Registry::new();
    let (mut k, [_p1, _p2, eth0, _eth1]) = mixed_kernel();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry),
        ..ControllerConfig::default()
    };
    let (_ctrl, _) = Controller::attach(&mut k, cfg).unwrap();
    let ring = k.enable_flight_recorder(256, 1);
    for _ in 0..4 {
        let out = k.receive(eth0, routed_frame(&k, eth0, 7));
        assert!(out.transmissions().is_empty(), "blacklisted dst forwarded");
    }
    let spans = ring.recent();
    assert_eq!(spans.len(), 4);
    assert_spans_conserve(&spans, "filter");
    // Every drop names a machine-readable taxonomy reason.
    for s in &spans {
        let reasons: Vec<&str> = s
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { reason } => Some(reason.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(reasons.len(), 1, "span #{} drops: {reasons:?}", s.seq);
    }
}

#[test]
fn ipvs_spans_conserve_stage_attribution() {
    const VIP: Ipv4Addr = Ipv4Addr::new(10, 96, 0, 10);
    let mut k = Kernel::new(47);
    let eth0 = k.add_physical("eth0").unwrap();
    let eth1 = k.add_physical("eth1").unwrap();
    k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_link_set_up(eth0).unwrap();
    k.ip_link_set_up(eth1).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    let now = k.now();
    assert!(k.ipvsadm_add_service(VIP, 53, IpProto::Udp, Scheduler::RoundRobin));
    for i in 0..2u8 {
        let backend = Ipv4Addr::new(10, 0, 2, 10 + i);
        k.neigh
            .learn(backend, MacAddr::from_index(0xB0 + u64::from(i)), eth1, now);
        assert!(k.ipvsadm_add_backend(VIP, 53, IpProto::Udp, backend, 53));
    }
    let (_ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    let ring = k.enable_flight_recorder(256, 1);
    // Same flow twice: first packet schedules in the slow path and pins
    // the binding, the second rewrites on the fast path.
    for _ in 0..2 {
        let q = builder::udp_packet(
            MacAddr::from_index(0xAAAA),
            k.device(eth0).unwrap().mac,
            Ipv4Addr::new(10, 0, 1, 100),
            VIP,
            40001,
            53,
            b"query",
        );
        let out = k.receive(eth0, q);
        assert_eq!(out.transmissions().len(), 1, "vip query not forwarded");
    }
    let spans = ring.recent();
    assert_eq!(spans.len(), 2);
    assert_spans_conserve(&spans, "ipvs");
}

#[test]
fn nat_spans_conserve_stage_attribution_and_record_rewrites() {
    const PUBLIC_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const UPSTREAM_GW: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 254);
    const REMOTE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 100);
    let mut k = Kernel::new(48);
    let lan = k.add_physical("lan0").unwrap();
    let wan = k.add_physical("wan0").unwrap();
    k.ip_addr_add(lan, "10.0.1.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_addr_add(wan, format!("{PUBLIC_IP}/24").parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_link_set_up(lan).unwrap();
    k.ip_link_set_up(wan).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    k.ip_route_add("198.51.100.0/24".parse().unwrap(), Some(UPSTREAM_GW), None)
        .unwrap();
    let now = k.now();
    k.neigh
        .learn(UPSTREAM_GW, MacAddr::from_index(0x0E0E), wan, now);
    k.neigh.learn(CLIENT, MacAddr::from_index(0xC11E), lan, now);
    assert!(k.iptables_nat_append(
        NatChain::Postrouting,
        NatRule {
            out_if: Some(wan),
            ..NatRule::any(NatTarget::Masquerade)
        },
    ));
    let (_ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    let ring = k.enable_flight_recorder(256, 1);
    for _ in 0..2 {
        let pkt = builder::udp_packet(
            MacAddr::from_index(0xC11E),
            k.device(lan).unwrap().mac,
            CLIENT,
            REMOTE,
            5000,
            443,
            b"out",
        );
        let out = k.receive(lan, pkt);
        assert_eq!(out.transmissions().len(), 1, "masqueraded packet dropped");
    }
    let spans = ring.recent();
    assert_eq!(spans.len(), 2);
    assert_spans_conserve(&spans, "nat");
    // At least the slow-path packet records its rewrite as a NAT event.
    assert!(
        spans.iter().any(|s| s.events.iter().any(|e| matches!(
            e,
            TraceEvent::Nat {
                rewritten: true,
                ..
            }
        ))),
        "no NAT rewrite event in {spans:?}"
    );
}

/// The router scenario's two NICs synthesize one program: the deployer
/// builds it once and both interfaces load it. Building is host work
/// only — the verifier and optimizer series still count per interface,
/// exactly as when each interface built its own copy.
#[test]
fn identical_interfaces_share_one_build_and_keep_per_interface_series() {
    let registry = Registry::new();
    let _lfp =
        LinuxFpPlatform::with_telemetry(Scenario::router(), HookPoint::Xdp, registry.clone());
    let programs =
        |result| registry.counter_value("linuxfp_deploy_programs_total", &[("result", result)]);
    assert_eq!(programs("built"), Some(1));
    assert_eq!(programs("shared"), Some(1));

    let router = [("fpm", "router")];
    assert_eq!(registry.counter_total("linuxfp_verifier_accepted_total"), 2);
    assert_eq!(registry.counter_total("linuxfp_verifier_rejected_total"), 0);
    assert_eq!(
        registry.counter_value("linuxfp_opt_insns_before_total", &router),
        Some(2 * 104)
    );
    assert_eq!(
        registry.counter_value("linuxfp_opt_insns_after_total", &router),
        Some(2 * 72)
    );
    assert_eq!(
        registry.gauge_value("linuxfp_opt_insns_removed", &router),
        Some(32)
    );
    assert_eq!(
        registry.gauge_value("linuxfp_fp_program_insns", &router),
        Some(72)
    );
}
