//! The NAT44 fast path (fifth subsystem): iptables DNAT / MASQUERADE
//! evaluated in the slow path, established bindings translated on the
//! fast path via `bpf_nat_lookup` — and both paths always produce
//! byte-identical frames, in both flow directions.

use linuxfp::netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp::packet::builder;
use linuxfp::packet::ipv4::IpProto;
use linuxfp::packet::{EthernetFrame, Ipv4Header, UdpHeader};
use linuxfp::prelude::*;
use std::net::Ipv4Addr;

/// The gateway's single public address (on `wan0`).
const PUBLIC_IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
/// Upstream next hop for everything non-local.
const UPSTREAM_GW: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 254);
/// A host out on the internet.
const REMOTE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
/// An inside client behind the masquerade.
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 100);
/// An inside server published through a DNAT port-forward.
const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 50);

/// A home-router style NAT gateway: `lan0` holds the RFC 1918 subnet,
/// `wan0` the public address; outbound traffic is masqueraded and
/// `PUBLIC_IP:8080/udp` is port-forwarded to `SERVER:80`.
fn nat_kernel() -> (Kernel, IfIndex, IfIndex) {
    let mut k = Kernel::new(48);
    let lan = k.add_physical("lan0").unwrap();
    let wan = k.add_physical("wan0").unwrap();
    k.ip_addr_add(lan, "10.0.1.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_addr_add(wan, "203.0.113.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_link_set_up(lan).unwrap();
    k.ip_link_set_up(wan).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    k.ip_route_add("198.51.100.0/24".parse().unwrap(), Some(UPSTREAM_GW), None)
        .unwrap();
    // Warm ARP on both sides so neither path ever queues on resolution.
    let now = k.now();
    k.neigh
        .learn(UPSTREAM_GW, MacAddr::from_index(0x0E0E), wan, now);
    k.neigh.learn(CLIENT, MacAddr::from_index(0xC11E), lan, now);
    k.neigh.learn(SERVER, MacAddr::from_index(0x5E17), lan, now);
    // iptables -t nat -A PREROUTING -p udp -d 203.0.113.1 --dport 8080 \
    //     -j DNAT --to-destination 10.0.1.50:80
    assert!(k.iptables_nat_append(
        NatChain::Prerouting,
        NatRule {
            dst: Some("203.0.113.1/32".parse().unwrap()),
            proto: Some(IpProto::Udp),
            dport: Some(8080),
            ..NatRule::any(NatTarget::Dnat {
                to: SERVER,
                to_port: Some(80),
            })
        },
    ));
    // iptables -t nat -A POSTROUTING -o wan0 -j MASQUERADE
    assert!(k.iptables_nat_append(
        NatChain::Postrouting,
        NatRule {
            out_if: Some(wan),
            ..NatRule::any(NatTarget::Masquerade)
        },
    ));
    (k, lan, wan)
}

/// An inside client's outbound datagram (to be masqueraded).
fn outbound(k: &Kernel, lan: IfIndex, sport: u16) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0xC11E),
        k.device(lan).unwrap().mac,
        CLIENT,
        REMOTE,
        sport,
        53,
        b"query",
    )
}

/// The remote's reply to a masqueraded flow (to be un-translated).
fn inbound_reply(k: &Kernel, wan: IfIndex, dport: u16) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0x0E0E),
        k.device(wan).unwrap().mac,
        REMOTE,
        PUBLIC_IP,
        53,
        dport,
        b"answer",
    )
}

/// A remote client hitting the DNAT port-forward.
fn inbound_dnat(k: &Kernel, wan: IfIndex, sport: u16) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0x0E0E),
        k.device(wan).unwrap().mac,
        REMOTE,
        PUBLIC_IP,
        sport,
        8080,
        b"GET /",
    )
}

/// The inside server's reply to a port-forwarded flow.
fn dnat_reply(k: &Kernel, lan: IfIndex, dport: u16) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0x5E17),
        k.device(lan).unwrap().mac,
        SERVER,
        REMOTE,
        80,
        dport,
        b"200 OK",
    )
}

/// Parses the single forwarded frame out of an outcome.
fn tx_tuple(out: &linuxfp::netstack::RxOutcome) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
    let tx = out.transmissions();
    assert_eq!(
        tx.len(),
        1,
        "expected one forwarded frame: {:?}",
        out.effects
    );
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
    assert!(ip.verify_checksum(&tx[0].1[eth.payload_offset..]));
    let udp = UdpHeader::parse(&tx[0].1[eth.payload_offset + ip.header_len..]).unwrap();
    (ip.src, udp.src_port, ip.dst, udp.dst_port)
}

#[test]
fn slow_path_masquerades_and_untranslates_replies() {
    let (mut k, lan, wan) = nat_kernel();
    let out = k.receive(lan, outbound(&k, lan, 40000));
    let (src, sport, dst, dport) = tx_tuple(&out);
    assert_eq!((src, dst, dport), (PUBLIC_IP, REMOTE, 53));
    assert!((32768..=61000).contains(&sport), "allocated port {sport}");
    // The reply to the allocated port flows back to the inside client.
    let out = k.receive(wan, inbound_reply(&k, wan, sport));
    assert_eq!(tx_tuple(&out), (REMOTE, 53, CLIENT, 40000));
    // Distinct flows get distinct public ports.
    let out = k.receive(lan, outbound(&k, lan, 40001));
    let (_, sport2, _, _) = tx_tuple(&out);
    assert_ne!(sport, sport2);
}

#[test]
fn slow_path_port_forwards_through_dnat() {
    let (mut k, lan, wan) = nat_kernel();
    let out = k.receive(wan, inbound_dnat(&k, wan, 5555));
    assert_eq!(tx_tuple(&out), (REMOTE, 5555, SERVER, 80));
    // The server's reply leaves as the public address and port.
    let out = k.receive(lan, dnat_reply(&k, lan, 5555));
    assert_eq!(tx_tuple(&out), (PUBLIC_IP, 8080, REMOTE, 5555));
}

#[test]
fn fast_path_takes_over_established_bindings() {
    let (mut k, lan, wan) = nat_kernel();
    let (_ctrl, report) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    assert!(report.changed);
    // router + nat on both interfaces.
    assert!(report.fpm_count >= 4, "fpms {}", report.fpm_count);

    // First packet: `bpf_nat_lookup` misses (a rule *could* claim the
    // flow), the slow path evaluates the chains and installs the binding.
    let out = k.receive(lan, outbound(&k, lan, 40000));
    let (_, sport, _, _) = tx_tuple(&out);
    assert_eq!(out.cost.stage_count("skb_alloc"), 1, "first packet punts");

    // Established forward direction: translated entirely in XDP. The
    // first two repeats interpret (installing the binding bumped the
    // coherence generation, and a flow is recorded on its second sighting
    // under the new one); later repeats hit the microflow verdict cache
    // and skip even the bpf_nat_lookup.
    for i in 0..4 {
        let out = k.receive(lan, outbound(&k, lan, 40000));
        assert_eq!(tx_tuple(&out), (PUBLIC_IP, sport, REMOTE, 53));
        assert_eq!(out.cost.stage_count("skb_alloc"), 0, "must stay fast");
        if i < 2 {
            assert_eq!(out.cost.stage_count("nat_lookup"), 1); // bpf_nat_lookup
        } else {
            assert_eq!(out.cost.stage_count("nat_lookup"), 0, "cached repeat");
            assert_eq!(out.cost.stage_count("flowcache_hit"), 1);
        }
    }
    // Replies hit the same binding from the other side — fast from the
    // very first one, since the forward packet already bound.
    for _ in 0..3 {
        let out = k.receive(wan, inbound_reply(&k, wan, sport));
        assert_eq!(tx_tuple(&out), (REMOTE, 53, CLIENT, 40000));
        assert_eq!(out.cost.stage_count("skb_alloc"), 0, "reply must be fast");
    }
}

#[test]
fn both_paths_produce_identical_frames() {
    let (mut plain, p_lan, p_wan) = nat_kernel();
    let (mut fast, f_lan, f_wan) = nat_kernel();
    let (_ctrl, _) = Controller::attach(&mut fast, ControllerConfig::default()).unwrap();
    // The same deterministic mixed sequence through both kernels: fresh
    // masquerades, established flows (forward and reply), the DNAT
    // port-forward and its replies all engage.
    for i in 0..30u16 {
        let (p, f) = match i % 5 {
            0 | 1 => {
                let sport = 40000 + (i % 3);
                (
                    plain.receive(p_lan, outbound(&plain, p_lan, sport)),
                    fast.receive(f_lan, outbound(&fast, f_lan, sport)),
                )
            }
            2 => {
                // Reply to the first masqueraded flow's allocated port
                // (the cursor starts at 32768 in both kernels).
                (
                    plain.receive(p_wan, inbound_reply(&plain, p_wan, 32768)),
                    fast.receive(f_wan, inbound_reply(&fast, f_wan, 32768)),
                )
            }
            3 => (
                plain.receive(p_wan, inbound_dnat(&plain, p_wan, 5000 + i)),
                fast.receive(f_wan, inbound_dnat(&fast, f_wan, 5000 + i)),
            ),
            _ => (
                plain.receive(p_lan, dnat_reply(&plain, p_lan, 5000 + i - 1)),
                fast.receive(f_lan, dnat_reply(&fast, f_lan, 5000 + i - 1)),
            ),
        };
        assert_eq!(
            p.transmissions(),
            f.transmissions(),
            "frame {i} diverged between slow and fast path"
        );
    }
}

#[test]
fn conservation_law_holds_with_nat_traffic() {
    let registry = Registry::new();
    let (mut k, lan, wan) = nat_kernel();
    k.set_telemetry(registry.clone());
    let cfg = ControllerConfig {
        telemetry: Some(registry.clone()),
        ..ControllerConfig::default()
    };
    let (_ctrl, _) = Controller::attach(&mut k, cfg).unwrap();

    let mut injected = 0u64;
    for sport in [40000u16, 40001, 40002] {
        for _ in 0..3 {
            k.receive(lan, outbound(&k, lan, sport));
            injected += 1;
        }
    }
    let out = k.receive(lan, outbound(&k, lan, 40000));
    let (_, public_port, _, _) = tx_tuple(&out);
    injected += 1;
    for _ in 0..3 {
        k.receive(wan, inbound_reply(&k, wan, public_port));
        injected += 1;
    }
    for _ in 0..2 {
        k.receive(wan, inbound_dnat(&k, wan, 5555));
        injected += 1;
    }

    // Every injected packet was decided exactly once: as a fast-path hit
    // or a slow-path fallback.
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    let total = registry.counter_total("linuxfp_packets_injected_total");
    assert_eq!(total, injected);
    assert_eq!(hits + fallbacks, total, "packet lost or double-counted");
    assert!(hits > 0, "established NAT flows must hit the fast path");
    assert!(fallbacks > 0, "fresh flows must fall back to bind");
    // NAT's own ledger was fed by both paths through the same counters.
    assert!(registry.counter_total("linuxfp_nat_translations_total") > 0);
    assert!(registry.counter_total("linuxfp_nat_reply_hits_total") > 0);
    assert_eq!(
        registry.counter_total("linuxfp_nat_port_exhaustion_total"),
        0
    );
}

#[test]
fn tcp_nat_stays_on_slow_path_but_translates() {
    let (mut k, lan, _) = nat_kernel();
    let (_ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    let frame = builder::tcp_packet(
        MacAddr::from_index(0xC11E),
        k.device(lan).unwrap().mac,
        CLIENT,
        REMOTE,
        50000,
        443,
        linuxfp::packet::tcp::TcpFlags {
            syn: true,
            ..Default::default()
        },
        b"",
    );
    // Twice: the helper reports TCP as a miss, so every packet punts —
    // but each one still leaves correctly masqueraded.
    for _ in 0..2 {
        let out = k.receive(lan, frame.clone());
        assert_eq!(out.cost.stage_count("skb_alloc"), 1, "TCP is slow-path");
        let tx = out.transmissions();
        assert_eq!(tx.len(), 1);
        let eth = EthernetFrame::parse(tx[0].1).unwrap();
        let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
        assert_eq!(ip.src, PUBLIC_IP, "masqueraded");
        let tcp = linuxfp::packet::TcpHeader::parse(&tx[0].1[eth.payload_offset + ip.header_len..])
            .unwrap();
        assert_eq!(tcp.dst_port, 443);
    }
}

#[test]
fn without_nat_helper_everything_degrades_to_slow_path() {
    let (mut plain, p_lan, p_wan) = nat_kernel();
    let (mut k, lan, wan) = nat_kernel();
    let cfg = ControllerConfig {
        capabilities: Capabilities::full().without(linuxfp::ebpf::HelperId::NatLookup),
        ..ControllerConfig::default()
    };
    let (ctrl, _) = Controller::attach(&mut k, cfg).unwrap();
    // NAT is configured but `bpf_nat_lookup` is absent: accelerating
    // *any* interface could forward around a needed translation, so no
    // fast path is deployed at all.
    assert!(ctrl.deployer().active_interfaces().is_empty());
    // Observable behavior is identical to the never-accelerated kernel.
    for i in 0..12u16 {
        let (p, f) = match i % 3 {
            0 => (
                plain.receive(p_lan, outbound(&plain, p_lan, 41000 + i)),
                k.receive(lan, outbound(&k, lan, 41000 + i)),
            ),
            1 => (
                plain.receive(p_wan, inbound_dnat(&plain, p_wan, 6000 + i)),
                k.receive(wan, inbound_dnat(&k, wan, 6000 + i)),
            ),
            _ => (
                plain.receive(p_wan, inbound_reply(&plain, p_wan, 32768)),
                k.receive(wan, inbound_reply(&k, wan, 32768)),
            ),
        };
        assert_eq!(p.transmissions(), f.transmissions(), "frame {i}");
        assert_eq!(f.cost.stage_count("skb_alloc"), 1, "everything punts");
    }
}

#[test]
fn flushing_nat_rules_restores_the_plain_router_fast_path() {
    let (mut k, lan, _) = nat_kernel();
    let (mut ctrl, report) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    assert!(report.changed);
    // `iptables -t nat -F` publishes a netlink event; the controller
    // reacts by swapping in nat-less pipelines.
    k.iptables_nat_flush();
    let report = ctrl.poll(&mut k).unwrap().expect("nat flush must redeploy");
    assert!(report.changed);
    // Plain forwarding runs on the fast path without any nat stage.
    let out = k.receive(lan, outbound(&k, lan, 42000));
    let out2 = k.receive(lan, outbound(&k, lan, 42000));
    assert_eq!(
        out.cost.stage_count("nat_lookup") + out2.cost.stage_count("nat_lookup"),
        0
    );
    assert_eq!(
        out2.cost.stage_count("skb_alloc"),
        0,
        "router-only fast path"
    );
    // No translation anymore: the source leaves untouched.
    let (src, sport, _, _) = tx_tuple(&out2);
    assert_eq!((src, sport), (CLIENT, 42000));
}

/// The FPM kinds in every interface's pipeline of a processing graph.
fn graph_nfs(graph: &linuxfp::json::Value) -> Vec<String> {
    let interfaces = graph["interfaces"].as_object().expect("interfaces");
    interfaces
        .values()
        .flat_map(|entry| entry["pipeline"].as_array().expect("pipeline").iter())
        .map(|node| node["nf"].as_str().expect("nf").to_string())
        .collect()
}

/// Masqueraded flows bind, the nat table is flushed (the bindings keep
/// the NAT stage deployed), and the clock passes the bindings' timeout:
/// collecting them must tell the controller, once, so that the deployed
/// graph drops the stage exactly as a fresh introspection would.
#[test]
fn collecting_the_last_binding_after_a_flush_retires_the_nat_stage() {
    use linuxfp::core::graph::build_graph;
    use linuxfp::core::ObjectStore;
    use linuxfp::netstack::netlink::{NetlinkMessage, NlGroup};
    use linuxfp::packet::batch::Batch;

    // (a) housekeeping collects; (b) a burst's packet-path GC does.
    for via_burst in [false, true] {
        let (mut k, lan, _) = nat_kernel();
        let (mut ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
        for sport in 42000..42004 {
            let out = k.receive(lan, outbound(&k, lan, sport));
            assert_eq!(tx_tuple(&out).0, PUBLIC_IP, "masqueraded");
        }
        assert!(k.conntrack.nat_len() > 0);
        k.iptables_nat_flush();
        ctrl.poll(&mut k)
            .unwrap()
            .expect("nat flush reaches the controller");
        assert!(graph_nfs(ctrl.graph()).contains(&"nat".to_string()));

        let watcher = k.netlink_subscribe(&[NlGroup::Netfilter]);
        k.advance(k.conntrack.established_timeout + Nanos::from_secs(1));
        if via_burst {
            let mut batch = Batch::with_capacity(1);
            batch.push(outbound(&k, lan, 43000));
            k.inject_batch(lan, &mut batch);
        } else {
            assert!(k.run_housekeeping().nat_expired > 0);
        }
        assert_eq!(k.conntrack.nat_len(), 0);
        let published = k
            .netlink_poll(watcher)
            .iter()
            .filter(|m| matches!(m, NetlinkMessage::NatChanged { .. }))
            .count();
        assert_eq!(published, 1, "via_burst={via_burst}");

        let report = ctrl.poll(&mut k).unwrap().expect("the event is delivered");
        assert!(report.changed, "via_burst={via_burst}");
        let fresh = build_graph(&ObjectStore::snapshot(&k), &Capabilities::full());
        assert_eq!(ctrl.graph(), &fresh, "via_burst={via_burst}");
        assert!(!graph_nfs(&fresh).contains(&"nat".to_string()));

        // Later passes collect nothing new and publish nothing.
        k.advance(Nanos::from_secs(2));
        k.run_housekeeping();
        let mut batch = Batch::with_capacity(1);
        batch.push(outbound(&k, lan, 43001));
        k.inject_batch(lan, &mut batch);
        assert!(k.netlink_poll(watcher).is_empty(), "via_burst={via_burst}");
    }
}
