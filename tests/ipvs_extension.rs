//! The ipvs load-balancing extension (paper §VIII future work, Table I
//! row 4): scheduling stays in the slow path, pinned flows are rewritten
//! on the fast path via the conntrack helper — and both paths always
//! produce identical packets.

use linuxfp::netstack::ipvs::Scheduler;
use linuxfp::packet::builder;
use linuxfp::packet::ipv4::IpProto;
use linuxfp::packet::{EthernetFrame, Ipv4Header, UdpHeader};
use linuxfp::prelude::*;
use std::net::Ipv4Addr;

const VIP: Ipv4Addr = Ipv4Addr::new(10, 96, 0, 10);

fn lb_kernel() -> (Kernel, IfIndex, IfIndex) {
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
    // Backends live on the eth1 subnet with warm ARP.
    let now = k.now();
    for i in 0..3u8 {
        let backend = Ipv4Addr::new(10, 0, 2, 10 + i);
        k.neigh
            .learn(backend, MacAddr::from_index(0xB0 + u64::from(i)), eth1, now);
    }
    // ipvsadm-equivalent configuration.
    assert!(k.ipvsadm_add_service(VIP, 53, IpProto::Udp, Scheduler::RoundRobin));
    for i in 0..3u8 {
        assert!(k.ipvsadm_add_backend(VIP, 53, IpProto::Udp, Ipv4Addr::new(10, 0, 2, 10 + i), 53));
    }
    (k, eth0, eth1)
}

fn vip_query(k: &Kernel, eth0: IfIndex, sport: u16) -> Vec<u8> {
    builder::udp_packet(
        MacAddr::from_index(0xAAAA),
        k.device(eth0).unwrap().mac,
        Ipv4Addr::new(10, 0, 1, 100),
        VIP,
        sport,
        53,
        b"query",
    )
}

fn tx_backend(out: &linuxfp::netstack::RxOutcome) -> (Ipv4Addr, u16) {
    let tx = out.transmissions();
    assert_eq!(
        tx.len(),
        1,
        "expected one forwarded packet: {:?}",
        out.effects
    );
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
    assert!(ip.verify_checksum(&tx[0].1[eth.payload_offset..]));
    let udp = UdpHeader::parse(&tx[0].1[eth.payload_offset + ip.header_len..]).unwrap();
    (ip.dst, udp.dst_port)
}

#[test]
fn slow_path_schedules_round_robin() {
    let (mut k, eth0, _) = lb_kernel();
    let mut backends = Vec::new();
    for sport in 0..6u16 {
        let out = k.receive(eth0, vip_query(&k, eth0, 40000 + sport));
        let (ip, port) = tx_backend(&out);
        assert_eq!(port, 53);
        backends.push(ip.octets()[3]);
    }
    assert_eq!(backends, vec![10, 11, 12, 10, 11, 12]);
}

#[test]
fn fast_path_takes_over_pinned_flows() {
    let (mut k, eth0, _) = lb_kernel();
    let (_ctrl, report) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    assert!(report.changed);
    // FPMs: ipvs + router per interface.
    assert!(report.fpm_count >= 4, "fpms {}", report.fpm_count);

    // First packet of the flow: conntrack miss on the fast path, punted;
    // the slow path schedules backend .10 and pins it.
    let out = k.receive(eth0, vip_query(&k, eth0, 40000));
    let (first_backend, _) = tx_backend(&out);
    assert_eq!(
        out.cost.stage_count("skb_alloc"),
        1,
        "first packet is slow-path"
    );
    assert_eq!(out.cost.stage_count("ipvs_sched"), 1);

    // Subsequent packets: rewritten and forwarded entirely on the XDP
    // fast path, same backend. The first two repeats interpret the
    // program (the pinning bumped the coherence generation, and a flow is
    // recorded on its second sighting under the new one); later repeats
    // hit the microflow verdict cache, skipping even the bpf_ct_lookup.
    for i in 0..4 {
        let out = k.receive(eth0, vip_query(&k, eth0, 40000));
        let (backend, port) = tx_backend(&out);
        assert_eq!(backend, first_backend, "affinity broken on fast path");
        assert_eq!(port, 53);
        assert_eq!(
            out.cost.stage_count("skb_alloc"),
            0,
            "pinned flow must be fast"
        );
        if i < 2 {
            assert_eq!(out.cost.stage_count("conntrack"), 1); // bpf_ct_lookup
        } else {
            assert_eq!(out.cost.stage_count("conntrack"), 0, "cached repeat");
            assert_eq!(out.cost.stage_count("flowcache_hit"), 1);
        }
        assert_eq!(
            out.cost.stage_count("ipvs_sched"),
            0,
            "no slow-path scheduling"
        );
    }
}

#[test]
fn both_paths_produce_identical_packets() {
    let (mut plain, p_eth0, _) = lb_kernel();
    let (mut fast, f_eth0, _) = lb_kernel();
    let (_ctrl, _) = Controller::attach(&mut fast, ControllerConfig::default()).unwrap();
    // Same deterministic packet sequence through both kernels: mixed
    // flows so scheduling, pinning and rewriting all engage.
    for i in 0..24u16 {
        let sport = 40000 + (i % 5);
        let out_p = plain.receive(p_eth0, vip_query(&plain, p_eth0, sport));
        let out_f = fast.receive(f_eth0, vip_query(&fast, f_eth0, sport));
        assert_eq!(
            out_p.transmissions(),
            out_f.transmissions(),
            "packet {i} diverged between paths"
        );
    }
}

#[test]
fn tcp_to_vip_stays_on_slow_path_but_balances() {
    let (mut k, eth0, _) = lb_kernel();
    assert!(k.ipvsadm_add_service(VIP, 80, IpProto::Tcp, Scheduler::RoundRobin));
    assert!(k.ipvsadm_add_backend(VIP, 80, IpProto::Tcp, Ipv4Addr::new(10, 0, 2, 10), 8080));
    let (_ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
    let frame = builder::tcp_packet(
        MacAddr::from_index(0xAAAA),
        k.device(eth0).unwrap().mac,
        Ipv4Addr::new(10, 0, 1, 100),
        VIP,
        50000,
        80,
        linuxfp::packet::tcp::TcpFlags {
            syn: true,
            ..Default::default()
        },
        b"",
    );
    // Twice: both times slow path (TCP is not accelerated), both times
    // to the pinned backend with the rewritten port.
    for _ in 0..2 {
        let out = k.receive(eth0, frame.clone());
        assert_eq!(out.cost.stage_count("skb_alloc"), 1);
        let tx = out.transmissions();
        assert_eq!(tx.len(), 1);
        let eth = EthernetFrame::parse(tx[0].1).unwrap();
        let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
        assert_eq!(ip.dst, Ipv4Addr::new(10, 0, 2, 10));
        let tcp = linuxfp::packet::TcpHeader::parse(&tx[0].1[eth.payload_offset + ip.header_len..])
            .unwrap();
        assert_eq!(tcp.dst_port, 8080);
    }
}

#[test]
fn least_conn_scheduler_via_standard_api() {
    let (mut k, eth0, _) = lb_kernel();
    assert!(k.ipvsadm_add_service(VIP, 5353, IpProto::Udp, Scheduler::LeastConn));
    for i in 0..2u8 {
        assert!(k.ipvsadm_add_backend(
            VIP,
            5353,
            IpProto::Udp,
            Ipv4Addr::new(10, 0, 2, 10 + i),
            5353
        ));
    }
    let mut seen = std::collections::HashSet::new();
    for sport in 0..2u16 {
        let frame = builder::udp_packet(
            MacAddr::from_index(0xAAAA),
            k.device(eth0).unwrap().mac,
            Ipv4Addr::new(10, 0, 1, 100),
            VIP,
            41000 + sport,
            5353,
            b"lc",
        );
        let out = k.receive(eth0, frame);
        seen.insert(tx_backend(&out).0);
    }
    assert_eq!(seen.len(), 2, "least-conn should spread new flows");
}

#[test]
fn without_ct_helper_no_fast_path_but_lb_still_works() {
    let (mut k, eth0, _) = lb_kernel();
    let cfg = ControllerConfig {
        hook: HookPoint::Xdp,
        capabilities: Capabilities::full().without(linuxfp::ebpf::HelperId::CtLookup),
        ..ControllerConfig::default()
    };
    let (ctrl, _) = Controller::attach(&mut k, cfg).unwrap();
    // No fast path deployed (a router-only one would bypass the LB).
    assert!(ctrl.deployer().active_interfaces().is_empty());
    // But the service still works through the slow path.
    let out = k.receive(eth0, vip_query(&k, eth0, 40000));
    let (backend, _) = tx_backend(&out);
    assert_eq!(backend.octets()[3], 10);
}
