//! End-to-end tests of the simulated kernel's slow-path pipeline:
//! forwarding, ARP, ICMP, netfilter, bridging, veth, VXLAN, and hooks.

use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::netfilter::{ChainHook, IpSet, IptRule, PacketMeta};
use linuxfp_netstack::netlink::{NetlinkMessage, NlGroup};
use linuxfp_netstack::stack::{
    DropReason, Effect, FdbLookupOutcome, HookVerdict, IfAddr, Kernel, BPDU_MAC,
};
use linuxfp_packet::ipv4::{IpProto, Prefix};
use linuxfp_packet::{builder, EthernetFrame, Ipv4Header, MacAddr};
use linuxfp_sim::Nanos;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn addr(s: &str) -> IfAddr {
    s.parse().unwrap()
}

fn prefix(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// A router with eth0 (10.0.1.1/24) and eth1 (10.0.2.1/24), forwarding
/// enabled, with the next hop 10.0.2.2 pre-resolved.
fn router() -> (Kernel, IfIndex, IfIndex) {
    let mut k = Kernel::new(1);
    let eth0 = k.add_physical("eth0").unwrap();
    let eth1 = k.add_physical("eth1").unwrap();
    k.ip_addr_add(eth0, addr("10.0.1.1/24")).unwrap();
    k.ip_addr_add(eth1, addr("10.0.2.1/24")).unwrap();
    k.ip_link_set_up(eth0).unwrap();
    k.ip_link_set_up(eth1).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    // Destination network behind 10.0.2.2.
    k.ip_route_add(
        prefix("10.10.0.0/16"),
        Some(Ipv4Addr::new(10, 0, 2, 2)),
        None,
    )
    .unwrap();
    let now = k.now();
    k.neigh.learn(
        Ipv4Addr::new(10, 0, 2, 2),
        MacAddr::from_index(0xBEEF),
        eth1,
        now,
    );
    (k, eth0, eth1)
}

fn forward_test_frame(k: &Kernel, ingress: IfIndex) -> Vec<u8> {
    let router_mac = k.device(ingress).unwrap().mac;
    builder::udp_packet(
        MacAddr::from_index(0xAAAA),
        router_mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 10, 3, 7),
        1000,
        2000,
        b"payload",
    )
}

#[test]
fn forwards_with_rewrite_and_ttl_decrement() {
    let (mut k, eth0, eth1) = router();
    let frame = forward_test_frame(&k, eth0);
    let out = k.receive(eth0, frame);
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1);
    assert_eq!(tx[0].0, eth1);
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    assert_eq!(eth.dst, MacAddr::from_index(0xBEEF));
    assert_eq!(eth.src, k.device(eth1).unwrap().mac);
    let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
    assert_eq!(ip.ttl, 63);
    assert!(ip.verify_checksum(&tx[0].1[eth.payload_offset..]));
}

#[test]
fn forwarding_charges_expected_stages() {
    let (mut k, eth0, _) = router();
    let frame = forward_test_frame(&k, eth0);
    let out = k.receive(eth0, frame);
    for stage in [
        "driver_rx",
        "skb_alloc",
        "ip_rcv",
        "fib_lookup",
        "ip_forward",
        "neigh_lookup",
        "qdisc_xmit",
        "driver_tx",
    ] {
        assert_eq!(out.cost.stage_count(stage), 1, "missing stage {stage}");
    }
    // Plain Linux forwarding of a min-size packet costs ~1 microsecond in
    // the calibrated model (the paper-implied number).
    let total = out.cost.total_ns();
    assert!((900.0..1300.0).contains(&total), "total {total}");
}

#[test]
fn forwarding_disabled_drops() {
    let (mut k, eth0, _) = router();
    k.sysctl_set("net.ipv4.ip_forward", 0).unwrap();
    let frame = forward_test_frame(&k, eth0);
    let out = k.receive(eth0, frame);
    assert_eq!(out.drops(), vec!["forwarding disabled"]);
}

#[test]
fn no_route_drops() {
    let (mut k, eth0, _) = router();
    let router_mac = k.device(eth0).unwrap().mac;
    let frame = builder::udp_packet(
        MacAddr::from_index(1),
        router_mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(172, 16, 0, 1), // no route
        1,
        2,
        b"",
    );
    let out = k.receive(eth0, frame);
    assert_eq!(out.drops(), vec!["no route"]);
}

#[test]
fn ttl_expiry_drops() {
    let (mut k, eth0, _) = router();
    let mut frame = forward_test_frame(&k, eth0);
    // Set TTL to 1 and fix the checksum by rewriting the header.
    let eth = EthernetFrame::parse(&frame).unwrap();
    let off = eth.payload_offset;
    let ip = Ipv4Header::parse(&frame[off..]).unwrap();
    Ipv4Header::write(
        &mut frame[off..],
        ip.src,
        ip.dst,
        ip.proto,
        1,
        ip.id,
        ip.total_len,
        ip.dont_fragment,
    );
    let out = k.receive(eth0, frame);
    assert_eq!(out.drops(), vec!["ttl exceeded"]);
}

#[test]
fn bad_checksum_drops() {
    let (mut k, eth0, _) = router();
    let mut frame = forward_test_frame(&k, eth0);
    frame[20] ^= 0xFF; // corrupt an IP header byte
    let out = k.receive(eth0, frame);
    assert_eq!(out.drops(), vec!["bad ipv4 checksum"]);
}

#[test]
fn unresolved_next_hop_triggers_arp_and_queues() {
    let (mut k, eth0, eth1) = router();
    k.neigh.remove(Ipv4Addr::new(10, 0, 2, 2));
    let frame = forward_test_frame(&k, eth0);
    let out = k.receive(eth0, frame);
    // The only transmission is the ARP request out eth1.
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1);
    assert_eq!(tx[0].0, eth1);
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    assert!(eth.dst.is_broadcast());
    let arp = linuxfp_packet::ArpPacket::parse(&tx[0].1[eth.payload_offset..]).unwrap();
    assert_eq!(arp.target_ip, Ipv4Addr::new(10, 0, 2, 2));
    assert_eq!(arp.sender_ip, Ipv4Addr::new(10, 0, 2, 1));

    // The ARP reply releases the queued packet.
    let reply = arp.reply_to(MacAddr::from_index(0xBEEF));
    let reply_frame = builder::arp_frame(&reply, MacAddr::from_index(0xBEEF), arp.sender_mac);
    let out = k.receive(eth1, reply_frame);
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1, "queued packet should flush");
    assert_eq!(tx[0].0, eth1);
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    assert_eq!(eth.dst, MacAddr::from_index(0xBEEF));
}

#[test]
fn second_packet_to_unresolved_hop_does_not_rearp() {
    let (mut k, eth0, _) = router();
    k.neigh.remove(Ipv4Addr::new(10, 0, 2, 2));
    let out1 = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out1.transmissions().len(), 1); // the ARP request
    let out2 = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out2.transmissions().len(), 0, "no duplicate ARP");
}

#[test]
fn icmp_echo_to_local_address_is_answered() {
    let (mut k, eth0, _) = router();
    let router_mac = k.device(eth0).unwrap().mac;
    let src_mac = MacAddr::from_index(0xAAAA);
    let frame = builder::icmp_echo_request(
        src_mac,
        router_mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 0, 1, 1),
        7,
        1,
    );
    let out = k.receive(eth0, frame);
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1);
    let eth = EthernetFrame::parse(tx[0].1).unwrap();
    assert_eq!(eth.dst, src_mac);
    let ip = Ipv4Header::parse(&tx[0].1[eth.payload_offset..]).unwrap();
    assert_eq!(ip.src, Ipv4Addr::new(10, 0, 1, 1));
    assert_eq!(ip.dst, Ipv4Addr::new(10, 0, 1, 100));
    let icmp =
        linuxfp_packet::IcmpHeader::parse(&tx[0].1[eth.payload_offset + ip.header_len..]).unwrap();
    assert_eq!(icmp.icmp_type, linuxfp_packet::IcmpType::EchoReply);
    assert_eq!(icmp.seq, 1);
}

#[test]
fn udp_to_local_address_is_delivered() {
    let (mut k, eth0, _) = router();
    let router_mac = k.device(eth0).unwrap().mac;
    let frame = builder::udp_packet(
        MacAddr::from_index(1),
        router_mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 0, 1, 1),
        5000,
        53,
        b"query",
    );
    let out = k.receive(eth0, frame);
    assert_eq!(out.deliveries().len(), 1);
    assert_eq!(out.deliveries()[0].0, eth0);
}

#[test]
fn netfilter_forward_drop_blocks_blacklisted() {
    let (mut k, eth0, _) = router();
    k.iptables_append(
        ChainHook::Forward,
        IptRule::drop_dst(prefix("10.10.3.0/24")),
    );
    let out = k.receive(eth0, forward_test_frame(&k, eth0)); // dst 10.10.3.7
    assert_eq!(out.drops(), vec!["nf forward drop"]);
    // A destination outside the blacklist still forwards.
    let router_mac = k.device(eth0).unwrap().mac;
    let ok_frame = builder::udp_packet(
        MacAddr::from_index(1),
        router_mac,
        Ipv4Addr::new(10, 0, 1, 100),
        Ipv4Addr::new(10, 10, 4, 7),
        1,
        2,
        b"",
    );
    let out = k.receive(eth0, ok_frame);
    assert_eq!(out.transmissions().len(), 1);
}

#[test]
fn netfilter_cost_scales_with_rules_but_not_with_ipset() {
    let (mut k, eth0, _) = router();
    // 100 non-matching rules: pay the full linear scan.
    for i in 0..100u32 {
        k.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst(Prefix::new(Ipv4Addr::from(0xC0A8_0000 + (i << 8)), 24)),
        );
    }
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.cost.stage_count("nf_rule_match"), 100);
    assert_eq!(out.transmissions().len(), 1);

    // Same blacklist as one ipset rule: one match + one set lookup.
    k.iptables_flush(ChainHook::Forward);
    let mut set = IpSet::new_hash_net();
    for i in 0..100u32 {
        set.add(Prefix::new(Ipv4Addr::from(0xC0A8_0000 + (i << 8)), 24));
    }
    assert!(k.ipset_create("blacklist", set));
    k.iptables_append(ChainHook::Forward, IptRule::drop_dst_set("blacklist"));
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.cost.stage_count("nf_rule_match"), 1);
    assert_eq!(out.cost.stage_count("ipset_lookup"), 1);
}

#[test]
fn bridge_learns_and_forwards() {
    let mut k = Kernel::new(2);
    let p1 = k.add_physical("p1").unwrap();
    let p2 = k.add_physical("p2").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.brctl_addif(br, p2).unwrap();
    for d in [p1, p2, br] {
        k.ip_link_set_up(d).unwrap();
    }
    let host_a = MacAddr::from_index(0xA);
    let host_b = MacAddr::from_index(0xB);
    // A -> B unknown: flooded out p2.
    let f = builder::udp_packet(
        host_a,
        host_b,
        Ipv4Addr::new(192, 168, 0, 1),
        Ipv4Addr::new(192, 168, 0, 2),
        1,
        2,
        b"hi",
    );
    let out = k.receive(p1, f.clone());
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, p2);
    // B -> A: unicast (A was learned).
    let f_back = builder::udp_packet(
        host_b,
        host_a,
        Ipv4Addr::new(192, 168, 0, 2),
        Ipv4Addr::new(192, 168, 0, 1),
        2,
        1,
        b"yo",
    );
    let out = k.receive(p2, f_back);
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, p1);
    // FDB helper agrees.
    assert_eq!(
        k.helper_fdb_lookup(p1, host_a, host_b, 0),
        FdbLookupOutcome::Hit(p2)
    );
    // Unknown source: helper refuses (slow path must learn first).
    assert_eq!(
        k.helper_fdb_lookup(p1, MacAddr::from_index(0xF), host_b, 0),
        FdbLookupOutcome::SrcUnknown
    );
    // Hairpin (destination learned on the ingress port) reads as a miss:
    // the slow path then drops it.
    assert_eq!(
        k.helper_fdb_lookup(p1, host_a, host_a, 0),
        FdbLookupOutcome::DstMiss
    );
    // Non-bridge-port ingress: always punted.
    let lone = k.ifindex("p1").unwrap();
    let _ = lone;
}

#[test]
fn bpdus_are_consumed_by_stp() {
    let mut k = Kernel::new(3);
    let p1 = k.add_physical("p1").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.bridge_set_stp(br, true).unwrap();
    k.ip_link_set_up(p1).unwrap();
    k.ip_link_set_up(br).unwrap();
    let mut bpdu = vec![0u8; 60];
    EthernetFrame::write(
        &mut bpdu,
        BPDU_MAC,
        MacAddr::from_index(9),
        linuxfp_packet::EtherType::Other(0x0027),
    );
    let out = k.receive(p1, bpdu);
    assert_eq!(out.drops(), vec!["bpdu consumed"]);
    assert_eq!(k.bpdus_processed, 1);
}

#[test]
fn veth_pair_carries_frames_between_ends() {
    let mut k = Kernel::new(4);
    let (va, vb) = k.add_veth_pair("va", "vb").unwrap();
    let br = k.add_bridge("br0").unwrap();
    let p1 = k.add_physical("p1").unwrap();
    k.brctl_addif(br, vb).unwrap();
    k.brctl_addif(br, p1).unwrap();
    for d in [va, vb, br, p1] {
        k.ip_link_set_up(d).unwrap();
    }
    // A frame transmitted into va pops out at vb (a bridge port) and is
    // flooded to p1.
    let f = builder::udp_packet(
        MacAddr::from_index(0xA),
        MacAddr::from_index(0xB),
        Ipv4Addr::new(10, 244, 0, 2),
        Ipv4Addr::new(10, 244, 0, 3),
        1,
        2,
        b"pod",
    );
    let out = k.transmit_frame(va, f);
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, p1);
    assert_eq!(out.cost.stage_count("veth_cross"), 1);
}

#[test]
fn xdp_hook_runs_before_skb_alloc() {
    let (mut k, eth0, _) = router();
    k.attach_xdp(eth0, Arc::new(|_k, _p, _t, _tr| HookVerdict::Drop))
        .unwrap();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.drops(), vec!["xdp drop"]);
    assert_eq!(out.cost.stage_count("xdp_entry"), 1);
    assert_eq!(out.cost.stage_count("skb_alloc"), 0, "XDP avoids the skb");
}

#[test]
fn xdp_redirect_bypasses_slow_path() {
    let (mut k, eth0, eth1) = router();
    k.attach_xdp(
        eth0,
        Arc::new(move |_k, _p, _t, _tr| HookVerdict::Redirect(eth1)),
    )
    .unwrap();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, eth1);
    assert_eq!(out.cost.stage_count("skb_alloc"), 0);
    assert_eq!(out.cost.stage_count("fib_lookup"), 0);
}

#[test]
fn tc_hook_runs_after_skb_alloc() {
    let (mut k, eth0, _) = router();
    k.attach_tc_ingress(eth0, Arc::new(|_k, _p, _t, _tr| HookVerdict::Drop))
        .unwrap();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.drops(), vec!["tc drop"]);
    assert_eq!(out.cost.stage_count("skb_alloc"), 1, "TC pays for the skb");
    assert_eq!(out.cost.stage_count("tc_entry"), 1);
}

#[test]
fn hook_pass_falls_through_to_slow_path() {
    let (mut k, eth0, eth1) = router();
    k.attach_xdp(eth0, Arc::new(|_k, _p, _t, _tr| HookVerdict::Pass))
        .unwrap();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.transmissions().len(), 1);
    assert_eq!(out.transmissions()[0].0, eth1);
    assert_eq!(out.cost.stage_count("skb_alloc"), 1);
}

#[test]
fn detached_hooks_no_longer_run() {
    let (mut k, eth0, _) = router();
    k.attach_xdp(eth0, Arc::new(|_k, _p, _t, _tr| HookVerdict::Drop))
        .unwrap();
    k.detach_xdp(eth0);
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.transmissions().len(), 1);
    assert!(!k.device(eth0).unwrap().has_xdp);
}

#[test]
fn helper_fib_lookup_matches_slow_path() {
    let (mut k, _eth0, eth1) = router();
    let r = k.helper_fib_lookup(Ipv4Addr::new(10, 10, 3, 7)).unwrap();
    assert_eq!(r.ifindex, eth1);
    assert_eq!(r.dst_mac, MacAddr::from_index(0xBEEF));
    assert_eq!(r.src_mac, k.device(eth1).unwrap().mac);
    // Unresolved hop -> None (fast path punts).
    k.neigh.remove(Ipv4Addr::new(10, 0, 2, 2));
    assert!(k.helper_fib_lookup(Ipv4Addr::new(10, 10, 3, 7)).is_none());
    // No route -> None.
    assert!(k.helper_fib_lookup(Ipv4Addr::new(172, 16, 0, 1)).is_none());
}

#[test]
fn helper_ipt_lookup_uses_kernel_rules() {
    let (mut k, eth0, eth1) = router();
    k.iptables_append(
        ChainHook::Forward,
        IptRule::drop_dst(prefix("10.10.3.0/24")),
    );
    let meta = PacketMeta {
        src: Ipv4Addr::new(10, 0, 1, 100),
        dst: Ipv4Addr::new(10, 10, 3, 7),
        proto: IpProto::Udp,
        sport: 1,
        dport: 2,
        in_if: eth0,
        out_if: eth1,
    };
    let mut t = linuxfp_sim::CostTracker::new();
    assert_eq!(
        k.helper_ipt_lookup(&meta, &mut t),
        linuxfp_netstack::netfilter::NfVerdict::Drop
    );
}

#[test]
fn netlink_notifications_flow() {
    let mut k = Kernel::new(5);
    let sub = k.netlink_subscribe(&[
        NlGroup::Link,
        NlGroup::Addr,
        NlGroup::Route,
        NlGroup::Netfilter,
        NlGroup::Sysctl,
    ]);
    let eth0 = k.add_physical("eth0").unwrap();
    k.ip_addr_add(eth0, addr("10.0.0.1/24")).unwrap();
    k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
    k.iptables_append(ChainHook::Forward, IptRule::default());
    let msgs = k.netlink_poll(sub);
    assert!(msgs
        .iter()
        .any(|m| matches!(m, NetlinkMessage::NewLink(l) if l.name == "eth0")));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, NetlinkMessage::NewAddr { prefix_len: 24, .. })));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, NetlinkMessage::NewRoute(_))));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, NetlinkMessage::SysctlChanged { value: 1, .. })));
    assert!(msgs
        .iter()
        .any(|m| matches!(m, NetlinkMessage::NetfilterChanged { .. })));
    assert!(k.netlink_poll(sub).is_empty());
}

#[test]
fn dumps_reflect_configuration() {
    let (k, eth0, eth1) = router();
    let links = k.dump_links();
    assert_eq!(links.len(), 2);
    assert!(links.iter().all(|l| l.up));
    let routes = k.dump_routes();
    // Two connected + one static.
    assert_eq!(routes.len(), 3);
    assert!(routes
        .iter()
        .any(|r| r.via == Some(Ipv4Addr::new(10, 0, 2, 2))));
    assert_eq!(k.ifindex("eth0"), Some(eth0));
    assert_eq!(k.ifindex("eth1"), Some(eth1));
    assert_eq!(k.ifindex("nope"), None);
}

#[test]
fn vxlan_encapsulates_toward_remote_vtep() {
    let mut k = Kernel::new(6);
    let eth0 = k.add_physical("eth0").unwrap();
    k.ip_addr_add(eth0, addr("192.168.0.1/24")).unwrap();
    k.ip_link_set_up(eth0).unwrap();
    let vx = k
        .add_vxlan("flannel.1", 1, Ipv4Addr::new(192, 168, 0, 1), 4789)
        .unwrap();
    k.ip_link_set_up(vx).unwrap();
    let inner_dst = MacAddr::from_index(0x22);
    k.vxlan_fdb_add(vx, inner_dst, Ipv4Addr::new(192, 168, 0, 2))
        .unwrap();
    let now = k.now();
    k.neigh.learn(
        Ipv4Addr::new(192, 168, 0, 2),
        MacAddr::from_index(0x99),
        eth0,
        now,
    );

    let inner = builder::udp_packet(
        MacAddr::from_index(0x11),
        inner_dst,
        Ipv4Addr::new(10, 244, 1, 2),
        Ipv4Addr::new(10, 244, 2, 2),
        1,
        2,
        b"pod",
    );
    let out = k.transmit_frame(vx, inner.clone());
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1);
    assert_eq!(tx[0].0, eth0);
    let (vni, got) = builder::vxlan_decapsulate(tx[0].1).unwrap();
    assert_eq!(vni, 1);
    assert_eq!(got, inner);
    assert_eq!(out.cost.stage_count("vxlan_encap"), 1);

    // A broadcast, or a unicast MAC with no learned VTEP, floods one copy
    // to each default remote, in the order they were added.
    let defaults = [Ipv4Addr::new(192, 168, 0, 3), Ipv4Addr::new(192, 168, 0, 4)];
    for (i, vtep) in defaults.into_iter().enumerate() {
        k.vxlan_add_default_remote(vx, vtep).unwrap();
        k.neigh
            .learn(vtep, MacAddr::from_index(0x9a + i as u64), eth0, now);
    }
    for dst in [MacAddr::BROADCAST, MacAddr::from_index(0x33)] {
        let flooded = builder::udp_packet(
            MacAddr::from_index(0x11),
            dst,
            Ipv4Addr::new(10, 244, 1, 2),
            Ipv4Addr::new(10, 244, 2, 2),
            1,
            2,
            b"pod",
        );
        let out = k.transmit_frame(vx, flooded.clone());
        let outer_dsts: Vec<Ipv4Addr> = out
            .transmissions()
            .iter()
            .map(|(_, frame)| Ipv4Header::parse(&frame[14..]).unwrap().dst)
            .collect();
        assert_eq!(outer_dsts, defaults, "{dst:?}");
        for (_, frame) in out.transmissions() {
            assert_eq!(builder::vxlan_decapsulate(frame).unwrap().1, flooded);
        }
    }
    // A learned VTEP still wins over the defaults.
    assert_eq!(k.transmit_frame(vx, inner).transmissions().len(), 1);
}

#[test]
fn vxlan_receive_decapsulates_into_bridge() {
    let mut k = Kernel::new(7);
    let eth0 = k.add_physical("eth0").unwrap();
    k.ip_addr_add(eth0, addr("192.168.0.2/24")).unwrap();
    let vx = k
        .add_vxlan("flannel.1", 1, Ipv4Addr::new(192, 168, 0, 2), 4789)
        .unwrap();
    let br = k.add_bridge("cni0").unwrap();
    let p1 = k.add_physical("pod-port").unwrap();
    k.brctl_addif(br, vx).unwrap();
    k.brctl_addif(br, p1).unwrap();
    for d in [eth0, vx, br, p1] {
        k.ip_link_set_up(d).unwrap();
    }
    let inner = builder::udp_packet(
        MacAddr::from_index(0x11),
        MacAddr::from_index(0x22),
        Ipv4Addr::new(10, 244, 1, 2),
        Ipv4Addr::new(10, 244, 2, 2),
        1,
        2,
        b"pod",
    );
    let outer = builder::vxlan_encapsulate(
        &inner,
        1,
        MacAddr::from_index(0x99),
        k.device(eth0).unwrap().mac,
        Ipv4Addr::new(192, 168, 0, 1),
        Ipv4Addr::new(192, 168, 0, 2),
        49152,
    );
    let out = k.receive(eth0, outer);
    // Inner frame floods out the other bridge port.
    let tx = out.transmissions();
    assert_eq!(tx.len(), 1);
    assert_eq!(tx[0].0, p1);
    assert_eq!(tx[0].1, inner.as_slice());
    assert_eq!(out.cost.stage_count("vxlan_decap"), 1);
}

#[test]
fn config_errors_are_reported() {
    let mut k = Kernel::new(8);
    let eth0 = k.add_physical("eth0").unwrap();
    assert!(k.add_physical("eth0").is_err());
    assert!(k.ip_link_set_up(IfIndex(99)).is_err());
    assert!(k.ip_addr_add(IfIndex(99), addr("1.1.1.1/24")).is_err());
    k.ip_addr_add(eth0, addr("1.1.1.1/24")).unwrap();
    assert!(k.ip_addr_add(eth0, addr("1.1.1.1/24")).is_err());
    assert!(k.ip_route_add(prefix("9.9.9.0/24"), None, None).is_err());
    assert!(k
        .ip_route_add(prefix("9.9.9.0/24"), Some(Ipv4Addr::new(8, 8, 8, 8)), None)
        .is_err());
    assert!(k.ip_route_del(prefix("9.9.9.0/24"), None).is_err());
    assert!(k.sysctl_set("net.ipv4.nonsense", 1).is_err());
    assert!(k.brctl_addif(eth0, eth0).is_err());
    assert!(k.brctl_delif(eth0, eth0).is_err());
    assert!("10.0.0.1".parse::<IfAddr>().is_err());
    assert!("10.0.0.1/33".parse::<IfAddr>().is_err());
    assert!("x/24".parse::<IfAddr>().is_err());
}

#[test]
fn down_device_drops_everything() {
    let (mut k, eth0, _) = router();
    k.ip_link_set_down(eth0).unwrap();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.drops(), vec!["device down"]);
}

#[test]
fn addr_del_removes_connected_route() {
    let mut k = Kernel::new(9);
    let eth0 = k.add_physical("eth0").unwrap();
    k.ip_addr_add(eth0, addr("10.0.0.1/24")).unwrap();
    assert_eq!(k.dump_routes().len(), 1);
    k.ip_addr_del(eth0, addr("10.0.0.1/24")).unwrap();
    assert_eq!(k.dump_routes().len(), 0);
    assert!(k.ip_addr_del(eth0, addr("10.0.0.1/24")).is_err());
}

#[test]
fn conntrack_tracks_forwarded_flows_when_enabled() {
    let (mut k, eth0, _) = router();
    k.conntrack_forward = true;
    k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(k.conntrack.len(), 1);
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert_eq!(out.cost.stage_count("conntrack"), 1);
    assert_eq!(k.conntrack.len(), 1); // same flow
}

#[test]
fn aging_after_advance_expires_fdb() {
    let mut k = Kernel::new(10);
    let p1 = k.add_physical("p1").unwrap();
    let p2 = k.add_physical("p2").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.brctl_addif(br, p2).unwrap();
    for d in [p1, p2, br] {
        k.ip_link_set_up(d).unwrap();
    }
    let a = MacAddr::from_index(0xA);
    let b = MacAddr::from_index(0xB);
    let f = builder::udp_packet(
        a,
        b,
        Ipv4Addr::new(1, 1, 1, 1),
        Ipv4Addr::new(1, 1, 1, 2),
        1,
        2,
        b"",
    );
    k.receive(p1, f); // learn a@p1
    assert_eq!(
        k.helper_fdb_lookup(p2, b, a, 0),
        FdbLookupOutcome::SrcUnknown
    ); // b unknown yet
    let f_back = builder::udp_packet(
        b,
        a,
        Ipv4Addr::new(1, 1, 1, 2),
        Ipv4Addr::new(1, 1, 1, 1),
        2,
        1,
        b"",
    );
    k.receive(p2, f_back); // learn b@p2
    assert_eq!(k.helper_fdb_lookup(p1, a, b, 0), FdbLookupOutcome::Hit(p2));
    // After 301 simulated seconds both entries age out.
    k.advance(Nanos::from_secs(301));
    assert_eq!(
        k.helper_fdb_lookup(p1, a, b, 0),
        FdbLookupOutcome::SrcUnknown
    );
}

#[test]
fn effects_and_outcome_accessors() {
    let e = Effect::Drop {
        reason: DropReason::NoRoute,
    };
    assert!(format!("{e:?}").contains("Drop"));
    let (mut k, eth0, _) = router();
    let out = k.receive(eth0, forward_test_frame(&k, eth0));
    assert!(out.drops().is_empty());
    assert!(out.deliveries().is_empty());
    assert_eq!(out.transmissions().len(), 1);
}

#[test]
fn neigh_dump_reflects_learned_entries() {
    let (k, _, _) = router();
    let neigh = k.dump_neigh();
    assert_eq!(neigh.len(), 1);
    assert_eq!(neigh[0].0, Ipv4Addr::new(10, 0, 2, 2));
    assert_eq!(neigh[0].1.mac, MacAddr::from_index(0xBEEF));
}

#[test]
fn device_counters_track_traffic() {
    let (mut k, eth0, eth1) = router();
    let before = k.dev_counters(eth0);
    assert_eq!(before.rx_packets, 0);
    let frame = forward_test_frame(&k, eth0);
    let len = frame.len() as u64;
    k.receive(eth0, frame);
    let rx = k.dev_counters(eth0);
    assert_eq!(rx.rx_packets, 1);
    assert_eq!(rx.rx_bytes, len);
    let tx = k.dev_counters(eth1);
    assert_eq!(tx.tx_packets, 1);
    assert_eq!(tx.tx_bytes, len);
}

#[test]
fn housekeeping_collects_expired_state() {
    let mut k = Kernel::new(44);
    let p1 = k.add_physical("p1").unwrap();
    let p2 = k.add_physical("p2").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.brctl_addif(br, p2).unwrap();
    for d in [p1, p2, br] {
        k.ip_link_set_up(d).unwrap();
    }
    k.conntrack_forward = true;
    // Populate FDB + conntrack + neighbors, then jump far into the future.
    let f = builder::udp_packet(
        MacAddr::from_index(0xA),
        MacAddr::from_index(0xB),
        Ipv4Addr::new(1, 1, 1, 1),
        Ipv4Addr::new(1, 1, 1, 2),
        1,
        2,
        b"x",
    );
    k.receive(p1, f);
    let now = k.now();
    k.neigh
        .learn(Ipv4Addr::new(9, 9, 9, 9), MacAddr::from_index(9), p1, now);
    k.advance(Nanos::from_secs(3600));
    let report = k.run_housekeeping();
    assert!(report.fdb_expired >= 1, "{report:?}");
    assert!(report.neigh_expired >= 1, "{report:?}");
    assert_eq!(k.bridge(br).unwrap().fdb_len(), 0);
    // Nothing left to collect on a second pass.
    let again = k.run_housekeeping();
    assert_eq!(
        again,
        linuxfp_netstack::stack::HousekeepingReport::default()
    );
}
