//! What a flow-cache hit replays. A hit repeats only the helper calls
//! whose effect is per packet (NAT and L7 lookups); a FIB, FDB,
//! FORWARD-chain or conntrack lookup is not repeated, because an entry
//! lives under one clock reading and a second such call at the same
//! `now` changes nothing. These tests hold that half: the four lookups
//! are idempotent at a fixed `now`, and in telemetry a warm hit runs no
//! FIB or netfilter lookup. That a NAT hit still counts its translation
//! is held by `tests/rss_sharding.rs`
//! (`hits_replaying_nat_touches_pay_no_coherence`).

use linuxfp::ebpf::helpers::HelperEnv;
use linuxfp::netstack::netfilter::{ChainHook, IptRule, NfVerdict, PacketMeta};
use linuxfp::netstack::stack::FdbLookupOutcome;
use linuxfp::packet::ipv4::IpProto;
use linuxfp::prelude::*;
use linuxfp::sim::CostTracker;
use std::fmt::Debug;
use std::net::Ipv4Addr;

/// The kernel state a helper call could write, in a fixed order: the
/// combined generation, the neighbour table, the bridge's FDB and the
/// conntrack table's size.
fn snapshot(k: &Kernel, br: IfIndex) -> String {
    let mut neigh = k.neigh.entries();
    neigh.sort_by_key(|(ip, _)| *ip);
    let mut fdb = k.bridge(br).expect("bridge").fdb_entries();
    fdb.sort_by_key(|(mac, vlan, _)| (mac.octets(), *vlan));
    format!(
        "{} {neigh:?} {fdb:?} {}",
        k.state_generation(),
        k.conntrack.len()
    )
}

/// Calls `helper` twice at the same `now`: the second call must answer
/// as the first did and leave the state the first call left. Returns the
/// answer.
fn twice<T: PartialEq + Debug>(
    what: &str,
    k: &mut Kernel,
    br: IfIndex,
    mut helper: impl FnMut(&mut Kernel) -> T,
) -> T {
    let first = helper(k);
    let after_first = snapshot(k, br);
    assert_eq!(helper(k), first, "{what}: answer");
    assert_eq!(snapshot(k, br), after_first, "{what}: state");
    first
}

#[test]
fn lookups_a_hit_skips_are_idempotent_at_a_fixed_now() {
    use linuxfp::netstack::neigh::NeighState;
    let mut k = Kernel::new(5);
    // A routed port with a resolved next hop.
    let eth0 = k.add_physical("eth0").unwrap();
    k.ip_addr_add(eth0, "10.0.0.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    k.ip_link_set_up(eth0).unwrap();
    let hop = Ipv4Addr::new(10, 0, 0, 9);
    k.neigh.learn(hop, MacAddr::from_index(9), eth0, k.now());
    // A two-port bridge with a station learned on each port.
    let p1 = k.add_physical("p1").unwrap();
    let p2 = k.add_physical("p2").unwrap();
    let br = k.add_bridge("br0").unwrap();
    k.brctl_addif(br, p1).unwrap();
    k.brctl_addif(br, p2).unwrap();
    for d in [p1, p2, br] {
        k.ip_link_set_up(d).unwrap();
    }
    let (a, b) = (MacAddr::from_index(0xA1), MacAddr::from_index(0xB1));
    let bridge = k.bridge_mut(br).unwrap();
    bridge.fdb_learn(a, 1, p1, Nanos::ZERO);
    bridge.fdb_learn(b, 1, p2, Nanos::ZERO);
    // A FORWARD chain whose last rule matches.
    let (src, dst) = (Ipv4Addr::new(10, 0, 1, 5), Ipv4Addr::new(10, 0, 0, 6));
    for last in [200, 100, 6] {
        let rule = IptRule::drop_dst(Prefix::new(Ipv4Addr::new(10, 0, 0, last), 32));
        k.iptables_append(ChainHook::Forward, rule);
    }
    // Two tracked flows with a 30 s timeout: one seen at 0 s, one at 1 s,
    // both pinned to a backend.
    k.conntrack.new_timeout = Nanos::from_secs(30);
    let backend = (Ipv4Addr::new(10, 0, 2, 10), 53);
    let flow =
        |sport| linuxfp::netstack::conntrack::FlowKey::new(src, sport, dst, 53, IpProto::Udp);
    k.conntrack.track(src, 1000, dst, 53, IpProto::Udp, k.now());
    k.advance(Nanos::from_secs(1));
    k.conntrack.track(src, 1001, dst, 53, IpProto::Udp, k.now());
    for sport in [1000, 1001] {
        assert!(k.conntrack.set_backend(&flow(sport), backend));
    }

    // 31 s: past the neighbour's reachable time; the first flow is past
    // its timeout, the second exactly at it.
    k.advance(Nanos::from_secs(30));
    let now = k.now();

    let fib = twice("fib", &mut k, br, |k| k.helper_fib_lookup(hop));
    assert_eq!(fib.map(|r| r.ifindex), Some(eth0));
    let state = k.neigh.lookup(hop, now).map(|e| (e.state, e.updated));
    assert_eq!(
        state,
        Some((NeighState::Stale, now)),
        "the first call moved it"
    );

    let fdb = twice("fdb", &mut k, br, |k| k.helper_fdb_lookup(p1, a, b, 1));
    assert_eq!(fdb, FdbLookupOutcome::Hit(p2));
    let refreshed = k.bridge(br).unwrap().fdb_entries();
    let entry = refreshed.iter().find(|(mac, ..)| *mac == a).unwrap();
    assert_eq!(entry.2.updated, now, "the first call refreshed the source");

    let meta = PacketMeta {
        src,
        dst,
        proto: IpProto::Udp,
        sport: 1000,
        dport: 53,
        in_if: eth0,
        out_if: IfIndex::NONE,
    };
    let verdict = twice("ipt", &mut k, br, |k| {
        let mut tracker = CostTracker::new();
        (k.env_ipt_lookup(&meta, &mut tracker), tracker.total_ns())
    });
    assert_eq!(verdict.0, NfVerdict::Drop);

    let before_expiry = k.state_generation();
    let expired = twice("ct past timeout", &mut k, br, |k| {
        k.env_ct_lookup(src, 1000, dst, 53, 17)
    });
    assert_eq!(expired, None);
    assert_ne!(k.state_generation(), before_expiry, "an expiry bumps");
    let kept = twice("ct at timeout", &mut k, br, |k| {
        k.env_ct_lookup(src, 1001, dst, 53, 17)
    });
    assert_eq!(kept, Some(backend));
}

/// A subsystem-ops series, 0 before its first count.
fn ops(registry: &Registry, subsystem: &str) -> u64 {
    registry
        .counter_value("linuxfp_subsystem_ops_total", &[("subsystem", subsystem)])
        .unwrap_or(0)
}

/// A platform with telemetry on, its 32 flows sent three times (placed,
/// recorded, served), and a closure sending them once more that returns
/// how many were cache hits.
fn warm(
    scenario: Scenario,
    frame: impl Fn(MacAddr, u64) -> Vec<u8>,
) -> (Registry, impl FnMut() -> u64) {
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(scenario, HookPoint::Xdp, registry.clone());
    let mac = p.dut_mac();
    let flows: Vec<Vec<u8>> = (0..32).map(|i| frame(mac, i)).collect();
    let mut send = move || {
        flows
            .iter()
            .map(|f| p.process(f.clone()).cost.stage_count("flowcache_hit"))
            .sum()
    };
    for _ in 0..3 {
        send();
    }
    (registry, send)
}

#[test]
fn warm_router_and_gateway_hits_run_no_lookup() {
    let s = Scenario::router();
    let (registry, mut send) = warm(s, |mac, i| s.frame(mac, i, 60));
    let fib = ops(&registry, "fib");
    assert!(fib > 0, "the misses looked routes up");
    assert_eq!(send(), 32);
    assert_eq!(ops(&registry, "fib"), fib, "32 router hits");

    let s = Scenario::gateway();
    let (registry, mut send) = warm(s, |mac, i| s.frame(mac, i, 60));
    let (fib, netfilter) = (ops(&registry, "fib"), ops(&registry, "netfilter"));
    assert!(netfilter > 0, "the misses walked the FORWARD chain");
    assert_eq!(send(), 32);
    assert_eq!(ops(&registry, "netfilter"), netfilter, "32 gateway hits");
    assert_eq!(ops(&registry, "fib"), fib);
}
