//! The microflow verdict cache must be invisible in everything except
//! cost: byte-identical outputs with the cache on and off across all
//! six accelerated subsystems, immediate re-resolution when the state a
//! cached verdict was derived from changes, and no buffer-pool growth on
//! the hit path.

use linuxfp::netstack::ipvs::Scheduler;
use linuxfp::netstack::stack::HousekeepingReport;
use linuxfp::packet::ipv4::IpProto;
use linuxfp::packet::{builder, Batch, BufferPool};
use linuxfp::platforms::scenario::{NEXT_HOP, SOURCE_MAC};
use linuxfp::prelude::*;
use std::net::Ipv4Addr;

const VIP: Ipv4Addr = Ipv4Addr::new(10, 96, 0, 10);

/// Flattened observable behavior of a sequence of outcomes.
#[derive(Debug, PartialEq)]
struct Observed {
    transmissions: Vec<(u32, Vec<u8>)>,
    deliveries: Vec<(u32, Vec<u8>)>,
    drops: Vec<String>,
}

fn observe<'a>(
    outcomes: impl Iterator<Item = &'a linuxfp::netstack::stack::RxOutcome>,
) -> Observed {
    let mut obs = Observed {
        transmissions: Vec::new(),
        deliveries: Vec::new(),
        drops: Vec::new(),
    };
    for out in outcomes {
        for (dev, frame) in out.transmissions() {
            obs.transmissions.push((dev.as_u32(), frame.to_vec()));
        }
        for (dev, frame) in out.deliveries() {
            obs.deliveries.push((dev.as_u32(), frame.to_vec()));
        }
        for reason in out.drops() {
            obs.drops.push(reason.to_string());
        }
    }
    obs
}

/// Drives the same repeated-flow workload through a cache-on and a
/// cache-off platform and requires byte-identical observable behavior.
/// Returns the number of packets the cache-on side served from the
/// cache, so callers can assert the comparison was not vacuous.
fn assert_cache_transparent(
    mut on: LinuxFpPlatform,
    mut off: LinuxFpPlatform,
    frames: &[Vec<u8>],
    what: &str,
) -> u64 {
    off.kernel_mut()
        .sysctl_set("net.linuxfp.flow_cache", 0)
        .expect("flow_cache sysctl exists");
    let mut hits = 0u64;
    let out_on: Vec<_> = frames
        .iter()
        .map(|f| {
            let out = on.process(f.clone());
            hits += out.cost.stage_count("flowcache_hit");
            out
        })
        .collect();
    let out_off: Vec<_> = frames.iter().map(|f| off.process(f.clone())).collect();
    assert_eq!(
        observe(out_on.iter()),
        observe(out_off.iter()),
        "{what}: cache on vs off"
    );
    // The off side must never touch the cache.
    for out in &out_off {
        assert_eq!(out.cost.stage_count("flowcache_hit"), 0, "{what}");
    }
    hits
}

/// Each flow repeated `rounds` times, interleaved — the steady-flow shape
/// the cache exists for.
fn repeat_interleaved(flows: &[Vec<u8>], rounds: usize) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(flows.len() * rounds);
    for _ in 0..rounds {
        frames.extend(flows.iter().cloned());
    }
    frames
}

#[test]
fn router_forwarding_identical_with_cache_on_and_off() {
    let s = Scenario::router();
    let on = LinuxFpPlatform::new(s);
    let off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    let flows: Vec<_> = (0..5u64).map(|i| s.frame(mac, i, 60)).collect();
    let hits = assert_cache_transparent(on, off, &repeat_interleaved(&flows, 4), "router");
    assert!(hits >= 10, "router repeats must hit the cache: {hits}");
}

#[test]
fn gateway_filtering_identical_with_cache_on_and_off() {
    // Forwarded and blacklisted flows: cached PASS-through rewrites and
    // cached fast-path drops.
    let s = Scenario::gateway();
    let on = LinuxFpPlatform::new(s);
    let off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    let mut flows: Vec<_> = (0..3u64).map(|i| s.frame(mac, i, 60)).collect();
    for r in 0..3u32 {
        flows.push(builder::udp_packet(
            SOURCE_MAC,
            mac,
            Ipv4Addr::new(10, 0, 1, 100),
            s.blocked_dst(r),
            3000 + r as u16,
            4791,
            b"blocked",
        ));
    }
    let hits = assert_cache_transparent(on, off, &repeat_interleaved(&flows, 4), "gateway");
    assert!(hits >= 12, "gateway repeats must hit the cache: {hits}");
}

#[test]
fn l7_policy_verdicts_identical_with_cache_on_and_off() {
    // Allowed requests (pinned Allow verdicts become cacheable), denied
    // requests (cached fast-path drops), and unparseable garbage that
    // punts on every appearance — all byte-identical with the cache off.
    let s = Scenario::api_gateway();
    let on = LinuxFpPlatform::new(s);
    let off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    let mut flows: Vec<_> = (0..4u64)
        .map(|i| s.http_frame(mac, i, &Scenario::http_request(i)))
        .collect();
    for i in 4..6u64 {
        flows.push(s.http_frame(mac, i, &s.blocked_http_request(i)));
    }
    flows.push(s.http_frame(mac, 6, &[0x16, 0x03, 0x01, 0x00, 0x2a]));
    let hits = assert_cache_transparent(on, off, &repeat_interleaved(&flows, 4), "l7");
    assert!(hits >= 8, "l7 pinned repeats must hit the cache: {hits}");
}

#[test]
fn nat_masquerade_identical_with_cache_on_and_off() {
    let s = Scenario::nat_gateway();
    let on = LinuxFpPlatform::new(s);
    let off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    let flows: Vec<_> = (0..4u64)
        .map(|i| s.client_frame(mac, 2 + (i % 2) as u8, i / 2, 60))
        .collect();
    let hits = assert_cache_transparent(on, off, &repeat_interleaved(&flows, 5), "nat");
    assert!(hits >= 8, "nat repeats must hit the cache: {hits}");
}

#[test]
fn ipvs_scheduling_identical_with_cache_on_and_off() {
    let s = Scenario::router();
    let mut on = LinuxFpPlatform::new(s);
    let mut off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    for p in [&mut on, &mut off] {
        let k = p.kernel_mut();
        let down = k.ifindex("ens1f1").unwrap();
        let now = k.now();
        assert!(k.ipvsadm_add_service(VIP, 53, IpProto::Udp, Scheduler::RoundRobin));
        for i in 0..3u8 {
            let backend = Ipv4Addr::new(10, 0, 2, 10 + i);
            k.neigh
                .learn(backend, MacAddr::from_index(0xB0 + u64::from(i)), down, now);
            assert!(k.ipvsadm_add_backend(VIP, 53, IpProto::Udp, backend, 53));
        }
        p.poll_controller();
    }
    let flows: Vec<_> = (0..4u16)
        .map(|i| {
            builder::udp_packet(
                SOURCE_MAC,
                mac,
                Ipv4Addr::new(10, 0, 1, 100),
                VIP,
                41000 + i,
                53,
                b"query",
            )
        })
        .collect();
    let hits = assert_cache_transparent(on, off, &repeat_interleaved(&flows, 5), "ipvs");
    assert!(hits >= 8, "ipvs repeats must hit the cache: {hits}");
}

#[test]
fn bridge_forwarding_identical_with_cache_on_and_off() {
    let build = || {
        let mut k = Kernel::new(66);
        let p1 = k.add_physical("p1").unwrap();
        let p2 = k.add_physical("p2").unwrap();
        let br = k.add_bridge("br0").unwrap();
        k.brctl_addif(br, p1).unwrap();
        k.brctl_addif(br, p2).unwrap();
        for d in [p1, p2, br] {
            k.ip_link_set_up(d).unwrap();
        }
        let (ctrl, report) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
        assert!(report.changed);
        (k, ctrl, p1, p2)
    };
    let (mut k_on, _c1, p1_on, p2_on) = build();
    let (mut k_off, _c2, p1_off, p2_off) = build();
    k_off.sysctl_set("net.linuxfp.flow_cache", 0).unwrap();

    let host_a = MacAddr::from_index(0xA1);
    let host_b = MacAddr::from_index(0xB1);
    let a_to_b = |sport: u16| {
        builder::udp_packet(
            host_a,
            host_b,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(1, 1, 1, 2),
            sport,
            2000,
            b"bridged",
        )
    };
    let b_to_a = builder::udp_packet(
        host_b,
        host_a,
        Ipv4Addr::new(1, 1, 1, 2),
        Ipv4Addr::new(1, 1, 1, 1),
        2000,
        1000,
        b"learn",
    );
    // Learn both hosts on both kernels, then repeat flows.
    for (k, p1, p2) in [(&mut k_on, p1_on, p2_on), (&mut k_off, p1_off, p2_off)] {
        k.receive(p1, a_to_b(1000));
        k.receive(p2, b_to_a.clone());
    }
    let mut hits = 0u64;
    for round in 0..4 {
        for sport in 0..3u16 {
            let out_on = k_on.receive(p1_on, a_to_b(1000 + sport));
            let out_off = k_off.receive(p1_off, a_to_b(1000 + sport));
            hits += out_on.cost.stage_count("flowcache_hit");
            assert_eq!(out_off.cost.stage_count("flowcache_hit"), 0);
            assert_eq!(
                observe(std::iter::once(&out_on)),
                observe(std::iter::once(&out_off)),
                "bridge round {round} sport {sport}"
            );
        }
    }
    assert!(hits >= 6, "bridge repeats must hit the cache: {hits}");
}

#[test]
fn route_change_re_resolves_cached_flows() {
    // A cached verdict must die with the state it was derived from: after
    // the flow's route moves to a different next hop, the very next
    // packet takes the new path — byte-identical to a plain Linux kernel
    // given the same mutation.
    let s = Scenario::router();
    let mut lfp = LinuxFpPlatform::new(s);
    let mut linux = LinuxPlatform::new(s);
    let mac = lfp.dut_mac();
    let frame = s.frame(mac, 7, 60);

    // Warm the flow until it is served from the cache.
    let before = lfp.process(frame.clone());
    let _ = linux.process(frame.clone());
    for _ in 0..2 {
        let out = lfp.process(frame.clone());
        let _ = linux.process(frame.clone());
        assert_eq!(observe(std::iter::once(&out)).transmissions.len(), 1);
    }
    let cached = lfp.process(frame.clone());
    let _ = linux.process(frame.clone());
    assert_eq!(cached.cost.stage_count("flowcache_hit"), 1, "flow cached");
    assert_eq!(
        observe(std::iter::once(&cached)),
        observe(std::iter::once(&before)),
        "cached repeat must match the interpreted packet"
    );

    // Move the flow's /24 to a hairpin next hop on the upstream side.
    let new_hop = Ipv4Addr::new(10, 0, 1, 50);
    let new_mac = MacAddr::from_index(0x5A);
    let prefix = Scenario::route_prefix(7);
    for k in [lfp.kernel_mut(), linux.kernel_mut()] {
        let up = k.ifindex("ens1f0").unwrap();
        let now = k.now();
        k.neigh.learn(new_hop, new_mac, up, now);
        k.ip_route_del(prefix, None).unwrap();
        k.ip_route_add(prefix, Some(new_hop), None).unwrap();
    }
    lfp.poll_controller();

    let after_f = lfp.process(frame.clone());
    let after_l = linux.process(frame);
    let got = observe(std::iter::once(&after_f));
    assert_eq!(
        got,
        observe(std::iter::once(&after_l)),
        "re-resolved output must match plain Linux"
    );
    // And it really took the new path, not the cached one.
    assert_eq!(got.transmissions.len(), 1);
    assert_eq!(got.transmissions[0].1[0..6], new_mac.octets(), "new hop");
    assert_ne!(
        got.transmissions[0],
        observe(std::iter::once(&cached)).transmissions[0],
        "stale cached output must not survive the route change"
    );
}

#[test]
fn a_scan_records_nothing_and_a_returning_working_set_hits() {
    // A flow is recorded on its second sighting. 5,000 flows cycled
    // through a 4,096-entry cache are each evicted just before they
    // return, so nothing is ever recorded or served — the cache-on side
    // does exactly the cache-off side's work. A 1,000-flow set that fits
    // is recorded on its second pass and served on its third.
    let s = Scenario::router();
    let registry = Registry::new();
    let mut on = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    let mut off = LinuxFpPlatform::new(s);
    off.kernel_mut()
        .sysctl_set("net.linuxfp.flow_cache", 0)
        .expect("flow_cache sysctl exists");
    let mac = on.dut_mac();
    let flow = |i: u64, sport_base: u16| {
        builder::udp_packet(
            SOURCE_MAC,
            mac,
            Ipv4Addr::new(10, 0, 1, 100),
            s.allowed_dst(i),
            sport_base + i as u16,
            4791,
            b"scan",
        )
    };
    let counts = || {
        (
            registry.counter_total("linuxfp_flowcache_records_total"),
            registry.counter_total("linuxfp_flowcache_hits_total"),
        )
    };
    let mut pass = |flows: u64, sport_base: u16| {
        let before = counts();
        for i in 0..flows {
            let frame = flow(i, sport_base);
            let out_on = on.process(frame.clone());
            let out_off = off.process(frame);
            assert_eq!(
                observe(std::iter::once(&out_on)),
                observe(std::iter::once(&out_off)),
                "flow {i} of {flows}: cache on vs off"
            );
            assert_eq!(out_on.cost.total_ns(), out_off.cost.total_ns(), "flow {i}");
        }
        let after = counts();
        (after.0 - before.0, after.1 - before.1)
    };

    for _ in 0..3 {
        assert_eq!(
            pass(5_000, 20_000),
            (0, 0),
            "(records, hits) of a scan pass"
        );
    }
    assert_eq!(pass(1_000, 40_000), (0, 0), "first sightings");
    assert_eq!(pass(1_000, 40_000), (1_000, 0), "second sightings record");
    let (records, hits) = counts();
    assert_eq!(
        registry.counter_total("linuxfp_flowcache_inserts_total"),
        records
    );
    assert_eq!(hits, 0);

    // Pass 3 is all hits: the cache-on side now charges the hit price.
    let mut served = 0;
    for i in 0..1_000 {
        let out = on.process(flow(i, 40_000));
        served += out.cost.stage_count("flowcache_hit");
        assert_eq!(out.transmissions().len(), 1, "flow {i} forwarded");
    }
    assert_eq!(served, 1_000);
    assert_eq!(counts(), (1_000, 1_000));
}

#[test]
fn cache_hits_never_grow_the_buffer_pool() {
    let s = Scenario::router();
    let mut lfp = LinuxFpPlatform::new(s);
    let mac = lfp.dut_mac();
    let up = lfp.kernel_mut().ifindex("ens1f0").unwrap();
    let pool = BufferPool::new();
    let inject_round = |lfp: &mut LinuxFpPlatform| -> u64 {
        let mut batch = Batch::with_capacity(8);
        for i in 0..8u64 {
            let mut buf = pool.acquire();
            s.fill_frame(mac, i, 60, &mut buf);
            batch.push(buf);
        }
        let out = lfp.kernel_mut().inject_batch(up, &mut batch);
        out.outcomes
            .iter()
            .map(|o| o.cost.stage_count("flowcache_hit"))
            .sum()
    };
    // Warm: record the 8 flows and fill the pool's working set.
    for _ in 0..2 {
        inject_round(&mut lfp);
    }
    let warm = pool.stats().allocated;
    let mut hits = 0u64;
    for _ in 0..20 {
        hits += inject_round(&mut lfp);
    }
    assert_eq!(hits, 160, "steady rounds must be all cache hits");
    assert_eq!(
        pool.stats().allocated,
        warm,
        "cache hits must recycle buffers, not allocate"
    );
}

/// The state a clock advance ages, in a fixed order: the neighbour table
/// and, if `bridge` is given, its FDB.
type AgedState = (
    Vec<(Ipv4Addr, linuxfp::netstack::neigh::NeighEntry)>,
    Vec<([u8; 6], u16, linuxfp::netstack::bridge::FdbEntry)>,
);

fn aged_state(k: &Kernel, bridge: Option<IfIndex>) -> AgedState {
    let mut neigh = k.neigh.entries();
    neigh.sort_by_key(|(ip, _)| *ip);
    let mut fdb: Vec<_> = bridge
        .and_then(|br| k.bridge(br))
        .map(|b| b.fdb_entries())
        .unwrap_or_default()
        .into_iter()
        .map(|(mac, vlan, e)| (mac.octets(), vlan, e))
        .collect();
    fdb.sort_by_key(|&(mac, vlan, _)| (mac, vlan));
    (neigh, fdb)
}

/// Runs `flows` in rounds on a cache-on and a cache-off kernel, advancing
/// both clocks by each of `steps` (seconds) between rounds and running
/// housekeeping after every advance. Outputs, housekeeping reports and the
/// aged tables must agree throughout. A round sends every flow four
/// times: placed, recorded, then served twice. Returns the cache-on
/// side's hits, the housekeeping reports and the aged state after each
/// round.
fn assert_transparent_across_advances(
    what: &str,
    on: &mut Kernel,
    off: &mut Kernel,
    bridge: Option<IfIndex>,
    flows: &[(IfIndex, Vec<u8>)],
    steps: &[u64],
) -> (u64, Vec<HousekeepingReport>, Vec<AgedState>) {
    off.sysctl_set("net.linuxfp.flow_cache", 0).unwrap();
    let mut hits = 0;
    let mut reports = Vec::new();
    let mut states = Vec::new();
    // Round 0 runs before the first advance.
    for (round, &secs) in [0].iter().chain(steps).enumerate() {
        if round > 0 {
            on.advance(Nanos::from_secs(secs));
            off.advance(Nanos::from_secs(secs));
            let report = on.run_housekeeping();
            assert_eq!(report, off.run_housekeeping(), "{what} round {round}");
            reports.push(report);
            assert_eq!(
                aged_state(on, bridge),
                aged_state(off, bridge),
                "{what}: housekeeping before round {round}"
            );
        }
        for pass in 0..4 {
            for (i, (dev, frame)) in flows.iter().enumerate() {
                let out_on = on.receive(*dev, frame.clone());
                let out_off = off.receive(*dev, frame.clone());
                hits += out_on.cost.stage_count("flowcache_hit");
                assert_eq!(
                    observe(std::iter::once(&out_on)),
                    observe(std::iter::once(&out_off)),
                    "{what} round {round} pass {pass} flow {i}"
                );
            }
        }
        let state = aged_state(off, bridge);
        assert_eq!(aged_state(on, bridge), state, "{what}: after round {round}");
        states.push(state);
    }
    (hits, reports, states)
}

#[test]
fn aged_state_identical_with_cache_on_and_off_across_clock_advances() {
    use linuxfp::netstack::neigh::NeighState;
    // A hit repeats no FIB or FDB lookup: the neighbour's lazy
    // Reachable -> Stale move and the FDB source refresh must still land
    // exactly as with the cache off, because an advance ends every entry.

    // Bridge: both stations talk each round. Steps cross the neighbour
    // reachable time, approach the 300 s FDB ageing time, then pass it.
    let build = || {
        let mut k = Kernel::new(66);
        let p1 = k.add_physical("p1").unwrap();
        let p2 = k.add_physical("p2").unwrap();
        let br = k.add_bridge("br0").unwrap();
        k.brctl_addif(br, p1).unwrap();
        k.brctl_addif(br, p2).unwrap();
        for d in [p1, p2, br] {
            k.ip_link_set_up(d).unwrap();
        }
        let (ctrl, _) = Controller::attach(&mut k, ControllerConfig::default()).unwrap();
        (k, ctrl, p1, p2, br)
    };
    let (mut k_on, _c1, p1, p2, br) = build();
    let (mut k_off, _c2, ..) = build();
    let (host_a, host_b) = (MacAddr::from_index(0xA1), MacAddr::from_index(0xB1));
    let (ip_a, ip_b) = (Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2));
    let mut flows = Vec::new();
    for sport in 0..3u16 {
        let frame = builder::udp_packet(host_a, host_b, ip_a, ip_b, 1000 + sport, 2000, b"a");
        flows.push((p1, frame));
    }
    for sport in 0..2u16 {
        let frame = builder::udp_packet(host_b, host_a, ip_b, ip_a, 2000 + sport, 1000, b"b");
        flows.push((p2, frame));
    }
    let (hits, reports, _) = assert_transparent_across_advances(
        "bridge",
        &mut k_on,
        &mut k_off,
        Some(br),
        &flows,
        &[10, 31, 200, 290, 299, 301, 5],
    );
    // Two served passes of five flows a round; the first round and the
    // one after the stations aged out re-learn them and serve fewer.
    assert!(hits >= 6 * 5 * 2, "bridge flows must hit: {hits}");
    // Only the 301 s step outran the refreshes: both stations aged out.
    let expired: Vec<usize> = reports.iter().map(|r| r.fdb_expired).collect();
    assert_eq!(expired, [0, 0, 0, 0, 0, 2, 0]);

    // Router: steps cross the 30 s reachable time (the next hop goes
    // stale on its next lookup), stay inside the 60 s stale window, then
    // leave it (garbage-collected; the flows park behind ARP).
    let s = Scenario::router();
    let mut on = LinuxFpPlatform::new(s);
    let mut off = LinuxFpPlatform::new(s);
    let mac = on.dut_mac();
    let up = on.kernel_mut().ifindex("ens1f0").unwrap();
    let flows: Vec<_> = (0..5u64).map(|i| (up, s.frame(mac, i, 60))).collect();
    let (hits, reports, states) = assert_transparent_across_advances(
        "router",
        on.kernel_mut(),
        off.kernel_mut(),
        None,
        &flows,
        &[20, 15, 40, 30],
    );
    let next_hop: Vec<_> = states
        .iter()
        .map(|(neigh, _)| {
            let hop = neigh.iter().find(|(ip, _)| *ip == NEXT_HOP);
            hop.map(|(_, e)| e.state)
        })
        .collect();
    use NeighState::{Incomplete, Reachable, Stale};
    let expected = [Reachable, Reachable, Stale, Stale, Incomplete];
    assert_eq!(next_hop, expected.map(Some));
    let expired: Vec<usize> = reports.iter().map(|r| r.neigh_expired).collect();
    // The stale next hop and the source host, never looked up since
    // setup, are collected.
    assert_eq!(expired, [0, 0, 0, 2]);
    // The last round parks behind ARP: no recording, no hit.
    assert!(
        hits >= 4 * 5 * 2,
        "router flows must hit every round: {hits}"
    );
}
