//! The sharded-datapath invariants: RSS steering determinism, per-flow
//! ordering across ragged bursts, the per-shard conservation ledger, and
//! — most load-bearing — byte-identical output at every shard count.
//!
//! The refactor's contract is that `net.linuxfp.rss_shards` changes
//! *costs* (per-shard virtual time, coherence charges) and *cache
//! partitioning*, never verdicts or emitted bytes. These tests enforce
//! that contract end-to-end across the accelerated subsystems.

use linuxfp::netstack::stack::rss;
use linuxfp::packet::{builder, Batch, MacAddr};
use linuxfp::prelude::*;
use std::net::Ipv4Addr;

/// Runs `frames` through a fresh LinuxFP platform at the given shard
/// count (injected in ragged bursts of 7) and returns every emitted
/// frame as `(device, bytes)` in emission order.
fn sharded_outputs(scenario: Scenario, shards: i64, frames: &[Vec<u8>]) -> Vec<(u32, Vec<u8>)> {
    let mut p = LinuxFpPlatform::new(scenario);
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", shards)
        .expect("rss_shards sysctl exists");
    let mut out = Vec::new();
    for chunk in frames.chunks(7) {
        let mut batch = Batch::new();
        for f in chunk {
            batch.push(f.clone());
        }
        let res = p.process_batch(&mut batch);
        for rx in &res.outcomes {
            for (dev, bytes) in rx.transmissions() {
                out.push((dev.as_u32(), bytes.to_vec()));
            }
        }
    }
    out
}

#[test]
fn same_flow_and_its_reply_always_hash_to_one_shard() {
    // Pure-function invariant, across many flows and every shard count:
    // a 5-tuple and its reverse land on the same shard, regardless of
    // the L2 addressing (the difftest kernels have different MACs).
    let m1 = MacAddr::new([2, 0, 0, 0, 0, 0x11]);
    let m2 = MacAddr::new([2, 0, 0, 0, 0, 0x22]);
    for shards in [2u32, 4, 8, 16] {
        for i in 0..64u16 {
            let src = Ipv4Addr::new(10, 0, 1, (i % 23) as u8 + 1);
            let dst = Ipv4Addr::new(10, 10, (i % 50) as u8, 7);
            let fwd = builder::udp_packet(m1, m2, src, dst, 1024 + i, 4791, b"fwd");
            let rev = builder::udp_packet(m2, m1, dst, src, 4791, 1024 + i, b"rev");
            let s = rss::shard_for(&fwd, shards);
            assert!(s < shards);
            assert_eq!(
                s,
                rss::shard_for(&rev, shards),
                "flow {i} and its reply split across shards ({shards} shards)"
            );
        }
    }
}

#[test]
fn steering_is_deterministic_through_the_kernel() {
    // Integration-level steering: inject one flow (and its repeats)
    // through a sharded kernel with telemetry on — exactly one shard's
    // packet counter may advance.
    let s = Scenario::router();
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let mut batch = Batch::new();
    for _ in 0..12 {
        batch.push(s.frame(mac, 3, 60));
    }
    p.process_batch(&mut batch);
    let series = registry.counter_series("linuxfp_shard_packets_total");
    let active: Vec<_> = series.iter().filter(|(_, v)| *v > 0).collect();
    assert_eq!(
        active.len(),
        1,
        "one flow must live on one shard: {series:?}"
    );
    assert_eq!(active[0].1, 12);
}

#[test]
fn ragged_bursts_preserve_per_flow_order() {
    // Eight flows tagged with per-flow sequence numbers in the payload,
    // interleaved and injected in ragged bursts over 8 shards: each
    // flow's packets must come out in sequence.
    let s = Scenario::router();
    let mut p = LinuxFpPlatform::new(s);
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let mut frames = Vec::new();
    for seq in 0..6u8 {
        for flow in 0..8u8 {
            frames.push(builder::udp_packet(
                linuxfp::platforms::scenario::SOURCE_MAC,
                mac,
                Ipv4Addr::new(10, 0, 1, 100),
                Ipv4Addr::new(10, 10, flow, 7),
                1024 + u16::from(flow),
                4791,
                &[flow, seq],
            ));
        }
    }
    let mut emitted: Vec<Vec<u8>> = Vec::new();
    for chunk in frames.chunks(5) {
        let mut batch = Batch::new();
        for f in chunk {
            batch.push(f.clone());
        }
        let res = p.process_batch(&mut batch);
        for rx in &res.outcomes {
            for (_, bytes) in rx.transmissions() {
                emitted.push(bytes.to_vec());
            }
        }
    }
    assert_eq!(emitted.len(), 48, "every frame forwarded");
    let mut next_seq = [0u8; 8];
    for frame in &emitted {
        let payload = &frame[frame.len() - 2..];
        let (flow, seq) = (payload[0] as usize, payload[1]);
        assert_eq!(
            seq, next_seq[flow],
            "flow {flow} reordered (got seq {seq}, expected {})",
            next_seq[flow]
        );
        next_seq[flow] += 1;
    }
    assert!(next_seq.iter().all(|&n| n == 6));
}

#[test]
fn per_shard_ledgers_sum_to_the_global_conservation_law() {
    // Every packet is decided exactly once, and on exactly one shard:
    // sum over shards of (hits + fallbacks) == global hits + fallbacks
    // == packets injected.
    let s = Scenario::gateway();
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 4)
        .unwrap();
    let mut injected = 0u64;
    for round in 0..6u64 {
        let mut batch = Batch::new();
        for i in 0..11u64 {
            // A mix of routed flows and blacklisted ones (fast-path
            // drops), revisiting flows so the verdict cache hits too.
            if i % 3 == 2 {
                batch.push(builder::udp_packet(
                    linuxfp::platforms::scenario::SOURCE_MAC,
                    mac,
                    Ipv4Addr::new(10, 0, 1, 100),
                    s.blocked_dst(i as u32),
                    1024 + i as u16,
                    4791,
                    b"x",
                ));
            } else {
                batch.push(s.frame(mac, (round * 11 + i) % 7, 60));
            }
            injected += 1;
        }
        p.process_batch(&mut batch);
    }
    let shard_hits = registry.counter_total("linuxfp_shard_fp_hits_total");
    let shard_falls = registry.counter_total("linuxfp_shard_fallbacks_total");
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let falls = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    assert_eq!(shard_hits, hits, "per-shard hits must sum to global");
    assert_eq!(shard_falls, falls, "per-shard fallbacks must sum to global");
    // The verdict cache keeps the same ledger one level down, per shard.
    for outcome in ["hits", "misses"] {
        assert_eq!(
            registry.counter_total(&format!("linuxfp_shard_flowcache_{outcome}_total")),
            registry.counter_total(&format!("linuxfp_flowcache_{outcome}_total")),
            "per-shard flow-cache {outcome} must sum to global"
        );
    }
    assert!(registry.counter_total("linuxfp_flowcache_hits_total") > 0);
    assert_eq!(
        hits + falls,
        injected,
        "conservation: every packet decided exactly once"
    );
    assert_eq!(
        registry.counter_total("linuxfp_packets_injected_total"),
        injected
    );
    // More than one shard actually carried traffic.
    let active = registry
        .counter_series("linuxfp_shard_packets_total")
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .count();
    assert!(active > 1, "workload never spread across shards");
}

#[test]
fn sharded_output_is_byte_identical_across_subsystems() {
    // The tentpole equivalence: for every scenario preset (router, FIB;
    // gateway, netfilter; ipset gateway; NAT44; L7 API gateway), the
    // frames emitted at rss_shards=4 and rss_shards=8 are byte-identical
    // to rss_shards=1 — steering and coherence touch costs, not bytes.
    let presets: [(&str, Scenario); 5] = [
        ("router", Scenario::router()),
        ("gateway", Scenario::gateway()),
        ("gateway_ipset", Scenario::gateway_ipset()),
        ("nat_gateway", Scenario::nat_gateway()),
        ("api_gateway", Scenario::api_gateway()),
    ];
    for (name, s) in presets {
        let mac = LinuxFpPlatform::new(s).dut_mac();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for i in 0..40u64 {
            frames.push(match name {
                "nat_gateway" => s.client_frame(mac, 2 + (i % 3) as u8, i % 5, 60),
                "api_gateway" => match i % 4 {
                    0 | 1 => s.http_frame(mac, i, &Scenario::http_request(i)),
                    2 => s.http_frame(mac, i, &s.blocked_http_request(i)),
                    _ => s.http_frame(mac, i, b""),
                },
                // Blend blocked destinations into the filtering presets.
                _ if i % 5 == 4 => builder::udp_packet(
                    linuxfp::platforms::scenario::SOURCE_MAC,
                    mac,
                    Ipv4Addr::new(10, 0, 1, 100),
                    s.blocked_dst(i as u32),
                    1024 + i as u16,
                    4791,
                    b"x",
                ),
                _ => s.frame(mac, i % 9, 60),
            });
        }
        let base = sharded_outputs(s, 1, &frames);
        for shards in [4, 8] {
            let got = sharded_outputs(s, shards, &frames);
            assert_eq!(
                base, got,
                "{name}: rss_shards={shards} output diverged from single-core"
            );
        }
        assert!(
            !base.is_empty(),
            "{name}: scenario emitted nothing — equivalence check is vacuous"
        );
    }
}

#[test]
fn sharded_difftest_seeds_stay_transparent() {
    // The fuzzer's randomized subsystem blends (bridge FDB, IPVS, NAT,
    // churn mid-stream) under a sharded datapath: linux-vs-linuxfp
    // transparency must hold with both kernels steering over 4 shards.
    for seed in 0..12u64 {
        let mut scenario = linuxfp_difftest::generate(seed);
        scenario.shards = 4;
        let out = linuxfp_difftest::run(&scenario);
        assert!(
            out.divergence.is_none(),
            "seed {seed} diverged under rss_shards=4: {:?}",
            out.divergence
        );
    }
}

/// A seeded set of 1,000 router flows: the scenario's destinations and
/// random source ports.
fn seeded_router_flows(mac: MacAddr) -> Vec<Vec<u8>> {
    let s = Scenario::router();
    let mut rng = linuxfp::sim::SimRng::seed(1000);
    (0..1000)
        .map(|_| {
            builder::udp_packet(
                linuxfp::platforms::scenario::SOURCE_MAC,
                mac,
                Ipv4Addr::new(10, 0, 1, 100),
                s.allowed_dst(rng.uniform_u64(1 << 16)),
                1024 + rng.uniform_u64(60_000) as u16,
                4791,
                b"x",
            )
        })
        .collect()
}

#[test]
fn seeded_router_flows_keep_their_shard_histogram() {
    // Steering is part of the modelled cost (each shard's time, its
    // coherence charges): a faster hash must place every flow exactly
    // where the bit-serial one did.
    let flows = seeded_router_flows(MacAddr::new([2, 0, 0, 0, 0, 0x22]));
    let histogram = |shards: u32| {
        let mut counts = vec![0usize; shards as usize];
        for f in &flows {
            counts[rss::shard_for(f, shards) as usize] += 1;
        }
        counts
    };
    assert_eq!(histogram(4), [263, 236, 242, 259]);
    assert_eq!(histogram(8), [112, 110, 122, 135, 151, 126, 120, 124]);
}

/// The `linuxfp_coherence_events_total` value of each structure.
fn coherence_events(registry: &Registry) -> Vec<(String, u64)> {
    let mut events: Vec<(String, u64)> = registry
        .counter_series("linuxfp_coherence_events_total")
        .into_iter()
        .map(|(labels, v)| (labels[0].1.clone(), v))
        .collect();
    events.sort();
    events
}

#[test]
fn a_route_change_costs_each_shard_one_fib_coherence_charge() {
    let s = Scenario::router();
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let frames: Vec<Vec<u8>> = (0..64).map(|i| s.frame(mac, i, 60)).collect();
    let shards: Vec<u32> = frames.iter().map(|f| rss::shard_for(f, 8)).collect();
    assert!(
        (0..8).all(|s| shards.contains(&s)),
        "every shard has a flow"
    );
    // One pass over every flow in bursts of 32, returning each packet's
    // coherence charges and whether it was a cache hit.
    let pass = |p: &mut LinuxFpPlatform| -> Vec<(u64, bool)> {
        let mut charges = Vec::new();
        for chunk in frames.chunks(32) {
            let mut batch = Batch::new();
            for f in chunk {
                batch.push(f.clone());
            }
            for rx in &p.process_batch(&mut batch).outcomes {
                charges.push((
                    rx.cost.stage_count("coherence"),
                    rx.cost.stage_count("flowcache_hit") == 1,
                ));
            }
        }
        charges
    };
    // Placed, recorded, then served: the shards' views are warm.
    for _ in 0..3 {
        pass(&mut p);
    }
    let steady = pass(&mut p);
    assert!(steady.iter().all(|&(c, hit)| c == 0 && hit), "{steady:?}");
    let before = coherence_events(&registry);

    p.kernel_mut()
        .ip_route_add(
            Scenario::route_prefix(0),
            Some(linuxfp::platforms::scenario::NEXT_HOP),
            None,
        )
        .unwrap();
    p.poll_controller();
    let after_change = pass(&mut p);
    let mut seen = [false; 8];
    for (i, &(charges, _)) in after_change.iter().enumerate() {
        let first = !std::mem::replace(&mut seen[shards[i] as usize], true);
        assert_eq!(
            charges,
            u64::from(first),
            "packet {i} on shard {}: only a shard's first packet pays",
            shards[i]
        );
    }
    let after = coherence_events(&registry);
    let moved: Vec<(String, u64)> = after
        .iter()
        .map(|(s, v)| {
            let was = before.iter().find(|(b, _)| b == s).map_or(0, |b| b.1);
            (s.clone(), v - was)
        })
        .filter(|(_, d)| *d > 0)
        .collect();
    assert_eq!(moved, [("fib".to_string(), 8)]);
}

#[test]
fn hits_replaying_nat_touches_pay_no_coherence() {
    // A masquerading gateway: every recorded entry logs a NAT touch, so
    // every hit replays it (counting the translation) and then re-syncs
    // its shard's view of the shared state.
    let s = Scenario::nat_gateway();
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let mac = p.dut_mac();
    let flows: Vec<Vec<u8>> = (0..32u64)
        .map(|i| s.client_frame(mac, 2 + (i % 8) as u8, i / 8, 60))
        .collect();
    let pass = |p: &mut LinuxFpPlatform| -> Vec<(u64, u64, u64)> {
        let mut batch = Batch::new();
        for f in &flows {
            batch.push(f.clone());
        }
        p.process_batch(&mut batch)
            .outcomes
            .iter()
            .map(|rx| {
                (
                    rx.cost.stage_count("coherence"),
                    rx.cost.stage_count("flowcache_hit"),
                    rx.cost.stage_count("skb_alloc"),
                )
            })
            .collect()
    };
    // Bound on the slow path, then placed, recorded, served.
    for _ in 0..4 {
        pass(&mut p);
    }
    let before = coherence_events(&registry);
    for _ in 0..3 {
        let translations = registry.counter_total("linuxfp_nat_translations_total");
        let served = pass(&mut p);
        assert!(
            served.iter().all(|&c| c == (0, 1, 0)),
            "every flow a fast-path hit paying no coherence: {served:?}"
        );
        assert_eq!(
            registry.counter_total("linuxfp_nat_translations_total") - translations,
            32,
            "every hit replayed its NAT touch"
        );
    }
    assert_eq!(coherence_events(&registry), before);
}

#[test]
fn drops_before_steering_count_against_the_dropped_frame_shard() {
    use linuxfp::netstack::stack::DropReason;
    let s = Scenario::router();
    let registry = Registry::new();
    let mut p = LinuxFpPlatform::with_telemetry(s, HookPoint::Xdp, registry.clone());
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let upstream = p.kernel_mut().ifindex("ens1f0").unwrap();
    p.kernel_mut().ip_link_set_down(upstream).unwrap();
    let mut batch = Batch::new();
    for i in 0..64 {
        batch.push(s.frame(mac, i, 60));
    }
    let out = p.process_batch(&mut batch);
    assert!(out
        .outcomes
        .iter()
        .all(|rx| rx.drop_reasons() == [DropReason::DeviceDown]));
    let per_shard = |name: &str| {
        let mut counts = [0u64; 8];
        for (labels, v) in registry.counter_series(name) {
            let shard = labels.iter().find(|(k, _)| k == "shard").unwrap();
            counts[shard.1.parse::<usize>().unwrap()] += v;
        }
        counts
    };
    let packets = per_shard("linuxfp_shard_packets_total");
    assert_eq!(packets.iter().sum::<u64>(), 64);
    assert!(packets.iter().filter(|&&n| n > 0).count() > 1);
    assert_eq!(per_shard("linuxfp_shard_drops_total"), packets);
}

#[test]
fn a_shard_time_is_its_packets_plus_its_own_fixed_parts() {
    // Each shard with traffic pays the driver-receive and XDP-entry fixed
    // parts once per burst, into the burst's tracker and its own time.
    let s = Scenario::router();
    let mut p = LinuxFpPlatform::new(s);
    let mac = p.dut_mac();
    p.kernel_mut()
        .sysctl_set("net.linuxfp.rss_shards", 8)
        .unwrap();
    let cost = p.kernel_mut().cost_model().clone();
    // Few enough frames that some shards stay idle in some bursts.
    for (round, len) in [5u64, 12, 32, 32].into_iter().enumerate() {
        let frames: Vec<Vec<u8>> = (0..len)
            .map(|i| s.frame(mac, i * 7 + round as u64, 60))
            .collect();
        let mut batch = Batch::new();
        for f in &frames {
            batch.push(f.clone());
        }
        let out = p.process_batch(&mut batch);
        let mut want = [0.0f64; 8];
        let mut active = [false; 8];
        for (f, rx) in frames.iter().zip(&out.outcomes) {
            let shard = rss::shard_for(f, 8) as usize;
            want[shard] += rx.cost.total_ns();
            active[shard] = true;
        }
        let mut batch_cost = linuxfp::sim::CostTracker::new();
        for shard in 0..8 {
            if active[shard] {
                let mut fixed = linuxfp::sim::CostTracker::new();
                for t in [&mut fixed, &mut batch_cost] {
                    t.charge(Stage::DriverRx, cost.rx_batch_fixed_ns);
                    t.charge(Stage::XdpEntry, cost.hook_batch_fixed_ns);
                }
                want[shard] += fixed.total_ns();
            }
        }
        let got: Vec<u64> = out.shard_ns.iter().map(|ns| ns.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|ns| ns.to_bits()).collect();
        assert_eq!(got, want, "burst {round}");
        assert_eq!(out.batch_cost, batch_cost, "burst {round}");
    }
}

#[test]
fn the_fastpath_generation_is_the_state_generation() {
    // The hook keys its caches on what `fastpath_generation` returns:
    // sharded or not, it must be `state_generation()` after any change.
    use linuxfp::netstack::netfilter::{ChainHook, IptRule};
    use linuxfp::sim::CostTracker;
    use linuxfp::telemetry::trace::TraceCtx;
    for shards in [1, 4] {
        let mut k = Kernel::new(9);
        k.sysctl_set("net.linuxfp.rss_shards", shards).unwrap();
        let p1 = k.add_physical("p1").unwrap();
        let p2 = k.add_physical("p2").unwrap();
        let br = k.add_bridge("br0").unwrap();
        for dev in [p1, p2, br] {
            k.ip_link_set_up(dev).unwrap();
        }
        k.brctl_addif(br, p1).unwrap();
        k.brctl_addif(br, p2).unwrap();
        let eth = k.add_physical("eth0").unwrap();
        k.ip_addr_add(eth, "10.0.1.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth).unwrap();
        let frame = |src: u64| {
            builder::udp_packet(
                MacAddr::from_index(src),
                MacAddr::from_index(99),
                Ipv4Addr::new(10, 0, 1, 100),
                Ipv4Addr::new(10, 0, 1, 1),
                1000 + src as u16,
                53,
                b"x",
            )
        };
        let changes: [&dyn Fn(&mut Kernel); 6] = [
            &|k| {
                k.ip_route_add(
                    Scenario::route_prefix(1),
                    Some(Ipv4Addr::new(10, 0, 1, 254)),
                    None,
                )
                .unwrap()
            },
            &|k| k.advance(Nanos::from_secs(2)),
            &|k| {
                k.iptables_append(
                    ChainHook::Forward,
                    IptRule::drop_dst(Scenario::blacklist_prefix(0)),
                )
            },
            &|k| drop(k.receive(p1, frame(1))),
            &|k| drop(k.receive(p2, frame(2))),
            &|k| k.sysctl_set("net.ipv4.ip_forward", 1).unwrap(),
        ];
        let mut gens = vec![k.state_generation()];
        for change in changes {
            change(&mut k);
            let (mut cost, mut trace) = (CostTracker::new(), TraceCtx::default());
            assert_eq!(
                k.fastpath_generation(&mut cost, &mut trace),
                k.state_generation(),
                "{shards} shard(s)"
            );
            gens.push(k.state_generation());
        }
        gens.dedup();
        assert_eq!(gens.len(), 7, "every change moved the generation");
    }
}
