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
