//! Batching must never change what the datapath *does* — only what it
//! costs. These tests drive the same deterministic packet sequence
//! through a one-at-a-time platform and a batched platform (under
//! arbitrary burst splits) and require byte-identical outputs, identical
//! verdicts, and an intact hit/fallback conservation ledger.

use linuxfp::ebpf::hook::HookPoint;
use linuxfp::packet::{builder, Batch, BufferPool};
use linuxfp::platforms::scenario::SOURCE_MAC;
use linuxfp::platforms::{
    LinuxFpPlatform, LinuxPlatform, Platform, PolycubePlatform, Scenario, VppPlatform,
};
use linuxfp::telemetry::Registry;
use std::net::Ipv4Addr;

/// A deterministic split of `total` packets into bursts of 1..=max — a
/// cheap LCG so the test needs no rand dependency but still exercises
/// ragged, "arbitrary" batch boundaries.
fn splits(total: usize, max: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut left = total;
    let mut out = Vec::new();
    while left > 0 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = ((state >> 33) as usize % max + 1).min(left);
        out.push(n);
        left -= n;
    }
    out
}

/// The mixed workload: forwarded flows, blacklisted flows (fast-path
/// drops), and frames addressed to the DUT itself (slow-path delivery) —
/// every verdict class the hook can produce.
fn workload(scenario: Scenario, mac: linuxfp::packet::MacAddr, n: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|i| match i % 5 {
            3 => builder::udp_packet(
                SOURCE_MAC,
                mac,
                Ipv4Addr::new(10, 0, 1, 100),
                scenario.blocked_dst(i as u32),
                1000 + i as u16,
                4791,
                b"blocked",
            ),
            4 => builder::udp_packet(
                SOURCE_MAC,
                mac,
                Ipv4Addr::new(10, 0, 1, 100),
                Ipv4Addr::new(10, 0, 1, 1),
                1000 + i as u16,
                4791,
                b"for the host",
            ),
            _ => scenario.frame(mac, i, 60),
        })
        .collect()
}

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

fn equivalence_under_splits(hook: HookPoint, seed: u64) {
    let scenario = Scenario::gateway();
    let mut single = LinuxFpPlatform::with_hook(scenario, hook);
    let registry = Registry::new();
    let mut batched = LinuxFpPlatform::with_telemetry(scenario, hook, registry.clone());
    assert_eq!(single.dut_mac(), batched.dut_mac(), "same seed, same MACs");
    let mac = single.dut_mac();

    const TOTAL: usize = 60;
    let frames = workload(scenario, mac, TOTAL);

    // Reference: one packet at a time.
    let singles: Vec<_> = frames.iter().map(|f| single.process(f.clone())).collect();
    let expect = observe(singles.iter());

    // Same frames, ragged bursts, pooled buffers.
    let pool = BufferPool::new();
    let mut batched_outcomes = Vec::new();
    let mut cursor = frames.iter();
    for burst in splits(TOTAL, 9, seed) {
        let mut batch = Batch::with_capacity(burst);
        for frame in cursor.by_ref().take(burst) {
            let mut buf = pool.acquire();
            buf.extend_from_slice(frame);
            batch.push(buf);
        }
        let out = batched.process_batch(&mut batch);
        assert_eq!(out.batch_size, burst);
        batched_outcomes.extend(out.outcomes);
    }
    assert_eq!(batched_outcomes.len(), TOTAL);
    let got = observe(batched_outcomes.iter());

    // Byte-identical outputs, identical verdicts, in identical order.
    assert_eq!(expect, got, "hook {hook:?} seed {seed}");

    // Conservation: every injected packet was decided exactly once.
    drop(batched_outcomes);
    let hits = registry.counter_total("linuxfp_fp_hits_total");
    let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
    let injected = registry.counter_total("linuxfp_packets_injected_total");
    assert_eq!(injected, TOTAL as u64);
    assert_eq!(
        hits + fallbacks,
        injected,
        "hits {hits} + fallbacks {fallbacks}"
    );
    // The mixed workload produced both classes.
    assert!(hits > 0 && fallbacks > 0);
}

#[test]
fn xdp_batching_never_changes_behavior() {
    for seed in [2, 77, 1234] {
        equivalence_under_splits(HookPoint::Xdp, seed);
    }
}

#[test]
fn tc_batching_never_changes_behavior() {
    equivalence_under_splits(HookPoint::Tc, 42);
}

#[test]
fn burst_of_one_costs_exactly_single_packet_processing() {
    // The wrapper contract: a batch of one is bit-identical — cost
    // included — to historical per-packet processing.
    let scenario = Scenario::router();
    let mut a = LinuxFpPlatform::new(scenario);
    let mut b = LinuxFpPlatform::new(scenario);
    let mac = a.dut_mac();
    for i in 0..16u64 {
        let frame = scenario.frame(mac, i, 60);
        let single = a.process(frame.clone());
        let mut batch = Batch::with_capacity(1);
        batch.push(frame);
        let batched = b.process_batch(&mut batch);
        assert_eq!(batched.batch_size, 1);
        assert_eq!(
            single.cost.total_ns(),
            batched.total_ns(),
            "frame {i}: batch-of-one cost must be exact"
        );
        assert_eq!(
            observe(std::iter::once(&single)),
            observe(batched.outcomes.iter())
        );
    }
}

/// The NAPI burst sizes the per-packet cost is compared across.
const BURSTS: [usize; 4] = [1, 8, 32, 64];

/// Router ns/pkt at each of [`BURSTS`], each on a fresh platform.
fn per_packet_ns<P: Platform>(
    new: fn(Scenario) -> P,
    dut_mac: fn(&P) -> linuxfp::packet::MacAddr,
) -> Vec<f64> {
    let scenario = Scenario::router();
    BURSTS
        .iter()
        .map(|&burst| {
            let mut p = new(scenario);
            let mac = dut_mac(&p);
            p.service_time_ns_batched(&mut |i, buf| scenario.fill_frame(mac, i, 60, buf), burst)
        })
        .collect()
}

#[test]
fn batching_is_strictly_cheaper_per_packet() {
    // Every kernel platform amortizes its per-burst fixed work (driver
    // poll entry, hook dispatch) and gets cheaper with every burst step;
    // VPP always runs full vectors and stays flat.
    let linux = per_packet_ns(LinuxPlatform::new, LinuxPlatform::dut_mac);
    let polycube = per_packet_ns(PolycubePlatform::new, PolycubePlatform::dut_mac);
    let vpp = per_packet_ns(VppPlatform::new, VppPlatform::dut_mac);
    let linuxfp = per_packet_ns(LinuxFpPlatform::new, LinuxFpPlatform::dut_mac);
    for (name, ns) in [
        ("Linux", &linux),
        ("Polycube", &polycube),
        ("LinuxFP", &linuxfp),
    ] {
        for (w, b) in ns.windows(2).zip(BURSTS.windows(2)) {
            assert!(
                w[1] < w[0],
                "{name}: burst {} ({:.1} ns) must beat burst {} ({:.1} ns)",
                b[1],
                w[1],
                b[0],
                w[0]
            );
        }
    }
    assert!(vpp.iter().all(|&ns| ns == vpp[0]), "VPP not flat: {vpp:?}");
    for (b, burst) in BURSTS.iter().enumerate() {
        assert!(
            linuxfp[b] < polycube[b] && polycube[b] < linux[b],
            "burst {burst}: LinuxFP {:.1}, Polycube {:.1}, Linux {:.1} ns",
            linuxfp[b],
            polycube[b],
            linux[b]
        );
    }
    // Batching recovers part of what dedicated cores buy VPP.
    assert!(linuxfp[3] / vpp[3] < linuxfp[0] / vpp[0]);
}

/// A hook that counts its runs and returns `verdict`.
fn counting_hook(
    verdict: linuxfp::netstack::HookVerdict,
) -> (
    linuxfp::netstack::stack::HookFn,
    std::sync::Arc<std::sync::atomic::AtomicU64>,
) {
    use linuxfp::netstack::Kernel;
    use linuxfp::packet::Packet;
    use linuxfp::sim::CostTracker;
    use linuxfp::telemetry::trace::TraceCtx;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let runs = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&runs);
    let hook = Arc::new(
        move |_: &mut Kernel, _: &mut Packet, _: &mut CostTracker, _: &mut TraceCtx| {
            counted.fetch_add(1, Ordering::Relaxed);
            verdict
        },
    );
    (hook, runs)
}

#[test]
fn hooks_are_read_once_per_burst_and_requeued_frames_run_their_own() {
    use linuxfp::netstack::stack::IfAddr;
    use linuxfp::netstack::{HookVerdict, Kernel};
    use std::sync::atomic::Ordering;

    // eth0 and veth_a are ports of br0; veth_b, veth_a's peer, is not.
    let mut k = Kernel::new(3);
    let eth0 = k.add_physical("eth0").unwrap();
    let (veth_a, veth_b) = k.add_veth_pair("veth_a", "veth_b").unwrap();
    let br0 = k.add_bridge("br0").unwrap();
    for dev in [eth0, veth_a, veth_b, br0] {
        k.ip_link_set_up(dev).unwrap();
    }
    k.brctl_addif(br0, eth0).unwrap();
    k.brctl_addif(br0, veth_a).unwrap();
    let host = k.add_physical("host0").unwrap();
    k.ip_link_set_up(host).unwrap();
    k.ip_addr_add(host, "10.0.0.1/24".parse::<IfAddr>().unwrap())
        .unwrap();
    let host_mac = k.device(host).unwrap().mac;
    let burst = |n: u16, dst_mac| -> Batch {
        let mut batch = Batch::new();
        for i in 0..n {
            batch.push(builder::udp_packet(
                SOURCE_MAC,
                dst_mac,
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 1),
                1000 + i,
                7,
                b"x",
            ));
        }
        batch
    };
    let drops = |out: &linuxfp::netstack::stack::BatchOutcome| -> Vec<Vec<&str>> {
        out.outcomes.iter().map(|rx| rx.drops()).collect()
    };

    // Every attach, detach and re-attach between bursts is what the next
    // burst runs.
    let delivered = |k: &mut Kernel| {
        let out = k.inject_batch(host, &mut burst(4, host_mac));
        out.outcomes.iter().all(|rx| rx.deliveries().len() == 1)
    };
    assert!(delivered(&mut k));
    let (drop_all, dropped) = counting_hook(HookVerdict::Drop);
    k.attach_xdp(host, drop_all).unwrap();
    let out = k.inject_batch(host, &mut burst(4, host_mac));
    assert_eq!(drops(&out), vec![vec!["xdp drop"]; 4]);
    assert_eq!(dropped.load(Ordering::Relaxed), 4);
    k.detach_xdp(host);
    assert!(delivered(&mut k));
    assert_eq!(dropped.load(Ordering::Relaxed), 4);
    let (pass_all, passed) = counting_hook(HookVerdict::Pass);
    k.attach_xdp(host, pass_all).unwrap();
    assert!(delivered(&mut k));
    assert_eq!(passed.load(Ordering::Relaxed), 4);
    let (tc_drop, tc_dropped) = counting_hook(HookVerdict::Drop);
    k.attach_tc_ingress(host, tc_drop).unwrap();
    let out = k.inject_batch(host, &mut burst(4, host_mac));
    assert_eq!(drops(&out), vec![vec!["tc drop"]; 4]);
    assert_eq!(passed.load(Ordering::Relaxed), 8);
    assert_eq!(tc_dropped.load(Ordering::Relaxed), 4);

    // A burst on eth0 floods (unknown destination) out veth_a, so each
    // frame re-arrives on veth_b: eth0's hook runs on the burst, veth_b's
    // own hook on the re-queued frames.
    let (on_eth0, eth0_runs) = counting_hook(HookVerdict::Pass);
    let (on_veth_b, veth_b_runs) = counting_hook(HookVerdict::Drop);
    k.attach_xdp(eth0, on_eth0).unwrap();
    k.attach_xdp(veth_b, on_veth_b).unwrap();
    let unknown = linuxfp::packet::MacAddr::from_index(0x77);
    let out = k.inject_batch(eth0, &mut burst(4, unknown));
    assert_eq!(drops(&out), vec![vec!["xdp drop"]; 4]);
    assert_eq!(eth0_runs.load(Ordering::Relaxed), 4);
    assert_eq!(veth_b_runs.load(Ordering::Relaxed), 4);
    // The re-queued arrivals paid single-packet prices: a veth crossing
    // and a full XDP entry each, nothing into the burst's fixed cost.
    for rx in &out.outcomes {
        assert_eq!(rx.cost.stage_count("veth_cross"), 1);
        assert_eq!(rx.cost.stage_count("xdp_entry"), 2);
    }
    assert_eq!(out.batch_cost.stage_count("xdp_entry"), 1);
}
