//! The seven workloads: what each sets up, what one op group does, and
//! the O(1) output checks kept inside the timed loop.
//!
//! The seed permutes flow visiting order and source ports only; the
//! program under test sees nothing but frames (or pod payloads, or
//! standard configuration commands).

use crate::trace::{SpanName, Spans};
use linuxfp_ebpf::hook::HookPoint;
use linuxfp_k8s::{Cluster, PodRef};
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::l7::{L7Action, L7Policy};
use linuxfp_netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp_netstack::netfilter::{ChainHook, IptRule};
use linuxfp_netstack::stack::{rss, BatchOutcome, Effect, Kernel, RxOutcome};
use linuxfp_packet::tcp::TcpFlags;
use linuxfp_packet::{builder, Batch, MacAddr, ShardedPool};
use linuxfp_platforms::scenario::SOURCE_MAC;
use linuxfp_platforms::{LinuxFpPlatform, LinuxPlatform, Platform, Scenario};
use linuxfp_sim::{CostTracker, Nanos, SimRng};
use linuxfp_telemetry::Registry;
use std::net::Ipv4Addr;

/// Frames per injected burst (one NAPI poll).
pub const BURST: usize = 32;
/// Frame length excluding FCS: the smallest Ethernet frame, where
/// per-packet cost dominates.
const FRAME_LEN: usize = 60;
/// Where every workload frame comes from.
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 100);
/// What masquerading rewrites the source to (the downstream address).
const MASQ_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 1);
/// Offset of the IPv4 source address in an untagged frame.
const IP_SRC_OFF: usize = 14 + 12;

/// The seven workloads, by the names every later issue uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    RouterSteady,
    RouterSharded,
    RouterThrash,
    GatewayMiss,
    LinuxGateway,
    PodToPod,
    ReactionStorm,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::RouterSteady,
        WorkloadId::RouterSharded,
        WorkloadId::RouterThrash,
        WorkloadId::GatewayMiss,
        WorkloadId::LinuxGateway,
        WorkloadId::PodToPod,
        WorkloadId::ReactionStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::RouterSteady => "router_steady",
            WorkloadId::RouterSharded => "router_sharded",
            WorkloadId::RouterThrash => "router_thrash",
            WorkloadId::GatewayMiss => "gateway_miss",
            WorkloadId::LinuxGateway => "linux_gateway",
            WorkloadId::PodToPod => "pod_to_pod",
            WorkloadId::ReactionStorm => "reaction_storm",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do the work on it.
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::RouterSteady => {
                "1,000 flows that fit the flow cache: the cache-hit path does all the work, engine and controller none"
            }
            WorkloadId::RouterSharded => {
                "same flows over 8 RSS shards: per-shard pools, caches, coherence charges and shard counters"
            }
            WorkloadId::RouterThrash => {
                "5,000 flows against a 4,096-entry cache: every packet misses, records, inserts and evicts"
            }
            WorkloadId::GatewayMiss => {
                "100 linear rules with the clock advanced before every burst: the engine and helpers do the work, the cache only wastes it"
            }
            WorkloadId::LinuxGateway => {
                "plain Linux on the gateway frames: the slow path does all the work; denominator of the modelled speedup"
            }
            WorkloadId::PodToPod => {
                "two nodes, one pod each: the only path through bridge FDB, VXLAN encap/decap and the TC hook"
            }
            WorkloadId::ReactionStorm => {
                "graph-changing commands, each polled and probed: the control plane does all the work, the datapath little"
            }
        }
    }

    /// Ops per timed sample. On the datapath workloads a sample is a
    /// whole number of bursts sized to take 0.2–0.4 ms of host time
    /// (1.1 ms on `router_thrash`, whose single burst is the floor), so
    /// that a block of 64 samples spans 15–70 ms: short enough to fall
    /// between bursts of interference on the shared box (see
    /// `stats::WindowSummary`), long enough that two clock reads per
    /// sample cost under 1 ns per op.
    pub fn ops_per_group(self) -> u64 {
        let bursts = match self {
            WorkloadId::PodToPod => return 64,
            WorkloadId::ReactionStorm => return 1,
            WorkloadId::RouterSteady | WorkloadId::RouterSharded => 8,
            WorkloadId::LinuxGateway => 4,
            WorkloadId::GatewayMiss => 2,
            WorkloadId::RouterThrash => 1,
        };
        bursts * BURST as u64
    }

    /// Fixed warm-up, in ops. Long enough for every flow to be seen
    /// twice (datapath), for FDB/ARP/conntrack to settle (pods), and for
    /// two full command cycles (storm: after the first cycle the NAT
    /// stage stays deployed because its bindings outlive the flush, so
    /// only later cycles are steady state).
    fn warmup_ops(self) -> u64 {
        match self {
            WorkloadId::RouterThrash => 10_240,
            WorkloadId::PodToPod => 256,
            WorkloadId::ReactionStorm => 12,
            _ => 2_048,
        }
    }

    /// The op range, counted from the start of the timed window, that
    /// modelled time is taken over. Fixed per workload so that
    /// `virt_ns_per_op` does not depend on how many ops the host fitted
    /// into the window: 32,000 ops is a whole number of passes over
    /// 1,000 flows and of groups; the storm takes ten cycles.
    fn virt_ops(self) -> u64 {
        match self {
            WorkloadId::RouterThrash => 10_240,
            WorkloadId::PodToPod => 1_024,
            WorkloadId::ReactionStorm => 60,
            _ => 32_000,
        }
    }

    /// [`WorkloadId::warmup_ops`] in groups.
    pub fn warmup_groups(self) -> usize {
        (self.warmup_ops() / self.ops_per_group()) as usize
    }

    /// [`WorkloadId::virt_ops`] in groups.
    pub fn virt_groups(self) -> usize {
        (self.virt_ops() / self.ops_per_group()) as usize
    }

    fn datapath_spec(self) -> Option<DatapathSpec> {
        let router = DatapathSpec {
            scenario: Scenario::router(),
            linuxfp: true,
            flows: 1000,
            shards: 1,
            advance: false,
            blocked: false,
        };
        match self {
            WorkloadId::RouterSteady => Some(router),
            WorkloadId::RouterSharded => Some(DatapathSpec {
                shards: 8,
                ..router
            }),
            WorkloadId::RouterThrash => Some(DatapathSpec {
                flows: 5000,
                ..router
            }),
            WorkloadId::GatewayMiss => Some(DatapathSpec {
                scenario: Scenario::gateway(),
                advance: true,
                blocked: true,
                ..router
            }),
            WorkloadId::LinuxGateway => Some(DatapathSpec {
                scenario: Scenario::gateway(),
                linuxfp: false,
                blocked: true,
                ..router
            }),
            WorkloadId::PodToPod | WorkloadId::ReactionStorm => None,
        }
    }
}

/// What distinguishes the five datapath workloads.
#[derive(Debug, Clone, Copy)]
struct DatapathSpec {
    scenario: Scenario,
    /// LinuxFP attached, or plain Linux.
    linuxfp: bool,
    flows: usize,
    shards: u32,
    /// `Kernel::advance(10 µs)` before every burst: bumps the time
    /// generation, so every flow-cache entry is invalid.
    advance: bool,
    /// One frame in eight is addressed to a blacklisted destination.
    blocked: bool,
}

/// What one op group did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupOutcome {
    /// Modelled time charged, in ns.
    pub virt_ns: f64,
    /// Ops whose output the in-loop checks rejected.
    pub failed: u64,
    /// Frames that ended in a drop (expected or not).
    pub drops: u64,
}

/// The device under test on a datapath workload.
pub enum Dut {
    Fp(Box<LinuxFpPlatform>),
    Linux(Box<LinuxPlatform>),
}

impl Dut {
    fn process_batch(&mut self, batch: &mut Batch) -> BatchOutcome {
        match self {
            Dut::Fp(p) => p.process_batch(batch),
            Dut::Linux(p) => p.process_batch(batch),
        }
    }

    pub fn kernel_mut(&mut self) -> &mut Kernel {
        match self {
            Dut::Fp(p) => p.kernel_mut(),
            Dut::Linux(p) => p.kernel_mut(),
        }
    }

    fn dut_mac(&self) -> MacAddr {
        match self {
            Dut::Fp(p) => p.dut_mac(),
            Dut::Linux(p) => p.dut_mac(),
        }
    }
}

/// Fisher–Yates with the workload's own generator.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.uniform_u64(i as u64 + 1) as usize);
    }
}

/// `n` distinct source ports in seeded order.
fn seeded_ports(n: usize, rng: &mut SimRng) -> Vec<u16> {
    const SPAN: u64 = 60_000;
    assert!(n as u64 <= SPAN, "more flows than ports");
    let base = rng.uniform_u64(SPAN);
    let mut ports: Vec<u16> = (0..n as u64)
        .map(|i| (1024 + (base + i) % SPAN) as u16)
        .collect();
    shuffle(&mut ports, rng);
    ports
}

fn udp_frame(dut_mac: MacAddr, dst: Ipv4Addr, sport: u16) -> Vec<u8> {
    builder::udp_packet_sized(SOURCE_MAC, dut_mac, CLIENT, dst, sport, 4791, FRAME_LEN)
}

/// The pre-built frames of a datapath workload in visiting order, and
/// for each whether the configured rules must drop it.
fn build_flows(spec: &DatapathSpec, dut_mac: MacAddr, seed: u64) -> (Vec<Vec<u8>>, Vec<bool>) {
    let mut rng = SimRng::seed(seed);
    let ports = seeded_ports(spec.flows, &mut rng);
    if !spec.blocked {
        let mut frames: Vec<Vec<u8>> = ports
            .iter()
            .enumerate()
            .map(|(i, p)| udp_frame(dut_mac, spec.scenario.allowed_dst(i as u64), *p))
            .collect();
        shuffle(&mut frames, &mut rng);
        let n = frames.len();
        return (frames, vec![false; n]);
    }
    // One frame in eight is blocked, at a fixed position in every
    // octet, so any whole number of bursts drops exactly 1/8.
    assert!(
        spec.flows.is_multiple_of(8),
        "blocked flows need whole octets"
    );
    let n_blocked = spec.flows / 8;
    let (blocked_ports, allowed_ports) = ports.split_at(n_blocked);
    let mut blocked: Vec<Vec<u8>> = blocked_ports
        .iter()
        .enumerate()
        .map(|(j, p)| udp_frame(dut_mac, spec.scenario.blocked_dst(j as u32), *p))
        .collect();
    let mut allowed: Vec<Vec<u8>> = allowed_ports
        .iter()
        .enumerate()
        .map(|(i, p)| udp_frame(dut_mac, spec.scenario.allowed_dst(i as u64), *p))
        .collect();
    shuffle(&mut blocked, &mut rng);
    shuffle(&mut allowed, &mut rng);
    let mut frames = Vec::with_capacity(spec.flows);
    let mut expect_drop = Vec::with_capacity(spec.flows);
    let (mut blocked, mut allowed) = (blocked.into_iter(), allowed.into_iter());
    for i in 0..spec.flows {
        let is_blocked = i % 8 == 7;
        let next = if is_blocked {
            blocked.next()
        } else {
            allowed.next()
        };
        frames.push(next.expect("7 allowed and 1 blocked per octet"));
        expect_drop.push(is_blocked);
    }
    (frames, expect_drop)
}

/// Transmit and drop effects of a burst. Walks the effects in place:
/// `RxOutcome::transmissions` would allocate inside the timed loop.
fn count_effects(out: &BatchOutcome) -> (u64, u64) {
    let (mut tx, mut drops) = (0, 0);
    for rx in &out.outcomes {
        for effect in &rx.effects {
            match effect {
                Effect::Transmit { .. } => tx += 1,
                Effect::Drop { .. } => drops += 1,
                Effect::Deliver { .. } => {}
            }
        }
    }
    (tx, drops)
}

/// How many ops a burst check rejects: every frame must end in exactly
/// one transmit or drop, and exactly `expect_drops` must drop.
fn burst_failures(n: u64, tx: u64, drops: u64, expect_drops: u64) -> u64 {
    (tx + drops).abs_diff(n).max(drops.abs_diff(expect_drops))
}

/// A running datapath workload.
pub struct Datapath {
    pub dut: Dut,
    pub scenario: Scenario,
    pub upstream: IfIndex,
    pub frames: Vec<Vec<u8>>,
    expect_drop: Vec<bool>,
    /// RSS shard of each frame, so the generator draws its buffer from
    /// the pool of the shard that will process it.
    shard_of: Vec<usize>,
    pub pool: ShardedPool,
    batch: Batch,
    cursor: usize,
    advance: bool,
    /// When set, every outcome's cost breakdown is merged in here
    /// (traced pass only: merging costs host time).
    pub fold: Option<CostTracker>,
}

impl Datapath {
    fn new(spec: &DatapathSpec, seed: u64, registry: Option<&Registry>) -> Datapath {
        let mut dut = if spec.linuxfp {
            Dut::Fp(Box::new(match registry {
                Some(r) => {
                    LinuxFpPlatform::with_telemetry(spec.scenario, HookPoint::Xdp, r.clone())
                }
                None => LinuxFpPlatform::new(spec.scenario),
            }))
        } else {
            let mut p = LinuxPlatform::new(spec.scenario);
            if let Some(r) = registry {
                p.kernel_mut().set_telemetry(r.clone());
            }
            Dut::Linux(Box::new(p))
        };
        if spec.shards > 1 {
            dut.kernel_mut()
                .sysctl_set("net.linuxfp.rss_shards", i64::from(spec.shards))
                .expect("rss_shards sysctl exists");
            if let Dut::Fp(p) = &mut dut {
                // Drain the sysctl notification now, not in the window.
                p.poll_controller();
            }
        }
        let upstream = dut
            .kernel_mut()
            .ifindex("ens1f0")
            .expect("scenario upstream device");
        let (frames, expect_drop) = build_flows(spec, dut.dut_mac(), seed);
        let shard_of = frames
            .iter()
            .map(|f| rss::shard_for(f, spec.shards) as usize)
            .collect();
        Datapath {
            dut,
            scenario: spec.scenario,
            upstream,
            frames,
            expect_drop,
            shard_of,
            pool: ShardedPool::new(spec.shards as usize),
            batch: Batch::with_capacity(BURST),
            cursor: 0,
            advance: spec.advance,
            fold: None,
        }
    }

    /// A workload frame the configured rules forward.
    pub fn forwarded_frame(&self) -> &[u8] {
        let i = self
            .expect_drop
            .iter()
            .position(|d| !d)
            .expect("every workload forwards something");
        &self.frames[i]
    }

    /// One burst: generate, process, check, complete.
    fn burst(&mut self, spans: &mut Spans, out: &mut GroupOutcome) {
        if self.advance {
            self.dut.kernel_mut().advance(Nanos::from_micros(10));
        }
        let t = spans.now();
        let mut expect_drops = 0u64;
        for _ in 0..BURST {
            let i = self.cursor;
            self.batch
                .push(self.pool.acquire_from(self.shard_of[i], &self.frames[i]));
            expect_drops += u64::from(self.expect_drop[i]);
            self.cursor = if i + 1 == self.frames.len() { 0 } else { i + 1 };
        }
        spans.leaf(SpanName::Generate, t);

        let t = spans.now();
        let result = self.dut.process_batch(&mut self.batch);
        spans.leaf(SpanName::ProcessBatch, t);

        let t = spans.now();
        out.virt_ns += result.total_ns();
        let (tx, drops) = count_effects(&result);
        out.drops += drops;
        out.failed += burst_failures(BURST as u64, tx, drops, expect_drops);
        if let Some(fold) = &mut self.fold {
            fold.merge(&result.batch_cost);
            for rx in &result.outcomes {
                fold.merge(&rx.cost);
            }
        }
        drop(result);
        spans.leaf(SpanName::Complete, t);
    }

    fn group(&mut self, ops: u64, spans: &mut Spans) -> GroupOutcome {
        let mut out = GroupOutcome::default();
        for _ in 0..ops / BURST as u64 {
            self.burst(spans, &mut out);
        }
        out
    }
}

/// Payload bytes per pod-to-pod packet.
const POD_PAYLOAD: usize = 32;
/// Distinct pre-built payloads the pod workload cycles through.
const POD_PAYLOADS: usize = 64;

/// A running pod-to-pod workload.
pub struct Pods {
    pub cluster: Cluster,
    pub a: PodRef,
    pub b: PodRef,
    payloads: Vec<Vec<u8>>,
    cursor: usize,
    /// Sums of `DeliveryReport::node_hops` / `fast_path_hits`.
    pub node_hops: u64,
    pub fast_path_hits: u64,
    pub sends_with_fast_path: u64,
    pub sends: u64,
}

impl Pods {
    fn new(accelerated: bool, seed: u64) -> Pods {
        let mut cluster = Cluster::new(2, accelerated);
        let a = cluster.add_pod(0);
        let b = cluster.add_pod(1);
        cluster.warm_pair(a, b);
        // `pod_send` fixes the 5-tuple, so the seed varies the one thing
        // left to the generator: the payload bytes.
        let mut rng = SimRng::seed(seed);
        let payloads = (0..POD_PAYLOADS)
            .map(|_| {
                (0..POD_PAYLOAD)
                    .map(|_| rng.uniform_u64(256) as u8)
                    .collect()
            })
            .collect();
        Pods {
            cluster,
            a,
            b,
            payloads,
            cursor: 0,
            node_hops: 0,
            fast_path_hits: 0,
            sends_with_fast_path: 0,
            sends: 0,
        }
    }

    /// Alternating request/response sends.
    fn group(&mut self, ops: u64, spans: &mut Spans) -> GroupOutcome {
        let mut out = GroupOutcome::default();
        for _ in 0..ops {
            let i = self.cursor;
            self.cursor = if i + 1 == self.payloads.len() {
                0
            } else {
                i + 1
            };
            let (from, to) = if i.is_multiple_of(2) {
                (self.a, self.b)
            } else {
                (self.b, self.a)
            };
            let t = spans.now();
            let report = self.cluster.pod_send(from, to, &self.payloads[i]);
            spans.leaf(SpanName::PodSend, t);
            out.virt_ns += report.total_cost_ns;
            out.failed += u64::from(!report.delivered);
            self.sends += 1;
            self.node_hops += u64::from(report.node_hops);
            self.fast_path_hits += report.fast_path_hits;
            self.sends_with_fast_path += u64::from(report.fast_path_hits > 0);
        }
        out
    }
}

/// What the probe burst after a storm command must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeExpect {
    /// All 32 frames dropped.
    Dropped,
    /// All 32 forwarded, IPv4 source as given.
    ForwardedFrom(Ipv4Addr),
}

/// Number of commands in the storm cycle.
pub const STORM_STEPS: usize = 6;

/// The pre-built probe bursts of the reaction storm, indexed by step.
/// Steps: 0 `iptables_append`, 1 `iptables_flush`, 2
/// `iptables_nat_append(MASQUERADE)`, 3 `iptables_nat_flush`, 4
/// `l7_policy_append`, 5 `l7_policy_flush`.
struct StormProbes {
    frames: [Vec<Vec<u8>>; STORM_STEPS],
    expect: [ProbeExpect; STORM_STEPS],
}

impl StormProbes {
    fn new(scenario: Scenario, dut_mac: MacAddr, seed: u64) -> StormProbes {
        let mut rng = SimRng::seed(seed);
        let ports = seeded_ports(4 * BURST, &mut rng);
        let set = |k: usize| &ports[k * BURST..(k + 1) * BURST];
        // Frames the FORWARD rule of step 0 matches.
        let blocked_host = Scenario::blacklist_prefix(0).nth_host(1);
        let filtered: Vec<Vec<u8>> = set(0)
            .iter()
            .map(|p| udp_frame(dut_mac, blocked_host, *p))
            .collect();
        // Flows that bind under MASQUERADE. Their bindings outlive the
        // flush, as in Linux, so step 3 probes flows that never bound.
        let routed = |ports: &[u16]| -> Vec<Vec<u8>> {
            ports
                .iter()
                .enumerate()
                .map(|(i, p)| udp_frame(dut_mac, scenario.allowed_dst(i as u64), *p))
                .collect()
        };
        let masqueraded = routed(set(1));
        let unbound = routed(set(2));
        let http: Vec<Vec<u8>> = set(3)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                builder::tcp_packet(
                    SOURCE_MAC,
                    dut_mac,
                    CLIENT,
                    scenario.allowed_dst(i as u64),
                    *p,
                    80,
                    TcpFlags {
                        psh: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                    b"GET /blocked/0 HTTP/1.1\r\n",
                )
            })
            .collect();
        StormProbes {
            frames: [
                filtered.clone(),
                filtered,
                masqueraded,
                unbound,
                http.clone(),
                http,
            ],
            expect: [
                ProbeExpect::Dropped,
                ProbeExpect::ForwardedFrom(CLIENT),
                ProbeExpect::ForwardedFrom(MASQ_ADDR),
                ProbeExpect::ForwardedFrom(CLIENT),
                ProbeExpect::Dropped,
                ProbeExpect::ForwardedFrom(CLIENT),
            ],
        }
    }
}

/// Applies storm command `step` through the kernel's standard API.
pub fn storm_command(kernel: &mut Kernel, downstream: IfIndex, step: usize) {
    match step % STORM_STEPS {
        0 => kernel.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst(Scenario::blacklist_prefix(0)),
        ),
        1 => kernel.iptables_flush(ChainHook::Forward),
        2 => {
            let ok = kernel.iptables_nat_append(
                NatChain::Postrouting,
                NatRule {
                    out_if: Some(downstream),
                    ..NatRule::any(NatTarget::Masquerade)
                },
            );
            assert!(ok, "MASQUERADE is legal on POSTROUTING");
        }
        3 => kernel.iptables_nat_flush(),
        4 => kernel.l7_policy_append(L7Policy::prefix(b"/blocked/0", L7Action::Deny)),
        _ => kernel.l7_policy_flush(),
    }
}

/// How many of a probe burst's frames contradict `expect`.
fn probe_failures(out: &BatchOutcome, expect: ProbeExpect) -> u64 {
    let mut bad = 0;
    for rx in &out.outcomes {
        let ok = match (expect, rx.effects.as_slice()) {
            (ProbeExpect::Dropped, [Effect::Drop { .. }]) => true,
            (ProbeExpect::ForwardedFrom(src), [Effect::Transmit { frame, .. }]) => {
                frame.get(IP_SRC_OFF..IP_SRC_OFF + 4) == Some(&src.octets()[..])
            }
            _ => false,
        };
        bad += u64::from(!ok);
    }
    bad + (out.outcomes.len() as u64).abs_diff(BURST as u64)
}

/// A running reaction storm.
pub struct Storm {
    pub platform: Box<LinuxFpPlatform>,
    downstream: IfIndex,
    probes: StormProbes,
    pub pool: ShardedPool,
    batch: Batch,
    step: usize,
    /// Modelled reaction time by controller stage, summed while set
    /// (traced pass only).
    pub stage_fold: Option<Vec<(&'static str, f64)>>,
    /// Reactions whose report said the graph did not change.
    pub unchanged: u64,
}

impl Storm {
    fn new(seed: u64, registry: Option<&Registry>) -> Storm {
        let scenario = Scenario::router();
        let mut platform = Box::new(match registry {
            Some(r) => LinuxFpPlatform::with_telemetry(scenario, HookPoint::Xdp, r.clone()),
            None => LinuxFpPlatform::new(scenario),
        });
        let downstream = platform
            .kernel_mut()
            .ifindex("ens1f1")
            .expect("scenario downstream device");
        let probes = StormProbes::new(scenario, platform.dut_mac(), seed);
        Storm {
            platform,
            downstream,
            probes,
            pool: ShardedPool::new(1),
            batch: Batch::with_capacity(BURST),
            step: 0,
            stage_fold: None,
            unchanged: 0,
        }
    }

    /// Runs reactions until the command cycle is complete, so that what
    /// follows always sees the same configuration.
    pub fn finish_cycle(&mut self) {
        while !self.step.is_multiple_of(STORM_STEPS) {
            let out = self.reaction(&mut Spans::off());
            assert_eq!(out.failed, 0, "reaction failed while finishing the cycle");
        }
    }

    /// One reaction: command → `poll_controller` returns → probe burst
    /// verified.
    fn reaction(&mut self, spans: &mut Spans) -> GroupOutcome {
        let step = self.step % STORM_STEPS;
        self.step += 1;
        let mut out = GroupOutcome::default();

        let t = spans.now();
        storm_command(self.platform.kernel_mut(), self.downstream, step);
        spans.leaf(SpanName::Command, t);

        let t = spans.now();
        let report = self.platform.poll_controller();
        spans.leaf(SpanName::PollController, t);

        let t = spans.now();
        let changed = match &report {
            Some(r) => {
                out.virt_ns += r.reaction.as_nanos() as f64;
                if let Some(fold) = &mut self.stage_fold {
                    for (stage, ns) in &r.stages {
                        match fold.iter_mut().find(|(s, _)| s == stage) {
                            Some((_, total)) => *total += ns.as_nanos() as f64,
                            None => fold.push((stage, ns.as_nanos() as f64)),
                        }
                    }
                }
                r.changed
            }
            None => false,
        };
        self.unchanged += u64::from(!changed);
        for frame in &self.probes.frames[step] {
            self.batch.push(self.pool.acquire_from(0, frame));
        }
        let result = self.platform.process_batch(&mut self.batch);
        let bad_frames = probe_failures(&result, self.probes.expect[step]);
        let (_, drops) = count_effects(&result);
        out.drops += drops;
        // The op is the reaction: it fails as a whole.
        out.failed += u64::from(!changed || bad_frames > 0);
        drop(result);
        spans.leaf(SpanName::Probe, t);
        out
    }
}

/// A set-up workload, ready to run groups.
pub enum Instance {
    Datapath(Box<Datapath>),
    Pods(Box<Pods>),
    Storm(Box<Storm>),
}

impl Instance {
    /// Platform/cluster construction, `Controller::attach` and frame
    /// pre-build — everything `setup_s` covers except the warm-up, which
    /// the caller runs as ordinary groups. With a registry, telemetry is
    /// wired (traced pass); without, it is off.
    pub fn set_up(id: WorkloadId, seed: u64, registry: Option<&Registry>) -> Instance {
        match id.datapath_spec() {
            Some(spec) => Instance::Datapath(Box::new(Datapath::new(&spec, seed, registry))),
            None if id == WorkloadId::PodToPod => Instance::Pods(Box::new(Pods::new(true, seed))),
            None => Instance::Storm(Box::new(Storm::new(seed, registry))),
        }
    }

    /// The Linux-only twin of a LinuxFP workload: same frames, no
    /// controller. `None` where the workload has no such twin.
    pub fn set_up_linux_twin(id: WorkloadId, seed: u64) -> Option<Instance> {
        match id {
            WorkloadId::LinuxGateway | WorkloadId::ReactionStorm => None,
            WorkloadId::PodToPod => Some(Instance::Pods(Box::new(Pods::new(false, seed)))),
            _ => {
                let spec = DatapathSpec {
                    linuxfp: false,
                    ..id.datapath_spec()?
                };
                Some(Instance::Datapath(Box::new(Datapath::new(
                    &spec, seed, None,
                ))))
            }
        }
    }

    /// Starts folding modelled time by stage (traced pass only: folding
    /// costs host time).
    pub fn start_fold(&mut self) {
        match self {
            Instance::Datapath(d) => d.fold = Some(CostTracker::new()),
            Instance::Storm(s) => s.stage_fold = Some(Vec::new()),
            // `DeliveryReport` carries a total, no stages.
            Instance::Pods(_) => {}
        }
    }

    /// Stops folding; returns `(datapath stages, controller stages)` as
    /// `(name, total modelled ns)`.
    #[allow(clippy::type_complexity)]
    pub fn take_fold(&mut self) -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>) {
        match self {
            Instance::Datapath(d) => {
                let fold = d.fold.take().unwrap_or_default();
                (
                    fold.stages().map(|(s, c)| (s, c.total_ns)).collect(),
                    Vec::new(),
                )
            }
            Instance::Storm(s) => (Vec::new(), s.stage_fold.take().unwrap_or_default()),
            Instance::Pods(_) => (Vec::new(), Vec::new()),
        }
    }

    /// Runs one op group of `id.ops_per_group()` ops.
    pub fn group(&mut self, id: WorkloadId, spans: &mut Spans) -> GroupOutcome {
        match self {
            Instance::Datapath(d) => d.group(id.ops_per_group(), spans),
            Instance::Pods(p) => p.group(id.ops_per_group(), spans),
            Instance::Storm(s) => s.reaction(spans),
        }
    }
}

// ---------------------------------------------------------------------
// The oracle: a Linux-only twin replays the first ops of the workload.
// ---------------------------------------------------------------------

/// Ops replayed through both twins before timing.
pub const ORACLE_OPS: u64 = 4096;

/// What the pre-timing replay found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    pub attempted: u64,
    /// Ops whose transmissions, deliveries or drop classes differed
    /// between LinuxFP and Linux.
    pub failed: u64,
    /// `hits + fallbacks == injected` on the LinuxFP twin (vacuously
    /// true where no registry can be wired: the cluster).
    pub ledger_ok: bool,
    /// The first disagreement, for the log.
    pub first_mismatch: Option<String>,
}

/// Collapses drop reasons into layer-independent classes, as the
/// differential fuzzer does: a policy drop surfaces as `nf forward drop`
/// on the slow path but as `xdp drop`/`tc drop` when the synthesized
/// filter rejects the same packet at the hook.
fn canonical_drop(reason: &str) -> &str {
    match reason {
        "xdp drop" | "tc drop" | "nf input drop" | "nf forward drop" | "l7 policy deny" => {
            "policy drop"
        }
        other => other,
    }
}

/// Ops (frames) of a burst on which the two paths disagree.
fn burst_mismatches(fp: &BatchOutcome, linux: &BatchOutcome, first: &mut Option<String>) -> u64 {
    let mut bad = (fp.outcomes.len() as u64).abs_diff(linux.outcomes.len() as u64);
    for (i, (f, l)) in fp.outcomes.iter().zip(&linux.outcomes).enumerate() {
        let drops =
            |o: &RxOutcome| -> Vec<&str> { o.drops().into_iter().map(canonical_drop).collect() };
        let same = f.transmissions() == l.transmissions()
            && f.deliveries() == l.deliveries()
            && drops(f) == drops(l);
        if !same {
            bad += 1;
            first.get_or_insert_with(|| {
                format!(
                    "frame {i}: linuxfp tx {} drops {:?} vs linux tx {} drops {:?}",
                    f.transmissions().len(),
                    f.drops(),
                    l.transmissions().len(),
                    l.drops()
                )
            });
        }
    }
    bad
}

/// The conservation ledger: every injected frame hit a fast path or
/// fell back to the slow path.
pub fn ledger_ok(registry: &Registry, injected: u64) -> bool {
    registry.counter_total("linuxfp_fp_hits_total")
        + registry.counter_total("linuxfp_slowpath_fallbacks_total")
        == injected
}

fn oracle_datapath(id: WorkloadId, spec: &DatapathSpec, seed: u64) -> OracleReport {
    let registry = Registry::new();
    let fp_spec = DatapathSpec {
        linuxfp: true,
        ..*spec
    };
    let linux_spec = DatapathSpec {
        linuxfp: false,
        shards: 1,
        ..*spec
    };
    let mut fp = Datapath::new(&fp_spec, seed, Some(&registry));
    let mut linux = Datapath::new(&linux_spec, seed, None);
    assert_eq!(
        fp.frames,
        linux.frames,
        "{}: twins see the same frames",
        id.name()
    );
    let mut report = OracleReport::default();
    let mut injected = 0u64;
    while report.attempted < ORACLE_OPS {
        let mut outs = Vec::with_capacity(2);
        for side in [&mut fp, &mut linux] {
            if side.advance {
                side.dut.kernel_mut().advance(Nanos::from_micros(10));
            }
            for _ in 0..BURST {
                let i = side.cursor;
                side.batch.push(side.frames[i].clone());
                side.cursor = (i + 1) % side.frames.len();
            }
            outs.push(side.dut.process_batch(&mut side.batch));
        }
        report.failed += burst_mismatches(&outs[0], &outs[1], &mut report.first_mismatch);
        report.attempted += BURST as u64;
        injected += BURST as u64;
    }
    report.ledger_ok = ledger_ok(&registry, injected);
    report
}

fn oracle_pods(seed: u64) -> OracleReport {
    let mut fast = Pods::new(true, seed);
    let mut plain = Pods::new(false, seed);
    let mut report = OracleReport {
        ledger_ok: true,
        ..OracleReport::default()
    };
    for op in 0..ORACLE_OPS {
        let i = (op as usize) % fast.payloads.len();
        let pick = |p: &Pods| if op % 2 == 0 { (p.a, p.b) } else { (p.b, p.a) };
        let (from, to) = pick(&fast);
        let f = fast.cluster.pod_send(from, to, &fast.payloads[i]);
        let (from, to) = pick(&plain);
        let l = plain.cluster.pod_send(from, to, &plain.payloads[i]);
        report.attempted += 1;
        if (f.delivered, f.node_hops) != (l.delivered, l.node_hops) || !f.delivered {
            report.failed += 1;
            report.first_mismatch.get_or_insert_with(|| {
                format!(
                    "send {op}: linuxfp delivered={} hops={} vs linux delivered={} hops={}",
                    f.delivered, f.node_hops, l.delivered, l.node_hops
                )
            });
        }
    }
    report
}

fn oracle_storm(seed: u64) -> OracleReport {
    let registry = Registry::new();
    let mut storm = Storm::new(seed, Some(&registry));
    let scenario = Scenario::router();
    let mut linux = LinuxPlatform::new(scenario);
    assert_eq!(
        storm.platform.dut_mac(),
        linux.dut_mac(),
        "same seed, same MACs"
    );
    let mut report = OracleReport::default();
    let mut injected = 0u64;
    for op in 0..ORACLE_OPS as usize {
        let step = op % STORM_STEPS;
        storm_command(storm.platform.kernel_mut(), storm.downstream, step);
        storm_command(linux.kernel_mut(), storm.downstream, step);
        let changed = storm.platform.poll_controller().is_some_and(|r| r.changed);
        let frames = &storm.probes.frames[step];
        let mut fp_batch = Batch::from(frames.clone());
        let mut linux_batch = Batch::from(frames.clone());
        let f = storm.platform.process_batch(&mut fp_batch);
        let l = linux.process_batch(&mut linux_batch);
        injected += frames.len() as u64;
        let bad = burst_mismatches(&f, &l, &mut report.first_mismatch)
            + probe_failures(&f, storm.probes.expect[step]);
        report.attempted += 1;
        if !changed || bad > 0 {
            report.failed += 1;
            report
                .first_mismatch
                .get_or_insert_with(|| format!("reaction {op} (step {step}): changed={changed}"));
        }
    }
    report.ledger_ok = ledger_ok(&registry, injected);
    report
}

/// Replays the first [`ORACLE_OPS`] ops of `id` through a LinuxFP twin
/// and a Linux-only twin and requires identical transmissions,
/// deliveries and drop classes (pods: delivery and node hops), then
/// checks the conservation ledger on the LinuxFP side.
pub fn oracle(id: WorkloadId, seed: u64) -> OracleReport {
    match id.datapath_spec() {
        Some(spec) => oracle_datapath(id, &spec, seed),
        None if id == WorkloadId::PodToPod => oracle_pods(seed),
        None => oracle_storm(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(WorkloadId::from_name("nope"), None);
    }

    #[test]
    fn fixed_op_ranges_are_whole_groups() {
        for w in WorkloadId::ALL {
            assert_eq!(w.warmup_ops() % w.ops_per_group(), 0, "{}", w.name());
            assert_eq!(w.virt_ops() % w.ops_per_group(), 0, "{}", w.name());
            assert!(w.virt_groups() > 0 && w.warmup_groups() > 0);
        }
    }

    #[test]
    fn seed_changes_order_and_ports_only() {
        let spec = WorkloadId::GatewayMiss.datapath_spec().unwrap();
        let mac = MacAddr::from_index(9);
        let (a, drop_a) = build_flows(&spec, mac, 11);
        let (b, drop_b) = build_flows(&spec, mac, 11);
        let (c, drop_c) = build_flows(&spec, mac, 12);
        assert_eq!(a, b, "same seed, same frames");
        assert_ne!(a, c, "another seed, another order or ports");
        // The drop pattern is positional and seed-independent: exactly
        // one frame in every octet.
        assert_eq!(drop_a, drop_b);
        assert_eq!(drop_a, drop_c);
        for octet in drop_a.chunks(8) {
            assert_eq!(octet.iter().filter(|d| **d).count(), 1);
        }
        // Flows are distinct: no two frames share (dst, sport).
        let mut keys: Vec<&[u8]> = a.iter().map(|f| &f[30..36]).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.len());
    }

    #[test]
    fn burst_check_counts_disagreeing_ops() {
        assert_eq!(burst_failures(32, 28, 4, 4), 0);
        assert_eq!(burst_failures(32, 32, 0, 4), 4);
        assert_eq!(burst_failures(32, 20, 4, 4), 8);
    }
}
