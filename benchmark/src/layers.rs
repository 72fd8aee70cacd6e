//! The traced pass: spans around every call into the program, counts
//! from a wired telemetry registry, and isolated probes that time each
//! layer's public functions on inputs captured from the workload.
//!
//! Nothing here feeds an end-to-end metric. The probes answer "what
//! share of `host_ns_per_op_p50` can this layer account for": the load
//! is closed-loop and single-threaded, so a faster layer saves at most
//! its own share.

use crate::child::{measure_window, warm_up};
use crate::stats::median;
use crate::trace::{self, SpanName, Spans};
use crate::workloads::{ledger_ok, Datapath, Dut, Instance, WorkloadId, BURST};
use linuxfp_core::capability::Capabilities;
use linuxfp_core::graph::build_graph;
use linuxfp_core::objects::ObjectStore;
use linuxfp_core::synth::synthesize;
use linuxfp_ebpf::flowcache::{FlowCache, FlowEntry, FlowKey, DEFAULT_CAPACITY};
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::program::{LoadedProgram, Program};
use linuxfp_ebpf::vm::{self, VmCtx};
use linuxfp_ebpf::{opt, verifier};
use linuxfp_json::{json, Map, Value};
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::netfilter::PacketMeta;
use linuxfp_netstack::stack::{rss, HookVerdict, Kernel};
use linuxfp_packet::rewrite::{self, RewriteOp};
use linuxfp_packet::{builder, Batch, BufferPool, EthernetFrame, IpProto, Ipv4Header};
use linuxfp_platforms::scenario::NEXT_HOP;
use linuxfp_platforms::Scenario;
use linuxfp_sim::CostTracker;
use linuxfp_telemetry::Registry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Modelled-time stages reported by name; anything else a workload
/// charges lands in `virt.stage.other_ns_per_op`, so the stage metrics
/// (with the controller stages on `reaction_storm`) always sum to
/// `virt_ns_per_op`. `pod_to_pod` is all "other": `DeliveryReport`
/// carries a total and no stages.
const VIRT_STAGES: [&str; 32] = [
    "bridge_flood",
    "bridge_stack",
    "coherence",
    "conntrack",
    "driver_rx",
    "driver_tx",
    "ebpf_insn",
    "fib_lookup",
    "flowcache_hit",
    "helper_fdb_lookup",
    "helper_fib_lookup",
    "helper_ipt_base",
    "helper_redirect",
    "ip_forward",
    "ip_rcv",
    "jit_insn",
    "l7_lookup",
    "l7_policy",
    "local_deliver",
    "nat_bind",
    "nat_lookup",
    "neigh_lookup",
    "nf_hook",
    "nf_rule_match",
    "qdisc_xmit",
    "skb_alloc",
    "tail_call",
    "tc_entry",
    "veth_cross",
    "vxlan_decap",
    "vxlan_encap",
    "xdp_entry",
];

/// Controller stages of `ReactionReport::stages`.
const CONTROLLER_STAGES: [&str; 10] = [
    "detect",
    "introspect_links",
    "introspect_routes",
    "introspect_iptables",
    "build_graph",
    "synthesize",
    "optimize",
    "compile",
    "verify_load",
    "swap",
];

/// Every per-layer metric with its unit, fixed so that `BENCHMARK.json`
/// can list them: a workload a metric does not apply to reports 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("packet.pool.acquire_release_ns", "ns"),
        ("packet.parse.eth_ipv4_ns", "ns"),
        ("packet.rewrite.apply_ops_ns", "ns"),
        ("packet.rewrite.derive_ops_ns", "ns"),
        ("packet.pool.high_water", "count"),
        ("platforms.generator.ns_per_op", "ns"),
        ("netstack.rss.shard_for_ns", "ns"),
        ("netstack.state_generation_ns", "ns"),
        ("netstack.fib.lookup_ns", "ns"),
        ("netstack.netfilter.ipt_lookup_ns", "ns"),
        ("netstack.slowpath.ns_per_op", "ns"),
        ("netstack.drop_share", "ratio"),
        ("ebpf.flowkey.extract_ns", "ns"),
        ("ebpf.flowcache.lookup_hit_ns", "ns"),
        ("ebpf.flowcache.lookup_miss_ns", "ns"),
        ("ebpf.flowcache.insert_ns", "ns"),
        ("ebpf.flowcache.hit_ratio", "ratio"),
        ("ebpf.flowcache.evictions_per_op", "count"),
        ("ebpf.flowcache.invalidations_per_op", "count"),
        ("ebpf.hook.fastpath_share", "ratio"),
        ("ebpf.vm.execute_compiled_ns", "ns"),
        ("ebpf.vm.execute_interp_ns", "ns"),
        ("ebpf.vm.insns_per_run", "count"),
        ("ebpf.vm.helper_calls_per_run", "count"),
        ("ebpf.verifier.verify_ns", "ns"),
        ("ebpf.opt.optimize_ns", "ns"),
        ("ebpf.program.load_ns", "ns"),
        ("ebpf.opt.insns_before", "count"),
        ("ebpf.opt.insns_after", "count"),
        ("core.objects.snapshot_ns", "ns"),
        ("core.graph.build_ns", "ns"),
        ("core.synth.synthesize_ns", "ns"),
        ("core.controller.poll_redeploy_ns", "ns"),
        ("core.controller.poll_noop_ns", "ns"),
        ("core.deploy.program_insns", "count"),
        ("sim.cost_tracker.charge_ns", "ns"),
        ("platforms.virt_speedup_vs_linux", "ratio"),
        ("telemetry.metrics_overhead_pct", "%"),
        ("telemetry.trace64_overhead_pct", "%"),
        ("k8s.pod_send.node_hops", "count"),
        ("k8s.pod_send.fast_path_hits_per_send", "count"),
        ("bench.harness_self_ns_per_op", "ns"),
        ("bench.trace_overhead_pct", "%"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for stage in CONTROLLER_STAGES {
        m.push((format!("core.controller.virt_stage_ns.{stage}"), "virt_ns"));
    }
    for stage in VIRT_STAGES.iter().copied().chain(["other"]) {
        m.push((format!("virt.stage.{stage}_ns_per_op"), "virt_ns"));
    }
    m
}

/// Times `body` in a tight loop for about `budget`: calls are grouped so
/// that one clock read pair covers at least ~20 µs of work, and the
/// median group gives ns per call. Returns 0 only if `budget` is zero.
fn time_calls(budget: Duration, mut body: impl FnMut()) -> f64 {
    let first = Instant::now();
    body();
    let once = first.elapsed().as_nanos().max(1) as u64;
    let per_sample = (20_000 / once).clamp(1, 4096);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_sample {
            body();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

/// The metrics one traced pass produced, by name; names outside
/// [`per_layer_metrics`] are a bug caught when the report is assembled.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Program sizes before and after the optimizer, summed.
    fn set_opt_sizes(&mut self, pipelines: &[Pipeline]) {
        let sum = |f: fn(&Pipeline) -> usize| pipelines.iter().map(f).sum::<usize>() as f64;
        self.set("ebpf.opt.insns_before", sum(|p| p.naive.len()));
        self.set("ebpf.opt.insns_after", sum(|p| p.optimized.len()));
    }
}

/// Synthesizes, optimizes and names the fast paths the controller would
/// install for `kernel`'s current configuration — the same pipeline
/// `Controller::sync` runs, from public functions only. This is how the
/// probes reach programs the API does not hand out (the cluster's) and
/// the pre-optimizer form of those it does.
struct Pipeline {
    ifindex: IfIndex,
    name: String,
    naive: Vec<linuxfp_ebpf::insn::Insn>,
    optimized: Vec<linuxfp_ebpf::insn::Insn>,
}

fn resynthesize(kernel: &Kernel) -> Vec<Pipeline> {
    let store = ObjectStore::snapshot(kernel);
    let graph = build_graph(&store, &Capabilities::full());
    synthesize(&graph)
        .expect("the controller synthesized this configuration")
        .into_iter()
        .map(|fp| {
            let (optimized, _) = opt::optimize(&fp.program.insns);
            Pipeline {
                ifindex: fp.ifindex,
                name: fp.program.name,
                naive: fp.program.insns,
                optimized,
            }
        })
        .collect()
}

/// Probes that need nothing but frames.
fn probe_packet(layers: &mut Layers, id: WorkloadId, frames: &[Vec<u8>], budget: Duration) {
    let pool = BufferPool::new();
    drop(pool.acquire());
    layers.set(
        "packet.pool.acquire_release_ns",
        time_calls(budget, || drop(black_box(pool.acquire()))),
    );
    let mut i = 0;
    let mut next = move || {
        i = if i + 1 >= frames.len() { 0 } else { i + 1 };
        &frames[i]
    };
    if matches!(id, WorkloadId::LinuxGateway | WorkloadId::GatewayMiss) {
        layers.set(
            "packet.parse.eth_ipv4_ns",
            time_calls(budget, || {
                let f = next();
                let eth = EthernetFrame::parse(black_box(f)).expect("workload frame");
                black_box(Ipv4Header::parse(&f[eth.payload_offset..]).expect("workload frame"));
            }),
        );
    }
    if id == WorkloadId::RouterSharded {
        layers.set(
            "netstack.rss.shard_for_ns",
            time_calls(budget, || {
                black_box(rss::shard_for(black_box(next()), 8));
            }),
        );
    }
}

/// `CostTracker::charge` over a tracker holding a typical packet's
/// stage set (the map is what `charge` searches).
fn probe_cost_tracker(layers: &mut Layers, budget: Duration) {
    let mut tracker = CostTracker::new();
    let mut i = 0;
    layers.set(
        "sim.cost_tracker.charge_ns",
        time_calls(budget, || {
            i = (i + 1) % 8;
            tracker.charge(black_box(VIRT_STAGES[i * 3]), 1.0);
        }),
    );
    black_box(tracker.total_ns());
}

/// Probes on a LinuxFP datapath workload's kernel, frames and installed
/// program.
fn probe_datapath(layers: &mut Layers, id: WorkloadId, d: &mut Datapath, budget: Duration) {
    let upstream = d.upstream;
    let before = d.forwarded_frame().to_vec();
    // `frames` and `dut` are disjoint fields: the probes read one while
    // driving the other.
    let frames = &d.frames;
    let scenario = d.scenario;
    let is_gateway = matches!(id, WorkloadId::GatewayMiss | WorkloadId::LinuxGateway);

    if id == WorkloadId::RouterSteady {
        let kernel = d.dut.kernel_mut();
        layers.set(
            "netstack.state_generation_ns",
            time_calls(budget, || {
                black_box(black_box(&*kernel).state_generation());
            }),
        );
    }
    if is_gateway {
        let downstream = d
            .dut
            .kernel_mut()
            .ifindex("ens1f1")
            .expect("scenario downstream device");
        let kernel = d.dut.kernel_mut();
        let mut i = 0u64;
        layers.set(
            "netstack.fib.lookup_ns",
            time_calls(budget, || {
                i += 1;
                black_box(kernel.helper_fib_lookup(scenario.allowed_dst(i)));
            }),
        );
        // An allowed destination: the whole 100-rule chain is walked.
        let mut tracker = CostTracker::new();
        layers.set(
            "netstack.netfilter.ipt_lookup_ns",
            time_calls(budget, || {
                i += 1;
                let meta = PacketMeta {
                    src: Ipv4Addr::new(10, 0, 1, 100),
                    dst: scenario.allowed_dst(i),
                    proto: IpProto::Udp,
                    sport: 1024 + (i % 1000) as u16,
                    dport: 4791,
                    in_if: upstream,
                    out_if: downstream,
                };
                black_box(kernel.helper_ipt_lookup(black_box(&meta), &mut tracker));
            }),
        );
    }
    if id == WorkloadId::LinuxGateway {
        // A Linux-only twin driven below the platform layer: frame
        // generation stays outside the timed interval.
        let mut twin = Kernel::new(100);
        let (up, _) = scenario.configure_kernel(&mut twin);
        let pool = BufferPool::new();
        let mut batch = Batch::with_capacity(BURST);
        let mut cursor = 0;
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget {
            for _ in 0..BURST {
                batch.push(pool.acquire_from(&frames[cursor]));
                cursor = (cursor + 1) % frames.len();
            }
            let t = Instant::now();
            let out = twin.inject_batch(up, &mut batch);
            samples.push(t.elapsed().as_nanos() as f64 / BURST as f64);
            drop(out);
        }
        layers.set("netstack.slowpath.ns_per_op", median(&samples));
    }

    let Dut::Fp(platform) = &mut d.dut else {
        return;
    };
    let program = platform
        .controller()
        .deployer()
        .installed(upstream)
        .expect("fast path installed on the upstream interface");
    let maps = platform.controller().deployer().maps().clone();
    layers.set("core.deploy.program_insns", program.len() as f64);

    // What the installed program does to a forwarded frame, as rewrite
    // ops.
    let cost = platform.kernel_mut().cost_model().clone();
    let mut tracker = CostTracker::new();
    let mut after = before.clone();
    vm::execute(
        &program,
        VmCtx::xdp(&mut after, upstream.as_u32(), 0),
        platform.kernel_mut(),
        &maps,
        &cost,
        &mut tracker,
        true,
    );
    let ops = rewrite::derive_ops(&before, &after, 14).expect("a router rewrite is replayable");

    if id == WorkloadId::RouterSteady {
        let mut scratch = before.clone();
        layers.set(
            "packet.rewrite.apply_ops_ns",
            time_calls(budget, || rewrite::apply_ops(black_box(&mut scratch), &ops)),
        );
        let mut i = 0;
        layers.set(
            "ebpf.flowkey.extract_ns",
            time_calls(budget, || {
                i = (i + 1) % frames.len();
                black_box(FlowKey::extract(black_box(&frames[i]), upstream));
            }),
        );
    }
    if matches!(id, WorkloadId::GatewayMiss | WorkloadId::RouterThrash) {
        layers.set(
            "packet.rewrite.derive_ops_ns",
            time_calls(budget, || {
                black_box(rewrite::derive_ops(black_box(&before), &after, 14));
            }),
        );
        probe_vm(
            layers,
            platform.kernel_mut(),
            &program,
            &maps,
            upstream,
            frames,
            false,
            budget,
        );
    }
    probe_flow_cache(layers, id, frames, upstream, &ops, budget);
}

/// `vm::execute` on the installed program, both engines, plus the work
/// counts of one run averaged over the workload's frames.
#[allow(clippy::too_many_arguments)]
fn probe_vm(
    layers: &mut Layers,
    kernel: &mut Kernel,
    program: &LoadedProgram,
    maps: &MapStore,
    ingress: IfIndex,
    frames: &[Vec<u8>],
    tc: bool,
    budget: Duration,
) {
    let cost = kernel.cost_model().clone();
    let mut tracker = CostTracker::new();
    let mut scratch: Vec<u8> = Vec::with_capacity(frames[0].len());
    let mut i = 0;
    // The program rewrites the frame in place, so every run starts from
    // a fresh copy into a reused buffer (a 60-byte memcpy, no alloc).
    let mut run = |kernel: &mut Kernel, jit: bool| {
        i = (i + 1) % frames.len();
        scratch.clear();
        scratch.extend_from_slice(&frames[i]);
        let mut ctx = VmCtx::xdp(&mut scratch, ingress.as_u32(), 0);
        if tc {
            ctx.protocol = 0x0800;
        }
        vm::execute(program, ctx, kernel, maps, &cost, &mut tracker, jit)
    };
    let (mut insns, mut helpers) = (0u64, 0u64);
    for _ in 0..frames.len() {
        let out = run(kernel, true);
        insns += out.insns_executed;
        helpers += out.helper_calls;
    }
    layers.set("ebpf.vm.insns_per_run", insns as f64 / frames.len() as f64);
    layers.set(
        "ebpf.vm.helper_calls_per_run",
        helpers as f64 / frames.len() as f64,
    );
    layers.set(
        "ebpf.vm.execute_compiled_ns",
        time_calls(budget, || {
            black_box(run(kernel, true));
        }),
    );
    layers.set(
        "ebpf.vm.execute_interp_ns",
        time_calls(budget, || {
            black_box(run(kernel, false));
        }),
    );
}

/// A harness-owned `FlowCache` fed the workload's keys.
fn probe_flow_cache(
    layers: &mut Layers,
    id: WorkloadId,
    frames: &[Vec<u8>],
    ingress: IfIndex,
    ops: &[RewriteOp],
    budget: Duration,
) {
    let keys: Vec<FlowKey> = frames
        .iter()
        .filter_map(|f| FlowKey::extract(f, ingress))
        .collect();
    assert_eq!(
        keys.len(),
        frames.len(),
        "every workload frame is cache-eligible"
    );
    let entry = || FlowEntry {
        verdict: HookVerdict::Redirect(ingress),
        ops: ops.to_vec(),
        touches: Vec::new(),
    };
    const GEN: u64 = 1;
    match id {
        WorkloadId::RouterSteady => {
            let mut cache = FlowCache::new(DEFAULT_CAPACITY);
            for k in &keys {
                cache.insert(GEN, *k, entry());
            }
            let mut i = 0;
            layers.set(
                "ebpf.flowcache.lookup_hit_ns",
                time_calls(budget, || {
                    i = (i + 1) % keys.len();
                    black_box(cache.lookup(GEN, black_box(&keys[i])).expect("present"));
                }),
            );
        }
        WorkloadId::GatewayMiss => {
            // Absent keys probed in a populated cache of the same
            // generation: the hash probe of a miss, without the flush an
            // invalidation adds.
            let (present, absent) = keys.split_at(keys.len() / 2);
            let mut cache = FlowCache::new(DEFAULT_CAPACITY);
            for k in present {
                cache.insert(GEN, *k, entry());
            }
            let mut i = 0;
            layers.set(
                "ebpf.flowcache.lookup_miss_ns",
                time_calls(budget, || {
                    i = (i + 1) % absent.len();
                    assert!(cache.lookup(GEN, black_box(&absent[i])).is_none());
                }),
            );
        }
        WorkloadId::RouterThrash => {
            // At capacity, every insert of a new key evicts.
            assert!(
                keys.len() > DEFAULT_CAPACITY,
                "thrash needs more flows than entries"
            );
            let mut cache = FlowCache::new(DEFAULT_CAPACITY);
            let mut i = 0;
            for _ in 0..DEFAULT_CAPACITY {
                cache.insert(GEN, keys[i], entry());
                i += 1;
            }
            layers.set(
                "ebpf.flowcache.insert_ns",
                time_calls(budget, || {
                    i = (i + 1) % keys.len();
                    cache.insert(GEN, black_box(keys[i]), entry());
                }),
            );
        }
        _ => {}
    }
}

/// Control-plane probes on the storm's platform, brought to the end of a
/// command cycle first so that every run probes the same configuration.
fn probe_control_plane(layers: &mut Layers, instance: &mut Instance, budget: Duration) {
    let Instance::Storm(storm) = instance else {
        return;
    };
    storm.finish_cycle();
    let platform = &mut storm.platform;
    let pipelines = resynthesize(platform.kernel_mut());
    layers.set_opt_sizes(&pipelines);
    layers.set(
        "core.deploy.program_insns",
        platform
            .controller()
            .deployer()
            .active_interfaces()
            .iter()
            .filter_map(|i| platform.controller().deployer().installed(*i))
            .map(|p| p.len())
            .sum::<usize>() as f64,
    );
    layers.set(
        "ebpf.verifier.verify_ns",
        time_calls(budget, || {
            for p in &pipelines {
                verifier::verify(black_box(&p.optimized)).expect("installed programs verify");
            }
        }),
    );
    layers.set(
        "ebpf.opt.optimize_ns",
        time_calls(budget, || {
            for p in &pipelines {
                black_box(opt::optimize(black_box(&p.naive)));
            }
        }),
    );
    layers.set(
        "ebpf.program.load_ns",
        time_calls(budget, || {
            for p in &pipelines {
                let program = Program::new(p.name.clone(), p.optimized.clone());
                black_box(LoadedProgram::load(program).expect("installed programs load"));
            }
        }),
    );
    let kernel = platform.kernel_mut();
    layers.set(
        "core.objects.snapshot_ns",
        time_calls(budget, || {
            black_box(ObjectStore::snapshot(black_box(&*kernel)));
        }),
    );
    let store = ObjectStore::snapshot(kernel);
    let caps = Capabilities::full();
    layers.set(
        "core.graph.build_ns",
        time_calls(budget, || {
            black_box(build_graph(black_box(&store), &caps));
        }),
    );
    let graph = build_graph(&store, &caps);
    layers.set(
        "core.synth.synthesize_ns",
        time_calls(budget, || {
            black_box(synthesize(black_box(&graph)).expect("synthesizes"));
        }),
    );
    // A route add that leaves the graph unchanged: the controller runs
    // introspect → graph → synthesize and then finds nothing to deploy.
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let _ = platform
            .kernel_mut()
            .ip_route_add(Scenario::route_prefix(0), Some(NEXT_HOP), None);
        let t = Instant::now();
        let report = platform.poll_controller();
        samples.push(t.elapsed().as_nanos() as f64);
        assert!(
            report.is_some_and(|r| !r.changed),
            "a repeated route add must not change the graph"
        );
    }
    layers.set("core.controller.poll_noop_ns", median(&samples));
}

/// Pod-to-pod probes: the sender-side host-veth program, resynthesized
/// from the node's kernel because the cluster keeps its controllers
/// private.
fn probe_pods(layers: &mut Layers, instance: &mut Instance, budget: Duration) {
    let Instance::Pods(pods) = instance else {
        return;
    };
    layers.set(
        "k8s.pod_send.node_hops",
        pods.node_hops as f64 / pods.sends.max(1) as f64,
    );
    layers.set(
        "k8s.pod_send.fast_path_hits_per_send",
        pods.fast_path_hits as f64 / pods.sends.max(1) as f64,
    );
    // The only fast-path signal the cluster's public API gives.
    layers.set(
        "ebpf.hook.fastpath_share",
        pods.sends_with_fast_path as f64 / pods.sends.max(1) as f64,
    );
    let src = pods.cluster.pod(pods.a);
    let dst = pods.cluster.pod(pods.b);
    let node = &mut pods.cluster.nodes[pods.a.node];
    let gw_mac = node.kernel.device(node.net.cni0).expect("cni0 exists").mac;
    let frame = builder::udp_packet(src.mac, gw_mac, src.ip, dst.ip, 40000, 5201, &[0u8; 32]);
    let kernel = &mut node.kernel;
    layers.set(
        "netstack.state_generation_ns",
        time_calls(budget, || {
            black_box(black_box(&*kernel).state_generation());
        }),
    );
    let pipelines = resynthesize(kernel);
    let Some(p) = pipelines.iter().find(|p| p.ifindex == src.host_if) else {
        return;
    };
    let program = LoadedProgram::load(Program::new(p.name.clone(), p.optimized.clone()))
        .expect("resynthesized program loads");
    layers.set("core.deploy.program_insns", program.len() as f64);
    probe_vm(
        layers,
        kernel,
        &program,
        &MapStore::new(),
        src.host_if,
        &[frame],
        true,
        budget,
    );
}

/// Counter deltas of a wired registry over the measured ops.
struct Counts {
    registry: Registry,
    start: [u64; 6],
}

const COUNTERS: [&str; 6] = [
    "linuxfp_flowcache_hits_total",
    "linuxfp_flowcache_misses_total",
    "linuxfp_flowcache_evictions_total",
    "linuxfp_flowcache_invalidations_total",
    "linuxfp_fp_hits_total",
    "linuxfp_packets_injected_total",
];

impl Counts {
    fn start(registry: &Registry) -> Counts {
        Counts {
            registry: registry.clone(),
            start: COUNTERS.map(|c| registry.counter_total(c)),
        }
    }

    fn report(&self, layers: &mut Layers, id: WorkloadId) {
        let d: Vec<f64> = COUNTERS
            .iter()
            .zip(self.start)
            .map(|(c, s)| (self.registry.counter_total(c) - s) as f64)
            .collect();
        let (hits, misses, evictions, invalidations, fp_hits, injected) =
            (d[0], d[1], d[2], d[3], d[4], d[5]);
        if injected == 0.0 || id == WorkloadId::LinuxGateway {
            return;
        }
        layers.set("ebpf.hook.fastpath_share", fp_hits / injected);
        if hits + misses > 0.0 {
            layers.set("ebpf.flowcache.hit_ratio", hits / (hits + misses));
            layers.set("ebpf.flowcache.evictions_per_op", evictions / injected);
            layers.set(
                "ebpf.flowcache.invalidations_per_op",
                invalidations / injected,
            );
        }
    }
}

/// Modelled ns per op of the Linux-only twin over the workload's fixed
/// modelled-time range.
fn linux_twin_virt(id: WorkloadId, seed: u64) -> Option<f64> {
    let mut twin = Instance::set_up_linux_twin(id, seed)?;
    warm_up(id, &mut twin);
    let mut spans = Spans::off();
    let mut virt = 0.0;
    for _ in 0..id.virt_groups() {
        virt += twin.group(id, &mut spans).virt_ns;
    }
    Some(virt / (id.virt_groups() as u64 * id.ops_per_group()) as f64)
}

/// p50 of an untraced window on a fresh instance of `id`, optionally
/// with a registry wired and the flight recorder sampling 1 in 64.
fn fresh_p50(id: WorkloadId, seed: u64, window: Duration, registry: bool, recorder: bool) -> f64 {
    let reg = Registry::new();
    let mut instance = Instance::set_up(id, seed, registry.then_some(&reg));
    if recorder {
        if let Instance::Datapath(d) = &mut instance {
            d.dut.kernel_mut().enable_flight_recorder(1024, 64);
        }
    }
    warm_up(id, &mut instance);
    measure_window(id, &mut instance, window, 0, &mut Spans::off())
        .summary
        .p50
}

/// Where the traced pass writes its span table.
fn trace_path(id: WorkloadId) -> std::path::PathBuf {
    crate::benchmark_dir()
        .join("out")
        .join(format!("trace-{}.json", id.name()))
}

/// The traced pass of one workload. `seconds` is split in six: one part
/// each for the untraced reference window and the traced window (two
/// more on `router_steady` for the telemetry-off and flight-recorder
/// windows), and two for the probes.
pub fn run_traced(id: WorkloadId, seed: u64, seconds: f64) -> Result<Value, String> {
    let slice = Duration::from_secs_f64(seconds / 6.0);
    let mut layers = Layers::default();
    let registry = Registry::new();
    let mut instance = Instance::set_up(id, seed, Some(&registry));
    warm_up(id, &mut instance);
    let counts = Counts::start(&registry);

    // Modelled time by stage over the same fixed op range the untraced
    // pass takes `virt_ns_per_op` over. Folding costs host time, so it
    // has a pass of its own, outside both windows.
    let virt_ops = (id.virt_groups() as u64 * id.ops_per_group()) as f64;
    let mut virt_ns = 0.0;
    instance.start_fold();
    for _ in 0..id.virt_groups() {
        virt_ns += instance.group(id, &mut Spans::off()).virt_ns;
    }
    let (stages, controller_stages) = instance.take_fold();
    let mut other = virt_ns;
    for (stage, ns) in &stages {
        if VIRT_STAGES.contains(stage) {
            layers.set(&format!("virt.stage.{stage}_ns_per_op"), ns / virt_ops);
            other -= ns;
        }
    }
    for (stage, ns) in &controller_stages {
        layers.set(
            &format!("core.controller.virt_stage_ns.{stage}"),
            ns / virt_ops,
        );
        other -= ns;
    }
    layers.set("virt.stage.other_ns_per_op", other.max(0.0) / virt_ops);
    let unlisted: Vec<&str> = stages
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| !VIRT_STAGES.contains(s))
        .collect();

    // Reference (recorder off) and traced windows on the same instance.
    let reference = measure_window(id, &mut instance, slice, 0, &mut Spans::off());
    let mut spans = Spans::on(1 << 20);
    let root = spans.open(SpanName::Workload);
    let traced = measure_window(id, &mut instance, slice, 0, &mut spans);
    spans.close(root);
    let ops = traced.summary.ops as f64;
    layers.set(
        "bench.trace_overhead_pct",
        (traced.summary.p50 - reference.summary.p50) / reference.summary.p50 * 100.0,
    );
    let totals = trace::totals(spans.rows());
    let total_of = |name: SpanName| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    };
    layers.set(
        "bench.harness_self_ns_per_op",
        total_of(SpanName::Group).self_ns as f64 / ops,
    );
    layers.set(
        "platforms.generator.ns_per_op",
        total_of(SpanName::Generate).total_ns as f64 / ops,
    );
    let polls = total_of(SpanName::PollController);
    if polls.count > 0 {
        layers.set(
            "core.controller.poll_redeploy_ns",
            polls.total_ns as f64 / polls.count as f64,
        );
    }
    counts.report(&mut layers, id);
    let window_ops = (reference.summary.ops + traced.summary.ops) as f64;
    if matches!(id, WorkloadId::GatewayMiss | WorkloadId::LinuxGateway) {
        layers.set(
            "netstack.drop_share",
            (reference.drops + traced.drops) as f64 / window_ops,
        );
    }
    let failed = reference.failed + traced.failed;
    let ledger_ok = match id {
        // The Linux platform has no dispatcher, and the cluster's
        // controllers take no registry: nothing to balance.
        WorkloadId::LinuxGateway | WorkloadId::PodToPod => true,
        _ => ledger_ok(
            &registry,
            registry.counter_total("linuxfp_packets_injected_total"),
        ),
    };

    // Isolated probes, on the state the windows left behind.
    let probe_budget = Duration::from_secs_f64(seconds / 3.0 / 12.0);
    probe_cost_tracker(&mut layers, probe_budget);
    match &mut instance {
        Instance::Datapath(d) => {
            layers.set(
                "packet.pool.high_water",
                d.pool.aggregate_stats().allocated as f64,
            );
            probe_packet(&mut layers, id, &d.frames, probe_budget);
            probe_datapath(&mut layers, id, d, probe_budget);
            if id == WorkloadId::GatewayMiss {
                layers.set_opt_sizes(&resynthesize(d.dut.kernel_mut()));
            }
        }
        Instance::Storm(s) => layers.set(
            "packet.pool.high_water",
            s.pool.aggregate_stats().allocated as f64,
        ),
        Instance::Pods(_) => {}
    }
    probe_control_plane(&mut layers, &mut instance, probe_budget);
    probe_pods(&mut layers, &mut instance, probe_budget);
    drop(instance);

    if let Some(linux) = linux_twin_virt(id, seed) {
        layers.set(
            "platforms.virt_speedup_vs_linux",
            linux / (virt_ns / virt_ops),
        );
    }
    if id == WorkloadId::RouterSteady {
        let off = fresh_p50(id, seed, slice, false, false);
        let traced64 = fresh_p50(id, seed, slice, true, true);
        // Registry wired, recorder off: the reference window above.
        layers.set(
            "telemetry.metrics_overhead_pct",
            (reference.summary.p50 - off) / off * 100.0,
        );
        layers.set(
            "telemetry.trace64_overhead_pct",
            (traced64 - off) / off * 100.0,
        );
    }

    // Assemble: every listed metric, 0 where it does not apply.
    let listed = per_layer_metrics();
    for name in layers.values.keys() {
        assert!(
            listed.iter().any(|(n, _)| n == name),
            "per-layer metric `{name}` is not in the fixed list"
        );
    }
    let per_layer: Map = listed
        .iter()
        .map(|(name, unit)| {
            let value = layers.values.get(name).copied().unwrap_or(0.0);
            (name.clone(), json!({ "value": value, "unit": *unit }))
        })
        .collect();

    let path = trace_path(id);
    let span_names: Vec<&str> = SpanName::ALL.iter().map(|n| n.as_str()).collect();
    let span_totals: Map = totals
        .iter()
        .map(|(n, t)| {
            (
                n.as_str().to_string(),
                json!({ "count": t.count, "total_ns": t.total_ns, "self_ns": t.self_ns }),
            )
        })
        .collect();
    let header = json!({
        "workload": id.name(),
        "seed": seed,
        "traced_ops": traced.summary.ops,
        "traced_host_ns_per_op_p50": traced.summary.p50,
        "reference_host_ns_per_op_p50": reference.summary.p50,
        "span_names": span_names,
        "span_columns": ["name", "start_ns", "end_ns", "parent", "group"],
        "span_totals": Value::Object(span_totals),
        "per_layer": Value::Object(per_layer.clone()),
    });
    // The header is a value tree; the span rows are spliced in as text.
    let mut text = linuxfp_json::to_string_pretty(&header);
    let close = text.rfind('}').expect("an object");
    text.truncate(close);
    text.push_str(",\n  \"spans\": ");
    text.push_str(&trace::rows_json(spans.rows()));
    text.push_str("\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(json!({
        "mode": "traced",
        "workload": id.name(),
        "seed": seed,
        "ops": window_ops as u64,
        "window_failed": failed,
        "ledger_ok": ledger_ok,
        "spans": spans.rows().len(),
        "trace_file": path.display().to_string(),
        "unlisted_virt_stages": unlisted,
        "per_layer": Value::Object(per_layer),
    }))
}
