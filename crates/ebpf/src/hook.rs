//! Attaching programs to kernel hook points, and the tail-call
//! dispatcher that makes data-path replacement atomic.
//!
//! Reloading an XDP program on a live interface can black-hole traffic
//! for seconds; LinuxFP instead attaches a tiny **dispatcher** once and
//! swaps data paths by updating a program-array slot (paper §IV-A2,
//! Fig. 4). [`Dispatcher`] reproduces that mechanism: `install` replaces
//! the active program with one map update, and packets always see either
//! the old or the new program.
//!
//! The dispatcher runs on every core. Where the paper keeps its per-core
//! state in per-CPU map slots, a dispatcher here keeps one `Shard` per
//! RSS receive queue — the microflow verdict cache, the resolved slot
//! program and the shard's counter handles — behind one lock that only
//! that queue's packets take. A cache hit takes that lock once and is
//! served under it, borrowing its recorded entry in place; a miss takes
//! it at most twice, before and after the program runs.

use crate::asm::Asm;
use crate::compile;
use crate::flowcache::{self, FlowCache, FlowEntry, FlowKey, Probe};
use crate::insn::Action;
use crate::maps::{MapId, MapStore};
use crate::program::{LoadedProgram, Program};
use crate::vm::{VmCtx, VmOutcome};
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::stack::{rss, HookFn, HookVerdict, Kernel};
use linuxfp_netstack::NetError;
use linuxfp_packet::{rewrite, EthernetFrame, Packet};
use linuxfp_sim::{CostTracker, Stage};
use linuxfp_telemetry::trace::{FlowCacheOutcome, PuntReason, TraceCtx, TraceEvent};
use linuxfp_telemetry::{Collector, LocalCounter, Registry};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which kernel hook to attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// The XDP hook: before `sk_buff` allocation; fastest.
    Xdp,
    /// The TC ingress hook: after `sk_buff` allocation; richer context.
    Tc,
}

impl HookPoint {
    fn attach(self, kernel: &mut Kernel, dev: IfIndex, f: HookFn) -> Result<(), NetError> {
        match self {
            HookPoint::Xdp => kernel.attach_xdp(dev, f),
            HookPoint::Tc => kernel.attach_tc_ingress(dev, f),
        }
    }
}

/// Telemetry handles for one dispatcher's data path: which verdicts the
/// program returned, how much work it did, and whether packets were
/// handled in the fast path or fell back to the kernel slow path.
///
/// Each shard holds its own copy, resolved once (at install/relabel
/// time) and counted in plain integers under the shard lock — no label or
/// map lookups and no atomics on the data path. The dispatcher's
/// collector publishes the counts before every registry read. The
/// conservation law the metrics support:
/// `linuxfp_fp_hits_total + linuxfp_slowpath_fallbacks_total` equals the
/// number of packets that entered the hook.
#[derive(Debug, Clone)]
struct HookStats {
    /// Packets fully handled by the fast path (any verdict except PASS).
    hits: LocalCounter,
    /// Packets PASSed to the kernel slow path (including the dispatcher's
    /// empty-slot default).
    fallbacks: LocalCounter,
    vm_insns: LocalCounter,
    helper_calls: LocalCounter,
    /// Division/modulo-by-zero events observed at runtime (Linux-defined
    /// results, not faults — but synthesized code should never produce
    /// them).
    div_zeros: LocalCounter,
    /// `linuxfp_vm_verdicts_total`, indexed by [`verdict_kind`].
    verdicts: [LocalCounter; 4],
}

/// Hook verdict names, indexed by [`verdict_kind`]: the
/// `linuxfp_vm_verdicts_total{verdict}` labels and the traced verdicts.
const VERDICTS: [&str; 4] = ["pass", "drop", "redirect", "deliver_user"];

fn verdict_kind(verdict: &HookVerdict) -> usize {
    match verdict {
        HookVerdict::Pass => 0,
        HookVerdict::Drop => 1,
        HookVerdict::Redirect(_) => 2,
        HookVerdict::DeliverUser => 3,
    }
}

impl HookStats {
    /// Creates (or re-resolves) the counters in `registry`, labelling
    /// hit/fallback counters with `fpm` and VM counters with `program`.
    fn in_registry(registry: &Registry, program: &str, fpm: &str) -> HookStats {
        registry.describe(
            "linuxfp_fp_hits_total",
            "Packets fully handled by an eBPF fast path (verdict != PASS)",
        );
        registry.describe(
            "linuxfp_slowpath_fallbacks_total",
            "Packets a fast path PASSed to the Linux slow path",
        );
        registry.describe("linuxfp_vm_insns_total", "eBPF VM instructions executed");
        registry.describe("linuxfp_vm_helper_calls_total", "eBPF helper calls made");
        registry.describe("linuxfp_vm_verdicts_total", "eBPF program verdicts by kind");
        registry.describe(
            "linuxfp_vm_div_zero_total",
            "Runtime BPF_DIV/BPF_MOD by zero events (Linux-defined results)",
        );
        let local =
            |name, labels: &[(&str, &str)]| LocalCounter::new(registry.counter(name, labels));
        HookStats {
            hits: local("linuxfp_fp_hits_total", &[("fpm", fpm)]),
            fallbacks: local("linuxfp_slowpath_fallbacks_total", &[("fpm", fpm)]),
            vm_insns: local("linuxfp_vm_insns_total", &[("program", program)]),
            helper_calls: local("linuxfp_vm_helper_calls_total", &[("program", program)]),
            div_zeros: local("linuxfp_vm_div_zero_total", &[("program", program)]),
            verdicts: VERDICTS
                .map(|verdict| local("linuxfp_vm_verdicts_total", &[("verdict", verdict)])),
        }
    }

    fn publish(&mut self) {
        for c in [
            &mut self.hits,
            &mut self.fallbacks,
            &mut self.vm_insns,
            &mut self.helper_calls,
            &mut self.div_zeros,
        ] {
            c.publish();
        }
        self.verdicts.iter_mut().for_each(LocalCounter::publish);
    }

    fn record(&mut self, out: &VmOutcome, verdict: &HookVerdict) {
        self.vm_insns.add(out.insns_executed);
        self.helper_calls.add(out.helper_calls);
        self.div_zeros.add(out.div_zeros);
        self.record_verdict(verdict);
    }

    /// Advances the hit/fallback ledger and the verdict tallies — all a
    /// packet served by the verdict cache counts, since no program ran.
    fn record_verdict(&mut self, verdict: &HookVerdict) {
        self.verdicts[verdict_kind(verdict)].inc();
        if matches!(verdict, HookVerdict::Pass) {
            self.fallbacks.inc();
        } else {
            self.hits.inc();
        }
    }
}

/// The registry a dispatcher counts into and the labels its hook ledger
/// carries. Control-plane state: `enable_telemetry`, `set_fpm_label`,
/// `install` and `uninstall` take its lock, a packet never does. A label
/// change re-resolves the ledger into every shard, so metrics follow the
/// active data path.
struct HookLabels {
    registry: Registry,
    program: String,
    fpm: String,
    /// Publishes every shard's counts before a registry read; the
    /// registry holds it weakly, so it lives as long as the labels.
    _collector: Collector,
}

impl std::fmt::Debug for HookLabels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookLabels")
            .field("program", &self.program)
            .field("fpm", &self.fpm)
            .finish()
    }
}

impl HookLabels {
    fn stats(&self) -> HookStats {
        HookStats::in_registry(&self.registry, &self.program, &self.fpm)
    }
}

/// One shard's slice of the hook ledger. Summed over shards, each
/// `linuxfp_shard_*{shard}` series equals its global counterpart.
#[derive(Debug)]
struct ShardSeries {
    fp_hits: LocalCounter,
    fallbacks: LocalCounter,
    flowcache_hits: LocalCounter,
    flowcache_misses: LocalCounter,
}

impl ShardSeries {
    fn in_registry(registry: &Registry, shard: &str) -> ShardSeries {
        registry.describe(
            "linuxfp_shard_fp_hits_total",
            "Fast-path hits by owning RSS shard (only emitted when rss_shards > 1)",
        );
        registry.describe(
            "linuxfp_shard_fallbacks_total",
            "Slow-path fallbacks by owning RSS shard (only emitted when rss_shards > 1)",
        );
        registry.describe(
            "linuxfp_shard_flowcache_hits_total",
            "Microflow verdict cache hits by owning RSS shard (rss_shards > 1 only)",
        );
        registry.describe(
            "linuxfp_shard_flowcache_misses_total",
            "Microflow verdict cache misses by owning RSS shard (rss_shards > 1 only)",
        );
        let local = |name| LocalCounter::new(registry.counter(name, &[("shard", shard)]));
        ShardSeries {
            fp_hits: local("linuxfp_shard_fp_hits_total"),
            fallbacks: local("linuxfp_shard_fallbacks_total"),
            flowcache_hits: local("linuxfp_shard_flowcache_hits_total"),
            flowcache_misses: local("linuxfp_shard_flowcache_misses_total"),
        }
    }

    fn publish(&mut self) {
        for c in [
            &mut self.fp_hits,
            &mut self.fallbacks,
            &mut self.flowcache_hits,
            &mut self.flowcache_misses,
        ] {
            c.publish();
        }
    }

    fn record_verdict(&mut self, verdict: &HookVerdict) {
        if matches!(verdict, HookVerdict::Pass) {
            self.fallbacks.inc();
        } else {
            self.fp_hits.inc();
        }
    }
}

/// One RSS shard's state in a dispatcher hook, owned by the packets
/// steered to its receive queue.
#[derive(Debug)]
struct Shard {
    /// The shard's microflow verdict cache, which holds its own six
    /// `linuxfp_flowcache_*` handles.
    flows: FlowCache,
    /// The dispatcher slot's program, stamped with the combined generation
    /// ([`Kernel::state_generation`] + [`MapStore::prog_generation`]) it
    /// was resolved under. The first packet under a new generation walks
    /// the dispatcher (paying the entry insns and the tail-call charge)
    /// and stores what the slot held; later packets run it directly. A
    /// swap bumps the program generation, so a resolution never outlives
    /// the program it names — the same, and only, invalidation the verdict
    /// cache uses.
    slot: Option<(u64, LoadedProgram)>,
    /// The `shard` label value.
    label: &'static str,
    /// The shard's counter handles, once telemetry is enabled.
    telemetry: Option<ShardTelemetry>,
}

/// The counter handles one shard's packets count into.
#[derive(Debug)]
struct ShardTelemetry {
    registry: Registry,
    /// The hook ledger under the dispatcher's current labels.
    stats: HookStats,
    /// The shard series, resolved on the first sharded packet — so an
    /// unsharded run never grows a shard dimension.
    series: Option<ShardSeries>,
}

impl ShardTelemetry {
    /// The ledger and, on a sharded datapath, the series of the shard
    /// labelled `label`.
    fn counters(
        &mut self,
        label: &'static str,
        sharded: bool,
    ) -> (&mut HookStats, Option<&mut ShardSeries>) {
        let series = sharded.then(|| {
            self.series
                .get_or_insert_with(|| ShardSeries::in_registry(&self.registry, label))
        });
        (&mut self.stats, series)
    }
}

impl Shard {
    fn new(label: &'static str) -> Shard {
        Shard {
            flows: FlowCache::new(flowcache::DEFAULT_CAPACITY),
            slot: None,
            label,
            telemetry: None,
        }
    }

    /// Starts counting into `registry`: the ledger and the flow cache's
    /// series from the next packet, the shard series from the next
    /// sharded one.
    fn wire_telemetry(&mut self, registry: &Registry, stats: HookStats) {
        self.flows.wire_telemetry(registry);
        self.telemetry = Some(ShardTelemetry {
            registry: registry.clone(),
            stats,
            series: None,
        });
    }

    /// The ledger and, on a sharded datapath, the shard series — when
    /// telemetry is on.
    fn counters(&mut self, sharded: bool) -> Option<(&mut HookStats, Option<&mut ShardSeries>)> {
        let label = self.label;
        Some(self.telemetry.as_mut()?.counters(label, sharded))
    }

    /// Publishes the shard's counts into the registry's counters.
    fn publish(&mut self) {
        self.flows.publish_telemetry();
        if let Some(t) = &mut self.telemetry {
            t.stats.publish();
            if let Some(series) = &mut t.series {
                series.publish();
            }
        }
    }
}

/// The hook running `prog` on each packet, translating program verdicts
/// to kernel hook verdicts. With `dispatcher` set, `prog` is that
/// dispatcher's entry program and the hook uses its shards and telemetry;
/// a directly attached program keeps no caches and no telemetry.
fn hook_fn(
    prog: LoadedProgram,
    maps: MapStore,
    hook: HookPoint,
    dispatcher: Option<Dispatcher>,
) -> HookFn {
    let hook_name = match hook {
        HookPoint::Xdp => "xdp",
        HookPoint::Tc => "tc",
    };
    Arc::new(move |kernel: &mut Kernel, packet, tracker, trace| {
        // The one coherence number the shard's state keys on: any kernel
        // state mutation, time advance, or data-path swap changes it. It
        // folds in every shared structure, so reading it is where a
        // sharded datapath observes other cores' writes: any stale
        // structure is charged in the same pass.
        let gen = kernel
            .fastpath_generation(tracker, trace)
            .wrapping_add(maps.prog_generation());
        let ingress = packet.ingress_ifindex;
        let rx_queue = packet.rx_queue;
        let sharded = kernel.rss_shards() > 1;

        // ---- first shard lock: the verdict cache, then the slot ------
        // Only dispatcher-driven hooks cache verdicts, and only while the
        // net.linuxfp.flow_cache sysctl is on.
        let cache_on = dispatcher.is_some() && kernel.flow_cache_enabled();
        let key = cache_on
            .then(|| FlowKey::extract(&packet.data, IfIndex(ingress)))
            .flatten();
        // Set when this miss is the flow's second sighting: its run is the
        // one to record.
        let mut admitted = None;
        let mut invalidated = false;
        let mut resolved = None;
        let mut counting = false;
        if let Some(d) = &dispatcher {
            let mut guard = d.lock_shard(rx_queue);
            let shard = &mut *guard;
            counting = shard.telemetry.is_some();
            if cache_on {
                // Compared *before* the probe (which flushes lazily on a
                // generation change) to tell an invalidation miss from a
                // cold one; only the sampled path pays the reads.
                invalidated =
                    trace.enabled() && !shard.flows.is_empty() && shard.flows.generation() != gen;
                if let Some(k) = &key {
                    match shard.flows.probe(gen, k) {
                        Probe::Hit(entry) => {
                            if let Some(t) = &mut shard.telemetry {
                                let (stats, series) = t.counters(shard.label, sharded);
                                stats.record_verdict(&entry.verdict);
                                if let Some(series) = series {
                                    series.record_verdict(&entry.verdict);
                                    series.flowcache_hits.inc();
                                }
                            }
                            // Served under the shard lock, from the entry in
                            // place: no replayed helper sends a packet or
                            // reads the registry, so nothing re-enters it.
                            return serve_hit(entry, kernel, packet, tracker, trace);
                        }
                        Probe::Admitted(admission) => admitted = Some(admission),
                        Probe::FirstSighting => {}
                    }
                }
                shard.flows.note_miss();
                if let Some((_, Some(series))) = shard.counters(sharded) {
                    series.flowcache_misses.inc();
                }
            }
            // The slot's program, if a packet under `gen` resolved it.
            resolved = shard
                .slot
                .as_ref()
                .filter(|(g, _)| *g == gen)
                .map(|(_, p)| p.clone());
        }

        // ---- miss: run the program (recording helper touches) --------
        let cost = kernel.cost_model_arc();
        // A statically uncacheable slot program fails the first recording
        // gate whatever it does: skip the frame copy and the helper log.
        let record = admitted.filter(|_| resolved.as_ref().is_none_or(LoadedProgram::cacheable));
        if dispatcher.is_some() {
            trace.event(|| TraceEvent::FlowCache {
                outcome: if !cache_on {
                    FlowCacheOutcome::MissDisabled
                } else if key.is_none() {
                    FlowCacheOutcome::MissIneligible
                } else if invalidated {
                    FlowCacheOutcome::MissInvalidated
                } else if record.is_some() {
                    FlowCacheOutcome::MissRecording
                } else {
                    FlowCacheOutcome::MissCold
                },
            });
        }
        let before_frame = record.is_some().then(|| packet.data.to_vec());
        let mut ctx = VmCtx::xdp(&mut packet.data, ingress, rx_queue);
        if hook == HookPoint::Tc {
            // TC programs see parsed sk_buff fields.
            if let Ok(eth) = EthernetFrame::parse(ctx.packet) {
                ctx.protocol = u32::from(eth.ethertype.to_u16());
                ctx.vlan_tci = eth.vlan.map(|t| u32::from(t.vid)).unwrap_or(0);
            }
        }
        let interp_start = tracker.total_ns();
        // A resolved slot runs directly, skipping the dispatcher walk.
        let start = resolved.as_ref().unwrap_or(&prog);
        let (out, touches) = if record.is_some() {
            let mut rec = flowcache::RecordingEnv::new(kernel);
            let out = compile::run(start, ctx, &mut rec, &maps, &cost, tracker);
            (out, rec.into_touches())
        } else {
            let out = compile::run(start, ctx, kernel, &maps, &cost, tracker);
            (out, Vec::new())
        };
        let interp_ns = tracker.total_ns() - interp_start;
        // Helpers may have written shared state (conntrack commits, FDB
        // learning): resync this shard's view so its own writes don't
        // read back as remote on the next packet.
        kernel.coherence_refresh_fastpath();
        // What the slot holds: the resolved program, or whatever this
        // packet's walk of the dispatcher found there.
        let walked = resolved.is_none();
        let slot = resolved.or_else(|| dispatcher.as_ref().and_then(Dispatcher::installed));
        let verdict = match out.action {
            Action::Pass => HookVerdict::Pass,
            // Real XDP treats ABORTED like DROP (plus a tracepoint).
            Action::Drop | Action::Aborted => HookVerdict::Drop,
            Action::Tx => HookVerdict::Redirect(IfIndex(ingress)),
            // Like real eBPF, the most recent redirect decision wins: a
            // bpf_redirect after an XSK push overrides the user-space
            // destination (the push was a mirror copy).
            Action::Redirect => match out.redirect {
                Some(target) => HookVerdict::Redirect(target),
                None if out.to_user => HookVerdict::DeliverUser,
                None => HookVerdict::Drop,
            },
        };
        trace.event(|| TraceEvent::Vm {
            program: slot.as_ref().unwrap_or(&prog).name().into(),
            hook: hook_name,
            insns: out.insns_executed,
            helpers: out.helper_calls,
            tail_calls: out.tail_calls,
            verdict: VERDICTS[verdict_kind(&verdict)],
            ns: interp_ns,
        });
        if matches!(verdict, HookVerdict::Pass) {
            trace.event(|| TraceEvent::Punt {
                reason: if dispatcher.is_some() && slot.is_none() {
                    PuntReason::EmptySlot
                } else if out.l7_punt {
                    // The L7 helper could not parse the request line; the
                    // PASS defers the verdict to the slow-path parser.
                    PuntReason::L7Unparseable
                } else {
                    PuntReason::ProgramPass
                },
            });
        }
        let Some(d) = &dispatcher else {
            return verdict;
        };

        // ---- record the flow, if every gate passes -------------------
        // Gates: the programs that ran honor the static cacheability
        // contract; the verdict is replayable (no AF_XDP delivery, no
        // aborted run); interpretation cost exceeded the hit price (the
        // cache must never decelerate a path — trivial programs stay
        // interpreted); and the frame diff reduces to replayable rewrite
        // ops that verifiably reproduce the observed output.
        let recorded = record
            .zip(before_frame)
            .zip(key)
            .map(|((admission, before), k)| {
                let replayable_verdict =
                    !matches!(verdict, HookVerdict::DeliverUser) && out.action != Action::Aborted;
                // An allow-without-pin L7 verdict depends on this segment's
                // payload, which the flow key does not pin — never cache it.
                let gated = prog.cacheable()
                    && slot.as_ref().is_none_or(LoadedProgram::cacheable)
                    && replayable_verdict
                    && !out.l7_uncacheable
                    && interp_ns > cost.flowcache_hit_ns;
                let ops = gated.then(|| rewrite::derive_ops(&before, &packet.data, k.l3_offset()));
                let entry = ops.flatten().and_then(|ops| {
                    let mut check = before;
                    rewrite::apply_ops(&mut check, &ops);
                    (check[..] == packet.data[..]).then_some(FlowEntry {
                        verdict,
                        ops,
                        touches,
                    })
                });
                (admission, k, entry)
            });

        // ---- second shard lock: keep the walk's resolution, file the
        // recording, count the run --------------------------------------
        if walked || recorded.is_some() || counting {
            let mut shard = d.lock_shard(rx_queue);
            if walked {
                shard.slot = slot.map(|prog| (gen, prog));
            }
            if let Some((admission, k, entry)) = recorded {
                shard.flows.record(admission, &k, entry);
            }
            // Telemetry charges no virtual time: observability must not
            // perturb the modeled costs.
            if let Some((stats, series)) = shard.counters(sharded) {
                stats.record(&out, &verdict);
                if let Some(series) = series {
                    series.record_verdict(&verdict);
                }
            }
        }
        verdict
    })
}

/// Attaches a program directly to a device hook (without a dispatcher).
///
/// # Errors
///
/// Fails if the device does not exist.
pub fn attach(
    kernel: &mut Kernel,
    dev: IfIndex,
    hook: HookPoint,
    prog: LoadedProgram,
    maps: MapStore,
) -> Result<(), NetError> {
    hook.attach(kernel, dev, hook_fn(prog, maps, hook, None))
}

/// Serves a packet from its flow's recorded entry: applies the rewrite,
/// replays the helper touches and charges the flat hit price. The caller
/// holds its shard lock and counted the verdict under it.
fn serve_hit(
    entry: &FlowEntry,
    kernel: &mut Kernel,
    packet: &mut Packet,
    tracker: &mut CostTracker,
    trace: &mut TraceCtx,
) -> HookVerdict {
    rewrite::apply_ops(&mut packet.data, &entry.ops);
    if !entry.touches.is_empty() {
        flowcache::replay_touches(&entry.touches, kernel);
        // The replay wrote shared state on this shard's behalf: its own
        // writes must not read as remote. With nothing replayed, nothing
        // moved since the generation was read.
        kernel.coherence_refresh_fastpath();
    }
    tracker.charge(Stage::FlowcacheHit, kernel.cost_model().flowcache_hit_ns);
    trace.event(|| TraceEvent::FlowCache {
        outcome: FlowCacheOutcome::Hit,
    });
    if matches!(entry.verdict, HookVerdict::Pass) {
        trace.event(|| TraceEvent::Punt {
            reason: PuntReason::CachedPass,
        });
    }
    entry.verdict
}

/// The per-interface dispatcher: a constant entry program that tail-calls
/// the active data path through a program-array slot.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    maps: MapStore,
    prog_array: MapId,
    slot: usize,
    /// The ledger's registry and labels, once telemetry is enabled.
    labels: Arc<Mutex<Option<HookLabels>>>,
    /// The hook's per-shard state, indexed by `Packet::rx_queue`; an
    /// unsharded kernel steers every packet to queue 0.
    shards: Arc<[Mutex<Shard>]>,
}

impl Dispatcher {
    /// Creates a dispatcher (and its program array) in `maps`.
    pub fn new(maps: MapStore) -> Self {
        let prog_array = maps.create_prog_array(1);
        Dispatcher {
            maps,
            prog_array,
            slot: 0,
            labels: Arc::new(Mutex::new(None)),
            shards: rss::SHARD_LABELS
                .iter()
                .map(|&label| Mutex::new(Shard::new(label)))
                .collect(),
        }
    }

    fn lock_labels(&self) -> MutexGuard<'_, Option<HookLabels>> {
        self.labels
            .lock()
            .expect("a control-plane call panicked holding the labels")
    }

    fn lock_shard(&self, rx_queue: u32) -> MutexGuard<'_, Shard> {
        self.shards[(rx_queue as usize).min(self.shards.len() - 1)]
            .lock()
            .expect("a packet panicked holding its shard")
    }

    /// Runs `f` on every shard, each under its lock.
    fn each_shard(&self, mut f: impl FnMut(&mut Shard)) {
        for rx_queue in 0..rss::MAX_RSS_SHARDS {
            f(&mut self.lock_shard(rx_queue));
        }
    }

    /// Re-resolves the hook ledger under `labels` into every shard; the
    /// counts made under the old labels are published as they drop.
    fn relabel(&self, labels: &HookLabels) {
        let stats = labels.stats();
        self.each_shard(|shard| {
            if let Some(t) = &mut shard.telemetry {
                t.stats = stats.clone();
            }
        });
    }

    /// Enables telemetry for this dispatcher's hook: per-packet verdict,
    /// instruction and hit/fallback counters land in `registry`, as do the
    /// flow-cache counters and, on a sharded datapath, the per-shard ones.
    /// Counting starts with the next packet, whether or not the hook is
    /// attached yet or has carried traffic. Until a data path is installed
    /// the series carry `fpm="none"`.
    pub fn enable_telemetry(&self, registry: &Registry) {
        let shards = Arc::downgrade(&self.shards);
        let collector: Collector = Arc::new(move || {
            for shard in shards.upgrade().iter().flat_map(|s| s.iter()) {
                shard
                    .lock()
                    .expect("a packet panicked holding its shard")
                    .publish();
            }
        });
        registry.add_collector(&collector);
        let mut labels = self.lock_labels();
        let fresh = labels.insert(HookLabels {
            registry: registry.clone(),
            program: "linuxfp_dispatcher".to_string(),
            fpm: "none".to_string(),
            _collector: collector,
        });
        let stats = fresh.stats();
        self.each_shard(|shard| shard.wire_telemetry(registry, stats.clone()));
    }

    /// Re-labels this dispatcher's hit/fallback counters with the FPM
    /// composition of the installed pipeline (e.g. `router+filter`).
    /// Labels are sticky across uninstall so late packets still count
    /// against the last active data path. No-op without telemetry.
    pub fn set_fpm_label(&self, fpm: &str) {
        if let Some(labels) = self.lock_labels().as_mut() {
            if labels.fpm != fpm {
                labels.fpm = fpm.to_string();
                self.relabel(labels);
            }
        }
    }

    /// The dispatcher entry program: `r0 = PASS; tail_call(slot);
    /// exit` — when no data path is installed, packets simply PASS to
    /// the Linux slow path (the safe default).
    pub fn entry_program(&self) -> LoadedProgram {
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.tail_call(self.prog_array.0, self.slot as u32);
        a.exit();
        LoadedProgram::load(Program::new("linuxfp_dispatcher", a.finish().unwrap()))
            .expect("dispatcher is trivially verifiable")
    }

    /// Attaches the dispatcher to a device hook. A dispatcher serves one
    /// device: attaching it again shares its per-shard state.
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn attach(
        &self,
        kernel: &mut Kernel,
        dev: IfIndex,
        hook: HookPoint,
    ) -> Result<(), NetError> {
        let (entry, maps) = (self.entry_program(), self.maps.clone());
        hook.attach(kernel, dev, hook_fn(entry, maps, hook, Some(self.clone())))
    }

    /// Atomically installs (or replaces) the active data path.
    pub fn install(&self, prog: LoadedProgram) {
        if let Some(labels) = self.lock_labels().as_mut() {
            labels.registry.events().push(
                "swap",
                format!("install {} ({} insns)", prog.name(), prog.len()),
            );
            if labels.program != prog.name() {
                labels.program = prog.name().to_string();
                self.relabel(labels);
            }
        }
        self.maps
            .prog_array_set(self.prog_array, self.slot, Some(prog))
            .expect("dispatcher prog array");
    }

    /// Removes the active data path; packets fall back to the slow path.
    pub fn uninstall(&self) {
        if let Some(labels) = self.lock_labels().as_ref() {
            labels
                .registry
                .events()
                .push("swap", "uninstall (slot empty, PASS)");
        }
        self.maps
            .prog_array_set(self.prog_array, self.slot, None)
            .expect("dispatcher prog array");
    }

    /// The currently installed data path, if any.
    pub fn installed(&self) -> Option<LoadedProgram> {
        self.maps.prog_array_get(self.prog_array, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_netstack::stack::IfAddr;
    use linuxfp_packet::{builder, Batch, MacAddr};
    use std::net::Ipv4Addr;

    fn kernel_with_nic() -> (Kernel, IfIndex) {
        let mut k = Kernel::new(11);
        let eth0 = k.add_physical("eth0").unwrap();
        k.ip_addr_add(eth0, "10.0.0.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        (k, eth0)
    }

    /// A program returning `action` after `filler` instructions.
    fn verdict_prog(name: &str, action: Action, filler: i64) -> LoadedProgram {
        let mut a = Asm::new();
        for i in 0..filler {
            a.mov_imm(2, i);
        }
        a.mov_imm(0, action.code() as i64);
        a.exit();
        LoadedProgram::load(Program::new(name, a.finish().unwrap())).unwrap()
    }

    fn drop_prog() -> LoadedProgram {
        verdict_prog("drop_all", Action::Drop, 0)
    }

    fn burst(k: &Kernel, dev: IfIndex, n: usize) -> Batch {
        let mut batch = Batch::new();
        for _ in 0..n {
            batch.push(flow_frame(k, dev, 1));
        }
        batch
    }

    fn flow_frame(k: &Kernel, dev: IfIndex, sport: u16) -> Vec<u8> {
        builder::udp_packet(
            MacAddr::from_index(9),
            k.device(dev).unwrap().mac,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            2,
            b"x",
        )
    }

    #[test]
    fn direct_attach_drop_program() {
        let (mut k, eth0) = kernel_with_nic();
        attach(&mut k, eth0, HookPoint::Xdp, drop_prog(), MapStore::new()).unwrap();
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.drops(), vec!["xdp drop"]);
    }

    #[test]
    fn dispatcher_empty_slot_passes_to_slow_path() {
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        // No data path installed: local UDP is delivered by the slow path.
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.deliveries().len(), 1);
        assert!(d.installed().is_none());
    }

    #[test]
    fn dispatcher_swaps_data_paths_atomically() {
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.install(drop_prog());
        assert_eq!(d.installed().unwrap().name(), "drop_all");
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.drops(), vec!["xdp drop"]);
        // Swap to a PASS program: traffic flows again, no re-attach.
        d.install(verdict_prog("pass_all", Action::Pass, 0));
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.deliveries().len(), 1);
        // Uninstall: back to slow-path-only.
        d.uninstall();
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.deliveries().len(), 1);
    }

    #[test]
    fn swap_cycle_conserves_every_packet() {
        // The transparency ledger across install → uninstall → install:
        // every injected packet is decided exactly once — counted either
        // as a fast-path hit or a slow-path fallback, never both, never
        // neither.
        let (mut k, eth0) = kernel_with_nic();
        let registry = Registry::new();
        k.set_telemetry(registry.clone());
        let d = Dispatcher::new(MapStore::new());
        d.enable_telemetry(&registry);
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();

        // Empty slot: the dispatcher PASSes; the slow path delivers.
        for _ in 0..5 {
            let out = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(out.deliveries().len(), 1);
        }
        assert_eq!(
            registry.counter_value("linuxfp_slowpath_fallbacks_total", &[("fpm", "none")]),
            Some(5)
        );

        // Install a dropping data path (as a "filter" FPM).
        d.set_fpm_label("filter");
        d.install(drop_prog());
        for _ in 0..7 {
            let out = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(out.drops(), vec!["xdp drop"]);
        }
        assert_eq!(
            registry.counter_value("linuxfp_fp_hits_total", &[("fpm", "filter")]),
            Some(7)
        );

        // Uninstall: the sticky label keeps attributing fallbacks to the
        // last active pipeline.
        d.uninstall();
        for _ in 0..3 {
            let out = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(out.deliveries().len(), 1);
        }
        assert_eq!(
            registry.counter_value("linuxfp_slowpath_fallbacks_total", &[("fpm", "filter")]),
            Some(3)
        );

        // Reinstall: hits resume on the same series.
        d.install(drop_prog());
        for _ in 0..4 {
            let out = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(out.drops(), vec!["xdp drop"]);
        }

        // Conservation: hits + fallbacks == packets injected, across the
        // whole swap cycle. Nothing lost, nothing double-counted.
        let hits = registry.counter_total("linuxfp_fp_hits_total");
        let fallbacks = registry.counter_total("linuxfp_slowpath_fallbacks_total");
        let injected = registry.counter_total("linuxfp_packets_injected_total");
        assert_eq!(hits, 11);
        assert_eq!(fallbacks, 8);
        assert_eq!(hits + fallbacks, injected);
        assert_eq!(injected, 19);

        // Verdict tallies agree with the ledger.
        assert_eq!(
            registry.counter_value("linuxfp_vm_verdicts_total", &[("verdict", "pass")]),
            Some(8)
        );
        assert_eq!(
            registry.counter_value("linuxfp_vm_verdicts_total", &[("verdict", "drop")]),
            Some(11)
        );

        // The swap trail is in the event ring: install, uninstall, install.
        let swaps: Vec<_> = registry
            .events()
            .recent()
            .into_iter()
            .filter(|e| e.kind == "swap")
            .collect();
        assert_eq!(swaps.len(), 3);
        assert!(swaps[0].detail.starts_with("install drop_all"));
        assert!(swaps[1].detail.starts_with("uninstall"));
        assert!(swaps[2].detail.starts_with("install drop_all"));
    }

    #[test]
    fn counting_starts_when_telemetry_is_enabled_mid_stream() {
        // On a 4-shard kernel, a program dear enough that its flows are
        // recorded (a run must cost more than a cache hit).
        let (mut k, eth0) = kernel_with_nic();
        k.sysctl_set("net.linuxfp.rss_shards", 4).unwrap();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.install(verdict_prog("costly_drop", Action::Drop, 120));
        let send = |k: &mut Kernel, sports: std::ops::Range<u16>, rounds| {
            for sport in (0..rounds).flat_map(|_| sports.clone()) {
                let out = k.receive(eth0, flow_frame(k, eth0, sport));
                assert_eq!(out.drops(), vec!["xdp drop"]);
            }
        };

        // Before anyone counts, eight flows are recorded on their second
        // sighting and served from the cache on their third.
        send(&mut k, 1000..1008, 2);
        let warm = k.receive(eth0, flow_frame(&k, eth0, 1000));
        assert_eq!(warm.cost.stage_count("flowcache_hit"), 1);

        let registry = Registry::new();
        k.set_telemetry(registry.clone());
        d.enable_telemetry(&registry);
        // 24 hits on the warm flows, then 8 misses: four new flows seen
        // twice (the second sighting records).
        send(&mut k, 1000..1008, 3);
        send(&mut k, 2000..2004, 2);

        let total = |name| registry.counter_total(name);
        assert_eq!(total("linuxfp_packets_injected_total"), 32);
        assert_eq!(total("linuxfp_fp_hits_total"), 32);
        assert_eq!(total("linuxfp_flowcache_hits_total"), 24);
        assert_eq!(total("linuxfp_flowcache_misses_total"), 8);
        assert_eq!(total("linuxfp_flowcache_records_total"), 4);
        // The shard series sum to the global ledger, over more than one
        // shard.
        assert_eq!(total("linuxfp_shard_fp_hits_total"), 32);
        assert_eq!(total("linuxfp_shard_fallbacks_total"), 0);
        assert_eq!(total("linuxfp_shard_flowcache_hits_total"), 24);
        assert_eq!(total("linuxfp_shard_flowcache_misses_total"), 8);
        let shards = registry.counter_series("linuxfp_shard_fp_hits_total");
        assert!(shards.len() > 1, "one shard carried every flow: {shards:?}");
    }

    #[test]
    fn relabelling_mid_stream_moves_every_shard_to_the_new_labels() {
        let (mut k, eth0) = kernel_with_nic();
        k.sysctl_set("net.linuxfp.rss_shards", 4).unwrap();
        let registry = Registry::new();
        k.set_telemetry(registry.clone());
        let d = Dispatcher::new(MapStore::new());
        d.enable_telemetry(&registry);
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.set_fpm_label("filter");
        d.install(verdict_prog("costly_drop", Action::Drop, 120));
        // Sixteen flows over the four shards; three rounds place, record
        // and then hit each flow.
        let send = |k: &mut Kernel, rounds| {
            for sport in (0..rounds).flat_map(|_| 1000..1016u16) {
                k.receive(eth0, flow_frame(k, eth0, sport));
            }
        };
        send(&mut k, 3);
        let value = |name, labels: &[(&str, &str)]| registry.counter_value(name, labels);
        assert_eq!(
            value("linuxfp_fp_hits_total", &[("fpm", "filter")]),
            Some(48)
        );

        // A new FPM label leaves the cache warm: every shard serves its
        // hits into the new series.
        d.set_fpm_label("router+filter");
        send(&mut k, 1);
        assert_eq!(
            value("linuxfp_fp_hits_total", &[("fpm", "filter")]),
            Some(48)
        );
        assert_eq!(
            value("linuxfp_fp_hits_total", &[("fpm", "router+filter")]),
            Some(16)
        );
        let dropped_insns = value("linuxfp_vm_insns_total", &[("program", "costly_drop")]);
        assert!(dropped_insns > Some(0));

        // A new program: every shard's runs count under its name.
        d.install(verdict_prog("costly_pass", Action::Pass, 120));
        send(&mut k, 3);
        assert_eq!(
            value(
                "linuxfp_slowpath_fallbacks_total",
                &[("fpm", "router+filter")]
            ),
            Some(48)
        );
        assert_eq!(
            value("linuxfp_vm_insns_total", &[("program", "costly_drop")]),
            dropped_insns
        );
        assert!(value("linuxfp_vm_insns_total", &[("program", "costly_pass")]) > Some(0));

        // The ledger holds across both relabels, and more than one shard
        // carried the traffic.
        let total = |name| registry.counter_total(name);
        assert_eq!(total("linuxfp_packets_injected_total"), 112);
        assert_eq!(
            total("linuxfp_fp_hits_total") + total("linuxfp_slowpath_fallbacks_total"),
            112
        );
        assert_eq!(
            total("linuxfp_shard_fp_hits_total") + total("linuxfp_shard_fallbacks_total"),
            112
        );
        assert!(registry.counter_series("linuxfp_shard_fp_hits_total").len() > 1);
    }

    #[test]
    fn dispatcher_amortizes_program_fetch_across_generations() {
        // The slot resolution lives beside the verdict cache but does not
        // depend on it: the same amortization holds with the cache off.
        for flow_cache in [1, 0] {
            let (mut k, eth0) = kernel_with_nic();
            k.sysctl_set("net.linuxfp.flow_cache", flow_cache).unwrap();
            let d = Dispatcher::new(MapStore::new());
            d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
            d.install(drop_prog());

            // The first packet after an install walks the dispatcher (entry
            // insns + tail call) and caches the slot resolution under the
            // current coherence generation.
            let cold = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(cold.drops(), vec!["xdp drop"]);
            assert_eq!(cold.cost.stage_count("tail_call"), 1);

            // Until the generation moves, every later packet — across single
            // receives *and* burst boundaries — skips the dispatcher walk.
            let warm = k.receive(eth0, flow_frame(&k, eth0, 1));
            let warm_ns = warm.cost.total_ns();
            assert_eq!(warm.cost.stage_count("tail_call"), 0);
            assert!(warm_ns < cold.cost.total_ns());

            let out = k.inject_batch(eth0, &mut burst(&k, eth0, 8));
            assert_eq!(out.batch_size, 8);
            for rx in &out.outcomes {
                assert_eq!(rx.drops(), vec!["xdp drop"]);
                assert_eq!(rx.cost.stage_count("tail_call"), 0);
            }
            // Warm burst total is strictly cheaper than 8 cold singles.
            assert!(
                out.total_ns() < 8.0 * cold.cost.total_ns(),
                "burst {} vs 8x cold single {}",
                out.total_ns(),
                8.0 * cold.cost.total_ns()
            );

            // A warm batch of one costs exactly what a warm receive() costs.
            let out1 = k.inject_batch(eth0, &mut burst(&k, eth0, 1));
            assert_eq!(out1.total_ns(), warm_ns);

            // A swap bumps the program generation: the next packet re-pays
            // the dispatcher walk exactly once.
            d.install(drop_prog());
            let after_swap = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(after_swap.cost.stage_count("tail_call"), 1);
            let rewarm = k.receive(eth0, flow_frame(&k, eth0, 1));
            assert_eq!(rewarm.cost.stage_count("tail_call"), 0);
        }
    }

    #[test]
    fn dispatcher_slot_resolution_respects_swaps_between_bursts() {
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.install(drop_prog());
        let out = k.inject_batch(eth0, &mut burst(&k, eth0, 4));
        assert!(out.outcomes.iter().all(|rx| rx.drops() == ["xdp drop"]));

        // Swap to PASS between bursts: the stale resolution must not leak.
        d.install(verdict_prog("pass_all", Action::Pass, 0));
        let out = k.inject_batch(eth0, &mut burst(&k, eth0, 4));
        assert!(out.outcomes.iter().all(|rx| rx.deliveries().len() == 1));

        // Uninstall: every frame of the next burst PASSes via the
        // dispatcher default.
        d.uninstall();
        let out = k.inject_batch(eth0, &mut burst(&k, eth0, 4));
        assert!(out.outcomes.iter().all(|rx| rx.deliveries().len() == 1));
    }

    #[test]
    fn tc_hook_sees_skb_fields() {
        let (mut k, eth0) = kernel_with_nic();
        // A program that drops IPv4 (protocol 0x0800) based on the TC
        // context's protocol field.
        let mut a = Asm::new();
        a.load(
            crate::insn::MemSize::W,
            2,
            1,
            crate::verifier::ctx_layout::PROTOCOL as i16,
        );
        a.jmp_imm(crate::insn::JmpCond::Eq, 2, 0x0800, "drop");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        a.label("drop");
        a.mov_imm(0, Action::Drop.code() as i64);
        a.exit();
        let prog = LoadedProgram::load(Program::new("drop_ipv4", a.finish().unwrap())).unwrap();
        attach(&mut k, eth0, HookPoint::Tc, prog, MapStore::new()).unwrap();
        let out = k.receive(eth0, flow_frame(&k, eth0, 1));
        assert_eq!(out.drops(), vec!["tc drop"]);
        assert_eq!(out.cost.stage_count("skb_alloc"), 1);
    }

    #[test]
    fn redirect_from_program_transmits() {
        let mut k = Kernel::new(12);
        let eth0 = k.add_physical("eth0").unwrap();
        let eth1 = k.add_physical("eth1").unwrap();
        k.ip_link_set_up(eth0).unwrap();
        k.ip_link_set_up(eth1).unwrap();
        let mut a = Asm::new();
        a.mov_imm(1, eth1.as_u32() as i64);
        a.mov_imm(2, 0);
        a.call(crate::insn::HelperId::Redirect);
        a.exit();
        let prog = LoadedProgram::load(Program::new("redir", a.finish().unwrap())).unwrap();
        attach(&mut k, eth0, HookPoint::Xdp, prog, MapStore::new()).unwrap();
        let frame = builder::udp_packet(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"",
        );
        let out = k.receive(eth0, frame.clone());
        assert_eq!(out.transmissions().len(), 1);
        assert_eq!(out.transmissions()[0].0, eth1);
        assert_eq!(out.transmissions()[0].1, frame.as_slice());
    }
}
