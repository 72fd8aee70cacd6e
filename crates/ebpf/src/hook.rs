//! Attaching programs to kernel hook points, and the tail-call
//! dispatcher that makes data-path replacement atomic.
//!
//! Reloading an XDP program on a live interface can black-hole traffic
//! for seconds; LinuxFP instead attaches a tiny **dispatcher** once and
//! swaps data paths by updating a program-array slot (paper §IV-A2,
//! Fig. 4). [`Dispatcher`] reproduces that mechanism: `install` replaces
//! the active program with one map update, and packets always see either
//! the old or the new program.

use crate::asm::Asm;
use crate::compile;
use crate::flowcache::{self, FlowCache, FlowEntry, FlowKey, Probe};
use crate::helpers::HelperEnv;
use crate::insn::Action;
use crate::maps::{MapId, MapStore};
use crate::program::{LoadedProgram, Program};
use crate::vm::{VmCtx, VmOutcome};
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::stack::{HookFn, HookVerdict, Kernel};
use linuxfp_netstack::NetError;
use linuxfp_packet::{rewrite, EthernetFrame};
use linuxfp_sim::CostTracker;
use linuxfp_telemetry::trace::{FlowCacheOutcome, PuntReason, TraceEvent};
use linuxfp_telemetry::{Counter, Registry};
use std::sync::{Arc, Mutex};

/// Which kernel hook to attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// The XDP hook: before `sk_buff` allocation; fastest.
    Xdp,
    /// The TC ingress hook: after `sk_buff` allocation; richer context.
    Tc,
}

/// Telemetry handles for one hook's data path: which verdicts the VM
/// returned, how much work it did, and whether packets were handled in
/// the fast path or fell back to the kernel slow path.
///
/// Counter handles are resolved once (at install/relabel time), so the
/// per-packet cost is a few relaxed atomic increments — no label or map
/// lookups on the data path. The conservation law the metrics support:
/// `linuxfp_fp_hits_total + linuxfp_slowpath_fallbacks_total` equals the
/// number of packets that entered the hook.
#[derive(Debug, Clone)]
pub struct HookStats {
    /// Packets fully handled by the fast path (any verdict except PASS).
    pub hits: Counter,
    /// Packets PASSed to the kernel slow path (including the dispatcher's
    /// empty-slot default).
    pub fallbacks: Counter,
    /// VM instructions executed (across tail calls).
    pub vm_insns: Counter,
    /// Helper calls made by the program.
    pub helper_calls: Counter,
    /// Division/modulo-by-zero events observed at runtime (Linux-defined
    /// results, not faults — but worth watching: synthesized code should
    /// never produce them).
    pub div_zeros: Counter,
    verdict_pass: Counter,
    verdict_drop: Counter,
    verdict_redirect: Counter,
    verdict_deliver_user: Counter,
}

impl HookStats {
    /// Creates (or re-resolves) the counters in `registry`, labelling
    /// hit/fallback counters with `fpm` and VM counters with `program`.
    pub fn in_registry(registry: &Registry, program: &str, fpm: &str) -> HookStats {
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
        HookStats {
            hits: registry.counter("linuxfp_fp_hits_total", &[("fpm", fpm)]),
            fallbacks: registry.counter("linuxfp_slowpath_fallbacks_total", &[("fpm", fpm)]),
            vm_insns: registry.counter("linuxfp_vm_insns_total", &[("program", program)]),
            helper_calls: registry
                .counter("linuxfp_vm_helper_calls_total", &[("program", program)]),
            div_zeros: registry.counter("linuxfp_vm_div_zero_total", &[("program", program)]),
            verdict_pass: registry.counter("linuxfp_vm_verdicts_total", &[("verdict", "pass")]),
            verdict_drop: registry.counter("linuxfp_vm_verdicts_total", &[("verdict", "drop")]),
            verdict_redirect: registry
                .counter("linuxfp_vm_verdicts_total", &[("verdict", "redirect")]),
            verdict_deliver_user: registry
                .counter("linuxfp_vm_verdicts_total", &[("verdict", "deliver_user")]),
        }
    }

    fn record(&self, out: &VmOutcome, verdict: &HookVerdict) {
        self.vm_insns.add(out.insns_executed);
        self.helper_calls.add(out.helper_calls);
        self.div_zeros.add(out.div_zeros);
        self.record_verdict(verdict);
    }

    /// Counts a packet served by the microflow verdict cache: the
    /// hit/fallback ledger and verdict tallies advance exactly as under
    /// interpretation, but no VM instructions or helper calls ran.
    fn record_cached(&self, verdict: &HookVerdict) {
        self.record_verdict(verdict);
    }

    fn record_verdict(&self, verdict: &HookVerdict) {
        match verdict {
            HookVerdict::Pass => {
                self.verdict_pass.inc();
                self.fallbacks.inc();
            }
            HookVerdict::Drop => {
                self.verdict_drop.inc();
                self.hits.inc();
            }
            HookVerdict::Redirect(_) => {
                self.verdict_redirect.inc();
                self.hits.inc();
            }
            HookVerdict::DeliverUser => {
                self.verdict_deliver_user.inc();
                self.hits.inc();
            }
        }
    }
}

/// Telemetry state shared between a dispatcher and its hook closure; the
/// labels are re-resolved on every install so metrics follow the active
/// data path.
#[derive(Debug)]
struct HookTelemetry {
    registry: Registry,
    program: String,
    fpm: String,
    stats: HookStats,
}

type TelemetryCell = Arc<Mutex<Option<HookTelemetry>>>;

/// Cached resolution of a dispatcher's program-array slot.
///
/// The first packet after any coherence change walks the dispatcher
/// (paying the entry insns and the tail-call charge) and records the
/// slot's resolved program here, stamped with the combined generation
/// ([`Kernel::state_generation`] + [`MapStore::prog_generation`]). Later
/// packets run the resolved program directly until the generation moves —
/// a data-path swap bumps the program generation, so a stale resolution
/// can never outlive the program it points to. This is the same (and
/// only) invalidation mechanism the microflow verdict cache uses.
#[derive(Debug)]
struct BatchCache {
    gen: u64,
    resolved: LoadedProgram,
}

type BatchCacheCell = Arc<Mutex<Option<BatchCache>>>;

/// Cache slots kept per hook: one verdict cache + one slot resolution per
/// possible RSS shard, indexed by `Packet::rx_queue`. An unsharded kernel
/// always steers to queue 0, so slot 0 behaves exactly like the single
/// cache it replaced.
const SHARD_SLOTS: usize = 16;

/// Bumps the per-shard hit/fallback ledger. Only called when the datapath
/// is sharded, so single-core runs never grow a shard dimension; the
/// per-shard series sum to the global `linuxfp_fp_hits_total` /
/// `linuxfp_slowpath_fallbacks_total` ledger.
fn record_shard_verdict(telemetry: &TelemetryCell, shard: usize, verdict: &HookVerdict) {
    let series = if matches!(verdict, HookVerdict::Pass) {
        "linuxfp_shard_fallbacks_total"
    } else {
        "linuxfp_shard_fp_hits_total"
    };
    bump_shard(telemetry, series, shard);
}

/// Increments a shard-labelled counter, if telemetry is wired.
fn bump_shard(telemetry: &TelemetryCell, series: &str, shard: usize) {
    if let Some(t) = telemetry.lock().unwrap().as_ref() {
        let label = shard.to_string();
        t.registry
            .counter(series, &[("shard", label.as_str())])
            .inc();
    }
}

/// Builds a [`HookFn`] that executes `prog` in the VM against each
/// packet, translating VM verdicts to kernel hook verdicts.
pub fn hook_fn_for(prog: LoadedProgram, maps: MapStore, hook: HookPoint) -> HookFn {
    hook_fn_with_cell(prog, maps, hook, Arc::new(Mutex::new(None)))
}

/// Like [`hook_fn_for`], recording per-packet telemetry into `registry`.
/// Both the VM counters and the hit/fallback counters are labelled with
/// the program's name (directly-attached programs have no FPM pipeline).
pub fn hook_fn_instrumented(
    prog: LoadedProgram,
    maps: MapStore,
    hook: HookPoint,
    registry: &Registry,
) -> HookFn {
    let stats = HookStats::in_registry(registry, prog.name(), prog.name());
    let cell = Arc::new(Mutex::new(Some(HookTelemetry {
        registry: registry.clone(),
        program: prog.name().to_string(),
        fpm: prog.name().to_string(),
        stats,
    })));
    hook_fn_with_cell(prog, maps, hook, cell)
}

fn hook_fn_with_cell(
    prog: LoadedProgram,
    maps: MapStore,
    hook: HookPoint,
    telemetry: TelemetryCell,
) -> HookFn {
    hook_fn_inner(prog, maps, hook, telemetry, None)
}

fn hook_fn_inner(
    prog: LoadedProgram,
    maps: MapStore,
    hook: HookPoint,
    telemetry: TelemetryCell,
    dispatch: Option<(MapId, usize)>,
) -> HookFn {
    // Both caches shard with the datapath: each RSS queue owns a private
    // verdict cache and slot resolution, so cores never contend on cache
    // lines and a flow's cached state stays wherever RSS steers it.
    let batch_caches: Vec<BatchCacheCell> = (0..SHARD_SLOTS)
        .map(|_| Arc::new(Mutex::new(None)))
        .collect();
    let flow_caches: Vec<Arc<Mutex<FlowCache>>> = (0..SHARD_SLOTS)
        .map(|_| Arc::new(Mutex::new(FlowCache::new(flowcache::DEFAULT_CAPACITY))))
        .collect();
    let hook_name = match hook {
        HookPoint::Xdp => "xdp",
        HookPoint::Tc => "tc",
    };
    Arc::new(move |kernel: &mut Kernel, packet, tracker, trace| {
        let cost = kernel.cost_model_arc();
        // The fast path keys both caches on the combined generation below,
        // which folds in every shared structure: reading it is where a
        // sharded datapath observes other cores' writes, so any stale
        // structure is charged here before the generation is read.
        kernel.coherence_charge_fastpath(tracker, trace);
        // The one coherence number both caches key on: any kernel state
        // mutation, time advance, or data-path swap changes it.
        let gen = kernel
            .state_generation()
            .wrapping_add(maps.prog_generation());
        let ingress = packet.ingress_ifindex;
        let rx_queue = packet.rx_queue;
        let shard = (rx_queue as usize).min(SHARD_SLOTS - 1);
        let sharded = kernel.rss_shards() > 1;
        let batch_cache = &batch_caches[shard];
        let flow_cache = &flow_caches[shard];

        // ---- microflow verdict cache: hit path -----------------------
        // Only dispatcher-driven hooks cache verdicts (directly attached
        // programs bypass the whole mechanism), and only while the
        // net.linuxfp.flow_cache sysctl is on.
        let cache_on = dispatch.is_some() && kernel.flow_cache_enabled();
        let key = if cache_on {
            FlowKey::extract(&packet.data, IfIndex(ingress))
        } else {
            None
        };
        // Set when this miss is the flow's second sighting: its run is the
        // one to record.
        let mut admitted = None;
        let mut invalidated = false;
        if cache_on {
            let mut fc = flow_cache.lock().unwrap();
            if !fc.telemetry_wired() {
                if let Some(t) = telemetry.lock().unwrap().as_ref() {
                    fc.wire_telemetry(&t.registry);
                }
            }
            // Compared *before* the probe (which flushes lazily on a
            // generation change) to tell an invalidation miss from a
            // cold one; only the sampled path pays the reads.
            invalidated = trace.enabled() && !fc.is_empty() && fc.generation() != gen;
            if let Some(k) = &key {
                let entry = match fc.probe(gen, k) {
                    Probe::Hit(entry) => Some(entry),
                    Probe::Admitted(admission) => {
                        admitted = Some(admission);
                        None
                    }
                    Probe::FirstSighting => None,
                };
                if let Some(entry) = entry {
                    drop(fc);
                    rewrite::apply_ops(&mut packet.data, &entry.ops);
                    flowcache::replay_touches(&entry.touches, kernel);
                    // The replay wrote shared state on this shard's
                    // behalf: its own writes must not read as remote.
                    kernel.coherence_refresh_fastpath();
                    tracker.charge("flowcache_hit", cost.flowcache_hit_ns);
                    trace.event(|| TraceEvent::FlowCache {
                        outcome: FlowCacheOutcome::Hit,
                    });
                    if matches!(entry.verdict, HookVerdict::Pass) {
                        trace.event(|| TraceEvent::Punt {
                            reason: PuntReason::CachedPass,
                        });
                    }
                    if let Some(t) = telemetry.lock().unwrap().as_ref() {
                        t.stats.record_cached(&entry.verdict);
                    }
                    if sharded {
                        record_shard_verdict(&telemetry, shard, &entry.verdict);
                        bump_shard(&telemetry, "linuxfp_shard_flowcache_hits_total", shard);
                    }
                    return entry.verdict;
                }
            }
            fc.note_miss();
            if sharded {
                bump_shard(&telemetry, "linuxfp_shard_flowcache_misses_total", shard);
            }
        }

        // ---- miss: run the program (recording helper touches) --------
        // A packet under an unchanged generation runs the slot's program
        // directly, skipping the dispatcher walk (see [`BatchCache`]).
        let cached = dispatch.and_then(|_| {
            let cache = batch_cache.lock().unwrap();
            cache
                .as_ref()
                .filter(|c| c.gen == gen)
                .map(|c| c.resolved.clone())
        });
        // A statically uncacheable slot program fails the first recording
        // gate whatever it does: skip the frame copy and the helper log.
        let record = admitted.filter(|_| cached.as_ref().is_none_or(LoadedProgram::cacheable));
        if cache_on {
            trace.event(|| TraceEvent::FlowCache {
                outcome: if key.is_none() {
                    FlowCacheOutcome::MissIneligible
                } else if invalidated {
                    FlowCacheOutcome::MissInvalidated
                } else if record.is_some() {
                    FlowCacheOutcome::MissRecording
                } else {
                    FlowCacheOutcome::MissCold
                },
            });
        } else if dispatch.is_some() {
            trace.event(|| TraceEvent::FlowCache {
                outcome: FlowCacheOutcome::MissDisabled,
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
        // Resolving a human-readable program name is only worth the
        // String when this packet is sampled.
        let traced = trace.enabled();
        // (outcome, cacheable, traced program name, dispatcher slot empty)
        let run = |env: &mut dyn HelperEnv,
                   tracker: &mut CostTracker|
         -> (VmOutcome, bool, Option<String>, bool) {
            match cached {
                Some(resolved) => {
                    let cacheable = resolved.cacheable();
                    let name = traced.then(|| resolved.name().to_string());
                    (
                        compile::run(&resolved, ctx, env, &maps, &cost, tracker),
                        cacheable,
                        name,
                        false,
                    )
                }
                None => {
                    let out = compile::run(&prog, ctx, env, &maps, &cost, tracker);
                    let resolved = dispatch.and_then(|(pa, slot)| maps.prog_array_get(pa, slot));
                    let slot_empty = dispatch.is_some() && resolved.is_none();
                    let name = traced.then(|| match &resolved {
                        Some(r) => r.name().to_string(),
                        None => prog.name().to_string(),
                    });
                    let cacheable =
                        prog.cacheable() && resolved.as_ref().is_none_or(|r| r.cacheable());
                    if dispatch.is_some() {
                        *batch_cache.lock().unwrap() =
                            resolved.map(|resolved| BatchCache { gen, resolved });
                    }
                    (out, cacheable, name, slot_empty)
                }
            }
        };
        let (out, ran_cacheable, prog_name, slot_empty, touches) = if record.is_some() {
            let mut rec = flowcache::RecordingEnv::new(kernel);
            let (out, cacheable, name, slot_empty) = run(&mut rec, tracker);
            (out, cacheable, name, slot_empty, rec.into_touches())
        } else {
            let (out, cacheable, name, slot_empty) = run(&mut *kernel, tracker);
            (out, cacheable, name, slot_empty, Vec::new())
        };
        let interp_ns = tracker.total_ns() - interp_start;
        // Helpers may have written shared state (conntrack commits, FDB
        // learning): resync this shard's view so its own writes don't
        // read back as remote on the next packet.
        kernel.coherence_refresh_fastpath();
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
            program: prog_name.unwrap_or_default(),
            hook: hook_name,
            insns: out.insns_executed,
            helpers: out.helper_calls,
            tail_calls: out.tail_calls,
            verdict: match verdict {
                HookVerdict::Pass => "pass",
                HookVerdict::Drop => "drop",
                HookVerdict::Redirect(_) => "redirect",
                HookVerdict::DeliverUser => "deliver_user",
            },
            ns: interp_ns,
        });
        if matches!(verdict, HookVerdict::Pass) {
            trace.event(|| TraceEvent::Punt {
                reason: if slot_empty {
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

        // ---- record the flow, if every gate passes -------------------
        // Gates: the programs that ran honor the static cacheability
        // contract; the verdict is replayable (no AF_XDP delivery, no
        // aborted run); interpretation cost exceeded the hit price (the
        // cache must never decelerate a path — trivial programs stay
        // interpreted); and the frame diff reduces to replayable rewrite
        // ops that verifiably reproduce the observed output.
        if let (Some(admission), Some(before), Some(k)) = (record, before_frame, key) {
            let replayable_verdict =
                !matches!(verdict, HookVerdict::DeliverUser) && out.action != Action::Aborted;
            let mut entry = None;
            // An allow-without-pin L7 verdict depends on this segment's
            // payload, which the flow key does not pin — never cache it.
            if ran_cacheable
                && replayable_verdict
                && !out.l7_uncacheable
                && interp_ns > cost.flowcache_hit_ns
            {
                if let Some(ops) = rewrite::derive_ops(&before, &packet.data, k.l3_offset()) {
                    let mut check = before;
                    rewrite::apply_ops(&mut check, &ops);
                    if check[..] == packet.data[..] {
                        entry = Some(FlowEntry {
                            verdict,
                            ops,
                            touches,
                        });
                    }
                }
            }
            flow_cache.lock().unwrap().record(admission, &k, entry);
        }

        // Telemetry counters are real atomics with no virtual-time
        // charge: observability must not perturb the modeled costs.
        if let Some(t) = telemetry.lock().unwrap().as_ref() {
            t.stats.record(&out, &verdict);
        }
        if sharded {
            record_shard_verdict(&telemetry, shard, &verdict);
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
    let f = hook_fn_for(prog, maps, hook);
    match hook {
        HookPoint::Xdp => kernel.attach_xdp(dev, f),
        HookPoint::Tc => kernel.attach_tc_ingress(dev, f),
    }
}

/// The per-interface dispatcher: a constant entry program that tail-calls
/// the active data path through a program-array slot.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    maps: MapStore,
    prog_array: MapId,
    slot: usize,
    telemetry: TelemetryCell,
}

impl Dispatcher {
    /// Creates a dispatcher (and its program array) in `maps`.
    pub fn new(maps: MapStore) -> Self {
        let prog_array = maps.create_prog_array(1);
        Dispatcher {
            maps,
            prog_array,
            slot: 0,
            telemetry: Arc::new(Mutex::new(None)),
        }
    }

    /// Enables telemetry for this dispatcher's hook: per-packet verdict,
    /// instruction and hit/fallback counters land in `registry`. Until a
    /// data path is installed the series carry `fpm="none"`.
    pub fn enable_telemetry(&self, registry: &Registry) {
        let mut cell = self.telemetry.lock().unwrap();
        *cell = Some(HookTelemetry {
            registry: registry.clone(),
            program: "linuxfp_dispatcher".to_string(),
            fpm: "none".to_string(),
            stats: HookStats::in_registry(registry, "linuxfp_dispatcher", "none"),
        });
    }

    /// Whether [`Dispatcher::enable_telemetry`] has been called.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.lock().unwrap().is_some()
    }

    /// Re-labels this dispatcher's hit/fallback counters with the FPM
    /// composition of the installed pipeline (e.g. `router+filter`).
    /// Labels are sticky across uninstall so late packets still count
    /// against the last active data path. No-op without telemetry.
    pub fn set_fpm_label(&self, fpm: &str) {
        let mut cell = self.telemetry.lock().unwrap();
        if let Some(t) = cell.as_mut() {
            if t.fpm != fpm {
                t.fpm = fpm.to_string();
                t.stats = HookStats::in_registry(&t.registry, &t.program, &t.fpm);
            }
        }
    }

    /// The current snapshot of this dispatcher's counters, if telemetry
    /// is enabled.
    pub fn stats(&self) -> Option<HookStats> {
        self.telemetry
            .lock()
            .unwrap()
            .as_ref()
            .map(|t| t.stats.clone())
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

    /// Attaches the dispatcher to a device hook.
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
        let f = hook_fn_inner(
            self.entry_program(),
            self.maps.clone(),
            hook,
            Arc::clone(&self.telemetry),
            Some((self.prog_array, self.slot)),
        );
        match hook {
            HookPoint::Xdp => kernel.attach_xdp(dev, f),
            HookPoint::Tc => kernel.attach_tc_ingress(dev, f),
        }
    }

    /// Atomically installs (or replaces) the active data path.
    pub fn install(&self, prog: LoadedProgram) {
        {
            let mut cell = self.telemetry.lock().unwrap();
            if let Some(t) = cell.as_mut() {
                t.registry.events().push(
                    "swap",
                    format!("install {} ({} insns)", prog.name(), prog.len()),
                );
                if t.program != prog.name() {
                    t.program = prog.name().to_string();
                    t.stats = HookStats::in_registry(&t.registry, &t.program, &t.fpm);
                }
            }
        }
        self.maps
            .prog_array_set(self.prog_array, self.slot, Some(prog))
            .expect("dispatcher prog array");
    }

    /// Removes the active data path; packets fall back to the slow path.
    pub fn uninstall(&self) {
        if let Some(t) = self.telemetry.lock().unwrap().as_ref() {
            t.registry
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

    /// The backing map store.
    pub fn maps(&self) -> &MapStore {
        &self.maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_netstack::stack::IfAddr;
    use linuxfp_packet::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn kernel_with_nic() -> (Kernel, IfIndex) {
        let mut k = Kernel::new(11);
        let eth0 = k.add_physical("eth0").unwrap();
        k.ip_addr_add(eth0, "10.0.0.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        (k, eth0)
    }

    fn drop_prog() -> LoadedProgram {
        let mut a = Asm::new();
        a.mov_imm(0, Action::Drop.code() as i64);
        a.exit();
        LoadedProgram::load(Program::new("drop_all", a.finish().unwrap())).unwrap()
    }

    fn frame_for(k: &Kernel, dev: IfIndex) -> Vec<u8> {
        builder::udp_packet(
            MacAddr::from_index(9),
            k.device(dev).unwrap().mac,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            1,
            2,
            b"x",
        )
    }

    #[test]
    fn direct_attach_drop_program() {
        let (mut k, eth0) = kernel_with_nic();
        attach(&mut k, eth0, HookPoint::Xdp, drop_prog(), MapStore::new()).unwrap();
        let out = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(out.drops(), vec!["xdp drop"]);
    }

    #[test]
    fn dispatcher_empty_slot_passes_to_slow_path() {
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        // No data path installed: local UDP is delivered by the slow path.
        let out = k.receive(eth0, frame_for(&k, eth0));
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
        let out = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(out.drops(), vec!["xdp drop"]);
        // Swap to a PASS program: traffic flows again, no re-attach.
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let pass = LoadedProgram::load(Program::new("pass_all", a.finish().unwrap())).unwrap();
        d.install(pass);
        let out = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(out.deliveries().len(), 1);
        // Uninstall: back to slow-path-only.
        d.uninstall();
        let out = k.receive(eth0, frame_for(&k, eth0));
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
        assert!(d.telemetry_enabled());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();

        // Empty slot: the dispatcher PASSes; the slow path delivers.
        for _ in 0..5 {
            let out = k.receive(eth0, frame_for(&k, eth0));
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
            let out = k.receive(eth0, frame_for(&k, eth0));
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
            let out = k.receive(eth0, frame_for(&k, eth0));
            assert_eq!(out.deliveries().len(), 1);
        }
        assert_eq!(
            registry.counter_value("linuxfp_slowpath_fallbacks_total", &[("fpm", "filter")]),
            Some(3)
        );

        // Reinstall: hits resume on the same series.
        d.install(drop_prog());
        for _ in 0..4 {
            let out = k.receive(eth0, frame_for(&k, eth0));
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
    fn dispatcher_amortizes_program_fetch_across_generations() {
        use linuxfp_packet::Batch;
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.install(drop_prog());

        // The first packet after an install walks the dispatcher (entry
        // insns + tail call) and caches the slot resolution under the
        // current coherence generation.
        let cold = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(cold.drops(), vec!["xdp drop"]);
        assert_eq!(cold.cost.stage_count("tail_call"), 1);

        // Until the generation moves, every later packet — across single
        // receives *and* burst boundaries — skips the dispatcher walk.
        let warm = k.receive(eth0, frame_for(&k, eth0));
        let warm_ns = warm.cost.total_ns();
        assert_eq!(warm.cost.stage_count("tail_call"), 0);
        assert!(warm_ns < cold.cost.total_ns());

        let mut batch = Batch::new();
        for _ in 0..8 {
            batch.push(frame_for(&k, eth0));
        }
        let out = k.inject_batch(eth0, &mut batch);
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
        let mut one = Batch::new();
        one.push(frame_for(&k, eth0));
        let out1 = k.inject_batch(eth0, &mut one);
        assert_eq!(out1.total_ns(), warm_ns);

        // A swap bumps the program generation: the next packet re-pays
        // the dispatcher walk exactly once.
        d.install(drop_prog());
        let after_swap = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(after_swap.cost.stage_count("tail_call"), 1);
        let rewarm = k.receive(eth0, frame_for(&k, eth0));
        assert_eq!(rewarm.cost.stage_count("tail_call"), 0);
    }

    #[test]
    fn dispatcher_batch_cache_respects_swaps_between_bursts() {
        use linuxfp_packet::Batch;
        let (mut k, eth0) = kernel_with_nic();
        let d = Dispatcher::new(MapStore::new());
        d.attach(&mut k, eth0, HookPoint::Xdp).unwrap();
        d.install(drop_prog());
        let mut batch = Batch::new();
        for _ in 0..4 {
            batch.push(frame_for(&k, eth0));
        }
        let out = k.inject_batch(eth0, &mut batch);
        assert!(out.outcomes.iter().all(|rx| rx.drops() == ["xdp drop"]));

        // Swap to PASS between bursts: the stale cache must not leak.
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let pass = LoadedProgram::load(Program::new("pass_all", a.finish().unwrap())).unwrap();
        d.install(pass);
        let mut batch = Batch::new();
        for _ in 0..4 {
            batch.push(frame_for(&k, eth0));
        }
        let out = k.inject_batch(eth0, &mut batch);
        assert!(out.outcomes.iter().all(|rx| rx.deliveries().len() == 1));

        // Uninstall: every frame of the next burst PASSes via the
        // dispatcher default.
        d.uninstall();
        let mut batch = Batch::new();
        for _ in 0..4 {
            batch.push(frame_for(&k, eth0));
        }
        let out = k.inject_batch(eth0, &mut batch);
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
        let out = k.receive(eth0, frame_for(&k, eth0));
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
