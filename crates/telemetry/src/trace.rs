//! Per-packet flight recorder: sampled datapath spans with per-stage
//! cost attribution.
//!
//! Aggregate counters can prove the conservation law (`fp_hits +
//! slowpath_fallbacks == packets_injected`) but cannot answer *where a
//! specific packet spent its nanoseconds* or *why it was dropped*. This
//! module adds that per-packet view without perturbing the thing it
//! observes:
//!
//! - [`DropReason`] / [`PuntReason`] — the machine-readable taxonomy
//!   that replaces ad-hoc `&'static str` drop labels across the stack.
//!   [`DropReason::as_str`] returns the exact historical label, so
//!   counters, difftest repros and golden tests are unaffected.
//! - [`TraceCtx`] — the per-packet context threaded through the
//!   datapath. Disabled (the default) it is two machine words and every
//!   append is a predictable untaken branch; it never allocates and
//!   never charges virtual time, so sampling off is bit-identical to
//!   the pre-trace datapath.
//! - [`TraceSpan`] — the finished record: total virtual-time cost, the
//!   per-stage fold of the packet's [`CostTracker`] (which sums to the
//!   total *by construction*), and the chronological typed events.
//! - [`TraceRing`] — fixed-capacity ring of finished spans, same
//!   discipline as the control-plane `EventRing`.
//! - [`Sampler`] / [`FlightRecorder`] — 1-in-N head sampling; N = 0
//!   means off.
//! - [`CostBreakdown`] — folds sampled spans into a ns/pkt-by-stage
//!   table grouped by regime × disposition, with p50/p99 from the
//!   existing log2 histograms.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use linuxfp_json::{json, Value};
use linuxfp_sim::cost::CostTracker;

use crate::Histogram;

/// Why the datapath dropped a packet.
///
/// One variant per historically distinct drop label; [`as_str`] returns
/// the exact legacy string so `drops()`, `drop_counts`, the
/// `linuxfp_drops_total{reason}` counter labels and the difftest corpus
/// all keep their wire format.
///
/// [`as_str`]: DropReason::as_str
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropReason {
    /// Injection named a device index the kernel has never seen.
    NoSuchDevice,
    /// The ingress device is administratively down.
    DeviceDown,
    /// A frame was re-queued more than the hop budget allows.
    ForwardingLoop,
    /// An XDP program returned `DROP`.
    XdpDrop,
    /// A TC ingress program returned `DROP` (or `SHOT`).
    TcDrop,
    /// The frame is too short to carry an Ethernet header.
    MalformedEthernet,
    /// Unicast frame for a MAC the receiving port does not own.
    WrongDestinationMac,
    /// An STP BPDU terminated at the bridge control plane.
    BpduConsumed,
    /// A port references a bridge that no longer exists.
    MissingBridge,
    /// An iptables FORWARD rule (or br_netfilter) rejected the packet.
    NfForwardDrop,
    /// EtherType the slow path does not implement.
    UnhandledEthertype,
    /// The IPv4 header failed structural validation.
    MalformedIpv4,
    /// The IPv4 header checksum does not verify.
    BadIpv4Checksum,
    /// An iptables PREROUTING rule rejected the packet.
    NfPreroutingDrop,
    /// An iptables INPUT rule rejected the packet.
    NfInputDrop,
    /// `net.ipv4.ip_forward` is 0 and the packet is not local.
    ForwardingDisabled,
    /// No FIB entry matches the destination.
    NoRoute,
    /// TTL reached zero in the forwarding path.
    TtlExceeded,
    /// SNAT could not allocate a free source port.
    NatPortExhaustion,
    /// An iptables POSTROUTING rule rejected the packet.
    NfPostroutingDrop,
    /// ARP resolution had no usable source address on the egress net.
    NoArpSourceAddress,
    /// Transmit targeted a device index the kernel has never seen.
    TransmitMissingDevice,
    /// Transmit targeted an administratively-down device.
    TransmitDownDevice,
    /// Locally-originated packet (e.g. an ICMP error) has no route.
    NoRouteOutput,
    /// VXLAN egress found neither an FDB entry nor a default VTEP.
    VxlanNoRemoteVtep,
    /// The ARP payload failed structural validation.
    MalformedArp,
    /// An ARP request/reply terminated at the local ARP state machine.
    ArpConsumed,
    /// The VXLAN payload failed structural validation on decap.
    MalformedVxlan,
    /// Bridge input from a device that is not a port of any bridge.
    NotABridgePort,
    /// STP holds the ingress port in a non-forwarding state.
    IngressPortBlocked,
    /// VLAN filtering rejected the frame's VID on the ingress port.
    VlanFiltered,
    /// STP holds the ingress port in the learning state.
    IngressPortLearningOnly,
    /// The only egress was the ingress port and hairpin is off.
    Hairpin,
    /// VPP reference datapath: non-IP traffic is punted (modelled drop).
    VppNonIpPunted,
    /// VPP reference datapath: ACL deny.
    VppAclDeny,
    /// An L7 request policy (or a pinned connection verdict) denied the
    /// request.
    L7PolicyDeny,
}

impl DropReason {
    /// Every variant, for exhaustiveness tests and registry docs.
    pub const ALL: [DropReason; 36] = [
        DropReason::NoSuchDevice,
        DropReason::DeviceDown,
        DropReason::ForwardingLoop,
        DropReason::XdpDrop,
        DropReason::TcDrop,
        DropReason::MalformedEthernet,
        DropReason::WrongDestinationMac,
        DropReason::BpduConsumed,
        DropReason::MissingBridge,
        DropReason::NfForwardDrop,
        DropReason::UnhandledEthertype,
        DropReason::MalformedIpv4,
        DropReason::BadIpv4Checksum,
        DropReason::NfPreroutingDrop,
        DropReason::NfInputDrop,
        DropReason::ForwardingDisabled,
        DropReason::NoRoute,
        DropReason::TtlExceeded,
        DropReason::NatPortExhaustion,
        DropReason::NfPostroutingDrop,
        DropReason::NoArpSourceAddress,
        DropReason::TransmitMissingDevice,
        DropReason::TransmitDownDevice,
        DropReason::NoRouteOutput,
        DropReason::VxlanNoRemoteVtep,
        DropReason::MalformedArp,
        DropReason::ArpConsumed,
        DropReason::MalformedVxlan,
        DropReason::NotABridgePort,
        DropReason::IngressPortBlocked,
        DropReason::VlanFiltered,
        DropReason::IngressPortLearningOnly,
        DropReason::Hairpin,
        DropReason::VppNonIpPunted,
        DropReason::VppAclDeny,
        DropReason::L7PolicyDeny,
    ];

    /// The historical string label, unchanged from the pre-taxonomy
    /// `&'static str` era. Counter labels, difftest canonicalization
    /// and test assertions all key on these exact strings.
    pub const fn as_str(self) -> &'static str {
        match self {
            DropReason::NoSuchDevice => "no such device",
            DropReason::DeviceDown => "device down",
            DropReason::ForwardingLoop => "forwarding loop",
            DropReason::XdpDrop => "xdp drop",
            DropReason::TcDrop => "tc drop",
            DropReason::MalformedEthernet => "malformed ethernet",
            DropReason::WrongDestinationMac => "wrong destination mac",
            DropReason::BpduConsumed => "bpdu consumed",
            DropReason::MissingBridge => "missing bridge",
            DropReason::NfForwardDrop => "nf forward drop",
            DropReason::UnhandledEthertype => "unhandled ethertype",
            DropReason::MalformedIpv4 => "malformed ipv4",
            DropReason::BadIpv4Checksum => "bad ipv4 checksum",
            DropReason::NfPreroutingDrop => "nf prerouting drop",
            DropReason::NfInputDrop => "nf input drop",
            DropReason::ForwardingDisabled => "forwarding disabled",
            DropReason::NoRoute => "no route",
            DropReason::TtlExceeded => "ttl exceeded",
            DropReason::NatPortExhaustion => "nat port exhaustion",
            DropReason::NfPostroutingDrop => "nf postrouting drop",
            DropReason::NoArpSourceAddress => "no source address for arp",
            DropReason::TransmitMissingDevice => "transmit on missing device",
            DropReason::TransmitDownDevice => "transmit on down device",
            DropReason::NoRouteOutput => "no route (output)",
            DropReason::VxlanNoRemoteVtep => "vxlan no remote vtep",
            DropReason::MalformedArp => "malformed arp",
            DropReason::ArpConsumed => "arp consumed",
            DropReason::MalformedVxlan => "malformed vxlan",
            DropReason::NotABridgePort => "not a bridge port",
            DropReason::IngressPortBlocked => "ingress port not learning/forwarding",
            DropReason::VlanFiltered => "vlan filtered",
            DropReason::IngressPortLearningOnly => "ingress port learning only",
            DropReason::Hairpin => "hairpin",
            DropReason::VppNonIpPunted => "vpp: non-ip punted",
            DropReason::VppAclDeny => "vpp acl deny",
            DropReason::L7PolicyDeny => "l7 policy deny",
        }
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a hook-entered packet fell through to the slow path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PuntReason {
    /// The dispatcher's tail-call slot holds no program.
    EmptySlot,
    /// The fast-path program ran and returned `PASS`.
    ProgramPass,
    /// The microflow verdict cache replayed a recorded `PASS`.
    CachedPass,
    /// The L7 fast path could not parse the request line and deferred
    /// the verdict to the slow-path parser.
    L7Unparseable,
}

impl PuntReason {
    /// Stable label for JSON output and panels.
    pub const fn as_str(self) -> &'static str {
        match self {
            PuntReason::EmptySlot => "empty slot",
            PuntReason::ProgramPass => "program pass",
            PuntReason::CachedPass => "cached pass",
            PuntReason::L7Unparseable => "l7 unparseable",
        }
    }
}

impl std::fmt::Display for PuntReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of the microflow verdict cache lookup for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowCacheOutcome {
    /// A live entry replayed its verdict at the flat hit price.
    Hit,
    /// No entry existed for this flow, and this run records nothing: the
    /// flow's first sighting under the current generation (a placeholder
    /// now holds its place), or a program that can never be cached.
    MissCold,
    /// The flow's second sighting: admitted, so this run is recorded and,
    /// if it passes every gate, stored for the next packet.
    MissRecording,
    /// The generation moved (config/time change) and flushed the cache.
    MissInvalidated,
    /// The packet is not cacheable (non-IPv4, fragment, bad checksum…).
    MissIneligible,
    /// The cache is off (sysctl or non-dispatcher attachment).
    MissDisabled,
}

impl FlowCacheOutcome {
    /// Stable label for JSON output and panels.
    pub const fn as_str(self) -> &'static str {
        match self {
            FlowCacheOutcome::Hit => "hit",
            FlowCacheOutcome::MissCold => "miss (cold)",
            FlowCacheOutcome::MissRecording => "miss (recording)",
            FlowCacheOutcome::MissInvalidated => "miss (invalidated)",
            FlowCacheOutcome::MissIneligible => "miss (ineligible)",
            FlowCacheOutcome::MissDisabled => "miss (disabled)",
        }
    }
}

/// One typed occurrence inside a packet's span, in datapath order.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A virtual-time charge at a named stage.
    Stage {
        /// Cost-model stage name (same key as the `CostTracker` fold).
        stage: &'static str,
        /// Nanoseconds charged at this call site.
        ns: f64,
    },
    /// The microflow verdict cache consulted for this packet.
    FlowCache {
        /// Hit, or the specific miss cause.
        outcome: FlowCacheOutcome,
    },
    /// An eBPF program ran to a verdict.
    Vm {
        /// Program name (dispatcher-resolved for tail calls).
        program: String,
        /// Which hook ran it.
        hook: &'static str,
        /// Instructions the interpreter executed.
        insns: u64,
        /// Helper calls made.
        helpers: u64,
        /// Tail calls taken.
        tail_calls: u64,
        /// Final action, lower-case (`"pass"`, `"drop"`, …).
        verdict: &'static str,
        /// Interpreter virtual time, including helpers.
        ns: f64,
    },
    /// An iptables chain evaluated the packet.
    Netfilter {
        /// Chain name (`"prerouting"`, `"input"`, …).
        chain: &'static str,
        /// `"accept"` or `"drop"`.
        verdict: &'static str,
        /// Virtual time charged while the chain ran.
        ns: f64,
    },
    /// A NAT hook looked at (and possibly rewrote) the packet.
    Nat {
        /// `"prerouting"` (DNAT) or `"postrouting"` (SNAT).
        op: &'static str,
        /// Whether addresses/ports were rewritten.
        rewritten: bool,
        /// Virtual time charged while the hook ran.
        ns: f64,
    },
    /// The packet was dropped.
    Drop {
        /// Taxonomy reason.
        reason: DropReason,
    },
    /// The packet left the fast path for the slow path.
    Punt {
        /// Taxonomy reason.
        reason: PuntReason,
    },
    /// A housekeeping pass ran (marker spans only).
    Housekeeping {
        /// Aged-out bridge FDB entries removed.
        fdb_expired: usize,
        /// Expired conntrack entries removed.
        conntrack_expired: usize,
        /// Expired neighbor entries removed.
        neigh_expired: usize,
        /// Expired NAT bindings removed.
        nat_expired: usize,
    },
}

impl TraceEvent {
    /// Stable event-kind label (the registry table in DESIGN.md).
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Stage { .. } => "stage",
            TraceEvent::FlowCache { .. } => "flowcache",
            TraceEvent::Vm { .. } => "vm",
            TraceEvent::Netfilter { .. } => "netfilter",
            TraceEvent::Nat { .. } => "nat",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Punt { .. } => "punt",
            TraceEvent::Housekeeping { .. } => "housekeeping",
        }
    }

    /// One-line rendering for the pretty-printer.
    pub fn render(&self) -> String {
        match self {
            TraceEvent::Stage { stage, ns } => format!("stage      {stage:<18} {ns:>8.1} ns"),
            TraceEvent::FlowCache { outcome } => format!("flowcache  {}", outcome.as_str()),
            TraceEvent::Vm {
                program,
                hook,
                insns,
                helpers,
                tail_calls,
                verdict,
                ns,
            } => format!(
                "vm         {program} @{hook}: {insns} insns, {helpers} helpers, \
                 {tail_calls} tail calls -> {verdict} ({ns:.1} ns)"
            ),
            TraceEvent::Netfilter { chain, verdict, ns } => {
                format!("netfilter  {chain} -> {verdict} ({ns:.1} ns)")
            }
            TraceEvent::Nat { op, rewritten, ns } => format!(
                "nat        {op}: {} ({ns:.1} ns)",
                if *rewritten { "rewritten" } else { "untouched" }
            ),
            TraceEvent::Drop { reason } => format!("drop       {reason}"),
            TraceEvent::Punt { reason } => format!("punt       {reason}"),
            TraceEvent::Housekeeping {
                fdb_expired,
                conntrack_expired,
                neigh_expired,
                nat_expired,
            } => format!(
                "housekeeping fdb={fdb_expired} ct={conntrack_expired} \
                 neigh={neigh_expired} nat={nat_expired}"
            ),
        }
    }

    fn to_json(&self) -> Value {
        match self {
            TraceEvent::Stage { stage, ns } => json!({
                "kind": "stage", "stage": (*stage), "ns": (*ns),
            }),
            TraceEvent::FlowCache { outcome } => json!({
                "kind": "flowcache", "outcome": outcome.as_str(),
            }),
            TraceEvent::Vm {
                program,
                hook,
                insns,
                helpers,
                tail_calls,
                verdict,
                ns,
            } => json!({
                "kind": "vm", "program": program.as_str(), "hook": (*hook),
                "insns": (*insns), "helpers": (*helpers),
                "tail_calls": (*tail_calls), "verdict": (*verdict), "ns": (*ns),
            }),
            TraceEvent::Netfilter { chain, verdict, ns } => json!({
                "kind": "netfilter", "chain": (*chain), "verdict": (*verdict),
                "ns": (*ns),
            }),
            TraceEvent::Nat { op, rewritten, ns } => json!({
                "kind": "nat", "op": (*op), "rewritten": (*rewritten), "ns": (*ns),
            }),
            TraceEvent::Drop { reason } => json!({
                "kind": "drop", "reason": reason.as_str(),
            }),
            TraceEvent::Punt { reason } => json!({
                "kind": "punt", "reason": reason.as_str(),
            }),
            TraceEvent::Housekeeping {
                fdb_expired,
                conntrack_expired,
                neigh_expired,
                nat_expired,
            } => json!({
                "kind": "housekeeping",
                "fdb_expired": (*fdb_expired as u64),
                "conntrack_expired": (*conntrack_expired as u64),
                "neigh_expired": (*neigh_expired as u64),
                "nat_expired": (*nat_expired as u64),
            }),
        }
    }
}

/// Which of the datapath's cost regimes the packet landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regime {
    /// Flat-price microflow cache hit with a terminal verdict.
    FlowCacheHit,
    /// An eBPF program decided the packet (drop/redirect/deliver).
    FastPath,
    /// A hook ran but the packet fell through to the slow path.
    Punt,
    /// No hook decided the packet; the stock stack handled it.
    SlowPath,
    /// Timer work, not a packet (marker spans).
    Housekeeping,
}

impl Regime {
    /// Stable label for grouping and JSON.
    pub const fn as_str(self) -> &'static str {
        match self {
            Regime::FlowCacheHit => "flowcache_hit",
            Regime::FastPath => "fastpath",
            Regime::Punt => "punt",
            Regime::SlowPath => "slowpath",
            Regime::Housekeeping => "housekeeping",
        }
    }
}

/// What finally happened to the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Left the host on a physical/overlay device.
    Transmitted,
    /// Delivered to a local endpoint (or AF_XDP socket).
    Delivered,
    /// Dropped, with the taxonomy reason.
    Dropped(DropReason),
    /// Held without a terminal effect (e.g. queued behind ARP).
    Queued,
}

impl Disposition {
    /// Short label for grouping and JSON (`"drop"` collapses reasons).
    pub const fn label(self) -> &'static str {
        match self {
            Disposition::Transmitted => "transmit",
            Disposition::Delivered => "deliver",
            Disposition::Dropped(_) => "drop",
            Disposition::Queued => "queued",
        }
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disposition::Dropped(reason) => write!(f, "drop ({reason})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The per-packet context threaded through the datapath.
///
/// The default is *disabled*: no heap allocation, no virtual-time
/// charge, and every method body behind an `enabled` branch — the
/// zero-cost-off guarantee the pool-growth and warm-batch tests pin.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    enabled: bool,
    seq: u64,
    dev: u32,
    shard: u32,
    start_ns: u64,
    events: Vec<TraceEvent>,
}

impl TraceCtx {
    /// Opens an enabled context for sampled packet `seq` arriving on
    /// `dev` at virtual time `start_ns`. The owning shard defaults to 0
    /// and is stamped by RSS steering via [`set_shard`](Self::set_shard).
    pub fn begin(seq: u64, dev: u32, start_ns: u64) -> Self {
        TraceCtx {
            enabled: true,
            seq,
            dev,
            shard: 0,
            start_ns,
            // A forwarded packet records about ten events: reserve once
            // rather than grow through four and eight.
            events: Vec::with_capacity(16),
        }
    }

    /// Whether this packet is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stamps the shard the RSS hash steered this packet to.
    #[inline]
    pub fn set_shard(&mut self, shard: u32) {
        if self.enabled {
            self.shard = shard;
        }
    }

    /// Records a virtual-time charge at `stage`. No-op when disabled.
    #[inline]
    pub fn stage(&mut self, stage: &'static str, ns: f64) {
        if self.enabled {
            self.events.push(TraceEvent::Stage { stage, ns });
        }
    }

    /// Records a typed event. The closure only runs when enabled, so
    /// event construction (e.g. a program-name `String`) costs nothing
    /// on the off path.
    #[inline]
    pub fn event(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.events.push(make());
        }
    }

    /// Closes the span: folds the packet's [`CostTracker`] into the
    /// per-stage attribution (which therefore sums to `total_ns`
    /// exactly) and derives the regime from the recorded events.
    pub fn finish(self, cost: &CostTracker, disposition: Disposition) -> TraceSpan {
        let mut stages: Vec<(&'static str, u64, f64)> = cost
            .stages()
            .map(|(name, sc)| (name, sc.count, sc.total_ns))
            .collect();
        let attributed: f64 = stages.iter().map(|(_, _, ns)| ns).sum();
        let residual = cost.total_ns() - attributed;
        if residual.abs() > 1e-9 {
            stages.push(("(untracked)", 1, residual));
        }
        let regime = Self::derive_regime(&self.events);
        TraceSpan {
            seq: self.seq,
            dev: self.dev,
            shard: self.shard,
            start_ns: self.start_ns,
            total_ns: cost.total_ns(),
            regime,
            disposition,
            stages,
            events: self.events,
        }
    }

    fn derive_regime(events: &[TraceEvent]) -> Regime {
        let mut hit = false;
        let mut vm = false;
        for e in events {
            match e {
                TraceEvent::Punt { .. } => return Regime::Punt,
                TraceEvent::FlowCache {
                    outcome: FlowCacheOutcome::Hit,
                } => hit = true,
                TraceEvent::Vm { .. } => vm = true,
                _ => {}
            }
        }
        if hit {
            Regime::FlowCacheHit
        } else if vm {
            Regime::FastPath
        } else {
            Regime::SlowPath
        }
    }
}

/// One finished packet span.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Monotone sample sequence number (packet index among sampled).
    pub seq: u64,
    /// Ingress device index.
    pub dev: u32,
    /// The RSS shard that owned this packet (0 when sharding is off).
    pub shard: u32,
    /// Virtual time when the packet entered the datapath.
    pub start_ns: u64,
    /// Total virtual-time service cost charged to this packet.
    pub total_ns: f64,
    /// Which cost regime decided the packet.
    pub regime: Regime,
    /// What finally happened to it.
    pub disposition: Disposition,
    /// Per-stage fold of the packet's cost tracker: `(stage, count,
    /// ns)`. Sums to `total_ns` by construction.
    pub stages: Vec<(&'static str, u64, f64)>,
    /// Chronological typed events.
    pub events: Vec<TraceEvent>,
}

impl TraceSpan {
    /// A marker span for a housekeeping pass (no packet, no cost).
    pub fn housekeeping(
        start_ns: u64,
        fdb_expired: usize,
        conntrack_expired: usize,
        neigh_expired: usize,
        nat_expired: usize,
    ) -> Self {
        TraceSpan {
            seq: 0,
            dev: 0,
            shard: 0,
            start_ns,
            total_ns: 0.0,
            regime: Regime::Housekeeping,
            disposition: Disposition::Queued,
            stages: Vec::new(),
            events: vec![TraceEvent::Housekeeping {
                fdb_expired,
                conntrack_expired,
                neigh_expired,
                nat_expired,
            }],
        }
    }

    /// Sum of the per-stage attribution; equals [`total_ns`] up to
    /// float rounding — the conservation law `tests/observability.rs`
    /// asserts per subsystem.
    ///
    /// [`total_ns`]: TraceSpan::total_ns
    pub fn attributed_ns(&self) -> f64 {
        self.stages.iter().map(|(_, _, ns)| ns).sum()
    }

    /// Multi-line pretty-print of one span, for `linuxfp_trace`.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "packet #{} dev={} shard={} t={}ns  [{}] -> {}  total {:.1} ns",
            self.seq,
            self.dev,
            self.shard,
            self.start_ns,
            self.regime.as_str(),
            self.disposition,
            self.total_ns
        );
        for e in &self.events {
            let _ = writeln!(s, "  {}", e.render());
        }
        if !self.stages.is_empty() {
            let _ = writeln!(s, "  cost by stage:");
            for (stage, count, ns) in &self.stages {
                let _ = writeln!(s, "    {stage:<20} x{count:<3} {ns:>8.1} ns");
            }
            let _ = writeln!(
                s,
                "    {:<20} {:>12.1} ns (= total)",
                "sum",
                self.attributed_ns()
            );
        }
        s
    }

    /// JSON form of the span (the `linuxfp_trace --json` schema and
    /// the difftest repro `trace` field).
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|(stage, count, ns)| json!({ "stage": (*stage), "count": (*count), "ns": (*ns) }))
            .collect();
        let events: Vec<Value> = self.events.iter().map(TraceEvent::to_json).collect();
        let mut span = json!({
            "seq": self.seq,
            "dev": (self.dev as u64),
            "shard": (self.shard as u64),
            "start_ns": self.start_ns,
            "total_ns": self.total_ns,
            "regime": self.regime.as_str(),
            "disposition": self.disposition.label(),
            "stages": stages,
            "events": events,
        });
        if let (Disposition::Dropped(reason), Value::Object(obj)) = (self.disposition, &mut span) {
            obj.insert("drop_reason".to_string(), Value::from(reason.as_str()));
        }
        span
    }
}

/// Fixed-capacity ring of finished spans: push evicts the oldest, the
/// total-pushed count keeps climbing.
#[derive(Clone, Debug)]
pub struct TraceRing {
    inner: Arc<Mutex<TraceRingInner>>,
}

#[derive(Debug)]
struct TraceRingInner {
    capacity: usize,
    total: u64,
    spans: VecDeque<TraceSpan>,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            inner: Arc::new(Mutex::new(TraceRingInner {
                capacity: capacity.max(1),
                total: 0,
                spans: VecDeque::new(),
            })),
        }
    }

    /// Appends a span, evicting the oldest when full.
    pub fn push(&self, span: TraceSpan) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() == inner.capacity {
            inner.spans.pop_front();
        }
        inner.spans.push_back(span);
        inner.total += 1;
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<TraceSpan> {
        self.inner.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans ever pushed, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.inner.lock().unwrap().total
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// Drops all retained spans (the total-pushed count is preserved).
    pub fn clear(&self) {
        self.inner.lock().unwrap().spans.clear();
    }
}

/// 1-in-N head sampler. `every == 0` means off; `every == 1` samples
/// every packet. Packet `seq` is sampled when `seq` is a multiple of
/// `every`.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    every: u64,
    seen: u64,
    /// The next multiple of `every` to sample: offering a packet is a
    /// compare, not a division.
    next: u64,
}

impl Sampler {
    /// Creates a sampler taking one packet in `every`.
    pub fn new(every: u64) -> Self {
        Sampler {
            every,
            seen: 0,
            next: 0,
        }
    }

    /// Changes the sampling period (0 = off) without resetting `seen`.
    pub fn set_every(&mut self, every: u64) {
        self.every = every;
        if every > 0 {
            self.next = self.seen.div_ceil(every) * every;
        }
    }

    /// The current sampling period.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Offers one packet; returns its sequence number if sampled.
    #[inline]
    pub fn sample(&mut self) -> Option<u64> {
        if self.every == 0 {
            return None;
        }
        let seq = self.seen;
        self.seen = seq.wrapping_add(1);
        if seq != self.next {
            return None;
        }
        self.next = seq.wrapping_add(self.every);
        Some(seq)
    }
}

/// The kernel-side recorder: a sampler deciding which packets get a
/// span and the ring the finished spans land in.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: TraceRing,
    sampler: Sampler,
}

impl FlightRecorder {
    /// Creates a recorder keeping `capacity` spans at 1-in-`every`
    /// sampling.
    pub fn new(capacity: usize, every: u64) -> Self {
        FlightRecorder {
            ring: TraceRing::with_capacity(capacity),
            sampler: Sampler::new(every),
        }
    }

    /// A shared handle to the span ring.
    pub fn ring(&self) -> TraceRing {
        self.ring.clone()
    }

    /// Updates the sampling period (0 = off).
    pub fn set_every(&mut self, every: u64) {
        self.sampler.set_every(every);
    }

    /// The current sampling period.
    pub fn every(&self) -> u64 {
        self.sampler.every()
    }

    /// Offers one packet; returns an enabled [`TraceCtx`] if sampled.
    #[inline]
    pub fn sample(&mut self, dev: u32, start_ns: u64) -> Option<TraceCtx> {
        self.sampler
            .sample()
            .map(|seq| TraceCtx::begin(seq, dev, start_ns))
    }

    /// Records a finished span.
    pub fn record(&self, span: TraceSpan) {
        self.ring.push(span);
    }
}

/// Aggregates sampled spans into a per-stage cost table grouped by
/// regime × disposition, with p50/p99 from the log2 histograms.
#[derive(Debug, Default)]
pub struct CostBreakdown {
    groups: BTreeMap<(Regime, &'static str), GroupStats>,
}

#[derive(Debug)]
struct GroupStats {
    packets: u64,
    total_ns: f64,
    hist: Histogram,
    stages: BTreeMap<&'static str, (u64, f64)>,
}

impl CostBreakdown {
    /// Folds `spans` into the breakdown. Housekeeping marker spans are
    /// skipped — they carry no packet cost.
    pub fn from_spans(spans: &[TraceSpan]) -> Self {
        let mut groups: BTreeMap<(Regime, &'static str), GroupStats> = BTreeMap::new();
        for span in spans {
            if span.regime == Regime::Housekeeping {
                continue;
            }
            let g = groups
                .entry((span.regime, span.disposition.label()))
                .or_insert_with(|| GroupStats {
                    packets: 0,
                    total_ns: 0.0,
                    hist: Histogram::new(),
                    stages: BTreeMap::new(),
                });
            g.packets += 1;
            g.total_ns += span.total_ns;
            g.hist.record(span.total_ns.round() as u64);
            for (stage, count, ns) in &span.stages {
                let e = g.stages.entry(stage).or_insert((0, 0.0));
                e.0 += count;
                e.1 += ns;
            }
        }
        CostBreakdown { groups }
    }

    /// Whether any packet span was folded in.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total packets folded across all groups.
    pub fn packets(&self) -> u64 {
        self.groups.values().map(|g| g.packets).sum()
    }

    /// One summary row per regime × disposition group:
    /// `(regime, disposition, packets, ns_per_pkt, p50, p99)`.
    pub fn rows(&self) -> Vec<(Regime, &'static str, u64, f64, f64, f64)> {
        self.groups
            .iter()
            .map(|(&(regime, disp), g)| {
                (
                    regime,
                    disp,
                    g.packets,
                    g.total_ns / g.packets as f64,
                    g.hist.quantile(50.0),
                    g.hist.quantile(99.0),
                )
            })
            .collect()
    }

    /// The `k` costliest stages of one regime × disposition group as
    /// `(stage, ns_per_pkt)`, costliest first. Empty if the group has
    /// no sampled packets.
    pub fn top_stages(
        &self,
        regime: Regime,
        disposition: &'static str,
        k: usize,
    ) -> Vec<(&'static str, f64)> {
        let Some(g) = self.groups.get(&(regime, disposition)) else {
            return Vec::new();
        };
        let mut stages: Vec<(&'static str, f64)> = g
            .stages
            .iter()
            .map(|(&stage, &(_, ns))| (stage, ns / g.packets as f64))
            .collect();
        stages.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(b.0)));
        stages.truncate(k);
        stages
    }

    /// The breakdown table as aligned text.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        if self.is_empty() {
            let _ = writeln!(s, "(no sampled spans)");
            return s;
        }
        let _ = writeln!(
            s,
            "{:<26} {:>7} {:>10} {:>9} {:>9}",
            "regime/disposition", "pkts", "ns/pkt", "p50", "p99"
        );
        for (regime, disp, pkts, per_pkt, p50, p99) in self.rows() {
            let group = format!("{}/{}", regime.as_str(), disp);
            let _ = writeln!(
                s,
                "{group:<26} {pkts:>7} {per_pkt:>10.1} {p50:>9.0} {p99:>9.0}"
            );
            let g = &self.groups[&(regime, disp)];
            let mut stages: Vec<_> = g.stages.iter().collect();
            stages.sort_by(|a, b| b.1 .1.partial_cmp(&a.1 .1).unwrap());
            for (stage, (count, ns)) in stages {
                let _ = writeln!(
                    s,
                    "  {:<24} {:>7} {:>10.1}",
                    stage,
                    count,
                    ns / g.packets as f64
                );
            }
        }
        s
    }

    /// The breakdown as JSON (`linuxfp_trace --json` and experiment
    /// artifacts).
    pub fn to_json(&self) -> Value {
        let groups: Vec<Value> = self
            .groups
            .iter()
            .map(|(&(regime, disp), g)| {
                let stages: Vec<Value> = g
                    .stages
                    .iter()
                    .map(|(stage, (count, ns))| {
                        json!({
                            "stage": (*stage),
                            "count": (*count),
                            "ns_per_pkt": (ns / g.packets as f64),
                        })
                    })
                    .collect();
                json!({
                    "regime": regime.as_str(),
                    "disposition": disp,
                    "packets": g.packets,
                    "ns_per_pkt": (g.total_ns / g.packets as f64),
                    "p50_ns": g.hist.quantile(50.0),
                    "p99_ns": g.hist.quantile(99.0),
                    "stages": stages,
                })
            })
            .collect();
        json!({ "packets": self.packets(), "groups": groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_with(total: f64, regime_events: Vec<TraceEvent>) -> TraceSpan {
        let mut cost = CostTracker::new();
        cost.charge("a", total / 2.0);
        cost.charge("b", total / 2.0);
        let mut ctx = TraceCtx::begin(0, 1, 0);
        for e in regime_events {
            ctx.event(|| e.clone());
        }
        ctx.finish(&cost, Disposition::Transmitted)
    }

    #[test]
    fn drop_reason_strings_are_the_legacy_labels() {
        assert_eq!(DropReason::XdpDrop.as_str(), "xdp drop");
        assert_eq!(DropReason::NoRouteOutput.as_str(), "no route (output)");
        assert_eq!(
            DropReason::IngressPortBlocked.as_str(),
            "ingress port not learning/forwarding"
        );
        // Labels are unique: the taxonomy is a bijection onto the
        // historical strings.
        let mut seen = std::collections::HashSet::new();
        for r in DropReason::ALL {
            assert!(seen.insert(r.as_str()), "duplicate label {:?}", r);
        }
        assert_eq!(seen.len(), DropReason::ALL.len());
    }

    #[test]
    fn disabled_ctx_is_inert_and_allocation_free() {
        let mut ctx = TraceCtx::default();
        assert!(!ctx.enabled());
        ctx.stage("driver_rx", 124.0);
        ctx.event(|| panic!("event closure must not run when disabled"));
        assert_eq!(ctx.events.capacity(), 0, "no heap allocation when off");
    }

    #[test]
    fn finish_folds_tracker_and_conserves_total() {
        let mut cost = CostTracker::new();
        cost.charge("driver_rx", 124.0);
        cost.charge("fib_lookup", 175.0);
        cost.charge("fib_lookup", 175.0);
        let ctx = TraceCtx::begin(7, 2, 1000);
        let span = ctx.finish(&cost, Disposition::Transmitted);
        assert_eq!(span.seq, 7);
        assert_eq!(span.total_ns, 474.0);
        assert!((span.attributed_ns() - span.total_ns).abs() < 1e-9);
        let fib = span
            .stages
            .iter()
            .find(|(s, _, _)| *s == "fib_lookup")
            .unwrap();
        assert_eq!(fib.1, 2);
        assert_eq!(fib.2, 350.0);
    }

    #[test]
    fn untracked_residual_is_attributed_explicitly() {
        let mut cost = CostTracker::new();
        cost.charge("driver_rx", 100.0);
        cost.charge_untracked(50.0);
        let span = TraceCtx::begin(0, 1, 0).finish(&cost, Disposition::Transmitted);
        assert!((span.attributed_ns() - span.total_ns).abs() < 1e-9);
        assert!(span.stages.iter().any(|(s, _, _)| *s == "(untracked)"));
    }

    #[test]
    fn regime_derivation_orders_punt_over_hit_over_vm() {
        let hit = TraceEvent::FlowCache {
            outcome: FlowCacheOutcome::Hit,
        };
        let vm = TraceEvent::Vm {
            program: "p".into(),
            hook: "xdp",
            insns: 10,
            helpers: 1,
            tail_calls: 0,
            verdict: "drop",
            ns: 100.0,
        };
        let punt = TraceEvent::Punt {
            reason: PuntReason::ProgramPass,
        };
        assert_eq!(
            span_with(100.0, vec![hit.clone()]).regime,
            Regime::FlowCacheHit
        );
        assert_eq!(span_with(100.0, vec![vm.clone()]).regime, Regime::FastPath);
        assert_eq!(
            span_with(100.0, vec![hit, punt.clone()]).regime,
            Regime::Punt
        );
        assert_eq!(span_with(100.0, vec![vm, punt]).regime, Regime::Punt);
        assert_eq!(span_with(100.0, vec![]).regime, Regime::SlowPath);
    }

    #[test]
    fn trace_ring_wraps_without_panic_and_keeps_counts_stable() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..10u64 {
            let mut cost = CostTracker::new();
            cost.charge("x", i as f64);
            let span = TraceCtx::begin(i, 1, 0).finish(&cost, Disposition::Queued);
            ring.push(span);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.total_pushed(), 10);
        let seqs: Vec<u64> = ring.recent().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest spans evicted first");
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.total_pushed(), 10, "clear keeps the total");
    }

    #[test]
    fn sampler_take_one_in_n_and_zero_means_off() {
        let mut off = Sampler::new(0);
        assert!((0..100).all(|_| off.sample().is_none()));

        let mut s = Sampler::new(4);
        let sampled: Vec<Option<u64>> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(
            sampled,
            vec![Some(0), None, None, None, Some(4), None, None, None]
        );

        let mut every = Sampler::new(1);
        assert_eq!(every.sample(), Some(0));
        assert_eq!(every.sample(), Some(1));
    }

    #[test]
    fn sampler_samples_the_multiples_of_every_across_period_changes() {
        // The oracle: count the packets offered while on, and sample the
        // multiples of the current period.
        let mut s = Sampler::new(3);
        let (mut every, mut seen) = (3u64, 0u64);
        for i in 0..2000u64 {
            if i % 97 == 0 {
                every = [0, 1, 3, 7, 64][(i / 97 % 5) as usize];
                s.set_every(every);
            }
            let want = match every {
                0 => None,
                _ => {
                    seen += 1;
                    (seen - 1).is_multiple_of(every).then_some(seen - 1)
                }
            };
            assert_eq!(s.sample(), want, "packet {i}, every {every}");
        }
    }

    #[test]
    fn breakdown_groups_by_regime_and_disposition() {
        let mut spans = Vec::new();
        for i in 0..10u64 {
            let mut cost = CostTracker::new();
            cost.charge("flowcache_hit", 85.0);
            spans.push(TraceCtx::begin(i, 1, 0).finish(&cost, Disposition::Transmitted));
        }
        let mut cost = CostTracker::new();
        cost.charge("driver_rx", 124.0);
        cost.charge("fib_lookup", 175.0);
        let mut ctx = TraceCtx::begin(10, 1, 0);
        ctx.event(|| TraceEvent::Drop {
            reason: DropReason::NoRoute,
        });
        spans.push(ctx.finish(&cost, Disposition::Dropped(DropReason::NoRoute)));
        spans.push(TraceSpan::housekeeping(0, 1, 2, 3, 4));

        let b = CostBreakdown::from_spans(&spans);
        assert_eq!(b.packets(), 11, "housekeeping markers are not packets");
        let rows = b.rows();
        assert_eq!(rows.len(), 2);
        let slow_tx = rows
            .iter()
            .find(|r| r.0 == Regime::SlowPath && r.1 == "transmit")
            .unwrap();
        assert_eq!(slow_tx.2, 10);
        assert!((slow_tx.3 - 85.0).abs() < 1e-9);
        let dropped = rows
            .iter()
            .find(|r| r.0 == Regime::SlowPath && r.1 == "drop")
            .unwrap();
        assert_eq!(dropped.2, 1);
        assert!((dropped.3 - 299.0).abs() < 1e-9);
        let text = b.render_text();
        assert!(text.contains("slowpath/transmit"));
        assert!(text.contains("slowpath/drop"));
    }

    #[test]
    fn span_json_shape() {
        let mut cost = CostTracker::new();
        cost.charge("driver_rx", 124.0);
        let mut ctx = TraceCtx::begin(3, 2, 500);
        ctx.event(|| TraceEvent::Drop {
            reason: DropReason::TtlExceeded,
        });
        let span = ctx.finish(&cost, Disposition::Dropped(DropReason::TtlExceeded));
        let v = span.to_json();
        assert_eq!(v.get("seq").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("regime").and_then(Value::as_str), Some("slowpath"));
        assert_eq!(v.get("disposition").and_then(Value::as_str), Some("drop"));
        assert_eq!(
            v.get("drop_reason").and_then(Value::as_str),
            Some("ttl exceeded")
        );
        let events = v.get("events").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        // The JSON round-trips through the crate's own parser (the
        // `linuxfp_trace --json` CI gate relies on this).
        let text = v.to_string();
        let parsed = linuxfp_json::from_str(&text).expect("span JSON parses");
        assert_eq!(parsed.get("total_ns").and_then(Value::as_f64), Some(124.0));
    }
}
