//! The simulated kernel: devices, configuration surface, netlink
//! publication, and the slow-path packet pipeline with hook points.
//!
//! [`Kernel::receive`] models what happens between a frame arriving at a
//! NIC and leaving the host: driver receive → **XDP hook** → `sk_buff`
//! allocation → **TC ingress hook** → bridge / ARP / IPv4 processing with
//! netfilter, routing, neighbor resolution — every stage charging its
//! calibrated cost. The XDP and TC slots are where `linuxfp-ebpf`
//! programs (and therefore LinuxFP fast paths) attach; a verdict of
//! `Pass` falls through to the very same slow path, which is what makes
//! the acceleration transparent.

use crate::bridge::{Bridge, BridgeDecision};
use crate::conntrack::{Conntrack, NatTuple};
use crate::device::{DeviceKind, IfIndex, NetDevice};
use crate::error::NetError;
use crate::fib::{Fib, Route, RouteScope};
use crate::l7::{L7ConnKey, L7LookupOutcome, L7Policy, L7};
use crate::nat::{Nat, NatChain, NatCtx, NatLookupOutcome, NatRule, PostOutcome};
use crate::neigh::NeighTable;
use crate::netfilter::{ChainHook, IptRule, Netfilter, NfVerdict, PacketMeta};
use crate::netlink::{LinkInfo, NetlinkBus, NetlinkMessage, NlGroup, RouteInfo, SubscriberId};
use linuxfp_packet::arp::{ArpOp, ArpPacket};
use linuxfp_packet::builder;
use linuxfp_packet::icmp::{IcmpHeader, IcmpType};
use linuxfp_packet::ipv4::{IpProto, Ipv4Header, Prefix};
use linuxfp_packet::tcp::TcpHeader;
use linuxfp_packet::udp::UdpHeader;
use linuxfp_packet::{Batch, EtherType, EthernetFrame, MacAddr, Packet, PacketBuf, WordMap};
use linuxfp_sim::{CostModel, CostTracker, Nanos, Stage};
use linuxfp_telemetry::trace::{
    Disposition, FlightRecorder, TraceCtx, TraceEvent, TraceRing, TraceSpan,
};
use linuxfp_telemetry::{Counter, Histogram, Registry, Scale};

pub use effects::Effects;
pub use linuxfp_telemetry::trace::{DropReason, PuntReason};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// The destination MAC of 802.1D BPDUs.
pub const BPDU_MAC: MacAddr = MacAddr::new([0x01, 0x80, 0xC2, 0x00, 0x00, 0x00]);

/// An interface address that preserves the exact host part (unlike
/// [`Prefix`], which masks it).
///
/// # Example
///
/// ```
/// use linuxfp_netstack::stack::IfAddr;
///
/// let a: IfAddr = "10.0.1.1/24".parse().unwrap();
/// assert_eq!(a.addr.octets()[3], 1);
/// assert_eq!(a.prefix_len, 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfAddr {
    /// The exact address.
    pub addr: Ipv4Addr,
    /// The prefix length of the connected subnet.
    pub prefix_len: u8,
}

impl IfAddr {
    /// Creates an interface address.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        IfAddr { addr, prefix_len }
    }

    /// The connected subnet this address implies.
    pub fn subnet(&self) -> Prefix {
        Prefix::new(self.addr, self.prefix_len)
    }
}

impl FromStr for IfAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| NetError::Invalid(format!("address needs /len: {s}")))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| NetError::Invalid(format!("bad address: {s}")))?;
        let len: u8 = len
            .parse()
            .map_err(|_| NetError::Invalid(format!("bad prefix length: {s}")))?;
        if len > 32 {
            return Err(NetError::Invalid(format!("prefix length > 32: {s}")));
        }
        Ok(IfAddr::new(addr, len))
    }
}

/// Verdict returned by an attached hook program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookVerdict {
    /// Continue into the rest of the stack (`XDP_PASS` / `TC_ACT_OK`).
    Pass,
    /// Discard the packet (`XDP_DROP` / `TC_ACT_SHOT`).
    Drop,
    /// Forward out another interface (`XDP_REDIRECT` / `bpf_redirect`).
    Redirect(IfIndex),
    /// The frame was consumed into a user-space AF_XDP socket
    /// (`XDP_REDIRECT` into an XSKMAP).
    DeliverUser,
}

/// The signature of an attached hook program. The program receives the
/// kernel itself so that helper calls can read and update kernel state —
/// the unified-state design of the paper — plus the packet's trace
/// context so sampled packets carry hook-level events (flow-cache
/// outcome, VM verdict, punt reason).
pub type HookFn = Arc<
    dyn Fn(&mut Kernel, &mut Packet, &mut CostTracker, &mut TraceCtx) -> HookVerdict + Send + Sync,
>;

/// Externally visible result of processing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// The frame left the host through a physical NIC.
    Transmit {
        /// Egress device.
        dev: IfIndex,
        /// The frame as transmitted. Pool-backed when the packet came
        /// from a pooled injection: dropping the outcome recycles it.
        frame: PacketBuf,
    },
    /// The frame was delivered to the local socket layer.
    Deliver {
        /// Device the packet was addressed through.
        dev: IfIndex,
        /// The delivered frame.
        frame: PacketBuf,
    },
    /// The frame was dropped.
    Drop {
        /// Why, from the unified taxonomy.
        reason: DropReason,
    },
}

/// Result of [`Kernel::receive`]: observable effects plus the virtual time
/// charged, broken down by stage.
#[derive(Debug, Clone, Default)]
pub struct RxOutcome {
    /// What happened to the packet (and any packets it triggered, e.g.
    /// ARP requests or flooded copies).
    pub effects: Effects,
    /// Cost of all processing performed.
    pub cost: CostTracker,
    /// Flight-recorder context: enabled only when this packet was
    /// sampled, in which case the finished span lands in the kernel's
    /// trace ring. Disabled (the default) it allocates nothing and
    /// charges nothing.
    pub trace: TraceCtx,
}

impl RxOutcome {
    /// Charges virtual time at `stage` and mirrors it into the trace
    /// context (a no-op unless this packet is sampled). All datapath
    /// stage charges route through here so span stage events stay in
    /// sync with the cost tracker.
    #[inline]
    pub(crate) fn charge(&mut self, stage: Stage, ns: f64) {
        self.cost.charge(stage, ns);
        self.trace.stage(stage.name(), ns);
    }

    /// Frames transmitted out physical NICs, as `(dev, frame)` pairs.
    pub fn transmissions(&self) -> Vec<(IfIndex, &[u8])> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Transmit { dev, frame } => Some((*dev, frame.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// Frames delivered locally.
    pub fn deliveries(&self) -> Vec<(IfIndex, &[u8])> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Deliver { dev, frame } => Some((*dev, frame.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// Drop reasons recorded, as their stable string labels.
    pub fn drops(&self) -> Vec<&'static str> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Drop { reason } => Some(reason.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Drop reasons recorded, as taxonomy values.
    pub fn drop_reasons(&self) -> Vec<DropReason> {
        self.effects
            .iter()
            .filter_map(|e| match e {
                Effect::Drop { reason } => Some(*reason),
                _ => None,
            })
            .collect()
    }
}

/// Per-device traffic counters (the `ip -s link` surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevCounters {
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// What one housekeeping pass collected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HousekeepingReport {
    /// Aged-out bridge FDB entries removed.
    pub fdb_expired: usize,
    /// Expired conntrack entries removed.
    pub conntrack_expired: usize,
    /// Expired neighbor entries removed.
    pub neigh_expired: usize,
    /// Expired NAT binding entries removed (per direction).
    pub nat_expired: usize,
}

/// Outcome of the `bpf_fdb_lookup` helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdbLookupOutcome {
    /// Destination known: forward out this port.
    Hit(IfIndex),
    /// The source is not (or no longer) in the FDB, or the ingress port
    /// is not forwarding: the packet must take the slow path, which
    /// learns / applies STP (paper Table I: FDB management is slow-path
    /// work).
    SrcUnknown,
    /// Source known (and refreshed); the destination missed — flooding
    /// is slow-path work, but L3-destined frames may continue.
    DstMiss,
}

/// Result of the combined FIB + neighbor lookup exposed to fast paths as
/// `bpf_fib_lookup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibFastResult {
    /// Egress interface.
    pub ifindex: IfIndex,
    /// Source MAC to write (the egress interface's address).
    pub src_mac: MacAddr,
    /// Destination MAC to write (the next hop's address).
    pub dst_mac: MacAddr,
}

/// The shared kernel structures a shard can touch. Everything here stays
/// in the `Kernel` (single source of truth — the paper's unified-state
/// design); what scales per shard is the *caches* in front of them.
/// When a shard reads one of these after another writer advanced its
/// generation, the access models pulling the written cache lines across
/// cores and is charged [`linuxfp_sim::CostModel::coherence_miss_ns`]
/// under the `coherence` stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherentStruct {
    /// The routing table.
    Fib,
    /// The neighbor (ARP) table.
    Neigh,
    /// The conntrack table (including NAT binding state it carries).
    Conntrack,
    /// The netfilter rule tables and ipsets.
    Netfilter,
    /// The iptables `nat` table and port allocator.
    Nat,
    /// The L7 policy table and connection-verdict pins.
    L7,
    /// The ipvs service/backend tables.
    Ipvs,
    /// Bridge forwarding databases (all bridges, collectively).
    Fdb,
}

impl CoherentStruct {
    /// Every shared structure, for whole-state scans.
    pub const ALL: [CoherentStruct; 8] = [
        CoherentStruct::Fib,
        CoherentStruct::Neigh,
        CoherentStruct::Conntrack,
        CoherentStruct::Netfilter,
        CoherentStruct::Nat,
        CoherentStruct::L7,
        CoherentStruct::Ipvs,
        CoherentStruct::Fdb,
    ];

    /// Stable label used by `linuxfp_coherence_events_total{structure}`.
    pub const fn as_str(self) -> &'static str {
        match self {
            CoherentStruct::Fib => "fib",
            CoherentStruct::Neigh => "neigh",
            CoherentStruct::Conntrack => "conntrack",
            CoherentStruct::Netfilter => "netfilter",
            CoherentStruct::Nat => "nat",
            CoherentStruct::L7 => "l7",
            CoherentStruct::Ipvs => "ipvs",
            CoherentStruct::Fdb => "fdb",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Per-shard view of the shared structures: the generation each one had
/// when this shard last touched it.
type ShardView = [u64; CoherentStruct::ALL.len()];

/// The simulated kernel.
/// Cached counter handles for the kernel's slow-path telemetry: resolved
/// once in [`Kernel::set_telemetry`] so the per-packet cost is a relaxed
/// atomic increment. Counters are real host atomics and charge no
/// virtual time — observability must not perturb the calibrated costs.
#[derive(Debug, Clone)]
struct StackTelemetry {
    registry: Registry,
    packets_injected: Counter,
    slow_bridge: Counter,
    slow_ip: Counter,
    slow_arp: Counter,
    slow_local: Counter,
    slow_netfilter: Counter,
    slow_ipvs: Counter,
    slow_nat: Counter,
    slow_l7: Counter,
    batch_size: Histogram,
    /// `linuxfp_shard_packets_total{shard}` by shard, each resolved on its
    /// shard's first packet, so an unsharded run never creates one.
    shard_packets: [OnceLock<Counter>; rss::MAX_RSS_SHARDS as usize],
    /// `linuxfp_coherence_events_total{structure}` by
    /// [`CoherentStruct::index`], each resolved on its first event.
    coherence_events: [OnceLock<Counter>; CoherentStruct::ALL.len()],
    /// `linuxfp_drops_total{reason}` by reason, each resolved on its
    /// reason's first drop.
    drops: [OnceLock<Counter>; DropReason::ALL.len()],
    /// `linuxfp_shard_drops_total{reason,shard}` by reason, then shard,
    /// each resolved on its first drop.
    shard_drops: [[OnceLock<Counter>; rss::MAX_RSS_SHARDS as usize]; DropReason::ALL.len()],
}

impl StackTelemetry {
    fn new(registry: Registry) -> Self {
        registry.describe(
            "linuxfp_packets_injected_total",
            "Frames injected into the kernel from outside (one per Kernel::receive)",
        );
        registry.describe(
            "linuxfp_slowpath_packets_total",
            "Slow-path packet visits per kernel subsystem",
        );
        registry.describe("linuxfp_drops_total", "Packets dropped, by reason");
        registry.describe(
            "linuxfp_subsystem_ops_total",
            "Subsystem operations (fast-path helpers and slow path alike)",
        );
        registry.describe(
            "linuxfp_nat_translations_total",
            "Forward-direction packets translated by a NAT binding (both paths)",
        );
        registry.describe(
            "linuxfp_nat_reply_hits_total",
            "Reply-direction packets un-translated by a NAT binding (both paths)",
        );
        registry.describe(
            "linuxfp_nat_port_exhaustion_total",
            "Fresh masquerade flows dropped because the port range was exhausted",
        );
        registry.describe(
            "linuxfp_conntrack_evictions_total",
            "Conntrack entries evicted because the table was at capacity",
        );
        registry.describe(
            "linuxfp_nat_evictions_total",
            "NAT binding pairs evicted because the binding table was at capacity",
        );
        registry.describe(
            "linuxfp_l7_parsed_requests_total",
            "HTTP/1.x request lines parsed to a policy verdict (both paths)",
        );
        registry.describe(
            "linuxfp_l7_unparseable_total",
            "Segments that failed the bounded request-line parse (both paths)",
        );
        registry.describe(
            "linuxfp_l7_denies_total",
            "L7 policy deny verdicts returned (both paths)",
        );
        registry.describe(
            "linuxfp_batch_size",
            "Frames per injected burst (1 for single-packet Kernel::receive)",
        );
        registry.describe(
            "linuxfp_shard_packets_total",
            "Frames steered to each RSS shard (incremented only when rss_shards > 1)",
        );
        registry.describe(
            "linuxfp_coherence_events_total",
            "Coherence misses: a shard touched shared state another writer changed",
        );
        registry.describe(
            "linuxfp_shard_drops_total",
            "Drops by reason and owning RSS shard (only emitted when rss_shards > 1)",
        );
        let slow = |subsystem: &str| {
            registry.counter(
                "linuxfp_slowpath_packets_total",
                &[("subsystem", subsystem)],
            )
        };
        StackTelemetry {
            packets_injected: registry.counter("linuxfp_packets_injected_total", &[]),
            slow_bridge: slow("bridge"),
            slow_ip: slow("ip"),
            slow_arp: slow("arp"),
            slow_local: slow("local"),
            slow_netfilter: slow("netfilter"),
            slow_ipvs: slow("ipvs"),
            slow_nat: slow("nat"),
            slow_l7: slow("l7"),
            batch_size: registry.histogram("linuxfp_batch_size", &[], Scale::Identity),
            shard_packets: Default::default(),
            coherence_events: Default::default(),
            drops: std::array::from_fn(|_| OnceLock::new()),
            shard_drops: std::array::from_fn(|_| Default::default()),
            registry,
        }
    }

    fn shard_packets(&self, shard: usize) -> &Counter {
        self.shard_packets[shard].get_or_init(|| {
            self.registry.counter(
                "linuxfp_shard_packets_total",
                &[("shard", rss::SHARD_LABELS[shard])],
            )
        })
    }

    fn drops(&self, reason: DropReason) -> &Counter {
        self.drops[reason as usize].get_or_init(|| {
            self.registry
                .counter("linuxfp_drops_total", &[("reason", reason.as_str())])
        })
    }

    fn shard_drops(&self, reason: DropReason, shard: usize) -> &Counter {
        self.shard_drops[reason as usize][shard].get_or_init(|| {
            self.registry.counter(
                "linuxfp_shard_drops_total",
                &[
                    ("reason", reason.as_str()),
                    ("shard", rss::SHARD_LABELS[shard]),
                ],
            )
        })
    }

    fn coherence_events(&self, s: CoherentStruct) -> &Counter {
        self.coherence_events[s.index()].get_or_init(|| {
            self.registry.counter(
                "linuxfp_coherence_events_total",
                &[("structure", s.as_str())],
            )
        })
    }
}

pub struct Kernel {
    cost: Arc<CostModel>,
    now: Nanos,
    devices: BTreeMap<IfIndex, NetDevice>,
    names: HashMap<String, IfIndex>,
    next_ifindex: u32,
    /// The routing table (public: it *is* the shared state).
    pub fib: Fib,
    /// The neighbor table.
    pub neigh: NeighTable,
    bridges: BTreeMap<IfIndex, Bridge>,
    /// The netfilter subsystem.
    pub netfilter: Netfilter,
    /// The conntrack table.
    pub conntrack: Conntrack,
    /// The ipvs load-balancing subsystem.
    pub ipvs: crate::ipvs::Ipvs,
    /// The iptables `nat` table.
    pub nat: Nat,
    /// The L7 request-policy table and connection-verdict pins.
    pub l7: L7,
    /// Last coarse-interval conntrack/NAT GC run from the packet path.
    last_ct_gc: Nanos,
    /// Whether forwarded traffic is connection-tracked (Kubernetes-style
    /// hosts enable this; plain routers usually do not).
    pub conntrack_forward: bool,
    sysctls: BTreeMap<String, i64>,
    netlink: NetlinkBus,
    xdp_hooks: WordMap<IfIndex, HookFn>,
    tc_hooks: WordMap<IfIndex, HookFn>,
    pending_arp: WordMap<Ipv4Addr, Vec<(IfIndex, PacketBuf)>>,
    vxlan_fdb: WordMap<IfIndex, WordMap<MacAddr, Ipv4Addr>>,
    vxlan_defaults: WordMap<IfIndex, Vec<Ipv4Addr>>,
    /// Per-reason drop counters.
    pub drop_counts: WordMap<&'static str, u64>,
    counters: WordMap<IfIndex, DevCounters>,
    /// BPDUs consumed by STP processing.
    pub bpdus_processed: u64,
    telemetry: Option<StackTelemetry>,
    /// The per-packet flight recorder (sampler + span ring). `None`
    /// until [`Kernel::enable_flight_recorder`] — the datapath checks a
    /// single `Option` per burst, so recording off costs nothing.
    pub(crate) recorder: Option<FlightRecorder>,
    /// Bumped whenever virtual time advances; folded into
    /// [`Kernel::state_generation`] so anything derived from
    /// time-dependent lookups (lazy expiry in conntrack, neighbor and FDB
    /// tables) is invalidated when the clock moves.
    time_generation: u64,
    /// Cached `net.linuxfp.rss_shards` (clamped to `1..=MAX_RSS_SHARDS`);
    /// 1 disables sharding entirely and is bit-identical to the
    /// pre-sharding datapath.
    rss_shards: u32,
    /// Cached `net.linuxfp.flow_cache == 1`, read by every hooked packet.
    flow_cache: bool,
    /// The shard whose packet the (serial) simulation is currently
    /// processing — set by RSS steering, read by coherence charging.
    pub(crate) current_shard: u32,
    /// Per-shard last-seen generations of the shared structures. Empty
    /// of meaning when `rss_shards == 1` (never consulted).
    shard_last_seen: Vec<ShardView>,
    seed: u64,
}

/// Result of [`Kernel::inject_batch`]: one [`RxOutcome`] per injected
/// frame (in order) plus the per-burst fixed cost amortized across them.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Per-frame outcomes, in injection order.
    pub outcomes: Vec<RxOutcome>,
    /// Fixed per-burst work (driver receive setup, hook dispatch),
    /// charged once under the same stage names the per-packet trackers
    /// use for their remainders. With sharding active this is the merge
    /// of every shard's fixed cost — each shard with traffic runs its
    /// own NAPI poll.
    pub batch_cost: CostTracker,
    /// Number of frames injected.
    pub batch_size: usize,
    /// Virtual time each shard spent on its slice of the burst (its
    /// fixed batch cost plus its packets' costs): one entry per
    /// configured shard when `rss_shards > 1`. Empty when unsharded,
    /// where the one shard's time is [`BatchOutcome::total_ns`].
    pub shard_ns: ShardTimes,
}

/// Per-shard virtual times, held inline: up to [`rss::MAX_RSS_SHARDS`]
/// entries, so a sharded burst allocates nothing for them. Reads as a
/// slice of nanoseconds.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct ShardTimes {
    len: usize,
    ns: [f64; rss::MAX_RSS_SHARDS as usize],
}

impl ShardTimes {
    /// `shards` zero times.
    ///
    /// # Panics
    ///
    /// Panics if `shards` exceeds [`rss::MAX_RSS_SHARDS`].
    pub(crate) fn zeroed(shards: usize) -> ShardTimes {
        assert!(shards <= rss::MAX_RSS_SHARDS as usize, "{shards} shards");
        ShardTimes {
            len: shards,
            ..ShardTimes::default()
        }
    }
}

impl std::ops::Deref for ShardTimes {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.ns[..self.len]
    }
}

impl std::ops::DerefMut for ShardTimes {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.ns[..self.len]
    }
}

impl std::fmt::Debug for ShardTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl BatchOutcome {
    /// Total virtual time for the burst: fixed cost + all per-frame cost.
    /// This is *CPU* time, summed across shards.
    pub fn total_ns(&self) -> f64 {
        self.batch_cost.total_ns() + self.outcomes.iter().map(|o| o.cost.total_ns()).sum::<f64>()
    }

    /// Wall-clock virtual time for the burst under parallel shard
    /// execution: the slowest shard's time (shards process their queues
    /// concurrently). Equals [`BatchOutcome::total_ns`] when unsharded.
    pub fn wall_ns(&self) -> f64 {
        if self.shard_ns.is_empty() {
            self.total_ns()
        } else {
            self.shard_ns.iter().copied().fold(0.0, f64::max)
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("devices", &self.devices.len())
            .field("routes", &self.fib.len())
            .field("bridges", &self.bridges.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel with no devices. `seed` namespaces generated MAC
    /// addresses so multi-host topologies don't collide.
    pub fn new(seed: u64) -> Self {
        let mut sysctls = BTreeMap::new();
        sysctls.insert("net.ipv4.ip_forward".to_string(), 0);
        sysctls.insert("net.bridge.bridge-nf-call-iptables".to_string(), 0);
        sysctls.insert("net.linuxfp.flow_cache".to_string(), 1);
        sysctls.insert("net.linuxfp.opt".to_string(), 1);
        sysctls.insert("net.linuxfp.trace_sample".to_string(), 0);
        sysctls.insert("net.linuxfp.rss_shards".to_string(), 1);
        Kernel {
            cost: Arc::new(CostModel::calibrated()),
            now: Nanos::ZERO,
            devices: BTreeMap::new(),
            names: HashMap::new(),
            next_ifindex: 1,
            fib: Fib::new(),
            neigh: NeighTable::new(),
            bridges: BTreeMap::new(),
            netfilter: Netfilter::new(),
            conntrack: Conntrack::new(),
            ipvs: crate::ipvs::Ipvs::new(),
            nat: Nat::new(),
            l7: L7::new(),
            last_ct_gc: Nanos::ZERO,
            conntrack_forward: false,
            sysctls,
            netlink: NetlinkBus::new(),
            xdp_hooks: WordMap::default(),
            tc_hooks: WordMap::default(),
            pending_arp: WordMap::default(),
            vxlan_fdb: WordMap::default(),
            vxlan_defaults: WordMap::default(),
            drop_counts: WordMap::default(),
            counters: WordMap::default(),
            bpdus_processed: 0,
            telemetry: None,
            recorder: None,
            time_generation: 0,
            rss_shards: 1,
            flow_cache: true,
            current_shard: 0,
            shard_last_seen: vec![ShardView::default()],
            seed,
        }
    }

    /// Enables slow-path telemetry: injected-packet, per-subsystem and
    /// per-reason drop counters land in `registry`, and the FIB,
    /// netfilter, bridge and ipvs subsystems count their operations. The
    /// counters are host atomics with no virtual-time charge.
    pub fn set_telemetry(&mut self, registry: Registry) {
        let t = StackTelemetry::new(registry);
        let ops = |subsystem: &str| {
            t.registry
                .counter("linuxfp_subsystem_ops_total", &[("subsystem", subsystem)])
        };
        self.fib.set_lookup_counter(ops("fib"));
        self.netfilter.set_evaluation_counter(ops("netfilter"));
        self.ipvs.set_selection_counter(ops("ipvs"));
        self.nat
            .set_translation_counter(t.registry.counter("linuxfp_nat_translations_total", &[]));
        self.nat
            .set_reply_counter(t.registry.counter("linuxfp_nat_reply_hits_total", &[]));
        self.nat
            .set_exhaustion_counter(t.registry.counter("linuxfp_nat_port_exhaustion_total", &[]));
        self.conntrack
            .set_eviction_counter(t.registry.counter("linuxfp_conntrack_evictions_total", &[]));
        self.conntrack
            .set_nat_eviction_counter(t.registry.counter("linuxfp_nat_evictions_total", &[]));
        self.l7
            .set_parsed_counter(t.registry.counter("linuxfp_l7_parsed_requests_total", &[]));
        self.l7
            .set_unparseable_counter(t.registry.counter("linuxfp_l7_unparseable_total", &[]));
        self.l7
            .set_deny_counter(t.registry.counter("linuxfp_l7_denies_total", &[]));
        for bridge in self.bridges.values_mut() {
            bridge.set_decision_counter(ops("bridge"));
        }
        self.telemetry = Some(t);
    }

    /// The telemetry registry, if [`Kernel::set_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Shared handle to the active cost model — lets hook closures keep
    /// a reference across packets instead of cloning the struct per
    /// frame.
    pub fn cost_model_arc(&self) -> Arc<CostModel> {
        Arc::clone(&self.cost)
    }

    /// The kernel-wide state generation: the wrapping sum of every
    /// subsystem's coherence generation plus the time generation. Any
    /// change a fast-path program could observe — route/neighbor/FDB/
    /// rule/ipset/NAT/ipvs mutation, conntrack or NAT eviction, netlink
    /// publish, virtual-time advance — changes this value. Hook
    /// dispatchers compare it against cached work (resolved tail-call
    /// slots, microflow verdict-cache entries) and lazily invalidate on
    /// mismatch. Individual bumps may coincide across subsystems in
    /// principle (it is a sum, not a vector clock), but every mutation
    /// funnels through at least one addend, so equality after a mutation
    /// would require another subsystem to wrap — not reachable in
    /// simulation runs.
    pub fn state_generation(&self) -> u64 {
        let mut g = self
            .netlink
            .generation()
            .wrapping_add(self.fib.generation())
            .wrapping_add(self.neigh.generation())
            .wrapping_add(self.conntrack.generation())
            .wrapping_add(self.netfilter.generation)
            .wrapping_add(self.nat.generation)
            .wrapping_add(self.l7.generation)
            .wrapping_add(self.ipvs.generation)
            .wrapping_add(self.time_generation);
        for bridge in self.bridges.values() {
            g = g.wrapping_add(bridge.generation());
        }
        g
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Traffic counters for a device (zeroes for unknown devices).
    pub fn dev_counters(&self, dev: IfIndex) -> DevCounters {
        self.counters.get(&dev).copied().unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Device configuration (the `ip link` / `brctl` surface)
    // ------------------------------------------------------------------

    fn alloc_index(&mut self) -> IfIndex {
        let idx = IfIndex(self.next_ifindex);
        self.next_ifindex += 1;
        idx
    }

    fn gen_mac(&self, index: IfIndex) -> MacAddr {
        MacAddr::from_index(self.seed.wrapping_mul(0x10000) + u64::from(index.as_u32()))
    }

    fn register(&mut self, dev: NetDevice) -> IfIndex {
        let idx = dev.index;
        self.names.insert(dev.name.clone(), idx);
        self.devices.insert(idx, dev);
        let info = self.link_info(idx).expect("just inserted");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        idx
    }

    fn ensure_name_free(&self, name: &str) -> Result<(), NetError> {
        if self.names.contains_key(name) {
            Err(NetError::DeviceExists(name.to_string()))
        } else {
            Ok(())
        }
    }

    /// Adds a physical NIC.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken.
    pub fn add_physical(&mut self, name: &str) -> Result<IfIndex, NetError> {
        self.ensure_name_free(name)?;
        let idx = self.alloc_index();
        let mac = self.gen_mac(idx);
        Ok(self.register(NetDevice::new(idx, name, DeviceKind::Physical, mac)))
    }

    /// Adds a veth pair (`ip link add <a> type veth peer name <b>`).
    ///
    /// # Errors
    ///
    /// Fails if either name is taken.
    pub fn add_veth_pair(&mut self, a: &str, b: &str) -> Result<(IfIndex, IfIndex), NetError> {
        self.ensure_name_free(a)?;
        self.ensure_name_free(b)?;
        if a == b {
            return Err(NetError::Invalid("veth ends need distinct names".into()));
        }
        let ia = self.alloc_index();
        let ib = self.alloc_index();
        let mac_a = self.gen_mac(ia);
        let mac_b = self.gen_mac(ib);
        self.register(NetDevice::new(ia, a, DeviceKind::Veth { peer: ib }, mac_a));
        self.register(NetDevice::new(ib, b, DeviceKind::Veth { peer: ia }, mac_b));
        Ok((ia, ib))
    }

    /// Adds a bridge (`brctl addbr`).
    ///
    /// # Errors
    ///
    /// Fails if the name is taken.
    pub fn add_bridge(&mut self, name: &str) -> Result<IfIndex, NetError> {
        self.ensure_name_free(name)?;
        let idx = self.alloc_index();
        let mac = self.gen_mac(idx);
        let mut bridge = Bridge::new(idx, mac);
        if let Some(t) = &self.telemetry {
            bridge.set_decision_counter(
                t.registry
                    .counter("linuxfp_subsystem_ops_total", &[("subsystem", "bridge")]),
            );
        }
        self.bridges.insert(idx, bridge);
        Ok(self.register(NetDevice::new(idx, name, DeviceKind::Bridge, mac)))
    }

    /// Adds a VXLAN device (`ip link add <name> type vxlan id <vni> ...`).
    ///
    /// # Errors
    ///
    /// Fails if the name is taken.
    pub fn add_vxlan(
        &mut self,
        name: &str,
        vni: u32,
        local: Ipv4Addr,
        port: u16,
    ) -> Result<IfIndex, NetError> {
        self.ensure_name_free(name)?;
        let idx = self.alloc_index();
        let mac = self.gen_mac(idx);
        self.vxlan_fdb.insert(idx, WordMap::default());
        self.vxlan_defaults.insert(idx, Vec::new());
        Ok(self.register(NetDevice::new(
            idx,
            name,
            DeviceKind::Vxlan { vni, local, port },
            mac,
        )))
    }

    /// Adds an FDB entry mapping a remote MAC to its VTEP
    /// (`bridge fdb append <mac> dev <vxlan> dst <vtep>`).
    ///
    /// # Errors
    ///
    /// Fails if the device is not a VXLAN device.
    pub fn vxlan_fdb_add(
        &mut self,
        dev: IfIndex,
        mac: MacAddr,
        vtep: Ipv4Addr,
    ) -> Result<(), NetError> {
        let fdb = self
            .vxlan_fdb
            .get_mut(&dev)
            .ok_or_else(|| NetError::Invalid(format!("{dev} is not a vxlan device")))?;
        fdb.insert(mac, vtep);
        Ok(())
    }

    /// Registers a default flood target for unknown/broadcast inner MACs.
    ///
    /// # Errors
    ///
    /// Fails if the device is not a VXLAN device.
    pub fn vxlan_add_default_remote(
        &mut self,
        dev: IfIndex,
        vtep: Ipv4Addr,
    ) -> Result<(), NetError> {
        let defaults = self
            .vxlan_defaults
            .get_mut(&dev)
            .ok_or_else(|| NetError::Invalid(format!("{dev} is not a vxlan device")))?;
        if !defaults.contains(&vtep) {
            defaults.push(vtep);
        }
        Ok(())
    }

    /// Enslaves `port` to `bridge` (`brctl addif`).
    ///
    /// # Errors
    ///
    /// Fails when either device is missing, `bridge` is not a bridge, or
    /// the port is a bridge itself.
    pub fn brctl_addif(&mut self, bridge: IfIndex, port: IfIndex) -> Result<(), NetError> {
        if !self.bridges.contains_key(&bridge) {
            return Err(NetError::Invalid(format!("{bridge} is not a bridge")));
        }
        if self.bridges.contains_key(&port) {
            return Err(NetError::Invalid("cannot enslave a bridge".into()));
        }
        let dev = self
            .devices
            .get_mut(&port)
            .ok_or_else(|| NetError::NoSuchDevice(port.to_string()))?;
        dev.master = Some(bridge);
        self.bridges
            .get_mut(&bridge)
            .expect("checked")
            .add_port(port);
        let info = self.link_info(port).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Removes `port` from `bridge` (`brctl delif`).
    ///
    /// # Errors
    ///
    /// Fails when the devices are missing or not related.
    pub fn brctl_delif(&mut self, bridge: IfIndex, port: IfIndex) -> Result<(), NetError> {
        let br = self
            .bridges
            .get_mut(&bridge)
            .ok_or_else(|| NetError::Invalid(format!("{bridge} is not a bridge")))?;
        if !br.remove_port(port) {
            return Err(NetError::NotFound(format!("{port} not in {bridge}")));
        }
        if let Some(dev) = self.devices.get_mut(&port) {
            dev.master = None;
        }
        let info = self.link_info(port).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Enables or disables STP on a bridge (`brctl stp <br> on|off`).
    ///
    /// # Errors
    ///
    /// Fails if `bridge` is not a bridge.
    pub fn bridge_set_stp(&mut self, bridge: IfIndex, on: bool) -> Result<(), NetError> {
        let br = self
            .bridges
            .get_mut(&bridge)
            .ok_or_else(|| NetError::Invalid(format!("{bridge} is not a bridge")))?;
        br.stp_enabled = on;
        let info = self.link_info(bridge).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Enables or disables VLAN filtering on a bridge.
    ///
    /// # Errors
    ///
    /// Fails if `bridge` is not a bridge.
    pub fn bridge_set_vlan_filtering(&mut self, bridge: IfIndex, on: bool) -> Result<(), NetError> {
        let br = self
            .bridges
            .get_mut(&bridge)
            .ok_or_else(|| NetError::Invalid(format!("{bridge} is not a bridge")))?;
        br.vlan_filtering = on;
        let info = self.link_info(bridge).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Direct access to a bridge (for port VLAN/STP state configuration
    /// and FDB inspection). Conservatively bumps the bridge's coherence
    /// generation: callers use this to flip forwarding-relevant port
    /// state without going through netlink.
    pub fn bridge_mut(&mut self, bridge: IfIndex) -> Option<&mut Bridge> {
        let b = self.bridges.get_mut(&bridge)?;
        b.touch_generation();
        Some(b)
    }

    /// Read access to a bridge.
    pub fn bridge(&self, bridge: IfIndex) -> Option<&Bridge> {
        self.bridges.get(&bridge)
    }

    /// Sets a link up (`ip link set <dev> up`).
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn ip_link_set_up(&mut self, dev: IfIndex) -> Result<(), NetError> {
        self.set_link_state(dev, true)
    }

    /// Marks a device as an endpoint (terminating in an external stack,
    /// e.g. a pod network namespace).
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn set_endpoint(&mut self, dev: IfIndex, endpoint: bool) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        d.endpoint = endpoint;
        Ok(())
    }

    /// Sets a link down.
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn ip_link_set_down(&mut self, dev: IfIndex) -> Result<(), NetError> {
        self.set_link_state(dev, false)
    }

    fn set_link_state(&mut self, dev: IfIndex, up: bool) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        d.up = up;
        let info = self.link_info(dev).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Adds an address (`ip addr add <addr>/<len> dev <dev>`); also
    /// installs the connected route, as Linux does.
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist or already has the address.
    pub fn ip_addr_add(&mut self, dev: IfIndex, addr: IfAddr) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        if d.has_addr(addr.addr) {
            return Err(NetError::AlreadyExists(addr.addr.to_string()));
        }
        d.addrs.push((addr.addr, addr.prefix_len));
        self.netlink.publish(NetlinkMessage::NewAddr {
            index: dev,
            addr: addr.addr,
            prefix_len: addr.prefix_len,
        });
        if addr.prefix_len < 32 {
            self.install_route(Route::connected(addr.subnet(), dev));
        }
        let info = self.link_info(dev).expect("exists");
        self.netlink.publish(NetlinkMessage::NewLink(info));
        Ok(())
    }

    /// Removes an address and its connected route.
    ///
    /// # Errors
    ///
    /// Fails if the device or address is missing.
    pub fn ip_addr_del(&mut self, dev: IfIndex, addr: IfAddr) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        let before = d.addrs.len();
        d.addrs
            .retain(|(a, l)| !(*a == addr.addr && *l == addr.prefix_len));
        if d.addrs.len() == before {
            return Err(NetError::NotFound(addr.addr.to_string()));
        }
        self.fib.remove(&addr.subnet(), Some(dev));
        self.netlink.publish(NetlinkMessage::DelAddr {
            index: dev,
            addr: addr.addr,
        });
        self.netlink.publish(NetlinkMessage::DelRoute {
            prefix: addr.subnet(),
        });
        Ok(())
    }

    fn install_route(&mut self, route: Route) {
        self.fib.insert(route);
        self.netlink.publish(NetlinkMessage::NewRoute(RouteInfo {
            prefix: route.prefix,
            via: route.via,
            dev: route.dev,
            metric: route.metric,
        }));
    }

    /// Adds a route (`ip route add <prefix> [via <gw>] [dev <dev>]`).
    /// When `dev` is omitted it is resolved from the gateway's connected
    /// subnet.
    ///
    /// # Errors
    ///
    /// Fails when neither `via` nor `dev` determine an egress interface.
    pub fn ip_route_add(
        &mut self,
        prefix: Prefix,
        via: Option<Ipv4Addr>,
        dev: Option<IfIndex>,
    ) -> Result<(), NetError> {
        let egress = match (dev, via) {
            (Some(d), _) => d,
            (None, Some(gw)) => self.device_for_subnet(gw).ok_or_else(|| {
                NetError::Invalid(format!("no connected subnet for gateway {gw}"))
            })?,
            (None, None) => {
                return Err(NetError::Invalid("route needs via or dev".into()));
            }
        };
        if !self.devices.contains_key(&egress) {
            return Err(NetError::NoSuchDevice(egress.to_string()));
        }
        let route = match via {
            Some(gw) => Route::via_gateway(prefix, gw, egress),
            None => Route::connected(prefix, egress),
        };
        self.install_route(route);
        Ok(())
    }

    /// Deletes routes for `prefix` (optionally restricted to `dev`).
    ///
    /// # Errors
    ///
    /// Fails if no route matched.
    pub fn ip_route_del(&mut self, prefix: Prefix, dev: Option<IfIndex>) -> Result<(), NetError> {
        if self.fib.remove(&prefix, dev) == 0 {
            return Err(NetError::NotFound(prefix.to_string()));
        }
        self.netlink.publish(NetlinkMessage::DelRoute { prefix });
        Ok(())
    }

    /// The device whose connected subnet contains `addr`.
    pub fn device_for_subnet(&self, addr: Ipv4Addr) -> Option<IfIndex> {
        self.devices
            .values()
            .find(|d| d.connected_prefixes().iter().any(|p| p.contains(addr)))
            .map(|d| d.index)
    }

    /// Sets a sysctl (`sysctl -w <name>=<value>`).
    ///
    /// # Errors
    ///
    /// Fails for unknown sysctls.
    pub fn sysctl_set(&mut self, name: &str, value: i64) -> Result<(), NetError> {
        if !self.sysctls.contains_key(name) {
            return Err(NetError::NotFound(name.to_string()));
        }
        self.sysctls.insert(name.to_string(), value);
        if name == "net.linuxfp.trace_sample" {
            if let Some(recorder) = &mut self.recorder {
                recorder.set_every(value.max(0) as u64);
            }
        }
        if name == "net.linuxfp.flow_cache" {
            self.flow_cache = value == 1;
        }
        if name == "net.linuxfp.rss_shards" {
            // Clamp and cache; resizing drops every shard's last-seen
            // view, so all shards start cold (they would on real cores
            // coming online too).
            let shards = value.clamp(1, i64::from(rss::MAX_RSS_SHARDS)) as u32;
            self.rss_shards = shards;
            self.current_shard = 0;
            self.shard_last_seen = vec![ShardView::default(); shards as usize];
        }
        self.netlink.publish(NetlinkMessage::SysctlChanged {
            name: name.to_string(),
            value,
        });
        Ok(())
    }

    /// Reads a sysctl.
    pub fn sysctl_get(&self, name: &str) -> Option<i64> {
        self.sysctls.get(name).copied()
    }

    /// Whether IPv4 forwarding is enabled.
    pub fn ip_forward_enabled(&self) -> bool {
        self.sysctl_get("net.ipv4.ip_forward") == Some(1)
    }

    /// Whether bridged IPv4 traffic traverses iptables (the
    /// `br_netfilter` behavior Kubernetes requires).
    pub fn bridge_nf_enabled(&self) -> bool {
        self.sysctl_get("net.bridge.bridge-nf-call-iptables") == Some(1)
    }

    /// Whether the fast path's microflow verdict cache is enabled
    /// (`net.linuxfp.flow_cache`, default on).
    pub fn flow_cache_enabled(&self) -> bool {
        self.flow_cache
    }

    /// Whether synthesized programs are run through the bytecode
    /// optimizer before verification and load (`net.linuxfp.opt`,
    /// default on). Turning it off deploys the emitters' naive output
    /// unchanged — observationally identical, just more instructions
    /// per cache-miss packet; the `--opt 0` difftest lane and the
    /// opt-parity fuzz hold the two forms to the same behavior.
    pub fn opt_enabled(&self) -> bool {
        self.sysctl_get("net.linuxfp.opt") == Some(1)
    }

    /// The active RSS shard count (`net.linuxfp.rss_shards`, default 1,
    /// clamped to `1..=`[`rss::MAX_RSS_SHARDS`]). With 1 shard the
    /// datapath is bit-identical to the unsharded pipeline: no steering,
    /// no coherence charges, one batch amortizer.
    pub fn rss_shards(&self) -> u32 {
        self.rss_shards
    }

    /// The generation of one shared structure — the addends of
    /// [`Kernel::state_generation`], individually addressable so shards
    /// can track staleness per structure.
    fn structure_generation(&self, s: CoherentStruct) -> u64 {
        match s {
            CoherentStruct::Fib => self.fib.generation(),
            CoherentStruct::Neigh => self.neigh.generation(),
            CoherentStruct::Conntrack => self.conntrack.generation(),
            CoherentStruct::Netfilter => self.netfilter.generation,
            CoherentStruct::Nat => self.nat.generation,
            CoherentStruct::L7 => self.l7.generation,
            CoherentStruct::Ipvs => self.ipvs.generation,
            CoherentStruct::Fdb => {
                let mut g = 0u64;
                for bridge in self.bridges.values() {
                    g = g.wrapping_add(bridge.generation());
                }
                g
            }
        }
    }

    /// Marks the current shard's view of `s` as up to date *without*
    /// charging — used right after this shard itself mutated the
    /// structure (its own writes are already in its cache).
    pub(crate) fn coherence_refresh(&mut self, s: CoherentStruct) {
        if self.rss_shards <= 1 {
            return;
        }
        let gen = self.structure_generation(s);
        self.shard_last_seen[self.current_shard as usize][s.index()] = gen;
    }

    /// Charges the cross-core coherence cost if the current shard's view
    /// of `s` is stale (another shard — or the control plane, or
    /// housekeeping — wrote it since this shard last looked), and marks
    /// the view current. Free when `rss_shards=1`, free on repeat access
    /// within the same generation: only the *first* touch after a remote
    /// write pays, exactly like a cache-line transfer.
    pub(crate) fn coherence(&mut self, s: CoherentStruct, out: &mut RxOutcome) {
        if self.rss_shards <= 1 {
            return;
        }
        let gen = self.structure_generation(s);
        let shard = self.current_shard as usize;
        if self.shard_last_seen[shard][s.index()] == gen {
            return;
        }
        self.shard_last_seen[shard][s.index()] = gen;
        out.charge(Stage::Coherence, self.cost.coherence_miss_ns);
        self.count_coherence_event(s);
    }

    /// Every shared structure's generation, each read once.
    fn shard_view(&self) -> ShardView {
        CoherentStruct::ALL.map(|s| self.structure_generation(s))
    }

    /// The fast-path flavor of [`Kernel::coherence`] for hook programs,
    /// which key their caches on the *combined* state generation and so
    /// read every structure's generation line: returns
    /// [`Kernel::state_generation`], read in one pass over the
    /// structures. Sharded, that pass also charges one miss per structure
    /// whose generation moved since the current shard last looked (in
    /// [`CoherentStruct::ALL`] order) and makes the shard's view current.
    /// Unsharded it charges nothing.
    pub fn fastpath_generation(&mut self, cost: &mut CostTracker, trace: &mut TraceCtx) -> u64 {
        if self.rss_shards <= 1 {
            return self.state_generation();
        }
        let view = self.shard_view();
        let seen = std::mem::replace(&mut self.shard_last_seen[self.current_shard as usize], view);
        if seen != view {
            for (s, (was, now)) in CoherentStruct::ALL.into_iter().zip(seen.iter().zip(&view)) {
                if was != now {
                    cost.charge(Stage::Coherence, self.cost.coherence_miss_ns);
                    trace.stage(Stage::Coherence.name(), self.cost.coherence_miss_ns);
                    self.count_coherence_event(s);
                }
            }
        }
        view.iter().fold(
            self.netlink.generation().wrapping_add(self.time_generation),
            |g, &s| g.wrapping_add(s),
        )
    }

    /// Re-syncs the current shard's whole view after a fast-path program
    /// ran: helper calls may have written shared state (conntrack
    /// refresh, FDB refresh, NAT counters, L7 pins), and a shard's own
    /// writes must not read as remote on its next packet. Serial
    /// execution guarantees any generation movement since
    /// [`Kernel::fastpath_generation`] was this shard's own.
    pub fn coherence_refresh_fastpath(&mut self) {
        if self.rss_shards <= 1 {
            return;
        }
        self.shard_last_seen[self.current_shard as usize] = self.shard_view();
    }

    fn count_coherence_event(&self, s: CoherentStruct) {
        if let Some(t) = &self.telemetry {
            t.coherence_events(s).inc();
        }
    }

    /// Enables the per-packet flight recorder: keeps up to `capacity`
    /// sampled spans, sampling 1-in-`every` packets (`0` = off; also
    /// settable at runtime via the `net.linuxfp.trace_sample` sysctl).
    /// Returns a shared handle to the span ring. The recorder reads
    /// virtual time and cost trackers but never charges them: with
    /// sampling off the datapath is bit-identical to a kernel without a
    /// recorder.
    pub fn enable_flight_recorder(&mut self, capacity: usize, every: u64) -> TraceRing {
        let recorder = FlightRecorder::new(capacity, every);
        let ring = recorder.ring();
        self.recorder = Some(recorder);
        self.sysctls
            .insert("net.linuxfp.trace_sample".to_string(), every as i64);
        ring
    }

    /// Records a housekeeping marker span when the recorder is active.
    pub(crate) fn record_housekeeping_span(&self, report: &HousekeepingReport) {
        if let Some(recorder) = &self.recorder {
            if recorder.every() > 0 {
                recorder.record(TraceSpan::housekeeping(
                    self.now.as_nanos(),
                    report.fdb_expired,
                    report.conntrack_expired,
                    report.neigh_expired,
                    report.nat_expired,
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // iptables / ipset surface
    // ------------------------------------------------------------------

    /// Appends a rule (`iptables -A <CHAIN> ...`).
    pub fn iptables_append(&mut self, hook: ChainHook, rule: IptRule) {
        self.netfilter.append(hook, rule);
        self.publish_nf_changed();
    }

    /// Flushes a chain (`iptables -F <CHAIN>`).
    pub fn iptables_flush(&mut self, hook: ChainHook) {
        self.netfilter.flush(hook);
        self.publish_nf_changed();
    }

    /// Creates an ipset.
    pub fn ipset_create(&mut self, name: &str, set: crate::netfilter::IpSet) -> bool {
        let ok = self.netfilter.set_create(name, set);
        if ok {
            self.publish_nf_changed();
        }
        ok
    }

    /// Adds a member to an ipset.
    pub fn ipset_add(&mut self, name: &str, prefix: Prefix) -> bool {
        let ok = self.netfilter.set_add(name, prefix);
        if ok {
            self.publish_nf_changed();
        }
        ok
    }

    /// Empties an ipset (`ipset flush <name>`).
    pub fn ipset_flush(&mut self, name: &str) -> bool {
        let ok = self.netfilter.set_flush(name);
        if ok {
            self.publish_nf_changed();
        }
        ok
    }

    /// Adds a virtual service (`ipvsadm -A -u <vip>:<port> -s <sched>`).
    pub fn ipvsadm_add_service(
        &mut self,
        vip: Ipv4Addr,
        port: u16,
        proto: IpProto,
        scheduler: crate::ipvs::Scheduler,
    ) -> bool {
        let ok = self.ipvs.add_service(vip, port, proto, scheduler);
        if ok {
            let generation = self.ipvs.generation;
            self.netlink
                .publish(NetlinkMessage::IpvsChanged { generation });
        }
        ok
    }

    /// Adds a backend (`ipvsadm -a -u <vip>:<port> -r <backend>`).
    pub fn ipvsadm_add_backend(
        &mut self,
        vip: Ipv4Addr,
        port: u16,
        proto: IpProto,
        backend: Ipv4Addr,
        backend_port: u16,
    ) -> bool {
        let ok = self
            .ipvs
            .add_backend(vip, port, proto, backend, backend_port);
        if ok {
            let generation = self.ipvs.generation;
            self.netlink
                .publish(NetlinkMessage::IpvsChanged { generation });
        }
        ok
    }

    /// Appends a NAT rule (`iptables -t nat -A <CHAIN> ...`); returns
    /// `false` when the target is illegal for the chain.
    pub fn iptables_nat_append(&mut self, chain: NatChain, rule: NatRule) -> bool {
        let ok = self.nat.append(chain, rule);
        if ok {
            self.publish_nat_changed();
        }
        ok
    }

    /// Flushes the `nat` table (`iptables -t nat -F`). Established
    /// bindings keep translating their flows, as in Linux.
    pub fn iptables_nat_flush(&mut self) {
        self.nat.flush();
        self.publish_nat_changed();
    }

    /// Appends an L7 request policy (first match wins).
    pub fn l7_policy_append(&mut self, policy: L7Policy) {
        self.l7.append(policy);
        self.publish_l7_changed();
    }

    /// Flushes the L7 policy table *and* the connection-verdict pins:
    /// pinned connections are re-evaluated from their next request.
    pub fn l7_policy_flush(&mut self) {
        self.l7.flush();
        self.publish_l7_changed();
    }

    fn publish_l7_changed(&mut self) {
        let generation = self.l7.generation;
        self.netlink
            .publish(NetlinkMessage::L7Changed { generation });
    }

    fn publish_nat_changed(&mut self) {
        let generation = self.nat.generation;
        self.netlink
            .publish(NetlinkMessage::NatChanged { generation });
    }

    fn publish_nf_changed(&mut self) {
        let generation = self.netfilter.generation;
        self.netlink
            .publish(NetlinkMessage::NetfilterChanged { generation });
    }

    // ------------------------------------------------------------------
    // Netlink subscription & dumps
    // ------------------------------------------------------------------

    /// Joins netlink multicast groups.
    pub fn netlink_subscribe(&mut self, groups: &[NlGroup]) -> SubscriberId {
        self.netlink.subscribe(groups)
    }

    /// Drains pending notifications for a subscriber.
    pub fn netlink_poll(&mut self, id: SubscriberId) -> Vec<NetlinkMessage> {
        self.netlink.poll(id)
    }

    fn link_info(&self, dev: IfIndex) -> Option<LinkInfo> {
        let d = self.devices.get(&dev)?;
        let bridge = self.bridges.get(&dev);
        Some(LinkInfo {
            index: d.index,
            name: d.name.clone(),
            kind: d.kind.kind_name().to_string(),
            mac: d.mac,
            up: d.up,
            master: d.master,
            addrs: d.addrs.clone(),
            stp_enabled: bridge.map(|b| b.stp_enabled),
            vlan_filtering: bridge.map(|b| b.vlan_filtering),
        })
    }

    /// Dumps all links (`RTM_GETLINK`).
    pub fn dump_links(&self) -> Vec<LinkInfo> {
        self.devices
            .keys()
            .filter_map(|i| self.link_info(*i))
            .collect()
    }

    /// Dumps all neighbor entries (`RTM_GETNEIGH`).
    pub fn dump_neigh(&self) -> Vec<(Ipv4Addr, crate::neigh::NeighEntry)> {
        self.neigh.entries()
    }

    /// Dumps all routes (`RTM_GETROUTE`).
    pub fn dump_routes(&self) -> Vec<RouteInfo> {
        self.fib
            .routes()
            .into_iter()
            .map(|r| RouteInfo {
                prefix: r.prefix,
                via: r.via,
                dev: r.dev,
                metric: r.metric,
            })
            .collect()
    }

    /// Looks up a device by name.
    pub fn ifindex(&self, name: &str) -> Option<IfIndex> {
        self.names.get(name).copied()
    }

    /// A device by index.
    pub fn device(&self, dev: IfIndex) -> Option<&NetDevice> {
        self.devices.get(&dev)
    }

    // ------------------------------------------------------------------
    // Hook attachment (XDP / TC)
    // ------------------------------------------------------------------

    /// Attaches an XDP program to a device.
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn attach_xdp(&mut self, dev: IfIndex, hook: HookFn) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        d.has_xdp = true;
        self.xdp_hooks.insert(dev, hook);
        Ok(())
    }

    /// Detaches any XDP program from a device.
    pub fn detach_xdp(&mut self, dev: IfIndex) {
        if let Some(d) = self.devices.get_mut(&dev) {
            d.has_xdp = false;
        }
        self.xdp_hooks.remove(&dev);
    }

    /// Attaches a TC ingress program to a device.
    ///
    /// # Errors
    ///
    /// Fails if the device does not exist.
    pub fn attach_tc_ingress(&mut self, dev: IfIndex, hook: HookFn) -> Result<(), NetError> {
        let d = self
            .devices
            .get_mut(&dev)
            .ok_or_else(|| NetError::NoSuchDevice(dev.to_string()))?;
        d.has_tc_ingress = true;
        self.tc_hooks.insert(dev, hook);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Helper facades exposed to fast paths (the paper's kernel helpers)
    // ------------------------------------------------------------------

    /// `bpf_fib_lookup`: combined FIB + neighbor lookup. Returns `None`
    /// when there is no route or the next hop is unresolved — the fast
    /// path then passes the packet to the slow path, which performs ARP.
    pub fn helper_fib_lookup(&mut self, dst: Ipv4Addr) -> Option<FibFastResult> {
        // Locally addressed packets are never fast-path forwarded; the
        // real helper reports RT_LOCAL and the program passes to Linux.
        if self.owns_addr(dst) {
            return None;
        }
        let route = self.fib.lookup(dst).copied()?;
        let next_hop = route.via.unwrap_or(dst);
        let now = self.now;
        let (dst_mac, _) = self.neigh.resolved_mac(next_hop, now)?;
        let egress = self.devices.get(&route.dev)?;
        if !egress.up {
            return None;
        }
        Some(FibFastResult {
            ifindex: route.dev,
            src_mac: egress.mac,
            dst_mac,
        })
    }

    /// `bpf_fdb_lookup` (the paper's new helper): FDB lookup for the
    /// bridge that `ingress_port` belongs to, honoring aging and STP port
    /// state, and refreshing the *source* entry (fast-path FDB update).
    /// Returns the egress port, or `None` on miss / unknown source (the
    /// slow path then learns and floods).
    pub fn helper_fdb_lookup(
        &mut self,
        ingress_port: IfIndex,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        vlan: u16,
    ) -> FdbLookupOutcome {
        let Some(bridge_idx) = self.devices.get(&ingress_port).and_then(|d| d.master) else {
            return FdbLookupOutcome::SrcUnknown;
        };
        let now = self.now;
        let Some(bridge) = self.bridges.get_mut(&bridge_idx) else {
            return FdbLookupOutcome::SrcUnknown;
        };
        // The ingress port must be in the forwarding state: STP is
        // slow-path protocol work, and a blocked port's traffic must
        // reach it (to be dropped there), never be fast-forwarded.
        if bridge.port(ingress_port).map(|p| p.stp_state)
            != Some(crate::bridge::StpState::Forwarding)
        {
            return FdbLookupOutcome::SrcUnknown;
        }
        // The source must already be known (learning is slow-path work);
        // refresh its timestamp so active flows don't age out.
        if bridge.fdb_lookup(src_mac, vlan, now).is_none() {
            return FdbLookupOutcome::SrcUnknown;
        }
        bridge.fdb_learn(src_mac, vlan, ingress_port, now);
        match bridge.fdb_lookup(dst_mac, vlan, now) {
            Some(egress) if egress != ingress_port => FdbLookupOutcome::Hit(egress),
            // A hairpin hit is treated like a miss: the slow path drops.
            _ => FdbLookupOutcome::DstMiss,
        }
    }

    /// `bpf_ipt_lookup` (the paper's new helper): evaluates the FORWARD
    /// chain against packet metadata using the *kernel's* rule table.
    pub fn helper_ipt_lookup(&self, meta: &PacketMeta, tracker: &mut CostTracker) -> NfVerdict {
        self.netfilter.evaluate_with_rule_cost(
            ChainHook::Forward,
            meta,
            &self.cost,
            tracker,
            self.cost.helper_ipt_rule_ns,
        )
    }

    /// `bpf_nat_lookup` (the fifth subsystem's helper): reads the
    /// *kernel's* NAT binding table — never shadow state. A `Hit` tells
    /// the fast path the full translated tuple; a `Miss` means the slow
    /// path must see the packet (rule evaluation, port allocation and
    /// binding creation are slow-path work, like conntrack entry
    /// creation in the paper's split); `NoNat` lets untranslated
    /// traffic keep to the fast path.
    ///
    /// Only UDP is fast-path translated (TCP reports `Miss`), mirroring
    /// the ipvs fast path's protocol split.
    pub fn helper_nat_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> NatLookupOutcome {
        let tuple = NatTuple::new(src, sport, dst, dport, proto);
        if !matches!(proto, 6 | 17) {
            return NatLookupOutcome::NoNat;
        }
        let now = self.now;
        if let Some(hit) = self.conntrack.nat_lookup(&tuple, now) {
            if proto != 17 {
                return NatLookupOutcome::Miss;
            }
            // Count through the same counters as the slow path: the
            // translation happens either way.
            if hit.reply {
                self.nat.note_reply_hit();
            } else {
                self.nat.note_translation();
            }
            return NatLookupOutcome::Hit(hit.xlat);
        }
        if self.nat.could_translate(&tuple) {
            NatLookupOutcome::Miss
        } else {
            NatLookupOutcome::NoNat
        }
    }

    /// `bpf_l7_policy_lookup` (the sixth subsystem's helper): reads the
    /// *kernel's* L7 policy and connection-pin tables — never shadow
    /// state. The payload slice is the bytes the synthesized program
    /// proved in-bounds; `first` is the first payload byte the program
    /// itself loaded through a verified variable-offset load (`None`
    /// encodes an empty payload). Verdicts, pin installation and
    /// telemetry all run through [`crate::l7::L7::lookup_hinted`] — the
    /// same code the slow path executes, so the two paths cannot
    /// disagree.
    pub fn helper_l7_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        payload: &[u8],
        first: Option<u8>,
    ) -> L7LookupOutcome {
        let key = L7ConnKey {
            src,
            sport,
            dst,
            dport,
        };
        self.l7.lookup_hinted(key, payload, first)
    }
}

/// Wires a buffer pool's occupancy into `registry`: the gauges
/// `linuxfp_pool_buffers{state="free"|"outstanding"|"allocated"}` follow
/// every acquire/recycle/detach. The `linuxfp-packet` crate stays
/// dependency-free, so the telemetry hookup lives here, at the first
/// layer that knows both sides. The observer runs outside virtual time —
/// observability must not perturb the modeled costs.
pub fn wire_pool_telemetry(pool: &linuxfp_packet::BufferPool, registry: &Registry) {
    registry.describe(
        "linuxfp_pool_buffers",
        "Packet buffer pool occupancy by state",
    );
    let free = registry.gauge("linuxfp_pool_buffers", &[("state", "free")]);
    let outstanding = registry.gauge("linuxfp_pool_buffers", &[("state", "outstanding")]);
    let allocated = registry.gauge("linuxfp_pool_buffers", &[("state", "allocated")]);
    pool.set_occupancy_observer(Arc::new(move |s: &linuxfp_packet::PoolStats| {
        free.set(s.free as i64);
        outstanding.set(s.outstanding as i64);
        allocated.set(s.allocated as i64);
    }));
}

/// [`wire_pool_telemetry`] for a sharded pool: every member pool's
/// occupancy lands in the same `linuxfp_pool_buffers` gauges with an
/// additional `shard` label, so per-shard occupancy is observable and
/// the sum over shards is the aggregate.
pub fn wire_sharded_pool_telemetry(pool: &linuxfp_packet::ShardedPool, registry: &Registry) {
    registry.describe(
        "linuxfp_pool_buffers",
        "Packet buffer pool occupancy by state",
    );
    for shard in 0..pool.shards() {
        let label = shard.to_string();
        let free = registry.gauge(
            "linuxfp_pool_buffers",
            &[("state", "free"), ("shard", label.as_str())],
        );
        let outstanding = registry.gauge(
            "linuxfp_pool_buffers",
            &[("state", "outstanding"), ("shard", label.as_str())],
        );
        let allocated = registry.gauge(
            "linuxfp_pool_buffers",
            &[("state", "allocated"), ("shard", label.as_str())],
        );
        pool.pool(shard)
            .set_occupancy_observer(Arc::new(move |s: &linuxfp_packet::PoolStats| {
                free.set(s.free as i64);
                outstanding.set(s.outstanding as i64);
                allocated.set(s.allocated as i64);
            }));
    }
}

mod effects;
mod forward;
mod housekeeping;
mod local;
pub mod rss;
mod rx;
