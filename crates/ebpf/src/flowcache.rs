//! The microflow verdict cache: skip the interpreter on steady flows.
//!
//! The dispatcher's fast path still pays interpretation for every packet:
//! entry program, tail call, synthesized program, and one kernel helper
//! per traversed subsystem. For the packets that dominate real traffic —
//! later packets of established flows — all of that work recomputes a
//! verdict that has not changed. This module caches it, OVS-microflow
//! style, as **derived state with explicit invalidation**:
//!
//! * A flow is **recorded on its second sighting, not its first.** The
//!   first miss of a flow under the current coherence generation only
//!   places a key-only *placeholder* node and runs the program unrecorded,
//!   exactly as with the cache off. A later miss that finds its
//!   placeholder runs the program while a [`RecordingEnv`] logs the
//!   helper calls a hit must repeat; afterwards the net packet
//!   transformation is recovered by diffing the frame
//!   ([`linuxfp_packet::rewrite::derive_ops`]) and the `(flow key →
//!   verdict, rewrite ops, helper touches)` entry fills the
//!   placeholder in place — but only if the recording passes every gate:
//!   the program's static cacheability contract, a replayable diff, a
//!   cacheable verdict, and a measured interpretation cost above the hit
//!   price (caching must never decelerate). A flow seen once before the
//!   next flush or eviction — a scan, or any flow on a cache that is
//!   flushed every burst — therefore costs no frame copy, no helper log
//!   and no entry, and a placeholder evicted before its flow returns
//!   leaves the recorded entries of the working set alone (scan
//!   resistance).
//! * On a **hit** the recorded rewrite ops are applied directly and only
//!   the touches with a **per-packet effect** are replayed: a NAT
//!   lookup's translation counters and an L7 lookup's counters and pin.
//!   An entry lives under one combined generation, and a clock advance
//!   changes it, so every hit sees the `now` its recording saw. At a
//!   fixed `now` a second FIB, FDB, FORWARD-chain or conntrack lookup
//!   changes nothing the recording run did not: the neighbour's lazy
//!   Reachable→Stale move and the FDB source refresh were already made,
//!   and an expiry bumps a generation, flushing the entry. Those four are
//!   therefore not recorded at all, and a router, gateway, ipvs or bridge
//!   hit runs no lookup — so `linuxfp_subsystem_ops_total` counts only
//!   the lookups that ran. The packet is charged the flat
//!   [`flowcache_hit_ns`] price instead of the interpretation cost.
//! * **Coherence** comes from one number: the kernel-wide
//!   [`state_generation`] plus the map store's program generation. Every
//!   netlink-driven mutation, conntrack/NAT eviction, virtual-time
//!   advance, and data-path swap changes it; the cache compares the
//!   combined generation on every access and clears itself lazily on
//!   mismatch. There is no per-entry dependency tracking and no shadow
//!   state to reconcile — the cache can always be dropped and rebuilt
//!   from a miss.
//! * **The cache never loses to cache-off** in virtual time: recording
//!   charges nothing, and a first-sighting miss runs exactly the program
//!   the cache-off path runs, so it is charged exactly the cache-off
//!   virtual time.
//!
//! [`flowcache_hit_ns`]: linuxfp_sim::CostModel::flowcache_hit_ns
//! [`state_generation`]: linuxfp_netstack::stack::Kernel::state_generation

use crate::helpers::HelperEnv;
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::l7::L7LookupOutcome;
use linuxfp_netstack::nat::NatLookupOutcome;
use linuxfp_netstack::netfilter::{NfVerdict, PacketMeta};
use linuxfp_netstack::stack::{FdbLookupOutcome, FibFastResult, HookVerdict, Kernel};
use linuxfp_packet::checksum::checksum;
use linuxfp_packet::rewrite::RewriteOp;
use linuxfp_packet::{MacAddr, WordMap};
use linuxfp_sim::{CostTracker, Nanos};
use linuxfp_telemetry::{LocalCounter, Registry};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// Default capacity of a per-hook cache (entries). Beyond it the least-
/// recently-used flow is evicted; 4k microflows comfortably covers the
/// simulated workloads while bounding memory like a real percpu map.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The exact-match flow key.
///
/// It pins **every header byte a synthesized program can read**: the
/// ingress interface, frame length, both MAC addresses, the VLAN tag, and
/// the full IPv4 header *except* the identification and checksum fields
/// (which change per packet without affecting any forwarding decision),
/// plus the L4 ports. Two packets with equal keys are indistinguishable
/// to the fast path, so replaying the recorded verdict is exact.
///
/// The fields are packed into five words (see [`Fields::pack`]), so the
/// index hashes a key with five multiplies and compares it with five
/// word compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey([u64; 5]);

impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.0 {
            state.write_u64(word);
        }
    }
}

/// The key's fields, unpacked, as [`FlowKey::extract`] reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fields {
    ingress: u32,
    /// L3 offset (14 or 18); distinguishes untagged frames from frames
    /// tagged with TCI 0.
    l3: u8,
    vlan_tci: u16,
    frame_len: u32,
    eth_dst: [u8; 6],
    eth_src: [u8; 6],
    vihl: u8,
    tos: u8,
    total_len: u16,
    flags_frag: u16,
    ttl: u8,
    proto: u8,
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
}

/// Bit 4 of the last word: the frame carries an 802.1Q tag (L3 at 18).
const TAGGED: u64 = 1 << 4;

fn mac_word(mac: [u8; 6]) -> u64 {
    let [a, b, c, d, e, f] = mac;
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

impl Fields {
    /// Packs the fields losslessly for every key [`FlowKey::extract`]
    /// admits: the IPv4 version is always 4, the fragment offset and MF
    /// bit are always zero, and L3 sits at 14 or 18, so the IHL, the two
    /// remaining flag bits and a tag bit fit in the last word beside the
    /// source MAC and the protocol.
    fn pack(&self) -> FlowKey {
        debug_assert!(self.vihl >> 4 == 4 && self.flags_frag & 0x3FFF == 0);
        debug_assert!(self.l3 == 14 || self.l3 == 18);
        let tagged = if self.l3 == 18 { TAGGED } else { 0 };
        FlowKey([
            u64::from(self.src) << 32 | u64::from(self.dst),
            u64::from(self.ingress) << 32 | u64::from(self.sport) << 16 | u64::from(self.dport),
            u64::from(self.frame_len) << 32
                | u64::from(self.total_len) << 16
                | u64::from(self.vlan_tci),
            mac_word(self.eth_dst) << 16 | u64::from(self.tos) << 8 | u64::from(self.ttl),
            mac_word(self.eth_src) << 16
                | u64::from(self.proto) << 8
                | u64::from(self.flags_frag >> 14) << 5
                | tagged
                | u64::from(self.vihl & 0x0F),
        ])
    }
}

fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

impl FlowKey {
    /// Extracts the key from a raw frame, or `None` if the packet is not
    /// **cache-eligible**. Eligible means: IPv4 over Ethernet (optionally
    /// one 802.1Q tag), header length ≥ 20 with a *valid* header checksum
    /// (the checksum is not part of the key, so an entry recorded from a
    /// valid packet must never be served to a corrupt one), not a
    /// fragment, TCP or UDP with a complete L4 header. Everything else —
    /// ARP, ICMP, fragments, truncated frames — takes the interpreter.
    pub fn extract(frame: &[u8], ingress: IfIndex) -> Option<FlowKey> {
        if frame.len() < 14 {
            return None;
        }
        let mut l3 = 14usize;
        let mut vlan_tci = 0u16;
        let mut ethertype = be16(frame, 12);
        if ethertype == 0x8100 {
            if frame.len() < 18 {
                return None;
            }
            vlan_tci = be16(frame, 14);
            ethertype = be16(frame, 16);
            l3 = 18;
        }
        if ethertype != 0x0800 || frame.len() < l3 + 20 {
            return None;
        }
        let vihl = frame[l3];
        let ihl = usize::from(vihl & 0x0F) * 4;
        if vihl >> 4 != 4 || ihl < 20 || frame.len() < l3 + ihl {
            return None;
        }
        if checksum(&frame[l3..l3 + ihl]) != 0 {
            return None;
        }
        let flags_frag = be16(frame, l3 + 6);
        if flags_frag & 0x3FFF != 0 {
            // A fragment (MF set or nonzero offset): L4 offsets would
            // point into payload, so fragments are never cached.
            return None;
        }
        let proto = frame[l3 + 9];
        if proto != 6 && proto != 17 {
            return None;
        }
        let l4 = l3 + ihl;
        let min_l4 = if proto == 6 { 20 } else { 8 };
        if frame.len() < l4 + min_l4 {
            return None;
        }
        let fields = Fields {
            ingress: ingress.as_u32(),
            l3: l3 as u8,
            vlan_tci,
            frame_len: frame.len() as u32,
            eth_dst: frame[0..6].try_into().expect("6 bytes"),
            eth_src: frame[6..12].try_into().expect("6 bytes"),
            vihl,
            tos: frame[l3 + 1],
            total_len: be16(frame, l3 + 2),
            flags_frag,
            ttl: frame[l3 + 8],
            proto,
            src: u32::from(be16(frame, l3 + 12)) << 16 | u32::from(be16(frame, l3 + 14)),
            dst: u32::from(be16(frame, l3 + 16)) << 16 | u32::from(be16(frame, l3 + 18)),
            sport: be16(frame, l4),
            dport: be16(frame, l4 + 2),
        };
        Some(fields.pack())
    }

    /// The L3 (IPv4 header) offset within the frame.
    pub fn l3_offset(&self) -> usize {
        if self.0[4] & TAGGED != 0 {
            18
        } else {
            14
        }
    }
}

/// One recorded helper call whose effect a hit must repeat: the helper
/// plus the arguments it was called with. Within one coherence
/// generation helper results are deterministic functions of their
/// arguments, so a replayed call returns what was recorded and lands the
/// per-packet side effects interpretation would have had.
#[derive(Debug, Clone)]
pub enum HelperTouch {
    /// `bpf_nat_lookup` (counts a translation or reply hit).
    Nat {
        /// Source address.
        src: Ipv4Addr,
        /// Source port.
        sport: u16,
        /// Destination address.
        dst: Ipv4Addr,
        /// Destination port.
        dport: u16,
        /// IP protocol.
        proto: u8,
    },
    /// `bpf_l7_policy_lookup` (refreshes request/verdict counters and may
    /// pin a connection verdict). The payload window is recorded so a
    /// replayed parse counts exactly like the recorded one.
    L7 {
        /// Source address.
        src: Ipv4Addr,
        /// Source port.
        sport: u16,
        /// Destination address.
        dst: Ipv4Addr,
        /// Destination port.
        dport: u16,
        /// TCP payload window (bounded by the parse limit).
        payload: Vec<u8>,
        /// First payload byte the program loaded, if any.
        first: Option<u8>,
    },
}

/// Replays a recorded helper-call sequence against the live kernel.
///
/// Results are discarded — the cached verdict and rewrite ops already
/// encode them — but the calls' side effects land exactly as they would
/// under interpretation. No virtual time is charged: the hit price
/// ([`linuxfp_sim::CostModel::flowcache_hit_ns`]) covers the whole hit
/// path, which is the very cost the cache exists to elide.
pub fn replay_touches(touches: &[HelperTouch], kernel: &mut Kernel) {
    for touch in touches {
        match *touch {
            HelperTouch::Nat {
                src,
                sport,
                dst,
                dport,
                proto,
            } => {
                let _ = kernel.env_nat_lookup(src, sport, dst, dport, proto);
            }
            HelperTouch::L7 {
                src,
                sport,
                dst,
                dport,
                ref payload,
                first,
            } => {
                let _ = kernel.env_l7_lookup(src, sport, dst, dport, payload, first);
            }
        }
    }
}

/// A [`HelperEnv`] that delegates every call to the kernel and logs the
/// ones a hit must replay — the recorder half of the microflow cache.
pub struct RecordingEnv<'a> {
    inner: &'a mut Kernel,
    touches: Vec<HelperTouch>,
}

impl<'a> RecordingEnv<'a> {
    /// Wraps the kernel for one recorded program run. The log allocates
    /// on its first replayed call: router, gateway, ipvs and bridge
    /// recordings make none.
    pub fn new(inner: &'a mut Kernel) -> Self {
        RecordingEnv {
            inner,
            touches: Vec::new(),
        }
    }

    /// The recorded helper-call log.
    pub fn into_touches(self) -> Vec<HelperTouch> {
        self.touches
    }
}

impl HelperEnv for RecordingEnv<'_> {
    fn env_now(&self) -> Nanos {
        // Not recorded: programs that read the clock fail the static
        // cacheability contract, so a logged `now` could never be used.
        self.inner.env_now()
    }

    // The next four are not logged: repeated at the recording's `now`,
    // they would change nothing (see the module docs).

    fn env_fib_lookup(&mut self, dst: Ipv4Addr) -> Option<FibFastResult> {
        self.inner.env_fib_lookup(dst)
    }

    fn env_fdb_lookup(
        &mut self,
        ingress: IfIndex,
        src: MacAddr,
        dst: MacAddr,
        vlan: u16,
    ) -> FdbLookupOutcome {
        self.inner.env_fdb_lookup(ingress, src, dst, vlan)
    }

    fn env_ipt_lookup(&mut self, meta: &PacketMeta, tracker: &mut CostTracker) -> NfVerdict {
        self.inner.env_ipt_lookup(meta, tracker)
    }

    fn env_ct_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> Option<(Ipv4Addr, u16)> {
        self.inner.env_ct_lookup(src, sport, dst, dport, proto)
    }

    fn env_nat_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> NatLookupOutcome {
        self.touches.push(HelperTouch::Nat {
            src,
            sport,
            dst,
            dport,
            proto,
        });
        self.inner.env_nat_lookup(src, sport, dst, dport, proto)
    }

    fn env_l7_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        payload: &[u8],
        first: Option<u8>,
    ) -> L7LookupOutcome {
        self.touches.push(HelperTouch::L7 {
            src,
            sport,
            dst,
            dport,
            payload: payload.to_vec(),
            first,
        });
        self.inner
            .env_l7_lookup(src, sport, dst, dport, payload, first)
    }
}

/// One cached flow: the final hook verdict, the frame transformation, and
/// the helper calls to replay. Owned by its slab node; a hit borrows it
/// for as long as its owner holds the cache.
#[derive(Debug)]
pub struct FlowEntry {
    /// The verdict interpretation reached.
    pub verdict: HookVerdict,
    /// The net frame rewrite (MAC/IP/port sets + checksum deltas).
    pub ops: Vec<RewriteOp>,
    /// The helper-call log to replay for side-effect fidelity.
    pub touches: Vec<HelperTouch>,
}

#[derive(Debug, Clone, Default)]
struct CacheCounters {
    hits: Option<LocalCounter>,
    misses: Option<LocalCounter>,
    records: Option<LocalCounter>,
    inserts: Option<LocalCounter>,
    invalidations: Option<LocalCounter>,
    evictions: Option<LocalCounter>,
}

/// Adds `n` to a lifetime count and to its telemetry series, if wired.
fn bump(count: &mut u64, counter: &mut Option<LocalCounter>, n: u64) {
    *count += n;
    if let Some(c) = counter {
        c.add(n);
    }
}

/// Lifetime counters of one [`FlowCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Packets served from a recorded entry.
    pub hits: u64,
    /// Packets counted by [`FlowCache::note_miss`].
    pub misses: u64,
    /// Second-sighting misses whose program run was recorded.
    pub records: u64,
    /// Entries stored: recordings that passed every gate, and direct
    /// [`FlowCache::insert`]s.
    pub inserts: u64,
    /// Recorded entries dropped by a generation change (placeholders hold
    /// no recorded work and are not counted).
    pub invalidations: u64,
    /// Nodes, entries and placeholders alike, evicted by the capacity
    /// bound.
    pub evictions: u64,
}

/// Slab link meaning "no node": past either end of the recency list.
const NIL: u32 = u32::MAX;

/// One flow in the slab, threaded on the recency list. 56 bytes — the
/// packed key, the entry box and two links — so a node fits one cache
/// line.
#[derive(Debug)]
struct Node {
    key: FlowKey,
    /// The recorded flow, or `None` for a placeholder: a flow sighted once
    /// under the current generation, recorded on its next miss. The `Box`
    /// niche keeps the option pointer-sized.
    entry: Option<Box<FlowEntry>>,
    /// Neighbour used more recently (towards the head), or [`NIL`].
    prev: u32,
    /// Neighbour used less recently (towards the tail), or [`NIL`].
    next: u32,
}

/// Where [`FlowCache::find_or_place`] left a key.
enum Slot {
    /// The key already had this node.
    Found(u32),
    /// A new placeholder node for the key, now at the head.
    Placed(u32),
}

/// What [`FlowCache::probe`] found for one eligible packet.
#[derive(Debug)]
pub enum Probe<'a> {
    /// A recorded entry: serve its verdict. It borrows the cache, so the
    /// hit is served under whatever guards the cache.
    Hit(&'a FlowEntry),
    /// The flow's placeholder: this is its second sighting, so record the
    /// run and hand the result to [`FlowCache::record`].
    Admitted(Admission),
    /// First sighting under this generation: a placeholder now holds the
    /// flow's place; run the program unrecorded.
    FirstSighting,
}

/// A placeholder admitted for recording by [`FlowCache::probe`], redeemed
/// by [`FlowCache::record`].
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    slot: u32,
    generation: u64,
}

/// The per-hook microflow verdict cache.
///
/// Entries are valid for exactly one combined coherence generation; the
/// first access under a different generation clears the whole cache
/// (counted as one invalidation per dropped recorded entry). Capacity is
/// bounded; a new flow beyond it evicts the least-recently-used node.
///
/// Flows live in a slab of [`Node`]s found through a key → slot index
/// and threaded on a doubly-linked recency list. A node is a recorded
/// entry or a key-only placeholder; both take a slot and are evicted and
/// flushed alike. Every hit, sighting and insert moves its node to the
/// head, so the tail is always the flow whose last use is oldest — exact
/// LRU, with O(1) lookup, insert and evict. Nodes leave only by eviction
/// (the incoming flow reuses the slot) or by a whole-cache flush, so the
/// slab has no holes.
#[derive(Debug)]
pub struct FlowCache {
    index: WordMap<FlowKey, u32>,
    slab: Vec<Node>,
    /// Most recently used node, or [`NIL`] when empty.
    head: u32,
    /// Least recently used node — the next eviction victim.
    tail: u32,
    /// Nodes holding a recorded entry (the rest are placeholders).
    entries: usize,
    generation: u64,
    capacity: usize,
    stats: FlowCacheStats,
    counters: CacheCounters,
}

impl FlowCache {
    /// Creates an empty cache holding at most `capacity` flows; nothing
    /// is allocated before the first insert.
    pub fn new(capacity: usize) -> Self {
        FlowCache {
            index: WordMap::default(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            entries: 0,
            generation: 0,
            // Slots are addressed by `u32` with `NIL` reserved.
            capacity: capacity.clamp(1, NIL as usize),
            stats: FlowCacheStats::default(),
            counters: CacheCounters::default(),
        }
    }

    /// Resolves the cache's telemetry counters in `registry`, replacing any
    /// earlier wiring; every cache wired to one registry shares the series.
    /// The counts reach the series on [`FlowCache::publish_telemetry`].
    pub fn wire_telemetry(&mut self, registry: &Registry) {
        registry.describe(
            "linuxfp_flowcache_hits_total",
            "Packets whose verdict was served by the microflow cache",
        );
        registry.describe(
            "linuxfp_flowcache_misses_total",
            "Packets that took the interpreter (no valid cache entry)",
        );
        registry.describe(
            "linuxfp_flowcache_records_total",
            "Second-sighting misses whose program run was recorded",
        );
        registry.describe(
            "linuxfp_flowcache_inserts_total",
            "Recordings that passed every gate and were stored as entries",
        );
        registry.describe(
            "linuxfp_flowcache_invalidations_total",
            "Cache entries dropped by a coherence generation change",
        );
        registry.describe(
            "linuxfp_flowcache_evictions_total",
            "Cache entries and placeholders evicted by the capacity bound (LRU)",
        );
        let local = |name| Some(LocalCounter::new(registry.counter(name, &[])));
        self.counters = CacheCounters {
            hits: local("linuxfp_flowcache_hits_total"),
            misses: local("linuxfp_flowcache_misses_total"),
            records: local("linuxfp_flowcache_records_total"),
            inserts: local("linuxfp_flowcache_inserts_total"),
            invalidations: local("linuxfp_flowcache_invalidations_total"),
            evictions: local("linuxfp_flowcache_evictions_total"),
        };
    }

    /// Publishes the counts made since the last publish into the wired
    /// telemetry series. The cache counts in plain integers, as one
    /// shard's own; its owner publishes before the registry is read, and
    /// dropping or rewiring the cache publishes too.
    pub fn publish_telemetry(&mut self) {
        let c = &mut self.counters;
        for counter in [
            &mut c.hits,
            &mut c.misses,
            &mut c.records,
            &mut c.inserts,
            &mut c.invalidations,
            &mut c.evictions,
        ]
        .into_iter()
        .flatten()
        {
            counter.publish();
        }
    }

    fn validate(&mut self, generation: u64) {
        if self.generation != generation {
            bump(
                &mut self.stats.invalidations,
                &mut self.counters.invalidations,
                self.entries as u64,
            );
            self.index.clear();
            self.slab.clear();
            self.head = NIL;
            self.tail = NIL;
            self.entries = 0;
            self.generation = generation;
        }
    }

    /// Finds `key`'s node, or places a placeholder for it at the head —
    /// evicting the tail when the cache is full — with one index probe.
    fn find_or_place(&mut self, key: FlowKey) -> Slot {
        let evict = self.slab.len() >= self.capacity;
        let i = match self.index.entry(key) {
            Entry::Occupied(o) => return Slot::Found(*o.get()),
            // Full: the tail is the victim; its slot takes the new flow.
            Entry::Vacant(v) => *v.insert(if evict {
                self.tail
            } else {
                self.slab.len() as u32
            }),
        };
        let node = Node {
            key,
            entry: None,
            prev: NIL,
            next: NIL,
        };
        if evict {
            self.unlink(i);
            let evicted = std::mem::replace(&mut self.slab[i as usize], node);
            self.index.remove(&evicted.key);
            if evicted.entry.is_some() {
                self.entries -= 1;
            }
            bump(&mut self.stats.evictions, &mut self.counters.evictions, 1);
        } else {
            self.slab.push(node);
        }
        self.push_front(i);
        Slot::Placed(i)
    }

    /// Takes node `i` out of the recency list (its own links go stale).
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.slab[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Makes the unlinked node `i` the most recently used.
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        let node = &mut self.slab[i as usize];
        (node.prev, node.next) = (NIL, old_head);
        match old_head {
            NIL => self.tail = i,
            h => self.slab[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Moves node `i` to the head, unless back-to-back packets left it there.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Counts a hit on node `i` and refreshes its LRU position.
    fn note_hit(&mut self, i: u32) {
        self.touch(i);
        bump(&mut self.stats.hits, &mut self.counters.hits, 1);
    }

    /// Looks up a recorded flow under the given combined generation,
    /// never serving a placeholder. Counts a hit and refreshes the entry's
    /// LRU position on success; **does not** count a miss (the caller
    /// counts misses via [`FlowCache::note_miss`] so ineligible packets
    /// are part of the ledger too).
    pub fn lookup(&mut self, generation: u64, key: &FlowKey) -> Option<&FlowEntry> {
        self.validate(generation);
        let i = *self.index.get(key)?;
        if self.slab[i as usize].entry.is_some() {
            self.note_hit(i);
        }
        self.slab[i as usize].entry.as_deref()
    }

    /// The data path's lookup: serves a recorded entry, admits a flow's
    /// second sighting for recording, or places a placeholder on its
    /// first — with one index probe either way. Like
    /// [`FlowCache::lookup`] it counts hits but not misses.
    pub fn probe(&mut self, generation: u64, key: &FlowKey) -> Probe<'_> {
        self.validate(generation);
        let i = match self.find_or_place(*key) {
            Slot::Placed(_) => return Probe::FirstSighting,
            Slot::Found(i) => i,
        };
        if self.slab[i as usize].entry.is_some() {
            self.note_hit(i);
        } else {
            self.touch(i);
        }
        match self.slab[i as usize].entry.as_deref() {
            Some(entry) => Probe::Hit(entry),
            None => Probe::Admitted(Admission {
                slot: i,
                generation,
            }),
        }
    }

    /// Finishes an admitted miss: counts one recording and, when the
    /// recording passed every gate (`entry` is `Some`), fills the flow's
    /// placeholder in place. A placeholder the cache no longer holds for
    /// `key` under the admitting generation is left alone.
    pub fn record(&mut self, admission: Admission, key: &FlowKey, entry: Option<FlowEntry>) {
        bump(&mut self.stats.records, &mut self.counters.records, 1);
        let Some(entry) = entry else {
            return;
        };
        if self.generation != admission.generation {
            return;
        }
        match self.slab.get_mut(admission.slot as usize) {
            Some(node) if node.key == *key && node.entry.is_none() => {
                node.entry = Some(Box::new(entry));
                self.entries += 1;
                bump(&mut self.stats.inserts, &mut self.counters.inserts, 1);
            }
            _ => {}
        }
    }

    /// Counts one cache miss (entry absent, stale, or packet ineligible).
    pub fn note_miss(&mut self) {
        bump(&mut self.stats.misses, &mut self.counters.misses, 1);
    }

    /// Stores a recorded flow under the given combined generation without
    /// waiting for a second sighting, replacing the flow's placeholder or
    /// entry in place, else evicting the least-recently-used node if the
    /// cache is full.
    pub fn insert(&mut self, generation: u64, key: FlowKey, entry: FlowEntry) {
        self.validate(generation);
        let i = match self.find_or_place(key) {
            Slot::Found(i) => {
                self.touch(i);
                i
            }
            Slot::Placed(i) => i,
        };
        if self.slab[i as usize]
            .entry
            .replace(Box::new(entry))
            .is_none()
        {
            self.entries += 1;
        }
        bump(&mut self.stats.inserts, &mut self.counters.inserts, 1);
    }

    /// Recorded entry count; placeholders are not entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache holds no recorded entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The combined coherence generation the current entries are valid
    /// under. A lookup under a different generation will flush first —
    /// comparing this *before* the lookup distinguishes an invalidation
    /// miss from a cold miss.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FlowCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_packet::{builder, SeededState};
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    fn frame(sport: u16) -> Vec<u8> {
        builder::udp_packet(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            53,
            b"payload",
        )
    }

    fn entry() -> FlowEntry {
        FlowEntry {
            verdict: HookVerdict::Drop,
            ops: vec![],
            touches: vec![],
        }
    }

    #[test]
    fn key_pins_flow_identity_not_packet_identity() {
        let a = FlowKey::extract(&frame(1000), IfIndex(1)).unwrap();
        // Same flow, different IPv4 id + checksum: identical key.
        let mut sibling = frame(1000);
        sibling[14 + 4] = 0xAB;
        sibling[14 + 5] = 0xCD;
        // Fix the header checksum for the new id.
        sibling[14 + 10] = 0;
        sibling[14 + 11] = 0;
        let csum = checksum(&sibling[14..14 + 20]);
        sibling[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(FlowKey::extract(&sibling, IfIndex(1)), Some(a));
        // Different port: different key. Different ingress: different key.
        assert_ne!(FlowKey::extract(&frame(1001), IfIndex(1)), Some(a));
        assert_ne!(FlowKey::extract(&frame(1000), IfIndex(2)), Some(a));
        assert_eq!(a.l3_offset(), 14);
    }

    #[test]
    fn ineligible_packets_have_no_key() {
        // Too short.
        assert!(FlowKey::extract(&[0u8; 10], IfIndex(1)).is_none());
        // Non-IPv4 ethertype (ARP).
        let mut arp = frame(1);
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert!(FlowKey::extract(&arp, IfIndex(1)).is_none());
        // Corrupt IP header checksum.
        let mut bad = frame(1);
        bad[14 + 10] ^= 0xFF;
        assert!(FlowKey::extract(&bad, IfIndex(1)).is_none());
        // Fragment (MF bit).
        let mut frag = frame(1);
        frag[14 + 6] = 0x20;
        frag[14 + 10] = 0;
        frag[14 + 11] = 0;
        let csum = checksum(&frag[14..14 + 20]);
        frag[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        assert!(FlowKey::extract(&frag, IfIndex(1)).is_none());
        // Non-TCP/UDP protocol (ICMP).
        let mut icmp = frame(1);
        icmp[14 + 9] = 1;
        icmp[14 + 10] = 0;
        icmp[14 + 11] = 0;
        let csum = checksum(&icmp[14..14 + 20]);
        icmp[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        assert!(FlowKey::extract(&icmp, IfIndex(1)).is_none());
    }

    fn key(sport: u16) -> FlowKey {
        FlowKey::extract(&frame(sport), IfIndex(1)).unwrap()
    }

    #[test]
    fn node_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Node>(), 56);
    }

    /// A valid key's fields: a tagged TCP frame, every field nonzero.
    fn base_fields() -> Fields {
        Fields {
            ingress: 7,
            l3: 18,
            vlan_tci: 0x0123,
            frame_len: 90,
            eth_dst: [2, 1, 2, 3, 4, 5],
            eth_src: [2, 6, 7, 8, 9, 10],
            vihl: 0x46,
            tos: 0x10,
            total_len: 72,
            flags_frag: 0x4000,
            ttl: 64,
            proto: 6,
            src: 0x0a00_0001,
            dst: 0x0a00_0102,
            sport: 1234,
            dport: 80,
        }
    }

    #[test]
    fn every_field_is_in_the_packed_key() {
        let hasher = SeededState::with_seed(0x5eed);
        let base = base_fields();
        // One variant per field, each differing from the base in that
        // field alone, within the values `extract` admits for it.
        let variants: [(&str, Fields); 16] = [
            ("ingress", Fields { ingress: 8, ..base }),
            ("l3", Fields { l3: 14, ..base }),
            (
                "vlan_tci",
                Fields {
                    vlan_tci: 0x0124,
                    ..base
                },
            ),
            (
                "frame_len",
                Fields {
                    frame_len: 91,
                    ..base
                },
            ),
            (
                "eth_dst",
                Fields {
                    eth_dst: [3, 1, 2, 3, 4, 5],
                    ..base
                },
            ),
            (
                "eth_src",
                Fields {
                    eth_src: [2, 6, 7, 8, 9, 11],
                    ..base
                },
            ),
            ("vihl", Fields { vihl: 0x45, ..base }),
            ("tos", Fields { tos: 0x11, ..base }),
            (
                "total_len",
                Fields {
                    total_len: 73,
                    ..base
                },
            ),
            (
                "flags_frag",
                Fields {
                    flags_frag: 0x8000,
                    ..base
                },
            ),
            ("ttl", Fields { ttl: 63, ..base }),
            ("proto", Fields { proto: 17, ..base }),
            (
                "src",
                Fields {
                    src: 0x8a00_0001,
                    ..base
                },
            ),
            (
                "dst",
                Fields {
                    dst: 0x0a00_0103,
                    ..base
                },
            ),
            (
                "sport",
                Fields {
                    sport: 1235,
                    ..base
                },
            ),
            (
                "dport",
                Fields {
                    dport: 0x8050,
                    ..base
                },
            ),
        ];
        let key = base.pack();
        for (field, variant) in variants {
            assert_ne!(variant, base, "{field}: the variant must differ");
            let other = variant.pack();
            assert_ne!(other, key, "{field} is not in the key");
            assert_ne!(
                hasher.hash_one(other),
                hasher.hash_one(key),
                "{field} does not reach the hash"
            );
        }
        assert_eq!(key.l3_offset(), 18);
        assert_eq!(Fields { l3: 14, ..base }.pack().l3_offset(), 14);
    }

    #[test]
    fn thrash_shaped_keys_do_not_collide_and_spread_over_buckets() {
        // 5,000 flows as a thrashing router sees them: one client, one
        // destination port, consecutive source ports over many hosts.
        let keys: Vec<FlowKey> = (0..5000u32)
            .map(|i| {
                let frame = builder::udp_packet_sized(
                    MacAddr::from_index(1),
                    MacAddr::from_index(2),
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 1, (i % 250) as u8, 1),
                    1024 + i as u16,
                    4791,
                    60,
                );
                FlowKey::extract(&frame, IfIndex(1)).unwrap()
            })
            .collect();
        for seed in [0, 1, 0x5eed, u64::MAX] {
            let hasher = SeededState::with_seed(seed);
            let mut hashes: Vec<u64> = keys.iter().map(|k| hasher.hash_one(k)).collect();
            // The low 12 bits pick one of 4,096 buckets: Pearson's χ² over
            // them has 4,095 degrees of freedom (mean 4,095, sd ≈ 90.5);
            // six sd above the mean is the bound.
            let mut buckets = vec![0u32; 4096];
            for h in &hashes {
                buckets[(h & 0xFFF) as usize] += 1;
            }
            let expected = keys.len() as f64 / 4096.0;
            let chi2: f64 = buckets
                .iter()
                .map(|&n| (f64::from(n) - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < 4095.0 + 6.0 * 90.5, "seed {seed}: χ² {chi2:.0}");
            hashes.sort_unstable();
            hashes.dedup();
            assert_eq!(hashes.len(), keys.len(), "seed {seed}: 64-bit collision");
        }
    }

    #[test]
    fn flows_are_recorded_on_their_second_sighting() {
        let mut cache = FlowCache::new(16);
        let k = key(1);
        // First sighting: a placeholder, no entry, nothing to serve.
        assert!(matches!(cache.probe(3, &k), Probe::FirstSighting));
        assert!(cache.is_empty());
        assert!(cache.lookup(3, &k).is_none());
        // Second sighting: admitted; the recording fills the node in place.
        let Probe::Admitted(admission) = cache.probe(3, &k) else {
            panic!("second sighting must be admitted");
        };
        cache.record(admission, &k, Some(entry()));
        assert_eq!(cache.len(), 1);
        // Third: a hit, through either door.
        assert!(matches!(cache.probe(3, &k), Probe::Hit(_)));
        assert!(cache.lookup(3, &k).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.records, stats.inserts), (2, 1, 1));
        // A recording that fails a gate counts, stores nothing, and leaves
        // the placeholder to be admitted again.
        let k2 = key(2);
        assert!(matches!(cache.probe(3, &k2), Probe::FirstSighting));
        let Probe::Admitted(admission) = cache.probe(3, &k2) else {
            panic!("second sighting must be admitted");
        };
        cache.record(admission, &k2, None);
        assert!(matches!(cache.probe(3, &k2), Probe::Admitted(_)));
        let stats = cache.stats();
        assert_eq!((stats.records, stats.inserts, cache.len()), (2, 1, 1));
    }

    #[test]
    fn generation_change_clears_all_entries() {
        let mut cache = FlowCache::new(16);
        let (k1, k2) = (key(1), key(2));
        cache.insert(7, k1, entry());
        assert!(matches!(cache.probe(7, &k2), Probe::FirstSighting));
        assert!(cache.lookup(7, &k1).is_some());
        // Same generation: both nodes there. New generation: both gone,
        // but only the recorded entry counts as an invalidation.
        assert_eq!((cache.len(), cache.slab.len()), (1, 2));
        assert!(cache.lookup(8, &k1).is_none());
        assert!(cache.is_empty());
        assert!(cache.slab.is_empty() && cache.index.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.invalidations), (1, 1));
        // The placeholder did not survive either: k2 is a first sighting.
        assert!(matches!(cache.probe(8, &k2), Probe::FirstSighting));
        // An admission from before a flush fills nothing after it.
        let Probe::Admitted(stale) = cache.probe(8, &k2) else {
            panic!("second sighting must be admitted");
        };
        assert!(matches!(cache.probe(9, &k2), Probe::FirstSighting));
        cache.record(stale, &k2, Some(entry()));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut cache = FlowCache::new(2);
        let (k1, k2, k3) = (key(1), key(2), key(3));
        cache.insert(0, k1, entry());
        cache.insert(0, k2, entry());
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.lookup(0, &k1).is_some());
        cache.insert(0, k3, entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(0, &k2).is_none());
        assert!(cache.lookup(0, &k1).is_some());
        assert!(cache.lookup(0, &k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn placeholders_take_an_lru_slot_and_are_evicted_like_entries() {
        let mut cache = FlowCache::new(2);
        let (k1, k2, k3) = (key(1), key(2), key(3));
        cache.insert(0, k1, entry());
        // A placeholder takes the second slot and is now the most recent.
        assert!(matches!(cache.probe(0, &k2), Probe::FirstSighting));
        // A third flow evicts the least recently used node: the entry.
        assert!(matches!(cache.probe(0, &k3), Probe::FirstSighting));
        assert!(cache.lookup(0, &k1).is_none());
        assert_eq!(
            (cache.len(), cache.slab.len(), cache.stats().evictions),
            (0, 2, 1)
        );
        // A fourth evicts the oldest placeholder, k2: its return is a
        // first sighting again, while k3's is admitted.
        assert!(matches!(cache.probe(0, &k1), Probe::FirstSighting));
        assert!(matches!(cache.probe(0, &k3), Probe::Admitted(_)));
        assert!(matches!(cache.probe(0, &k2), Probe::FirstSighting));
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().invalidations, 0);
        assert_list_integrity(&cache);
    }

    #[test]
    fn a_scan_larger_than_the_cache_never_records() {
        // Cyclic flows one more than the capacity: each is evicted just
        // before it returns, so every sighting is a first one.
        let mut cache = FlowCache::new(64);
        let keys: Vec<FlowKey> = (0..65).map(|p| key(1000 + p)).collect();
        for _ in 0..4 {
            for k in &keys {
                assert!(matches!(cache.probe(0, k), Probe::FirstSighting));
            }
        }
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.records, stats.inserts), (0, 0, 0));
    }

    /// What the oracle holds per flow: last-use tick, and whether the
    /// node is a recorded entry (else a placeholder).
    type OracleNode = (u64, bool);

    /// The pre-slab implementation, kept as the reference oracle: a tick
    /// per access and an O(capacity) scan for the smallest one on
    /// eviction. Ticks are unique and monotone, so "smallest tick" and
    /// "tail of the recency list" must name the same flow every time.
    struct MinScanCache {
        nodes: HashMap<FlowKey, OracleNode>,
        generation: u64,
        tick: u64,
        capacity: usize,
        hits: u64,
        records: u64,
        inserts: u64,
        invalidations: u64,
        evictions: u64,
    }

    impl MinScanCache {
        fn new(capacity: usize) -> Self {
            MinScanCache {
                nodes: HashMap::new(),
                generation: 0,
                tick: 0,
                capacity: capacity.max(1),
                hits: 0,
                records: 0,
                inserts: 0,
                invalidations: 0,
                evictions: 0,
            }
        }

        fn validate(&mut self, generation: u64) {
            if self.generation != generation {
                self.invalidations += self.nodes.values().filter(|(_, rec)| *rec).count() as u64;
                self.nodes.clear();
                self.generation = generation;
            }
        }

        fn entries(&self) -> usize {
            self.nodes.values().filter(|(_, rec)| *rec).count()
        }

        /// Stamps `key`'s node with a fresh tick, first making room for a
        /// new placeholder if the key has none. Returns the node.
        fn place(&mut self, key: FlowKey) -> &mut OracleNode {
            if self.nodes.len() >= self.capacity && !self.nodes.contains_key(&key) {
                if let Some(victim) = self
                    .nodes
                    .iter()
                    .min_by_key(|(_, (last_used, _))| *last_used)
                    .map(|(k, _)| *k)
                {
                    self.nodes.remove(&victim);
                    self.evictions += 1;
                }
            }
            self.tick += 1;
            let tick = self.tick;
            let node = self.nodes.entry(key).or_insert((tick, false));
            node.0 = tick;
            node
        }

        fn lookup(&mut self, generation: u64, key: &FlowKey) -> bool {
            self.validate(generation);
            self.tick += 1;
            let tick = self.tick;
            match self.nodes.get_mut(key) {
                Some((last_used, true)) => {
                    *last_used = tick;
                    self.hits += 1;
                    true
                }
                _ => false,
            }
        }

        /// `Some(recorded)` if the key had a node, `None` on a first
        /// sighting.
        fn probe(&mut self, generation: u64, key: FlowKey) -> Option<bool> {
            self.validate(generation);
            let existed = self.nodes.contains_key(&key);
            let recorded = self.place(key).1;
            if recorded {
                self.hits += 1;
            }
            existed.then_some(recorded)
        }

        fn record(&mut self, key: FlowKey, stored: bool) {
            self.records += 1;
            if stored {
                self.nodes.get_mut(&key).expect("admitted node").1 = true;
                self.inserts += 1;
            }
        }

        fn insert(&mut self, generation: u64, key: FlowKey) {
            self.validate(generation);
            self.place(key).1 = true;
            self.inserts += 1;
        }
    }

    /// Walks the recency list both ways and checks it against the index
    /// and the slab: same node count, mirrored order, every node indexed
    /// under its own key, and the entry count matching the filled nodes.
    fn assert_list_integrity(cache: &FlowCache) {
        let nodes = cache.slab.len();
        let mut forward = Vec::new();
        let mut i = cache.head;
        while i != NIL {
            forward.push(i);
            assert!(forward.len() <= nodes, "cycle walking head -> tail");
            i = cache.slab[i as usize].next;
        }
        let mut backward = Vec::new();
        let mut i = cache.tail;
        while i != NIL {
            backward.push(i);
            assert!(backward.len() <= nodes, "cycle walking tail -> head");
            i = cache.slab[i as usize].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), nodes);
        assert_eq!(cache.index.len(), nodes);
        for &i in &forward {
            assert_eq!(cache.index.get(&cache.slab[i as usize].key), Some(&i));
        }
        let filled = cache.slab.iter().filter(|n| n.entry.is_some()).count();
        assert_eq!(cache.len(), filled);
    }

    #[test]
    fn slab_lru_matches_the_min_scan_oracle() {
        use linuxfp_sim::SimRng;
        for capacity in [1usize, 2, 3, 64] {
            // Enough distinct flows that placements hit all three cases:
            // new key with room, existing key, new key at capacity.
            let keys: Vec<FlowKey> = (0..capacity as u16 * 2 + 3)
                .map(|p| key(1000 + p))
                .collect();
            for seed in 0..4 {
                let mut rng = SimRng::seed(seed * 31 + capacity as u64);
                let mut cache = FlowCache::new(capacity);
                let mut oracle = MinScanCache::new(capacity);
                let mut generation = 0u64;
                for _ in 0..2000 {
                    let key = *rng.choose(&keys);
                    match rng.uniform_u64(1000) {
                        0..=2 => generation += 1,
                        3..=199 => {
                            cache.insert(generation, key, entry());
                            oracle.insert(generation, key);
                        }
                        200..=599 => {
                            let hit = cache.lookup(generation, &key).is_some();
                            assert_eq!(hit, oracle.lookup(generation, &key));
                            if !hit {
                                cache.note_miss();
                            }
                        }
                        // The data path: probe, and finish an admission
                        // with a recording that passes its gates or not.
                        draw => {
                            match (cache.probe(generation, &key), oracle.probe(generation, key)) {
                                (Probe::Hit(_), Some(true)) | (Probe::FirstSighting, None) => {}
                                (Probe::Admitted(admission), Some(false)) => {
                                    let stored = draw % 4 != 0;
                                    cache.record(admission, &key, stored.then(entry));
                                    oracle.record(key, stored);
                                }
                                (got, want) => panic!("probe {got:?}, oracle {want:?}"),
                            }
                        }
                    }
                    // Same resident set after every step: whenever one
                    // evicted, both evicted the same victim.
                    assert_eq!(cache.slab.len(), oracle.nodes.len());
                    assert_eq!(cache.len(), oracle.entries());
                    for k in &keys {
                        assert_eq!(
                            cache.index.contains_key(k),
                            oracle.nodes.contains_key(k),
                            "capacity {capacity} seed {seed}: resident sets differ"
                        );
                    }
                    let s = cache.stats();
                    assert_eq!(
                        (s.hits, s.records, s.inserts, s.invalidations, s.evictions),
                        (
                            oracle.hits,
                            oracle.records,
                            oracle.inserts,
                            oracle.invalidations,
                            oracle.evictions
                        )
                    );
                    assert_list_integrity(&cache);
                }
                let s = cache.stats();
                assert!(s.evictions > 0, "capacity {capacity}: never evicted");
                assert!(s.records > 0, "capacity {capacity}: never recorded");
            }
        }
    }

    #[test]
    fn idle_cache_allocates_nothing_and_flush_resets_the_list() {
        let mut cache = FlowCache::new(DEFAULT_CAPACITY);
        assert_eq!(cache.slab.capacity(), 0);
        assert_eq!(cache.index.capacity(), 0);
        let (k1, k2) = (key(1), key(2));
        cache.insert(0, k1, entry());
        cache.insert(0, k2, entry());
        // The slab grows with the flows it holds, not to the bound: a
        // shard that sees 100 flows must not pay for 4,096.
        assert!(cache.slab.capacity() < 16);
        // A generation bump drops both (two invalidations) and leaves an
        // empty, reusable list.
        cache.insert(1, k1, entry());
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!((cache.len(), cache.head, cache.tail), (1, 0, 0));
        assert_list_integrity(&cache);
    }

    #[test]
    fn recording_env_delegates_every_call_and_logs_only_nat_and_l7() {
        use linuxfp_netstack::netfilter::{ChainHook, IptRule};
        use linuxfp_netstack::stack::IfAddr;
        use linuxfp_packet::ipv4::{IpProto, Prefix};
        let mut k = Kernel::new(1);
        let eth0 = k.add_physical("eth0").unwrap();
        k.ip_addr_add(eth0, "10.0.0.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        let (peer, peer_mac) = (Ipv4Addr::new(10, 0, 0, 9), MacAddr::from_index(9));
        let now = k.now();
        k.neigh.learn(peer, peer_mac, eth0, now);
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 0, 0, 6));
        k.iptables_append(ChainHook::Forward, IptRule::drop_dst(Prefix::new(b, 32)));
        let meta = PacketMeta {
            src: a,
            dst: b,
            proto: IpProto::Udp,
            sport: 1,
            dport: 2,
            in_if: eth0,
            out_if: IfIndex::NONE,
        };
        let mut env = RecordingEnv::new(&mut k);
        // Delegated: the recording run sees what the kernel answers.
        let fib = env.env_fib_lookup(peer).expect("a resolved next hop");
        assert_eq!((fib.ifindex, fib.dst_mac), (eth0, peer_mac));
        assert!(env.env_ct_lookup(a, 1, b, 2, 17).is_none());
        let mut tracker = CostTracker::new();
        assert_eq!(env.env_ipt_lookup(&meta, &mut tracker), NfVerdict::Drop);
        assert!(tracker.total_ns() > 0.0, "the walk is priced");
        assert_eq!(
            env.env_fdb_lookup(eth0, MacAddr::from_index(1), MacAddr::from_index(2), 1),
            FdbLookupOutcome::SrcUnknown
        );
        // Logged: only the two touches with a per-packet effect.
        assert!(env.touches.is_empty(), "a lookup-only run logs nothing");
        let _ = env.env_nat_lookup(a, 1, b, 2, 17);
        let _ = env.env_l7_lookup(a, 1, b, 80, b"GET / HTTP/1.1\r\n", Some(b'G'));
        let touches = env.into_touches();
        assert!(matches!(
            touches[..],
            [
                HelperTouch::Nat { sport: 1, .. },
                HelperTouch::L7 { dport: 80, .. }
            ]
        ));
        replay_touches(&touches, &mut k);
    }
}
