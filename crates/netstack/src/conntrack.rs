//! Connection tracking: 5-tuple flow table with states and timeouts.
//!
//! In the LinuxFP split, conntrack *lookup* is fast-path work while entry
//! *creation* and lifecycle management stay in the slow path (paper
//! Table I, Netfilter and ipvs rows). The ipvs-style load-balancer
//! extension (paper §VIII future work) relies on this table for flow
//! affinity.

use linuxfp_packet::ipv4::IpProto;
use linuxfp_packet::WordMap;
use linuxfp_sim::Nanos;
use linuxfp_telemetry::Counter;
use std::net::Ipv4Addr;

/// A normalized flow key: the 5-tuple with the lower endpoint first so
/// both directions of a connection map to the same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    a_addr: Ipv4Addr,
    a_port: u16,
    b_addr: Ipv4Addr,
    b_port: u16,
    proto: u8,
}

impl FlowKey {
    /// Builds a normalized key from one direction of a flow.
    pub fn new(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, proto: IpProto) -> Self {
        if (src, sport) <= (dst, dport) {
            FlowKey {
                a_addr: src,
                a_port: sport,
                b_addr: dst,
                b_port: dport,
                proto: proto.to_u8(),
            }
        } else {
            FlowKey {
                a_addr: dst,
                a_port: dport,
                b_addr: src,
                b_port: sport,
                proto: proto.to_u8(),
            }
        }
    }
}

/// A *directional* 5-tuple used by the NAT machinery. Unlike
/// [`FlowKey`] it is not normalized: DNAT/SNAT translations are
/// direction-specific, so the original and reply directions get their
/// own entries in the NAT binding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NatTuple {
    /// Source address.
    pub src: Ipv4Addr,
    /// Source port (0 for port-less protocols).
    pub sport: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl NatTuple {
    /// Builds a tuple from one packet direction.
    pub fn new(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, proto: u8) -> Self {
        NatTuple {
            src,
            sport,
            dst,
            dport,
            proto,
        }
    }

    /// The same flow seen from the other direction.
    pub fn reversed(&self) -> NatTuple {
        NatTuple {
            src: self.dst,
            sport: self.dport,
            dst: self.src,
            dport: self.sport,
            proto: self.proto,
        }
    }
}

/// One direction of an installed NAT binding.
#[derive(Debug, Clone, Copy)]
struct NatBinding {
    /// The fully translated tuple for packets matching the entry key.
    xlat: NatTuple,
    /// Whether this entry translates the reply direction.
    reply: bool,
    /// A masquerade port owned by this entry, returned to the allocator
    /// when the binding dies (only set on the original direction).
    owns_port: Option<u16>,
    last_seen: Nanos,
}

/// What a NAT binding lookup tells the translator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NatRewrite {
    /// The tuple the packet must be rewritten to.
    pub xlat: NatTuple,
    /// Whether this is the reply direction being un-translated.
    pub reply: bool,
}

/// Tracking state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtState {
    /// First packet seen, no reply yet.
    New,
    /// Traffic seen in both directions.
    Established,
}

/// One tracked connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtEntry {
    /// Current state.
    pub state: CtState,
    /// Originating source address (direction that created the entry).
    pub orig_src: Ipv4Addr,
    /// Last packet time, used for expiry.
    pub last_seen: Nanos,
    /// Optional NAT / load-balancer selected backend (ipvs extension).
    pub backend: Option<(Ipv4Addr, u16)>,
}

/// The connection tracking table.
///
/// # Example
///
/// ```
/// use linuxfp_netstack::conntrack::{Conntrack, CtState, FlowKey};
/// use linuxfp_packet::ipv4::IpProto;
/// use linuxfp_sim::Nanos;
/// use std::net::Ipv4Addr;
///
/// let mut ct = Conntrack::new();
/// let a = Ipv4Addr::new(10, 0, 0, 1);
/// let b = Ipv4Addr::new(10, 0, 0, 2);
/// // First packet creates a NEW entry (slow-path work).
/// let st = ct.track(a, 1000, b, 80, IpProto::Tcp, Nanos::ZERO);
/// assert_eq!(st, CtState::New);
/// // The reply direction establishes it.
/// let st = ct.track(b, 80, a, 1000, IpProto::Tcp, Nanos::from_millis(1));
/// assert_eq!(st, CtState::Established);
/// assert_eq!(ct.lookup(&FlowKey::new(a, 1000, b, 80, IpProto::Tcp), Nanos::from_millis(2)).unwrap().state, CtState::Established);
/// ```
#[derive(Debug, Clone)]
pub struct Conntrack {
    entries: WordMap<FlowKey, CtEntry>,
    /// Per-direction NAT bindings (iptables `nat` table state).
    nat: WordMap<NatTuple, NatBinding>,
    /// Masquerade ports freed by lazy expiry, drained by the owner of
    /// the port allocator.
    freed_nat_ports: Vec<u16>,
    /// Idle timeout for `New` entries.
    pub new_timeout: Nanos,
    /// Idle timeout for `Established` entries.
    pub established_timeout: Nanos,
    /// Flow-table capacity (`net.netfilter.nf_conntrack_max`): inserting
    /// past this evicts the oldest entry instead of growing unboundedly.
    pub max_entries: usize,
    /// NAT binding-table capacity in *directional* entries (a binding
    /// pair occupies two). Installing past this evicts the
    /// least-recently-seen pair instead of growing unboundedly, exactly
    /// like the flow map above.
    pub max_nat_entries: usize,
    evictions: u64,
    nat_evictions: u64,
    eviction_counter: Option<Counter>,
    nat_eviction_counter: Option<Counter>,
    /// ipvs backends unpinned by flow eviction, drained by the owner of
    /// the ipvs subsystem so `Backend::active` can be decremented.
    freed_backends: Vec<(Ipv4Addr, u16)>,
    /// Monotonic generation, bumped on every change a fast-path helper
    /// could observe: entry/binding removal (eviction, lazy expiry, GC),
    /// backend pinning, and NAT binding installs. Plain entry creation
    /// and `last_seen` refreshes do not bump it — `bpf_ct_lookup` and
    /// `bpf_nat_lookup` return identical results either way. Consumed by
    /// the microflow verdict cache's coherence check.
    generation: u64,
}

impl Conntrack {
    /// Creates an empty table with Linux-like timeouts (60 s NEW,
    /// 432000 s established is unrealistic to simulate; we use 600 s)
    /// and a 65536-entry capacity.
    pub fn new() -> Self {
        Conntrack {
            entries: WordMap::default(),
            nat: WordMap::default(),
            freed_nat_ports: Vec::new(),
            new_timeout: Nanos::from_secs(60),
            established_timeout: Nanos::from_secs(600),
            max_entries: 65536,
            max_nat_entries: 65536,
            evictions: 0,
            nat_evictions: 0,
            eviction_counter: None,
            nat_eviction_counter: None,
            freed_backends: Vec::new(),
            generation: 0,
        }
    }

    /// The coherence generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Counts capacity evictions into `counter` as well as the local
    /// [`Conntrack::evictions`] tally.
    pub fn set_eviction_counter(&mut self, counter: Counter) {
        self.eviction_counter = Some(counter);
    }

    /// Counts NAT-binding capacity evictions into `counter` as well as
    /// the local [`Conntrack::nat_evictions`] tally.
    pub fn set_nat_eviction_counter(&mut self, counter: Counter) {
        self.nat_eviction_counter = Some(counter);
    }

    /// Entries evicted because the table was at [`Conntrack::max_entries`].
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Binding pairs evicted because the NAT table was at
    /// [`Conntrack::max_nat_entries`].
    pub fn nat_evictions(&self) -> u64 {
        self.nat_evictions
    }

    /// Processes one packet: creates the entry on first sight, upgrades to
    /// `Established` when the reply direction is seen. Returns the state
    /// *after* processing.
    pub fn track(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: IpProto,
        now: Nanos,
    ) -> CtState {
        let key = FlowKey::new(src, sport, dst, dport, proto);
        match self.entries.get_mut(&key) {
            Some(entry)
                if !Self::expired(entry, self.new_timeout, self.established_timeout, now) =>
            {
                entry.last_seen = now;
                if entry.state == CtState::New && entry.orig_src != src {
                    entry.state = CtState::Established;
                }
                entry.state
            }
            _ => {
                if !self.entries.contains_key(&key) && self.entries.len() >= self.max_entries {
                    self.evict_oldest();
                }
                self.entries.insert(
                    key,
                    CtEntry {
                        state: CtState::New,
                        orig_src: src,
                        last_seen: now,
                        backend: None,
                    },
                );
                CtState::New
            }
        }
    }

    /// Removes the least-recently-seen entry (deterministic tie-break on
    /// the key) to make room at capacity. The flow's companion state goes
    /// with it: paired NAT bindings are evicted (returning any owned
    /// masquerade port to the freed list) and a pinned ipvs backend is
    /// parked for the scheduler to unpin — a forgotten flow must not keep
    /// a port or a connection slot bound forever.
    fn evict_oldest(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(k, e)| (e.last_seen, k.a_addr, k.a_port, k.b_addr, k.b_port, k.proto))
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            self.generation = self.generation.wrapping_add(1);
            let entry = self.entries.remove(&k).expect("victim present");
            for tuple in [
                NatTuple::new(k.a_addr, k.a_port, k.b_addr, k.b_port, k.proto),
                NatTuple::new(k.b_addr, k.b_port, k.a_addr, k.a_port, k.proto),
            ] {
                self.nat_remove_pair(&tuple);
            }
            if let Some(backend) = entry.backend {
                self.freed_backends.push(backend);
            }
            self.evictions += 1;
            if let Some(c) = &self.eviction_counter {
                c.inc();
            }
        }
    }

    fn expired(entry: &CtEntry, new_to: Nanos, est_to: Nanos, now: Nanos) -> bool {
        let timeout = match entry.state {
            CtState::New => new_to,
            CtState::Established => est_to,
        };
        now.saturating_sub(entry.last_seen) > timeout
    }

    /// Looks up an entry without refreshing it; expired entries read as
    /// absent (lazy expiry).
    pub fn lookup(&mut self, key: &FlowKey, now: Nanos) -> Option<CtEntry> {
        let entry = self.entries.get(key)?;
        if Self::expired(entry, self.new_timeout, self.established_timeout, now) {
            self.entries.remove(key);
            self.generation = self.generation.wrapping_add(1);
            return None;
        }
        Some(*entry)
    }

    /// Associates a load-balancer backend with a flow (ipvs extension).
    pub fn set_backend(&mut self, key: &FlowKey, backend: (Ipv4Addr, u16)) -> bool {
        match self.entries.get_mut(key) {
            Some(e) => {
                e.backend = Some(backend);
                self.generation = self.generation.wrapping_add(1);
                true
            }
            None => false,
        }
    }

    /// Removes expired entries eagerly; returns how many were collected.
    pub fn gc(&mut self, now: Nanos) -> usize {
        let (new_to, est_to) = (self.new_timeout, self.established_timeout);
        let before = self.entries.len();
        self.entries
            .retain(|_, e| !Self::expired(e, new_to, est_to, now));
        let removed = before - self.entries.len();
        if removed > 0 {
            self.generation = self.generation.wrapping_add(1);
        }
        removed
    }

    // ------------------------------------------------------------------
    // NAT bindings (iptables `nat` table state)
    // ------------------------------------------------------------------

    /// Installs a NAT binding: packets matching `orig` are rewritten to
    /// `xlat`, and reply packets (matching the reverse of `xlat`) are
    /// rewritten back to the reverse of `orig`. `owns_port` records a
    /// masquerade port to return to the allocator when the binding dies.
    ///
    /// The binding table is capped at [`Conntrack::max_nat_entries`]
    /// directional entries: installing past capacity evicts the
    /// least-recently-seen pair first (its owned port lands in the
    /// freed-port list), mirroring the flow map's `evict_oldest`.
    pub fn nat_install(
        &mut self,
        orig: NatTuple,
        xlat: NatTuple,
        owns_port: Option<u16>,
        now: Nanos,
    ) {
        let reply_key = xlat.reversed();
        let mut new_keys = 0;
        if !self.nat.contains_key(&orig) {
            new_keys += 1;
        }
        if !self.nat.contains_key(&reply_key) {
            new_keys += 1;
        }
        while new_keys > 0 && self.nat.len() + new_keys > self.max_nat_entries {
            if !self.nat_evict_oldest_pair() {
                break;
            }
        }
        self.generation = self.generation.wrapping_add(1);
        self.nat.insert(
            orig,
            NatBinding {
                xlat,
                reply: false,
                owns_port,
                last_seen: now,
            },
        );
        self.nat.insert(
            xlat.reversed(),
            NatBinding {
                xlat: orig.reversed(),
                reply: true,
                owns_port: None,
                last_seen: now,
            },
        );
    }

    /// Evicts the least-recently-seen NAT binding pair (deterministic
    /// tie-break on the key) to make room at capacity. Returns `false`
    /// when the table is empty.
    fn nat_evict_oldest_pair(&mut self) -> bool {
        let victim = self
            .nat
            .iter()
            .min_by_key(|(k, e)| (e.last_seen, k.src, k.sport, k.dst, k.dport, k.proto))
            .map(|(k, _)| *k);
        let Some(key) = victim else {
            return false;
        };
        self.nat_remove_pair(&key);
        self.nat_evictions += 1;
        if let Some(c) = &self.nat_eviction_counter {
            c.inc();
        }
        true
    }

    /// Removes a directional NAT entry and its partner (the other
    /// direction of the same binding), parking any owned masquerade port
    /// in the freed-port list. Returns whether `key` was present.
    fn nat_remove_pair(&mut self, key: &NatTuple) -> bool {
        let Some(dead) = self.nat.remove(key) else {
            return false;
        };
        self.generation = self.generation.wrapping_add(1);
        if let Some(p) = dead.owns_port {
            self.freed_nat_ports.push(p);
        }
        if let Some(partner) = self.nat.remove(&dead.xlat.reversed()) {
            if let Some(p) = partner.owns_port {
                self.freed_nat_ports.push(p);
            }
        }
        true
    }

    /// Looks up the NAT binding for a packet tuple, refreshing both
    /// directions on a hit. Expired bindings read as absent (lazy
    /// expiry, like [`Conntrack::lookup`]); any masquerade port they
    /// owned is parked in the freed-port list.
    pub fn nat_lookup(&mut self, tuple: &NatTuple, now: Nanos) -> Option<NatRewrite> {
        let entry = self.nat.get(tuple)?;
        // Partner key: for the original direction the partner is the
        // reply entry keyed by the reversed translated tuple; for the
        // reply direction it is the original entry — in both cases
        // `xlat.reversed()`.
        let partner = entry.xlat.reversed();
        if now.saturating_sub(entry.last_seen) > self.established_timeout {
            self.generation = self.generation.wrapping_add(1);
            for key in [*tuple, partner] {
                if let Some(dead) = self.nat.remove(&key) {
                    if let Some(p) = dead.owns_port {
                        self.freed_nat_ports.push(p);
                    }
                }
            }
            return None;
        }
        let rewrite = NatRewrite {
            xlat: entry.xlat,
            reply: entry.reply,
        };
        self.nat.get_mut(tuple).expect("present").last_seen = now;
        if let Some(p) = self.nat.get_mut(&partner) {
            p.last_seen = now;
        }
        Some(rewrite)
    }

    /// Eagerly removes expired NAT bindings; returns how many directional
    /// entries were collected.
    pub fn nat_gc(&mut self, now: Nanos) -> usize {
        let timeout = self.established_timeout;
        let before = self.nat.len();
        let freed = &mut self.freed_nat_ports;
        self.nat.retain(|_, e| {
            let dead = now.saturating_sub(e.last_seen) > timeout;
            if dead {
                if let Some(p) = e.owns_port {
                    freed.push(p);
                }
            }
            !dead
        });
        let removed = before - self.nat.len();
        if removed > 0 {
            self.generation = self.generation.wrapping_add(1);
        }
        removed
    }

    /// Drains masquerade ports freed by expired bindings so the port
    /// allocator can reuse them.
    pub fn take_freed_nat_ports(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.freed_nat_ports)
    }

    /// Drains ipvs backends unpinned by flow eviction so the scheduler
    /// can decrement their live-connection counts.
    pub fn take_freed_backends(&mut self) -> Vec<(Ipv4Addr, u16)> {
        std::mem::take(&mut self.freed_backends)
    }

    /// Number of directional NAT binding entries.
    pub fn nat_len(&self) -> usize {
        self.nat.len()
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Conntrack {
    fn default() -> Self {
        Conntrack::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn key_is_direction_agnostic() {
        let (a, b) = ips();
        assert_eq!(
            FlowKey::new(a, 1000, b, 80, IpProto::Tcp),
            FlowKey::new(b, 80, a, 1000, IpProto::Tcp)
        );
        assert_ne!(
            FlowKey::new(a, 1000, b, 80, IpProto::Tcp),
            FlowKey::new(a, 1000, b, 80, IpProto::Udp)
        );
    }

    #[test]
    fn same_direction_stays_new() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        assert_eq!(
            ct.track(a, 1, b, 2, IpProto::Udp, Nanos::ZERO),
            CtState::New
        );
        assert_eq!(
            ct.track(a, 1, b, 2, IpProto::Udp, Nanos::from_secs(1)),
            CtState::New
        );
        assert_eq!(ct.len(), 1);
    }

    #[test]
    fn new_entry_expires() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.track(a, 1, b, 2, IpProto::Udp, Nanos::ZERO);
        let key = FlowKey::new(a, 1, b, 2, IpProto::Udp);
        assert!(ct.lookup(&key, Nanos::from_secs(30)).is_some());
        assert!(ct.lookup(&key, Nanos::from_secs(61)).is_none());
        assert!(ct.is_empty());
    }

    #[test]
    fn established_outlives_new_timeout() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.track(a, 1, b, 2, IpProto::Tcp, Nanos::ZERO);
        ct.track(b, 2, a, 1, IpProto::Tcp, Nanos::from_secs(1));
        let key = FlowKey::new(a, 1, b, 2, IpProto::Tcp);
        assert_eq!(
            ct.lookup(&key, Nanos::from_secs(100)).unwrap().state,
            CtState::Established
        );
        assert!(ct.lookup(&key, Nanos::from_secs(1 + 601)).is_none());
    }

    #[test]
    fn expired_entry_recreated_as_new() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.track(a, 1, b, 2, IpProto::Tcp, Nanos::ZERO);
        ct.track(b, 2, a, 1, IpProto::Tcp, Nanos::from_secs(1)); // established
                                                                 // Way past expiry, the same tuple is NEW again.
        let st = ct.track(a, 1, b, 2, IpProto::Tcp, Nanos::from_secs(5000));
        assert_eq!(st, CtState::New);
    }

    #[test]
    fn backend_affinity() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        let key = FlowKey::new(a, 1, b, 80, IpProto::Tcp);
        assert!(!ct.set_backend(&key, (b, 8080)));
        ct.track(a, 1, b, 80, IpProto::Tcp, Nanos::ZERO);
        assert!(ct.set_backend(&key, (b, 8080)));
        assert_eq!(
            ct.lookup(&key, Nanos::from_secs(1)).unwrap().backend,
            Some((b, 8080))
        );
    }

    #[test]
    fn gc_collects() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.track(a, 1, b, 2, IpProto::Udp, Nanos::ZERO);
        ct.track(a, 3, b, 4, IpProto::Udp, Nanos::from_secs(50));
        assert_eq!(ct.gc(Nanos::from_secs(70)), 1);
        assert_eq!(ct.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.max_entries = 3;
        for sport in 0..3u16 {
            ct.track(
                a,
                sport,
                b,
                80,
                IpProto::Udp,
                Nanos::from_millis(u64::from(sport)),
            );
        }
        assert_eq!(ct.len(), 3);
        assert_eq!(ct.evictions(), 0);
        // A fourth flow evicts the oldest (sport 0), not the table.
        ct.track(a, 99, b, 80, IpProto::Udp, Nanos::from_millis(10));
        assert_eq!(ct.len(), 3);
        assert_eq!(ct.evictions(), 1);
        assert!(ct
            .lookup(
                &FlowKey::new(a, 0, b, 80, IpProto::Udp),
                Nanos::from_millis(10)
            )
            .is_none());
        assert!(ct
            .lookup(
                &FlowKey::new(a, 1, b, 80, IpProto::Udp),
                Nanos::from_millis(10)
            )
            .is_some());
        // Refreshing an existing flow at capacity does not evict.
        ct.track(a, 1, b, 80, IpProto::Udp, Nanos::from_millis(11));
        assert_eq!(ct.evictions(), 1);
    }

    fn tuple(sport: u16) -> NatTuple {
        NatTuple::new(
            Ipv4Addr::new(192, 168, 1, 10),
            sport,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            17,
        )
    }

    #[test]
    fn nat_binding_translates_both_directions() {
        let mut ct = Conntrack::new();
        let orig = tuple(40000);
        let xlat = NatTuple::new(
            Ipv4Addr::new(198, 51, 100, 1),
            32768,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            17,
        );
        ct.nat_install(orig, xlat, Some(32768), Nanos::ZERO);
        assert_eq!(ct.nat_len(), 2);
        let fwd = ct.nat_lookup(&orig, Nanos::from_secs(1)).unwrap();
        assert_eq!(fwd.xlat, xlat);
        assert!(!fwd.reply);
        let rev = ct
            .nat_lookup(&xlat.reversed(), Nanos::from_secs(1))
            .unwrap();
        assert_eq!(rev.xlat, orig.reversed());
        assert!(rev.reply);
        assert!(ct.nat_lookup(&tuple(41000), Nanos::from_secs(1)).is_none());
    }

    #[test]
    fn nat_binding_expires_and_frees_port() {
        let mut ct = Conntrack::new();
        let orig = tuple(40000);
        let xlat = NatTuple::new(
            Ipv4Addr::new(198, 51, 100, 1),
            32768,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
            17,
        );
        ct.nat_install(orig, xlat, Some(32768), Nanos::ZERO);
        // Refreshes keep both directions alive.
        ct.nat_lookup(&orig, Nanos::from_secs(500)).unwrap();
        assert!(ct
            .nat_lookup(&xlat.reversed(), Nanos::from_secs(900))
            .is_some());
        // Way past the timeout, the pair lazily dies and the port frees.
        assert!(ct.nat_lookup(&orig, Nanos::from_secs(9000)).is_none());
        assert_eq!(ct.nat_len(), 0);
        assert_eq!(ct.take_freed_nat_ports(), vec![32768]);
        assert!(ct.take_freed_nat_ports().is_empty());
    }

    #[test]
    fn nat_install_respects_capacity_cap() {
        // Pre-fix, the NAT map grew without bound: installing a third
        // pair with max_nat_entries = 4 left six directional entries.
        let mut ct = Conntrack::new();
        ct.max_nat_entries = 4;
        let gw = Ipv4Addr::new(198, 51, 100, 1);
        for (i, sport) in [40000u16, 40001, 40002].iter().enumerate() {
            ct.nat_install(
                tuple(*sport),
                NatTuple::new(gw, 32768 + i as u16, tuple(*sport).dst, 53, 17),
                Some(32768 + i as u16),
                Nanos::from_secs(i as u64),
            );
        }
        assert_eq!(ct.nat_len(), 4, "cap must hold");
        assert_eq!(ct.nat_evictions(), 1);
        // The oldest pair (sport 40000, installed at t=0) was evicted and
        // its masquerade port returned; the newer two still translate.
        assert_eq!(ct.take_freed_nat_ports(), vec![32768]);
        assert!(ct.nat_lookup(&tuple(40000), Nanos::from_secs(3)).is_none());
        assert!(ct.nat_lookup(&tuple(40001), Nanos::from_secs(3)).is_some());
        assert!(ct.nat_lookup(&tuple(40002), Nanos::from_secs(3)).is_some());
    }

    #[test]
    fn nat_reinstall_at_capacity_does_not_evict() {
        let mut ct = Conntrack::new();
        ct.max_nat_entries = 2;
        let gw = Ipv4Addr::new(198, 51, 100, 1);
        let xlat = NatTuple::new(gw, 32768, tuple(40000).dst, 53, 17);
        ct.nat_install(tuple(40000), xlat, Some(32768), Nanos::ZERO);
        // Re-installing the same pair overwrites in place.
        ct.nat_install(tuple(40000), xlat, Some(32768), Nanos::from_secs(1));
        assert_eq!(ct.nat_len(), 2);
        assert_eq!(ct.nat_evictions(), 0);
        assert!(ct.take_freed_nat_ports().is_empty());
    }

    #[test]
    fn flow_eviction_takes_companion_nat_bindings() {
        // Pre-fix, evicting a flow at capacity left its NAT pair (and the
        // masquerade port it owned) alive forever.
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.max_entries = 1;
        let gw = Ipv4Addr::new(198, 51, 100, 1);
        // Flow a:1000 -> b:53 is tracked and masqueraded as gw:32768.
        ct.track(a, 1000, b, 53, IpProto::Udp, Nanos::ZERO);
        let orig = NatTuple::new(a, 1000, b, 53, 17);
        let xlat = NatTuple::new(gw, 32768, b, 53, 17);
        ct.nat_install(orig, xlat, Some(32768), Nanos::ZERO);
        assert_eq!((ct.len(), ct.nat_len()), (1, 2));
        // A second flow evicts the first (capacity 1)...
        ct.track(a, 2000, b, 53, IpProto::Udp, Nanos::from_secs(1));
        assert_eq!(ct.evictions(), 1);
        // ...and the companion NAT pair dies with it, freeing the port.
        assert_eq!(ct.nat_len(), 0, "companion NAT bindings must be evicted");
        assert_eq!(ct.take_freed_nat_ports(), vec![32768]);
        assert!(ct.nat_lookup(&orig, Nanos::from_secs(1)).is_none());
        assert!(ct
            .nat_lookup(&xlat.reversed(), Nanos::from_secs(1))
            .is_none());
    }

    #[test]
    fn flow_eviction_unpins_ipvs_backend() {
        let (a, b) = ips();
        let mut ct = Conntrack::new();
        ct.max_entries = 1;
        ct.track(a, 1000, b, 53, IpProto::Udp, Nanos::ZERO);
        let key = FlowKey::new(a, 1000, b, 53, IpProto::Udp);
        assert!(ct.set_backend(&key, (Ipv4Addr::new(10, 0, 2, 10), 5300)));
        ct.track(a, 2000, b, 53, IpProto::Udp, Nanos::from_secs(1));
        assert_eq!(
            ct.take_freed_backends(),
            vec![(Ipv4Addr::new(10, 0, 2, 10), 5300)]
        );
        assert!(ct.take_freed_backends().is_empty());
    }

    #[test]
    fn nat_gc_collects_pairs() {
        let mut ct = Conntrack::new();
        ct.nat_install(
            tuple(1),
            NatTuple::new(Ipv4Addr::new(198, 51, 100, 1), 32768, tuple(1).dst, 53, 17),
            Some(32768),
            Nanos::ZERO,
        );
        ct.nat_install(
            tuple(2),
            NatTuple::new(Ipv4Addr::new(198, 51, 100, 1), 32769, tuple(2).dst, 53, 17),
            Some(32769),
            Nanos::from_secs(500),
        );
        assert_eq!(ct.nat_gc(Nanos::from_secs(700)), 2);
        assert_eq!(ct.nat_len(), 2);
        assert_eq!(ct.take_freed_nat_ports(), vec![32768]);
    }
}
