//! Linux-style software bridge: FDB with learning and aging, STP port
//! states, VLAN filtering, and flooding.
//!
//! The LinuxFP split (paper Table I) gives the fast path parsing, FDB
//! lookup and forwarding, while the slow path keeps FDB management
//! (learning and aging), miss handling (flooding), and STP protocol
//! processing. Both paths operate on this one [`Bridge`] structure: the
//! fast path reads it via the paper's new `bpf_fdb_lookup` helper.

use crate::device::IfIndex;
use linuxfp_packet::{MacAddr, WordMap};
use linuxfp_sim::Nanos;
use linuxfp_telemetry::trace::DropReason;
use linuxfp_telemetry::Counter;
use std::collections::BTreeMap;

/// STP port states (802.1D). Only `Forwarding` ports forward data frames;
/// `Learning` ports learn addresses but do not forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StpState {
    /// Port administratively or STP disabled for data traffic.
    Blocking,
    /// Transitional: processing BPDUs, not learning or forwarding.
    Listening,
    /// Learning MAC addresses, not yet forwarding.
    Learning,
    /// Fully active.
    Forwarding,
}

/// Per-port bridge configuration and state.
#[derive(Debug, Clone)]
pub struct BridgePort {
    /// The member interface.
    pub ifindex: IfIndex,
    /// STP state (always `Forwarding` when STP is disabled).
    pub stp_state: StpState,
    /// Port VLAN id for untagged ingress traffic.
    pub pvid: u16,
    /// VLANs this port is a member of (tagged or untagged).
    pub vlans: Vec<u16>,
    /// STP port path cost (used in root-port election).
    pub path_cost: u32,
}

impl BridgePort {
    fn new(ifindex: IfIndex) -> Self {
        BridgePort {
            ifindex,
            stp_state: StpState::Forwarding,
            pvid: 1,
            vlans: vec![1],
            path_cost: 100,
        }
    }

    /// Whether the port participates in `vlan`.
    pub fn member_of(&self, vlan: u16) -> bool {
        self.vlans.contains(&vlan)
    }
}

/// One learned or static FDB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdbEntry {
    /// Egress port for the address.
    pub port: IfIndex,
    /// Last time the address was seen (refreshed on traffic).
    pub updated: Nanos,
    /// Static entries never age out.
    pub is_static: bool,
}

/// Outcome of a bridge forwarding decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeDecision {
    /// Forward out exactly one port (FDB hit).
    Forward(IfIndex),
    /// Flood to these ports (FDB miss, broadcast, or multicast).
    Flood(Vec<IfIndex>),
    /// Frame is addressed to the bridge itself; send up the IP stack.
    Local,
    /// Drop (ingress port not forwarding, VLAN violation, ...).
    Drop(DropReason),
}

/// A software bridge instance.
///
/// # Example
///
/// ```
/// use linuxfp_netstack::bridge::{Bridge, BridgeDecision};
/// use linuxfp_netstack::device::IfIndex;
/// use linuxfp_packet::MacAddr;
/// use linuxfp_sim::Nanos;
///
/// let mut br = Bridge::new(IfIndex(10), MacAddr::from_index(10));
/// br.add_port(IfIndex(1));
/// br.add_port(IfIndex(2));
/// let src = MacAddr::from_index(100);
/// // Unknown destination floods; the source is learned.
/// let d = br.decide(IfIndex(1), src, MacAddr::from_index(200), None, Nanos::ZERO);
/// assert_eq!(d, BridgeDecision::Flood(vec![IfIndex(2)]));
/// // Traffic back toward the learned source is unicast-forwarded.
/// let d = br.decide(IfIndex(2), MacAddr::from_index(200), src, None, Nanos::ZERO);
/// assert_eq!(d, BridgeDecision::Forward(IfIndex(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Bridge {
    /// The bridge master device index.
    pub ifindex: IfIndex,
    /// MAC of the bridge itself (frames to it go up the stack).
    pub mac: MacAddr,
    /// Whether the spanning tree protocol is enabled.
    pub stp_enabled: bool,
    /// Whether VLAN filtering is enabled.
    pub vlan_filtering: bool,
    /// FDB aging time (Linux default 300 s).
    pub ageing_time: Nanos,
    ports: BTreeMap<IfIndex, BridgePort>,
    fdb: WordMap<(MacAddr, u16), FdbEntry>,
    decisions: Option<Counter>,
    generation: u64,
}

impl Bridge {
    /// Creates a bridge with no ports, STP and VLAN filtering disabled.
    pub fn new(ifindex: IfIndex, mac: MacAddr) -> Self {
        Bridge {
            ifindex,
            mac,
            stp_enabled: false,
            vlan_filtering: false,
            ageing_time: Nanos::from_secs(300),
            ports: BTreeMap::new(),
            fdb: WordMap::default(),
            decisions: None,
            generation: 0,
        }
    }

    /// Monotonic generation, bumped on every forwarding-relevant change
    /// (FDB entry add/move/expiry, port membership or state changes).
    /// Pure timestamp refreshes of an existing entry do *not* bump it —
    /// they change no forwarding decision. Consumed by the microflow
    /// verdict cache's coherence check.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Forces a generation bump. Used by callers that hand out mutable
    /// access to the bridge (e.g. `Kernel::bridge_mut`) and must
    /// conservatively assume a forwarding-relevant change follows.
    pub fn touch_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// Counts every forwarding decision this bridge makes into `counter`.
    pub fn set_decision_counter(&mut self, counter: Counter) {
        self.decisions = Some(counter);
    }

    /// Adds a member port (idempotent).
    pub fn add_port(&mut self, ifindex: IfIndex) {
        self.generation = self.generation.wrapping_add(1);
        self.ports
            .entry(ifindex)
            .or_insert_with(|| BridgePort::new(ifindex));
    }

    /// Removes a member port and its learned addresses.
    pub fn remove_port(&mut self, ifindex: IfIndex) -> bool {
        let existed = self.ports.remove(&ifindex).is_some();
        if existed {
            self.generation = self.generation.wrapping_add(1);
            self.fdb.retain(|_, e| e.port != ifindex);
        }
        existed
    }

    /// The member ports in index order.
    pub fn ports(&self) -> impl Iterator<Item = &BridgePort> + '_ {
        self.ports.values()
    }

    /// Mutable access to one port's configuration. Conservatively counts
    /// as a forwarding-relevant change (callers use this to flip STP
    /// state or VLAN membership), so the generation is bumped.
    pub fn port_mut(&mut self, ifindex: IfIndex) -> Option<&mut BridgePort> {
        self.generation = self.generation.wrapping_add(1);
        self.ports.get_mut(&ifindex)
    }

    /// One port's configuration.
    pub fn port(&self, ifindex: IfIndex) -> Option<&BridgePort> {
        self.ports.get(&ifindex)
    }

    /// Number of member ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The effective VLAN for a frame entering `port` with optional tag.
    /// Returns `None` when VLAN filtering rejects the frame.
    pub fn ingress_vlan(&self, port: &BridgePort, tag: Option<u16>) -> Option<u16> {
        if !self.vlan_filtering {
            return Some(0); // VLAN-unaware: single flat domain.
        }
        match tag {
            Some(vid) => port.member_of(vid).then_some(vid),
            None => Some(port.pvid),
        }
    }

    /// Looks up the FDB honoring aging; used by the slow path and exposed
    /// to the fast path as `bpf_fdb_lookup`. A hit whose egress port is
    /// not in `Forwarding` state returns `None` (the caller drops).
    pub fn fdb_lookup(&mut self, mac: MacAddr, vlan: u16, now: Nanos) -> Option<IfIndex> {
        let entry = self.fdb.get(&(mac, vlan))?;
        if !entry.is_static && now.saturating_sub(entry.updated) > self.ageing_time {
            self.fdb.remove(&(mac, vlan));
            self.generation = self.generation.wrapping_add(1);
            return None;
        }
        let port = self.ports.get(&entry.port)?;
        (port.stp_state == StpState::Forwarding).then_some(entry.port)
    }

    /// Learns (or refreshes) the source address of a frame — slow-path
    /// FDB management.
    pub fn fdb_learn(&mut self, mac: MacAddr, vlan: u16, port: IfIndex, now: Nanos) {
        if mac.is_multicast() {
            return;
        }
        // A brand-new address or a station move changes forwarding
        // decisions (generation bump); refreshing the timestamp of an
        // entry already on this port does not.
        if self.fdb.get(&(mac, vlan)).map(|e| e.port) != Some(port) {
            self.generation = self.generation.wrapping_add(1);
        }
        self.fdb.insert(
            (mac, vlan),
            FdbEntry {
                port,
                updated: now,
                is_static: false,
            },
        );
    }

    /// Installs a static FDB entry (`bridge fdb add ... static`).
    pub fn fdb_add_static(&mut self, mac: MacAddr, vlan: u16, port: IfIndex) {
        self.generation = self.generation.wrapping_add(1);
        self.fdb.insert(
            (mac, vlan),
            FdbEntry {
                port,
                updated: Nanos::ZERO,
                is_static: true,
            },
        );
    }

    /// Current FDB size (including possibly-expired entries not yet
    /// lazily collected).
    pub fn fdb_len(&self) -> usize {
        self.fdb.len()
    }

    /// Removes aged-out dynamic entries eagerly (the periodic GC work the
    /// slow path performs).
    pub fn fdb_gc(&mut self, now: Nanos) -> usize {
        let ageing = self.ageing_time;
        let before = self.fdb.len();
        self.fdb
            .retain(|_, e| e.is_static || now.saturating_sub(e.updated) <= ageing);
        let removed = before - self.fdb.len();
        if removed > 0 {
            self.generation = self.generation.wrapping_add(1);
        }
        removed
    }

    /// Full forwarding decision for a frame entering the bridge on
    /// `ingress`: VLAN admission, source learning, destination lookup,
    /// flood on miss. This is the *slow-path* decision procedure; the
    /// synthesized fast path performs only the lookup/forward part and
    /// punts everything else here.
    pub fn decide(
        &mut self,
        ingress: IfIndex,
        src: MacAddr,
        dst: MacAddr,
        vlan_tag: Option<u16>,
        now: Nanos,
    ) -> BridgeDecision {
        if let Some(c) = &self.decisions {
            c.inc();
        }
        let Some(port) = self.ports.get(&ingress) else {
            return BridgeDecision::Drop(DropReason::NotABridgePort);
        };
        if matches!(port.stp_state, StpState::Blocking | StpState::Listening) {
            return BridgeDecision::Drop(DropReason::IngressPortBlocked);
        }
        let learning_only = port.stp_state == StpState::Learning;
        let Some(vlan) = self.ingress_vlan(port, vlan_tag) else {
            return BridgeDecision::Drop(DropReason::VlanFiltered);
        };
        self.fdb_learn(src, vlan, ingress, now);
        if learning_only {
            return BridgeDecision::Drop(DropReason::IngressPortLearningOnly);
        }
        if dst == self.mac {
            return BridgeDecision::Local;
        }
        if dst.is_multicast() {
            return BridgeDecision::Flood(self.flood_ports(ingress, vlan));
        }
        match self.fdb_lookup(dst, vlan, now) {
            Some(port) if port == ingress => BridgeDecision::Drop(DropReason::Hairpin),
            Some(port) => BridgeDecision::Forward(port),
            None => BridgeDecision::Flood(self.flood_ports(ingress, vlan)),
        }
    }

    /// The ports a flood from `ingress` in `vlan` egresses on.
    pub fn flood_ports(&self, ingress: IfIndex, vlan: u16) -> Vec<IfIndex> {
        self.ports
            .values()
            .filter(|p| {
                p.ifindex != ingress
                    && p.stp_state == StpState::Forwarding
                    && (!self.vlan_filtering || p.member_of(vlan))
            })
            .map(|p| p.ifindex)
            .collect()
    }

    /// FDB snapshot for dumps.
    pub fn fdb_entries(&self) -> Vec<(MacAddr, u16, FdbEntry)> {
        self.fdb.iter().map(|((m, v), e)| (*m, *v, *e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bridge() -> Bridge {
        let mut br = Bridge::new(IfIndex(10), MacAddr::from_index(10));
        br.add_port(IfIndex(1));
        br.add_port(IfIndex(2));
        br.add_port(IfIndex(3));
        br
    }

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    #[test]
    fn learn_then_unicast_forward() {
        let mut br = bridge();
        // A talks: flood (B unknown), learn A on port 1.
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Flood(vec![IfIndex(2), IfIndex(3)]));
        // B answers from port 2: unicast back to port 1.
        let d = br.decide(IfIndex(2), mac(200), mac(100), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Forward(IfIndex(1)));
        // Now A->B is also unicast.
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Forward(IfIndex(2)));
    }

    #[test]
    fn broadcast_floods() {
        let mut br = bridge();
        let d = br.decide(IfIndex(2), mac(200), MacAddr::BROADCAST, None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Flood(vec![IfIndex(1), IfIndex(3)]));
    }

    #[test]
    fn frame_to_bridge_mac_goes_local() {
        let mut br = bridge();
        let d = br.decide(IfIndex(1), mac(100), mac(10), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Local);
    }

    #[test]
    fn hairpin_dropped() {
        let mut br = bridge();
        br.fdb_learn(mac(200), 0, IfIndex(1), Nanos::ZERO);
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Drop(DropReason::Hairpin));
    }

    #[test]
    fn fdb_ages_out() {
        let mut br = bridge();
        br.fdb_learn(mac(200), 0, IfIndex(2), Nanos::ZERO);
        assert_eq!(
            br.fdb_lookup(mac(200), 0, Nanos::from_secs(10)),
            Some(IfIndex(2))
        );
        // Past the 300 s ageing time the entry is gone -> flood again.
        assert_eq!(br.fdb_lookup(mac(200), 0, Nanos::from_secs(301)), None);
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::from_secs(302));
        assert!(matches!(d, BridgeDecision::Flood(_)));
    }

    #[test]
    fn static_entries_never_age() {
        let mut br = bridge();
        br.fdb_add_static(mac(200), 0, IfIndex(2));
        assert_eq!(
            br.fdb_lookup(mac(200), 0, Nanos::from_secs(10_000)),
            Some(IfIndex(2))
        );
        assert_eq!(br.fdb_gc(Nanos::from_secs(10_000)), 0);
    }

    #[test]
    fn gc_collects_expired() {
        let mut br = bridge();
        br.fdb_learn(mac(1), 0, IfIndex(1), Nanos::ZERO);
        br.fdb_learn(mac(2), 0, IfIndex(2), Nanos::from_secs(200));
        assert_eq!(br.fdb_gc(Nanos::from_secs(301)), 1);
        assert_eq!(br.fdb_len(), 1);
    }

    #[test]
    fn stp_blocking_port_drops() {
        let mut br = bridge();
        br.port_mut(IfIndex(1)).unwrap().stp_state = StpState::Blocking;
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert!(matches!(d, BridgeDecision::Drop(_)));
        // Blocked ports are excluded from floods too.
        let floods = br.flood_ports(IfIndex(2), 0);
        assert_eq!(floods, vec![IfIndex(3)]);
    }

    #[test]
    fn stp_learning_port_learns_but_does_not_forward() {
        let mut br = bridge();
        br.port_mut(IfIndex(1)).unwrap().stp_state = StpState::Learning;
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert!(matches!(d, BridgeDecision::Drop(_)));
        // ...but the address was learned.
        assert!(br.fdb.contains_key(&(mac(100), 0)));
    }

    #[test]
    fn forwarding_to_non_forwarding_port_fails_lookup() {
        let mut br = bridge();
        br.fdb_learn(mac(200), 0, IfIndex(2), Nanos::ZERO);
        br.port_mut(IfIndex(2)).unwrap().stp_state = StpState::Blocking;
        assert_eq!(br.fdb_lookup(mac(200), 0, Nanos::ZERO), None);
    }

    #[test]
    fn vlan_filtering_separates_domains() {
        let mut br = bridge();
        br.vlan_filtering = true;
        br.port_mut(IfIndex(1)).unwrap().vlans = vec![10];
        br.port_mut(IfIndex(1)).unwrap().pvid = 10;
        br.port_mut(IfIndex(2)).unwrap().vlans = vec![10, 20];
        br.port_mut(IfIndex(3)).unwrap().vlans = vec![20];
        // Untagged on port 1 -> vlan 10 -> floods only to port 2.
        let d = br.decide(IfIndex(1), mac(100), mac(200), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Flood(vec![IfIndex(2)]));
        // Tagged vlan 20 on port 1 (not a member) -> dropped.
        let d = br.decide(IfIndex(1), mac(100), mac(200), Some(20), Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Drop(DropReason::VlanFiltered));
        // Learning is per-vlan: mac learned in vlan 10 is unknown in 20.
        let d = br.decide(IfIndex(3), mac(300), mac(100), Some(20), Nanos::ZERO);
        assert!(matches!(d, BridgeDecision::Flood(_)));
    }

    #[test]
    fn multicast_source_not_learned() {
        let mut br = bridge();
        br.fdb_learn(MacAddr::BROADCAST, 0, IfIndex(1), Nanos::ZERO);
        assert_eq!(br.fdb_len(), 0);
    }

    #[test]
    fn remove_port_flushes_fdb() {
        let mut br = bridge();
        br.fdb_learn(mac(100), 0, IfIndex(1), Nanos::ZERO);
        assert!(br.remove_port(IfIndex(1)));
        assert_eq!(br.fdb_len(), 0);
        assert!(!br.remove_port(IfIndex(1)));
        assert_eq!(br.port_count(), 2);
    }

    #[test]
    fn unknown_ingress_port_drops() {
        let mut br = bridge();
        let d = br.decide(IfIndex(99), mac(1), mac(2), None, Nanos::ZERO);
        assert_eq!(d, BridgeDecision::Drop(DropReason::NotABridgePort));
    }
}
