//! The neighbor (ARP) table.
//!
//! ARP processing is a slow-path responsibility in the LinuxFP split
//! (paper Table I): the kernel learns neighbor entries from ARP traffic
//! and the fast path merely *reads* them through `bpf_fib_lookup`. Entries
//! age from `Reachable` to `Stale` and are dropped after expiry.

use crate::device::IfIndex;
use linuxfp_packet::{MacAddr, WordMap};
use linuxfp_sim::Nanos;
use std::net::Ipv4Addr;

/// Neighbor entry state (the subset of NUD states we model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighState {
    /// Resolution in progress; packets are queued.
    Incomplete,
    /// Recently confirmed.
    Reachable,
    /// Past the reachable window but still usable.
    Stale,
}

/// One neighbor table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighEntry {
    /// The neighbor's hardware address (meaningless while `Incomplete`).
    pub mac: MacAddr,
    /// Interface through which the neighbor is reached.
    pub dev: IfIndex,
    /// Entry state.
    pub state: NeighState,
    /// Last confirmation time.
    pub updated: Nanos,
}

/// The neighbor table with timer-based state transitions.
///
/// # Example
///
/// ```
/// use linuxfp_netstack::neigh::{NeighTable, NeighState};
/// use linuxfp_netstack::device::IfIndex;
/// use linuxfp_packet::MacAddr;
/// use linuxfp_sim::Nanos;
/// use std::net::Ipv4Addr;
///
/// let mut t = NeighTable::new();
/// let ip = Ipv4Addr::new(10, 0, 0, 2);
/// t.learn(ip, MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
/// assert_eq!(t.lookup(ip, Nanos::from_secs(1)).unwrap().state, NeighState::Reachable);
/// // After the reachable window the entry goes stale but stays usable:
/// assert_eq!(t.lookup(ip, Nanos::from_secs(60)).unwrap().state, NeighState::Stale);
/// ```
#[derive(Debug, Clone)]
pub struct NeighTable {
    entries: WordMap<Ipv4Addr, NeighEntry>,
    /// How long an entry stays `Reachable` after confirmation.
    pub reachable_time: Nanos,
    /// How long a `Stale` entry survives before garbage collection.
    pub gc_stale_time: Nanos,
    /// Monotonic generation, bumped on every resolution-relevant change:
    /// new entries, station moves (mac or dev changed), removals, and GC.
    /// Timer refreshes that re-learn the same `(mac, dev)` and the
    /// `Reachable` → `Stale` transition do not bump it — `resolved_mac`
    /// returns the same answer either way. Consumed by the microflow
    /// verdict cache's coherence check.
    generation: u64,
}

impl NeighTable {
    /// Creates a table with Linux-like defaults (30 s reachable, 60 s GC).
    pub fn new() -> Self {
        NeighTable {
            entries: WordMap::default(),
            reachable_time: Nanos::from_secs(30),
            gc_stale_time: Nanos::from_secs(60),
            generation: 0,
        }
    }

    /// The coherence generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a confirmed neighbor (from an ARP reply or learned from a
    /// request's sender fields).
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, dev: IfIndex, now: Nanos) {
        if self
            .entries
            .get(&ip)
            .map(|e| (e.mac, e.dev, e.state == NeighState::Incomplete))
            != Some((mac, dev, false))
        {
            self.generation = self.generation.wrapping_add(1);
        }
        self.entries.insert(
            ip,
            NeighEntry {
                mac,
                dev,
                state: NeighState::Reachable,
                updated: now,
            },
        );
    }

    /// Marks resolution in progress for `ip` (an ARP request was sent).
    /// Returns `false` if an entry (in any state) already exists.
    pub fn mark_incomplete(&mut self, ip: Ipv4Addr, dev: IfIndex, now: Nanos) -> bool {
        if self.entries.contains_key(&ip) {
            return false;
        }
        self.generation = self.generation.wrapping_add(1);
        self.entries.insert(
            ip,
            NeighEntry {
                mac: MacAddr::ZERO,
                dev,
                state: NeighState::Incomplete,
                updated: now,
            },
        );
        true
    }

    /// Looks up a neighbor, applying lazy state transitions at time `now`:
    /// `Reachable` entries past `reachable_time` become `Stale`; `Stale`
    /// entries past `gc_stale_time` are removed (returns `None`).
    pub fn lookup(&mut self, ip: Ipv4Addr, now: Nanos) -> Option<NeighEntry> {
        let entry = self.entries.get_mut(&ip)?;
        match entry.state {
            NeighState::Reachable => {
                if now.saturating_sub(entry.updated) > self.reachable_time {
                    entry.state = NeighState::Stale;
                    entry.updated = now;
                }
            }
            NeighState::Stale => {
                if now.saturating_sub(entry.updated) > self.gc_stale_time {
                    self.entries.remove(&ip);
                    self.generation = self.generation.wrapping_add(1);
                    return None;
                }
            }
            NeighState::Incomplete => {}
        }
        self.entries.get(&ip).copied()
    }

    /// A resolved (usable) hardware address for `ip`, if one exists.
    pub fn resolved_mac(&mut self, ip: Ipv4Addr, now: Nanos) -> Option<(MacAddr, IfIndex)> {
        match self.lookup(ip, now) {
            Some(e) if e.state != NeighState::Incomplete => Some((e.mac, e.dev)),
            _ => None,
        }
    }

    /// Removes an entry; returns whether it existed.
    pub fn remove(&mut self, ip: Ipv4Addr) -> bool {
        let existed = self.entries.remove(&ip).is_some();
        if existed {
            self.generation = self.generation.wrapping_add(1);
        }
        existed
    }

    /// Number of entries (all states).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of all entries for netlink dumps.
    pub fn entries(&self) -> Vec<(Ipv4Addr, NeighEntry)> {
        self.entries.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Eagerly collects entries past their lifetime (the periodic GC the
    /// neighbor subsystem runs); returns how many were removed.
    pub fn gc(&mut self, now: Nanos) -> usize {
        let reachable = self.reachable_time;
        let stale = self.gc_stale_time;
        let before = self.entries.len();
        self.entries.retain(|_, e| match e.state {
            NeighState::Reachable => now.saturating_sub(e.updated) <= reachable + stale,
            NeighState::Stale => now.saturating_sub(e.updated) <= stale,
            NeighState::Incomplete => now.saturating_sub(e.updated) <= reachable,
        });
        let removed = before - self.entries.len();
        if removed > 0 {
            self.generation = self.generation.wrapping_add(1);
        }
        removed
    }
}

impl Default for NeighTable {
    fn default() -> Self {
        NeighTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn learn_and_resolve() {
        let mut t = NeighTable::new();
        t.learn(ip(2), MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
        let (mac, dev) = t.resolved_mac(ip(2), Nanos::from_secs(1)).unwrap();
        assert_eq!(mac, MacAddr::from_index(2));
        assert_eq!(dev, IfIndex(1));
        assert!(t.resolved_mac(ip(3), Nanos::ZERO).is_none());
    }

    #[test]
    fn incomplete_entries_do_not_resolve() {
        let mut t = NeighTable::new();
        assert!(t.mark_incomplete(ip(2), IfIndex(1), Nanos::ZERO));
        assert!(!t.mark_incomplete(ip(2), IfIndex(1), Nanos::ZERO));
        assert!(t.resolved_mac(ip(2), Nanos::ZERO).is_none());
        // A reply upgrades the entry.
        t.learn(ip(2), MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
        assert!(t.resolved_mac(ip(2), Nanos::ZERO).is_some());
    }

    #[test]
    fn aging_reachable_to_stale_to_gone() {
        let mut t = NeighTable::new();
        t.learn(ip(2), MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
        // Within the window: reachable.
        assert_eq!(
            t.lookup(ip(2), Nanos::from_secs(10)).unwrap().state,
            NeighState::Reachable
        );
        // Past the window: stale but usable.
        let stale = t.lookup(ip(2), Nanos::from_secs(31)).unwrap();
        assert_eq!(stale.state, NeighState::Stale);
        assert!(t.resolved_mac(ip(2), Nanos::from_secs(32)).is_some());
        // Long past: garbage collected.
        assert!(t.lookup(ip(2), Nanos::from_secs(31 + 61)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn remove_and_dump() {
        let mut t = NeighTable::new();
        t.learn(ip(2), MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
        t.learn(ip(3), MacAddr::from_index(3), IfIndex(1), Nanos::ZERO);
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries().len(), 2);
        assert!(t.remove(ip(2)));
        assert!(!t.remove(ip(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn relearn_refreshes_timer() {
        let mut t = NeighTable::new();
        t.learn(ip(2), MacAddr::from_index(2), IfIndex(1), Nanos::ZERO);
        t.learn(
            ip(2),
            MacAddr::from_index(2),
            IfIndex(1),
            Nanos::from_secs(29),
        );
        // 31s after first learn but only 2s after refresh: still reachable.
        assert_eq!(
            t.lookup(ip(2), Nanos::from_secs(31)).unwrap().state,
            NeighState::Reachable
        );
    }
}
