//! Periodic slow-path maintenance: the timer work Linux performs off
//! the datapath (FDB aging, conntrack/NAT expiry, neighbor GC).
use super::*;

impl Kernel {
    /// Runs the periodic slow-path housekeeping Linux timers perform:
    /// FDB aging, conntrack expiry, neighbor GC (paper Table I's
    /// "manage FDB (aging)" column).
    pub fn run_housekeeping(&mut self) -> HousekeepingReport {
        let now = self.now;
        let mut report = HousekeepingReport::default();
        for bridge in self.bridges.values_mut() {
            report.fdb_expired += bridge.fdb_gc(now);
        }
        (report.conntrack_expired, report.nat_expired) = self.conntrack_gc();
        report.neigh_expired = self.neigh.gc(now);
        self.record_housekeeping_span(&report);
        report
    }

    /// Expires conntrack entries and NAT bindings, hands their
    /// masquerade ports and ipvs backends back, and returns how many
    /// `(conntrack, NAT)` entries expired. Housekeeping and the packet
    /// path both collect through here.
    ///
    /// The NAT stage is configured while rules *or* live bindings exist,
    /// so collecting the last binding of a flushed table retires it: that
    /// transition publishes `NatChanged`, or the controller keeps a
    /// stage nothing needs. Only the transition publishes — the packet
    /// path collects every simulated second, and a listener that never
    /// polls would otherwise queue a message per pass.
    pub(super) fn conntrack_gc(&mut self) -> (usize, usize) {
        let now = self.now;
        let had_bindings = self.conntrack.nat_len() > 0;
        let expired = self.conntrack.gc(now);
        let nat_expired = self.conntrack.nat_gc(now);
        for port in self.conntrack.take_freed_nat_ports() {
            self.nat.release_port(port);
        }
        for (addr, port) in self.conntrack.take_freed_backends() {
            self.ipvs.release_backend(addr, port);
        }
        if had_bindings && self.conntrack.nat_len() == 0 && self.nat.total_rules() == 0 {
            self.publish_nat_changed();
        }
        (expired, nat_expired)
    }

    /// Advances virtual time (drives FDB/neighbor/conntrack aging).
    ///
    /// Bumps the time generation: lookups that lazily expire entries
    /// (conntrack, neighbor, FDB) can change their answers whenever the
    /// clock moves, so everything the microflow verdict cache recorded
    /// before the advance is invalidated.
    pub fn advance(&mut self, delta: Nanos) {
        self.now += delta;
        self.time_generation = self.time_generation.wrapping_add(1);
    }
}
