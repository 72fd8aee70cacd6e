//! The helper-function boundary between programs and the kernel.
//!
//! LinuxFP's central design decision ("Unifying State", paper §IV-B2) is
//! that fast paths access *kernel* state through helpers instead of
//! maintaining shadow copies in maps. [`HelperEnv`] is that boundary: the
//! VM dispatches helper calls through it, and the implementation for
//! [`linuxfp_netstack::Kernel`] reads and updates the very tables the
//! slow path uses.

use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::l7::L7LookupOutcome;
use linuxfp_netstack::nat::NatLookupOutcome;
use linuxfp_netstack::netfilter::{NfVerdict, PacketMeta};
use linuxfp_netstack::stack::{FdbLookupOutcome, FibFastResult, Kernel};
use linuxfp_packet::ipv4::IpProto;
use linuxfp_packet::MacAddr;
use linuxfp_sim::{CostTracker, Nanos};
use std::net::Ipv4Addr;

/// Kernel facilities available to helper implementations.
///
/// Implemented for [`Kernel`] (production) and by [`NullEnv`] (tests,
/// where every lookup misses).
pub trait HelperEnv {
    /// Current virtual time (`bpf_ktime_get_ns`).
    fn env_now(&self) -> Nanos;

    /// `bpf_fib_lookup`: route + neighbor resolution.
    fn env_fib_lookup(&mut self, dst: Ipv4Addr) -> Option<FibFastResult>;

    /// `bpf_fdb_lookup`: bridge FDB lookup with source refresh.
    fn env_fdb_lookup(
        &mut self,
        ingress: IfIndex,
        src: MacAddr,
        dst: MacAddr,
        vlan: u16,
    ) -> FdbLookupOutcome;

    /// `bpf_ipt_lookup`: FORWARD-chain evaluation over kernel rules.
    fn env_ipt_lookup(&mut self, meta: &PacketMeta, tracker: &mut CostTracker) -> NfVerdict;

    /// Conntrack lookup returning a load-balancer backend if one is
    /// pinned to the flow (ipvs extension).
    fn env_ct_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> Option<(Ipv4Addr, u16)>;

    /// `bpf_nat_lookup`: NAT binding lookup against the kernel's
    /// conntrack NAT state (NAT44 extension). Returns the translated
    /// tuple for established flows, `Miss` for traffic the slow path
    /// must bind first, and `NoNat` when no nat rule could ever apply.
    fn env_nat_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> NatLookupOutcome;

    /// `bpf_l7_policy_lookup`: HTTP/1.x request-policy evaluation over
    /// the kernel's live policy table and connection pins (L7 offload
    /// extension). `payload` is the TCP payload window the program
    /// proved in bounds; `first` is the first payload byte the program
    /// loaded (None when the segment carries no payload).
    #[allow(clippy::too_many_arguments)]
    fn env_l7_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        payload: &[u8],
        first: Option<u8>,
    ) -> L7LookupOutcome;
}

impl HelperEnv for Kernel {
    fn env_now(&self) -> Nanos {
        self.now()
    }

    fn env_fib_lookup(&mut self, dst: Ipv4Addr) -> Option<FibFastResult> {
        self.helper_fib_lookup(dst)
    }

    fn env_fdb_lookup(
        &mut self,
        ingress: IfIndex,
        src: MacAddr,
        dst: MacAddr,
        vlan: u16,
    ) -> FdbLookupOutcome {
        self.helper_fdb_lookup(ingress, src, dst, vlan)
    }

    fn env_ipt_lookup(&mut self, meta: &PacketMeta, tracker: &mut CostTracker) -> NfVerdict {
        self.helper_ipt_lookup(meta, tracker)
    }

    fn env_ct_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> Option<(Ipv4Addr, u16)> {
        let key =
            linuxfp_netstack::conntrack::FlowKey::new(src, sport, dst, dport, IpProto::from(proto));
        let now = self.now();
        self.conntrack.lookup(&key, now).and_then(|e| e.backend)
    }

    fn env_nat_lookup(
        &mut self,
        src: Ipv4Addr,
        sport: u16,
        dst: Ipv4Addr,
        dport: u16,
        proto: u8,
    ) -> NatLookupOutcome {
        self.helper_nat_lookup(src, sport, dst, dport, proto)
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
        self.helper_l7_lookup(src, sport, dst, dport, payload, first)
    }
}

/// A helper environment with no kernel behind it: time is zero and every
/// lookup misses. Useful for unit tests of the VM and the optimizer.
#[derive(Debug, Default)]
pub struct NullEnv;

impl HelperEnv for NullEnv {
    fn env_now(&self) -> Nanos {
        Nanos::ZERO
    }

    fn env_fib_lookup(&mut self, _dst: Ipv4Addr) -> Option<FibFastResult> {
        None
    }

    fn env_fdb_lookup(
        &mut self,
        _ingress: IfIndex,
        _src: MacAddr,
        _dst: MacAddr,
        _vlan: u16,
    ) -> FdbLookupOutcome {
        FdbLookupOutcome::SrcUnknown
    }

    fn env_ipt_lookup(&mut self, _meta: &PacketMeta, _tracker: &mut CostTracker) -> NfVerdict {
        NfVerdict::Accept
    }

    fn env_ct_lookup(
        &mut self,
        _src: Ipv4Addr,
        _sport: u16,
        _dst: Ipv4Addr,
        _dport: u16,
        _proto: u8,
    ) -> Option<(Ipv4Addr, u16)> {
        None
    }

    fn env_nat_lookup(
        &mut self,
        _src: Ipv4Addr,
        _sport: u16,
        _dst: Ipv4Addr,
        _dport: u16,
        _proto: u8,
    ) -> NatLookupOutcome {
        NatLookupOutcome::NoNat
    }

    fn env_l7_lookup(
        &mut self,
        _src: Ipv4Addr,
        _sport: u16,
        _dst: Ipv4Addr,
        _dport: u16,
        _payload: &[u8],
        _first: Option<u8>,
    ) -> L7LookupOutcome {
        L7LookupOutcome::NoRequest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_env_misses_everything() {
        let mut env = NullEnv;
        assert_eq!(env.env_now(), Nanos::ZERO);
        assert!(env.env_fib_lookup(Ipv4Addr::new(1, 1, 1, 1)).is_none());
        assert_eq!(
            env.env_fdb_lookup(IfIndex(1), MacAddr::ZERO, MacAddr::ZERO, 0),
            FdbLookupOutcome::SrcUnknown
        );
        assert!(env
            .env_ct_lookup(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                2,
                6
            )
            .is_none());
        assert_eq!(
            env.env_nat_lookup(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                2,
                17
            ),
            NatLookupOutcome::NoNat
        );
        assert_eq!(
            env.env_l7_lookup(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr::new(2, 2, 2, 2),
                80,
                b"GET / HTTP/1.1\r\n",
                Some(b'G')
            ),
            L7LookupOutcome::NoRequest
        );
        let meta = PacketMeta {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            proto: IpProto::Udp,
            sport: 0,
            dport: 0,
            in_if: IfIndex(1),
            out_if: IfIndex::NONE,
        };
        let mut t = CostTracker::new();
        assert_eq!(env.env_ipt_lookup(&meta, &mut t), NfVerdict::Accept);
    }
}
