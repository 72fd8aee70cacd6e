//! Packet parsing and construction for the LinuxFP reproduction.
//!
//! Both packet-processing environments of the paper — the Linux slow path
//! (`linuxfp-netstack`) and the eBPF fast path (`linuxfp-ebpf`) — operate on
//! the same raw frames. This crate provides:
//!
//! - typed, bounds-checked **views** over raw bytes ([`EthernetFrame`],
//!   [`Ipv4Header`], [`ArpPacket`], [`UdpHeader`], [`TcpHeader`],
//!   [`IcmpHeader`], [`VxlanHeader`]);
//! - in-place **mutation** (MAC rewrite, TTL decrement, and NAT-style
//!   address/port rewriting with incremental checksum updates — the
//!   operations a forwarding fast path performs, see [`rewrite`]);
//! - **builders** for synthesizing workload traffic;
//! - the RFC 1071 internet [`checksum`] with incremental updates.
//!
//! Frames live in pooled [`PacketBuf`] buffers (recycled through a
//! [`BufferPool`] free list so the steady-state datapath never allocates)
//! wrapped in [`Packet`] together with receive metadata, mirroring how an
//! `xdp_buff` carries little more than the buffer and the ingress
//! interface index. Bursts travel as a [`Batch`].
//!
//! # Example
//!
//! ```
//! use linuxfp_packet::{builder, EthernetFrame, Ipv4Header, MacAddr};
//! use std::net::Ipv4Addr;
//!
//! let frame = builder::udp_packet(
//!     MacAddr::new([2, 0, 0, 0, 0, 1]),
//!     MacAddr::new([2, 0, 0, 0, 0, 2]),
//!     Ipv4Addr::new(10, 0, 0, 1),
//!     Ipv4Addr::new(10, 0, 0, 2),
//!     1234,
//!     5678,
//!     b"hello",
//! );
//! let eth = EthernetFrame::parse(&frame).unwrap();
//! assert_eq!(eth.ethertype, linuxfp_packet::EtherType::Ipv4);
//! let ip = Ipv4Header::parse(&frame[eth.payload_offset..]).unwrap();
//! assert_eq!(ip.dst, Ipv4Addr::new(10, 0, 0, 2));
//! assert!(ip.verify_checksum(&frame[eth.payload_offset..]));
//! ```

pub mod arp;
pub mod batch;
pub mod builder;
pub mod checksum;
pub mod eth;
pub mod hash;
pub mod icmp;
pub mod ipv4;
pub mod pool;
pub mod rewrite;
pub mod tcp;
pub mod udp;
pub mod vxlan;

pub use arp::{ArpOp, ArpPacket};
pub use batch::Batch;
pub use eth::{EtherType, EthernetFrame, MacAddr, VlanTag, ETH_HLEN};
pub use hash::{SeededState, WordMap, WordSet};
pub use icmp::{IcmpHeader, IcmpType};
pub use ipv4::{IpProto, Ipv4Header, IPV4_MIN_HLEN};
pub use pool::{BufferPool, PacketBuf, PoolStats, ShardedPool};
pub use rewrite::{rewrite_ipv4, FieldRewrite};
pub use tcp::TcpHeader;
pub use udp::UdpHeader;
pub use vxlan::VxlanHeader;

use std::fmt;

/// Errors produced when parsing packet bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePacketError {
    /// The buffer is shorter than the header requires.
    Truncated {
        /// Which header could not be read.
        layer: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// A header field has an invalid value (e.g. IPv4 version != 4).
    Malformed {
        /// Which header was malformed.
        layer: &'static str,
        /// Human-readable description of the problem.
        what: &'static str,
    },
}

impl fmt::Display for ParsePacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePacketError::Truncated {
                layer,
                needed,
                have,
            } => {
                write!(
                    f,
                    "truncated {layer} header: need {needed} bytes, have {have}"
                )
            }
            ParsePacketError::Malformed { layer, what } => {
                write!(f, "malformed {layer} header: {what}")
            }
        }
    }
}

impl std::error::Error for ParsePacketError {}

/// A raw frame plus receive metadata — the unit both processing paths
/// operate on, analogous to an `xdp_buff` before any `sk_buff` exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Raw L2 frame bytes (without FCS), possibly pool-backed.
    pub data: PacketBuf,
    /// Interface index the packet arrived on (0 = locally generated).
    pub ingress_ifindex: u32,
    /// Receive queue index (RSS queue), as exposed to XDP programs.
    pub rx_queue: u32,
}

impl Packet {
    /// Wraps raw frame bytes received on interface `ingress_ifindex`.
    pub fn new(data: impl Into<PacketBuf>, ingress_ifindex: u32) -> Self {
        Packet {
            data: data.into(),
            ingress_ifindex,
            rx_queue: 0,
        }
    }

    /// A locally generated packet (no ingress interface).
    pub fn local(data: impl Into<PacketBuf>) -> Self {
        Packet::new(data, 0)
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_display() {
        let e = ParsePacketError::Truncated {
            layer: "ipv4",
            needed: 20,
            have: 3,
        };
        assert_eq!(
            e.to_string(),
            "truncated ipv4 header: need 20 bytes, have 3"
        );
        let m = ParsePacketError::Malformed {
            layer: "ipv4",
            what: "version is not 4",
        };
        assert!(m.to_string().contains("version"));
    }

    #[test]
    fn packet_wrapping() {
        let p = Packet::new(vec![0u8; 64], 3);
        assert_eq!(p.len(), 64);
        assert_eq!(p.ingress_ifindex, 3);
        assert!(!p.is_empty());
        let l = Packet::local(vec![]);
        assert!(l.is_empty());
        assert_eq!(l.ingress_ifindex, 0);
    }
}
