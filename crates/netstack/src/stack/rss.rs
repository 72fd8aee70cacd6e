//! Receive-side scaling: the multi-queue NIC's flow-to-queue hash.
//!
//! A multi-queue NIC computes a Toeplitz hash over the packet's 5-tuple
//! and indirects it into a receive queue; each queue is serviced by one
//! core. We model exactly that: [`shard_for`] is the hash + indirection,
//! and the queue index travels on `Packet::rx_queue` — the same field XDP
//! programs read via `xdp_md.rx_queue_index`.
//!
//! Two properties matter for correctness of the sharded datapath:
//!
//! - **Symmetry.** Both directions of a flow must land on the same shard
//!   so a connection's cached verdicts (flow cache, conntrack-driven NAT
//!   state) stay core-local. Real deployments get this by programming a
//!   symmetric Toeplitz key (the `0x6d5a` repeating key of Woo &
//!   Park); we get it by hashing the *canonically ordered* endpoint
//!   pair, which is symmetric under any key.
//! - **MAC independence.** The hash reads only L3/L4 fields, so two
//!   kernels that differ in interface MACs (the difftest harness) steer
//!   every flow identically.
//!
//! Non-IPv4 frames (ARP, BPDUs, unparseable runts) have no 5-tuple; real
//! NICs put them on queue 0, and so do we.

use linuxfp_packet::{EtherType, EthernetFrame, IpProto, Ipv4Header};

/// Hard cap on the shard count (`net.linuxfp.rss_shards` is clamped to
/// `1..=MAX_RSS_SHARDS`). Sixteen matches the widest core sweep in the
/// paper's Figure 5.
pub const MAX_RSS_SHARDS: u32 = 16;

/// The `shard` telemetry label of each shard, so the packet path labels a
/// series without formatting the index.
pub const SHARD_LABELS: [&str; MAX_RSS_SHARDS as usize] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// The Microsoft RSS reference key. The symmetric property comes from
/// canonical endpoint ordering (see module docs), not from the key, so
/// the standard key's good bit-mixing can be kept.
const TOEPLITZ_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// The 32-bit window of the key starting at bit offset `off`.
fn key_window(off: usize) -> u32 {
    let byte = off / 8;
    let shift = off % 8;
    let mut w = 0u64;
    for k in 0..5 {
        w = (w << 8) | u64::from(TOEPLITZ_KEY[(byte + k) % TOEPLITZ_KEY.len()]);
    }
    ((w >> (8 - shift)) & 0xFFFF_FFFF) as u32
}

/// The Toeplitz hash of `data`: for every set input bit, XOR in the
/// 32-bit key window aligned at that bit.
fn toeplitz(data: &[u8]) -> u32 {
    let mut hash = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                hash ^= key_window(i * 8 + bit);
            }
        }
    }
    hash
}

/// The RSS flow hash of an IPv4 frame, or `None` when the frame has no
/// 5-tuple (non-IPv4, truncated). Symmetric: a flow and its reply hash
/// identically.
pub fn flow_hash(frame: &[u8]) -> Option<u32> {
    let eth = EthernetFrame::parse(frame).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let l3 = eth.payload_offset;
    let ip = Ipv4Header::parse(frame.get(l3..)?).ok()?;
    let l4 = l3 + ip.header_len;
    // Ports sit in the first four bytes of both TCP and UDP headers.
    // Fragments past the first have no L4 header: hash ports as zero so
    // all fragments of a datagram still share a shard.
    let (sport, dport) = match ip.proto {
        IpProto::Tcp | IpProto::Udp if ip.fragment_offset == 0 => match frame.get(l4..l4 + 4) {
            Some(p) => (
                u16::from_be_bytes([p[0], p[1]]),
                u16::from_be_bytes([p[2], p[3]]),
            ),
            None => (0, 0),
        },
        _ => (0, 0),
    };
    // Canonical endpoint ordering makes the hash direction-agnostic.
    let a = (ip.src.octets(), sport);
    let b = (ip.dst.octets(), dport);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut input = [0u8; 13];
    input[..4].copy_from_slice(&lo.0);
    input[4..6].copy_from_slice(&lo.1.to_be_bytes());
    input[6..10].copy_from_slice(&hi.0);
    input[10..12].copy_from_slice(&hi.1.to_be_bytes());
    input[12] = ip.proto.to_u8();
    Some(toeplitz(&input))
}

/// The shard (receive queue) for a frame under an `shards`-queue NIC:
/// the flow hash reduced by the indirection table, queue 0 for frames
/// with no 5-tuple. `shards <= 1` always steers to shard 0.
pub fn shard_for(frame: &[u8], shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    match flow_hash(frame) {
        Some(h) => h % shards.min(MAX_RSS_SHARDS),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_packet::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn udp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        src_mac: MacAddr,
        dst_mac: MacAddr,
    ) -> Vec<u8> {
        builder::udp_packet(src_mac, dst_mac, src, dst, sport, dport, b"x")
    }

    #[test]
    fn hash_is_symmetric_and_mac_independent() {
        let m1 = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let m2 = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let m3 = MacAddr::new([2, 0, 0, 0, 0, 3]);
        let a = Ipv4Addr::new(10, 0, 1, 7);
        let b = Ipv4Addr::new(10, 0, 2, 9);
        let fwd = udp(a, b, 5000, 53, m1, m2);
        let rev = udp(b, a, 53, 5000, m2, m1);
        let fwd_other_macs = udp(a, b, 5000, 53, m3, m1);
        let h = flow_hash(&fwd).unwrap();
        assert_eq!(h, flow_hash(&rev).unwrap(), "reply must share the shard");
        assert_eq!(h, flow_hash(&fwd_other_macs).unwrap(), "L2 must not matter");
        // A different flow should (for this tuple) hash differently.
        let other = udp(a, b, 5001, 53, m1, m2);
        assert_ne!(h, flow_hash(&other).unwrap());
    }

    #[test]
    fn non_ipv4_and_single_shard_steer_to_zero() {
        assert_eq!(shard_for(&[0u8; 9], 8), 0, "runt");
        let sender = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let arp = builder::arp_frame(
            &linuxfp_packet::ArpPacket::request(
                sender,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
            sender,
            MacAddr::BROADCAST,
        );
        assert_eq!(shard_for(&arp, 8), 0, "no 5-tuple");
        let m1 = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let m2 = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let f = udp(
            Ipv4Addr::new(10, 0, 1, 7),
            Ipv4Addr::new(10, 0, 2, 9),
            5000,
            53,
            m1,
            m2,
        );
        assert_eq!(shard_for(&f, 1), 0);
        assert!(shard_for(&f, 8) < 8);
    }

    #[test]
    fn hash_spreads_flows_across_shards() {
        // 64 distinct flows over 8 shards: every shard should see some
        // traffic and no shard should hog more than half.
        let m1 = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let m2 = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let mut counts = [0usize; 8];
        for i in 0..64u16 {
            let f = udp(
                Ipv4Addr::new(10, 0, 1, (i % 200) as u8 + 1),
                Ipv4Addr::new(10, 0, 2, 9),
                5000 + i,
                53,
                m1,
                m2,
            );
            counts[shard_for(&f, 8) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "dead shard: {counts:?}");
        assert!(counts.iter().all(|&c| c < 32), "hot shard: {counts:?}");
    }

    #[test]
    fn shard_labels_are_the_shard_indices() {
        let indices: Vec<String> = (0..MAX_RSS_SHARDS).map(|s| s.to_string()).collect();
        assert_eq!(SHARD_LABELS.to_vec(), indices);
    }
}
