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

use linuxfp_packet::eth::VLAN_HLEN;
use linuxfp_packet::{ETH_HLEN, IPV4_MIN_HLEN};

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

/// Bytes of hash input: the canonically ordered endpoints (address and
/// port each) and the protocol.
const INPUT_LEN: usize = 13;

/// `TOEPLITZ_TABLE[i][b]`: the hash of an input whose only non-zero byte
/// is `b`, at position `i`. The Toeplitz hash is linear (XOR) in its
/// input bits, so an input's hash is the XOR of its bytes' entries.
static TOEPLITZ_TABLE: [[u32; 256]; INPUT_LEN] = toeplitz_table();

/// Builds [`TOEPLITZ_TABLE`] at compile time: for every set input bit,
/// XOR in the 32-bit key window aligned at that bit. The 40 key bits from
/// byte `i` on hold the windows of byte `i`'s eight bits.
const fn toeplitz_table() -> [[u32; 256]; INPUT_LEN] {
    let mut table = [[0u32; 256]; INPUT_LEN];
    let mut i = 0;
    while i < INPUT_LEN {
        let mut key = 0u64;
        let mut k = 0;
        while k < 5 {
            key = (key << 8) | TOEPLITZ_KEY[i + k] as u64;
            k += 1;
        }
        let mut byte = 0;
        while byte < 256 {
            let mut bit = 0;
            while bit < 8 {
                if byte & (0x80 >> bit) != 0 {
                    table[i][byte] ^= (key >> (8 - bit)) as u32;
                }
                bit += 1;
            }
            byte += 1;
        }
        i += 1;
    }
    table
}

/// The Toeplitz hash of one input: a lookup and an XOR per byte.
fn toeplitz_hash(input: &[u8; INPUT_LEN]) -> u32 {
    input
        .iter()
        .zip(&TOEPLITZ_TABLE)
        .fold(0, |hash, (&byte, row)| hash ^ row[usize::from(byte)])
}

const ETHERTYPE_IPV4: u16 = 0x0800;
const ETHERTYPE_VLAN: u16 = 0x8100;
const PROTO_TCP: u8 = 6;
const PROTO_UDP: u8 = 17;

/// The big-endian `u16` at `off`, if the frame holds it.
fn be16(frame: &[u8], off: usize) -> Option<u16> {
    let b = frame.get(off..off + 2)?;
    Some(u16::from_be_bytes([b[0], b[1]]))
}

/// The RSS flow hash of an IPv4 frame, or `None` when the frame has no
/// 5-tuple (non-IPv4, truncated). Symmetric: a flow and its reply hash
/// identically.
///
/// Reads the fields at their fixed offsets, as a NIC does, and admits
/// exactly the frames `EthernetFrame::parse` and `Ipv4Header::parse`
/// accept: an Ethernet header with at most one 802.1Q tag, then an IPv4
/// header of version 4 whose IHL is at least 5 and fits the frame.
pub fn flow_hash(frame: &[u8]) -> Option<u32> {
    let mut l3 = ETH_HLEN;
    let mut ethertype = be16(frame, ETH_HLEN - 2)?;
    if ethertype == ETHERTYPE_VLAN {
        ethertype = be16(frame, ETH_HLEN + VLAN_HLEN - 2)?;
        l3 += VLAN_HLEN;
    }
    if ethertype != ETHERTYPE_IPV4 {
        return None;
    }
    let ip = frame.get(l3..l3 + IPV4_MIN_HLEN)?;
    let header_len = usize::from(ip[0] & 0x0F) * 4;
    if ip[0] >> 4 != 4 || header_len < IPV4_MIN_HLEN || frame.len() < l3 + header_len {
        return None;
    }
    let proto = ip[9];
    let fragment_offset = u16::from_be_bytes([ip[6], ip[7]]) & 0x1FFF;
    // Ports sit in the first four bytes of both TCP and UDP headers.
    // Fragments past the first have no L4 header: hash ports as zero so
    // all fragments of a datagram still share a shard.
    let l4 = l3 + header_len;
    let ports = match proto {
        PROTO_TCP | PROTO_UDP if fragment_offset == 0 => frame.get(l4..l4 + 4),
        _ => None,
    };
    let ports = ports.map_or([0; 4], |p| [p[0], p[1], p[2], p[3]]);
    // Canonical endpoint ordering makes the hash direction-agnostic:
    // address then port, compared as one big-endian number.
    let a = [ip[12], ip[13], ip[14], ip[15], ports[0], ports[1]];
    let b = [ip[16], ip[17], ip[18], ip[19], ports[2], ports[3]];
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut input = [0u8; INPUT_LEN];
    input[..6].copy_from_slice(&lo);
    input[6..12].copy_from_slice(&hi);
    input[12] = proto;
    Some(toeplitz_hash(&input))
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
    use linuxfp_packet::tcp::TcpFlags;
    use linuxfp_packet::{builder, EtherType, EthernetFrame, IpProto, Ipv4Header, MacAddr};
    use linuxfp_sim::SimRng;
    use std::net::Ipv4Addr;

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

    /// The bit-serial Toeplitz hash of `data`, the table's oracle: for
    /// every set input bit, XOR in the 32-bit key window aligned at that
    /// bit.
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

    /// [`flow_hash`] through the packet parsers and the bit-serial hash,
    /// the fixed-offset version's oracle.
    fn flow_hash_parsed(frame: &[u8]) -> Option<u32> {
        let eth = EthernetFrame::parse(frame).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let l3 = eth.payload_offset;
        let ip = Ipv4Header::parse(frame.get(l3..)?).ok()?;
        let l4 = l3 + ip.header_len;
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

    #[test]
    fn bit_serial_hash_reproduces_the_microsoft_verification_vectors() {
        // "Verifying the RSS hash calculation": input is source address,
        // destination address, then (with TCP) source port, destination
        // port; each row is (src, sport, dst, dport, IPv4 hash, TCP hash).
        let vectors = [
            (
                [66, 9, 149, 187],
                2794,
                [161, 142, 100, 80],
                1766,
                0x323e_8fc2,
                0x51cc_c178,
            ),
            (
                [199, 92, 111, 2],
                14230,
                [65, 69, 140, 83],
                4739,
                0xd718_262a,
                0xc626_b0ea,
            ),
            (
                [24, 19, 198, 95],
                12898,
                [12, 22, 207, 184],
                38024,
                0xd2d0_a5de,
                0x5c2b_394a,
            ),
            (
                [38, 27, 205, 30],
                48228,
                [209, 142, 163, 6],
                2217,
                0x8298_9176,
                0xafc7_327f,
            ),
            (
                [153, 39, 163, 191],
                44251,
                [202, 188, 127, 2],
                1303,
                0x5d18_09c5,
                0x10e8_28a2,
            ),
        ];
        for (src, sport, dst, dport, ipv4, tcp) in vectors {
            let mut input = [0u8; INPUT_LEN];
            input[..4].copy_from_slice(&src);
            input[4..8].copy_from_slice(&dst);
            assert_eq!(toeplitz(&input[..8]), ipv4, "{src:?} -> {dst:?}");
            // Trailing zero bytes set no bit: the table hashes the
            // padded input identically.
            assert_eq!(toeplitz_hash(&input), ipv4);
            input[8..10].copy_from_slice(&u16::to_be_bytes(sport));
            input[10..12].copy_from_slice(&u16::to_be_bytes(dport));
            assert_eq!(
                toeplitz(&input[..12]),
                tcp,
                "{src:?}:{sport} -> {dst:?}:{dport}"
            );
            assert_eq!(toeplitz_hash(&input), tcp);
        }
    }

    #[test]
    fn table_hash_matches_the_bit_serial_oracle() {
        let mut rng = SimRng::seed(0x7ab1e);
        for _ in 0..100_000 {
            let mut input = [0u8; INPUT_LEN];
            for byte in &mut input {
                *byte = rng.uniform_u64(256) as u8;
            }
            assert_eq!(toeplitz_hash(&input), toeplitz(&input), "{input:02x?}");
        }
        // Every single-bit input: one key window each.
        for bit in 0..INPUT_LEN * 8 {
            let mut input = [0u8; INPUT_LEN];
            input[bit / 8] = 0x80 >> (bit % 8);
            assert_eq!(toeplitz_hash(&input), key_window(bit), "bit {bit}");
        }
    }

    /// A random frame around a random UDP, TCP or other-protocol IPv4
    /// packet, possibly VLAN-tagged, fragmented, malformed or truncated.
    fn random_frame(rng: &mut SimRng) -> Vec<u8> {
        let byte = |rng: &mut SimRng| rng.uniform_u64(256) as u8;
        let addr = |rng: &mut SimRng| {
            // Few distinct addresses, so equal addresses (where the
            // ports decide the order) come up often.
            Ipv4Addr::new(10, 0, rng.uniform_u64(2) as u8, rng.uniform_u64(3) as u8)
        };
        let (src, dst) = (addr(rng), addr(rng));
        let (sport, dport) = (rng.uniform_u64(4) as u16, rng.uniform_u64(4) as u16);
        let m1 = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let m2 = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let mut frame = if rng.chance(0.5) {
            builder::udp_packet(m1, m2, src, dst, sport, dport, b"payload")
        } else {
            builder::tcp_packet(
                m1,
                m2,
                src,
                dst,
                sport,
                dport,
                TcpFlags::default(),
                b"payload",
            )
        };
        let l3 = ETH_HLEN;
        if rng.chance(0.2) {
            let other = byte(rng);
            frame[l3 + 9] = *rng.choose(&[1, 6, 17, 47, other]);
        }
        if rng.chance(0.2) {
            // Any flags (reserved, DF, MF) over a zero offset, a one-bit
            // one or a random one.
            let flags = (rng.uniform_u64(8) as u16) << 13;
            let offset = match rng.uniform_u64(3) {
                0 => 0,
                1 => 1 << rng.uniform_u64(13),
                _ => rng.uniform_u64(0x2000) as u16,
            };
            frame[l3 + 6..l3 + 8].copy_from_slice(&(flags | offset).to_be_bytes());
        }
        if rng.chance(0.2) {
            // A random version or IHL (short, or options past the end).
            frame[l3] = byte(rng);
        }
        if rng.chance(0.1) {
            frame[12] = byte(rng);
            frame[13] = byte(rng);
        }
        for _ in 0..rng.uniform_u64(3) {
            // An 802.1Q tag, or a second one the parser does not strip.
            let tag = [0x81, 0x00, byte(rng), byte(rng)];
            frame.splice(12..12, tag);
        }
        if rng.chance(0.3) {
            frame.truncate(rng.uniform_u64(frame.len() as u64 + 1) as usize);
        }
        frame
    }

    #[test]
    fn fixed_offsets_agree_with_the_parser_oracle() {
        let mut rng = SimRng::seed(0xf1a3);
        let mut hashed = 0;
        for _ in 0..50_000 {
            let frame = random_frame(&mut rng);
            let want = flow_hash_parsed(&frame);
            assert_eq!(flow_hash(&frame), want, "{frame:02x?}");
            hashed += usize::from(want.is_some());
        }
        // Both verdicts are well represented.
        assert!((10_000..40_000).contains(&hashed), "{hashed} hashed");
    }

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
