//! In-place IPv4/L4 field rewriting with RFC 1624 incremental checksum
//! updates — the one audited implementation shared by the slow path's
//! NAT/ipvs translation and mirrored instruction-for-instruction by the
//! synthesized eBPF rewrite code.
//!
//! Address and port changes patch the IPv4 header checksum (and the TCP
//! checksum, which covers the pseudo-header) by word deltas instead of
//! re-summing. UDP checksums are *cleared* on any change: a zero UDP
//! checksum is legal over IPv4 (RFC 768), and this is exactly what the
//! fast path emits, keeping both paths byte-identical.

use crate::checksum::{fold, incremental_update_u16};
use std::net::Ipv4Addr;

/// One replayable packet edit, recorded by diffing a frame before and
/// after a fast-path run ([`derive_ops`]) and applied verbatim to later
/// packets of the same flow ([`apply_ops`]).
///
/// `Set` stores absolute bytes (correct whenever the covered field is
/// part of the flow key, i.e. identical across packets of the flow);
/// `CsumAdd` stores an RFC 1624 one's-complement delta, which is the
/// *same* for every packet of a flow even though the checksums
/// themselves differ packet to packet (the IPv4 id field varies, but the
/// field rewrites it absorbs are constant).
///
/// Both are stored inline: no field [`derive_ops`] accepts is longer than
/// a MAC address, so recording a flow allocates no byte vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteOp {
    /// Overwrite `frame[off..off + len]` with `bytes[..len]`.
    Set {
        /// Absolute frame offset.
        off: usize,
        /// How many of `bytes` are replacement bytes.
        len: u8,
        /// Replacement bytes, zero past `len`.
        bytes: [u8; SET_MAX],
    },
    /// Incrementally adjust the big-endian checksum word at `off` by a
    /// constant one's-complement delta.
    CsumAdd {
        /// Absolute frame offset of the checksum word.
        off: usize,
        /// One's-complement delta: `new = !fold(!old + delta)`.
        delta: u16,
    },
}

/// The longest field a [`RewriteOp::Set`] can overwrite: a MAC address.
pub const SET_MAX: usize = 6;

impl RewriteOp {
    /// An op that overwrites `src.len()` (at most [`SET_MAX`]) bytes at `off`.
    fn set(off: usize, src: &[u8]) -> Self {
        let mut bytes = [0; SET_MAX];
        bytes[..src.len()].copy_from_slice(src);
        RewriteOp::Set {
            off,
            len: src.len() as u8,
            bytes,
        }
    }
}

/// The one's-complement delta that turns checksum `old` into `new`
/// under [`RewriteOp::CsumAdd`].
fn csum_delta(old: u16, new: u16) -> u16 {
    // new = !fold(!old + delta)  =>  delta = fold(!new - !old) in
    // one's-complement arithmetic (subtraction = addition of complement).
    fold(u32::from(!new) + u32::from(old))
}

/// Applies `ops` to `frame` in place. Ops whose range falls outside the
/// frame are skipped (callers only replay ops on same-length frames of
/// the recorded flow, so this is purely defensive).
pub fn apply_ops(frame: &mut [u8], ops: &[RewriteOp]) {
    for op in ops {
        match op {
            RewriteOp::Set { off, len, bytes } => {
                let bytes = &bytes[..usize::from(*len)];
                if frame.len() >= off + bytes.len() {
                    frame[*off..off + bytes.len()].copy_from_slice(bytes);
                }
            }
            RewriteOp::CsumAdd { off, delta } => {
                if frame.len() >= off + 2 {
                    let old = word(frame, *off);
                    let new = !fold(u32::from(!old) + u32::from(*delta));
                    frame[*off..off + 2].copy_from_slice(&new.to_be_bytes());
                }
            }
        }
    }
}

/// Derives the replayable op list that transforms `before` into `after`,
/// where both are the same IPv4 frame (L3 at `l3`) observed before and
/// after a fast-path program ran.
///
/// Only edits a synthesized pipeline can legitimately make are accepted:
/// Ethernet MAC rewrites, TTL decrement, source/destination address and
/// port NAT, and the corresponding IPv4/TCP checksum fixups (recorded as
/// deltas) or UDP checksum clear (recorded absolutely — the fast path
/// clears it to zero on any change, per RFC 768). A difference anywhere
/// else, or a length change, means the transformation is not expressible
/// as a per-flow replay and `None` is returned.
pub fn derive_ops(before: &[u8], after: &[u8], l3: usize) -> Option<Vec<RewriteOp>> {
    if before.len() != after.len() || before.len() < l3 + 20 {
        return None;
    }
    let ihl = usize::from(before[l3] & 0x0f) * 4;
    if ihl < 20 {
        return None;
    }
    let l4 = l3 + ihl;
    let proto = before[l3 + 9];
    let is_tcp = proto == 6;
    let is_udp = proto == 17;

    // (start, end, kind) allowed regions in ascending frame order; kind:
    // 0 = Set, 1 = CsumAdd. On the stack: this runs on every recorded miss.
    let has_ports = (is_tcp || is_udp) && before.len() >= l4 + 8;
    let udp_csum = has_ports && is_udp;
    let tcp_csum = is_tcp && before.len() >= l4 + 18;
    let regions = [
        Some((0, 6, 0)),                           // eth dst
        Some((6, 12, 0)),                          // eth src
        Some((l3 + 8, l3 + 9, 0)),                 // TTL
        Some((l3 + 10, l3 + 12, 1)),               // IPv4 header checksum
        Some((l3 + 12, l3 + 16, 0)),               // src addr
        Some((l3 + 16, l3 + 20, 0)),               // dst addr
        has_ports.then_some((l4, l4 + 2, 0)),      // sport
        has_ports.then_some((l4 + 2, l4 + 4, 0)),  // dport
        udp_csum.then_some((l4 + 6, l4 + 8, 0)),   // UDP checksum (cleared)
        tcp_csum.then_some((l4 + 16, l4 + 18, 1)), // TCP checksum
    ];

    let mut ops = Vec::new();
    let mut nat_rewrite = false;
    // End of the last allowed region: bytes from here to the next
    // region's start are a gap no program may edit.
    let mut allowed_to = 0;
    for (start, end, kind) in regions.into_iter().flatten() {
        // Any difference outside the allowed regions is uncacheable.
        if start > allowed_to && before[allowed_to..start] != after[allowed_to..start] {
            return None;
        }
        allowed_to = allowed_to.max(end);
        if before[start..end] == after[start..end] {
            continue;
        }
        if start >= l3 + 12 {
            // An address or port changed (NAT/ipvs rewrite).
            nat_rewrite = true;
        }
        match kind {
            0 => ops.push(RewriteOp::set(start, &after[start..end])),
            _ => ops.push(RewriteOp::CsumAdd {
                off: start,
                delta: csum_delta(word(before, start), word(after, start)),
            }),
        }
    }
    if before[allowed_to..] != after[allowed_to..] {
        return None;
    }
    // The fast path clears the UDP checksum on any address/port change.
    // If the recorded packet's checksum was already zero the diff shows
    // nothing, but later packets of the flow may carry nonzero checksums
    // (payload varies), so the clear must be recorded unconditionally.
    if is_udp && nat_rewrite && before.len() >= l4 + 8 {
        let clear = RewriteOp::set(l4 + 6, &[0, 0]);
        if !ops.contains(&clear) {
            ops.retain(|op| !matches!(op, RewriteOp::Set { off, .. } if *off == l4 + 6));
            ops.push(clear);
        }
    }
    Some(ops)
}

/// Which IPv4/L4 fields to rewrite. `None` fields are left alone; a
/// `Some` equal to the current value is a no-op that still counts as a
/// change for the UDP checksum-clearing rule only if any field actually
/// differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldRewrite {
    /// New source address.
    pub src: Option<Ipv4Addr>,
    /// New destination address.
    pub dst: Option<Ipv4Addr>,
    /// New L4 source port.
    pub sport: Option<u16>,
    /// New L4 destination port.
    pub dport: Option<u16>,
}

/// Reads the big-endian word at `off`.
fn word(frame: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([frame[off], frame[off + 1]])
}

/// Replaces the big-endian word at `off`, returning `(old, new)` for
/// checksum deltas.
fn put_word(frame: &mut [u8], off: usize, new: u16) -> (u16, u16) {
    let old = word(frame, off);
    frame[off..off + 2].copy_from_slice(&new.to_be_bytes());
    (old, new)
}

/// Applies `rw` to the IPv4 packet starting at `frame[l3..]`, fixing
/// the IPv4 header checksum and the TCP checksum incrementally and
/// clearing the UDP checksum when anything changed. Ports are only
/// touched for TCP/UDP packets with a complete L4 header in the buffer
/// (unfragmented first fragments — the only thing either path rewrites).
/// Returns whether any byte of the packet changed.
pub fn rewrite_ipv4(frame: &mut [u8], l3: usize, rw: &FieldRewrite) -> bool {
    if frame.len() < l3 + 20 {
        return false;
    }
    let ihl = usize::from(frame[l3] & 0x0f) * 4;
    let l4 = l3 + ihl;
    let proto = frame[l3 + 9];
    let is_tcp = proto == 6;
    let is_udp = proto == 17;
    let has_ports = (is_tcp || is_udp) && frame.len() >= l4 + 8;

    // Collect the (offset-in-header, old, new) word deltas.
    let mut ip_deltas: Vec<(u16, u16)> = Vec::new();
    let mut l4_deltas: Vec<(u16, u16)> = Vec::new();
    for (addr, off) in [(rw.src, l3 + 12), (rw.dst, l3 + 16)] {
        if let Some(a) = addr {
            let o = a.octets();
            let d0 = put_word(frame, off, u16::from_be_bytes([o[0], o[1]]));
            let d1 = put_word(frame, off + 2, u16::from_be_bytes([o[2], o[3]]));
            ip_deltas.push(d0);
            ip_deltas.push(d1);
            // Addresses are in the TCP pseudo-header.
            l4_deltas.push(d0);
            l4_deltas.push(d1);
        }
    }
    if has_ports {
        for (port, off) in [(rw.sport, l4), (rw.dport, l4 + 2)] {
            if let Some(p) = port {
                l4_deltas.push(put_word(frame, off, p));
            }
        }
    }

    let changed = ip_deltas.iter().chain(&l4_deltas).any(|(o, n)| o != n);
    if !changed {
        return false;
    }

    let mut ip_csum = word(frame, l3 + 10);
    for (old, new) in &ip_deltas {
        ip_csum = incremental_update_u16(ip_csum, *old, *new);
    }
    frame[l3 + 10..l3 + 12].copy_from_slice(&ip_csum.to_be_bytes());

    if is_tcp && frame.len() >= l4 + 18 {
        let mut tcp_csum = word(frame, l4 + 16);
        for (old, new) in &l4_deltas {
            tcp_csum = incremental_update_u16(tcp_csum, *old, *new);
        }
        frame[l4 + 16..l4 + 18].copy_from_slice(&tcp_csum.to_be_bytes());
    } else if is_udp && has_ports {
        frame[l4 + 6] = 0;
        frame[l4 + 7] = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::checksum::checksum;
    use crate::{EthernetFrame, Ipv4Header, MacAddr};
    use std::net::Ipv4Addr;

    fn udp_frame() -> (Vec<u8>, usize) {
        let frame = builder::udp_packet(
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            MacAddr::new([2, 0, 0, 0, 0, 2]),
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(8, 8, 8, 8),
            40000,
            53,
            b"query",
        );
        (frame, crate::ETH_HLEN)
    }

    #[test]
    fn identity_rewrite_changes_nothing() {
        let (mut frame, l3) = udp_frame();
        let before = frame.clone();
        assert!(!rewrite_ipv4(&mut frame, l3, &FieldRewrite::default()));
        assert!(!rewrite_ipv4(
            &mut frame,
            l3,
            &FieldRewrite {
                src: Some(Ipv4Addr::new(192, 168, 1, 10)),
                sport: Some(40000),
                ..FieldRewrite::default()
            }
        ));
        assert_eq!(frame, before);
    }

    #[test]
    fn udp_rewrite_fixes_ip_checksum_and_clears_udp() {
        let (mut frame, l3) = udp_frame();
        assert!(rewrite_ipv4(
            &mut frame,
            l3,
            &FieldRewrite {
                src: Some(Ipv4Addr::new(198, 51, 100, 1)),
                sport: Some(32768),
                ..FieldRewrite::default()
            }
        ));
        let eth = EthernetFrame::parse(&frame).unwrap();
        let ip = Ipv4Header::parse(&frame[eth.payload_offset..]).unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(198, 51, 100, 1));
        assert!(ip.verify_checksum(&frame[eth.payload_offset..]));
        let l4 = l3 + ip.header_len;
        assert_eq!(&frame[l4..l4 + 2], &32768u16.to_be_bytes());
        assert_eq!(&frame[l4 + 6..l4 + 8], &[0, 0]);
    }

    #[test]
    fn incremental_ip_checksum_matches_full_recompute() {
        let (mut frame, l3) = udp_frame();
        rewrite_ipv4(
            &mut frame,
            l3,
            &FieldRewrite {
                dst: Some(Ipv4Addr::new(10, 0, 2, 20)),
                dport: Some(8080),
                ..FieldRewrite::default()
            },
        );
        let mut scratch = frame[l3..l3 + 20].to_vec();
        scratch[10] = 0;
        scratch[11] = 0;
        let full = checksum(&scratch);
        assert_eq!(word(&frame, l3 + 10), full);
    }

    fn udp_frame_with(src: Ipv4Addr, sport: u16, payload: &[u8]) -> Vec<u8> {
        builder::udp_packet(
            MacAddr::new([2, 0, 0, 0, 0, 1]),
            MacAddr::new([2, 0, 0, 0, 0, 2]),
            src,
            Ipv4Addr::new(8, 8, 8, 8),
            sport,
            53,
            payload,
        )
    }

    #[test]
    fn derived_ops_replay_a_nat_rewrite_on_sibling_packets() {
        // Record a source-NAT rewrite on one packet...
        let (before, l3) = udp_frame();
        let mut after = before.clone();
        rewrite_ipv4(
            &mut after,
            l3,
            &FieldRewrite {
                src: Some(Ipv4Addr::new(198, 51, 100, 1)),
                sport: Some(32768),
                ..FieldRewrite::default()
            },
        );
        let ops = derive_ops(&before, &after, l3).expect("nat rewrite is replayable");

        // ...replaying on the recorded packet reproduces it exactly...
        let mut replay = before.clone();
        apply_ops(&mut replay, &ops);
        assert_eq!(replay, after);

        // ...and replaying on a *different* packet of the same flow (same
        // headers, different payload, hence different UDP checksum)
        // matches what the rewrite itself would have produced.
        let mut sibling = udp_frame_with(Ipv4Addr::new(192, 168, 1, 10), 40000, b"other");
        let mut expected = sibling.clone();
        rewrite_ipv4(
            &mut expected,
            l3,
            &FieldRewrite {
                src: Some(Ipv4Addr::new(198, 51, 100, 1)),
                sport: Some(32768),
                ..FieldRewrite::default()
            },
        );
        apply_ops(&mut sibling, &ops);
        assert_eq!(sibling, expected);
    }

    #[test]
    fn derived_csum_delta_is_flow_constant() {
        // A TTL decrement's IP-checksum delta must replay correctly on a
        // packet whose IPv4 id (and therefore checksum) differs.
        let (before, l3) = udp_frame();
        let mut after = before.clone();
        after[l3 + 8] -= 1; // TTL 64 -> 63
        let csum = word(&after, l3 + 10);
        let fixed = incremental_update_u16(csum, word(&before, l3 + 8), word(&after, l3 + 8));
        after[l3 + 10..l3 + 12].copy_from_slice(&fixed.to_be_bytes());
        let ops = derive_ops(&before, &after, l3).unwrap();

        // Sibling: same flow, different IPv4 id -> different base csum.
        let mut sibling = before.clone();
        sibling[l3 + 4..l3 + 6].copy_from_slice(&0x1234u16.to_be_bytes());
        let id_fixed =
            incremental_update_u16(word(&sibling, l3 + 10), word(&before, l3 + 4), 0x1234);
        sibling[l3 + 10..l3 + 12].copy_from_slice(&id_fixed.to_be_bytes());

        let mut expected = sibling.clone();
        expected[l3 + 8] -= 1;
        let ecs = incremental_update_u16(
            word(&sibling, l3 + 10),
            word(&sibling, l3 + 8),
            word(&expected, l3 + 8),
        );
        expected[l3 + 10..l3 + 12].copy_from_slice(&ecs.to_be_bytes());

        apply_ops(&mut sibling, &ops);
        assert_eq!(sibling, expected);
    }

    #[test]
    fn udp_checksum_clear_is_recorded_even_when_already_zero() {
        // The recorded packet happens to carry a zero UDP checksum, so
        // the before/after diff alone would not show the clear; the ops
        // must still zero the checksum of later packets.
        let (mut before, l3) = udp_frame();
        let l4 = l3 + 20;
        before[l4 + 6] = 0;
        before[l4 + 7] = 0;
        let mut after = before.clone();
        rewrite_ipv4(
            &mut after,
            l3,
            &FieldRewrite {
                sport: Some(32768),
                ..FieldRewrite::default()
            },
        );
        let ops = derive_ops(&before, &after, l3).unwrap();
        let mut sibling = udp_frame().0; // nonzero UDP checksum
        apply_ops(&mut sibling, &ops);
        assert_eq!(&sibling[l4 + 6..l4 + 8], &[0, 0]);
        assert_eq!(&sibling[l4..l4 + 2], &32768u16.to_be_bytes());
    }

    #[test]
    fn payload_changes_are_not_replayable() {
        let (before, l3) = udp_frame();
        let mut after = before.clone();
        let last = after.len() - 1;
        after[last] ^= 0xFF;
        assert_eq!(derive_ops(&before, &after, l3), None);
        // So is every gap between two allowed regions: the EtherType,
        // the IPv4 id, the protocol byte wedged between TTL and header
        // checksum, the UDP length between the ports and the checksum.
        for off in [12, l3 + 4, l3 + 9, l3 + 20 + 4] {
            let mut after = before.clone();
            after[off] ^= 0x01;
            assert_eq!(derive_ops(&before, &after, l3), None, "offset {off}");
        }
        // Length changes are likewise uncacheable.
        let mut longer = before.clone();
        longer.push(0);
        assert_eq!(derive_ops(&before, &longer, l3), None);
    }

    #[test]
    fn identity_diff_yields_empty_ops() {
        let (frame, l3) = udp_frame();
        assert_eq!(derive_ops(&frame, &frame, l3), Some(Vec::new()));
    }

    #[test]
    fn short_frames_are_left_alone() {
        let mut tiny = vec![0u8; 20];
        assert!(!rewrite_ipv4(
            &mut tiny,
            14,
            &FieldRewrite {
                src: Some(Ipv4Addr::new(1, 2, 3, 4)),
                ..FieldRewrite::default()
            }
        ));
        assert_eq!(tiny, vec![0u8; 20]);
    }
}
