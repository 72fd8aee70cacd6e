//! Convenience builders for complete frames, used by workload generators
//! and tests.

use crate::eth::{EtherType, EthernetFrame, MacAddr, ETH_HLEN};
use crate::icmp::{IcmpHeader, IcmpType};
use crate::ipv4::{IpProto, Ipv4Header, IPV4_MIN_HLEN};
use crate::tcp::{TcpFlags, TcpHeader, TCP_MIN_HLEN};
use crate::udp::{UdpHeader, UDP_HLEN};
use crate::vxlan::{VxlanHeader, VXLAN_HLEN, VXLAN_PORT};
use std::net::Ipv4Addr;

/// Default TTL for generated packets.
pub const DEFAULT_TTL: u8 = 64;

/// Builds `eth / ipv4 / udp / payload`.
pub fn udp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let ip_len = IPV4_MIN_HLEN + UDP_HLEN + payload.len();
    let mut frame = vec![0u8; ETH_HLEN + ip_len];
    EthernetFrame::write(&mut frame, dst_mac, src_mac, EtherType::Ipv4);
    Ipv4Header::write(
        &mut frame[ETH_HLEN..],
        src_ip,
        dst_ip,
        IpProto::Udp,
        DEFAULT_TTL,
        0,
        ip_len as u16,
        true,
    );
    UdpHeader::write(
        &mut frame[ETH_HLEN + IPV4_MIN_HLEN..],
        src_port,
        dst_port,
        (UDP_HLEN + payload.len()) as u16,
    );
    frame[ETH_HLEN + IPV4_MIN_HLEN + UDP_HLEN..].copy_from_slice(payload);
    frame
}

/// Builds a UDP packet padded (or payload-sized) to a target frame length
/// — the knob the packet-size sweep (paper Fig. 6) turns. The `frame_len`
/// excludes the 4-byte FCS, so a "64-byte packet" benchmark uses 60 here.
///
/// # Panics
///
/// Panics if `frame_len` cannot hold the headers.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet_sized(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    frame_len: usize,
) -> Vec<u8> {
    let min = ETH_HLEN + IPV4_MIN_HLEN + UDP_HLEN;
    assert!(
        frame_len >= min,
        "frame_len {frame_len} below minimum {min}"
    );
    let mut frame = Vec::with_capacity(frame_len);
    udp_packet_sized_into(
        src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, frame_len, &mut frame,
    );
    frame
}

/// Like [`udp_packet_sized`] but writing into a reusable buffer (cleared
/// and resized in place) — the zero-allocation path pooled workload
/// generators use in steady state.
///
/// # Panics
///
/// Panics if `frame_len` cannot hold the headers.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet_sized_into(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    frame_len: usize,
    buf: &mut Vec<u8>,
) {
    let min = ETH_HLEN + IPV4_MIN_HLEN + UDP_HLEN;
    assert!(
        frame_len >= min,
        "frame_len {frame_len} below minimum {min}"
    );
    buf.clear();
    buf.resize(frame_len, 0);
    let ip_len = frame_len - ETH_HLEN;
    EthernetFrame::write(buf, dst_mac, src_mac, EtherType::Ipv4);
    Ipv4Header::write(
        &mut buf[ETH_HLEN..],
        src_ip,
        dst_ip,
        IpProto::Udp,
        DEFAULT_TTL,
        0,
        ip_len as u16,
        true,
    );
    UdpHeader::write(
        &mut buf[ETH_HLEN + IPV4_MIN_HLEN..],
        src_port,
        dst_port,
        (ip_len - IPV4_MIN_HLEN) as u16,
    );
}

/// Builds `eth / ipv4 / tcp / payload`.
#[allow(clippy::too_many_arguments)]
pub fn tcp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload: &[u8],
) -> Vec<u8> {
    let ip_len = IPV4_MIN_HLEN + TCP_MIN_HLEN + payload.len();
    let mut frame = vec![0u8; ETH_HLEN + ip_len];
    EthernetFrame::write(&mut frame, dst_mac, src_mac, EtherType::Ipv4);
    Ipv4Header::write(
        &mut frame[ETH_HLEN..],
        src_ip,
        dst_ip,
        IpProto::Tcp,
        DEFAULT_TTL,
        0,
        ip_len as u16,
        true,
    );
    TcpHeader::write(
        &mut frame[ETH_HLEN + IPV4_MIN_HLEN..],
        src_port,
        dst_port,
        0,
        0,
        flags,
    );
    frame[ETH_HLEN + IPV4_MIN_HLEN + TCP_MIN_HLEN..].copy_from_slice(payload);
    frame
}

/// Builds `eth / ipv4 / icmp-echo-request`.
pub fn icmp_echo_request(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    id: u16,
    seq: u16,
) -> Vec<u8> {
    let icmp = IcmpHeader::build(IcmpType::EchoRequest, id, seq, b"linuxfp-ping");
    let ip_len = IPV4_MIN_HLEN + icmp.len();
    let mut frame = vec![0u8; ETH_HLEN + ip_len];
    EthernetFrame::write(&mut frame, dst_mac, src_mac, EtherType::Ipv4);
    Ipv4Header::write(
        &mut frame[ETH_HLEN..],
        src_ip,
        dst_ip,
        IpProto::Icmp,
        DEFAULT_TTL,
        0,
        ip_len as u16,
        true,
    );
    frame[ETH_HLEN + IPV4_MIN_HLEN..].copy_from_slice(&icmp);
    frame
}

/// Builds an ARP frame (request or reply) ready for the wire.
pub fn arp_frame(arp: &crate::arp::ArpPacket, src_mac: MacAddr, dst_mac: MacAddr) -> Vec<u8> {
    let body = arp.to_bytes();
    let mut frame = vec![0u8; ETH_HLEN + body.len()];
    EthernetFrame::write(&mut frame, dst_mac, src_mac, EtherType::Arp);
    frame[ETH_HLEN..].copy_from_slice(&body);
    frame
}

/// Encapsulates an inner L2 frame in `eth / ipv4 / udp(4789) / vxlan`,
/// the Flannel-style overlay format.
#[allow(clippy::too_many_arguments)]
pub fn vxlan_encapsulate(
    inner: &[u8],
    vni: u32,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
) -> Vec<u8> {
    let vxlan = VxlanHeader { vni }.to_bytes();
    let udp_len = UDP_HLEN + VXLAN_HLEN + inner.len();
    let ip_len = IPV4_MIN_HLEN + udp_len;
    let mut frame = vec![0u8; ETH_HLEN + ip_len];
    EthernetFrame::write(&mut frame, dst_mac, src_mac, EtherType::Ipv4);
    Ipv4Header::write(
        &mut frame[ETH_HLEN..],
        src_ip,
        dst_ip,
        IpProto::Udp,
        DEFAULT_TTL,
        0,
        ip_len as u16,
        true,
    );
    UdpHeader::write(
        &mut frame[ETH_HLEN + IPV4_MIN_HLEN..],
        src_port,
        VXLAN_PORT,
        udp_len as u16,
    );
    let off = ETH_HLEN + IPV4_MIN_HLEN + UDP_HLEN;
    frame[off..off + VXLAN_HLEN].copy_from_slice(&vxlan);
    frame[off + VXLAN_HLEN..].copy_from_slice(inner);
    frame
}

/// Extracts the inner frame from a VXLAN-encapsulated packet, returning
/// `(vni, inner_frame)`.
///
/// # Errors
///
/// Returns a parse error when any layer is truncated, the packet is not
/// UDP/4789, or the VXLAN header is malformed.
pub fn vxlan_decapsulate(frame: &[u8]) -> Result<(u32, Vec<u8>), crate::ParsePacketError> {
    let eth = EthernetFrame::parse(frame)?;
    let ip = Ipv4Header::parse(&frame[eth.payload_offset..])?;
    let l4 = eth.payload_offset + ip.header_len;
    let udp = UdpHeader::parse(&frame[l4..])?;
    if ip.proto != IpProto::Udp || udp.dst_port != VXLAN_PORT {
        return Err(crate::ParsePacketError::Malformed {
            layer: "vxlan",
            what: "not a VXLAN/UDP packet",
        });
    }
    let vx_off = l4 + UDP_HLEN;
    let vx = VxlanHeader::parse(&frame[vx_off..])?;
    Ok((vx.vni, frame[vx_off + VXLAN_HLEN..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arp::ArpPacket;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::from_index(1), MacAddr::from_index(2))
    }

    #[test]
    fn udp_packet_layers_parse() {
        let (s, d) = macs();
        let f = udp_packet(
            s,
            d,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1111,
            2222,
            b"abc",
        );
        let eth = EthernetFrame::parse(&f).unwrap();
        let ip = Ipv4Header::parse(&f[eth.payload_offset..]).unwrap();
        assert!(ip.verify_checksum(&f[eth.payload_offset..]));
        assert_eq!(ip.total_len as usize, f.len() - ETH_HLEN);
        let udp = UdpHeader::parse(&f[eth.payload_offset + ip.header_len..]).unwrap();
        assert_eq!(udp.dst_port, 2222);
        assert_eq!(&f[f.len() - 3..], b"abc");
    }

    #[test]
    fn sized_packet_hits_exact_length() {
        let (s, d) = macs();
        for len in [60usize, 128, 512, 1496] {
            let f = udp_packet_sized(
                s,
                d,
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                1,
                2,
                len,
            );
            assert_eq!(f.len(), len);
            let eth = EthernetFrame::parse(&f).unwrap();
            let ip = Ipv4Header::parse(&f[eth.payload_offset..]).unwrap();
            assert!(ip.verify_checksum(&f[eth.payload_offset..]));
        }
    }

    #[test]
    #[should_panic(expected = "below minimum")]
    fn sized_packet_too_small_panics() {
        let (s, d) = macs();
        udp_packet_sized(s, d, Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 1, 2, 10);
    }

    #[test]
    fn tcp_packet_parses() {
        let (s, d) = macs();
        let f = tcp_packet(
            s,
            d,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            40000,
            80,
            TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            b"",
        );
        let eth = EthernetFrame::parse(&f).unwrap();
        let ip = Ipv4Header::parse(&f[eth.payload_offset..]).unwrap();
        assert_eq!(ip.proto, IpProto::Tcp);
        let tcp = TcpHeader::parse(&f[eth.payload_offset + ip.header_len..]).unwrap();
        assert!(tcp.flags.syn);
    }

    #[test]
    fn icmp_echo_parses() {
        let (s, d) = macs();
        let f = icmp_echo_request(
            s,
            d,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            7,
            3,
        );
        let eth = EthernetFrame::parse(&f).unwrap();
        let ip = Ipv4Header::parse(&f[eth.payload_offset..]).unwrap();
        assert_eq!(ip.proto, IpProto::Icmp);
        let icmp = IcmpHeader::parse(&f[eth.payload_offset + ip.header_len..]).unwrap();
        assert_eq!(icmp.icmp_type, IcmpType::EchoRequest);
        assert_eq!(icmp.seq, 3);
    }

    #[test]
    fn arp_frame_parses() {
        let (s, _d) = macs();
        let req = ArpPacket::request(s, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 2));
        let f = arp_frame(&req, s, MacAddr::BROADCAST);
        let eth = EthernetFrame::parse(&f).unwrap();
        assert_eq!(eth.ethertype, EtherType::Arp);
        assert!(eth.dst.is_broadcast());
        let parsed = ArpPacket::parse(&f[eth.payload_offset..]).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn vxlan_encap_decap_round_trip() {
        let (s, d) = macs();
        let inner = udp_packet(
            MacAddr::from_index(10),
            MacAddr::from_index(11),
            Ipv4Addr::new(10, 244, 1, 2),
            Ipv4Addr::new(10, 244, 2, 3),
            5000,
            6000,
            b"pod-to-pod",
        );
        let outer = vxlan_encapsulate(
            &inner,
            1,
            s,
            d,
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            33333,
        );
        let (vni, got) = vxlan_decapsulate(&outer).unwrap();
        assert_eq!(vni, 1);
        assert_eq!(got, inner);
    }

    #[test]
    fn vxlan_decap_rejects_plain_udp() {
        let (s, d) = macs();
        let f = udp_packet(
            s,
            d,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            80,
            b"x",
        );
        assert!(vxlan_decapsulate(&f).is_err());
    }
}
