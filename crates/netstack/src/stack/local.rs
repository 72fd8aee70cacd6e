//! Local termination: ARP handling, local delivery (VXLAN decap, ICMP
//! echo), address ownership and packet metadata extraction.
use super::*;

impl Kernel {
    pub(super) fn arp_input(
        &mut self,
        dev: IfIndex,
        eth: &EthernetFrame,
        frame: &[u8],
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        if let Some(t) = &self.telemetry {
            t.slow_arp.inc();
        }
        let Ok(arp) = ArpPacket::parse(&frame[eth.payload_offset..]) else {
            self.drop(out, DropReason::MalformedArp);
            return;
        };
        let device = self.devices.get(&dev).expect("exists");
        let our_mac = device.mac;
        let target_is_ours = device.has_addr(arp.target_ip);

        // Learn the sender (Linux learns from both requests and replies
        // addressed to it).
        if target_is_ours || arp.op == ArpOp::Reply {
            let now = self.now;
            self.neigh.learn(arp.sender_ip, arp.sender_mac, dev, now);
            self.netlink.publish(NetlinkMessage::NewNeigh {
                addr: arp.sender_ip,
                mac: arp.sender_mac,
                dev,
            });
            self.flush_pending_arp(arp.sender_ip, out, queue);
        }

        if arp.op == ArpOp::Request && target_is_ours {
            let reply = arp.reply_to(our_mac);
            let reply_frame = builder::arp_frame(&reply, our_mac, arp.sender_mac);
            self.transmit(dev, reply_frame.into(), out, queue);
        } else {
            // Consumed by the ARP state machine: recorded as an effect
            // (but intentionally not counted as a datapath drop).
            out.trace.event(|| TraceEvent::Drop {
                reason: DropReason::ArpConsumed,
            });
            out.effects.push(Effect::Drop {
                reason: DropReason::ArpConsumed,
            });
        }
    }

    pub(super) fn flush_pending_arp(
        &mut self,
        resolved: Ipv4Addr,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        let Some(waiting) = self.pending_arp.remove(&resolved) else {
            return;
        };
        let now = self.now;
        let Some((mac, _)) = self.neigh.resolved_mac(resolved, now) else {
            return;
        };
        for (egress, mut frame) in waiting {
            if let Some(egress_dev) = self.devices.get(&egress) {
                let src = egress_dev.mac;
                EthernetFrame::rewrite_macs(&mut frame, mac, src);
                self.transmit(egress, frame, out, queue);
            }
        }
    }
    pub(super) fn local_deliver(
        &mut self,
        dev: IfIndex,
        eth: &EthernetFrame,
        frame: PacketBuf,
        ip: &Ipv4Header,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        if let Some(t) = &self.telemetry {
            t.slow_local.inc();
        }
        out.charge(Stage::LocalDeliver, self.cost.local_deliver_ns);
        let l3 = eth.payload_offset;
        let l4 = l3 + ip.header_len;

        // VXLAN termination: UDP to the VXLAN port of a local VXLAN
        // device decapsulates and re-enters as a frame on that device's
        // bridge context.
        if ip.proto == IpProto::Udp {
            if let Ok(udp) = UdpHeader::parse(&frame[l4..]) {
                if let Some(vxlan_dev) = self.vxlan_device_for(ip.dst, udp.dst_port) {
                    out.charge(Stage::VxlanDecap, self.cost.vxlan_decap_ns);
                    if let Ok((_vni, inner)) = builder::vxlan_decapsulate(&frame) {
                        // The inner frame appears as if received on the
                        // VXLAN device, which is typically a bridge port.
                        queue.push_back((vxlan_dev, inner.into()));
                        return;
                    }
                    self.drop(out, DropReason::MalformedVxlan);
                    return;
                }
            }
        }

        // ICMP echo responder.
        if ip.proto == IpProto::Icmp {
            if let Ok(icmp) = IcmpHeader::parse(&frame[l4..]) {
                if icmp.icmp_type == IcmpType::EchoRequest {
                    let payload = &frame[l4 + 8..];
                    let reply = IcmpHeader::build(IcmpType::EchoReply, icmp.id, icmp.seq, payload);
                    let total_len = (ip.header_len + reply.len()) as u16;
                    let mut reply_frame =
                        vec![0u8; linuxfp_packet::ETH_HLEN + ip.header_len + reply.len()];
                    EthernetFrame::write(&mut reply_frame, eth.src, eth.dst, EtherType::Ipv4);
                    Ipv4Header::write(
                        &mut reply_frame[linuxfp_packet::ETH_HLEN..],
                        ip.dst,
                        ip.src,
                        IpProto::Icmp,
                        64,
                        ip.id,
                        total_len,
                        true,
                    );
                    reply_frame[linuxfp_packet::ETH_HLEN + ip.header_len..].copy_from_slice(&reply);
                    self.transmit(dev, reply_frame.into(), out, queue);
                    return;
                }
            }
        }

        out.effects.push(Effect::Deliver { dev, frame });
    }
    pub(super) fn vxlan_device_for(&self, dst: Ipv4Addr, port: u16) -> Option<IfIndex> {
        self.devices
            .values()
            .find(|d| match d.kind {
                DeviceKind::Vxlan {
                    local, port: vport, ..
                } => vport == port && (local == dst || self.owns_addr(dst)),
                _ => false,
            })
            .map(|d| d.index)
    }

    pub(super) fn owns_addr(&self, addr: Ipv4Addr) -> bool {
        self.devices.values().any(|d| d.has_addr(addr))
    }

    pub(super) fn packet_meta(
        &self,
        dev: IfIndex,
        frame: &[u8],
        l3: usize,
        ip: &Ipv4Header,
    ) -> PacketMeta {
        let l4 = l3 + ip.header_len;
        let (sport, dport) = match ip.proto {
            IpProto::Udp => UdpHeader::parse(&frame[l4..])
                .map(|u| (u.src_port, u.dst_port))
                .unwrap_or((0, 0)),
            IpProto::Tcp => linuxfp_packet::TcpHeader::parse(&frame[l4..])
                .map(|t| (t.src_port, t.dst_port))
                .unwrap_or((0, 0)),
            _ => (0, 0),
        };
        PacketMeta {
            src: ip.src,
            dst: ip.dst,
            proto: ip.proto,
            sport,
            dport,
            in_if: dev,
            out_if: IfIndex::NONE,
        }
    }
}
