//! The L3 forwarding path: `ip_input` through netfilter/NAT/ipvs to
//! `transmit`/`ip_output`, plus ARP resolution queueing and ICMP errors.
use super::*;

impl Kernel {
    pub(super) fn ip_input(
        &mut self,
        dev: IfIndex,
        eth: &EthernetFrame,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        out.charge(Stage::IpRcv, self.cost.ip_rcv_ns);
        if let Some(t) = &self.telemetry {
            t.slow_ip.inc();
        }
        let l3 = eth.payload_offset;
        let Ok(ip) = Ipv4Header::parse(&frame[l3..]) else {
            self.drop(out, DropReason::MalformedIpv4);
            return;
        };
        if !ip.verify_checksum(&frame[l3..]) {
            self.drop(out, DropReason::BadIpv4Checksum);
            return;
        }

        let meta = self.packet_meta(dev, &frame, l3, &ip);

        // Conntrack (when enabled for this host).
        if self.conntrack_forward {
            self.coherence(CoherentStruct::Conntrack, out);
            out.charge(Stage::Conntrack, self.cost.conntrack_lookup_ns);
            let now = self.now;
            self.conntrack
                .track(ip.src, meta.sport, ip.dst, meta.dport, ip.proto, now);
            // track() writes (entry create/refresh): a shard's own write
            // must not read as remote on its next packet.
            self.coherence_refresh(CoherentStruct::Conntrack);
        }

        // PREROUTING.
        self.coherence(CoherentStruct::Netfilter, out);
        if let Some(t) = &self.telemetry {
            t.slow_netfilter.inc();
        }
        let verdict = self.netfilter.evaluate_traced(
            ChainHook::Prerouting,
            &meta,
            &self.cost,
            &mut out.cost,
            &mut out.trace,
        );
        if verdict == NfVerdict::Drop {
            self.drop(out, DropReason::NfPreroutingDrop);
            return;
        }

        let mut frame = frame;
        let mut ip = ip;
        let mut meta = meta;

        // nat PREROUTING: an established binding or a DNAT rule rewrites
        // the destination before routing; the source half (SNAT /
        // masquerade) is applied at POSTROUTING. Rule evaluation and
        // binding management are slow-path work — the fast path reads
        // the resulting bindings through `bpf_nat_lookup`.
        let mut nat_ctx: Option<NatCtx> = None;
        let nat_active = self.nat.total_rules() > 0 || self.conntrack.nat_len() > 0;
        if nat_active && matches!(ip.proto, IpProto::Udp | IpProto::Tcp) {
            self.coherence(CoherentStruct::Nat, out);
            self.coherence(CoherentStruct::Conntrack, out);
            out.charge(Stage::NatLookup, self.cost.conntrack_lookup_ns);
            let now = self.now;
            let tuple = NatTuple::new(ip.src, meta.sport, ip.dst, meta.dport, ip.proto.to_u8());
            nat_ctx = self.nat.prerouting(&mut self.conntrack, tuple, dev, now);
            self.coherence_refresh(CoherentStruct::Nat);
            self.coherence_refresh(CoherentStruct::Conntrack);
            let mut rewritten = false;
            if let Some(ctx) = &nat_ctx {
                if ctx.xlat.dst != tuple.dst || ctx.xlat.dport != tuple.dport {
                    if let Some(t) = &self.telemetry {
                        t.slow_nat.inc();
                    }
                    linuxfp_packet::rewrite_ipv4(
                        &mut frame,
                        l3,
                        &linuxfp_packet::FieldRewrite {
                            dst: Some(ctx.xlat.dst),
                            dport: Some(ctx.xlat.dport),
                            ..Default::default()
                        },
                    );
                    ip = Ipv4Header::parse(&frame[l3..]).expect("rewritten header valid");
                    meta = self.packet_meta(dev, &frame, l3, &ip);
                    rewritten = true;
                }
            }
            Nat::trace_hook(
                &mut out.trace,
                "prerouting",
                rewritten,
                self.cost.conntrack_lookup_ns,
            );
        }

        // ipvs NAT: traffic to a virtual service is rewritten toward a
        // backend — pinned flows reuse their backend; new flows are
        // scheduled here (slow-path work per paper Table I, row 4).
        if !self.ipvs.is_empty() && matches!(ip.proto, IpProto::Udp | IpProto::Tcp) {
            self.coherence(CoherentStruct::Ipvs, out);
            self.coherence(CoherentStruct::Conntrack, out);
            out.charge(Stage::Conntrack, self.cost.conntrack_lookup_ns);
            let now = self.now;
            let selected = self.ipvs.select_backend(
                &mut self.conntrack,
                ip.src,
                meta.sport,
                ip.dst,
                meta.dport,
                ip.proto,
                now,
            );
            self.coherence_refresh(CoherentStruct::Ipvs);
            self.coherence_refresh(CoherentStruct::Conntrack);
            if let Some((backend_ip, backend_port)) = selected {
                if let Some(t) = &self.telemetry {
                    t.slow_ipvs.inc();
                }
                out.charge(Stage::IpvsSched, self.cost.ipvs_sched_ns);
                Self::ipvs_nat_rewrite(&mut frame, l3, &ip, backend_ip, backend_port);
                ip = Ipv4Header::parse(&frame[l3..]).expect("rewritten header valid");
                meta = self.packet_meta(dev, &frame, l3, &ip);
            }
        }

        // Local delivery?
        let local =
            self.devices.values().any(|d| d.has_addr(ip.dst)) || ip.dst == Ipv4Addr::BROADCAST;
        if local {
            self.coherence(CoherentStruct::Netfilter, out);
            if let Some(t) = &self.telemetry {
                t.slow_netfilter.inc();
            }
            let verdict = self.netfilter.evaluate_traced(
                ChainHook::Input,
                &meta,
                &self.cost,
                &mut out.cost,
                &mut out.trace,
            );
            if verdict == NfVerdict::Drop {
                self.drop(out, DropReason::NfInputDrop);
                return;
            }
            self.local_deliver(dev, eth, frame, &ip, out, queue);
            return;
        }

        // Forwarding path.
        if !self.ip_forward_enabled() {
            self.drop(out, DropReason::ForwardingDisabled);
            return;
        }

        // L7 request policy: parse the HTTP/1.x request line (bounded)
        // and evaluate it against the per-URL-prefix/method table and
        // connection pins. Runs post-DNAT so pins key on the same tuple
        // the fast-path helper sees, and before the FIB so a deny
        // precedes any route-miss ICMP on both paths.
        if self.l7.is_active() && ip.proto == IpProto::Tcp {
            self.coherence(CoherentStruct::L7, out);
            out.charge(Stage::L7Policy, self.cost.conntrack_lookup_ns);
            if let Some(t) = &self.telemetry {
                t.slow_l7.inc();
            }
            let key = L7ConnKey {
                src: ip.src,
                sport: meta.sport,
                dst: ip.dst,
                dport: meta.dport,
            };
            let seg = &frame[l3 + ip.header_len..];
            let verdict = match TcpHeader::parse(seg).and_then(|tcp| tcp.payload(seg)) {
                Ok(payload) => self.l7.lookup(key, payload),
                // Truncated header or data offset past the segment end:
                // a typed punt — pinned connections keep their verdict,
                // unpinned ones count as unparseable and forward on.
                Err(_) => self.l7.lookup_hinted(key, b"\x00", Some(0)),
            };
            // lookup may have installed a connection pin (a write).
            self.coherence_refresh(CoherentStruct::L7);
            match verdict {
                L7LookupOutcome::Deny => {
                    self.drop(out, DropReason::L7PolicyDeny);
                    return;
                }
                L7LookupOutcome::Steer(steer_dev) => {
                    // Steered requests bypass FIB routing and exit the
                    // configured device directly (slow-path only: the
                    // fast path punts steer verdicts).
                    out.charge(Stage::QdiscXmit, self.cost.qdisc_xmit_ns);
                    self.transmit(steer_dev, frame, out, queue);
                    return;
                }
                L7LookupOutcome::Allow
                | L7LookupOutcome::NoRequest
                | L7LookupOutcome::Unparseable => {}
            }
        }

        self.coherence(CoherentStruct::Fib, out);
        out.charge(Stage::FibLookup, self.cost.fib_lookup_kernel_ns);
        let Some(route) = self.fib.lookup(ip.dst).copied() else {
            self.icmp_error(&frame, l3, &ip, IcmpType::DestUnreachable(0), out, queue);
            self.drop(out, DropReason::NoRoute);
            return;
        };
        let meta = PacketMeta {
            out_if: route.dev,
            ..meta
        };
        self.coherence(CoherentStruct::Netfilter, out);
        if let Some(t) = &self.telemetry {
            t.slow_netfilter.inc();
        }
        let verdict = self.netfilter.evaluate_traced(
            ChainHook::Forward,
            &meta,
            &self.cost,
            &mut out.cost,
            &mut out.trace,
        );
        if verdict == NfVerdict::Drop {
            self.drop(out, DropReason::NfForwardDrop);
            return;
        }

        out.charge(Stage::IpForward, self.cost.ip_forward_finish_ns);
        if Ipv4Header::decrement_ttl(&mut frame[l3..]).is_none() {
            self.icmp_error(&frame, l3, &ip, IcmpType::TimeExceeded, out, queue);
            self.drop(out, DropReason::TtlExceeded);
            return;
        }

        // nat POSTROUTING: complete fresh translations (SNAT/MASQUERADE
        // rule evaluation, port allocation, binding install) and apply
        // the source half of established bindings. Done before neighbor
        // resolution so ARP-queued frames already carry the rewrite.
        // The POSTROUTING filter chain below still sees the pre-SNAT
        // source, as mangle/filter hooks do in Linux.
        if nat_active && matches!(ip.proto, IpProto::Udp | IpProto::Tcp) {
            self.coherence(CoherentStruct::Nat, out);
            self.coherence(CoherentStruct::Conntrack, out);
            let now = self.now;
            let cur = NatTuple::new(ip.src, meta.sport, ip.dst, meta.dport, ip.proto.to_u8());
            let egress_ip = self
                .devices
                .get(&route.dev)
                .and_then(|d| d.addrs.first().map(|(a, _)| *a));
            let bindings_before = self.conntrack.nat_len();
            let outcome = self.nat.postrouting(
                &mut self.conntrack,
                nat_ctx.take(),
                cur,
                route.dev,
                egress_ip,
                now,
            );
            self.coherence_refresh(CoherentStruct::Nat);
            self.coherence_refresh(CoherentStruct::Conntrack);
            let mut bind_ns = 0.0;
            if self.conntrack.nat_len() > bindings_before {
                // A fresh binding was installed (conntrack-entry-creation
                // class work).
                bind_ns = self.cost.conntrack_create_ns;
                out.charge(Stage::NatBind, bind_ns);
            }
            match outcome {
                PostOutcome::Snat { src, sport } => {
                    if let Some(t) = &self.telemetry {
                        t.slow_nat.inc();
                    }
                    linuxfp_packet::rewrite_ipv4(
                        &mut frame,
                        l3,
                        &linuxfp_packet::FieldRewrite {
                            src: Some(src),
                            sport: Some(sport),
                            ..Default::default()
                        },
                    );
                    Nat::trace_hook(&mut out.trace, "postrouting", true, bind_ns);
                }
                PostOutcome::ExhaustedDrop => {
                    Nat::trace_hook(&mut out.trace, "postrouting", false, bind_ns);
                    self.drop(out, DropReason::NatPortExhaustion);
                    return;
                }
                PostOutcome::None => {
                    Nat::trace_hook(&mut out.trace, "postrouting", false, bind_ns);
                }
            }
        }

        // Neighbor resolution for the next hop.
        self.coherence(CoherentStruct::Neigh, out);
        out.charge(Stage::NeighLookup, self.cost.neigh_lookup_ns);
        let next_hop = match route.scope {
            RouteScope::Link => ip.dst,
            RouteScope::Universe => route.via.unwrap_or(ip.dst),
        };
        let now = self.now;
        match self.neigh.resolved_mac(next_hop, now) {
            Some((dst_mac, _)) => {
                let src_mac = self
                    .devices
                    .get(&route.dev)
                    .map(|d| d.mac)
                    .unwrap_or(MacAddr::ZERO);
                EthernetFrame::rewrite_macs(&mut frame, dst_mac, src_mac);
                if let Some(t) = &self.telemetry {
                    t.slow_netfilter.inc();
                }
                let verdict = self.netfilter.evaluate_traced(
                    ChainHook::Postrouting,
                    &meta,
                    &self.cost,
                    &mut out.cost,
                    &mut out.trace,
                );
                if verdict == NfVerdict::Drop {
                    self.drop(out, DropReason::NfPostroutingDrop);
                    return;
                }
                out.charge(Stage::QdiscXmit, self.cost.qdisc_xmit_ns);
                self.transmit(route.dev, frame, out, queue);
            }
            None => {
                self.arp_resolve_and_queue(route.dev, next_hop, frame, out, queue);
            }
        }
    }

    pub(super) fn arp_resolve_and_queue(
        &mut self,
        egress: IfIndex,
        next_hop: Ipv4Addr,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        self.pending_arp
            .entry(next_hop)
            .or_default()
            .push((egress, frame));
        let now = self.now;
        let fresh = self.neigh.mark_incomplete(next_hop, egress, now);
        // mark_incomplete writes the neighbor table.
        self.coherence_refresh(CoherentStruct::Neigh);
        if fresh {
            let Some(egress_dev) = self.devices.get(&egress) else {
                return;
            };
            let our_mac = egress_dev.mac;
            let our_ip = egress_dev
                .connected_prefixes()
                .iter()
                .find(|p| p.contains(next_hop))
                .and_then(|p| egress_dev.addr_in(p))
                .or_else(|| egress_dev.addrs.first().map(|(a, _)| *a));
            let Some(our_ip) = our_ip else {
                self.drop(out, DropReason::NoArpSourceAddress);
                return;
            };
            let req = ArpPacket::request(our_mac, our_ip, next_hop);
            let req_frame = builder::arp_frame(&req, our_mac, MacAddr::BROADCAST);
            self.transmit(egress, req_frame.into(), out, queue);
        }
    }
    /// Generates an ICMP error about `frame` back toward its source —
    /// the slow-path corner-case handling the fast path always punts
    /// (paper Table I: "IP (de)fragmentation, ICMP" stay in Linux).
    /// Suppressed for ICMP originals (other than echo requests), per the
    /// never-error-about-an-error rule.
    pub(super) fn icmp_error(
        &mut self,
        frame: &[u8],
        l3: usize,
        ip: &Ipv4Header,
        kind: IcmpType,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        if ip.proto == IpProto::Icmp {
            let is_echo_request = IcmpHeader::parse(&frame[l3 + ip.header_len..])
                .map(|h| h.icmp_type == IcmpType::EchoRequest)
                .unwrap_or(false);
            if !is_echo_request {
                return;
            }
        }
        // Source: an address on the device the packet came in through
        // (fall back to any local address).
        let Some(src_addr) = self
            .device_for_subnet(ip.src)
            .and_then(|d| self.devices.get(&d))
            .and_then(|d| d.addrs.first().map(|(a, _)| *a))
            .or_else(|| {
                self.devices
                    .values()
                    .find_map(|d| d.addrs.first().map(|(a, _)| *a))
            })
        else {
            return;
        };
        out.charge(Stage::IcmpError, self.cost.icmp_error_ns);
        // Payload: the offending IP header + first 8 bytes, per RFC 792.
        let quoted_len = (ip.header_len + 8).min(frame.len() - l3);
        let icmp = IcmpHeader::build(kind, 0, 0, &frame[l3..l3 + quoted_len]);
        let total_len = (linuxfp_packet::ipv4::IPV4_MIN_HLEN + icmp.len()) as u16;
        let mut error_frame =
            vec![0u8; linuxfp_packet::ETH_HLEN + linuxfp_packet::ipv4::IPV4_MIN_HLEN + icmp.len()];
        EthernetFrame::write(
            &mut error_frame,
            MacAddr::ZERO, // resolved by ip_output
            MacAddr::ZERO,
            EtherType::Ipv4,
        );
        Ipv4Header::write(
            &mut error_frame[linuxfp_packet::ETH_HLEN..],
            src_addr,
            ip.src,
            IpProto::Icmp,
            64,
            0,
            total_len,
            false,
        );
        error_frame[linuxfp_packet::ETH_HLEN + linuxfp_packet::ipv4::IPV4_MIN_HLEN..]
            .copy_from_slice(&icmp);
        self.ip_output(error_frame.into(), ip.src, out, queue);
    }

    /// Rewrites the destination of a frame to an ipvs backend through
    /// the shared incremental checksum-delta helper — the same audited
    /// implementation NAT and the synthesized fast paths use (UDP
    /// checksum cleared, TCP checksum delta-updated).
    pub(super) fn ipvs_nat_rewrite(
        frame: &mut [u8],
        l3: usize,
        _ip: &Ipv4Header,
        backend_ip: Ipv4Addr,
        backend_port: u16,
    ) {
        linuxfp_packet::rewrite_ipv4(
            frame,
            l3,
            &linuxfp_packet::FieldRewrite {
                dst: Some(backend_ip),
                dport: Some(backend_port),
                ..Default::default()
            },
        );
    }
    /// Transmits a frame out `dev`, following device semantics: physical
    /// NICs emit an [`Effect::Transmit`], veth re-enters the peer, bridge
    /// masters forward/flood, VXLAN devices encapsulate.
    pub fn transmit_frame(&mut self, dev: IfIndex, frame: impl Into<PacketBuf>) -> RxOutcome {
        let mut out = RxOutcome::default();
        let mut queue = VecDeque::new();
        self.transmit(dev, frame.into(), &mut out, &mut queue);
        while let Some((d, f)) = queue.pop_front() {
            self.receive_one(d, f, &mut out, &mut queue, None);
        }
        out
    }

    pub(super) fn transmit(
        &mut self,
        dev: IfIndex,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        let Some(device) = self.devices.get(&dev) else {
            self.drop(out, DropReason::TransmitMissingDevice);
            return;
        };
        if !device.up {
            self.drop(out, DropReason::TransmitDownDevice);
            return;
        }
        match device.kind.clone() {
            DeviceKind::Physical => {
                out.charge(Stage::DriverTx, self.cost.driver_tx_ns);
                let c = self.counters.entry(dev).or_default();
                c.tx_packets += 1;
                c.tx_bytes += frame.len() as u64;
                out.effects.push(Effect::Transmit { dev, frame });
            }
            DeviceKind::Veth { peer } => {
                queue.push_back((peer, frame));
            }
            DeviceKind::Bridge => {
                // Transmit *on* the bridge device: forward by FDB.
                let Ok(eth) = EthernetFrame::parse(&frame) else {
                    self.drop(out, DropReason::MalformedEthernet);
                    return;
                };
                let now = self.now;
                let vlan = eth.vlan.map(|t| t.vid).unwrap_or(0);
                let lookup = match self.bridges.get_mut(&dev) {
                    Some(bridge) => bridge.fdb_lookup(eth.dst, vlan, now),
                    None => {
                        self.drop(out, DropReason::MissingBridge);
                        return;
                    }
                };
                match lookup {
                    Some(egress) => self.transmit(egress, frame, out, queue),
                    None => {
                        let ports = self
                            .bridges
                            .get(&dev)
                            .map(|b| b.flood_ports(IfIndex::NONE, vlan))
                            .unwrap_or_default();
                        for egress in ports {
                            out.charge(Stage::BridgeFlood, self.cost.bridge_flood_per_port_ns);
                            self.transmit(egress, frame.clone(), out, queue);
                        }
                    }
                }
            }
            DeviceKind::Vxlan {
                vni,
                local,
                port: _,
            } => {
                out.charge(Stage::VxlanEncap, self.cost.vxlan_encap_ns);
                let Ok(eth) = EthernetFrame::parse(&frame) else {
                    self.drop(out, DropReason::MalformedEthernet);
                    return;
                };
                // A unicast destination's learned VTEP, else every default
                // remote, read by index: `ip_output` needs `self`.
                let learned = if eth.dst.is_unicast() {
                    self.vxlan_fdb
                        .get(&dev)
                        .and_then(|m| m.get(&eth.dst))
                        .copied()
                } else {
                    None
                };
                let remotes = match learned {
                    Some(_) => 1,
                    None => self.vxlan_defaults.get(&dev).map_or(0, Vec::len),
                };
                if remotes == 0 {
                    self.drop(out, DropReason::VxlanNoRemoteVtep);
                    return;
                }
                for i in 0..remotes {
                    let vtep = learned.unwrap_or_else(|| self.vxlan_defaults[&dev][i]);
                    let outer = builder::vxlan_encapsulate(
                        &frame,
                        vni,
                        MacAddr::ZERO, // filled by ip_output below
                        MacAddr::ZERO,
                        local,
                        vtep,
                        49152,
                    );
                    self.ip_output(outer.into(), vtep, out, queue);
                }
            }
        }
    }

    /// Routes a locally generated IP frame (MACs unresolved) toward
    /// `next_ip` and transmits it.
    pub(super) fn ip_output(
        &mut self,
        mut frame: PacketBuf,
        next_ip: Ipv4Addr,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        self.coherence(CoherentStruct::Fib, out);
        out.charge(Stage::FibLookup, self.cost.fib_lookup_kernel_ns);
        let Some(route) = self.fib.lookup(next_ip).copied() else {
            self.drop(out, DropReason::NoRouteOutput);
            return;
        };
        let next_hop = match route.scope {
            RouteScope::Link => next_ip,
            RouteScope::Universe => route.via.unwrap_or(next_ip),
        };
        self.coherence(CoherentStruct::Neigh, out);
        out.charge(Stage::NeighLookup, self.cost.neigh_lookup_ns);
        let now = self.now;
        match self.neigh.resolved_mac(next_hop, now) {
            Some((dst_mac, _)) => {
                let src_mac = self
                    .devices
                    .get(&route.dev)
                    .map(|d| d.mac)
                    .unwrap_or(MacAddr::ZERO);
                EthernetFrame::rewrite_macs(&mut frame, dst_mac, src_mac);
                out.charge(Stage::QdiscXmit, self.cost.qdisc_xmit_ns);
                self.transmit(route.dev, frame, out, queue);
            }
            None => {
                self.arp_resolve_and_queue(route.dev, next_hop, frame, out, queue);
            }
        }
    }
}
