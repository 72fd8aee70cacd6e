//! Receive-side entry points: frame injection (single and batched), hook
//! dispatch, the bridge input decision, and the punt up the stack.
use super::*;

/// A price the cost model splits into a per-burst fixed part and a
/// per-packet remainder (`rx_batch_fixed_ns`, `hook_batch_fixed_ns`).
///
/// In batched mode each shard's first packet to reach the stage charges
/// the fixed part **once** into the burst's tracker; every packet then
/// pays only the remainder. Single-packet injection charges full prices,
/// so a batch of one costs exactly the same total as [`Kernel::receive`]
/// — amortization changes cost accounting only, never processing order
/// or verdicts.
#[derive(Clone, Copy)]
enum Amortized {
    DriverRx,
    XdpEntry,
    TcEntry,
}

impl Amortized {
    const ALL: [Amortized; 3] = [Amortized::DriverRx, Amortized::XdpEntry, Amortized::TcEntry];

    fn stage(self) -> Stage {
        match self {
            Amortized::DriverRx => Stage::DriverRx,
            Amortized::XdpEntry => Stage::XdpEntry,
            Amortized::TcEntry => Stage::TcEntry,
        }
    }

    /// The whole price and its per-burst fixed part.
    fn prices(self, cost: &CostModel) -> (f64, f64) {
        match self {
            Amortized::DriverRx => (cost.driver_rx_ns, cost.rx_batch_fixed_ns),
            Amortized::XdpEntry => (cost.xdp_entry_ns, cost.hook_batch_fixed_ns),
            Amortized::TcEntry => (cost.tc_entry_ns, cost.hook_batch_fixed_ns),
        }
    }
}

/// Which [`Amortized`] fixed parts one shard has charged this burst.
type Charged = [bool; Amortized::ALL.len()];

/// The hooks attached to a burst's device, read once per burst: the code
/// form of `hook_batch_fixed_ns`, as a driver hoists `READ_ONCE(prog)` out
/// of its poll loop. A hook attached or detached mid-burst takes effect
/// from the next burst.
pub(super) struct BurstHooks {
    xdp: Option<HookFn>,
    tc: Option<HookFn>,
}

/// What a burst's injected frame carries down the receive path; frames
/// it re-queues carry nothing and pay single-packet prices.
pub(super) struct Burst<'a> {
    /// The frame's RSS shard, steered once by [`Kernel::inject_batch`].
    shard: u32,
    /// The fixed parts that shard has charged.
    charged: &'a mut Charged,
    /// The burst's fixed costs, every shard's.
    batch_cost: &'a mut CostTracker,
    hooks: &'a BurstHooks,
}

impl Kernel {
    /// Processes a frame received on `dev`, running hooks and the slow
    /// path, returning all externally visible effects and the cost.
    pub fn receive(&mut self, dev: IfIndex, frame: impl Into<PacketBuf>) -> RxOutcome {
        if let Some(t) = &self.telemetry {
            t.packets_injected.inc();
            t.batch_size.record(1);
        }
        self.packet_path_gc();
        let mut out = RxOutcome::default();
        self.run_to_completion(dev, frame.into(), &mut out, None);
        out
    }

    /// Processes a burst of frames received on `dev` as one unit,
    /// draining `batch`.
    ///
    /// Frames are processed strictly in order with full per-packet
    /// semantics (each gets its own [`RxOutcome`]); what batching changes
    /// is the accounting of per-burst fixed work — driver receive setup
    /// and hook dispatch are charged once into
    /// [`BatchOutcome::batch_cost`] instead of once per packet — and
    /// housekeeping (conntrack GC, telemetry) runs once per burst, as does
    /// reading `dev`'s attached hooks. Frames a packet re-queues
    /// internally (veth crossings, ARP replies) are charged full
    /// single-packet prices: they are new arrivals, not part of the
    /// received burst.
    ///
    /// Past the first burst, the returned outcome vector is the only
    /// allocation a burst of cache hits makes, sharded or not.
    pub fn inject_batch(&mut self, dev: IfIndex, batch: &mut Batch) -> BatchOutcome {
        let n = batch.len();
        if let Some(t) = &self.telemetry {
            t.batch_size.record(n as u64);
            t.packets_injected.add(n as u64);
        }
        self.packet_path_gc();
        // A multi-queue NIC runs one NAPI poll per queue with traffic, so
        // each shard pays its own per-burst fixed cost and amortizes it
        // over its slice of the burst only. With rss_shards=1 there is
        // one shard and the loop is bit-identical to the pre-sharding
        // path.
        let shards = self.rss_shards.max(1) as usize;
        let mut charged = [Charged::default(); rss::MAX_RSS_SHARDS as usize];
        let mut batch_cost = CostTracker::new();
        let hooks = BurstHooks {
            xdp: self.xdp_hooks.get(&dev).cloned(),
            tc: self.tc_hooks.get(&dev).cloned(),
        };
        // Unsharded, the one shard's time is the burst's total.
        let mut shard_ns = ShardTimes::zeroed(if shards > 1 { shards } else { 0 });
        let mut outcomes = Vec::with_capacity(n);
        for buf in batch.drain() {
            let shard = if shards > 1 {
                rss::shard_for(&buf, shards as u32)
            } else {
                0
            };
            if shards > 1 {
                if let Some(t) = &self.telemetry {
                    t.shard_packets(shard as usize).inc();
                }
            }
            // Filled in place: an outcome is too large to build and move.
            let i = outcomes.len();
            outcomes.push(RxOutcome::default());
            let out = &mut outcomes[i];
            let burst = Burst {
                shard,
                charged: &mut charged[shard as usize],
                batch_cost: &mut batch_cost,
                hooks: &hooks,
            };
            self.run_to_completion(dev, buf, out, Some(burst));
            if let Some(ns) = shard_ns.get_mut(shard as usize) {
                *ns += out.cost.total_ns();
            }
        }
        for (ns, charged) in shard_ns.iter_mut().zip(&charged) {
            let fixed = Amortized::ALL
                .into_iter()
                .filter(|part| charged[*part as usize])
                .map(|part| part.prices(&self.cost).1);
            *ns += CostTracker::total_of(fixed);
        }
        BatchOutcome {
            outcomes,
            batch_cost,
            batch_size: n,
            shard_ns,
        }
    }

    /// Coarse-interval GC from the packet path: Linux ties conntrack
    /// expiry to timers and packet processing; without this, tables only
    /// shrink when callers remember to run housekeeping. Batched
    /// injection runs it once per burst — equivalent, since virtual time
    /// does not advance mid-burst.
    fn packet_path_gc(&mut self) {
        if self.now.saturating_sub(self.last_ct_gc) >= Nanos::from_secs(1) {
            self.last_ct_gc = self.now;
            let now = self.now;
            self.conntrack.gc(now);
            self.conntrack.nat_gc(now);
            for port in self.conntrack.take_freed_nat_ports() {
                self.nat.release_port(port);
            }
            for (addr, port) in self.conntrack.take_freed_backends() {
                self.ipvs.release_backend(addr, port);
            }
        }
    }

    /// Drives one injected frame and everything it re-queues (veth
    /// crossings, bridge floods, ARP replies) to completion.
    fn run_to_completion(
        &mut self,
        dev: IfIndex,
        frame: PacketBuf,
        out: &mut RxOutcome,
        mut burst: Option<Burst<'_>>,
    ) {
        // Flight recorder: decide up front whether this packet gets a
        // span. With sampling off (or no recorder) `out.trace` stays the
        // inert default — no allocation, no virtual-time charge.
        if let Some(recorder) = &mut self.recorder {
            if let Some(ctx) = recorder.sample(dev.as_u32(), self.now.as_nanos()) {
                out.trace = ctx;
            }
        }
        // The injected frame goes first and never enters the queue, which
        // therefore allocates only once something is re-queued.
        let mut queue: VecDeque<(IfIndex, PacketBuf)> = VecDeque::new();
        let mut injected = Some((dev, frame));
        let mut hops = 0;
        while let Some((dev, frame)) = injected.take().or_else(|| queue.pop_front()) {
            hops += 1;
            if hops > 64 {
                self.drop(out, DropReason::ForwardingLoop);
                break;
            }
            // Only the injected frame itself belongs to the burst;
            // anything re-queued is a fresh arrival at another device
            // and pays full single-packet prices: `take` leaves `None`.
            self.receive_one(dev, frame, out, &mut queue, burst.take());
        }
        self.finish_trace(out);
    }

    /// Closes a sampled packet's span and lands it in the trace ring.
    /// No-op for unsampled packets.
    fn finish_trace(&mut self, out: &mut RxOutcome) {
        if !out.trace.enabled() {
            return;
        }
        // A packet can have several effects (bridge floods); summarize
        // by the strongest outcome: anything that left or reached a
        // socket beats an incidental drop, a drop beats nothing at all
        // (queued behind ARP resolution).
        let mut disposition = Disposition::Queued;
        for e in &out.effects {
            match e {
                Effect::Transmit { .. } => {
                    disposition = Disposition::Transmitted;
                    break;
                }
                Effect::Deliver { .. } => disposition = Disposition::Delivered,
                Effect::Drop { reason } => {
                    if disposition == Disposition::Queued {
                        disposition = Disposition::Dropped(*reason);
                    }
                }
            }
        }
        let span = std::mem::take(&mut out.trace).finish(&out.cost, disposition);
        if let Some(recorder) = &self.recorder {
            recorder.record(span);
        }
    }

    pub(super) fn drop(&mut self, out: &mut RxOutcome, reason: DropReason) {
        if let Some(t) = &self.telemetry {
            t.drops(reason).inc();
            // The sharded datapath also attributes the drop to its
            // owning shard — a separate series so single-core runs keep
            // their exact label set.
            if self.rss_shards > 1 {
                t.shard_drops(reason, self.current_shard as usize).inc();
            }
        }
        *self.drop_counts.entry(reason.as_str()).or_insert(0) += 1;
        out.trace.event(|| TraceEvent::Drop { reason });
        out.effects.push(Effect::Drop { reason });
    }

    /// Charges `part`'s price to one frame: a burst's frame pays the
    /// per-packet remainder, and the first of its shard's frames to reach
    /// `part` also pays the fixed part into the burst's tracker; any
    /// other frame pays the whole price.
    fn charge_amortized(
        &self,
        out: &mut RxOutcome,
        burst: Option<&mut Burst<'_>>,
        part: Amortized,
    ) {
        let (price, fixed) = part.prices(&self.cost);
        match burst {
            Some(b) => {
                if !std::mem::replace(&mut b.charged[part as usize], true) {
                    b.batch_cost.charge(part.stage(), fixed);
                }
                out.charge(part.stage(), price - fixed);
            }
            None => out.charge(part.stage(), price),
        }
    }

    pub(super) fn receive_one(
        &mut self,
        dev: IfIndex,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
        mut burst: Option<Burst<'_>>,
    ) {
        // RSS steering: the NIC's flow hash picks the receive queue (and
        // therefore the shard/core) before any software runs — so a drop
        // below, even for a missing or down device, is the steered
        // shard's. The queue index rides on the packet like
        // `xdp_md.rx_queue_index`, so hook programs can select their
        // per-shard caches from it. Skipped entirely at rss_shards=1 —
        // bit-identical to the unsharded path.
        let mut rx_queue = 0;
        if self.rss_shards > 1 {
            // A burst's frames were steered when they were sliced by shard.
            rx_queue = match &burst {
                Some(b) => b.shard,
                None => rss::shard_for(&frame, self.rss_shards),
            };
            self.current_shard = rx_queue;
            out.trace.set_shard(rx_queue);
        }

        let Some(device) = self.devices.get(&dev) else {
            self.drop(out, DropReason::NoSuchDevice);
            return;
        };
        if !device.up {
            self.drop(out, DropReason::DeviceDown);
            return;
        }
        match device.kind {
            DeviceKind::Physical => {
                self.charge_amortized(out, burst.as_mut(), Amortized::DriverRx);
            }
            DeviceKind::Veth { .. } => out.charge(Stage::VethCross, self.cost.veth_cross_ns),
            DeviceKind::Bridge | DeviceKind::Vxlan { .. } => {}
        }
        {
            let c = self.counters.entry(dev).or_default();
            c.rx_packets += 1;
            c.rx_bytes += frame.len() as u64;
        }

        let mut pkt = Packet::new(frame, dev.as_u32());
        pkt.rx_queue = rx_queue;

        // The burst's injected frame runs the hooks the burst read; any
        // other frame reads its own device's.
        let burst_hooks = burst.as_ref().map(|b| b.hooks);

        // XDP hook: before any sk_buff exists.
        let read;
        let xdp = match burst_hooks {
            Some(hooks) => hooks.xdp.as_ref(),
            None => {
                read = self.xdp_hooks.get(&dev).cloned();
                read.as_ref()
            }
        };
        if let Some(hook) = xdp {
            self.charge_amortized(out, burst.as_mut(), Amortized::XdpEntry);
            match hook(self, &mut pkt, &mut out.cost, &mut out.trace) {
                HookVerdict::Pass => {}
                HookVerdict::Drop => {
                    self.drop(out, DropReason::XdpDrop);
                    return;
                }
                HookVerdict::Redirect(target) => {
                    self.transmit(target, pkt.data, out, queue);
                    return;
                }
                HookVerdict::DeliverUser => {
                    // Consumed onto an AF_XDP ring: user space owns it
                    // now, without any sk_buff ever existing.
                    out.effects.push(Effect::Deliver {
                        dev,
                        frame: pkt.data,
                    });
                    return;
                }
            }
        }

        // sk_buff allocation: the cost XDP avoids.
        out.charge(Stage::SkbAlloc, self.cost.skb_alloc_ns);

        // TC ingress hook.
        let read;
        let tc = match burst_hooks {
            Some(hooks) => hooks.tc.as_ref(),
            None => {
                read = self.tc_hooks.get(&dev).cloned();
                read.as_ref()
            }
        };
        if let Some(hook) = tc {
            self.charge_amortized(out, burst.as_mut(), Amortized::TcEntry);
            match hook(self, &mut pkt, &mut out.cost, &mut out.trace) {
                HookVerdict::Pass => {}
                HookVerdict::Drop => {
                    self.drop(out, DropReason::TcDrop);
                    return;
                }
                HookVerdict::Redirect(target) => {
                    self.transmit(target, pkt.data, out, queue);
                    return;
                }
                HookVerdict::DeliverUser => {
                    out.effects.push(Effect::Deliver {
                        dev,
                        frame: pkt.data,
                    });
                    return;
                }
            }
        }

        self.slow_path(dev, pkt.data, out, queue);
    }

    pub(super) fn slow_path(
        &mut self,
        dev: IfIndex,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        let Ok(eth) = EthernetFrame::parse(&frame) else {
            self.drop(out, DropReason::MalformedEthernet);
            return;
        };
        let (master, dev_mac, endpoint) = {
            let device = self.devices.get(&dev).expect("checked in receive_one");
            (device.master, device.mac, device.endpoint)
        };

        // Endpoint devices (pod-side veths) hand frames to an external
        // stack: deliver anything addressed to them (or broadcast).
        if endpoint {
            if eth.dst == dev_mac || eth.dst.is_multicast() {
                out.charge(Stage::LocalDeliver, self.cost.local_deliver_ns);
                out.effects.push(Effect::Deliver { dev, frame });
            } else {
                self.drop(out, DropReason::WrongDestinationMac);
            }
            return;
        }

        // Bridge port: L2 processing first.
        if let Some(bridge_idx) = master {
            self.bridge_input(bridge_idx, dev, eth, frame, out, queue);
            return;
        }

        // Non-promiscuous check for ordinary devices.
        if eth.dst != dev_mac && eth.dst.is_unicast() {
            self.drop(out, DropReason::WrongDestinationMac);
            return;
        }

        self.up_stack(dev, eth, frame, out, queue);
    }

    pub(super) fn bridge_input(
        &mut self,
        bridge_idx: IfIndex,
        port: IfIndex,
        eth: EthernetFrame,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        out.charge(Stage::BridgeStack, self.cost.bridge_stack_ns);
        if let Some(t) = &self.telemetry {
            t.slow_bridge.inc();
        }

        // STP BPDUs are consumed by slow-path protocol processing.
        if eth.dst == BPDU_MAC {
            let stp_on = self
                .bridges
                .get(&bridge_idx)
                .map(|b| b.stp_enabled)
                .unwrap_or(false);
            if stp_on {
                self.bpdus_processed += 1;
            }
            self.drop(out, DropReason::BpduConsumed);
            return;
        }

        let now = self.now;
        let vlan_tag = eth.vlan.map(|t| t.vid);
        // The FDB is shared state: touching it after another shard's
        // learn/age pays the coherence price; the decide below learns
        // (writes), so re-sync afterwards — a shard's own write is hot
        // in its cache.
        self.coherence(CoherentStruct::Fdb, out);
        let Some(bridge) = self.bridges.get_mut(&bridge_idx) else {
            self.drop(out, DropReason::MissingBridge);
            return;
        };
        let decision = bridge.decide(port, eth.src, eth.dst, vlan_tag, now);
        self.coherence_refresh(CoherentStruct::Fdb);

        // br_netfilter: bridged IPv4 frames about to be forwarded also
        // traverse the iptables FORWARD chain (and conntrack), exactly as
        // Kubernetes hosts configure via bridge-nf-call-iptables.
        if matches!(
            decision,
            BridgeDecision::Forward(_) | BridgeDecision::Flood(_)
        ) && eth.ethertype == EtherType::Ipv4
            && self.bridge_nf_enabled()
        {
            if let Ok(ip) = Ipv4Header::parse(&frame[eth.payload_offset..]) {
                let meta = self.packet_meta(port, &frame, eth.payload_offset, &ip);
                if self.conntrack_forward {
                    self.coherence(CoherentStruct::Conntrack, out);
                    out.charge(Stage::Conntrack, self.cost.conntrack_lookup_ns);
                    let now = self.now;
                    self.conntrack
                        .track(ip.src, meta.sport, ip.dst, meta.dport, ip.proto, now);
                    self.coherence_refresh(CoherentStruct::Conntrack);
                }
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
            }
        }

        match decision {
            BridgeDecision::Forward(egress) => {
                self.transmit(egress, frame, out, queue);
            }
            BridgeDecision::Flood(ports) => {
                for (i, egress) in ports.iter().enumerate() {
                    if i > 0 {
                        out.charge(Stage::BridgeFlood, self.cost.bridge_flood_per_port_ns);
                    }
                    self.transmit(*egress, frame.clone(), out, queue);
                }
                // Broadcast (e.g. ARP) also goes up the bridge's own stack.
                if eth.dst.is_broadcast() || eth.dst.is_multicast() {
                    self.up_stack(bridge_idx, eth, frame, out, queue);
                }
            }
            BridgeDecision::Local => {
                self.up_stack(bridge_idx, eth, frame, out, queue);
            }
            BridgeDecision::Drop(reason) => {
                self.drop(out, reason);
            }
        }
    }

    pub(super) fn up_stack(
        &mut self,
        dev: IfIndex,
        eth: EthernetFrame,
        frame: PacketBuf,
        out: &mut RxOutcome,
        queue: &mut VecDeque<(IfIndex, PacketBuf)>,
    ) {
        match eth.ethertype {
            EtherType::Arp => self.arp_input(dev, &eth, &frame, out, queue),
            EtherType::Ipv4 => self.ip_input(dev, &eth, frame, out, queue),
            _ => self.drop(out, DropReason::UnhandledEthertype),
        }
    }
}
