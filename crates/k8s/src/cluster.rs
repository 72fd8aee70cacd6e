//! The multi-node cluster: nodes, the underlay "switch" between them,
//! pod management, and pod-level send/receive plumbing.

use crate::flannel::{self, NodeNet, PeerLease};
use linuxfp_core::controller::{Controller, ControllerConfig};
use linuxfp_core::Capabilities;
use linuxfp_ebpf::hook::HookPoint;
use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::stack::{Effect, Kernel};
use linuxfp_packet::ipv4::Prefix;
use linuxfp_packet::{builder, EthernetFrame, Ipv4Header, MacAddr};
use std::net::Ipv4Addr;

/// One pod's identity and attachment points.
#[derive(Debug, Clone, Copy)]
pub struct Pod {
    /// Pod address.
    pub ip: Ipv4Addr,
    /// Pod MAC (the pod-side veth's address).
    pub mac: MacAddr,
    /// Host-side veth (the `cni0` bridge port).
    pub host_if: IfIndex,
    /// Pod-side veth (inside the pod's netns).
    pub pod_if: IfIndex,
}

/// A node: its kernel, overlay coordinates, optional LinuxFP controller.
pub struct Node {
    /// Node name (`node1`, ...).
    pub name: String,
    /// The node's kernel.
    pub kernel: Kernel,
    /// Underlay address.
    pub node_ip: Ipv4Addr,
    /// This node's pod subnet.
    pub pod_cidr: Prefix,
    /// CNI-created interfaces.
    pub net: NodeNet,
    /// Pods scheduled here.
    pub pods: Vec<Pod>,
    controller: Option<Controller>,
}

impl Node {
    /// Polls this node's controller (if attached) after configuration
    /// changes; returns the reaction report when a resync happened.
    pub fn poll_controller(&mut self) -> Option<linuxfp_core::ReactionReport> {
        let Node {
            kernel, controller, ..
        } = self;
        controller
            .as_mut()
            .and_then(|c| c.poll(kernel).expect("redeploy succeeds"))
    }

    /// Whether a LinuxFP controller is attached.
    pub fn is_accelerated(&self) -> bool {
        self.controller.is_some()
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("node_ip", &self.node_ip)
            .field("pods", &self.pods.len())
            .field("accelerated", &self.controller.is_some())
            .finish()
    }
}

/// Identifies a pod in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodRef {
    /// Node index.
    pub node: usize,
    /// Pod index within the node.
    pub pod: usize,
}

/// Outcome of one pod-to-pod packet.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// Whether the payload reached the destination pod.
    pub delivered: bool,
    /// Total processing cost across all traversed nodes (ns).
    pub total_cost_ns: f64,
    /// Number of node kernels traversed.
    pub node_hops: u32,
    /// Packets a fast path served on the way (diagnostic): synthesized
    /// program runs that reached a forwarding helper, plus flow-cache
    /// hits — which is how every warm flow is served.
    pub fast_path_hits: u64,
}

/// Fast-path services recorded in one kernel traversal's cost: the
/// forwarding helpers charge only when a synthesized program ran, and
/// `flowcache_hit` only when the microflow cache replaced that run.
fn fast_path_hits(cost: &linuxfp_sim::CostTracker) -> u64 {
    ["helper_fdb_lookup", "helper_fib_lookup", "flowcache_hit"]
        .iter()
        .map(|stage| cost.stage_count(stage))
        .sum()
}

/// The simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    /// The nodes (index 0 is the "primary", as in the paper's 3-node
    /// cluster; pods schedule onto any node here).
    pub nodes: Vec<Node>,
    accelerated: bool,
}

impl Cluster {
    /// Builds an `n_nodes` cluster with Flannel networking; when
    /// `accelerated` is set, a LinuxFP controller (TC hook, per the
    /// paper's Kubernetes setup) attaches to every node.
    pub fn new(n_nodes: usize, accelerated: bool) -> Cluster {
        assert!(n_nodes >= 1, "cluster needs at least one node");
        // Build leases first so every node can learn all peers.
        let leases: Vec<PeerLease> = (0..n_nodes)
            .map(|i| PeerLease {
                node_ip: Ipv4Addr::new(192, 168, 0, (i + 1) as u8),
                pod_cidr: Prefix::new(Ipv4Addr::new(10, 244, (i + 1) as u8, 0), 24),
                // Filled after kernels exist.
                flannel_mac: MacAddr::ZERO,
            })
            .collect();

        let mut kernels: Vec<(Kernel, NodeNet)> = Vec::new();
        let mut real_leases = Vec::new();
        for (i, lease) in leases.iter().enumerate() {
            let mut k = Kernel::new(1000 + i as u64);
            let net = flannel::setup_node(&mut k, lease.node_ip, lease.pod_cidr);
            let flannel_mac = k.device(net.flannel).expect("exists").mac;
            real_leases.push(PeerLease {
                flannel_mac,
                ..*lease
            });
            kernels.push((k, net));
        }

        let mut nodes = Vec::new();
        for (i, (mut kernel, net)) in kernels.into_iter().enumerate() {
            for (j, peer) in real_leases.iter().enumerate() {
                if i != j {
                    flannel::add_peer(&mut kernel, net, peer);
                }
            }
            nodes.push(Node {
                name: format!("node{}", i + 1),
                kernel,
                node_ip: real_leases[i].node_ip,
                pod_cidr: real_leases[i].pod_cidr,
                net,
                pods: Vec::new(),
                controller: None,
            });
        }

        let mut cluster = Cluster { nodes, accelerated };
        // The underlay is a warm L2 segment: every node has resolved its
        // peers (continuous VXLAN keep-alives keep ARP fresh).
        cluster.warm_underlay();
        if accelerated {
            for node in &mut cluster.nodes {
                let cfg = ControllerConfig {
                    hook: HookPoint::Tc, // paper: "attached to the tc hook"
                    capabilities: Capabilities::full(),
                    ..ControllerConfig::default()
                };
                let (ctrl, _) = Controller::attach(&mut node.kernel, cfg).expect("initial deploy");
                node.controller = Some(ctrl);
            }
        }
        cluster
    }

    fn warm_underlay(&mut self) {
        let coords: Vec<(Ipv4Addr, MacAddr)> = self
            .nodes
            .iter()
            .map(|n| (n.node_ip, n.kernel.device(n.net.eth0).expect("exists").mac))
            .collect();
        for node in &mut self.nodes {
            let eth0 = node.net.eth0;
            let now = node.kernel.now();
            for (ip, mac) in &coords {
                if *ip != node.node_ip {
                    node.kernel.neigh.learn(*ip, *mac, eth0, now);
                }
            }
        }
    }

    /// Whether LinuxFP is attached.
    pub fn is_accelerated(&self) -> bool {
        self.accelerated
    }

    /// Schedules a new pod onto `node`; the controller (if any) reacts to
    /// the CNI's configuration changes, exactly as on a real node.
    pub fn add_pod(&mut self, node: usize) -> PodRef {
        let n = &mut self.nodes[node];
        let idx = n.pods.len() as u32;
        let (host_if, pod_if, ip, mac) = flannel::add_pod(&mut n.kernel, n.net, n.pod_cidr, idx);
        n.pods.push(Pod {
            ip,
            mac,
            host_if,
            pod_if,
        });
        n.poll_controller();
        PodRef {
            node,
            pod: n.pods.len() - 1,
        }
    }

    /// A pod's identity.
    pub fn pod(&self, r: PodRef) -> Pod {
        self.nodes[r.node].pods[r.pod]
    }

    /// Creates a ClusterIP-style UDP service balancing across `backends`
    /// (kube-proxy IPVS mode): the virtual service is installed on every
    /// node through the standard `ipvsadm` surface, so any pod can reach
    /// the VIP and the controller (if attached) accelerates pinned flows.
    pub fn add_service(&mut self, vip: Ipv4Addr, port: u16, backends: &[PodRef]) {
        let backend_addrs: Vec<Ipv4Addr> = backends.iter().map(|r| self.pod(*r).ip).collect();
        for node in &mut self.nodes {
            node.kernel.ipvsadm_add_service(
                vip,
                port,
                linuxfp_packet::ipv4::IpProto::Udp,
                linuxfp_netstack::ipvs::Scheduler::RoundRobin,
            );
            for addr in &backend_addrs {
                node.kernel.ipvsadm_add_backend(
                    vip,
                    port,
                    linuxfp_packet::ipv4::IpProto::Udp,
                    *addr,
                    port,
                );
            }
            node.poll_controller();
        }
    }

    /// Sends one UDP packet from `from` to a service VIP; returns the
    /// backend pod that received it, if delivered.
    pub fn pod_send_to_service(
        &mut self,
        from: PodRef,
        vip: Ipv4Addr,
        port: u16,
        sport: u16,
        payload: &[u8],
    ) -> Option<PodRef> {
        let src = self.pod(from);
        // The VIP is never on the pod's subnet: traffic goes through the
        // cni0 gateway.
        let gw_mac = self.nodes[from.node]
            .kernel
            .device(self.nodes[from.node].net.cni0)
            .expect("exists")
            .mac;
        let frame = builder::udp_packet(src.mac, gw_mac, src.ip, vip, sport, port, payload);
        let mut wire: Vec<linuxfp_packet::PacketBuf> = Vec::new();
        let mut receiver: Option<PodRef> = None;
        let mut check_effects = |effects: &[Effect], node_idx: usize, nodes: &[Node]| {
            let mut tx = Vec::new();
            for effect in effects {
                match effect {
                    Effect::Deliver { dev, frame } if frame.ends_with(payload) => {
                        if let Some(p) = nodes[node_idx].pods.iter().position(|p| p.pod_if == *dev)
                        {
                            receiver = Some(PodRef {
                                node: node_idx,
                                pod: p,
                            });
                        }
                    }
                    Effect::Transmit { frame, .. } => tx.push(frame.clone()),
                    _ => {}
                }
            }
            tx
        };
        let out = self.nodes[from.node]
            .kernel
            .transmit_frame(src.pod_if, frame);
        let effects = out.effects.clone();
        wire.extend(check_effects(&effects, from.node, &self.nodes));
        let mut hops = 0;
        while let Some(frame) = wire.pop() {
            hops += 1;
            if hops > 16 {
                break;
            }
            let Some(target) = self.node_for_underlay_frame(&frame) else {
                continue;
            };
            let eth0 = self.nodes[target].net.eth0;
            let out = self.nodes[target].kernel.receive(eth0, frame);
            let effects = out.effects.clone();
            wire.extend(check_effects(&effects, target, &self.nodes));
        }
        receiver
    }

    /// Sends one UDP packet from pod `from` to pod `to`, following every
    /// frame across the underlay until delivery (or a drop).
    pub fn pod_send(&mut self, from: PodRef, to: PodRef, payload: &[u8]) -> DeliveryReport {
        let src = self.pod(from);
        let dst = self.pod(to);
        let same_subnet = self.nodes[from.node].pod_cidr.contains(dst.ip);
        // The pod's own routing decision: same subnet -> direct L2 to the
        // peer pod; otherwise via the cni0 gateway.
        let dst_mac = if same_subnet {
            dst.mac
        } else {
            self.nodes[from.node]
                .kernel
                .device(self.nodes[from.node].net.cni0)
                .expect("exists")
                .mac
        };
        let frame = builder::udp_packet(src.mac, dst_mac, src.ip, dst.ip, 40000, 5201, payload);

        let mut report = DeliveryReport {
            delivered: false,
            total_cost_ns: 0.0,
            node_hops: 0,
            fast_path_hits: 0,
        };

        // Inject at the sending pod's veth; collect cross-node frames.
        let out = self.nodes[from.node]
            .kernel
            .transmit_frame(src.pod_if, frame);
        report.node_hops += 1;
        report.total_cost_ns += out.cost.total_ns();
        report.fast_path_hits += fast_path_hits(&out.cost);
        let mut wire: Vec<linuxfp_packet::PacketBuf> = Vec::new();
        for effect in &out.effects {
            match effect {
                Effect::Deliver { dev, frame }
                    if *dev == dst.pod_if && from.node == to.node && frame.ends_with(payload) =>
                {
                    report.delivered = true;
                }
                Effect::Transmit { frame, .. } => wire.push(frame.clone()),
                _ => {}
            }
        }

        // Underlay hop: route frames to the node owning the destination
        // underlay MAC/IP.
        let mut hops = 0;
        while let Some(frame) = wire.pop() {
            hops += 1;
            if hops > 16 {
                break;
            }
            let Some(target) = self.node_for_underlay_frame(&frame) else {
                continue;
            };
            let eth0 = self.nodes[target].net.eth0;
            let out = self.nodes[target].kernel.receive(eth0, frame);
            report.node_hops += 1;
            report.total_cost_ns += out.cost.total_ns();
            report.fast_path_hits += fast_path_hits(&out.cost);
            for effect in &out.effects {
                match effect {
                    Effect::Deliver { dev, frame }
                        if *dev == dst.pod_if && target == to.node && frame.ends_with(payload) =>
                    {
                        report.delivered = true;
                    }
                    Effect::Transmit { frame, .. } => wire.push(frame.clone()),
                    _ => {}
                }
            }
        }
        report
    }

    fn node_for_underlay_frame(&self, frame: &[u8]) -> Option<usize> {
        let eth = EthernetFrame::parse(frame).ok()?;
        let ip = Ipv4Header::parse(&frame[eth.payload_offset..]).ok()?;
        self.nodes.iter().position(|n| n.node_ip == ip.dst)
    }

    /// Warm both directions of a pod pair (ARP, FDB learning, conntrack)
    /// so that subsequent measurements see the steady state, as the
    /// paper's discarded first 10 seconds do.
    pub fn warm_pair(&mut self, a: PodRef, b: PodRef) {
        for _ in 0..4 {
            let r1 = self.pod_send(a, b, b"warmup");
            let r2 = self.pod_send(b, a, b"warmup");
            assert!(r1.delivered && r2.delivered, "warm-up path failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_node_pod_to_pod_delivers() {
        let mut c = Cluster::new(3, false);
        let a = c.add_pod(0);
        let b = c.add_pod(0);
        let r = c.pod_send(a, b, b"hello-intra");
        assert!(r.delivered, "intra delivery failed");
        assert_eq!(r.node_hops, 1);
        // And the reverse direction.
        let r = c.pod_send(b, a, b"back");
        assert!(r.delivered);
    }

    #[test]
    fn inter_node_pod_to_pod_delivers_through_vxlan() {
        let mut c = Cluster::new(3, false);
        let a = c.add_pod(0);
        let b = c.add_pod(1);
        let r = c.pod_send(a, b, b"hello-inter");
        assert!(r.delivered, "inter delivery failed");
        assert_eq!(r.node_hops, 2, "one hop per node kernel");
        let r = c.pod_send(b, a, b"back");
        assert!(r.delivered);
    }

    #[test]
    fn accelerated_cluster_delivers_identically() {
        let mut plain = Cluster::new(2, false);
        let mut fast = Cluster::new(2, true);
        for c in [&mut plain, &mut fast] {
            let a = c.add_pod(0);
            let b = c.add_pod(0);
            let x = c.add_pod(1);
            c.warm_pair(a, b);
            c.warm_pair(a, x);
            assert!(c.pod_send(a, b, b"payload-1").delivered);
            assert!(c.pod_send(b, a, b"payload-2").delivered);
            assert!(c.pod_send(a, x, b"payload-3").delivered);
            assert!(c.pod_send(x, a, b"payload-4").delivered);
        }
        assert!(fast.is_accelerated() && !plain.is_accelerated());
    }

    #[test]
    fn acceleration_reduces_path_cost() {
        let mut plain = Cluster::new(2, false);
        let mut fast = Cluster::new(2, true);
        // Intra-node.
        let (pa, pb) = (plain.add_pod(0), plain.add_pod(0));
        let (fa, fb) = (fast.add_pod(0), fast.add_pod(0));
        plain.warm_pair(pa, pb);
        fast.warm_pair(fa, fb);
        let cp = plain.pod_send(pa, pb, b"x").total_cost_ns;
        let cf = fast.pod_send(fa, fb, b"x").total_cost_ns;
        assert!(
            cf < cp * 0.9,
            "intra fast {cf:.0}ns should be well below slow {cp:.0}ns"
        );
        // Inter-node.
        let (pc, fc) = (plain.add_pod(1), fast.add_pod(1));
        plain.warm_pair(pa, pc);
        fast.warm_pair(fa, fc);
        let cp = plain.pod_send(pa, pc, b"x").total_cost_ns;
        let cf = fast.pod_send(fa, fc, b"x").total_cost_ns;
        assert!(
            cf < cp,
            "inter fast {cf:.0}ns should be below slow {cp:.0}ns"
        );
    }

    #[test]
    fn fast_path_actually_engages_after_warmup() {
        let mut fast = Cluster::new(2, true);
        let a = fast.add_pod(0);
        let b = fast.add_pod(0);
        fast.warm_pair(a, b);
        // The first send may still run the program; later ones are served
        // by the flow cache, and both count as fast-path service.
        for send in 0..4 {
            let r = fast.pod_send(a, b, b"x");
            assert!(r.delivered);
            assert!(r.fast_path_hits > 0, "send {send}: no fast-path service");
        }
        // A plain cluster never reports any.
        let mut plain = Cluster::new(2, false);
        let (a, b) = (plain.add_pod(0), plain.add_pod(0));
        plain.warm_pair(a, b);
        assert_eq!(plain.pod_send(a, b, b"x").fast_path_hits, 0);
    }

    #[test]
    fn kube_rules_are_enforced_on_bridged_traffic() {
        // br_netfilter means a FORWARD DROP rule affects intra-node
        // bridged pod traffic on BOTH the plain and accelerated clusters.
        for accelerated in [false, true] {
            let mut c = Cluster::new(1, accelerated);
            let a = c.add_pod(0);
            let b = c.add_pod(0);
            c.warm_pair(a, b);
            let b_ip = c.pod(b).ip;
            c.nodes[0].kernel.iptables_append(
                ChainHook::Forward,
                linuxfp_netstack::netfilter::IptRule::drop_dst(linuxfp_packet::ipv4::Prefix::host(
                    b_ip,
                )),
            );
            c.nodes[0].poll_controller();
            let r = c.pod_send(a, b, b"blocked");
            assert!(!r.delivered, "accelerated={accelerated}: rule bypassed!");
            // The reverse direction is unfiltered.
            let r = c.pod_send(b, a, b"allowed");
            assert!(r.delivered, "accelerated={accelerated}");
        }
    }

    use linuxfp_netstack::netfilter::ChainHook;
}
