//! LinuxFP objects: typed descriptions of network services discovered in
//! the kernel.
//!
//! The Service Introspection component converts netlink dumps and
//! notifications into these objects (paper §IV-C1: "Received messages are
//! converted into network object descriptions (LinuxFP objects) containing
//! a type and a set of configuration attributes").

use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::netlink::{LinkInfo, RouteInfo};
use linuxfp_netstack::stack::Kernel;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A network-interface object with its derived attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceObject {
    /// Interface index.
    pub index: IfIndex,
    /// Interface name.
    pub name: String,
    /// Device kind (`physical`, `veth`, `bridge`, `vxlan`).
    pub kind: String,
    /// Up/down state.
    pub up: bool,
    /// Whether the interface has at least one IPv4 address.
    pub has_ip: bool,
    /// Assigned addresses.
    pub addrs: Vec<(Ipv4Addr, u8)>,
    /// Hardware address octets.
    pub mac: [u8; 6],
    /// Enslaving bridge, if this interface is a bridge port.
    pub master: Option<IfIndex>,
    /// Bridge attributes when this interface *is* a bridge.
    pub bridge: Option<BridgeObject>,
}

/// Bridge-specific attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BridgeObject {
    /// Whether STP is enabled.
    pub stp_enabled: bool,
    /// Whether VLAN filtering is enabled.
    pub vlan_filtering: bool,
    /// Member ports.
    pub ports: Vec<IfIndex>,
    /// Per-port PVIDs (for specializing the VLAN snippet per port).
    pub port_pvids: Vec<(IfIndex, u16)>,
}

/// One accelerable virtual service (UDP with at least one backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpvsServiceObject {
    /// The service address.
    pub vip: [u8; 4],
    /// The service port.
    pub port: u16,
}

/// Summary of the netfilter configuration relevant to synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetfilterObject {
    /// Rules in the FORWARD chain.
    pub forward_rules: usize,
    /// Whether any FORWARD rule matches against an ipset.
    pub uses_ipset: bool,
    /// Configuration generation (bumped on every change).
    pub generation: u64,
}

/// Summary of the iptables `nat` table relevant to synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NatObject {
    /// DNAT rules in the PREROUTING chain.
    pub dnat_rules: usize,
    /// SNAT/MASQUERADE rules in the POSTROUTING chain.
    pub snat_rules: usize,
    /// Configuration generation (bumped on every change).
    pub generation: u64,
}

/// Summary of the L7 request-policy table relevant to synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct L7Object {
    /// Request policies currently configured.
    pub rules: usize,
    /// Configuration generation (bumped on policy changes, flushes, and
    /// connection-pin evictions).
    pub generation: u64,
}

/// The controller's coherent snapshot of kernel networking state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectStore {
    /// All interfaces, keyed by index.
    pub interfaces: BTreeMap<IfIndex, InterfaceObject>,
    /// All routes.
    pub routes: Vec<RouteInfo>,
    /// Whether IPv4 forwarding is enabled.
    pub ip_forward: bool,
    /// Whether `bridge-nf-call-iptables` is enabled.
    pub bridge_nf: bool,
    /// Whether the synthesis-time bytecode optimizer is enabled
    /// (`net.linuxfp.opt`). Part of the snapshot so flipping the sysctl
    /// changes the graph and triggers a redeploy in whichever form the
    /// operator asked for.
    pub opt: bool,
    /// Netfilter summary.
    pub netfilter: NetfilterObject,
    /// Accelerable ipvs services.
    pub ipvs_services: Vec<IpvsServiceObject>,
    /// Whether any ipvs service exists at all (accelerable or not).
    pub ipvs_configured: bool,
    /// Iptables `nat` table summary.
    pub nat: NatObject,
    /// Whether NAT can touch traffic: any rule exists, or established
    /// bindings from since-removed rules are still live in conntrack
    /// (the slow path keeps honoring those, so the fast path must too).
    pub nat_configured: bool,
    /// L7 request-policy table summary.
    pub l7: L7Object,
    /// Whether the L7 policy engine can touch traffic: any policy
    /// exists, or connection pins are still live (the slow path keeps
    /// honoring pinned verdicts, so the fast path must too).
    pub l7_configured: bool,
}

impl ObjectStore {
    /// Builds a complete snapshot from kernel dumps — what the controller
    /// does at startup and after relevant notifications.
    pub fn snapshot(kernel: &Kernel) -> Self {
        let mut interfaces = BTreeMap::new();
        for link in kernel.dump_links() {
            interfaces.insert(link.index, InterfaceObject::from_link(&link, kernel));
        }
        let nf = &kernel.netfilter;
        let forward = nf.rules(linuxfp_netstack::netfilter::ChainHook::Forward);
        let ipvs_services = kernel
            .ipvs
            .services()
            .iter()
            .filter(|s| s.proto == linuxfp_packet::ipv4::IpProto::Udp && !s.backends().is_empty())
            .map(|s| IpvsServiceObject {
                vip: s.vip.octets(),
                port: s.port,
            })
            .collect();
        ObjectStore {
            interfaces,
            routes: kernel.dump_routes(),
            ip_forward: kernel.ip_forward_enabled(),
            bridge_nf: kernel.bridge_nf_enabled(),
            opt: kernel.opt_enabled(),
            netfilter: NetfilterObject {
                forward_rules: forward.len(),
                uses_ipset: forward.iter().any(|r| r.set_match.is_some()),
                generation: nf.generation,
            },
            ipvs_services,
            ipvs_configured: !kernel.ipvs.is_empty(),
            nat: NatObject {
                dnat_rules: kernel.nat.dnat_rules(),
                snat_rules: kernel.nat.snat_rules(),
                generation: kernel.nat.generation,
            },
            // Mirrors the slow path's own `nat_active` condition: rules
            // OR live bindings. A flush with established flows must keep
            // the NAT stage deployed, or the fast path forwards frames
            // the slow path would still translate.
            nat_configured: kernel.nat.total_rules() > 0 || kernel.conntrack.nat_len() > 0,
            l7: L7Object {
                rules: kernel.l7.total_rules(),
                generation: kernel.l7.generation,
            },
            // Same shape as `nat_configured`: policies OR live pins. A
            // flush clears both atomically, so the stage retires with
            // the table — but a defensive disjunction keeps any future
            // pin-retaining operation transparent by construction.
            l7_configured: kernel.l7.total_rules() > 0 || kernel.l7.pinned_len() > 0,
        }
    }

    /// The interface object for `index`.
    pub fn interface(&self, index: IfIndex) -> Option<&InterfaceObject> {
        self.interfaces.get(&index)
    }

    /// Whether any non-bridge interface could forward (routing active).
    pub fn routing_active(&self) -> bool {
        self.ip_forward && !self.routes.is_empty()
    }

    /// The bridge object (if any) that `port` belongs to.
    pub fn bridge_of(&self, port: IfIndex) -> Option<(&InterfaceObject, &BridgeObject)> {
        let master = self.interfaces.get(&port)?.master?;
        let br = self.interfaces.get(&master)?;
        br.bridge.as_ref().map(|b| (br, b))
    }
}

impl InterfaceObject {
    fn from_link(link: &LinkInfo, kernel: &Kernel) -> Self {
        let bridge = if link.kind == "bridge" {
            let br = kernel.bridge(link.index);
            Some(BridgeObject {
                stp_enabled: link.stp_enabled.unwrap_or(false),
                vlan_filtering: link.vlan_filtering.unwrap_or(false),
                ports: br
                    .map(|b| b.ports().map(|p| p.ifindex).collect())
                    .unwrap_or_default(),
                port_pvids: br
                    .map(|b| b.ports().map(|p| (p.ifindex, p.pvid)).collect())
                    .unwrap_or_default(),
            })
        } else {
            None
        };
        InterfaceObject {
            index: link.index,
            name: link.name.clone(),
            kind: link.kind.clone(),
            up: link.up,
            has_ip: !link.addrs.is_empty(),
            addrs: link.addrs.clone(),
            mac: link.mac.octets(),
            master: link.master,
            bridge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxfp_netstack::netfilter::{ChainHook, IptRule};
    use linuxfp_netstack::stack::IfAddr;

    #[test]
    fn nat_configured_survives_rule_flush_while_bindings_live() {
        use linuxfp_netstack::conntrack::NatTuple;
        use linuxfp_netstack::nat::{NatChain, NatRule, NatTarget};
        use linuxfp_netstack::netlink::{NetlinkMessage, NlGroup};
        use std::net::Ipv4Addr;

        let mut k = Kernel::new(1);
        k.iptables_nat_append(NatChain::Postrouting, NatRule::any(NatTarget::Masquerade));
        assert!(ObjectStore::snapshot(&k).nat_configured);

        // An established flow binds, then the rules are flushed. The
        // slow path keeps translating through the binding, so the
        // controller must keep the NAT stage deployed.
        let orig = NatTuple::new(
            Ipv4Addr::new(10, 0, 1, 5),
            4000,
            Ipv4Addr::new(10, 10, 0, 7),
            53,
            17,
        );
        let mut xlat = orig;
        xlat.src = Ipv4Addr::new(10, 0, 2, 1);
        xlat.sport = 32768;
        let now = k.now();
        k.conntrack.nat_install(orig, xlat, Some(32768), now);
        k.iptables_nat_flush();
        assert!(
            ObjectStore::snapshot(&k).nat_configured,
            "live bindings keep NAT configured after a flush"
        );

        // Once the bindings expire and are collected, the stage can go,
        // and the collection says so on netlink (once).
        let watcher = k.netlink_subscribe(&[NlGroup::Netfilter]);
        k.advance(linuxfp_sim::Nanos::from_secs(3600));
        k.run_housekeeping();
        assert!(!ObjectStore::snapshot(&k).nat_configured);
        let events = k.netlink_poll(watcher);
        assert!(
            matches!(events.as_slice(), [NetlinkMessage::NatChanged { .. }]),
            "{events:?}"
        );
    }

    #[test]
    fn l7_configured_tracks_policies_and_pins() {
        use linuxfp_netstack::l7::{L7Action, L7ConnKey, L7Policy};
        use std::net::Ipv4Addr;

        let mut k = Kernel::new(9);
        assert!(!ObjectStore::snapshot(&k).l7_configured);
        k.l7_policy_append(L7Policy::prefix(b"/api", L7Action::Deny));
        let store = ObjectStore::snapshot(&k);
        assert!(store.l7_configured);
        assert_eq!(store.l7.rules, 1);
        let gen_before = store.l7.generation;

        // A parsed request pins the connection verdict; the snapshot
        // keeps the stage deployed (rules still present) and the
        // generation is what coherence keys on.
        let key = L7ConnKey {
            src: Ipv4Addr::new(10, 0, 1, 5),
            sport: 4000,
            dst: Ipv4Addr::new(10, 10, 0, 7),
            dport: 80,
        };
        let _ = k.l7.lookup(key, b"GET /api/x HTTP/1.1\r\n");
        assert_eq!(k.l7.pinned_len(), 1);
        assert!(ObjectStore::snapshot(&k).l7_configured);

        // Flush clears policies AND pins atomically: the stage retires,
        // and the generation moved so deployed caches invalidate.
        k.l7_policy_flush();
        let store = ObjectStore::snapshot(&k);
        assert!(!store.l7_configured);
        assert_eq!(k.l7.pinned_len(), 0);
        assert!(store.l7.generation > gen_before);
    }

    #[test]
    fn snapshot_reflects_router_config() {
        let mut k = Kernel::new(1);
        let eth0 = k.add_physical("eth0").unwrap();
        k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
        let store = ObjectStore::snapshot(&k);
        assert!(store.routing_active());
        let iface = store.interface(eth0).unwrap();
        assert!(iface.up && iface.has_ip);
        assert_eq!(iface.kind, "physical");
        assert!(iface.bridge.is_none());
        assert_eq!(store.netfilter.forward_rules, 0);
    }

    #[test]
    fn snapshot_reflects_bridge_and_ports() {
        let mut k = Kernel::new(2);
        let p1 = k.add_physical("p1").unwrap();
        let br = k.add_bridge("br0").unwrap();
        k.brctl_addif(br, p1).unwrap();
        k.bridge_set_stp(br, true).unwrap();
        let store = ObjectStore::snapshot(&k);
        let (br_obj, bridge) = store.bridge_of(p1).unwrap();
        assert_eq!(br_obj.name, "br0");
        assert!(bridge.stp_enabled);
        assert!(!bridge.vlan_filtering);
        assert_eq!(bridge.ports, vec![p1]);
        assert!(store.bridge_of(br).is_none());
    }

    #[test]
    fn snapshot_reflects_netfilter() {
        let mut k = Kernel::new(3);
        k.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst("10.0.0.0/8".parse().unwrap()),
        );
        k.iptables_append(ChainHook::Forward, IptRule::drop_dst_set("bl"));
        let store = ObjectStore::snapshot(&k);
        assert_eq!(store.netfilter.forward_rules, 2);
        assert!(store.netfilter.uses_ipset);
        assert!(store.netfilter.generation > 0);
        assert!(!store.routing_active());
    }
}
