//! Shared evaluation scenarios: the virtual router and virtual gateway
//! of the paper's §VI-A, plus helpers for generating their workloads.
//!
//! Every platform is configured *equivalently* from these descriptions —
//! Linux and LinuxFP through standard kernel APIs, Polycube through its
//! custom control plane, VPP through its own CLI-style API — mirroring
//! "VPP and Polycube are configured with commands equivalent to the
//! Linux configuration".

use linuxfp_netstack::device::IfIndex;
use linuxfp_netstack::l7::{L7Action, L7Policy};
use linuxfp_netstack::nat::{NatChain, NatRule, NatTarget};
use linuxfp_netstack::netfilter::{ChainHook, IpSet, IptRule};
use linuxfp_netstack::stack::{IfAddr, Kernel};
use linuxfp_packet::ipv4::Prefix;
use linuxfp_packet::tcp::TcpFlags;
use linuxfp_packet::{builder, MacAddr};
use std::net::Ipv4Addr;

/// MAC used by the upstream traffic generator.
pub const SOURCE_MAC: MacAddr = MacAddr::new([0x02, 0xAA, 0xAA, 0xAA, 0xAA, 0x01]);
/// MAC of the downstream next hop (the sink host).
pub const SINK_MAC: MacAddr = MacAddr::new([0x02, 0xBB, 0xBB, 0xBB, 0xBB, 0x02]);
/// The downstream next-hop address every test route points at.
pub const NEXT_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);

/// The virtual-router / virtual-gateway scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Number of routed prefixes (`ip route add 10.10.<i>.0/24 ...`),
    /// 50 in the paper.
    pub prefixes: u32,
    /// Number of blacklist rules on FORWARD (0 = plain router; 100 in
    /// the paper's gateway).
    pub filter_rules: u32,
    /// Whether the blacklist is aggregated into one ipset.
    pub use_ipset: bool,
    /// Whether inside clients are masqueraded behind the downstream
    /// interface's address (`iptables -t nat -A POSTROUTING -o <down>
    /// -j MASQUERADE`).
    pub masquerade: bool,
    /// Number of L7 deny policies (`/blocked/<i>` URL prefixes); 0 = no
    /// request inspection.
    pub l7_policies: u32,
}

impl Scenario {
    /// The paper's virtual router: 50 prefixes, no filtering.
    pub fn router() -> Self {
        Scenario {
            prefixes: 50,
            filter_rules: 0,
            use_ipset: false,
            masquerade: false,
            l7_policies: 0,
        }
    }

    /// The paper's virtual gateway: 50 prefixes + 100 blacklist rules.
    pub fn gateway() -> Self {
        Scenario {
            filter_rules: 100,
            ..Scenario::router()
        }
    }

    /// An API gateway: the router with L7 request policies denying
    /// `/blocked/*` URL prefixes on otherwise-routable HTTP traffic.
    pub fn api_gateway() -> Self {
        Scenario {
            l7_policies: 20,
            ..Scenario::router()
        }
    }

    /// A NAT gateway: the router with many inside clients sharing the
    /// downstream interface's single public address (home-router style).
    pub fn nat_gateway() -> Self {
        Scenario {
            masquerade: true,
            ..Scenario::router()
        }
    }

    /// The gateway with the blacklist aggregated into an ipset.
    pub fn gateway_ipset() -> Self {
        Scenario {
            use_ipset: true,
            ..Scenario::gateway()
        }
    }

    /// A randomized scenario drawn from `rng`, spanning the full
    /// configuration space the presets cover: 1–50 routed prefixes,
    /// an empty / small / paper-sized blacklist (linear or ipset), and
    /// optional masquerading. Deterministic per seed — the differential
    /// fuzzer uses this to sample kernel configurations.
    pub fn randomized(rng: &mut linuxfp_sim::SimRng) -> Self {
        let filter_rules = match rng.uniform_u64(3) {
            0 => 0,
            1 => 1 + rng.uniform_u64(20) as u32,
            _ => 100,
        };
        Scenario {
            prefixes: 1 + rng.uniform_u64(50) as u32,
            filter_rules,
            use_ipset: filter_rules > 0 && rng.chance(0.5),
            masquerade: rng.chance(0.5),
            l7_policies: if rng.chance(0.35) {
                1 + rng.uniform_u64(20) as u32
            } else {
                0
            },
        }
    }

    /// The `i`-th routed destination prefix.
    pub fn route_prefix(i: u32) -> Prefix {
        Prefix::new(Ipv4Addr::new(10, 10, (i % 256) as u8, 0), 24)
    }

    /// The `i`-th blacklisted prefix (a /28 in the upper half of a routed
    /// /24, so blacklisted traffic is otherwise routable and the
    /// common-case workload — low host numbers — is never blocked).
    pub fn blacklist_prefix(i: u32) -> Prefix {
        Prefix::new(
            Ipv4Addr::new(10, 10, (i % 50) as u8, (((i / 50) * 16) % 128 + 128) as u8),
            28,
        )
    }

    /// A routable, never-blacklisted destination for flow `i` (the
    /// common-case workload).
    pub fn allowed_dst(&self, i: u64) -> Ipv4Addr {
        Ipv4Addr::new(10, 10, (i % u64::from(self.prefixes.max(1))) as u8, 7)
    }

    /// A blacklisted destination for rule `i`.
    pub fn blocked_dst(&self, i: u32) -> Ipv4Addr {
        Scenario::blacklist_prefix(i % self.filter_rules.max(1)).nth_host(1)
    }

    /// The request line of the `i`-th allowed HTTP flow. Paths rotate
    /// through a small API surface; none is under `/blocked/`.
    pub fn http_request(i: u64) -> Vec<u8> {
        format!("GET /api/v1/items/{} HTTP/1.1\r\n", i % 64).into_bytes()
    }

    /// The request line of a request every `api_gateway` policy set
    /// denies.
    pub fn blocked_http_request(&self, i: u64) -> Vec<u8> {
        format!(
            "GET /blocked/{} HTTP/1.1\r\n",
            i % u64::from(self.l7_policies.max(1))
        )
        .into_bytes()
    }

    /// Builds one TCP segment of HTTP flow `i` carrying `payload`,
    /// addressed like [`Scenario::frame`] but to port 80.
    pub fn http_frame(&self, dut_mac: MacAddr, i: u64, payload: &[u8]) -> Vec<u8> {
        builder::tcp_packet(
            SOURCE_MAC,
            dut_mac,
            Ipv4Addr::new(10, 0, 1, 100),
            self.allowed_dst(i),
            (1024 + (i % 512)) as u16,
            80,
            TcpFlags {
                psh: true,
                ack: true,
                ..TcpFlags::default()
            },
            payload,
        )
    }

    /// Builds the workload frame for flow `i` with the given total frame
    /// length (excluding FCS), addressed to the DUT's upstream MAC.
    pub fn frame(&self, dut_mac: MacAddr, i: u64, frame_len: usize) -> Vec<u8> {
        builder::udp_packet_sized(
            SOURCE_MAC,
            dut_mac,
            Ipv4Addr::new(10, 0, 1, 100),
            self.allowed_dst(i),
            (1024 + (i % 512)) as u16,
            4791,
            frame_len,
        )
    }

    /// The NAT-gateway workload frame: inside client `client` (one of
    /// many sharing the single public address) sending flow `i`.
    pub fn client_frame(&self, dut_mac: MacAddr, client: u8, i: u64, frame_len: usize) -> Vec<u8> {
        builder::udp_packet_sized(
            SOURCE_MAC,
            dut_mac,
            Ipv4Addr::new(10, 0, 1, client),
            self.allowed_dst(i),
            (1024 + (i % 512)) as u16,
            4791,
            frame_len,
        )
    }

    /// Writes the workload frame for flow `i` into a reusable buffer —
    /// the zero-allocation variant of [`Scenario::frame`] that pooled
    /// measurement loops use.
    pub fn fill_frame(&self, dut_mac: MacAddr, i: u64, frame_len: usize, buf: &mut Vec<u8>) {
        builder::udp_packet_sized_into(
            SOURCE_MAC,
            dut_mac,
            Ipv4Addr::new(10, 0, 1, 100),
            self.allowed_dst(i),
            (1024 + (i % 512)) as u16,
            4791,
            frame_len,
            buf,
        );
    }

    /// Applies this scenario to a kernel using only standard Linux
    /// configuration (iproute2 / sysctl / iptables / ipset equivalents).
    /// Returns `(upstream, downstream)` interface indices.
    ///
    /// # Panics
    ///
    /// Panics if the kernel already has conflicting configuration — the
    /// scenario owns the kernel it configures.
    pub fn configure_kernel(&self, k: &mut Kernel) -> (IfIndex, IfIndex) {
        let eth0 = k.add_physical("ens1f0").expect("fresh kernel");
        let eth1 = k.add_physical("ens1f1").expect("fresh kernel");
        k.ip_addr_add(eth0, IfAddr::new(Ipv4Addr::new(10, 0, 1, 1), 24))
            .expect("fresh kernel");
        k.ip_addr_add(eth1, IfAddr::new(Ipv4Addr::new(10, 0, 2, 1), 24))
            .expect("fresh kernel");
        k.ip_link_set_up(eth0).expect("device exists");
        k.ip_link_set_up(eth1).expect("device exists");
        k.sysctl_set("net.ipv4.ip_forward", 1)
            .expect("known sysctl");
        for i in 0..self.prefixes {
            k.ip_route_add(Scenario::route_prefix(i), Some(NEXT_HOP), None)
                .expect("gateway on connected subnet");
        }
        if self.filter_rules > 0 {
            if self.use_ipset {
                let mut set = IpSet::new_hash_net();
                for i in 0..self.filter_rules {
                    set.add(Scenario::blacklist_prefix(i));
                }
                assert!(k.ipset_create("blacklist", set));
                k.iptables_append(ChainHook::Forward, IptRule::drop_dst_set("blacklist"));
            } else {
                for i in 0..self.filter_rules {
                    k.iptables_append(
                        ChainHook::Forward,
                        IptRule::drop_dst(Scenario::blacklist_prefix(i)),
                    );
                }
            }
        }
        for i in 0..self.l7_policies {
            k.l7_policy_append(L7Policy::prefix(
                format!("/blocked/{i}").as_bytes(),
                L7Action::Deny,
            ));
        }
        if self.masquerade {
            k.iptables_nat_append(
                NatChain::Postrouting,
                NatRule {
                    out_if: Some(eth1),
                    ..NatRule::any(NatTarget::Masquerade)
                },
            );
        }
        // The testbed pre-resolves both neighbors (pktgen sends
        // continuously, so ARP is always warm).
        let now = k.now();
        k.neigh.learn(NEXT_HOP, SINK_MAC, eth1, now);
        k.neigh
            .learn(Ipv4Addr::new(10, 0, 1, 100), SOURCE_MAC, eth0, now);
        (eth0, eth1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_presets() {
        assert_eq!(Scenario::router().filter_rules, 0);
        assert_eq!(Scenario::gateway().filter_rules, 100);
        assert!(Scenario::gateway_ipset().use_ipset);
    }

    #[test]
    fn randomized_scenarios_are_deterministic_and_configurable() {
        for seed in 0..32 {
            let mut a = linuxfp_sim::SimRng::seed(seed);
            let mut b = linuxfp_sim::SimRng::seed(seed);
            let s = Scenario::randomized(&mut a);
            assert_eq!(s, Scenario::randomized(&mut b), "seed {seed}");
            assert!(s.prefixes >= 1);
            assert!(!s.use_ipset || s.filter_rules > 0);
            // Every sampled scenario must configure a kernel cleanly.
            let mut k = Kernel::new(100);
            s.configure_kernel(&mut k);
        }
    }

    #[test]
    fn blacklist_is_inside_routed_space() {
        for i in 0..100 {
            let b = Scenario::blacklist_prefix(i);
            let covered = (0..50).any(|r| Scenario::route_prefix(r).covers(&b));
            assert!(covered, "blacklist {b} not routable");
        }
    }

    #[test]
    fn allowed_dst_is_never_blacklisted() {
        let s = Scenario::gateway();
        for i in 0..200u64 {
            let dst = s.allowed_dst(i);
            for r in 0..s.filter_rules {
                assert!(
                    !Scenario::blacklist_prefix(r).contains(dst),
                    "allowed {dst} is blacklisted by rule {r}"
                );
            }
        }
    }

    #[test]
    fn kernel_configuration_matches_scenario() {
        let mut k = Kernel::new(42);
        let (eth0, eth1) = Scenario::gateway().configure_kernel(&mut k);
        assert!(k.ip_forward_enabled());
        // 50 static + 2 connected routes.
        assert_eq!(k.dump_routes().len(), 52);
        assert_eq!(k.netfilter.rules(ChainHook::Forward).len(), 100);
        assert_ne!(eth0, eth1);
        let mut k2 = Kernel::new(43);
        Scenario::gateway_ipset().configure_kernel(&mut k2);
        assert_eq!(k2.netfilter.rules(ChainHook::Forward).len(), 1);
        assert_eq!(k2.netfilter.set("blacklist").unwrap().len(), 100);
    }

    #[test]
    fn nat_gateway_masquerades_inside_clients() {
        let mut k = Kernel::new(44);
        let s = Scenario::nat_gateway();
        let (eth0, _) = s.configure_kernel(&mut k);
        assert_eq!(k.nat.snat_rules(), 1);
        let mac = k.device(eth0).unwrap().mac;
        let mut ports = std::collections::HashSet::new();
        for client in 2..5u8 {
            let out = k.receive(eth0, s.client_frame(mac, client, 0, 60));
            let tx = out.transmissions();
            assert_eq!(tx.len(), 1, "client {client} forwarded");
            let ip = linuxfp_packet::Ipv4Header::parse(&tx[0].1[14..]).unwrap();
            assert_eq!(ip.src, Ipv4Addr::new(10, 0, 2, 1), "masqueraded");
            let udp = linuxfp_packet::UdpHeader::parse(&tx[0].1[14 + ip.header_len..]).unwrap();
            ports.insert(udp.src_port);
        }
        // Many inside clients, one public IP, distinct allocated ports.
        assert_eq!(ports.len(), 3);
    }

    #[test]
    fn frames_hit_requested_size() {
        let s = Scenario::router();
        let f = s.frame(MacAddr::from_index(1), 3, 60);
        assert_eq!(f.len(), 60);
        let f = s.frame(MacAddr::from_index(1), 3, 1496);
        assert_eq!(f.len(), 1496);
    }
}
