//! A simulated Linux kernel networking stack — the LinuxFP **slow path**.
//!
//! LinuxFP's architecture keeps Linux as a complete, always-correct packet
//! processing environment and installs synthesized eBPF fast paths in front
//! of it. This crate is the "Linux" of the reproduction:
//!
//! - **Devices** ([`device`]): physical NICs, veth pairs, bridges, and
//!   VXLAN tunnels, with XDP and TC hook attachment points.
//! - **Routing** ([`fib`]): a longest-prefix-match trie, route attributes,
//!   and the `ip route` configuration surface.
//! - **Neighbors** ([`neigh`]): the ARP table state machine; ARP itself is
//!   processed here (the fast path never answers ARP — paper Table I).
//! - **Bridging** ([`bridge`]): forwarding database with learning and
//!   aging, STP port states, VLAN filtering, and flooding on FDB miss.
//! - **Netfilter** ([`netfilter`]): the `filter` table with built-in and
//!   user chains, linear rule evaluation (whose cost the paper's Fig. 8
//!   measures), and ipset aggregation.
//! - **Conntrack** ([`conntrack`]): 5-tuple connection tracking with
//!   per-direction NAT bindings.
//! - **NAT** ([`nat`]): the iptables `nat` table — PREROUTING DNAT and
//!   POSTROUTING SNAT/MASQUERADE with a deterministic port allocator.
//! - **L7 policy** ([`l7`]): a bounded HTTP/1.x request-line parser and
//!   per-URL-prefix/method policy table with connection-verdict pinning.
//! - **Netlink** ([`netlink`]): typed dump requests plus multicast change
//!   notifications — the introspection surface the LinuxFP controller
//!   consumes.
//! - **The pipeline** ([`stack::Kernel`]): ties everything together and
//!   processes packets exactly once per stage, charging calibrated costs to
//!   a [`linuxfp_sim::CostTracker`] so that slow-path and fast-path
//!   processing are comparable (and so the flame-graph profile of paper
//!   Fig. 1 can be regenerated).
//!
//! State held here (FIB, FDB, neighbor table, rules, conntrack) is the
//! *single source of truth*: eBPF fast paths in `linuxfp-ebpf` access it
//! through helper functions rather than shadow maps, which is the paper's
//! central correctness mechanism ("Unifying State", §IV-B2).
//!
//! # Example
//!
//! ```
//! use linuxfp_netstack::stack::Kernel;
//! use linuxfp_packet::ipv4::Prefix;
//!
//! let mut k = Kernel::new(42);
//! let eth0 = k.add_physical("eth0").unwrap();
//! k.ip_addr_add(eth0, "10.0.1.1/24".parse().unwrap()).unwrap();
//! k.ip_link_set_up(eth0).unwrap();
//! k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
//! let routes = k.dump_routes();
//! assert_eq!(routes.len(), 1); // connected route for 10.0.1.0/24
//! assert_eq!(routes[0].prefix, "10.0.1.0/24".parse::<Prefix>().unwrap());
//! ```

pub mod bridge;
pub mod conntrack;
pub mod device;
pub mod error;
pub mod fib;
pub mod ipvs;
pub mod l7;
pub mod nat;
pub mod neigh;
pub mod netfilter;
pub mod netlink;
pub mod stack;

pub use device::{DeviceKind, IfIndex, NetDevice};
pub use error::NetError;
pub use stack::{Effect, Effects, HookVerdict, Kernel, RxOutcome};
