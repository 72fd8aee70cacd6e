//! # LinuxFP — transparently accelerating (simulated) Linux networking
//!
//! A full reproduction of *LinuxFP: Transparently Accelerating Linux
//! Networking* (ICDCS 2024) as a Rust workspace. This facade crate
//! re-exports every subsystem:
//!
//! - [`core`] — the paper's contribution: the controller that introspects
//!   the kernel, models configuration as a JSON processing graph, and
//!   synthesizes, verifies and atomically deploys minimal eBPF fast paths.
//! - [`netstack`] — the simulated Linux kernel networking stack (the slow
//!   path): bridging, routing, netfilter, conntrack, netlink.
//! - [`ebpf`] — the simulated eBPF runtime: bytecode, verifier,
//!   load-time compiler, maps, helpers, XDP/TC hooks, tail calls.
//! - [`packet`] — packet parsing/building.
//! - [`platforms`] — Linux, LinuxFP, Polycube-style and VPP-style
//!   platforms behind one measurement interface.
//! - [`traffic`] — pktgen-style and netperf-style workload harnesses.
//! - [`k8s`] — a Flannel-networked Kubernetes cluster simulation.
//! - [`sim`] — virtual time, the calibrated cost model, statistics.
//!
//! ## Quickstart
//!
//! ```
//! use linuxfp::core::controller::{Controller, ControllerConfig};
//! use linuxfp::netstack::stack::{IfAddr, Kernel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A kernel with two NICs, configured with ordinary commands.
//! let mut kernel = Kernel::new(1);
//! let eth0 = kernel.add_physical("eth0")?;
//! let eth1 = kernel.add_physical("eth1")?;
//! kernel.ip_link_set_up(eth0)?;
//! kernel.ip_link_set_up(eth1)?;
//!
//! // Attach the LinuxFP controller: from here on, configuration changes
//! // transparently produce fast paths.
//! let (mut controller, _) = Controller::attach(&mut kernel, ControllerConfig::default())?;
//! kernel.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>()?)?;
//! kernel.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>()?)?;
//! kernel.sysctl_set("net.ipv4.ip_forward", 1)?;
//! let report = controller.poll(&mut kernel)?.expect("events pending");
//! assert!(report.changed && report.installed.len() == 2);
//! # Ok(())
//! # }
//! ```
//!
//! Regenerate every paper table and figure with
//! `cargo run -p linuxfp-bench --bin repro --release`.

pub use linuxfp_core as core;
pub use linuxfp_ebpf as ebpf;
pub use linuxfp_json as json;
pub use linuxfp_k8s as k8s;
pub use linuxfp_netstack as netstack;
pub use linuxfp_packet as packet;
pub use linuxfp_platforms as platforms;
pub use linuxfp_sim as sim;
pub use linuxfp_telemetry as telemetry;
pub use linuxfp_traffic as traffic;

/// Commonly used items in one import.
pub mod prelude {
    pub use linuxfp_core::controller::{Controller, ControllerConfig, ReactionReport};
    pub use linuxfp_core::Capabilities;
    pub use linuxfp_ebpf::hook::HookPoint;
    pub use linuxfp_netstack::device::IfIndex;
    pub use linuxfp_netstack::stack::{Effect, IfAddr, Kernel};
    pub use linuxfp_packet::ipv4::Prefix;
    pub use linuxfp_packet::MacAddr;
    pub use linuxfp_platforms::{
        LinuxFpPlatform, LinuxPlatform, Platform, PolycubePlatform, Scenario, VppPlatform,
    };
    pub use linuxfp_sim::{CostModel, Nanos, Stage, Summary};
    pub use linuxfp_telemetry::{render_prometheus, snapshot_json, Registry};
}
