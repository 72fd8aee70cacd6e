//! Virtual-time simulation substrate for the LinuxFP reproduction.
//!
//! The LinuxFP paper evaluates its system on real hardware (CloudLab
//! c6525-25g hosts with 25 Gbps NICs). This crate provides the deterministic
//! stand-in for that testbed: a virtual clock, a discrete-event engine, a
//! seeded random-number facade, streaming statistics, and — most importantly
//! — the single [`cost::CostModel`] that assigns a nanosecond price to every
//! packet-processing operation performed by the simulated kernel
//! (`linuxfp-netstack`), the simulated eBPF runtime (`linuxfp-ebpf`) and the
//! baseline platforms.
//!
//! Every experiment in the repository derives its throughput and latency
//! numbers from this one model, so relative results (who wins, by what
//! factor, where crossovers fall) are consistent across tables and figures,
//! exactly as they would be on a single physical testbed.
//!
//! # Example
//!
//! ```
//! use linuxfp_sim::cost::CostModel;
//! use linuxfp_sim::cores::CoreModel;
//!
//! let cost = CostModel::calibrated();
//! // A hypothetical data path that costs 800 ns per packet on one core:
//! let cores = CoreModel::new(&cost);
//! let pps = cores.throughput_pps(800.0, 1);
//! assert!(pps > 1.0e6 && pps < 1.3e6);
//! ```

pub mod cores;
pub mod cost;
pub mod events;
pub mod rate;
pub mod rng;
pub mod stage;
pub mod stats;
pub mod time;

pub use cores::CoreModel;
pub use cost::{CostModel, CostTracker};
pub use events::EventQueue;
pub use rng::SimRng;
pub use stage::Stage;
pub use stats::Summary;
pub use time::Nanos;
