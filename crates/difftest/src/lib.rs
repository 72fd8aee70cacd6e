//! Seeded differential fuzzer for LinuxFP transparency.
//!
//! Every seed deterministically expands into a [`DiffScenario`]: a random
//! kernel configuration spanning the accelerated subsystems (bridge FDB,
//! FIB routes, iptables filter + ipset, ipvs, NAT44), a randomized traffic
//! mix (TCP/UDP/ICMP, ragged bursts, replies, malformed frames),
//! interleaved netlink churn (rule flushes, route changes, FPM redeploys
//! mid-stream), and a datapath mode (1 or 4 RSS shards, optimizer on or
//! off) that a fixture records and a replay, shrink or trace reuses. The
//! [`runner`] executes the scenario on a Linux-only kernel and a LinuxFP
//! kernel side by side and asserts:
//!
//! - byte-identical emitted frames and delivery/drop sequences per burst,
//! - identical housekeeping reports,
//! - the telemetry ledger `hits + fallbacks == injected` on the LinuxFP side,
//! - zero buffer-pool growth after warm-up on both sides.
//!
//! On divergence, [`shrink`] greedily deletes ops and packets to a
//! 1-minimal repro that can be written as a self-contained JSON fixture
//! (see `tests/difftest_corpus/`) and replayed byte-for-byte.

pub mod gen;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use gen::generate;
pub use runner::{divergence_trace, run, trace_scenario, Divergence, RunOutcome};
pub use scenario::{ChurnOp, DiffScenario, Dir, Op, PacketSpec};
pub use shrink::shrink;
