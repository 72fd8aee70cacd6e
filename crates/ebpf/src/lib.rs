//! A simulated eBPF runtime: the machinery LinuxFP uses to run
//! synthesized fast paths inside the (simulated) kernel.
//!
//! Mirrors the real eBPF subsystem piece by piece:
//!
//! - [`insn`]: the instruction set — registers `r0`–`r10`, ALU/jump/
//!   load/store instructions, helper calls, tail calls.
//! - [`asm`]: an assembler with symbolic labels; the fast-path
//!   synthesizer's backend.
//! - [`verifier`]: static safety verification (termination, register
//!   initialization, pointer typing, packet/stack bounds, helper
//!   contracts). Programs only become loadable by passing it.
//! - [`opt`]: the synthesis-time optimizer — shrinks synthesized
//!   programs (constant folding, load CSE, dead-store elimination,
//!   jump threading, idiom rewrites) before verification, behind a
//!   re-verify gate.
//! - [`program`]: [`program::LoadedProgram`], the verified artifact.
//! - [`vm`]: the machine state, helpers, per-instruction/per-helper
//!   cost accounting driven by [`linuxfp_sim::CostModel`], and the
//!   interpreter — the one engine that runs programs.
//! - [`maps`]: hash/array/LPM/program-array maps; program arrays are the
//!   tail-call mechanism behind atomic data-path swaps.
//! - [`helpers`]: the [`helpers::HelperEnv`] boundary through which
//!   programs access *kernel* state (`bpf_fib_lookup`, plus the paper's
//!   new `bpf_fdb_lookup` and `bpf_ipt_lookup`).
//! - [`hook`]: XDP/TC attachment and the [`hook::Dispatcher`] that swaps
//!   data paths via one program-array update (paper Fig. 4).
//!
//! # Example
//!
//! ```
//! use linuxfp_ebpf::asm::Asm;
//! use linuxfp_ebpf::insn::Action;
//! use linuxfp_ebpf::program::{LoadedProgram, Program};
//!
//! let mut a = Asm::new();
//! a.mov_imm(0, Action::Pass.code() as i64);
//! a.exit();
//! let prog = LoadedProgram::load(Program::new("pass", a.finish().unwrap()))?;
//! assert_eq!(prog.len(), 2);
//! # Ok::<(), linuxfp_ebpf::verifier::VerifyError>(())
//! ```

pub mod asm;
pub mod flowcache;
pub mod helpers;
pub mod hook;
pub mod insn;
pub mod maps;
pub mod opt;
pub mod program;
pub mod verifier;
pub mod vm;
mod walk;

pub use asm::Asm;
pub use flowcache::{FlowCache, FlowKey};
pub use hook::{Dispatcher, HookPoint};
pub use insn::{Action, HelperId};
pub use maps::{MapId, MapStore};
pub use opt::{optimize, OptStats};
pub use program::{LoadedProgram, Program};
pub use verifier::VerifyError;
pub use vm::{VmCtx, VmOutcome};
