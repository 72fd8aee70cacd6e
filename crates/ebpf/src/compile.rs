//! Load-time compilation of verified bytecode into a pre-decoded,
//! direct-threaded form — the simulated analogue of the kernel's BPF JIT.
//!
//! The lowering runs once per `BPF_PROG_LOAD` (see
//! [`crate::program::LoadedProgram::load`]) and does the work the
//! interpreter otherwise repeats on every executed instruction:
//!
//! - operand decode: immediates are sign-extended to `u64` once, memory
//!   offsets are pre-widened, register indices become plain `usize`-ready
//!   bytes;
//! - control flow: relative jump offsets are resolved to absolute
//!   instruction indices, so taken branches assign `pc` instead of doing
//!   signed offset arithmetic;
//! - map handles: tail-call program-array ids become [`MapId`]s.
//!
//! Execution then dispatches over the compact [`COp`] enum — one match
//! per instruction with no per-step decoding — and charges the calibrated
//! [`linuxfp_sim::CostModel::jit_insn_ns`] per executed instruction under
//! the `jit_insn` stage. This is the only engine that serves packets.
//!
//! The interpreter ([`vm::run`]) is the reference oracle: both engines
//! share the [`vm::Machine`] state, the [`vm::alu`] / [`vm::jump_taken`] /
//! [`vm::call_helper`] building blocks, and the [`vm::finish`] /
//! [`vm::fault`] outcome constructors, and the parity suites
//! (`tests/jit_parity.rs`, `tests/alu_parity.rs`, the root
//! `engine_oracle` test over deployed pipelines) execute every program
//! through both and assert identical [`VmOutcome`]s — final register file
//! included — byte-identical frames and identical cost trackers. One
//! price per instruction means the oracle checks the accounting too.

use crate::helpers::HelperEnv;
use crate::insn::{AluOp, HelperId, Insn, JmpCond, MemSize, MAX_TAIL_CALLS};
use crate::maps::{MapId, MapStore};
use crate::program::LoadedProgram;
use crate::vm::{self, VmCtx, VmError, VmOutcome};
use linuxfp_sim::{CostModel, CostTracker, Stage};

/// One pre-decoded instruction. Jump targets are absolute indices into
/// the op sequence; immediates and offsets are already widened to the
/// `u64` the machine operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum COp {
    /// `dst = dst <op> imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Pre-widened immediate.
        imm: u64,
    },
    /// `dst = dst <op> src`.
    AluReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Unconditional jump to an absolute target.
    Jump {
        /// Absolute op index.
        target: u32,
    },
    /// Conditional jump against an immediate.
    JmpImm {
        /// Predicate.
        cond: JmpCond,
        /// Left-hand register.
        dst: u8,
        /// Pre-widened right-hand immediate.
        imm: u64,
        /// Absolute op index when taken.
        target: u32,
    },
    /// Conditional jump against a register.
    JmpReg {
        /// Predicate.
        cond: JmpCond,
        /// Left-hand register.
        dst: u8,
        /// Right-hand register.
        src: u8,
        /// Absolute op index when taken.
        target: u32,
    },
    /// `dst = *(size*)(src + off)`.
    Load {
        /// Access width.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base pointer register.
        src: u8,
        /// Pre-sign-extended byte offset.
        off: u64,
    },
    /// `*(size*)(dst + off) = src`.
    Store {
        /// Access width.
        size: MemSize,
        /// Base pointer register.
        dst: u8,
        /// Pre-sign-extended byte offset.
        off: u64,
        /// Value register.
        src: u8,
    },
    /// `*(size*)(dst + off) = imm`.
    StoreImm {
        /// Access width.
        size: MemSize,
        /// Base pointer register.
        dst: u8,
        /// Pre-sign-extended byte offset.
        off: u64,
        /// Pre-widened immediate.
        imm: u64,
    },
    /// Helper call (shared with the interpreter).
    Call {
        /// Which helper.
        helper: HelperId,
    },
    /// Tail call through a program array.
    TailCall {
        /// Pre-decoded program-array handle.
        prog_array: MapId,
        /// Slot index.
        index: u32,
    },
    /// Return with the verdict in `r0`.
    Exit,
}

/// A program lowered to direct-threaded form. Built once at load time;
/// shared via the owning [`LoadedProgram`]'s `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    ops: Vec<COp>,
}

impl CompiledProgram {
    /// Lowers verified bytecode. Infallible: the verifier has already
    /// established that every jump lands in bounds, so target resolution
    /// cannot overflow.
    pub fn compile(insns: &[Insn]) -> Self {
        let target = |pc: usize, off: i64| -> u32 { (pc as i64 + 1 + off) as u32 };
        let ops = insns
            .iter()
            .enumerate()
            .map(|(pc, insn)| match *insn {
                Insn::AluImm { op, dst, imm } => COp::AluImm {
                    op,
                    dst,
                    imm: imm as u64,
                },
                Insn::AluReg { op, dst, src } => COp::AluReg { op, dst, src },
                Insn::Ja { off } => COp::Jump {
                    target: target(pc, off as i64),
                },
                Insn::JmpImm {
                    cond,
                    dst,
                    imm,
                    off,
                } => COp::JmpImm {
                    cond,
                    dst,
                    imm: imm as u64,
                    target: target(pc, off as i64),
                },
                Insn::JmpReg {
                    cond,
                    dst,
                    src,
                    off,
                } => COp::JmpReg {
                    cond,
                    dst,
                    src,
                    target: target(pc, off as i64),
                },
                Insn::Load {
                    size,
                    dst,
                    src,
                    off,
                } => COp::Load {
                    size,
                    dst,
                    src,
                    off: off as i64 as u64,
                },
                Insn::Store {
                    size,
                    dst,
                    off,
                    src,
                } => COp::Store {
                    size,
                    dst,
                    off: off as i64 as u64,
                    src,
                },
                Insn::StoreImm {
                    size,
                    dst,
                    off,
                    imm,
                } => COp::StoreImm {
                    size,
                    dst,
                    off: off as i64 as u64,
                    imm: imm as u64,
                },
                Insn::Call { helper } => COp::Call { helper },
                Insn::TailCall { prog_array, index } => COp::TailCall {
                    prog_array: MapId(prog_array),
                    index,
                },
                Insn::Exit => COp::Exit,
            })
            .collect();
        CompiledProgram { ops }
    }

    /// The lowered op sequence.
    pub fn ops(&self) -> &[COp] {
        &self.ops
    }
}

/// Executes a loaded program's compiled form to completion.
///
/// Mirrors [`vm::run`] exactly — same machine, same helpers, same
/// tail-call and budget rules — but dispatches over pre-decoded ops and
/// charges [`linuxfp_sim::CostModel::jit_insn_ns`] per instruction under
/// the `jit_insn` stage. Tail calls continue in the callee's *compiled*
/// form (every loaded program has one).
pub fn run(
    prog: &LoadedProgram,
    ctx: VmCtx<'_>,
    env: &mut dyn HelperEnv,
    maps: &MapStore,
    cost: &CostModel,
    tracker: &mut CostTracker,
) -> VmOutcome {
    let mut m = vm::Machine::new(ctx);
    let mut cur = prog.clone();
    let mut pc = 0usize;
    let mut executed = 0u64;
    let mut tail_calls = 0u64;
    let mut helper_calls = 0u64;

    let outcome = loop {
        if executed >= vm::INSN_BUDGET {
            break vm::fault(
                VmError::BudgetExhausted,
                &m,
                executed,
                tail_calls,
                helper_calls,
            );
        }
        let op = cur.compiled().ops()[pc];
        executed += 1;
        pc += 1;
        match op {
            COp::AluImm { op, dst, imm } => {
                let d = dst as usize;
                m.regs[d] = vm::alu(op, m.regs[d], imm, &mut m.div_zeros);
            }
            COp::AluReg { op, dst, src } => {
                let (d, s) = (dst as usize, src as usize);
                m.regs[d] = vm::alu(op, m.regs[d], m.regs[s], &mut m.div_zeros);
            }
            COp::Jump { target } => {
                pc = target as usize;
            }
            COp::JmpImm {
                cond,
                dst,
                imm,
                target,
            } => {
                if vm::jump_taken(cond, m.regs[dst as usize], imm) {
                    pc = target as usize;
                }
            }
            COp::JmpReg {
                cond,
                dst,
                src,
                target,
            } => {
                if vm::jump_taken(cond, m.regs[dst as usize], m.regs[src as usize]) {
                    pc = target as usize;
                }
            }
            COp::Load {
                size,
                dst,
                src,
                off,
            } => {
                let addr = m.regs[src as usize].wrapping_add(off);
                match m.read_mem(addr, size) {
                    Ok(v) => m.regs[dst as usize] = v,
                    Err(e) => break vm::fault(e, &m, executed, tail_calls, helper_calls),
                }
            }
            COp::Store {
                size,
                dst,
                off,
                src,
            } => {
                let addr = m.regs[dst as usize].wrapping_add(off);
                let v = m.regs[src as usize];
                if let Err(e) = m.write_mem(addr, size, v) {
                    break vm::fault(e, &m, executed, tail_calls, helper_calls);
                }
            }
            COp::StoreImm {
                size,
                dst,
                off,
                imm,
            } => {
                let addr = m.regs[dst as usize].wrapping_add(off);
                if let Err(e) = m.write_mem(addr, size, imm) {
                    break vm::fault(e, &m, executed, tail_calls, helper_calls);
                }
            }
            COp::Call { helper } => {
                helper_calls += 1;
                if let Err(e) = vm::call_helper(helper, &mut m, env, maps, cost, tracker) {
                    break vm::fault(e, &m, executed, tail_calls, helper_calls);
                }
            }
            COp::TailCall { prog_array, index } => {
                if tail_calls < u64::from(MAX_TAIL_CALLS) {
                    if let Some(next) = maps.prog_array_get(prog_array, index as usize) {
                        tracker.charge(Stage::TailCall, cost.tail_call_ns);
                        tail_calls += 1;
                        cur = next;
                        pc = 0;
                        // Same convention as the interpreter: r1 carries
                        // the ctx into the callee; scratch registers are
                        // cleared.
                        m.regs[1] = vm::CTX_BASE;
                        for r in 2..=5 {
                            m.regs[r] = 0;
                        }
                        continue;
                    }
                }
                // Missing slot or depth exceeded: fall through.
            }
            COp::Exit => {
                break vm::finish(&m, executed, tail_calls, helper_calls);
            }
        }
    };
    // Counted in the loop, priced here: every exit path pays for exactly
    // the instructions it executed, tail-called programs included.
    tracker.charge_n(Stage::JitInsn, cost.jit_insn_ns, executed);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::helpers::NullEnv;
    use crate::insn::Action;
    use crate::program::Program;
    use crate::verifier::ctx_layout;

    fn load(asm: Asm, name: &str) -> LoadedProgram {
        LoadedProgram::load(Program::new(name, asm.finish().unwrap())).unwrap()
    }

    fn run_compiled(prog: &LoadedProgram, packet: &mut Vec<u8>) -> (VmOutcome, CostTracker) {
        let maps = MapStore::new();
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let ctx = VmCtx::xdp(packet, 1, 0);
        let out = run(prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker);
        (out, tracker)
    }

    fn run_interp(prog: &LoadedProgram, packet: &mut Vec<u8>) -> (VmOutcome, CostTracker) {
        let maps = MapStore::new();
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let ctx = VmCtx::xdp(packet, 1, 0);
        let out = vm::run(prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker);
        (out, tracker)
    }

    #[test]
    fn lowering_resolves_jump_targets() {
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.jmp_imm(JmpCond::Eq, 0, 2, "out");
        a.mov_imm(0, Action::Drop.code() as i64);
        a.label("out");
        a.exit();
        let prog = load(a, "jump");
        match prog.compiled().ops()[1] {
            COp::JmpImm { target, .. } => assert_eq!(target, 3),
            ref op => panic!("expected JmpImm, got {op:?}"),
        }
        assert_eq!(prog.compiled().ops().len(), prog.len());
    }

    #[test]
    fn compiled_matches_interpreter_and_charges_the_same() {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 14);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.load(MemSize::B, 5, 2, 12);
        a.alu_imm(AluOp::Add, 5, 1);
        a.store(MemSize::B, 2, 12, 5);
        a.label("out");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let prog = load(a, "incr");

        let mut pkt_i = vec![0u8; 64];
        pkt_i[12] = 0x41;
        let mut pkt_c = pkt_i.clone();
        let (out_i, t_i) = run_interp(&prog, &mut pkt_i);
        let (out_c, t_c) = run_compiled(&prog, &mut pkt_c);
        assert_eq!(out_i, out_c);
        assert_eq!(pkt_i, pkt_c);
        assert_eq!(t_i, t_c);
        assert_eq!(t_c.stage_count("jit_insn"), out_c.insns_executed);
    }

    #[test]
    fn compiled_div_mod_by_zero_follow_linux_semantics() {
        let mut a = Asm::new();
        a.mov_imm(0, 7);
        a.mov_imm(2, 0);
        a.alu_reg(AluOp::Div, 0, 2); // r0 = 0
        a.alu_imm(AluOp::Add, 0, 5); // r0 = 5
        a.alu_reg(AluOp::Mod, 0, 2); // r0 stays 5
        a.alu_imm(AluOp::Sub, 0, 3); // r0 = 2 = PASS
        a.exit();
        let prog = load(a, "divmod0");
        let mut pkt = vec![0u8; 64];
        let (out, _) = run_compiled(&prog, &mut pkt);
        assert_eq!(out.action, Action::Pass);
        assert!(out.error.is_none());
        assert_eq!(out.div_zeros, 2);
    }

    #[test]
    fn compiled_tail_calls_resolve_callee_compiled_form() {
        let maps = MapStore::new();
        let pa = maps.create_prog_array(4);
        let mut t = Asm::new();
        t.mov_imm(0, Action::Drop.code() as i64);
        t.exit();
        maps.prog_array_set(pa, 2, Some(load(t, "target"))).unwrap();
        let mut c = Asm::new();
        c.mov_imm(0, Action::Pass.code() as i64);
        c.tail_call(pa.0, 2);
        c.exit();
        let caller = load(c, "caller");
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let mut pkt = vec![0u8; 64];
        let ctx = VmCtx::xdp(&mut pkt, 1, 0);
        let out = run(&caller, ctx, &mut NullEnv, &maps, &cost, &mut tracker);
        assert_eq!(out.action, Action::Drop);
        assert_eq!(out.tail_calls, 1);
        assert_eq!(tracker.stage_count("tail_call"), 1);
        assert_eq!(tracker.stage_count("jit_insn"), out.insns_executed);
    }

    /// One input through both engines: outcomes and whole trackers agree,
    /// and `jit_insn` was charged once per executed instruction whichever
    /// way the run ended.
    #[test]
    fn both_engines_charge_exactly_the_instructions_executed_on_every_exit() {
        let maps = MapStore::new();
        let pa = maps.create_prog_array(1);
        let mut callee = Asm::new();
        callee.mov_imm(0, Action::Drop.code() as i64);
        callee.alu_imm(AluOp::Add, 0, 0);
        callee.exit();
        maps.prog_array_set(pa, 0, Some(load(callee, "callee")))
            .unwrap();

        let mut clean = Asm::new();
        clean.mov_imm(0, Action::Pass.code() as i64);
        clean.exit();
        let mut chain = Asm::new();
        chain.mov_imm(0, Action::Pass.code() as i64);
        chain.tail_call(pa.0, 0);
        chain.exit();
        // The verifier rejects both of these; the engines must still
        // account for them.
        let wild_load = Program::new(
            "wild-load",
            vec![
                Insn::AluImm {
                    op: AluOp::Mov,
                    dst: 2,
                    imm: 0,
                },
                Insn::Load {
                    size: MemSize::B,
                    dst: 0,
                    src: 2,
                    off: 0,
                },
                Insn::Exit,
            ],
        );
        let spin = Program::new("spin", vec![Insn::Ja { off: -1 }]);

        let cases = [
            (load(clean, "clean"), None, 2, 0),
            (load(chain, "chain"), None, 5, 1),
            (
                LoadedProgram::load_unverified(wild_load),
                Some(VmError::BadAccess(0)),
                2,
                0,
            ),
            (
                LoadedProgram::load_unverified(spin),
                Some(VmError::BudgetExhausted),
                vm::INSN_BUDGET,
                0,
            ),
        ];
        let cost = CostModel::calibrated();
        for (prog, error, insns, tail_calls) in cases {
            let (mut t_i, mut t_c) = (CostTracker::new(), CostTracker::new());
            let (mut pkt_i, mut pkt_c) = (vec![0u8; 64], vec![0u8; 64]);
            let ctx = VmCtx::xdp(&mut pkt_i, 1, 0);
            let out_i = vm::run(&prog, ctx, &mut NullEnv, &maps, &cost, &mut t_i);
            let ctx = VmCtx::xdp(&mut pkt_c, 1, 0);
            let out_c = run(&prog, ctx, &mut NullEnv, &maps, &cost, &mut t_c);
            assert_eq!(out_i, out_c, "{prog:?}");
            assert_eq!(t_i, t_c, "{prog:?}");
            assert_eq!(out_c.error, error, "{prog:?}");
            assert_eq!(out_c.insns_executed, insns, "{prog:?}");
            assert_eq!(out_c.tail_calls, tail_calls, "{prog:?}");
            assert_eq!(t_c.stage_count("jit_insn"), insns, "{prog:?}");
            assert_eq!(t_c.stage_ns("jit_insn"), insns as f64 * cost.jit_insn_ns);
            assert_eq!(t_c.stage_count("tail_call"), tail_calls);
        }
    }
}
