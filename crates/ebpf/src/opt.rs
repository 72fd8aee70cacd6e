//! Synthesis-time bytecode optimizer: shrinks synthesized programs
//! between synthesis and verification.
//!
//! The controller's emitters produce naive straight-line code — every
//! pipeline stage re-derives pointers, re-loads header bytes, and keeps
//! values alive past their last use. This module runs a deterministic,
//! bounded multi-pass optimizer over the raw instruction sequence and
//! returns a semantically identical, shorter program:
//!
//! - **Constant folding and propagation** of per-config immediates the
//!   synthesizer bakes in (next-hops, bindings, policy ids), including
//!   branch folding when a predicate is decided at synthesis time.
//! - **Copy and pointer tracking**: `mov`s between registers holding
//!   the same value are dropped, and loads/stores through derived
//!   pointers (`r3 = r10 - 24`) are folded into direct
//!   base-plus-displacement accesses so the derivation can die.
//! - **Redundant packet-load elimination**: a sized load of bytes that
//!   are provably already in a register (same base pointer value, same
//!   displacement, no intervening aliasing store or stack-writing
//!   helper call) becomes a register move, then usually dead code.
//! - **Dead-store elimination** on registers never read before exit
//!   (at `exit` only `r0` is observable; `r1`–`r5` are caller-saved by
//!   the helper ABI and dead by the program contract).
//! - **Jump threading / branch straightening**: jumps to jumps are
//!   retargeted, jumps to `exit` become `exit`, decided branches fall
//!   through, and unreachable blocks are deleted.
//! - Two **idiom rewrites** for patterns the emitters are known to
//!   produce (both re-proved in the pass comments and covered by the
//!   opt-parity fuzz, the difftest corpus, and unit tests here):
//!   checksum-verify loops over 16-bit words are widened to 32-bit
//!   loads, and the decrement-TTL incremental-checksum update collapses
//!   to its RFC 1624 constant delta.
//!
//! # Contract
//!
//! The optimized program is observationally identical to the input on
//! every packet: same verdict (`r0` at exit), same rewritten frame
//! bytes, same helper call sequence with the same arguments and
//! results, same side-effect flags, and the same `div_zeros` count.
//! Scratch registers `r1`–`r9` are program-private (no caller reads
//! them after exit), so their final values may differ — that freedom is
//! exactly what dead-store elimination exploits. Instruction count and
//! therefore cost *do* change; that is the point.
//!
//! # Safety net
//!
//! The optimizer refuses to touch anything it cannot prove: the input
//! must verify, and the output is re-verified and must be strictly
//! shorter, otherwise the original instructions are returned unchanged.
//! Every pass is a pure function of the instruction sequence, so the
//! whole pipeline is deterministic.

use crate::insn::{AluOp, Insn, JmpCond, MemSize, NUM_REGS, REG_FP};
use crate::verifier::{Verified, VerifyError};
use crate::vm;
use crate::walk::Pending;

/// Dead instructions are first replaced by this marker — an
/// unconditional jump to the next instruction, i.e. a semantic no-op —
/// and physically removed (with jump-offset fixup) by [`compact`].
const NOP: Insn = Insn::Ja { off: 0 };

/// Maximum optimizer rounds; each round runs every pass once. The
/// fixpoint is normally reached in two or three rounds — the bound only
/// guarantees termination.
const MAX_ROUNDS: usize = 8;

/// Before/after accounting for one optimized program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Instruction count of the input program.
    pub before: usize,
    /// Instruction count of the returned program.
    pub after: usize,
    /// Rounds the pass pipeline ran before reaching its fixpoint.
    pub rounds: usize,
}

impl OptStats {
    /// Instructions removed.
    pub fn removed(&self) -> usize {
        self.before - self.after
    }
}

/// Optimizes a program, returning the new instruction sequence and
/// before/after stats.
///
/// If the input does not verify, or the optimized form fails to
/// re-verify or is not strictly shorter, the input is returned
/// unchanged (with `before == after`). The function is deterministic:
/// identical inputs produce identical outputs.
pub fn optimize(insns: &[Insn]) -> (Vec<Insn>, OptStats) {
    let (checked, stats) = optimize_verified(insns);
    let out = checked.map_or_else(|_| insns.to_vec(), Verified::into_insns);
    (out, stats)
}

/// [`optimize`], keeping the verifier's proof of what it returns. The
/// input is verified once and the optimized form once; the result is
/// whichever of the two is returned, so loading it with
/// [`crate::program::LoadedProgram::from_verified`] verifies nothing a
/// third time. The error is the input's own verification failure; the
/// stats are those [`optimize`] reports.
pub fn optimize_verified(insns: &[Insn]) -> (Result<Verified, VerifyError>, OptStats) {
    let before = insns.len();
    let unchanged = OptStats {
        before,
        after: before,
        rounds: 0,
    };
    let input = match Verified::new(insns.to_vec()) {
        Ok(input) => input,
        Err(e) => return (Err(e), unchanged),
    };
    let mut cur = insns.to_vec();
    let rounds = run_rounds(&mut cur);
    if cur.len() < before {
        if let Ok(out) = Verified::new(cur) {
            let after = out.insns().len();
            return (
                Ok(out),
                OptStats {
                    before,
                    after,
                    rounds,
                },
            );
        }
    }
    (Ok(input), unchanged)
}

/// Runs the pass pipeline to its fixpoint (or [`MAX_ROUNDS`]) and
/// returns the number of rounds that changed something.
fn run_rounds(cur: &mut Vec<Insn>) -> usize {
    let mut work = Work::default();
    liveness(cur, &mut work.live);
    let mut rounds = 0;
    for _ in 0..MAX_ROUNDS {
        jump_targets(cur, &mut work.targets);
        let mut changed = false;
        changed |= widen_checksum_loops(cur, &work.live, &mut work.targets);
        changed |= collapse_ttl_update(cur, &work.live, &mut work.targets);
        changed |= forward_pass(cur, &work.targets, &mut work.walk);
        changed |= dse(cur, &mut work.live, &mut work.dse_live);
        changed |= thread_jumps(cur);
        changed |= compact(cur, &mut work.live, &mut work.newpos);
        if !changed {
            break;
        }
        rounds += 1;
    }
    rounds
}

/// The analyses the passes of a round share, and the buffers the passes
/// reuse from round to round.
///
/// `live` is swept once before the first round. After that it never
/// needs a sweep of its own: [`dse`] decides from the liveness of its
/// input and, in the same backward sweep, leaves the liveness of its
/// output in `live`; [`thread_jumps`] preserves every live-in set and
/// [`compact`] re-indexes them, so the next round's idiom matchers read
/// exactly what a fresh sweep would give. `targets` is marked once per
/// round, and the idiom rewrites mark the no-ops they write, so
/// [`forward_pass`] sees the program as it finds it.
#[derive(Default)]
struct Work {
    /// Live-in register set per instruction.
    live: Vec<u16>,
    /// The liveness of [`dse`]'s input, which its decisions read.
    dse_live: Vec<u16>,
    /// Whether some jump lands on each pc (plus one slot past the end).
    targets: Vec<bool>,
    /// [`compact`]'s old-to-new index map.
    newpos: Vec<usize>,
    /// [`forward_pass`]'s pending jump states and availability table.
    walk: WalkBufs,
}

// ---------------------------------------------------------------------------
// Shared analyses: successors, uses/defs, liveness, jump targets.
// ---------------------------------------------------------------------------

/// Control-flow successors of `insns[pc]` as `(fallthrough, taken)`.
/// Tail calls fall through on a missing program-array slot and leave
/// the program otherwise, so they only have a fallthrough edge here.
fn successors(insns: &[Insn], pc: usize) -> (Option<usize>, Option<usize>) {
    match insns[pc] {
        Insn::Ja { off } => (None, Some(target(pc, off))),
        Insn::JmpImm { off, .. } | Insn::JmpReg { off, .. } => {
            (Some(pc + 1), Some(target(pc, off)))
        }
        Insn::Exit => (None, None),
        _ => (Some(pc + 1), None),
    }
}

/// Absolute jump target of a relative offset at `pc`.
fn target(pc: usize, off: i32) -> usize {
    (pc as i64 + 1 + i64::from(off)) as usize
}

fn bit(r: u8) -> u16 {
    1 << r
}

/// Registers read / written by one instruction, as bitmasks.
fn uses_defs(insn: Insn) -> (u16, u16) {
    match insn {
        Insn::AluImm {
            op: AluOp::Mov,
            dst,
            ..
        } => (0, bit(dst)),
        Insn::AluImm { dst, .. } => (bit(dst), bit(dst)),
        Insn::AluReg {
            op: AluOp::Mov,
            dst,
            src,
        } => (bit(src), bit(dst)),
        Insn::AluReg { dst, src, .. } => (bit(dst) | bit(src), bit(dst)),
        Insn::Ja { .. } => (0, 0),
        Insn::JmpImm { dst, .. } => (bit(dst), 0),
        Insn::JmpReg { dst, src, .. } => (bit(dst) | bit(src), 0),
        Insn::Load { dst, src, .. } => (bit(src), bit(dst)),
        Insn::Store { dst, src, .. } => (bit(dst) | bit(src), 0),
        Insn::StoreImm { dst, .. } => (bit(dst), 0),
        // Helpers read exactly their declared argument registers (the
        // verifier's per-helper contract, a superset of what the VM
        // actually dereferences) and clobber r0–r5 per the ABI.
        Insn::Call { helper } => {
            let (argc, _, _) = crate::verifier::helper_contract(helper);
            let uses = (1..=u16::from(argc)).fold(0u16, |m, r| m | (1 << r));
            (uses, 0b0011_1111)
        }
        // A tail call is a barrier: the target program observes r0 and
        // the callee-saved registers, so treat every register as read.
        Insn::TailCall { .. } => (0b0111_1111_1111, 0),
        Insn::Exit => (bit(0), 0),
    }
}

/// Live-in register sets (bitmask per instruction), computed into `live`
/// in one reverse sweep — sound because verified programs only jump
/// forward, so every successor of `pc` is greater than `pc`.
fn liveness(insns: &[Insn], live: &mut Vec<u16>) {
    live.clear();
    live.resize(insns.len(), 0);
    for pc in (0..insns.len()).rev() {
        live[pc] = live_in(insns[pc], live_out(insns, live, pc));
    }
}

/// Live-in set of `insn` given its live-out set.
fn live_in(insn: Insn, out: u16) -> u16 {
    let (uses, defs) = uses_defs(insn);
    uses | (out & !defs)
}

/// Union of live-in sets over the successors of `pc`.
fn live_out(insns: &[Insn], live: &[u16], pc: usize) -> u16 {
    let (ft, tk) = successors(insns, pc);
    let mut out = 0u16;
    if let Some(t) = ft {
        if t < live.len() {
            out |= live[t];
        }
    }
    if let Some(t) = tk {
        if t < live.len() {
            out |= live[t];
        }
    }
    out
}

/// Marks into `tgt` every instruction that is the taken-target of some
/// jump (a [`NOP`] marks the instruction after it). Merge points
/// invalidate straight-line assumptions (the CSE table) and idiom
/// matchers refuse patterns that are jumped into.
fn jump_targets(insns: &[Insn], tgt: &mut Vec<bool>) {
    tgt.clear();
    tgt.resize(insns.len() + 1, false);
    for pc in 0..insns.len() {
        if let (_, Some(t)) = successors(insns, pc) {
            if t < tgt.len() {
                tgt[t] = true;
            }
        }
    }
}

/// Turns `insns[range]` into [`NOP`]s for [`compact`], marking in `tgt`
/// the instruction after each one, as [`jump_targets`] would now.
fn nop_out(insns: &mut [Insn], range: std::ops::Range<usize>, tgt: &mut [bool]) {
    for pc in range {
        insns[pc] = NOP;
        tgt[pc + 1] = true;
    }
}

// ---------------------------------------------------------------------------
// Forward dataflow pass: constant/copy/pointer propagation, load CSE,
// branch folding, unreachable-code elimination.
// ---------------------------------------------------------------------------

/// Abstract register value. `Top(id)` is an opaque value with an
/// identity: two registers holding `Top` with the *same* id provably
/// hold the same runtime value (ids flow through `mov`), which is what
/// lets copy elimination and CSE work without knowing the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Unknown value with an equality id.
    Top(u32),
    /// Compile-time constant.
    Const(u64),
    /// The XDP context pointer (`r1` at entry).
    Ctx,
    /// Packet-data pointer plus a byte displacement
    /// (from `*(u64*)(ctx + 0)`).
    PktData(i64),
    /// Packet-end pointer (from `*(u64*)(ctx + 8)`).
    PktEnd,
    /// Frame pointer plus a byte displacement (`r10` is read-only, so
    /// the displacement is exact).
    FpOff(i64),
}

type RegState = [AbsVal; NUM_REGS];

/// One remembered load: `reg` currently holds the `size`-sized value at
/// `base + off`. `base` is an abstract value, not a register, so the
/// entry survives the base register being repointed.
#[derive(Debug, Clone, Copy)]
struct CseEntry {
    base: AbsVal,
    off: i16,
    size: MemSize,
    reg: u8,
}

fn overlaps(a_off: i64, a_len: i64, b_off: i64, b_len: i64) -> bool {
    a_off < b_off + b_len && b_off < a_off + a_len
}

/// Buffers [`forward_pass`] reuses across rounds.
#[derive(Default)]
struct WalkBufs {
    pending: Pending<RegState>,
    cse: Vec<CseEntry>,
}

/// A fresh opaque value, unequal to every value before it.
fn fresh(ctr: &mut u32) -> AbsVal {
    *ctr += 1;
    AbsVal::Top(*ctr)
}

/// The main forward sweep. Verified programs form a DAG (forward jumps
/// only), so one pass in pc order with a join at merge points reaches
/// the same fixpoint iteration would; the walk ([`crate::walk`]) carries
/// the fall-through state in place and keeps states only at pending
/// jump targets. Rewrites are decided from the in-state of each
/// instruction and applied in place; dead and unreachable instructions
/// become [`NOP`]s for [`compact`]. `is_target` is [`jump_targets`] of
/// the program as the pass finds it.
#[allow(clippy::too_many_lines)]
fn forward_pass(insns: &mut [Insn], is_target: &[bool], bufs: &mut WalkBufs) -> bool {
    let n = insns.len();
    let mut ctr: u32 = 0;
    // The state at `pc`, updated in place; `falls` says whether control
    // falls through into `pc` with it.
    let mut st = [AbsVal::Top(0); NUM_REGS];
    for slot in st.iter_mut() {
        *slot = fresh(&mut ctr);
    }
    st[1] = AbsVal::Ctx;
    st[REG_FP as usize] = AbsVal::FpOff(0);
    let mut falls = true;
    let WalkBufs { pending, cse } = bufs;
    pending.clear();
    cse.clear();
    let mut changed = false;

    for pc in 0..n {
        if let Some(jumped) = pending.take(pc) {
            if falls {
                join(&mut st, &jumped, &mut ctr);
            } else {
                st = jumped;
                falls = true;
            }
        }
        if !falls {
            // Unreachable: delete. Nothing jumps here (a jump would
            // have filed a state), so falling through the NOP is never
            // observed.
            if insns[pc] != NOP {
                insns[pc] = NOP;
                changed = true;
            }
            continue;
        }
        if is_target[pc] {
            // Merge point: the straight-line availability table no
            // longer holds on all incoming paths.
            cse.clear();
        }

        let cur = rewrite(insns[pc], &st, cse);
        if cur != insns[pc] {
            insns[pc] = cur;
            changed = true;
        }

        // Transfer: update the abstract state and the CSE table.
        match cur {
            Insn::AluImm { op, dst, imm } => {
                let d = dst as usize;
                st[d] = transfer_alu(op, st[d], AbsVal::Const(imm as u64), &mut ctr);
                drop_reg(cse, dst);
            }
            Insn::AluReg { op, dst, src } => {
                let d = dst as usize;
                st[d] = if op == AluOp::Mov {
                    st[src as usize]
                } else {
                    transfer_alu(op, st[d], st[src as usize], &mut ctr)
                };
                drop_reg(cse, dst);
            }
            Insn::Load {
                size,
                dst,
                src,
                off,
            } => {
                let base = st[src as usize];
                st[dst as usize] = match (base, size, off) {
                    (AbsVal::Ctx, MemSize::DW, 0) => AbsVal::PktData(0),
                    (AbsVal::Ctx, MemSize::DW, 8) => AbsVal::PktEnd,
                    _ => fresh(&mut ctr),
                };
                drop_reg(cse, dst);
                if matches!(base, AbsVal::FpOff(_) | AbsVal::PktData(_) | AbsVal::Ctx) {
                    cse.push(CseEntry {
                        base,
                        off,
                        size,
                        reg: dst,
                    });
                }
            }
            Insn::Store { size, dst, off, .. } | Insn::StoreImm { size, dst, off, .. } => {
                invalidate_stores(cse, st[dst as usize], off, size);
            }
            Insn::Call { .. } => {
                // Helpers may write the stack through pointer arguments
                // (and read anything), but never write the packet — a
                // VM invariant the parity suites pin down. r0–r5 are
                // clobbered by the ABI.
                for r in 0..=5u8 {
                    st[r as usize] = fresh(&mut ctr);
                }
                cse.retain(|e| matches!(e.base, AbsVal::PktData(_)) && e.reg > 5);
            }
            Insn::TailCall { .. } => {
                // Barrier: on a missing slot execution continues with
                // unknown effects from our point of view.
                for r in 0..REG_FP {
                    st[r as usize] = fresh(&mut ctr);
                }
                cse.clear();
            }
            Insn::Ja { .. } | Insn::JmpImm { .. } | Insn::JmpReg { .. } | Insn::Exit => {}
        }

        // Propagate to the successors of the *rewritten* instruction,
        // so decided branches stop seeding their dead edge and
        // newly-unreachable code is found in the same sweep.
        let (ft, tk) = successors(insns, pc);
        falls = ft.is_some();
        match tk {
            // Both edges carry `st`, and a state joined with itself is
            // itself.
            Some(t) if t == pc + 1 => falls = true,
            Some(t) if t < n => pending.file(t, st, |into, st| join(into, st, &mut ctr)),
            _ => {}
        }
    }
    changed
}

/// Pointwise join of register states at a merge point: disagreeing
/// registers decay to fresh opaque values.
fn join(into: &mut RegState, st: &RegState, ctr: &mut u32) {
    for (prev, v) in into.iter_mut().zip(st) {
        if prev != v {
            *prev = fresh(ctr);
        }
    }
}

/// Abstract ALU transfer. Mirrors [`vm::alu`] exactly on constants;
/// pointer arithmetic tracks displacements; everything else decays.
fn transfer_alu(op: AluOp, dst: AbsVal, src: AbsVal, ctr: &mut u32) -> AbsVal {
    use AbsVal::{Const, FpOff, PktData};
    match (op, dst, src) {
        (AluOp::Mov, _, v) => v,
        (_, Const(a), Const(b)) => {
            // Division and modulo by a constant zero are rejected by
            // the verifier for the immediate form and deliberately kept
            // in register form by `rewrite`, so the div_zeros counter
            // cannot tick here.
            let mut dz = 0u64;
            let v = vm::alu(op, a, b, &mut dz);
            if dz == 0 {
                Const(v)
            } else {
                fresh(ctr)
            }
        }
        (AluOp::Add, FpOff(o), Const(c)) => FpOff(o.wrapping_add(c as i64)),
        (AluOp::Sub, FpOff(o), Const(c)) => FpOff(o.wrapping_sub(c as i64)),
        (AluOp::Add, Const(c), FpOff(o)) => FpOff(o.wrapping_add(c as i64)),
        (AluOp::Add, PktData(o), Const(c)) => PktData(o.wrapping_add(c as i64)),
        (AluOp::Sub, PktData(o), Const(c)) => PktData(o.wrapping_sub(c as i64)),
        (AluOp::Add, Const(c), PktData(o)) => PktData(o.wrapping_add(c as i64)),
        _ => fresh(ctr),
    }
}

/// Forget availability entries whose value register is redefined.
fn drop_reg(cse: &mut Vec<CseEntry>, reg: u8) {
    cse.retain(|e| e.reg != reg);
}

/// Kill availability entries a store may alias. The three tracked
/// regions (stack, packet, context) are disjoint by construction —
/// tagged pointer bases in the VM — so a store through one region
/// leaves the others available; a store through an untracked pointer
/// kills everything.
fn invalidate_stores(cse: &mut Vec<CseEntry>, base: AbsVal, off: i16, size: MemSize) {
    let len = size.bytes() as i64;
    match base {
        AbsVal::FpOff(b) => cse.retain(|e| match e.base {
            AbsVal::FpOff(eb) => !overlaps(
                b + i64::from(off),
                len,
                eb + i64::from(e.off),
                e.size.bytes() as i64,
            ),
            _ => true,
        }),
        AbsVal::PktData(b) => cse.retain(|e| match e.base {
            AbsVal::PktData(eb) => !overlaps(
                b + i64::from(off),
                len,
                eb + i64::from(e.off),
                e.size.bytes() as i64,
            ),
            _ => true,
        }),
        _ => cse.clear(),
    }
}

/// Decides the rewrite of one instruction from its in-state. Returns
/// the instruction unchanged when nothing is provable.
fn rewrite(insn: Insn, st: &RegState, cse: &[CseEntry]) -> Insn {
    use AbsVal::Const;
    let mut cur = insn;

    // Register-register forms whose source value is known become
    // immediate forms (or disappear).
    if let Insn::AluReg { op, dst, src } = cur {
        let (dv, sv) = (st[dst as usize], st[src as usize]);
        if op == AluOp::Mov && dv == sv {
            return NOP; // dst already holds the value
        }
        cur = if let Const(c) = sv {
            match op {
                // Keep register-form division by a known zero: the
                // immediate form is verifier-rejected, and the runtime
                // result (plus the div_zeros count) must be preserved.
                AluOp::Div | AluOp::Mod if c == 0 => cur,
                // Shift amounts are masked to the register width at
                // runtime; mask here so the immediate stays in the
                // verifier's accepted 0..64 range.
                AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => Insn::AluImm {
                    op,
                    dst,
                    imm: (c & 63) as i64,
                },
                _ => Insn::AluImm {
                    op,
                    dst,
                    imm: c as i64,
                },
            }
        } else if dv == Const(0) && matches!(op, AluOp::Add | AluOp::Or | AluOp::Xor) {
            // 0 + x == 0 | x == 0 ^ x == x.
            Insn::AluReg {
                op: AluOp::Mov,
                dst,
                src,
            }
        } else if dv == sv && matches!(op, AluOp::Sub | AluOp::Xor) {
            // x - x == x ^ x == 0, even when x itself is unknown.
            Insn::AluImm {
                op: AluOp::Mov,
                dst,
                imm: 0,
            }
        } else {
            cur
        };
    }

    // Immediate-form simplification: full fold on a constant register,
    // then algebraic identities.
    if let Insn::AluImm { op, dst, imm } = cur {
        if op != AluOp::Mov {
            if let Const(c) = st[dst as usize] {
                if !(matches!(op, AluOp::Div | AluOp::Mod) && imm == 0) {
                    let mut dz = 0u64;
                    let v = vm::alu(op, c, imm as u64, &mut dz);
                    cur = Insn::AluImm {
                        op: AluOp::Mov,
                        dst,
                        imm: v as i64,
                    };
                }
            }
        }
    }
    if let Insn::AluImm { op, dst, imm } = cur {
        match op {
            AluOp::Mov if st[dst as usize] == Const(imm as u64) => return NOP,
            AluOp::Add
            | AluOp::Sub
            | AluOp::Or
            | AluOp::Xor
            | AluOp::Lsh
            | AluOp::Rsh
            | AluOp::Arsh
                if imm == 0 =>
            {
                return NOP
            }
            AluOp::Mul | AluOp::Div if imm == 1 => return NOP,
            AluOp::And if imm == -1 => return NOP,
            AluOp::Mul | AluOp::And if imm == 0 => {
                cur = Insn::AluImm {
                    op: AluOp::Mov,
                    dst,
                    imm: 0,
                };
            }
            _ => {}
        }
    }

    // Branch folding.
    match cur {
        Insn::JmpImm {
            cond,
            dst,
            imm,
            off,
        } => {
            if off == 0 {
                return NOP; // both edges fall through; predicates are pure
            }
            if let Const(c) = st[dst as usize] {
                return if vm::jump_taken(cond, c, imm as u64) {
                    Insn::Ja { off }
                } else {
                    NOP
                };
            }
        }
        Insn::JmpReg {
            cond,
            dst,
            src,
            off,
        } => {
            if off == 0 {
                return NOP;
            }
            let (dv, sv) = (st[dst as usize], st[src as usize]);
            if let (Const(a), Const(b)) = (dv, sv) {
                return if vm::jump_taken(cond, a, b) {
                    Insn::Ja { off }
                } else {
                    NOP
                };
            }
            if let Const(c) = sv {
                return Insn::JmpImm {
                    cond,
                    dst,
                    imm: c as i64,
                    off,
                };
            }
            if dv == sv {
                // Comparing a value against itself.
                return match cond {
                    JmpCond::Eq | JmpCond::Ge | JmpCond::Le => Insn::Ja { off },
                    JmpCond::Ne | JmpCond::Gt | JmpCond::Lt | JmpCond::Sgt | JmpCond::Slt => NOP,
                    JmpCond::Set => cur, // x & x != 0 depends on x
                };
            }
        }
        _ => {}
    }

    // Loads: CSE first, then pointer-displacement folding.
    if let Insn::Load {
        size,
        dst,
        src,
        off,
    } = cur
    {
        let base = st[src as usize];
        if let Some(e) = cse
            .iter()
            .find(|e| e.base == base && e.off == off && e.size == size)
        {
            return if e.reg == dst {
                NOP
            } else {
                Insn::AluReg {
                    op: AluOp::Mov,
                    dst,
                    src: e.reg,
                }
            };
        }
        if let Some((nsrc, noff)) = fold_base(st, src, off) {
            return Insn::Load {
                size,
                dst,
                src: nsrc,
                off: noff,
            };
        }
    }

    // Stores: a constant source becomes an immediate store (freeing the
    // register), and the base pointer folds like loads.
    if let Insn::Store {
        size,
        dst,
        off,
        src,
    } = cur
    {
        if let Const(c) = st[src as usize] {
            cur = Insn::StoreImm {
                size,
                dst,
                off,
                imm: c as i64,
            };
        }
    }
    match cur {
        Insn::Store {
            size,
            dst,
            off,
            src,
        } => {
            if let Some((ndst, noff)) = fold_base(st, dst, off) {
                return Insn::Store {
                    size,
                    dst: ndst,
                    off: noff,
                    src,
                };
            }
        }
        Insn::StoreImm {
            size,
            dst,
            off,
            imm,
        } => {
            if let Some((ndst, noff)) = fold_base(st, dst, off) {
                return Insn::StoreImm {
                    size,
                    dst: ndst,
                    off: noff,
                    imm,
                };
            }
        }
        _ => {}
    }

    cur
}

/// Folds a derived pointer base into a canonical register plus
/// displacement: stack accesses through copies of `r10` become direct
/// `r10`-relative accesses, and packet accesses through derived
/// pointers re-anchor on the register closest to the start of the
/// packet (usually the root `data` pointer), ties broken by register
/// number. Returns `None` when nothing changes or the displacement
/// would not fit the instruction encoding.
fn fold_base(st: &RegState, base: u8, off: i16) -> Option<(u8, i16)> {
    match st[base as usize] {
        AbsVal::FpOff(c) if base != REG_FP => {
            let noff = c.checked_add(i64::from(off))?;
            let noff = i16::try_from(noff).ok()?;
            Some((REG_FP, noff))
        }
        AbsVal::PktData(c) => {
            let (b, r) = (0..NUM_REGS as u8)
                .filter_map(|r| match st[r as usize] {
                    AbsVal::PktData(b) => Some((b, r)),
                    _ => None,
                })
                .min()?;
            let noff = c.checked_sub(b)?.checked_add(i64::from(off))?;
            let noff = i16::try_from(noff).ok()?;
            if r == base && noff == off {
                return None;
            }
            Some((r, noff))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Dead-store elimination.
// ---------------------------------------------------------------------------

/// Removes side-effect-free instructions whose destination register is
/// dead. ALU ops and loads are pure (loads in a verified program are
/// in-bounds reads); calls, stores and control flow are never touched.
///
/// One backward sweep: every decision reads `decide`, the liveness of
/// the pass's input (so removals do not cascade within a pass), while
/// `live` receives the liveness of the pass's output.
fn dse(insns: &mut [Insn], live: &mut Vec<u16>, decide: &mut Vec<u16>) -> bool {
    let n = insns.len();
    decide.clear();
    decide.resize(n, 0);
    live.clear();
    live.resize(n, 0);
    let mut changed = false;
    for pc in (0..n).rev() {
        let insn = insns[pc];
        let out = live_out(insns, decide, pc);
        decide[pc] = live_in(insn, out);
        let dst = match insn {
            // Division and modulo are only pure when the divisor is
            // provably nonzero: a zero register divisor bumps the
            // observable div_zeros census even when the result is
            // dead. The immediate forms are verifier-guaranteed
            // nonzero divisors, so they stay removable.
            Insn::AluReg {
                op: AluOp::Div | AluOp::Mod,
                ..
            } => None,
            Insn::AluImm { dst, .. } | Insn::AluReg { dst, .. } | Insn::Load { dst, .. } => {
                Some(dst)
            }
            _ => None,
        };
        if dst.is_some_and(|d| out & bit(d) == 0) {
            insns[pc] = NOP;
            changed = true;
        }
        live[pc] = live_in(insns[pc], live_out(insns, live, pc));
    }
    changed
}

// ---------------------------------------------------------------------------
// Jump threading.
// ---------------------------------------------------------------------------

/// Follows chains of unconditional jumps from `t` to the first
/// non-jump instruction. Terminates because verified jumps only go
/// forward; the fuel bound is defense in depth.
fn chase(insns: &[Insn], mut t: usize) -> usize {
    let mut fuel = insns.len();
    while fuel > 0 {
        match insns[t] {
            Insn::Ja { off } => t = target(t, off),
            _ => break,
        }
        fuel -= 1;
    }
    t
}

/// Retargets jumps whose destination is another jump, and turns
/// unconditional jumps to `exit` into `exit` so the hot verdict path
/// straightens out.
fn thread_jumps(insns: &mut [Insn]) -> bool {
    let mut changed = false;
    for pc in 0..insns.len() {
        match insns[pc] {
            Insn::Ja { off } if off != 0 => {
                let t = chase(insns, target(pc, off));
                if insns[t] == Insn::Exit {
                    insns[pc] = Insn::Exit;
                    changed = true;
                } else if t != target(pc, off) {
                    insns[pc] = Insn::Ja {
                        off: (t - pc - 1) as i32,
                    };
                    changed = true;
                }
            }
            Insn::JmpImm {
                cond,
                dst,
                imm,
                off,
            } if off != 0 => {
                let t = chase(insns, target(pc, off));
                if t != target(pc, off) {
                    insns[pc] = Insn::JmpImm {
                        cond,
                        dst,
                        imm,
                        off: (t - pc - 1) as i32,
                    };
                    changed = true;
                }
            }
            Insn::JmpReg {
                cond,
                dst,
                src,
                off,
            } if off != 0 => {
                let t = chase(insns, target(pc, off));
                if t != target(pc, off) {
                    insns[pc] = Insn::JmpReg {
                        cond,
                        dst,
                        src,
                        off: (t - pc - 1) as i32,
                    };
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// NOP compaction with jump-offset fixup.
// ---------------------------------------------------------------------------

/// Physically removes [`NOP`] markers, in place, and re-encodes every
/// jump offset against the compacted layout. A jump whose target was
/// removed lands on the next surviving instruction — exactly where the
/// fallthrough of the removed marker went — so every survivor keeps its
/// live-in set, and `live` is compacted alongside.
fn compact(insns: &mut Vec<Insn>, live: &mut Vec<u16>, newpos: &mut Vec<usize>) -> bool {
    let n = insns.len();
    if !insns.contains(&NOP) {
        return false;
    }
    newpos.clear();
    newpos.push(0);
    for i in 0..n {
        newpos.push(newpos[i] + usize::from(insns[i] != NOP));
    }
    for pc in 0..n {
        if insns[pc] == NOP {
            continue;
        }
        let fix = |off: i32| (newpos[target(pc, off)] as i64 - newpos[pc] as i64 - 1) as i32;
        // Survivors only move down, so the write never passes the read.
        let to = newpos[pc];
        live[to] = live[pc];
        insns[to] = match insns[pc] {
            Insn::Ja { off } => Insn::Ja { off: fix(off) },
            Insn::JmpImm {
                cond,
                dst,
                imm,
                off,
            } => Insn::JmpImm {
                cond,
                dst,
                imm,
                off: fix(off),
            },
            Insn::JmpReg {
                cond,
                dst,
                src,
                off,
            } => Insn::JmpReg {
                cond,
                dst,
                src,
                off: fix(off),
            },
            other => other,
        };
    }
    insns.truncate(newpos[n]);
    live.truncate(newpos[n]);
    true
}

// ---------------------------------------------------------------------------
// Idiom rewrites.
// ---------------------------------------------------------------------------

/// Disassembles one instruction for the opt-dump tooling.
pub fn disasm(insn: &Insn) -> String {
    fn alu_name(op: AluOp) -> &'static str {
        match op {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Lsh => "lsh",
            AluOp::Rsh => "rsh",
            AluOp::Mod => "mod",
            AluOp::Xor => "xor",
            AluOp::Mov => "mov",
            AluOp::Arsh => "arsh",
        }
    }
    fn cond_name(cond: JmpCond) -> &'static str {
        match cond {
            JmpCond::Eq => "jeq",
            JmpCond::Ne => "jne",
            JmpCond::Gt => "jgt",
            JmpCond::Ge => "jge",
            JmpCond::Lt => "jlt",
            JmpCond::Le => "jle",
            JmpCond::Sgt => "jsgt",
            JmpCond::Slt => "jslt",
            JmpCond::Set => "jset",
        }
    }
    fn size_name(size: MemSize) -> &'static str {
        match size {
            MemSize::B => "u8",
            MemSize::H => "u16",
            MemSize::W => "u32",
            MemSize::DW => "u64",
        }
    }
    match *insn {
        Insn::AluImm { op, dst, imm } => format!("{} r{dst}, {imm:#x}", alu_name(op)),
        Insn::AluReg { op, dst, src } => format!("{} r{dst}, r{src}", alu_name(op)),
        Insn::Ja { off } => format!("ja +{off}"),
        Insn::JmpImm {
            cond,
            dst,
            imm,
            off,
        } => format!("{} r{dst}, {imm:#x}, +{off}", cond_name(cond)),
        Insn::JmpReg {
            cond,
            dst,
            src,
            off,
        } => format!("{} r{dst}, r{src}, +{off}", cond_name(cond)),
        Insn::Load {
            size,
            dst,
            src,
            off,
        } => {
            format!("ld{} r{dst}, [r{src}{off:+}]", size_name(size))
        }
        Insn::Store {
            size,
            dst,
            off,
            src,
        } => format!("st{} [r{dst}{off:+}], r{src}", size_name(size)),
        Insn::StoreImm {
            size,
            dst,
            off,
            imm,
        } => format!("st{} [r{dst}{off:+}], {imm:#x}", size_name(size)),
        Insn::Call { helper } => format!("call {helper:?}"),
        Insn::TailCall { prog_array, index } => format!("tail_call map{prog_array}[{index}]"),
        Insn::Exit => "exit".to_string(),
    }
}

/// Renders a whole program, one instruction per line, for the dump
/// example and debugging.
pub fn disasm_program(insns: &[Insn]) -> String {
    insns
        .iter()
        .enumerate()
        .map(|(i, insn)| format!("{i:4}: {}", disasm(insn)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A matched checksum-verify loop: `acc = 0`, then `pairs` consecutive
/// `ldu16 t, [base+off0+2k]; add acc, t` pairs over contiguous even
/// displacements, two fold idioms, and a compare against `0xffff`.
struct CsumLoop {
    acc: u8,
    t: u8,
    f: u8,
    base: u8,
    off0: i16,
    pairs: usize,
    /// Length in instructions including the final branch.
    len: usize,
}

/// Matches the emitter's Internet-checksum verification loop at `i`.
fn match_csum_loop(insns: &[Insn], i: usize) -> Option<CsumLoop> {
    let n = insns.len();
    let acc = match insns.get(i)? {
        Insn::AluImm {
            op: AluOp::Mov,
            dst,
            imm: 0,
        } => *dst,
        _ => return None,
    };
    // Load/accumulate pairs over consecutive 16-bit words.
    let (mut t, mut base, mut off0) = (0u8, 0u8, 0i16);
    let mut pairs = 0usize;
    let mut j = i + 1;
    while j + 1 < n {
        let (ld_dst, ld_src, ld_off) = match insns[j] {
            Insn::Load {
                size: MemSize::H,
                dst,
                src,
                off,
            } => (dst, src, off),
            _ => break,
        };
        let add_ok = matches!(
            insns[j + 1],
            Insn::AluReg { op: AluOp::Add, dst, src } if dst == acc && src == ld_dst
        );
        if !add_ok {
            break;
        }
        if pairs == 0 {
            (t, base, off0) = (ld_dst, ld_src, ld_off);
            if t == acc || t == base || acc == base {
                return None;
            }
        } else if ld_dst != t || ld_src != base || ld_off != off0 + 2 * pairs as i16 {
            break;
        }
        pairs += 1;
        j += 2;
    }
    // Need an even number of 16-bit words to widen to 32-bit loads.
    if pairs < 2 || !pairs.is_multiple_of(2) {
        return None;
    }
    // Two fold idioms: f = acc; f >>= 16; acc &= 0xffff; acc += f.
    let mut f = 0u8;
    for fold in 0..2 {
        if j + 3 >= n {
            return None;
        }
        let fd = match insns[j] {
            Insn::AluReg {
                op: AluOp::Mov,
                dst,
                src,
            } if src == acc && dst != acc && dst != base => dst,
            _ => return None,
        };
        if fold == 0 {
            f = fd;
        } else if fd != f {
            return None;
        }
        let ok = insns[j + 1]
            == Insn::AluImm {
                op: AluOp::Rsh,
                dst: f,
                imm: 16,
            }
            && insns[j + 2]
                == Insn::AluImm {
                    op: AluOp::And,
                    dst: acc,
                    imm: 0xffff,
                }
            && insns[j + 3]
                == (Insn::AluReg {
                    op: AluOp::Add,
                    dst: acc,
                    src: f,
                });
        if !ok {
            return None;
        }
        j += 4;
    }
    // The verdict branch on the folded sum.
    match insns.get(j)? {
        Insn::JmpImm {
            cond: JmpCond::Ne | JmpCond::Eq,
            dst,
            imm: 0xffff,
            ..
        } if *dst == acc => {}
        _ => return None,
    }
    Some(CsumLoop {
        acc,
        t,
        f,
        base,
        off0,
        pairs,
        len: j + 1 - i,
    })
}

/// Widens checksum-verify loops from 16-bit to 32-bit loads.
///
/// Soundness: the loop computes `sum16 = Σ` of `2n` 16-bit words and
/// tests `fold²(sum16) == 0xffff`. The widened form computes `sum32 =
/// Σ` of the same bytes as `n` 32-bit words; since `2^16 ≡ 1 (mod
/// 0xffff)`, `sum32 ≡ sum16 (mod 0xffff)`, and both sums are zero
/// exactly when every summed byte is zero. `fold` preserves residue
/// and zero-ness and `fold²(x) == 0xffff` holds iff `x ≢ 0` is false
/// and `x != 0` — i.e. the `== 0xffff` test agrees between the two
/// forms on every input. The accumulator and scratch registers must be
/// dead after the branch (their final values differ), the loads cover
/// exactly the same bytes (no new access for the verifier to reject),
/// and nothing may jump into the pattern's interior.
///
/// Reads the round's `live` and `is_target`; a rewrite leaves every
/// live-in set outside the pattern as it was (the pattern's live-in is
/// `base` plus the branch's live-out either way).
fn widen_checksum_loops(insns: &mut [Insn], live: &[u16], is_target: &mut [bool]) -> bool {
    let n = insns.len();
    let mut changed = false;
    let mut i = 0;
    while i < n {
        let Some(m) = match_csum_loop(insns, i) else {
            i += 1;
            continue;
        };
        let end = i + m.len; // one past the branch
        if (i + 1..end).any(|k| is_target[k]) {
            i += 1;
            continue;
        }
        // acc, t and f must be dead on both branch outcomes.
        let bpc = end - 1;
        let dead_mask = bit(m.acc) | bit(m.t) | bit(m.f);
        if live_out(insns, live, bpc) & dead_mask != 0 {
            i += 1;
            continue;
        }
        // Rewrite: n/2 32-bit load/accumulate pairs (the first pair
        // initializes the accumulator directly, retiring the zero
        // init), the same two folds, NOP padding, and the branch left
        // untouched in place so its offset stays valid. The body is
        // shorter than the pattern, so it is written over it.
        let mut w = i;
        let mut emit = |insn: Insn| {
            insns[w] = insn;
            w += 1;
        };
        for q in 0..m.pairs / 2 {
            if q == 0 {
                // The first load goes straight into the accumulator,
                // retiring both the zero init and the first add.
                emit(Insn::Load {
                    size: MemSize::W,
                    dst: m.acc,
                    src: m.base,
                    off: m.off0,
                });
                continue;
            }
            emit(Insn::Load {
                size: MemSize::W,
                dst: m.t,
                src: m.base,
                off: m.off0 + 4 * q as i16,
            });
            emit(Insn::AluReg {
                op: AluOp::Add,
                dst: m.acc,
                src: m.t,
            });
        }
        for _ in 0..2 {
            emit(Insn::AluReg {
                op: AluOp::Mov,
                dst: m.f,
                src: m.acc,
            });
            emit(Insn::AluImm {
                op: AluOp::Rsh,
                dst: m.f,
                imm: 16,
            });
            emit(Insn::AluImm {
                op: AluOp::And,
                dst: m.acc,
                imm: 0xffff,
            });
            emit(Insn::AluReg {
                op: AluOp::Add,
                dst: m.acc,
                src: m.f,
            });
        }
        debug_assert!(w < bpc);
        nop_out(insns, w..bpc, is_target);
        changed = true;
        i = end;
    }
    changed
}

/// Collapses the emitter's decrement-TTL incremental-checksum update to
/// its RFC 1624 constant delta.
///
/// The matched idiom rebuilds the 16-bit header word `w_old = ttl<<8 |
/// proto`, decrements the TTL, rebuilds `w_new`, and recomputes the
/// checksum as `~fold²(~hc + ~w_old + w_new)` (16-bit complements via
/// `xor 0xffff` of values ≤ 0xffff). Since `w_new ≡ w_old - 0x100
/// (mod 2^64)` — exactly, including the `ttl == 0` wraparound, because
/// the low 8 bits are untouched — the wrapping sum `~w_old + w_new`
/// is the constant `0xffff - 0x100 = 0xfeff`, independent of the TTL
/// value. The whole update becomes `~fold(~hc + 0xfeff)`: the sum is
/// at most `0x1fefe`, so a single fold already lands in `0..=0xffff`
/// and the second fold of the original is the identity — the stored
/// bytes match bit for bit. Only the TTL scratch register ends with a
/// different value, so it must be dead after the pattern.
///
/// Reads the round's `live` as it stood before [`widen_checksum_loops`]
/// ran: the only set read is the one just past a matched pattern, and a
/// widened loop (loads, ALU ops and no-ops up to its branch) can neither
/// overlap this store-terminated pattern nor change a live-in set outside
/// its own interior.
fn collapse_ttl_update(insns: &mut [Insn], live: &[u16], is_target: &mut [bool]) -> bool {
    let n = insns.len();
    let mut changed = false;
    let mut i = 0;
    while i < n {
        let Some((rt, rp, rw, rx, base, off_t, off_c, off_c1)) = match_ttl_update(insns, i) else {
            i += 1;
            continue;
        };
        let end = i + TTL_PATTERN_LEN;
        if end >= n || (i + 1..end).any(|k| is_target[k]) {
            i += 1;
            continue;
        }
        // rt ends as the new TTL byte instead of w_new; rp, rw, rx end
        // with identical values in both forms.
        if live[end] & bit(rt) != 0 {
            i += 1;
            continue;
        }
        let body = [
            Insn::Load {
                size: MemSize::B,
                dst: rt,
                src: base,
                off: off_t,
            },
            Insn::AluImm {
                op: AluOp::Sub,
                dst: rt,
                imm: 1,
            },
            Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_t,
                src: rt,
            },
            Insn::Load {
                size: MemSize::B,
                dst: rp,
                src: base,
                off: off_c,
            },
            Insn::AluImm {
                op: AluOp::Lsh,
                dst: rp,
                imm: 8,
            },
            Insn::Load {
                size: MemSize::B,
                dst: rx,
                src: base,
                off: off_c1,
            },
            Insn::AluReg {
                op: AluOp::Or,
                dst: rp,
                src: rx,
            },
            Insn::AluImm {
                op: AluOp::Xor,
                dst: rp,
                imm: 0xffff,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: rp,
                imm: 0xfeff,
            },
            Insn::AluReg {
                op: AluOp::Mov,
                dst: rw,
                src: rp,
            },
            Insn::AluImm {
                op: AluOp::Rsh,
                dst: rw,
                imm: 16,
            },
            Insn::AluImm {
                op: AluOp::And,
                dst: rp,
                imm: 0xffff,
            },
            Insn::AluReg {
                op: AluOp::Add,
                dst: rp,
                src: rw,
            },
            Insn::AluImm {
                op: AluOp::Xor,
                dst: rp,
                imm: 0xffff,
            },
            Insn::AluReg {
                op: AluOp::Mov,
                dst: rw,
                src: rp,
            },
            Insn::AluImm {
                op: AluOp::Rsh,
                dst: rw,
                imm: 8,
            },
            Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_c,
                src: rw,
            },
            Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_c1,
                src: rp,
            },
        ];
        insns[i..i + body.len()].copy_from_slice(&body);
        nop_out(insns, i + body.len()..end, is_target);
        changed = true;
        i = end;
    }
    changed
}

/// Length of the matched TTL-update idiom (post emitter fix).
const TTL_PATTERN_LEN: usize = 30;

/// Matches the exact instruction shape `emit_ttl_decrement` produces,
/// with the registers and displacements as wildcards. Returns
/// `(rt, rp, rw, rx, base, off_ttl, off_csum, off_csum+1)`.
#[allow(clippy::type_complexity)]
fn match_ttl_update(insns: &[Insn], i: usize) -> Option<(u8, u8, u8, u8, u8, i16, i16, i16)> {
    if i + TTL_PATTERN_LEN > insns.len() {
        return None;
    }
    let w = &insns[i..i + TTL_PATTERN_LEN];
    // 0: ldu8 rt, [base+off_t]     1: ldu8 rp, [base+_]
    let (rt, base, off_t) = match w[0] {
        Insn::Load {
            size: MemSize::B,
            dst,
            src,
            off,
        } => (dst, src, off),
        _ => return None,
    };
    let rp = match w[1] {
        Insn::Load {
            size: MemSize::B,
            dst,
            src,
            ..
        } if src == base => dst,
        _ => return None,
    };
    // 2..=4: rw = rt; rw <<= 8; rw |= rp   (w_old)
    let rw = match w[2] {
        Insn::AluReg {
            op: AluOp::Mov,
            dst,
            src,
        } if src == rt => dst,
        _ => return None,
    };
    let lsh8 = |dst: u8| Insn::AluImm {
        op: AluOp::Lsh,
        dst,
        imm: 8,
    };
    let or_reg = |dst: u8, src: u8| Insn::AluReg {
        op: AluOp::Or,
        dst,
        src,
    };
    if w[3] != lsh8(rw) || w[4] != or_reg(rw, rp) {
        return None;
    }
    // 5..=8: rt -= 1; stu8 [base+off_t] = rt; rt <<= 8; rt |= rp (w_new)
    let ok =
        w[5] == Insn::AluImm {
            op: AluOp::Sub,
            dst: rt,
            imm: 1,
        } && w[6]
            == (Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_t,
                src: rt,
            })
            && w[7] == lsh8(rt)
            && w[8] == or_reg(rt, rp);
    if !ok {
        return None;
    }
    // 9..=12: rp = [base+off_c]; rp <<= 8; rx = [base+off_c1]; rp |= rx
    let off_c = match w[9] {
        Insn::Load {
            size: MemSize::B,
            dst,
            src,
            off,
        } if dst == rp && src == base => off,
        _ => return None,
    };
    if w[10] != lsh8(rp) {
        return None;
    }
    let (rx, off_c1) = match w[11] {
        Insn::Load {
            size: MemSize::B,
            dst,
            src,
            off,
        } if src == base => (dst, off),
        _ => return None,
    };
    if w[12] != or_reg(rp, rx) {
        return None;
    }
    // 13..=16: rp ^= 0xffff; rw ^= 0xffff; rp += rw; rp += rt
    let xor_ffff = |dst: u8| Insn::AluImm {
        op: AluOp::Xor,
        dst,
        imm: 0xffff,
    };
    let add_reg = |dst: u8, src: u8| Insn::AluReg {
        op: AluOp::Add,
        dst,
        src,
    };
    if w[13] != xor_ffff(rp)
        || w[14] != xor_ffff(rw)
        || w[15] != add_reg(rp, rw)
        || w[16] != add_reg(rp, rt)
    {
        return None;
    }
    // 17..=24: two fold idioms with rw as scratch.
    for fold in 0..2 {
        let k = 17 + 4 * fold;
        let ok =
            w[k] == (Insn::AluReg {
                op: AluOp::Mov,
                dst: rw,
                src: rp,
            }) && w[k + 1]
                == Insn::AluImm {
                    op: AluOp::Rsh,
                    dst: rw,
                    imm: 16,
                }
                && w[k + 2]
                    == Insn::AluImm {
                        op: AluOp::And,
                        dst: rp,
                        imm: 0xffff,
                    }
                && w[k + 3] == add_reg(rp, rw);
        if !ok {
            return None;
        }
    }
    // 25..=29: rp ^= 0xffff; rw = rp; rw >>= 8; store hi; store lo.
    let ok = w[25] == xor_ffff(rp)
        && w[26]
            == (Insn::AluReg {
                op: AluOp::Mov,
                dst: rw,
                src: rp,
            })
        && w[27]
            == Insn::AluImm {
                op: AluOp::Rsh,
                dst: rw,
                imm: 8,
            }
        && w[28]
            == (Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_c,
                src: rw,
            })
        && w[29]
            == (Insn::Store {
                size: MemSize::B,
                dst: base,
                off: off_c1,
                src: rp,
            });
    if !ok {
        return None;
    }
    // Distinct scratch registers, none of them the base pointer, and
    // byte loads guarantee the 16-bit-complement precondition.
    let regs = [rt, rp, rw, rx];
    for (a, ra) in regs.iter().enumerate() {
        if *ra == base || *ra == REG_FP {
            return None;
        }
        for rb in &regs[a + 1..] {
            if ra == rb {
                return None;
            }
        }
    }
    Some((rt, rp, rw, rx, base, off_t, off_c, off_c1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::helpers::NullEnv;
    use crate::insn::Action;
    use crate::maps::MapStore;
    use crate::program::{LoadedProgram, Program};
    use crate::vm::{VmCtx, VmOutcome};
    use linuxfp_sim::{CostModel, CostTracker};

    fn run_insns(insns: &[Insn], packet: &mut Vec<u8>) -> VmOutcome {
        let prog = LoadedProgram::load(Program::new("t", insns.to_vec())).unwrap();
        let maps = MapStore::new();
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let ctx = VmCtx::xdp(packet, 1, 0);
        crate::vm::run(&prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker)
    }

    /// Runs original and optimized on the same frame and asserts the
    /// observable contract: verdict, frame bytes, and div_zeros.
    fn assert_parity(insns: &[Insn], frame: &[u8]) -> (usize, usize) {
        let (opt, stats) = optimize(insns);
        assert_eq!(stats.before, insns.len());
        assert_eq!(stats.after, opt.len());
        let mut f1 = frame.to_vec();
        let mut f2 = frame.to_vec();
        let o1 = run_insns(insns, &mut f1);
        let o2 = run_insns(&opt, &mut f2);
        assert_eq!(o1.action, o2.action, "verdict diverged");
        assert_eq!(o1.regs[0], o2.regs[0], "r0 diverged");
        assert_eq!(o1.div_zeros, o2.div_zeros, "div_zeros diverged");
        assert_eq!(f1, f2, "frame bytes diverged");
        assert!(o1.error.is_none() && o2.error.is_none());
        (insns.len(), opt.len())
    }

    /// Emits the verifier's packet-bounds guard for `len` bytes:
    /// r6 = data, r7 = data_end, punt (Pass) when the frame is short.
    fn guard(a: &mut Asm, len: i64) {
        a.load(MemSize::DW, 6, 1, 0);
        a.load(MemSize::DW, 7, 1, 8);
        a.mov_reg(2, 6);
        a.alu_imm(AluOp::Add, 2, len);
        a.jmp_reg(JmpCond::Gt, 2, 7, "short");
    }

    #[test]
    fn const_fold_decides_branches() {
        let mut a = Asm::new();
        a.mov_imm(1, 5);
        a.alu_imm(AluOp::Add, 1, 3);
        a.alu_imm(AluOp::Mul, 1, 2); // r1 = 16
        a.jmp_imm(JmpCond::Eq, 1, 16, "yes");
        a.mov_imm(0, Action::Drop.code() as i64);
        a.exit();
        a.label("yes");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let insns = a.finish().unwrap();
        let (before, after) = assert_parity(&insns, &[0u8; 64]);
        // The whole computation folds away: mov r0, 2; exit.
        assert_eq!(after, 2, "expected full fold, got {after} of {before}");
    }

    #[test]
    fn copy_elimination_and_pointer_folding() {
        let mut a = Asm::new();
        a.mov_reg(8, 1); // ctx save the emitters produce
        a.mov_reg(3, 10);
        a.alu_imm(AluOp::Add, 3, -16);
        a.store_imm(MemSize::DW, 3, 0, 0x1234);
        a.mov_reg(1, 8); // no-op: r1 still holds ctx
        a.load(MemSize::DW, 0, 3, 0); // -> ld [r10-16]; r3 chain dies
        a.alu_imm(AluOp::And, 0, 0); // -> mov r0, 0 -> folded
        a.alu_imm(AluOp::Add, 0, Action::Pass.code() as i64);
        a.exit();
        let insns = a.finish().unwrap();
        let (_, after) = assert_parity(&insns, &[0u8; 64]);
        // Survivors: store, mov r0 2, exit (the load folds to a
        // constant-killed value chain: and-0 makes r0 independent).
        assert!(after <= 4, "pointer/copy chains not folded: {after} insns");
    }

    #[test]
    fn redundant_load_cse() {
        // The reload of the same stack slot becomes a register copy, so
        // the equality branch is decided, the false arm dies, and with
        // it both loads — CSE pays off through the passes behind it.
        let mut a = Asm::new();
        a.store_imm(MemSize::DW, 10, -8, 21);
        a.load(MemSize::DW, 0, 10, -8);
        a.load(MemSize::DW, 3, 10, -8); // same slot, same bytes
        a.jmp_reg(JmpCond::Eq, 0, 3, "same");
        a.mov_imm(0, Action::Drop.code() as i64);
        a.exit();
        a.label("same");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let insns = a.finish().unwrap();
        let (before, after) = assert_parity(&insns, &[0u8; 64]);
        assert!(
            after <= 3,
            "CSE + branch folding + DSE should leave store/mov/exit, \
             got {after} of {before}"
        );
        let mut f = vec![0u8; 64];
        assert_eq!(run_insns(&optimize(&insns).0, &mut f).action, Action::Pass);
    }

    #[test]
    fn unreachable_code_and_jump_chains_removed() {
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.ja("hop");
        a.mov_imm(0, Action::Drop.code() as i64); // unreachable
        a.exit(); // unreachable
        a.label("hop");
        a.ja("out"); // jump-to-jump
        a.mov_imm(0, Action::Tx.code() as i64); // unreachable
        a.label("out");
        a.exit();
        let insns = a.finish().unwrap();
        let (_, after) = assert_parity(&insns, &[0u8; 64]);
        assert_eq!(after, 2, "expected mov+exit only");
    }

    #[test]
    fn div_and_mod_by_zero_are_preserved() {
        let mut a = Asm::new();
        a.mov_imm(3, 0);
        a.mov_imm(0, 7);
        a.alu_reg(AluOp::Div, 0, 3); // must NOT fold: r0=0, div_zeros+1
        a.alu_imm(AluOp::Add, 0, Action::Drop.code() as i64);
        a.exit();
        let insns = a.finish().unwrap();
        assert_parity(&insns, &[0u8; 64]);
        let mut f = vec![0u8; 64];
        let out = run_insns(&optimize(&insns).0, &mut f);
        assert_eq!(out.div_zeros, 1);
        assert_eq!(out.action, Action::Drop);
    }

    /// Builds the emitters' checksum-verify loop over `[14, 34)` plus a
    /// guard, mirroring `emit_ipv4_csum_verify`.
    fn csum_program() -> Vec<Insn> {
        let mut a = Asm::new();
        guard(&mut a, 34);
        a.mov_imm(5, 0);
        for k in 0..10 {
            a.load(MemSize::H, 2, 6, 14 + 2 * k);
            a.alu_reg(AluOp::Add, 5, 2);
        }
        for _ in 0..2 {
            a.mov_reg(2, 5);
            a.alu_imm(AluOp::Rsh, 2, 16);
            a.alu_imm(AluOp::And, 5, 0xFFFF);
            a.alu_reg(AluOp::Add, 5, 2);
        }
        a.jmp_imm(JmpCond::Ne, 5, 0xFFFF, "short");
        a.mov_imm(0, Action::Tx.code() as i64);
        a.exit();
        a.label("short");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        a.finish().unwrap()
    }

    #[test]
    fn checksum_loop_widens_to_word_loads() {
        let insns = csum_program();
        let (opt, stats) = optimize(&insns);
        assert!(
            stats.removed() >= 11,
            "widening should retire 11 insns: {stats:?}\n{}",
            disasm_program(&opt)
        );
        // Parity on a frame with a *valid* checksum, an invalid one,
        // and the all-zero edge case (sum 0 must stay "bad").
        let mut valid = vec![0u8; 64];
        valid[14] = 0x45;
        valid[22] = 64; // ttl
        valid[23] = 17; // proto
                        // Compute the Internet checksum over [14, 34) and store it.
        let mut sum: u32 = 0;
        for k in (14..34).step_by(2) {
            if k == 24 {
                continue;
            }
            sum += u32::from(u16::from(valid[k])) + (u32::from(u16::from(valid[k + 1])) << 8);
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        let csum = !(sum as u16);
        valid[24] = (csum & 0xFF) as u8;
        valid[25] = (csum >> 8) as u8;
        let mut invalid = valid.clone();
        invalid[25] ^= 0x5A;
        for frame in [&valid[..], &invalid[..], &[0u8; 64][..], &[0u8; 20][..]] {
            assert_parity(&insns, frame);
        }
        // And the verdicts themselves are as expected on the two cases.
        let mut f = valid.clone();
        assert_eq!(run_insns(&opt, &mut f).action, Action::Tx);
        let mut f = invalid.clone();
        assert_eq!(run_insns(&opt, &mut f).action, Action::Pass);
    }

    /// Builds the `emit_ttl_decrement` idiom (post emitter fix) with a
    /// bounds guard, matching `core`'s emitter byte for byte.
    fn ttl_program() -> Vec<Insn> {
        let mut a = Asm::new();
        guard(&mut a, 34);
        a.load(MemSize::B, 2, 6, 22);
        a.load(MemSize::B, 4, 6, 23);
        a.mov_reg(5, 2);
        a.alu_imm(AluOp::Lsh, 5, 8);
        a.alu_reg(AluOp::Or, 5, 4);
        a.alu_imm(AluOp::Sub, 2, 1);
        a.store(MemSize::B, 6, 22, 2);
        a.alu_imm(AluOp::Lsh, 2, 8);
        a.alu_reg(AluOp::Or, 2, 4);
        a.load(MemSize::B, 4, 6, 24);
        a.alu_imm(AluOp::Lsh, 4, 8);
        a.load(MemSize::B, 9, 6, 25);
        a.alu_reg(AluOp::Or, 4, 9);
        a.alu_imm(AluOp::Xor, 4, 0xFFFF);
        a.alu_imm(AluOp::Xor, 5, 0xFFFF);
        a.alu_reg(AluOp::Add, 4, 5);
        a.alu_reg(AluOp::Add, 4, 2);
        for _ in 0..2 {
            a.mov_reg(5, 4);
            a.alu_imm(AluOp::Rsh, 5, 16);
            a.alu_imm(AluOp::And, 4, 0xFFFF);
            a.alu_reg(AluOp::Add, 4, 5);
        }
        a.alu_imm(AluOp::Xor, 4, 0xFFFF);
        a.mov_reg(5, 4);
        a.alu_imm(AluOp::Rsh, 5, 8);
        a.store(MemSize::B, 6, 24, 5);
        a.store(MemSize::B, 6, 25, 4);
        a.mov_imm(0, Action::Tx.code() as i64);
        a.exit();
        a.label("short");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        a.finish().unwrap()
    }

    #[test]
    fn ttl_update_collapses_to_constant_delta() {
        let insns = ttl_program();
        let (opt, stats) = optimize(&insns);
        assert!(
            stats.removed() >= 12,
            "TTL collapse should retire 12 insns: {stats:?}\n{}",
            disasm_program(&opt)
        );
        // Parity across TTL values including the wraparound edge, and
        // across checksum bytes including 0x0000 and 0xFFFF.
        for ttl in [0u8, 1, 2, 64, 255] {
            for hc in [0x0000u16, 0x1234, 0xFEFF, 0xFFFF] {
                let mut frame = vec![0u8; 64];
                frame[22] = ttl;
                frame[23] = 17;
                frame[24] = (hc >> 8) as u8;
                frame[25] = (hc & 0xFF) as u8;
                assert_parity(&insns, &frame);
            }
        }
    }

    #[test]
    fn rejects_unverifiable_input_unchanged() {
        // Read of an uninitialized register: verifier says no.
        let insns = vec![
            Insn::AluReg {
                op: AluOp::Add,
                dst: 0,
                src: 9,
            },
            Insn::Exit,
        ];
        let (out, stats) = optimize(&insns);
        assert_eq!(out, insns);
        assert_eq!(stats.removed(), 0);
    }

    #[test]
    fn optimizer_is_deterministic_and_idempotent() {
        let insns = csum_program();
        let (o1, s1) = optimize(&insns);
        let (o2, s2) = optimize(&insns);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        // Re-optimizing the output finds nothing else (it would not be
        // strictly shorter twice without new information).
        let (o3, s3) = optimize(&o1);
        assert_eq!(s3.removed(), 0, "not idempotent: {o3:?}");
    }

    #[test]
    fn disassembler_covers_all_forms() {
        let mut a = Asm::new();
        a.mov_imm(0, 2);
        a.exit();
        let insns = a.finish().unwrap();
        let text = disasm_program(&insns);
        assert!(text.contains("mov r0, 0x2"));
        assert!(text.contains("exit"));
        assert!(disasm(&Insn::Call {
            helper: crate::insn::HelperId::FibLookup
        })
        .contains("FibLookup"));
        assert!(disasm(&Insn::TailCall {
            prog_array: 3,
            index: 1
        })
        .contains("map3[1]"));
    }

    #[test]
    fn the_proof_handed_back_is_of_the_program_handed_back() {
        let insns = csum_program();
        let (checked, stats) = optimize_verified(&insns);
        let out = checked.unwrap();
        assert_eq!(out.insns(), optimize(&insns).0.as_slice());
        let loaded = LoadedProgram::from_verified("opt", out);
        assert_eq!(loaded.len(), stats.after);
        assert!(stats.after < stats.before);
        // Nothing to remove: the input's own proof comes back.
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        let minimal = a.finish().unwrap();
        let (checked, stats) = optimize_verified(&minimal);
        assert_eq!(checked.unwrap().insns(), minimal.as_slice());
        assert_eq!(stats.removed(), 0);
        // A rejected input: its own verification error.
        let (checked, stats) = optimize_verified(&[Insn::Exit]);
        assert_eq!(checked, Err(VerifyError::UninitRead { pc: 0, reg: 0 }));
        assert_eq!((stats.before, stats.after), (1, 1));
    }

    #[test]
    fn optimized_programs_reverify_and_reload() {
        for insns in [csum_program(), ttl_program()] {
            let (opt, stats) = optimize(&insns);
            assert!(stats.after < stats.before);
            crate::verifier::verify(&opt).expect("optimized program must re-verify");
            LoadedProgram::load(Program::new("opt", opt)).expect("must reload");
        }
    }
}
