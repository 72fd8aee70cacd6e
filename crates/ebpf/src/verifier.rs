//! The static verifier: programs must be proven safe before loading.
//!
//! Models the essential guarantees of the in-kernel eBPF verifier for the
//! instruction subset we generate:
//!
//! - **Termination**: only forward jumps are allowed (the classic pre-
//!   bounded-loop eBPF rule), so the CFG is a DAG and every execution
//!   terminates.
//! - **Initialized registers**: reads of never-written registers are
//!   rejected along every path.
//! - **Pointer typing**: registers carry abstract types (scalar, ctx
//!   pointer, packet pointer with constant offset, packet-end pointer,
//!   stack pointer); loads and stores must go through a pointer of the
//!   right kind, and pointer arithmetic is restricted to constant offsets.
//! - **Packet bounds**: packet accesses are only allowed once a
//!   `if (pkt + K > data_end) goto reject` guard has proven K bytes
//!   available on that path — the signature eBPF bounds-check idiom.
//! - **Stack bounds**: accesses through `r10` must stay inside the
//!   512-byte frame.
//! - **Helper contracts**: argument registers must be initialized and
//!   struct-pointer arguments must point at sufficiently large, in-bounds
//!   stack buffers.
//!
//! - **Variable-offset packet pointers**: adding a *bounded* scalar (a
//!   byte/halfword load, or the result of masks and shifts over one) to a
//!   constant packet pointer yields a variable packet pointer. Loads
//!   through it are only allowed after a `if (var_ptr + K > data_end)`
//!   guard has proven K bytes available for *that* pointer — the
//!   mechanism behind L7 payload parsing, where the payload offset
//!   depends on the TCP data offset read from the packet itself.
//!
//! Simplifications relative to the real verifier (documented, deliberate):
//! no pointer spilling to the stack (spilled values read back as
//! scalars), no bounded loops, variable packet pointers track a single
//! definition site rather than full value ranges, and at most
//! [`VAR_SLOTS`] variable packet pointers held in registers carry a
//! bounds proof at once (a proof past that is dropped, which can only
//! reject). The synthesizer only emits code inside this subset.
//!
//! # The walk
//!
//! Because every jump goes forward, one pass in pc order visits each
//! instruction after all of its predecessors ([`crate::walk`]). The
//! state falling through is updated in place; a state is copied only
//! where a conditional jump splits it, and stored only at a jump target
//! the walk has not reached yet, joined with whatever else jumps there.

use crate::insn::{AluOp, HelperId, Insn, JmpCond, MemSize, NUM_REGS, REG_FP, STACK_SIZE};
use crate::walk::Pending;
use std::fmt;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    Empty,
    /// The program exceeds [`crate::insn::MAX_INSNS`].
    TooLong(usize),
    /// A register number above `r10` was used.
    InvalidReg {
        /// Instruction index.
        pc: usize,
    },
    /// A jump goes backwards (loops are not allowed).
    BackwardJump {
        /// Instruction index.
        pc: usize,
    },
    /// A jump target is outside the program.
    JumpOutOfBounds {
        /// Instruction index.
        pc: usize,
    },
    /// Execution can run past the last instruction.
    FallsOffEnd,
    /// A register was read before ever being written.
    UninitRead {
        /// Instruction index.
        pc: usize,
        /// The offending register.
        reg: u8,
    },
    /// The frame pointer `r10` was used as a destination.
    ReadOnlyFp {
        /// Instruction index.
        pc: usize,
    },
    /// A context field access with a bad offset or size.
    BadCtxAccess {
        /// Instruction index.
        pc: usize,
        /// Byte offset attempted.
        off: i64,
    },
    /// A write through the context pointer.
    WriteToCtx {
        /// Instruction index.
        pc: usize,
    },
    /// A packet access beyond what bounds checks have proven.
    PacketOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// Last byte the access needs.
        needed: i64,
        /// Bytes proven available on this path.
        verified: i64,
    },
    /// A stack access outside the 512-byte frame.
    StackOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// Offset relative to `r10`.
        off: i64,
    },
    /// Disallowed pointer arithmetic.
    InvalidPtrArith {
        /// Instruction index.
        pc: usize,
    },
    /// Comparing a pointer with an incompatible operand.
    BadPtrComparison {
        /// Instruction index.
        pc: usize,
    },
    /// A load through a non-pointer register.
    NonPointerDeref {
        /// Instruction index.
        pc: usize,
        /// The register dereferenced.
        reg: u8,
    },
    /// A helper argument violates the helper's contract.
    BadHelperArg {
        /// Instruction index.
        pc: usize,
        /// The argument register.
        reg: u8,
        /// What was wrong.
        what: &'static str,
    },
    /// A constant shift amount outside `0..64` (Linux's `check_alu_op`
    /// rejects these at load time; the runtime `& 63` mask remains as
    /// defense in depth).
    InvalidShift {
        /// Instruction index.
        pc: usize,
        /// The offending immediate.
        imm: i64,
    },
    /// A constant division or modulo by zero (rejected at load time as
    /// in Linux; *runtime* div/mod by zero has Linux-defined results).
    DivByZeroImm {
        /// Instruction index.
        pc: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::TooLong(n) => write!(f, "program too long: {n} instructions"),
            VerifyError::InvalidReg { pc } => write!(f, "pc {pc}: invalid register"),
            VerifyError::BackwardJump { pc } => write!(f, "pc {pc}: backward jump"),
            VerifyError::JumpOutOfBounds { pc } => write!(f, "pc {pc}: jump out of bounds"),
            VerifyError::FallsOffEnd => write!(f, "execution falls off the end"),
            VerifyError::UninitRead { pc, reg } => {
                write!(f, "pc {pc}: read of uninitialized r{reg}")
            }
            VerifyError::ReadOnlyFp { pc } => write!(f, "pc {pc}: write to read-only r10"),
            VerifyError::BadCtxAccess { pc, off } => {
                write!(f, "pc {pc}: bad ctx access at offset {off}")
            }
            VerifyError::WriteToCtx { pc } => write!(f, "pc {pc}: write to ctx"),
            VerifyError::PacketOutOfBounds {
                pc,
                needed,
                verified,
            } => write!(
                f,
                "pc {pc}: packet access needs {needed} bytes, only {verified} verified"
            ),
            VerifyError::StackOutOfBounds { pc, off } => {
                write!(f, "pc {pc}: stack access at r10{off:+} out of frame")
            }
            VerifyError::InvalidPtrArith { pc } => {
                write!(f, "pc {pc}: invalid pointer arithmetic")
            }
            VerifyError::BadPtrComparison { pc } => {
                write!(f, "pc {pc}: invalid pointer comparison")
            }
            VerifyError::NonPointerDeref { pc, reg } => {
                write!(f, "pc {pc}: dereference of non-pointer r{reg}")
            }
            VerifyError::BadHelperArg { pc, reg, what } => {
                write!(f, "pc {pc}: helper argument r{reg}: {what}")
            }
            VerifyError::InvalidShift { pc, imm } => {
                write!(f, "pc {pc}: constant shift by {imm} outside 0..64")
            }
            VerifyError::DivByZeroImm { pc } => {
                write!(f, "pc {pc}: constant division or modulo by zero")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Abstract register type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RType {
    Uninit,
    Scalar,
    /// A scalar with a proven unsigned upper bound (from a byte or
    /// halfword load, or masks/shifts over one). Only bounded scalars
    /// may be added to packet pointers.
    ScalarBounded(u64),
    PtrCtx,
    PtrPacket(i64),
    /// A packet pointer at a variable offset: formed by adding a bounded
    /// scalar to a constant packet pointer. `id` names the forming
    /// instruction; `delta` is the constant adjustment applied since.
    /// Loads require bytes proven for that `id` in `var_verified`.
    PtrPacketVar {
        /// Defining instruction index.
        id: u32,
        /// Constant byte offset relative to the formed pointer.
        delta: i64,
    },
    PtrPacketEnd,
    PtrStack(i64),
}

fn is_scalar(t: RType) -> bool {
    matches!(t, RType::Scalar | RType::ScalarBounded(_))
}

fn join_rtype(a: RType, b: RType) -> RType {
    if a == b {
        return a;
    }
    match (a, b) {
        // Widening: the larger bound covers both paths.
        (RType::ScalarBounded(x), RType::ScalarBounded(y)) => RType::ScalarBounded(x.max(y)),
        (RType::Scalar, RType::ScalarBounded(_)) | (RType::ScalarBounded(_), RType::Scalar) => {
            RType::Scalar
        }
        _ => RType::Uninit,
    }
}

/// Variable packet pointers that can carry a bounds proof at once.
pub const VAR_SLOTS: usize = 4;

/// Bytes proven available per variable packet pointer, keyed by the pc
/// that formed the pointer: an inline table, so the state stays `Copy`.
#[derive(Debug, Clone, Copy)]
struct VarProofs {
    len: usize,
    ids: [u32; VAR_SLOTS],
    bytes: [i64; VAR_SLOTS],
}

impl VarProofs {
    const EMPTY: VarProofs = VarProofs {
        len: 0,
        ids: [0; VAR_SLOTS],
        bytes: [0; VAR_SLOTS],
    };

    fn slot(&self, id: u32) -> Option<usize> {
        self.ids[..self.len].iter().position(|&x| x == id)
    }

    fn get(&self, id: u32) -> Option<i64> {
        self.slot(id).map(|i| self.bytes[i])
    }

    /// Records `delta` proven bytes for `id`, keeping the larger proof. A
    /// new pointer takes a free slot, or the slot of a pointer no
    /// register holds: a DAG never re-forms a pointer, so that proof can
    /// never be read again.
    fn prove(&mut self, id: u32, delta: i64, regs: &[RType; NUM_REGS]) {
        if let Some(i) = self.slot(id) {
            self.bytes[i] = self.bytes[i].max(delta);
            return;
        }
        if self.len == VAR_SLOTS {
            let held = |x: u32| {
                regs.iter()
                    .any(|r| matches!(r, RType::PtrPacketVar { id, .. } if *id == x))
            };
            self.retain(|x, b| held(x).then_some(b));
        }
        if self.len < VAR_SLOTS {
            self.ids[self.len] = id;
            self.bytes[self.len] = delta.max(0);
            self.len += 1;
        }
    }

    /// Only windows proven on *both* paths survive, at the smaller of the
    /// two proofs.
    fn join(&mut self, other: &VarProofs) {
        self.retain(|id, b| other.get(id).map(|w| b.min(w)));
    }

    /// Keeps the entries `keep` maps to `Some(new bytes)`, in order.
    fn retain(&mut self, mut keep: impl FnMut(u32, i64) -> Option<i64>) {
        let mut w = 0;
        for r in 0..self.len {
            if let Some(b) = keep(self.ids[r], self.bytes[r]) {
                self.ids[w] = self.ids[r];
                self.bytes[w] = b;
                w += 1;
            }
        }
        self.len = w;
    }
}

#[derive(Debug, Clone, Copy)]
struct AbsState {
    regs: [RType; NUM_REGS],
    pkt_verified: i64,
    var_verified: VarProofs,
}

impl AbsState {
    fn initial() -> Self {
        let mut regs = [RType::Uninit; NUM_REGS];
        regs[1] = RType::PtrCtx;
        regs[REG_FP as usize] = RType::PtrStack(0);
        AbsState {
            regs,
            pkt_verified: 0,
            var_verified: VarProofs::EMPTY,
        }
    }

    /// Joins `other` into `self`: the least state both paths satisfy.
    fn join(&mut self, other: &AbsState) {
        for (slot, o) in self.regs.iter_mut().zip(other.regs) {
            *slot = join_rtype(*slot, o);
        }
        self.pkt_verified = self.pkt_verified.min(other.pkt_verified);
        self.var_verified.join(&other.var_verified);
    }

    /// A guard proved `delta` bytes past the variable pointer `id`.
    fn prove_var(&mut self, id: u32, delta: i64) {
        self.var_verified.prove(id, delta, &self.regs);
    }
}

/// Context field layout shared by the verifier and the VM: `(offset,
/// size, type)` of each readable field.
pub mod ctx_layout {
    /// `data`: pointer to the first packet byte.
    pub const DATA: i64 = 0x00;
    /// `data_end`: pointer one past the last packet byte.
    pub const DATA_END: i64 = 0x08;
    /// Ingress interface index (u32).
    pub const IFINDEX: i64 = 0x10;
    /// Receive queue (u32).
    pub const RX_QUEUE: i64 = 0x14;
    /// Frame length (u32; populated for TC programs, 0 for XDP).
    pub const LEN: i64 = 0x18;
    /// VLAN TCI (u32; TC only).
    pub const VLAN_TCI: i64 = 0x1c;
    /// EtherType (u32; TC only).
    pub const PROTOCOL: i64 = 0x20;
    /// One past the last valid ctx offset.
    pub const SIZE: i64 = 0x24;
}

fn check_reg(pc: usize, r: u8) -> Result<(), VerifyError> {
    if r as usize >= crate::insn::NUM_REGS {
        Err(VerifyError::InvalidReg { pc })
    } else {
        Ok(())
    }
}

fn read_reg(pc: usize, st: &AbsState, r: u8) -> Result<RType, VerifyError> {
    check_reg(pc, r)?;
    let t = st.regs[r as usize];
    if t == RType::Uninit {
        Err(VerifyError::UninitRead { pc, reg: r })
    } else {
        Ok(t)
    }
}

fn write_reg(pc: usize, st: &mut AbsState, r: u8, t: RType) -> Result<(), VerifyError> {
    check_reg(pc, r)?;
    if r == REG_FP {
        return Err(VerifyError::ReadOnlyFp { pc });
    }
    st.regs[r as usize] = t;
    Ok(())
}

fn check_stack_access(pc: usize, off: i64, size: i64) -> Result<(), VerifyError> {
    if off < -(STACK_SIZE as i64) || off + size > 0 {
        Err(VerifyError::StackOutOfBounds { pc, off })
    } else {
        Ok(())
    }
}

/// Per-helper contract: `(argument count, stack-pointer args with their
/// required buffer sizes, packet-pointer args)`. Packet-pointer args
/// must be proven in bounds (`offset <= verified window`) — the helper
/// clamps its reads to `data_end`, but it must never receive a pointer
/// that could sit past the packet.
pub(crate) fn helper_contract(helper: HelperId) -> (u8, &'static [(u8, i64)], &'static [u8]) {
    match helper {
        HelperId::FibLookup => (3, &[(2, 24)], &[]),
        HelperId::FdbLookup => (3, &[(2, 20)], &[]),
        HelperId::IptLookup => (3, &[(2, 24)], &[]),
        HelperId::CtLookup => (3, &[(2, 24)], &[]),
        HelperId::NatLookup => (3, &[(2, 32)], &[]),
        HelperId::L7PolicyLookup => (4, &[], &[2]),
        HelperId::Redirect => (2, &[], &[]),
        HelperId::KtimeGetNs => (0, &[], &[]),
        HelperId::MapLookup => (5, &[(2, 1), (4, 1)], &[]),
        HelperId::MapUpdate => (5, &[(2, 1), (4, 1)], &[]),
        HelperId::TrivialNf => (1, &[], &[]),
        HelperId::XskRedirect => (2, &[], &[]),
    }
}

/// Instructions [`verify`] accepted. Only this module can build one, so
/// holding one is the proof: [`crate::program::LoadedProgram::from_verified`]
/// loads it without verifying a second time. A clone holds the same
/// instructions, so it is the same proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verified(Vec<Insn>);

impl Verified {
    /// Verifies `insns`, keeping them as the proof.
    ///
    /// # Errors
    ///
    /// Returns the [`VerifyError`] [`verify`] returns.
    pub fn new(insns: Vec<Insn>) -> Result<Self, VerifyError> {
        verify(&insns)?;
        Ok(Verified(insns))
    }

    /// The verified instructions.
    pub fn insns(&self) -> &[Insn] {
        &self.0
    }

    /// Gives the instructions back, dropping the proof.
    pub fn into_insns(self) -> Vec<Insn> {
        self.0
    }
}

/// Verifies a program.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, like the kernel
/// verifier's log-and-reject behavior.
pub fn verify(insns: &[Insn]) -> Result<(), VerifyError> {
    if insns.is_empty() {
        return Err(VerifyError::Empty);
    }
    if insns.len() > crate::insn::MAX_INSNS {
        return Err(VerifyError::TooLong(insns.len()));
    }

    let n = insns.len();
    let mut pending = Pending::default();
    // The state at `pc`, updated in place; `falls` says whether control
    // falls through into `pc` with it.
    let mut st = AbsState::initial();
    let mut falls = true;
    for (pc, &insn) in insns.iter().enumerate() {
        if let Some(jumped) = pending.take(pc) {
            if falls {
                st.join(&jumped);
            } else {
                st = jumped;
                falls = true;
            }
        }
        if !falls {
            continue; // unreachable
        }
        let next = pc + 1;
        let mut file = |target: usize, state: AbsState| {
            if target == n {
                return Err(VerifyError::FallsOffEnd);
            }
            pending.file(target, state, AbsState::join);
            Ok(())
        };
        match transfer(pc, insn, &mut st, n)? {
            Flow::Next => {}
            Flow::Branch(target, taken) if target == next => st.join(&taken),
            Flow::Branch(target, taken) => file(target, taken)?,
            Flow::Jump(target) if target == next => {}
            Flow::Jump(target) => {
                file(target, st)?;
                falls = false;
            }
            Flow::Exit => falls = false,
        }
        if next == n && falls {
            // Falling past the end is only legal... never.
            return Err(VerifyError::FallsOffEnd);
        }
    }
    Ok(())
}

/// Where control goes after one instruction. The state that falls
/// through is the one [`transfer`] updated in place.
// A `Flow` is consumed the moment it is returned; boxing the taken state
// would put an allocation on every conditional jump.
#[allow(clippy::large_enum_variant)]
enum Flow {
    /// Falls through to the next instruction.
    Next,
    /// Falls through, and jumps to the target with the taken state.
    Branch(usize, AbsState),
    /// Jumps to the target with the updated state; no fall-through.
    Jump(usize),
    /// Leaves the program.
    Exit,
}

fn jump_target(pc: usize, off: i32, n: usize) -> Result<usize, VerifyError> {
    if off < 0 {
        return Err(VerifyError::BackwardJump { pc });
    }
    let target = pc + 1 + off as usize;
    if target > n {
        return Err(VerifyError::JumpOutOfBounds { pc });
    }
    Ok(target)
}

fn transfer(pc: usize, insn: Insn, st: &mut AbsState, n: usize) -> Result<Flow, VerifyError> {
    match insn {
        Insn::AluImm { op, dst, imm } => {
            check_reg(pc, dst)?;
            // Linux's check_alu_op rejects these statically: constant
            // shift amounts must fit the 64-bit register width, and a
            // constant division or modulo by zero never loads. The
            // runtime keeps the `& 63` mask and the Linux-defined
            // div/mod-zero results as defense in depth.
            match op {
                AluOp::Lsh | AluOp::Rsh | AluOp::Arsh if !(0..64).contains(&imm) => {
                    return Err(VerifyError::InvalidShift { pc, imm });
                }
                AluOp::Div | AluOp::Mod if imm == 0 => {
                    return Err(VerifyError::DivByZeroImm { pc });
                }
                _ => {}
            }
            let t = match op {
                AluOp::Mov => RType::Scalar,
                AluOp::Add | AluOp::Sub => {
                    let cur = read_reg(pc, st, dst)?;
                    let delta = if op == AluOp::Add { imm } else { -imm };
                    match cur {
                        RType::Scalar => RType::Scalar,
                        RType::ScalarBounded(m) => {
                            if delta >= 0 {
                                m.checked_add(delta as u64)
                                    .map_or(RType::Scalar, RType::ScalarBounded)
                            } else {
                                // Subtraction can wrap below zero; the
                                // unsigned bound no longer holds.
                                RType::Scalar
                            }
                        }
                        RType::PtrPacket(o) => RType::PtrPacket(
                            o.checked_add(delta)
                                .ok_or(VerifyError::InvalidPtrArith { pc })?,
                        ),
                        RType::PtrPacketVar { id, delta: d } => RType::PtrPacketVar {
                            id,
                            delta: d
                                .checked_add(delta)
                                .ok_or(VerifyError::InvalidPtrArith { pc })?,
                        },
                        RType::PtrStack(o) => RType::PtrStack(
                            o.checked_add(delta)
                                .ok_or(VerifyError::InvalidPtrArith { pc })?,
                        ),
                        _ => return Err(VerifyError::InvalidPtrArith { pc }),
                    }
                }
                _ => {
                    let cur = read_reg(pc, st, dst)?;
                    if !is_scalar(cur) {
                        return Err(VerifyError::InvalidPtrArith { pc });
                    }
                    bounded_alu_imm(op, cur, imm)
                }
            };
            write_reg(pc, st, dst, t)?;
            Ok(Flow::Next)
        }
        Insn::AluReg { op, dst, src } => {
            let src_t = read_reg(pc, st, src)?;
            match op {
                AluOp::Mov => {
                    write_reg(pc, st, dst, src_t)?;
                }
                AluOp::Add => {
                    let dst_t = read_reg(pc, st, dst)?;
                    match (dst_t, src_t) {
                        // Forming a variable packet pointer: only a
                        // *bounded* scalar may be added, and the worst
                        // case must stay inside a sane frame size.
                        (RType::PtrPacket(o), RType::ScalarBounded(m)) => {
                            if o < 0 || (o as u64).saturating_add(m) > 0xFFFF {
                                return Err(VerifyError::InvalidPtrArith { pc });
                            }
                            let id = pc as u32; // pc < MAX_INSNS
                            write_reg(pc, st, dst, RType::PtrPacketVar { id, delta: 0 })?;
                        }
                        (a, b) if is_scalar(a) && is_scalar(b) => {
                            let t = match (a, b) {
                                (RType::ScalarBounded(x), RType::ScalarBounded(y)) => {
                                    x.checked_add(y).map_or(RType::Scalar, RType::ScalarBounded)
                                }
                                _ => RType::Scalar,
                            };
                            write_reg(pc, st, dst, t)?;
                        }
                        _ => return Err(VerifyError::InvalidPtrArith { pc }),
                    }
                }
                _ => {
                    let dst_t = read_reg(pc, st, dst)?;
                    if !is_scalar(dst_t) || !is_scalar(src_t) {
                        return Err(VerifyError::InvalidPtrArith { pc });
                    }
                    write_reg(pc, st, dst, RType::Scalar)?;
                }
            }
            Ok(Flow::Next)
        }
        Insn::Ja { off } => Ok(Flow::Jump(jump_target(pc, off, n)?)),
        Insn::JmpImm { dst, off, .. } => {
            read_reg(pc, st, dst)?;
            let target = jump_target(pc, off, n)?;
            Ok(Flow::Branch(target, *st))
        }
        Insn::JmpReg {
            cond,
            dst,
            src,
            off,
        } => {
            let dst_t = read_reg(pc, st, dst)?;
            let src_t = read_reg(pc, st, src)?;
            let target = jump_target(pc, off, n)?;
            let mut taken = *st;
            let fall = st;
            match (dst_t, src_t) {
                (a, b) if is_scalar(a) && is_scalar(b) => {}
                // The canonical packet guard: `if pkt+K > end goto bad`.
                (RType::PtrPacket(o), RType::PtrPacketEnd) => match cond {
                    JmpCond::Gt | JmpCond::Ge => {
                        fall.pkt_verified = fall.pkt_verified.max(o);
                    }
                    JmpCond::Le | JmpCond::Lt => {
                        taken.pkt_verified = taken.pkt_verified.max(o);
                    }
                    _ => return Err(VerifyError::BadPtrComparison { pc }),
                },
                (RType::PtrPacketEnd, RType::PtrPacket(o)) => match cond {
                    JmpCond::Lt | JmpCond::Le => {
                        fall.pkt_verified = fall.pkt_verified.max(o);
                    }
                    JmpCond::Gt | JmpCond::Ge => {
                        taken.pkt_verified = taken.pkt_verified.max(o);
                    }
                    _ => return Err(VerifyError::BadPtrComparison { pc }),
                },
                // The variable-pointer guard: `if var_ptr+K > end goto
                // bad` proves K bytes for that pointer's definition on
                // the surviving branch.
                (RType::PtrPacketVar { id, delta }, RType::PtrPacketEnd) => match cond {
                    JmpCond::Gt | JmpCond::Ge => fall.prove_var(id, delta),
                    JmpCond::Le | JmpCond::Lt => taken.prove_var(id, delta),
                    _ => return Err(VerifyError::BadPtrComparison { pc }),
                },
                (RType::PtrPacketEnd, RType::PtrPacketVar { id, delta }) => match cond {
                    JmpCond::Lt | JmpCond::Le => fall.prove_var(id, delta),
                    JmpCond::Gt | JmpCond::Ge => taken.prove_var(id, delta),
                    _ => return Err(VerifyError::BadPtrComparison { pc }),
                },
                _ => return Err(VerifyError::BadPtrComparison { pc }),
            }
            Ok(Flow::Branch(target, taken))
        }
        Insn::Load {
            size,
            dst,
            src,
            off,
        } => {
            let base = read_reg(pc, st, src)?;
            let bytes = size.bytes() as i64;
            let t = match base {
                RType::PtrCtx => ctx_load_type(pc, off as i64, size)?,
                RType::PtrPacket(o) => {
                    let start = o + off as i64;
                    let end = start + bytes;
                    if start < 0 || end > st.pkt_verified {
                        return Err(VerifyError::PacketOutOfBounds {
                            pc,
                            needed: end,
                            verified: st.pkt_verified,
                        });
                    }
                    load_result_type(size)
                }
                RType::PtrPacketVar { id, delta } => {
                    let start = delta + off as i64;
                    let end = start + bytes;
                    let verified = st.var_verified.get(id).unwrap_or(0);
                    if start < 0 || end > verified {
                        return Err(VerifyError::PacketOutOfBounds {
                            pc,
                            needed: end,
                            verified,
                        });
                    }
                    load_result_type(size)
                }
                RType::PtrStack(o) => {
                    check_stack_access(pc, o + off as i64, bytes)?;
                    load_result_type(size)
                }
                RType::Scalar | RType::ScalarBounded(_) | RType::Uninit | RType::PtrPacketEnd => {
                    return Err(VerifyError::NonPointerDeref { pc, reg: src })
                }
            };
            write_reg(pc, st, dst, t)?;
            Ok(Flow::Next)
        }
        Insn::Store {
            size,
            dst,
            off,
            src,
        } => {
            read_reg(pc, st, src)?;
            store_check(pc, st, dst, off, size)?;
            Ok(Flow::Next)
        }
        Insn::StoreImm { size, dst, off, .. } => {
            store_check(pc, st, dst, off, size)?;
            Ok(Flow::Next)
        }
        Insn::Call { helper } => {
            let (argc, stack_args, pkt_args) = helper_contract(helper);
            for r in 1..=argc {
                read_reg(pc, st, r)?;
            }
            for (reg, need) in stack_args {
                match st.regs[*reg as usize] {
                    RType::PtrStack(o) => {
                        if o < -(STACK_SIZE as i64) || o + need > 0 {
                            return Err(VerifyError::BadHelperArg {
                                pc,
                                reg: *reg,
                                what: "stack buffer out of frame or too small",
                            });
                        }
                    }
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            reg: *reg,
                            what: "expected a stack pointer",
                        })
                    }
                }
            }
            for reg in pkt_args {
                match st.regs[*reg as usize] {
                    RType::PtrPacket(o) => {
                        if o < 0 || o > st.pkt_verified {
                            return Err(VerifyError::BadHelperArg {
                                pc,
                                reg: *reg,
                                what: "packet pointer not proven in bounds",
                            });
                        }
                    }
                    RType::PtrPacketVar { id, delta } => {
                        let ok = delta >= 0 && st.var_verified.get(id).is_some_and(|v| delta <= v);
                        if !ok {
                            return Err(VerifyError::BadHelperArg {
                                pc,
                                reg: *reg,
                                what: "packet pointer not proven in bounds",
                            });
                        }
                    }
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            reg: *reg,
                            what: "expected a packet pointer",
                        })
                    }
                }
            }
            st.regs[0] = RType::Scalar;
            for r in 1..=5 {
                st.regs[r] = RType::Uninit;
            }
            Ok(Flow::Next)
        }
        Insn::TailCall { .. } => {
            // Either transfers control (never returns) or falls through on
            // an empty slot.
            Ok(Flow::Next)
        }
        Insn::Exit => {
            read_reg(pc, st, 0)?;
            Ok(Flow::Exit)
        }
    }
}

/// Result type of a sized load through a data pointer: narrow loads
/// carry their width as a proven bound, enabling variable packet
/// offsets derived from packet contents.
fn load_result_type(size: MemSize) -> RType {
    match size {
        MemSize::B => RType::ScalarBounded(0xFF),
        MemSize::H => RType::ScalarBounded(0xFFFF),
        MemSize::W | MemSize::DW => RType::Scalar,
    }
}

/// Bound propagation for non-Mov/Add/Sub ALU immediates over scalars.
fn bounded_alu_imm(op: AluOp, cur: RType, imm: i64) -> RType {
    let bound = match cur {
        RType::ScalarBounded(m) => Some(m),
        _ => None,
    };
    match op {
        AluOp::And if imm >= 0 => {
            let cap = imm as u64;
            RType::ScalarBounded(bound.map_or(cap, |m| m.min(cap)))
        }
        AluOp::Rsh if (0..64).contains(&imm) => match bound {
            Some(m) => RType::ScalarBounded(m >> imm),
            None => RType::Scalar,
        },
        AluOp::Lsh if (0..64).contains(&imm) => match bound {
            Some(m) if m.leading_zeros() as i64 >= imm => RType::ScalarBounded(m << imm),
            _ => RType::Scalar,
        },
        _ => RType::Scalar,
    }
}

fn ctx_load_type(pc: usize, off: i64, size: MemSize) -> Result<RType, VerifyError> {
    use ctx_layout::*;
    match (off, size) {
        (DATA, MemSize::DW) => Ok(RType::PtrPacket(0)),
        (DATA_END, MemSize::DW) => Ok(RType::PtrPacketEnd),
        (IFINDEX | RX_QUEUE | LEN | VLAN_TCI | PROTOCOL, MemSize::W) => Ok(RType::Scalar),
        _ => Err(VerifyError::BadCtxAccess { pc, off }),
    }
}

fn store_check(
    pc: usize,
    st: &AbsState,
    dst: u8,
    off: i16,
    size: MemSize,
) -> Result<(), VerifyError> {
    let base = read_reg(pc, st, dst)?;
    let bytes = size.bytes() as i64;
    match base {
        RType::PtrStack(o) => check_stack_access(pc, o + off as i64, bytes),
        RType::PtrPacket(o) => {
            let start = o + off as i64;
            let end = start + bytes;
            if start < 0 || end > st.pkt_verified {
                Err(VerifyError::PacketOutOfBounds {
                    pc,
                    needed: end,
                    verified: st.pkt_verified,
                })
            } else {
                Ok(())
            }
        }
        RType::PtrPacketVar { id, delta } => {
            let start = delta + off as i64;
            let end = start + bytes;
            let verified = st.var_verified.get(id).unwrap_or(0);
            if start < 0 || end > verified {
                Err(VerifyError::PacketOutOfBounds {
                    pc,
                    needed: end,
                    verified,
                })
            } else {
                Ok(())
            }
        }
        RType::PtrCtx => Err(VerifyError::WriteToCtx { pc }),
        _ => Err(VerifyError::NonPointerDeref { pc, reg: dst }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Action;
    use std::collections::BTreeMap;

    /// `r0 = PASS; exit` — minimal valid program.
    fn pass_prog() -> Vec<Insn> {
        let mut a = Asm::new();
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        a.finish().unwrap()
    }

    /// The canonical guarded packet read: load data/data_end from ctx,
    /// bounds-check 14 bytes, read the ethertype.
    fn guarded_packet_read() -> Vec<Insn> {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16); // r2 = data
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16); // r3 = end
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 14); // r4 = data + 14
        a.jmp_reg(JmpCond::Gt, 4, 3, "out"); // if r4 > end goto out
        a.load(MemSize::H, 5, 2, 12); // ethertype
        a.label("out");
        a.mov_imm(0, Action::Pass.code() as i64);
        a.exit();
        a.finish().unwrap()
    }

    #[test]
    fn accepts_minimal_and_guarded_programs() {
        verify(&pass_prog()).unwrap();
        verify(&guarded_packet_read()).unwrap();
    }

    #[test]
    fn rejects_empty_and_too_long() {
        assert_eq!(verify(&[]), Err(VerifyError::Empty));
        let long = vec![Insn::Exit; crate::insn::MAX_INSNS + 1];
        assert!(matches!(verify(&long), Err(VerifyError::TooLong(_))));
    }

    #[test]
    fn rejects_constant_shifts_outside_register_width() {
        for op in [AluOp::Lsh, AluOp::Rsh, AluOp::Arsh] {
            for imm in [64i64, 65, 1000, -1] {
                let mut a = Asm::new();
                a.mov_imm(0, 1);
                a.alu_imm(op, 0, imm);
                a.mov_imm(0, Action::Pass.code() as i64);
                a.exit();
                let err = verify(&a.finish().unwrap()).unwrap_err();
                assert_eq!(err, VerifyError::InvalidShift { pc: 1, imm }, "{op:?}");
            }
            // The maximum legal amount still loads.
            let mut a = Asm::new();
            a.mov_imm(0, 1);
            a.alu_imm(op, 0, 63);
            a.mov_imm(0, Action::Pass.code() as i64);
            a.exit();
            verify(&a.finish().unwrap()).unwrap();
        }
    }

    #[test]
    fn rejects_constant_div_mod_by_zero() {
        for op in [AluOp::Div, AluOp::Mod] {
            let mut a = Asm::new();
            a.mov_imm(0, 7);
            a.alu_imm(op, 0, 0);
            a.exit();
            let err = verify(&a.finish().unwrap()).unwrap_err();
            assert_eq!(err, VerifyError::DivByZeroImm { pc: 1 }, "{op:?}");
            // Nonzero constants are fine.
            let mut a = Asm::new();
            a.mov_imm(0, 7);
            a.alu_imm(op, 0, 3);
            a.mov_imm(0, Action::Pass.code() as i64);
            a.exit();
            verify(&a.finish().unwrap()).unwrap();
        }
    }

    #[test]
    fn rejects_unguarded_packet_access() {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::B, 0, 2, 0); // no bounds check!
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(err, VerifyError::PacketOutOfBounds { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_access_beyond_verified_window() {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 14);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.load(MemSize::W, 5, 2, 12); // bytes 12..16: beyond the 14 proven
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::PacketOutOfBounds {
                    needed: 16,
                    verified: 14,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn guard_does_not_leak_to_wrong_branch() {
        // The *taken* branch of `if pkt+14 > end` must NOT get the bytes.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 14);
        a.jmp_reg(JmpCond::Gt, 4, 3, "short");
        a.mov_imm(0, 2);
        a.exit();
        a.label("short");
        a.load(MemSize::B, 5, 2, 0); // on the too-short path!
        a.mov_imm(0, 1);
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(err, VerifyError::PacketOutOfBounds { .. }),
            "{err}"
        );
    }

    #[test]
    fn joins_take_the_minimum_verified_window() {
        // One path proves 14 bytes, the other proves nothing; after the
        // join the access must be rejected.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.load(MemSize::W, 5, 1, ctx_layout::IFINDEX as i16);
        a.jmp_imm(JmpCond::Eq, 5, 7, "skip_guard");
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 14);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.label("skip_guard");
        a.load(MemSize::B, 5, 2, 0); // only guarded on one path
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(err, VerifyError::PacketOutOfBounds { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_backward_jump() {
        let insns = vec![
            Insn::AluImm {
                op: AluOp::Mov,
                dst: 0,
                imm: 2,
            },
            Insn::Ja { off: -2 },
            Insn::Exit,
        ];
        assert_eq!(verify(&insns), Err(VerifyError::BackwardJump { pc: 1 }));
    }

    #[test]
    fn rejects_jump_out_of_bounds() {
        let insns = vec![
            Insn::AluImm {
                op: AluOp::Mov,
                dst: 0,
                imm: 2,
            },
            Insn::Ja { off: 100 },
            Insn::Exit,
        ];
        assert_eq!(verify(&insns), Err(VerifyError::JumpOutOfBounds { pc: 1 }));
    }

    #[test]
    fn rejects_fall_off_end() {
        let insns = vec![Insn::AluImm {
            op: AluOp::Mov,
            dst: 0,
            imm: 2,
        }];
        assert_eq!(verify(&insns), Err(VerifyError::FallsOffEnd));
    }

    #[test]
    fn rejects_uninitialized_reads() {
        // r0 never written before exit.
        assert_eq!(
            verify(&[Insn::Exit]),
            Err(VerifyError::UninitRead { pc: 0, reg: 0 })
        );
        // r5 never written before use.
        let insns = vec![
            Insn::AluReg {
                op: AluOp::Mov,
                dst: 0,
                src: 5,
            },
            Insn::Exit,
        ];
        assert_eq!(
            verify(&insns),
            Err(VerifyError::UninitRead { pc: 0, reg: 5 })
        );
    }

    #[test]
    fn rejects_uninit_after_divergent_paths() {
        // r5 initialized on only one branch; reading it after the join
        // must fail.
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, ctx_layout::IFINDEX as i16);
        a.jmp_imm(JmpCond::Eq, 2, 1, "skip");
        a.mov_imm(5, 7);
        a.label("skip");
        a.mov_reg(0, 5);
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(err, VerifyError::UninitRead { reg: 5, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_write_to_fp() {
        let insns = vec![
            Insn::AluImm {
                op: AluOp::Mov,
                dst: 10,
                imm: 0,
            },
            Insn::Exit,
        ];
        assert_eq!(verify(&insns), Err(VerifyError::ReadOnlyFp { pc: 0 }));
    }

    #[test]
    fn rejects_bad_ctx_access() {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, 0x40); // past ctx end
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadCtxAccess { off: 0x40, .. })
        ));
        // Wrong size for a pointer field.
        let mut a = Asm::new();
        a.load(MemSize::W, 2, 1, ctx_layout::DATA as i16);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadCtxAccess { .. })
        ));
    }

    #[test]
    fn rejects_ctx_write() {
        let mut a = Asm::new();
        a.store_imm(MemSize::W, 1, 0x10, 7);
        a.mov_imm(0, 2);
        a.exit();
        assert_eq!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::WriteToCtx { pc: 0 })
        );
    }

    #[test]
    fn stack_bounds_enforced() {
        // In-bounds spill is fine.
        let mut a = Asm::new();
        a.mov_reg(2, 10);
        a.alu_imm(AluOp::Add, 2, -16);
        a.store_imm(MemSize::DW, 2, 0, 42);
        a.load(MemSize::DW, 0, 2, 0);
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
        // Below the frame.
        let mut a = Asm::new();
        a.store_imm(MemSize::DW, 10, -520, 42);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::StackOutOfBounds { .. })
        ));
        // Above the frame top (positive offsets).
        let mut a = Asm::new();
        a.store_imm(MemSize::DW, 10, 8, 42);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::StackOutOfBounds { .. })
        ));
    }

    #[test]
    fn rejects_pointer_arithmetic_abuse() {
        // Multiplying a pointer.
        let mut a = Asm::new();
        a.alu_imm(AluOp::Mul, 1, 2);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::InvalidPtrArith { .. })
        ));
        // Adding to the ctx pointer.
        let mut a = Asm::new();
        a.alu_imm(AluOp::Add, 1, 8);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::InvalidPtrArith { .. })
        ));
        // Variable-offset packet pointer (reg + reg).
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::W, 3, 1, ctx_layout::IFINDEX as i16);
        a.alu_reg(AluOp::Add, 2, 3);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::InvalidPtrArith { .. })
        ));
    }

    /// doff-style variable-offset read: load a byte from the packet,
    /// shift it into a bounded offset, add it to a packet pointer, guard
    /// the result against `data_end`, then load through it. `second_guard`
    /// controls whether the var-pointer guard is emitted.
    fn var_offset_prog(second_guard: bool) -> Vec<Insn> {
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16); // r2 = data
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16); // r3 = end
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 15);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out"); // prove 15 constant bytes
        a.load(MemSize::B, 5, 2, 14); // bounded <= 255
        a.alu_imm(AluOp::Rsh, 5, 4); // bounded <= 15
        a.alu_imm(AluOp::Lsh, 5, 2); // bounded <= 60
        a.mov_reg(6, 2);
        a.alu_reg(AluOp::Add, 6, 5); // r6 = data + doff (variable)
        if second_guard {
            a.mov_reg(7, 6);
            a.alu_imm(AluOp::Add, 7, 1);
            a.jmp_reg(JmpCond::Gt, 7, 3, "out"); // prove 1 byte at r6
        }
        a.load(MemSize::B, 8, 6, 0);
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        a.finish().unwrap()
    }

    #[test]
    fn accepts_guarded_variable_offset_load() {
        verify(&var_offset_prog(true)).unwrap();
    }

    #[test]
    fn rejects_unguarded_variable_offset_load() {
        // The constant 15-byte guard must NOT cover the variable pointer.
        let err = verify(&var_offset_prog(false)).unwrap_err();
        assert!(
            matches!(err, VerifyError::PacketOutOfBounds { verified: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn variable_guard_covers_only_proven_bytes() {
        // One byte proven at the variable pointer; a halfword load
        // through it must be rejected.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 15);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.load(MemSize::B, 5, 2, 14);
        a.mov_reg(6, 2);
        a.alu_reg(AluOp::Add, 6, 5);
        a.mov_reg(7, 6);
        a.alu_imm(AluOp::Add, 7, 1);
        a.jmp_reg(JmpCond::Gt, 7, 3, "out");
        a.load(MemSize::H, 8, 6, 0); // needs 2 bytes, only 1 proven
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        let err = verify(&a.finish().unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::PacketOutOfBounds {
                    needed: 2,
                    verified: 1,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn l7_helper_requires_proven_packet_pointer() {
        // r2 a plain scalar: rejected.
        let mut a = Asm::new();
        a.mov_imm(2, 0);
        a.mov_imm(3, 64);
        a.mov_imm(4, 0x100);
        a.call(HelperId::L7PolicyLookup);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadHelperArg { reg: 2, .. })
        ));
        // r2 a variable packet pointer without a guard: rejected.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 15);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.load(MemSize::B, 5, 2, 14);
        a.alu_reg(AluOp::Add, 2, 5);
        a.mov_imm(3, 64);
        a.mov_imm(4, 0x100);
        a.call(HelperId::L7PolicyLookup);
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadHelperArg { reg: 2, .. })
        ));
        // Guarded variable pointer: accepted.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 15);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        a.load(MemSize::B, 5, 2, 14);
        a.alu_reg(AluOp::Add, 2, 5);
        a.jmp_reg(JmpCond::Gt, 2, 3, "out"); // prove the pointer itself
        a.mov_imm(3, 64);
        a.mov_imm(4, 0x100);
        a.call(HelperId::L7PolicyLookup);
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
    }

    #[test]
    fn rejects_non_pointer_deref() {
        let mut a = Asm::new();
        a.mov_imm(2, 1000);
        a.load(MemSize::B, 0, 2, 0);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::NonPointerDeref { reg: 2, .. })
        ));
    }

    #[test]
    fn rejects_bad_pointer_comparison() {
        // Comparing packet pointer against a scalar.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.mov_imm(3, 5);
        a.jmp_reg(JmpCond::Gt, 2, 3, "out");
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadPtrComparison { .. })
        ));
    }

    #[test]
    fn helper_contracts_enforced() {
        // FibLookup with r2 not a stack pointer.
        let mut a = Asm::new();
        a.mov_imm(2, 0);
        a.mov_imm(3, 24);
        a.call(HelperId::FibLookup);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadHelperArg { reg: 2, .. })
        ));
        // FibLookup with a too-small stack buffer.
        let mut a = Asm::new();
        a.mov_reg(2, 10);
        a.alu_imm(AluOp::Add, 2, -8); // only 8 bytes available
        a.mov_imm(3, 24);
        a.call(HelperId::FibLookup);
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::BadHelperArg { reg: 2, .. })
        ));
        // Proper call verifies.
        let mut a = Asm::new();
        a.mov_reg(2, 10);
        a.alu_imm(AluOp::Add, 2, -24);
        a.mov_imm(3, 24);
        a.call(HelperId::FibLookup);
        a.mov_reg(0, 0); // r0 is the result
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
    }

    #[test]
    fn helper_clobbers_caller_saved_registers() {
        // Using r3 after a call must fail (clobbered).
        let mut a = Asm::new();
        a.mov_imm(3, 7);
        a.call(HelperId::KtimeGetNs);
        a.mov_reg(0, 3);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::UninitRead { reg: 3, .. })
        ));
        // r6-r9 are callee-saved and survive.
        let mut a = Asm::new();
        a.mov_imm(6, 7);
        a.call(HelperId::KtimeGetNs);
        a.mov_reg(0, 6);
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
    }

    #[test]
    fn uninit_helper_args_rejected() {
        let mut a = Asm::new();
        a.call(HelperId::Redirect); // r1, r2 never set
        a.mov_imm(0, 2);
        a.exit();
        assert!(matches!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::UninitRead { .. })
        ));
    }

    #[test]
    fn tail_call_fall_through_must_be_covered() {
        // A tail call as the last instruction can fall through -> error.
        let mut a = Asm::new();
        a.mov_imm(0, 2);
        a.tail_call(0, 0);
        assert_eq!(verify(&a.finish().unwrap()), Err(VerifyError::FallsOffEnd));
        // With an exit after it, fine.
        let mut a = Asm::new();
        a.mov_imm(0, 2);
        a.tail_call(0, 0);
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
    }

    #[test]
    fn invalid_register_rejected() {
        assert_eq!(
            verify(&[
                Insn::AluImm {
                    op: AluOp::Mov,
                    dst: 11,
                    imm: 0
                },
                Insn::Exit
            ]),
            Err(VerifyError::InvalidReg { pc: 0 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::PacketOutOfBounds {
            pc: 5,
            needed: 16,
            verified: 14,
        };
        let s = e.to_string();
        assert!(s.contains("pc 5") && s.contains("16") && s.contains("14"));
        assert!(VerifyError::Empty.to_string().contains("empty"));
        assert!(VerifyError::FallsOffEnd.to_string().contains("falls off"));
    }

    #[test]
    fn a_proof_slot_is_reused_once_no_register_holds_its_pointer() {
        // Five variable pointers formed, guarded and read one after the
        // other, each overwriting the last: only one is ever held, so
        // the four slots never run out.
        let mut a = Asm::new();
        a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
        a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
        a.mov_reg(4, 2);
        a.alu_imm(AluOp::Add, 4, 15);
        a.jmp_reg(JmpCond::Gt, 4, 3, "out");
        for _ in 0..VAR_SLOTS + 1 {
            a.load(MemSize::B, 5, 2, 14);
            a.mov_reg(6, 2);
            a.alu_reg(AluOp::Add, 6, 5);
            a.mov_reg(7, 6);
            a.alu_imm(AluOp::Add, 7, 1);
            a.jmp_reg(JmpCond::Gt, 7, 3, "out");
            a.load(MemSize::B, 8, 6, 0);
        }
        a.label("out");
        a.mov_imm(0, 2);
        a.exit();
        verify(&a.finish().unwrap()).unwrap();
    }

    /// The per-pc driver the walk replaced: a state slot for every pc,
    /// every successor joined into its slot, on the same [`transfer`].
    fn verify_per_pc(insns: &[Insn]) -> Result<(), VerifyError> {
        if insns.is_empty() {
            return Err(VerifyError::Empty);
        }
        if insns.len() > crate::insn::MAX_INSNS {
            return Err(VerifyError::TooLong(insns.len()));
        }
        let n = insns.len();
        let mut states: Vec<Option<AbsState>> = vec![None; n];
        states[0] = Some(AbsState::initial());
        for pc in 0..n {
            let Some(mut st) = states[pc] else {
                continue;
            };
            let succs = match transfer(pc, insns[pc], &mut st, n)? {
                Flow::Next => vec![(pc + 1, st)],
                Flow::Branch(target, taken) => vec![(pc + 1, st), (target, taken)],
                Flow::Jump(target) => vec![(target, st)],
                Flow::Exit => vec![],
            };
            for (succ, s) in succs {
                if succ == n {
                    return Err(VerifyError::FallsOffEnd);
                }
                match &mut states[succ] {
                    Some(prev) => prev.join(&s),
                    slot => *slot = Some(s),
                }
            }
        }
        Ok(())
    }

    /// Bytes the generated prologue proves.
    const GUARD: i64 = 34;

    /// A program in the shape the optimizer's parity fuzz generates —
    /// bounds-check prologue, random blocks, a shared drop tail — plus
    /// what that shape lacks: variable packet pointers, `off: 0`
    /// guards, unconditional jumps, and branch arms that leave a
    /// register a pointer on one side and a scalar on the other.
    fn rand_program(rng: &mut linuxfp_sim::SimRng) -> Vec<Insn> {
        let s = |rng: &mut linuxfp_sim::SimRng| rng.uniform_u64(6) as u8;
        let mut a = Asm::new();
        a.load(MemSize::DW, 6, 1, 0).load(MemSize::DW, 7, 1, 8);
        a.mov_reg(2, 6).alu_imm(AluOp::Add, 2, GUARD);
        a.jmp_reg(JmpCond::Gt, 2, 7, "drop");
        for r in 0..6 {
            a.mov_imm(r, rng.uniform_u64(300) as i64);
        }
        for k in 0..2 + rng.uniform_u64(6) {
            let next = format!("next{k}");
            match rng.uniform_u64(9) {
                0 => {
                    let op = *rng.choose(&[AluOp::Add, AluOp::Mul, AluOp::Xor, AluOp::And]);
                    a.alu_reg(op, s(rng), s(rng));
                    a.alu_imm(AluOp::Rsh, s(rng), rng.uniform_u64(64) as i64);
                }
                1 => {
                    let size = *rng.choose(&[MemSize::B, MemSize::H, MemSize::W]);
                    let off = rng.uniform_u64(GUARD as u64 - size.bytes() as u64) as i16;
                    if rng.chance(0.5) {
                        a.load(size, s(rng), 6, off);
                    } else {
                        a.store(size, 6, off, s(rng));
                    }
                }
                2 => {
                    let slot = -8 * (1 + rng.uniform_u64(4) as i16);
                    a.store_imm(MemSize::DW, 10, slot, 7);
                    a.load(MemSize::DW, s(rng), 10, slot);
                }
                3 => {
                    // A forward branch over filler, conditional or not.
                    if rng.chance(0.3) {
                        a.ja(&next);
                    } else {
                        a.jmp_imm(JmpCond::Eq, s(rng), 1, &next);
                    }
                    for _ in 0..1 + rng.uniform_u64(3) {
                        a.alu_imm(AluOp::Add, s(rng), 1);
                    }
                }
                4 => {
                    // A pointer on one arm, a scalar on the other.
                    let (r, arm, join) = (s(rng), format!("arm{k}"), format!("join{k}"));
                    a.jmp_imm(JmpCond::Gt, s(rng), 100, &arm);
                    a.mov_reg(r, 6).ja(&join);
                    a.label(&arm).mov_imm(r, 0);
                    a.label(&join);
                    if rng.chance(0.3) {
                        a.load(MemSize::B, s(rng), r, 0);
                    } else {
                        a.mov_imm(r, 5);
                    }
                }
                5 => {
                    // An `off: 0` guard: both edges reach the next
                    // instruction, so the join keeps only the window
                    // proven before it.
                    a.mov_reg(2, 6).alu_imm(AluOp::Add, 2, GUARD + 8);
                    let join = format!("join{k}");
                    a.jmp_reg(JmpCond::Gt, 2, 7, &join).label(&join);
                    let off = GUARD - 2 + rng.uniform_u64(3) as i64;
                    a.load(MemSize::B, s(rng), 6, off as i16);
                }
                6 => {
                    // A variable packet pointer, guarded, read, and
                    // passed to the L7 helper.
                    a.load(MemSize::B, 8, 6, 14).alu_imm(AluOp::And, 8, 0x3c);
                    a.mov_reg(9, 6).alu_reg(AluOp::Add, 9, 8);
                    a.mov_reg(2, 9);
                    a.alu_imm(AluOp::Add, 2, 1 + rng.uniform_u64(2) as i64);
                    a.jmp_reg(JmpCond::Gt, 2, 7, "drop");
                    let size = *rng.choose(&[MemSize::B, MemSize::H]);
                    a.load(size, s(rng), 9, 0);
                    a.mov_reg(2, 9).mov_imm(3, 64).mov_imm(4, 0x100);
                    a.call(HelperId::L7PolicyLookup);
                    for r in 1..6 {
                        a.mov_imm(r, 1);
                    }
                }
                7 => {
                    a.mov_reg(2, 10).alu_imm(AluOp::Add, 2, -24);
                    a.call(HelperId::FibLookup);
                    for r in 1..6 {
                        a.mov_imm(r, 2);
                    }
                }
                _ => {
                    a.jmp_imm(JmpCond::Ne, s(rng), 0xffff, "drop");
                }
            }
            a.label(&next);
        }
        a.mov_imm(0, 2).exit();
        a.label("drop").mov_imm(0, 1).exit();
        a.finish().unwrap()
    }

    /// Breaks a program the way the verifier must catch: offsets
    /// flipped, negative or out of range, the packet guard dropped, a
    /// register never written or out of range, the final exit gone, an
    /// instruction deleted or replaced, an `off: 0` jump inserted.
    fn mutate(rng: &mut linuxfp_sim::SimRng, v: &mut Vec<Insn>) {
        let n = v.len();
        let pc = rng.uniform_u64(n as u64) as usize;
        match rng.uniform_u64(8) {
            0 => {
                let jumps: Vec<usize> = (0..n)
                    .filter(|&i| {
                        matches!(
                            v[i],
                            Insn::Ja { .. } | Insn::JmpImm { .. } | Insn::JmpReg { .. }
                        )
                    })
                    .collect();
                if let Some(&j) = jumps.get(rng.uniform_u64(jumps.len().max(1) as u64) as usize) {
                    if let Insn::Ja { off } | Insn::JmpImm { off, .. } | Insn::JmpReg { off, .. } =
                        &mut v[j]
                    {
                        *off = match rng.uniform_u64(4) {
                            0 => -*off - 1,
                            1 => (n - j - 1) as i32,
                            2 => (n - j) as i32 + rng.uniform_u64(3) as i32,
                            _ => rng.uniform_u64((n - j) as u64) as i32,
                        };
                    }
                }
            }
            1 => {
                v[4] = Insn::AluImm {
                    op: AluOp::Mov,
                    dst: 2,
                    imm: 0,
                };
            }
            2 => {
                let r = 8 + rng.uniform_u64(2) as u8;
                match &mut v[pc] {
                    Insn::AluReg { src, .. } | Insn::Load { src, .. } | Insn::Store { src, .. } => {
                        *src = r
                    }
                    Insn::JmpImm { dst, .. } | Insn::StoreImm { dst, .. } => *dst = r,
                    _ => {
                        v[pc] = Insn::AluReg {
                            op: AluOp::Mov,
                            dst: 0,
                            src: r,
                        }
                    }
                }
            }
            3 => {
                v.pop();
            }
            4 => {
                v.remove(pc);
            }
            5 => {
                if let Insn::AluImm { dst, .. } | Insn::AluReg { dst, .. } = &mut v[pc] {
                    *dst = 11 + rng.uniform_u64(2) as u8;
                }
            }
            6 if rng.chance(0.3) => {
                // Inside the prologue, while r1 is still the context.
                v[rng.uniform_u64(5) as usize] = *rng.choose(&[
                    Insn::StoreImm {
                        size: MemSize::W,
                        dst: 1,
                        off: 0x10,
                        imm: 1,
                    },
                    Insn::Load {
                        size: MemSize::W,
                        dst: 3,
                        src: 1,
                        off: 0x40,
                    },
                    Insn::AluImm {
                        op: AluOp::Add,
                        dst: 1,
                        imm: 8,
                    },
                ]);
            }
            6 => {
                v[pc] = *rng.choose(&[
                    Insn::Exit,
                    Insn::AluImm {
                        op: AluOp::Lsh,
                        dst: 3,
                        imm: 64,
                    },
                    Insn::AluImm {
                        op: AluOp::Div,
                        dst: 3,
                        imm: 0,
                    },
                    Insn::Load {
                        size: MemSize::DW,
                        dst: 3,
                        src: 10,
                        off: 8,
                    },
                    Insn::TailCall {
                        prog_array: 0,
                        index: 0,
                    },
                ]);
            }
            _ => {
                v.insert(
                    pc,
                    if rng.chance(0.5) {
                        Insn::Ja { off: 0 }
                    } else {
                        Insn::JmpReg {
                            cond: JmpCond::Ge,
                            dst: 6,
                            src: 7,
                            off: 0,
                        }
                    },
                );
            }
        }
    }

    #[test]
    fn the_walk_agrees_with_the_per_pc_driver() {
        let mut rng = linuxfp_sim::SimRng::seed(0x0917_7A1C);
        let mut outcomes: BTreeMap<String, u32> = BTreeMap::new();
        for case in 0..24_000 {
            let mut insns = rand_program(&mut rng);
            if case % 3 != 0 {
                for _ in 0..1 + rng.uniform_u64(2) {
                    if !insns.is_empty() {
                        mutate(&mut rng, &mut insns);
                    }
                }
            }
            let walked = verify(&insns);
            assert_eq!(walked, verify_per_pc(&insns), "case {case}: {insns:?}");
            let kind = match &walked {
                Ok(()) => "Ok".to_string(),
                Err(e) => format!("{e:?}")
                    .split([' ', '('])
                    .next()
                    .unwrap()
                    .to_string(),
            };
            *outcomes.entry(kind).or_default() += 1;
        }
        for kind in [
            "Ok",
            "BackwardJump",
            "JumpOutOfBounds",
            "FallsOffEnd",
            "UninitRead",
            "PacketOutOfBounds",
            "InvalidReg",
            "NonPointerDeref",
            "BadCtxAccess",
            "WriteToCtx",
            "StackOutOfBounds",
            "InvalidShift",
            "DivByZeroImm",
            "BadHelperArg",
            "InvalidPtrArith",
            "BadPtrComparison",
        ] {
            assert!(
                outcomes.get(kind).is_some_and(|&c| c >= 20),
                "{kind} barely covered: {outcomes:?}"
            );
        }
        assert!(outcomes["Ok"] >= 5_000, "{outcomes:?}");
    }
}
