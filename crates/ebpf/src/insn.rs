//! The instruction set of the simulated eBPF virtual machine.
//!
//! A deliberately faithful subset of real eBPF: eleven 64-bit registers
//! (`r0`–`r10`), a 512-byte stack addressed through the read-only frame
//! pointer `r10`, ALU and conditional-jump instructions, sized loads and
//! stores, helper calls with the standard `r1`–`r5` argument / `r0` return
//! convention, tail calls, and `exit`. Fast-path modules are synthesized
//! into this instruction set, verified by [`crate::verifier`], and
//! executed by the [`crate::vm`] interpreter.

/// Number of general-purpose registers (`r0`–`r10`).
pub const NUM_REGS: usize = 11;
/// The read-only frame pointer register.
pub const REG_FP: u8 = 10;
/// eBPF stack size in bytes.
pub const STACK_SIZE: usize = 512;
/// Maximum program length accepted by the verifier.
pub const MAX_INSNS: usize = 4096;
/// Maximum tail-call chain depth, as in the Linux kernel.
pub const MAX_TAIL_CALLS: u32 = 33;

/// ALU operations (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Unsigned division (division by zero yields 0, as Linux defines
    /// for `BPF_DIV`).
    Div,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Logical shift left.
    Lsh,
    /// Logical shift right.
    Rsh,
    /// Unsigned modulo (modulo zero leaves `dst` unchanged, as Linux
    /// defines for `BPF_MOD`).
    Mod,
    /// Bitwise xor.
    Xor,
    /// Move.
    Mov,
    /// Arithmetic shift right.
    Arsh,
}

/// Conditional-jump predicates (64-bit comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JmpCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Signed greater-than.
    Sgt,
    /// Signed less-than.
    Slt,
    /// Bit test (`dst & src != 0`).
    Set,
}

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSize {
    /// 1 byte.
    B,
    /// 2 bytes (big-endian on the wire; loads/stores are host-order —
    /// synthesized code uses explicit byte swaps where needed).
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    DW,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemSize::B => 1,
            MemSize::H => 2,
            MemSize::W => 4,
            MemSize::DW => 8,
        }
    }
}

/// Helper function identifiers callable from programs.
///
/// `FibLookup`, `FdbLookup` and `IptLookup` mirror the paper's kernel
/// helpers (`bpf_fib_lookup` exists upstream; `bpf_fdb_lookup` and
/// `bpf_ipt_lookup` are the ~260 LoC the authors added). The remaining
/// helpers support the baselines and microbenchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperId {
    /// `bpf_fib_lookup`: route + neighbor resolution via kernel state.
    FibLookup,
    /// `bpf_fdb_lookup`: bridge FDB lookup via kernel state (new helper).
    FdbLookup,
    /// `bpf_ipt_lookup`: iptables FORWARD evaluation via kernel state
    /// (new helper).
    IptLookup,
    /// `bpf_redirect`: set the egress interface; the program then returns
    /// `XDP_REDIRECT`.
    Redirect,
    /// `bpf_ktime_get_ns`.
    KtimeGetNs,
    /// `bpf_map_lookup_elem` (copy-out convention; see `crate::maps`).
    MapLookup,
    /// `bpf_map_update_elem`.
    MapUpdate,
    /// Conntrack lookup (ipvs load-balancer extension).
    CtLookup,
    /// `bpf_nat_lookup`: iptables-nat binding lookup via kernel
    /// conntrack state (new helper; NAT44 fast-path extension). Returns
    /// the translated tuple for established flows so the program can
    /// rewrite addresses/ports with incremental checksum updates.
    NatLookup,
    /// `bpf_l7_policy_lookup`: HTTP/1.x request-policy evaluation via
    /// the live kernel policy table (new helper; L7 offload extension).
    /// Takes a bounds-verified packet pointer to the TCP payload plus a
    /// parse-limit, parses the request line in the kernel, and returns
    /// the policy verdict (allow / deny / punt / allow-unpinned).
    L7PolicyLookup,
    /// A deliberately trivial helper used by the function-call-vs-tail-
    /// call microbenchmark (paper Fig. 10).
    TrivialNf,
    /// `bpf_redirect_map` into an XSK map: copy the frame to the bound
    /// AF_XDP user-space socket. Returning [`Action::Redirect`]
    /// afterwards consumes the packet into user space; continuing and
    /// returning another verdict mirrors it instead.
    XskRedirect,
}

/// One VM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst = dst <op> imm` (or `dst = imm` for `Mov`).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst = dst <op> src` (or `dst = src` for `Mov`).
    AluReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Unconditional jump by `off` instructions (relative to the next).
    Ja {
        /// Relative offset.
        off: i32,
    },
    /// Conditional jump comparing `dst` to an immediate.
    JmpImm {
        /// Predicate.
        cond: JmpCond,
        /// Left-hand register.
        dst: u8,
        /// Right-hand immediate.
        imm: i64,
        /// Relative offset when taken.
        off: i32,
    },
    /// Conditional jump comparing `dst` to `src`.
    JmpReg {
        /// Predicate.
        cond: JmpCond,
        /// Left-hand register.
        dst: u8,
        /// Right-hand register.
        src: u8,
        /// Relative offset when taken.
        off: i32,
    },
    /// `dst = *(size*)(src + off)`.
    Load {
        /// Access width.
        size: MemSize,
        /// Destination register.
        dst: u8,
        /// Base pointer register.
        src: u8,
        /// Byte offset.
        off: i16,
    },
    /// `*(size*)(dst + off) = src`.
    Store {
        /// Access width.
        size: MemSize,
        /// Base pointer register.
        dst: u8,
        /// Byte offset.
        off: i16,
        /// Value register.
        src: u8,
    },
    /// `*(size*)(dst + off) = imm`.
    StoreImm {
        /// Access width.
        size: MemSize,
        /// Base pointer register.
        dst: u8,
        /// Byte offset.
        off: i16,
        /// Immediate value.
        imm: i64,
    },
    /// Call a helper function (args `r1`–`r5`, result `r0`,
    /// `r1`–`r5` clobbered).
    Call {
        /// Which helper.
        helper: HelperId,
    },
    /// `bpf_tail_call(ctx, prog_array, index)`: jump to another program.
    /// On a missing slot execution falls through to the next instruction,
    /// exactly like the real mechanism.
    TailCall {
        /// Program-array map id.
        prog_array: u32,
        /// Slot index.
        index: u32,
    },
    /// Return from the program with the verdict in `r0`.
    Exit,
}

/// XDP/TC verdict codes returned in `r0` (matching `enum xdp_action`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Internal error (`XDP_ABORTED`).
    Aborted,
    /// Drop the packet.
    Drop,
    /// Continue into the kernel stack.
    Pass,
    /// Bounce out the receiving interface.
    Tx,
    /// Forward out the interface chosen by `bpf_redirect`.
    Redirect,
}

impl Action {
    /// Wire value as stored in `r0`.
    pub fn code(self) -> u64 {
        match self {
            Action::Aborted => 0,
            Action::Drop => 1,
            Action::Pass => 2,
            Action::Tx => 3,
            Action::Redirect => 4,
        }
    }

    /// Decodes an `r0` value; unknown codes read as `Aborted`, matching
    /// the kernel's defensive treatment of bogus verdicts.
    pub fn from_code(code: u64) -> Action {
        match code {
            1 => Action::Drop,
            2 => Action::Pass,
            3 => Action::Tx,
            4 => Action::Redirect,
            _ => Action::Aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sizes() {
        assert_eq!(MemSize::B.bytes(), 1);
        assert_eq!(MemSize::H.bytes(), 2);
        assert_eq!(MemSize::W.bytes(), 4);
        assert_eq!(MemSize::DW.bytes(), 8);
    }

    #[test]
    fn action_codes_round_trip() {
        for a in [
            Action::Aborted,
            Action::Drop,
            Action::Pass,
            Action::Tx,
            Action::Redirect,
        ] {
            assert_eq!(Action::from_code(a.code()), a);
        }
        assert_eq!(Action::from_code(99), Action::Aborted);
    }

    #[test]
    fn insns_are_small_and_copyable() {
        // Keep the interpreter cache-friendly.
        assert!(std::mem::size_of::<Insn>() <= 24);
        let i = Insn::Exit;
        let j = i;
        assert_eq!(i, j);
    }
}
