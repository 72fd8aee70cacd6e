//! Property tests for the eBPF runtime.
//!
//! The key safety property mirrors the real verifier's contract: *any*
//! program the verifier accepts must execute without memory faults on
//! *any* packet. We generate random instruction soup with the workspace's
//! seeded [`SimRng`] (the build is fully offline, so no external
//! property-testing framework), filter it through the verifier, and
//! execute the survivors against random packets.

use linuxfp_ebpf::helpers::NullEnv;
use linuxfp_ebpf::insn::{AluOp, HelperId, Insn, JmpCond, MemSize};
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::program::{LoadedProgram, Program};
use linuxfp_ebpf::verifier::verify;
use linuxfp_ebpf::vm::{self, VmCtx};
use linuxfp_sim::{CostModel, CostTracker, SimRng};

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Or,
    AluOp::And,
    AluOp::Lsh,
    AluOp::Rsh,
    AluOp::Mod,
    AluOp::Xor,
    AluOp::Mov,
    AluOp::Arsh,
];

const CONDS: [JmpCond; 9] = [
    JmpCond::Eq,
    JmpCond::Ne,
    JmpCond::Gt,
    JmpCond::Ge,
    JmpCond::Lt,
    JmpCond::Le,
    JmpCond::Sgt,
    JmpCond::Slt,
    JmpCond::Set,
];

const SIZES: [MemSize; 4] = [MemSize::B, MemSize::H, MemSize::W, MemSize::DW];

const HELPERS: [HelperId; 10] = [
    HelperId::FibLookup,
    HelperId::FdbLookup,
    HelperId::IptLookup,
    HelperId::Redirect,
    HelperId::KtimeGetNs,
    HelperId::MapLookup,
    HelperId::MapUpdate,
    HelperId::CtLookup,
    HelperId::NatLookup,
    HelperId::TrivialNf,
];

fn rand_reg(rng: &mut SimRng) -> u8 {
    rng.uniform_u64(12) as u8
}

fn rand_jmp_off(rng: &mut SimRng) -> i32 {
    rng.uniform_u64(24) as i32 - 8
}

fn rand_mem_off(rng: &mut SimRng) -> i16 {
    rng.uniform_u64(128) as i16 - 64
}

fn rand_imm32(rng: &mut SimRng) -> i64 {
    rng.uniform_u64(1 << 32) as u32 as i32 as i64
}

/// Arbitrary (mostly invalid) instructions — a fuzzer for the verifier.
fn rand_insn(rng: &mut SimRng) -> Insn {
    match rng.uniform_u64(11) {
        0 => Insn::AluImm {
            op: *rng.choose(&ALU_OPS),
            dst: rand_reg(rng),
            imm: rand_imm32(rng),
        },
        1 => Insn::AluReg {
            op: *rng.choose(&ALU_OPS),
            dst: rand_reg(rng),
            src: rand_reg(rng),
        },
        2 => Insn::Ja {
            off: rand_jmp_off(rng),
        },
        3 => Insn::JmpImm {
            cond: *rng.choose(&CONDS),
            dst: rand_reg(rng),
            imm: rng.uniform_u64(1 << 16) as u16 as i16 as i64,
            off: rand_jmp_off(rng),
        },
        4 => Insn::JmpReg {
            cond: *rng.choose(&CONDS),
            dst: rand_reg(rng),
            src: rand_reg(rng),
            off: rand_jmp_off(rng),
        },
        5 => Insn::Load {
            size: *rng.choose(&SIZES),
            dst: rand_reg(rng),
            src: rand_reg(rng),
            off: rand_mem_off(rng),
        },
        6 => Insn::Store {
            size: *rng.choose(&SIZES),
            dst: rand_reg(rng),
            off: rand_mem_off(rng),
            src: rand_reg(rng),
        },
        7 => Insn::StoreImm {
            size: *rng.choose(&SIZES),
            dst: rand_reg(rng),
            off: rand_mem_off(rng),
            imm: rand_imm32(rng),
        },
        8 => Insn::Call {
            helper: *rng.choose(&HELPERS),
        },
        9 => Insn::TailCall {
            prog_array: rng.uniform_u64(4) as u32,
            index: rng.uniform_u64(4) as u32,
        },
        _ => Insn::Exit,
    }
}

fn rand_insns(rng: &mut SimRng, min: usize, max: usize) -> Vec<Insn> {
    let n = min + rng.uniform_u64((max - min) as u64) as usize;
    (0..n).map(|_| rand_insn(rng)).collect()
}

/// The verifier never panics on arbitrary instruction sequences.
#[test]
fn verifier_is_total() {
    let mut rng = SimRng::seed(0xEBBF_0001);
    for _ in 0..512 {
        let insns = rand_insns(&mut rng, 0, 64);
        let _ = verify(&insns);
    }
}

/// Any program the verifier accepts runs to completion on any packet
/// without a runtime memory fault — the core safety contract.
#[test]
fn verified_programs_never_fault() {
    let mut rng = SimRng::seed(0xEBBF_0002);
    for _ in 0..512 {
        let insns = rand_insns(&mut rng, 1, 48);
        if verify(&insns).is_err() {
            continue; // rejected: nothing to check
        }
        let prog = LoadedProgram::load(Program::new("fuzz", insns)).unwrap();
        let maps = MapStore::new();
        // A few maps so random map ids sometimes hit something.
        maps.create_hash(8);
        maps.create_array(4, 8);
        maps.create_prog_array(4);
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let mut pkt: Vec<u8> = (0..rng.uniform_u64(256))
            .map(|_| rng.uniform_u64(256) as u8)
            .collect();
        let ifindex = rng.uniform_u64(16) as u32;
        let ctx = VmCtx::xdp(&mut pkt, ifindex, 0);
        let out = vm::run(&prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker);
        // Division by zero has Linux-defined results and keeps running;
        // memory violations must be impossible.
        if let Some(err) = out.error {
            panic!("verified program faulted: {err}");
        }
    }
}

/// Cost accounting: executing N instructions charges exactly N times the
/// per-instruction price (plus helper charges).
#[test]
fn instruction_costs_add_up() {
    let mut rng = SimRng::seed(0xEBBF_0003);
    for _ in 0..64 {
        let n = 1 + rng.uniform_u64(63) as usize;
        let mut insns = Vec::new();
        for i in 0..n {
            insns.push(Insn::AluImm {
                op: AluOp::Mov,
                dst: 0,
                imm: i as i64,
            });
        }
        insns.push(Insn::AluImm {
            op: AluOp::Mov,
            dst: 0,
            imm: 2,
        });
        insns.push(Insn::Exit);
        let prog = LoadedProgram::load(Program::new("count", insns)).unwrap();
        let maps = MapStore::new();
        let cost = CostModel::calibrated();
        let mut tracker = CostTracker::new();
        let mut pkt = vec![0u8; 64];
        let ctx = VmCtx::xdp(&mut pkt, 1, 0);
        let out = vm::run(&prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker);
        assert_eq!(out.insns_executed, (n + 2) as u64);
        let expected = (n + 2) as f64 * cost.jit_insn_ns;
        assert!((tracker.total_ns() - expected).abs() < 1e-9);
    }
}
