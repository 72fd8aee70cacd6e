//! Interpreter-vs-compiled parity: the interpreter is the reference
//! oracle, and the load-time compiler must be observationally identical
//! to it on every verified program.
//!
//! Each case runs the *same* loaded program through both engines against
//! byte-identical packets and independently-built (but identically
//! initialized) map state, then asserts:
//!
//! - identical [`VmOutcome`]s — verdict, redirect target, instruction
//!   count, tail-call and helper-call counts, fault, div-by-zero count,
//!   and the full final register file;
//! - byte-identical frames after execution;
//! - identical [`CostTracker`]s — the same total and the same count and
//!   sum on every stage, `jit_insn` (charged exactly `insns_executed`
//!   times) as much as the helpers and tail calls.

use linuxfp_ebpf::asm::Asm;
use linuxfp_ebpf::compile;
use linuxfp_ebpf::helpers::NullEnv;
use linuxfp_ebpf::insn::{Action, AluOp, HelperId, Insn, JmpCond, MemSize};
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::program::{LoadedProgram, Program};
use linuxfp_ebpf::verifier::{ctx_layout, verify};
use linuxfp_ebpf::vm::{self, VmCtx, VmOutcome};
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

/// Arbitrary (mostly invalid) instruction soup, filtered by the verifier.
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

/// Accept-biased program shape: initialize `r0` and a few scratch
/// registers, then random soup, then a guaranteed `Exit`. Raw soup has a
/// sub-percent verifier acceptance rate; the prefix/suffix lift it high
/// enough to exercise the oracle thousands of times.
fn rand_program(rng: &mut SimRng) -> Vec<Insn> {
    let mut insns = Vec::new();
    for reg in 0..=7u8 {
        insns.push(Insn::AluImm {
            op: AluOp::Mov,
            dst: reg,
            imm: rand_imm32(rng),
        });
    }
    // Keep r0 a plausible verdict so accepted programs exercise the
    // whole Action range instead of mostly Aborted.
    insns.push(Insn::AluImm {
        op: AluOp::Mov,
        dst: 0,
        imm: rng.uniform_u64(5) as i64,
    });
    let n = rng.uniform_u64(32) as usize;
    insns.extend((0..n).map(|_| rand_insn(rng)));
    insns.push(Insn::Exit);
    insns
}

/// Fresh map state for one engine run; called once per engine so both
/// sides start from the same (but independent) maps.
fn fresh_maps() -> MapStore {
    let maps = MapStore::new();
    maps.create_hash(8);
    maps.create_array(4, 8);
    maps.create_prog_array(4);
    maps
}

struct EngineRun {
    out: VmOutcome,
    tracker: CostTracker,
    packet: Vec<u8>,
}

fn run_engine(prog: &LoadedProgram, maps: &MapStore, packet: &[u8], jit: bool) -> EngineRun {
    let cost = CostModel::calibrated();
    let mut tracker = CostTracker::new();
    let mut pkt = packet.to_vec();
    let ctx = VmCtx::xdp(&mut pkt, 7, 0);
    let out = vm::execute(prog, ctx, &mut NullEnv, maps, &cost, &mut tracker, jit);
    EngineRun {
        out,
        tracker,
        packet: pkt,
    }
}

/// Asserts the two runs are observationally identical and cost the same.
fn assert_parity(interp: &EngineRun, compiled: &EngineRun, what: &str) {
    assert_eq!(interp.out, compiled.out, "outcome diverged: {what}");
    assert_eq!(
        interp.packet, compiled.packet,
        "frame bytes diverged: {what}"
    );
    assert_eq!(interp.tracker, compiled.tracker, "cost diverged: {what}");
    assert_eq!(
        compiled.tracker.stage_count("jit_insn"),
        compiled.out.insns_executed,
        "one jit_insn charge per executed instruction: {what}"
    );
}

/// The core oracle check: every verifier-accepted random program is
/// observationally identical under both engines.
#[test]
fn random_verified_programs_agree() {
    let mut rng = SimRng::seed(0x31D0_0001);
    let mut accepted = 0u32;
    for i in 0..2048 {
        let insns = rand_program(&mut rng);
        if verify(&insns).is_err() {
            continue;
        }
        accepted += 1;
        let prog = LoadedProgram::load(Program::new("fuzz", insns)).unwrap();
        let packet: Vec<u8> = (0..64 + rng.uniform_u64(192))
            .map(|_| rng.uniform_u64(256) as u8)
            .collect();
        let interp = run_engine(&prog, &fresh_maps(), &packet, false);
        let compiled = run_engine(&prog, &fresh_maps(), &packet, true);
        assert_parity(&interp, &compiled, &format!("random program #{i}"));
    }
    assert!(accepted > 50, "verifier accepted only {accepted} programs");
}

/// Packet-mutating programs: both engines must leave byte-identical
/// frames behind, not just agree on the verdict.
#[test]
fn packet_rewrites_are_byte_identical() {
    let mut a = Asm::new();
    a.load(MemSize::DW, 2, 1, ctx_layout::DATA as i16);
    a.load(MemSize::DW, 3, 1, ctx_layout::DATA_END as i16);
    a.mov_reg(4, 2);
    a.alu_imm(AluOp::Add, 4, 34);
    a.jmp_reg(JmpCond::Gt, 4, 3, "out");
    // Swap-ish rewrite across the IP header bytes.
    a.load(MemSize::W, 5, 2, 26);
    a.load(MemSize::W, 6, 2, 30);
    a.store(MemSize::W, 2, 26, 6);
    a.store(MemSize::W, 2, 30, 5);
    a.load(MemSize::H, 7, 2, 24);
    a.alu_imm(AluOp::Xor, 7, 0x55AA);
    a.store(MemSize::H, 2, 24, 7);
    a.label("out");
    a.mov_imm(0, Action::Tx.code() as i64);
    a.exit();
    let prog = LoadedProgram::load(Program::new("rewrite", a.finish().unwrap())).unwrap();

    let mut rng = SimRng::seed(0x31D0_0002);
    for _ in 0..64 {
        let packet: Vec<u8> = (0..64).map(|_| rng.uniform_u64(256) as u8).collect();
        let interp = run_engine(&prog, &fresh_maps(), &packet, false);
        let compiled = run_engine(&prog, &fresh_maps(), &packet, true);
        assert_parity(&interp, &compiled, "packet rewrite");
        assert_ne!(interp.packet, packet, "rewrite should mutate the frame");
    }
}

/// Tail-call chains: both engines walk the same program-array chain and
/// count the same tail calls, helper calls, and instructions.
#[test]
fn tail_call_chains_agree() {
    fn build_maps() -> MapStore {
        let maps = MapStore::new();
        let pa = maps.create_prog_array(4);
        assert_eq!(pa.0, 0);

        let mut leaf = Asm::new();
        leaf.call(HelperId::KtimeGetNs);
        leaf.mov_imm(0, Action::Pass.code() as i64);
        leaf.exit();
        let leaf = LoadedProgram::load(Program::new("leaf", leaf.finish().unwrap())).unwrap();
        maps.prog_array_set(pa, 1, Some(leaf)).unwrap();

        let mut mid = Asm::new();
        mid.mov_imm(0, Action::Drop.code() as i64);
        mid.tail_call(pa.0, 1);
        mid.exit();
        let mid = LoadedProgram::load(Program::new("mid", mid.finish().unwrap())).unwrap();
        maps.prog_array_set(pa, 0, Some(mid)).unwrap();
        maps
    }

    let mut root = Asm::new();
    root.mov_imm(0, Action::Aborted.code() as i64);
    root.tail_call(0, 0);
    root.exit();
    let root = LoadedProgram::load(Program::new("root", root.finish().unwrap())).unwrap();

    let packet = vec![0u8; 64];
    let interp = run_engine(&root, &build_maps(), &packet, false);
    let compiled = run_engine(&root, &build_maps(), &packet, true);
    assert_parity(&interp, &compiled, "tail-call chain");
    assert_eq!(compiled.out.action, Action::Pass);
    assert_eq!(compiled.out.tail_calls, 2);
    assert_eq!(compiled.out.helper_calls, 1);
}

/// A missing tail-call slot falls through identically in both engines.
#[test]
fn missing_tail_call_slot_falls_through_identically() {
    let maps_for = || {
        let maps = MapStore::new();
        maps.create_prog_array(4);
        maps
    };
    let mut a = Asm::new();
    a.mov_imm(0, Action::Drop.code() as i64);
    a.tail_call(0, 3); // empty slot: fall through
    a.exit();
    let prog = LoadedProgram::load(Program::new("fallthrough", a.finish().unwrap())).unwrap();
    let packet = vec![0u8; 64];
    let interp = run_engine(&prog, &maps_for(), &packet, false);
    let compiled = run_engine(&prog, &maps_for(), &packet, true);
    assert_parity(&interp, &compiled, "missing tail-call slot");
    assert_eq!(compiled.out.action, Action::Drop);
    assert_eq!(compiled.out.tail_calls, 0);
}

/// Helper-driven redirect: verdict metadata (redirect target) must
/// survive compilation untouched.
#[test]
fn redirect_verdicts_agree() {
    let mut a = Asm::new();
    a.mov_imm(1, 9); // target ifindex
    a.mov_imm(2, 0); // flags
    a.call(HelperId::Redirect);
    a.exit();
    let prog = LoadedProgram::load(Program::new("redir", a.finish().unwrap())).unwrap();
    let packet = vec![0u8; 64];
    let interp = run_engine(&prog, &fresh_maps(), &packet, false);
    let compiled = run_engine(&prog, &fresh_maps(), &packet, true);
    assert_parity(&interp, &compiled, "redirect");
    assert_eq!(compiled.out.action, Action::Redirect);
    assert_eq!(compiled.out.redirect.map(|i| i.0), Some(9));
}

/// The lowering itself is deterministic: compiling the same bytecode
/// twice yields the same op sequence (the `Arc` in `LoadedProgram` is an
/// optimization, not a correctness requirement).
#[test]
fn compilation_is_deterministic() {
    let mut rng = SimRng::seed(0x31D0_0003);
    for _ in 0..256 {
        let insns = rand_program(&mut rng);
        if verify(&insns).is_err() {
            continue;
        }
        let a = compile::CompiledProgram::compile(&insns);
        let b = compile::CompiledProgram::compile(&insns);
        assert_eq!(a, b);
        assert_eq!(a.ops().len(), insns.len());
    }
}
