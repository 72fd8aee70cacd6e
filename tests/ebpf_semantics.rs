//! What the eBPF engine computes, pinned as expected values.
//!
//! `vm::run` is the one engine: every packet a hook serves and every
//! program a test runs goes through it. These cases hold it to Linux's
//! BPF runtime semantics — div/mod by zero, shift masking, wrapping
//! multiplies, the i32 and i64 sign boundaries, tail-call chains,
//! missing tail-call slots and redirect verdicts — with the outcome,
//! the final register file and the charged cost written out by hand.
//!
//! `tests/ebpf_semantics_corpus/` holds straight-line ALU/JMP programs
//! as JSON, each with the register file it must leave behind.

use linuxfp::ebpf::asm::Asm;
use linuxfp::ebpf::helpers::NullEnv;
use linuxfp::ebpf::insn::{Action, AluOp, HelperId, Insn, JmpCond, MAX_TAIL_CALLS};
use linuxfp::ebpf::maps::MapStore;
use linuxfp::ebpf::program::{LoadedProgram, Program};
use linuxfp::ebpf::vm::{self, VmCtx, VmOutcome, CTX_BASE, STACK_BASE};
use linuxfp::json::Value;
use linuxfp::netstack::NetError;
use linuxfp::prelude::*;
use linuxfp::sim::CostTracker;
use std::fs;
use std::path::PathBuf;

/// `r10` at exit: the frame pointer a program entry starts with.
const FP: u64 = STACK_BASE + 512;

fn load(a: Asm, name: &str) -> LoadedProgram {
    LoadedProgram::load(Program::new(name, a.finish().expect("assembles"))).expect("verifies")
}

/// Runs `prog` on a zeroed 64-byte frame against `maps`.
fn run_with(prog: &LoadedProgram, maps: &MapStore) -> (VmOutcome, CostTracker) {
    let cost = CostModel::calibrated();
    let mut tracker = CostTracker::new();
    let mut packet = vec![0u8; 64];
    let ctx = VmCtx::xdp(&mut packet, 1, 0);
    let out = vm::run(prog, ctx, &mut NullEnv, maps, &cost, &mut tracker);
    assert_eq!(
        tracker.stage_count("jit_insn"),
        out.insns_executed,
        "one jit_insn charge per executed instruction"
    );
    (out, tracker)
}

fn run(prog: &LoadedProgram) -> VmOutcome {
    run_with(prog, &MapStore::new()).0
}

#[test]
fn division_by_zero_gives_zero_and_modulo_by_zero_leaves_dst() {
    let mut a = Asm::new();
    a.mov_imm(2, 0);
    a.mov_imm(3, 7);
    a.alu_reg(AluOp::Div, 3, 2); // r3 = 0
    a.mov_imm(4, -1);
    a.alu_reg(AluOp::Div, 4, 2); // r4 = 0
    a.mov_imm(5, 9);
    a.alu_reg(AluOp::Mod, 5, 2); // r5 stays 9
    a.mov_imm(6, -5);
    a.alu_reg(AluOp::Mod, 6, 2); // r6 stays -5
    a.alu_reg(AluOp::Mod, 2, 2); // r2 stays 0
    a.mov_imm(0, Action::Pass.code() as i64);
    a.exit();
    let out = run(&load(a, "div-mod-zero"));
    assert_eq!(out.error, None, "a zero divisor is not a fault");
    assert_eq!(out.action, Action::Pass);
    assert_eq!(out.div_zeros, 5);
    assert_eq!(out.regs[2..7], [0, 0, 0, 9, (-5i64) as u64]);
}

#[test]
fn shift_amounts_are_masked_to_six_bits() {
    let mut a = Asm::new();
    a.mov_imm(1, 65); // masks to 1
    a.mov_imm(2, 1);
    a.alu_reg(AluOp::Lsh, 2, 1); // 1 << 1
    a.mov_imm(3, 64); // masks to 0
    a.mov_imm(4, 0x70);
    a.alu_reg(AluOp::Rsh, 4, 3); // 0x70 >> 0
    a.mov_imm(5, -1);
    a.alu_imm(AluOp::Rsh, 5, 63); // logical: 1
    a.mov_imm(6, i32::MIN as i64);
    a.alu_imm(AluOp::Arsh, 6, 63); // arithmetic: all ones
    a.mov_imm(7, 1);
    a.alu_imm(AluOp::Lsh, 7, 63); // the sign bit
    a.mov_imm(8, 127); // masks to 63
    a.mov_imm(9, -1);
    a.alu_reg(AluOp::Lsh, 9, 8);
    a.mov_imm(0, Action::Pass.code() as i64);
    a.exit();
    let out = run(&load(a, "shifts"));
    assert_eq!(
        out.regs[2..10],
        [2, 64, 0x70, 1, u64::MAX, 1 << 63, 127, 1 << 63]
    );
}

#[test]
fn multiplies_wrap_at_64_bits() {
    let mut a = Asm::new();
    a.mov_imm(1, 1);
    a.alu_imm(AluOp::Lsh, 1, 32);
    a.mov_reg(2, 1);
    a.alu_reg(AluOp::Mul, 2, 1); // 2^64 wraps to 0
    a.mov_imm(3, -1);
    a.alu_imm(AluOp::Mul, 3, -1); // (2^64 - 1)^2 wraps to 1
    a.mov_imm(4, i32::MAX as i64);
    a.alu_reg(AluOp::Mul, 4, 4);
    a.mov_imm(0, Action::Pass.code() as i64);
    a.exit();
    let out = run(&load(a, "wrapping-mul"));
    assert_eq!(out.regs[2..5], [0, 1, 0x3FFF_FFFF_0000_0001]);
}

#[test]
fn immediates_sign_extend_and_comparisons_see_the_i64_sign() {
    let mut a = Asm::new();
    a.mov_imm(1, i32::MIN as i64); // sign-extended
    a.mov_imm(2, i32::MAX as i64);
    a.alu_imm(AluOp::Add, 2, 1); // 2^31, positive in 64 bits
    a.mov_imm(3, 1);
    a.alu_imm(AluOp::Lsh, 3, 63);
    a.alu_imm(AluOp::Sub, 3, 1); // i64::MAX
    a.mov_reg(4, 3);
    a.alu_imm(AluOp::Add, 4, 1); // wraps to i64::MIN
    a.mov_imm(5, 0);
    // Each taken jump skips a poison move into r5.
    a.jmp_reg(JmpCond::Slt, 4, 3, "signed-lt");
    a.mov_imm(5, 1);
    a.label("signed-lt");
    a.jmp_reg(JmpCond::Gt, 4, 3, "unsigned-gt");
    a.mov_imm(5, 2);
    a.label("unsigned-gt");
    a.jmp_imm(JmpCond::Slt, 1, 0, "negative-imm");
    a.mov_imm(5, 3);
    a.label("negative-imm");
    a.jmp_imm(JmpCond::Gt, 1, i32::MAX as i64, "huge-unsigned");
    a.mov_imm(5, 4);
    a.label("huge-unsigned");
    a.jmp_imm(JmpCond::Sgt, 2, 0, "still-positive");
    a.mov_imm(5, 5);
    a.label("still-positive");
    a.mov_imm(0, Action::Pass.code() as i64);
    a.exit();
    let out = run(&load(a, "sign-boundaries"));
    assert_eq!(
        out.regs[1..6],
        [
            0xFFFF_FFFF_8000_0000,
            0x8000_0000,
            i64::MAX as u64,
            i64::MIN as u64,
            0
        ]
    );
    assert_eq!(out.insns_executed, 16, "every jump was taken");
}

#[test]
fn tail_call_chains_run_to_the_last_program() {
    let maps = MapStore::new();
    let pa = maps.create_prog_array(4);
    let mut leaf = Asm::new();
    leaf.call(HelperId::KtimeGetNs);
    leaf.mov_imm(0, Action::Pass.code() as i64);
    leaf.exit();
    maps.prog_array_set(pa, 1, Some(load(leaf, "leaf")))
        .unwrap();
    let mut mid = Asm::new();
    mid.mov_imm(0, Action::Drop.code() as i64);
    mid.mov_reg(6, 1); // callee-saved: survives the leaf's helper call
    mid.tail_call(pa.0, 1);
    mid.exit();
    maps.prog_array_set(pa, 0, Some(load(mid, "mid"))).unwrap();
    let mut root = Asm::new();
    root.mov_imm(0, Action::Aborted.code() as i64);
    root.mov_imm(1, 7); // the callee gets the ctx back in r1
    root.tail_call(pa.0, 0);
    root.exit();

    let (out, tracker) = run_with(&load(root, "root"), &maps);
    assert_eq!(out.action, Action::Pass);
    assert_eq!(out.tail_calls, 2);
    assert_eq!(out.helper_calls, 1);
    assert_eq!(out.insns_executed, 3 + 3 + 3);
    assert_eq!(out.regs[6], CTX_BASE, "a callee gets the ctx in r1");
    assert_eq!(tracker.stage_count("tail_call"), 2);
    assert_eq!(tracker.stage_count("helper_trivial"), 1);
}

#[test]
fn a_missing_tail_call_slot_falls_through() {
    let maps = MapStore::new();
    maps.create_prog_array(4);
    let mut a = Asm::new();
    a.mov_imm(0, Action::Drop.code() as i64);
    a.tail_call(0, 3);
    a.exit();
    let (out, tracker) = run_with(&load(a, "fallthrough"), &maps);
    assert_eq!(out.action, Action::Drop);
    assert_eq!(out.tail_calls, 0);
    assert_eq!(out.insns_executed, 3);
    assert_eq!(tracker.stage_count("tail_call"), 0);
}

/// A program that tail-calls itself falls through after the kernel's
/// limit of 33 calls.
#[test]
fn tail_call_depth_is_limited() {
    let maps = MapStore::new();
    let pa = maps.create_prog_array(1);
    let mut a = Asm::new();
    a.mov_imm(0, Action::Pass.code() as i64);
    a.tail_call(pa.0, 0);
    a.exit();
    let prog = load(a, "self-call");
    maps.prog_array_set(pa, 0, Some(prog.clone())).unwrap();
    let (out, tracker) = run_with(&prog, &maps);
    assert_eq!(out.action, Action::Pass);
    assert_eq!(out.tail_calls, u64::from(MAX_TAIL_CALLS));
    assert_eq!(tracker.stage_count("tail_call"), 33);
    assert_eq!(out.insns_executed, 2 * 34 + 1);
}

#[test]
fn the_redirect_helper_sets_the_verdict_and_target() {
    let mut a = Asm::new();
    a.mov_imm(1, 9);
    a.mov_imm(2, 0);
    a.call(HelperId::Redirect);
    a.exit();
    let (out, tracker) = run_with(&load(a, "redirect"), &MapStore::new());
    assert_eq!(out.action, Action::Redirect);
    assert_eq!(out.redirect.map(|i| i.0), Some(9));
    assert_eq!(out.helper_calls, 1);
    assert_eq!(out.insns_executed, 4);
    assert_eq!(tracker.stage_count("helper_redirect"), 1);
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/ebpf_semantics_corpus")
}

/// Looks `name` up among `all` by its `Debug` spelling.
fn by_name<T: Copy + std::fmt::Debug>(all: &[T], name: &str) -> T {
    *all.iter()
        .find(|t| format!("{t:?}") == name)
        .unwrap_or_else(|| panic!("unknown name {name:?}"))
}

fn parse_insn(v: &Value) -> Insn {
    const OPS: [AluOp; 12] = [
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
    let str_of = |key: &str| v.get(key).and_then(Value::as_str).expect(key);
    let int = |key: &str| v.get(key).and_then(Value::as_i64).expect(key);
    let reg = |key: &str| int(key) as u8;
    match str_of("k") {
        "alu_imm" => Insn::AluImm {
            op: by_name(&OPS, str_of("op")),
            dst: reg("dst"),
            imm: int("imm"),
        },
        "alu_reg" => Insn::AluReg {
            op: by_name(&OPS, str_of("op")),
            dst: reg("dst"),
            src: reg("src"),
        },
        "jmp_imm" => Insn::JmpImm {
            cond: by_name(&CONDS, str_of("cond")),
            dst: reg("dst"),
            imm: int("imm"),
            off: int("off") as i32,
        },
        "jmp_reg" => Insn::JmpReg {
            cond: by_name(&CONDS, str_of("cond")),
            dst: reg("dst"),
            src: reg("src"),
            off: int("off") as i32,
        },
        "exit" => Insn::Exit,
        other => panic!("unknown insn kind {other:?}"),
    }
}

/// Every fixture runs to its recorded register file, instruction count
/// and div/mod-by-zero count, without a fault.
#[test]
fn corpus_programs_leave_their_expected_register_files() {
    let mut paths: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4, "corpus: {paths:?}");
    for path in paths {
        let what = path.display();
        let doc = linuxfp::json::from_str(&fs::read_to_string(&path).expect("read fixture"))
            .expect("parse fixture");
        let insns = doc["insns"]
            .as_array()
            .expect("insns")
            .iter()
            .map(parse_insn)
            .collect();
        let prog = LoadedProgram::load(Program::new("fixture", insns))
            .unwrap_or_else(|e| panic!("{what} no longer verifies: {e}"));
        let expect = &doc["expect"];
        let regs: Vec<u64> = expect["regs"]
            .as_array()
            .expect("expect.regs")
            .iter()
            .map(|r| {
                let hex = r.as_str().expect("hex register").trim_start_matches("0x");
                u64::from_str_radix(hex, 16).expect("hex register")
            })
            .collect();
        let out = run(&prog);
        assert_eq!(out.error, None, "{what}");
        assert_eq!(out.regs[..], regs[..], "{what}");
        assert_eq!(out.regs[10], FP, "{what}: r10 is the frame pointer");
        assert_eq!(
            Some(out.insns_executed),
            expect["insns_executed"].as_u64(),
            "{what}"
        );
        assert_eq!(Some(out.div_zeros), expect["div_zeros"].as_u64(), "{what}");
    }
}

/// The datapath has one engine, so there is no sysctl to choose it. The
/// retired name is assembled here rather than spelled as one literal.
#[test]
fn the_engine_is_not_a_sysctl() {
    let retired = ["net.linuxfp", "jit"].join(".");
    let mut kernel = Kernel::new(1);
    assert!(matches!(
        kernel.sysctl_set(&retired, 0),
        Err(NetError::NotFound(_))
    ));
    assert_eq!(kernel.sysctl_get(&retired), None);
}
