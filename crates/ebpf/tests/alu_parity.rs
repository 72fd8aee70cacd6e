//! Seeded ALU edge-case parity fuzz: interpreter vs compiled engine on
//! random straight-line ALU/JMP programs built from sign boundaries,
//! shift-by-63, wrapping multiplies, and register-sourced div/mod by
//! zero. Both engines must produce identical [`VmOutcome`]s — the full
//! final register file included — and identical [`CostTracker`]s.
//!
//! Any divergence is shrunk greedily (drop one instruction at a time
//! while the divergence persists, difftest-style) and written to
//! `tests/alu_parity_corpus/` as a JSON fixture before the test fails.
//! Checked-in fixtures in that directory are replayed on every run as a
//! regression corpus.

use std::fs;
use std::path::PathBuf;

use linuxfp_ebpf::helpers::NullEnv;
use linuxfp_ebpf::insn::{AluOp, Insn, JmpCond};
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::program::{LoadedProgram, Program};
use linuxfp_ebpf::verifier::verify;
use linuxfp_ebpf::vm::{self, VmCtx, VmOutcome};
use linuxfp_json::{json, Value};
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

/// Edge immediates: i32 sign boundaries, ±1 around them, shift pivots,
/// and bit patterns that make wrapping multiplies and sign extensions
/// interesting. All fit the instruction set's 32-bit immediate.
const EDGE_IMMS: [i64; 12] = [
    0,
    1,
    -1,
    2,
    63,
    i32::MAX as i64,
    i32::MIN as i64,
    (i32::MAX - 1) as i64,
    (i32::MIN + 1) as i64,
    0x5555_5555,
    -0x5555_5556,
    0x00FF_FF00,
];

/// General-purpose registers the fuzz writes to (`r10` is the read-only
/// frame pointer).
fn rand_reg(rng: &mut SimRng) -> u8 {
    rng.uniform_u64(10) as u8
}

fn edge_imm(rng: &mut SimRng) -> i64 {
    *rng.choose(&EDGE_IMMS)
}

/// An immediate the verifier accepts for `op` (constant shifts must be
/// in `0..64`, constant div/mod must be nonzero — register-sourced zero
/// divisors are the interesting case and stay in via `AluReg`).
fn imm_for(op: AluOp, rng: &mut SimRng) -> i64 {
    match op {
        AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => match rng.uniform_u64(4) {
            0 => 63,
            1 => 0,
            2 => 1,
            _ => rng.uniform_u64(64) as i64,
        },
        AluOp::Div | AluOp::Mod => match rng.uniform_u64(3) {
            0 => 1,
            1 => -1,
            _ => edge_imm(rng).max(1),
        },
        _ => edge_imm(rng),
    }
}

/// One random body instruction. Jumps are forward-only with offsets that
/// stay inside the body (`remaining` instructions follow this one before
/// the terminating `Exit`).
fn rand_body_insn(rng: &mut SimRng, remaining: usize) -> Insn {
    let can_jump = remaining > 0;
    match rng.uniform_u64(if can_jump { 4 } else { 2 }) {
        0 => {
            let op = *rng.choose(&ALU_OPS);
            Insn::AluImm {
                op,
                dst: rand_reg(rng),
                imm: imm_for(op, rng),
            }
        }
        1 => Insn::AluReg {
            op: *rng.choose(&ALU_OPS),
            dst: rand_reg(rng),
            src: rand_reg(rng),
        },
        2 => Insn::JmpImm {
            cond: *rng.choose(&CONDS),
            dst: rand_reg(rng),
            imm: edge_imm(rng),
            off: (1 + rng.uniform_u64(remaining.min(4) as u64)) as i32,
        },
        _ => Insn::JmpReg {
            cond: *rng.choose(&CONDS),
            dst: rand_reg(rng),
            src: rand_reg(rng),
            off: (1 + rng.uniform_u64(remaining.min(4) as u64)) as i32,
        },
    }
}

/// A straight-line(ish) ALU/JMP program: every register seeded with an
/// edge immediate, then random soup, then `Exit`.
fn rand_program(rng: &mut SimRng) -> Vec<Insn> {
    let mut insns = Vec::new();
    for reg in 0..10u8 {
        insns.push(Insn::AluImm {
            op: AluOp::Mov,
            dst: reg,
            imm: edge_imm(rng),
        });
    }
    let n = 1 + rng.uniform_u64(24) as usize;
    for i in 0..n {
        insns.push(rand_body_insn(rng, n - i - 1));
    }
    insns.push(Insn::Exit);
    insns
}

/// One run's outcome and what it was charged.
type EngineRun = (VmOutcome, CostTracker);

fn run_engine(prog: &LoadedProgram, jit: bool) -> EngineRun {
    let maps = MapStore::new();
    let cost = CostModel::calibrated();
    let mut tracker = CostTracker::new();
    let mut pkt = vec![0u8; 64];
    let ctx = VmCtx::xdp(&mut pkt, 1, 0);
    let out = vm::execute(prog, ctx, &mut NullEnv, &maps, &cost, &mut tracker, jit);
    (out, tracker)
}

/// `Some((interp, compiled))` when the engines disagree on the outcome
/// or on the cost.
fn divergence(insns: &[Insn]) -> Option<(EngineRun, EngineRun)> {
    let prog = LoadedProgram::load(Program::new("alu-fuzz", insns.to_vec())).ok()?;
    let interp = run_engine(&prog, false);
    let compiled = run_engine(&prog, true);
    (interp != compiled).then_some((interp, compiled))
}

/// Greedy one-instruction-at-a-time shrink, difftest-style: keep
/// removing instructions as long as the program still verifies and the
/// engines still disagree.
fn shrink(mut insns: Vec<Insn>) -> Vec<Insn> {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < insns.len() {
            let mut candidate = insns.clone();
            candidate.remove(i);
            if divergence(&candidate).is_some() {
                insns = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return insns;
        }
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("alu_parity_corpus")
}

fn insn_json(insn: &Insn) -> Value {
    match *insn {
        Insn::AluImm { op, dst, imm } => {
            json!({"k": "alu_imm", "op": format!("{op:?}"), "dst": dst, "imm": imm})
        }
        Insn::AluReg { op, dst, src } => {
            json!({"k": "alu_reg", "op": format!("{op:?}"), "dst": dst, "src": src})
        }
        Insn::Ja { off } => json!({"k": "ja", "off": off}),
        Insn::JmpImm {
            cond,
            dst,
            imm,
            off,
        } => {
            json!({"k": "jmp_imm", "cond": format!("{cond:?}"), "dst": dst, "imm": imm, "off": off})
        }
        Insn::JmpReg {
            cond,
            dst,
            src,
            off,
        } => {
            json!({"k": "jmp_reg", "cond": format!("{cond:?}"), "dst": dst, "src": src, "off": off})
        }
        Insn::Exit => json!({"k": "exit"}),
        ref other => panic!("ALU fuzz produced unsupported insn {other:?}"),
    }
}

fn parse_alu_op(s: &str) -> AluOp {
    match s {
        "Add" => AluOp::Add,
        "Sub" => AluOp::Sub,
        "Mul" => AluOp::Mul,
        "Div" => AluOp::Div,
        "Or" => AluOp::Or,
        "And" => AluOp::And,
        "Lsh" => AluOp::Lsh,
        "Rsh" => AluOp::Rsh,
        "Mod" => AluOp::Mod,
        "Xor" => AluOp::Xor,
        "Mov" => AluOp::Mov,
        "Arsh" => AluOp::Arsh,
        other => panic!("unknown ALU op {other:?}"),
    }
}

fn parse_cond(s: &str) -> JmpCond {
    match s {
        "Eq" => JmpCond::Eq,
        "Ne" => JmpCond::Ne,
        "Gt" => JmpCond::Gt,
        "Ge" => JmpCond::Ge,
        "Lt" => JmpCond::Lt,
        "Le" => JmpCond::Le,
        "Sgt" => JmpCond::Sgt,
        "Slt" => JmpCond::Slt,
        "Set" => JmpCond::Set,
        other => panic!("unknown jump condition {other:?}"),
    }
}

fn parse_insn(v: &Value) -> Insn {
    let k = v.get("k").and_then(Value::as_str).expect("insn kind");
    let reg = |key: &str| v.get(key).and_then(Value::as_u64).expect(key) as u8;
    let imm = |key: &str| v.get(key).and_then(Value::as_i64).expect(key);
    match k {
        "alu_imm" => Insn::AluImm {
            op: parse_alu_op(v.get("op").and_then(Value::as_str).expect("op")),
            dst: reg("dst"),
            imm: imm("imm"),
        },
        "alu_reg" => Insn::AluReg {
            op: parse_alu_op(v.get("op").and_then(Value::as_str).expect("op")),
            dst: reg("dst"),
            src: reg("src"),
        },
        "ja" => Insn::Ja {
            off: imm("off") as i32,
        },
        "jmp_imm" => Insn::JmpImm {
            cond: parse_cond(v.get("cond").and_then(Value::as_str).expect("cond")),
            dst: reg("dst"),
            imm: imm("imm"),
            off: imm("off") as i32,
        },
        "jmp_reg" => Insn::JmpReg {
            cond: parse_cond(v.get("cond").and_then(Value::as_str).expect("cond")),
            dst: reg("dst"),
            src: reg("src"),
            off: imm("off") as i32,
        },
        "exit" => Insn::Exit,
        other => panic!("unknown insn kind {other:?}"),
    }
}

/// Shrinks a diverging program and persists it as a corpus fixture, then
/// panics with the divergence details.
fn report_divergence(insns: Vec<Insn>, seed: u64, case: usize) -> ! {
    let minimal = shrink(insns);
    let (interp, compiled) = divergence(&minimal).expect("shrunk program still diverges");
    let doc = json!({
        "name": format!("shrunk-{seed:#x}-{case}"),
        "seed": seed,
        "insns": minimal.iter().map(insn_json).collect::<Vec<Value>>(),
    });
    let dir = corpus_dir();
    fs::create_dir_all(&dir).expect("create corpus dir");
    let path = dir.join(format!("shrunk-{seed:x}-{case}.json"));
    fs::write(&path, linuxfp_json::to_string_pretty(&doc)).expect("write fixture");
    panic!(
        "engines diverged (fixture written to {}):\n  interpreted: {interp:?}\n  compiled:    {compiled:?}",
        path.display()
    );
}

/// The fuzz itself: thousands of seeded edge-case programs, each run
/// through both engines.
#[test]
fn alu_edge_cases_have_identical_register_files() {
    let seed = 0xA10_ED6E;
    let mut rng = SimRng::seed(seed);
    let mut accepted = 0u32;
    for case in 0..4096 {
        let insns = rand_program(&mut rng);
        if verify(&insns).is_err() {
            continue;
        }
        accepted += 1;
        if divergence(&insns).is_some() {
            report_divergence(insns, seed, case);
        }
    }
    assert!(
        accepted > 1024,
        "fuzz generator acceptance collapsed: {accepted}/4096"
    );
}

/// Replays every checked-in corpus fixture (including any previously
/// shrunk divergences) through both engines.
#[test]
fn corpus_fixtures_stay_in_parity() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("alu_parity_corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus is empty");
    for path in entries {
        let doc = linuxfp_json::from_str(&fs::read_to_string(&path).expect("read fixture"))
            .expect("parse fixture");
        let insns: Vec<Insn> = doc
            .get("insns")
            .and_then(Value::as_array)
            .expect("insns array")
            .iter()
            .map(parse_insn)
            .collect();
        assert!(
            verify(&insns).is_ok(),
            "fixture {} no longer verifies",
            path.display()
        );
        if let Some((interp, compiled)) = divergence(&insns) {
            panic!(
                "fixture {} diverged:\n  interpreted: {interp:?}\n  compiled:    {compiled:?}",
                path.display()
            );
        }
        // Also pin the Linux div/mod-by-zero semantics: no fixture may
        // abort — zero divisors produce defined results, not faults.
        let prog = LoadedProgram::load(Program::new("fixture", insns)).unwrap();
        let (out, _) = run_engine(&prog, true);
        assert!(
            out.error.is_none(),
            "fixture {} faulted: {:?}",
            path.display(),
            out.error
        );
    }
}
