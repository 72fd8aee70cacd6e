//! The Fast Path Synthesizer: JSON processing graph → programs.
//!
//! The paper renders Jinja C templates and compiles them with clang; here
//! the templates are bytecode emitters ([`crate::fpm`]) and "compilation"
//! produces VM instructions directly, but the pipeline is the same: one
//! specialized program per interface, composed of exactly the modules the
//! current configuration needs, with modules fused through function calls
//! (inlining) rather than tail calls — the composition choice the paper
//! measures in Fig. 10.

use crate::fpm::{self, FpmInstance};
use crate::graph;
use linuxfp_ebpf::asm::Asm;
use linuxfp_ebpf::insn::{Action, AluOp, HelperId, MemSize};
use linuxfp_ebpf::maps::MapStore;
use linuxfp_ebpf::program::Program;
use linuxfp_json::Value;
use linuxfp_netstack::device::IfIndex;
use std::fmt;

/// A synthesized (not yet verified/loaded) fast path for one interface.
#[derive(Debug, Clone)]
pub struct SynthesizedFp {
    /// Target interface.
    pub ifindex: IfIndex,
    /// Interface name (for reporting).
    pub ifname: String,
    /// The program.
    pub program: Program,
    /// How many FPM instances were fused into the program.
    pub fpm_count: usize,
    /// The pipeline's FPM composition as a metric label, kinds joined
    /// with `+` in pipeline order (e.g. `router+filter`).
    pub fpm_label: String,
    /// The synthesizer's cacheability contract: whether the microflow
    /// verdict cache may record this program's verdicts. Template-only
    /// pipelines are cacheable (every helper they call is covered by the
    /// coherence generation); pipelines with inlined custom modules are
    /// not — custom bytecode can carry state the generation does not see.
    /// The loader's static helper scan independently rechecks this.
    pub cacheable: bool,
}

/// Synthesis failures (malformed graph or assembler errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthError(pub String);

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "synthesis failed: {}", self.0)
    }
}

impl std::error::Error for SynthError {}

/// Synthesizes one program per interface entry in the JSON graph.
///
/// # Errors
///
/// Fails on malformed graph entries or label errors in templates.
pub fn synthesize(graph_json: &Value) -> Result<Vec<SynthesizedFp>, SynthError> {
    synthesize_with_customs(graph_json, &[])
}

/// Like [`synthesize`], inlining user-supplied custom modules (paper
/// §VIII) at the entry of every program.
///
/// # Errors
///
/// Fails on malformed graph entries or label errors in templates.
pub fn synthesize_with_customs(
    graph_json: &Value,
    customs: &[fpm::CustomFpm],
) -> Result<Vec<SynthesizedFp>, SynthError> {
    let Some(interfaces) = graph_json.get("interfaces").and_then(Value::as_object) else {
        return Err(SynthError("graph missing interfaces object".into()));
    };
    let mut out = Vec::new();
    for (name, entry) in interfaces {
        let (ifindex, pipeline) =
            graph::pipeline_from_json(entry).map_err(|e| SynthError(format!("{name}: {e}")))?;
        if pipeline.is_empty() {
            continue;
        }
        fpm::validate_pipeline(&pipeline).map_err(|e| SynthError(format!("{name}: {e}")))?;
        let fpm_label = fpm_label(&pipeline);
        let mut asm = Asm::new();
        let fpm_count = fpm::emit_pipeline_with_customs(&mut asm, &pipeline, customs);
        let insns = asm
            .finish()
            .map_err(|e| SynthError(format!("{name}: {e}")))?;
        out.push(SynthesizedFp {
            ifindex,
            ifname: name.clone(),
            program: Program::new(format!("linuxfp_{name}"), insns),
            fpm_count,
            fpm_label,
            cacheable: customs.is_empty(),
        });
    }
    Ok(out)
}

/// Synthesizes a single-interface pipeline directly (bypassing the JSON
/// model); used by the minimality ablation, the optimizer's shrink
/// floors and `linuxfp_opt_dump`.
///
/// # Errors
///
/// Fails on assembler label errors.
pub fn synthesize_pipeline(
    ifindex: IfIndex,
    name: &str,
    pipeline: &[FpmInstance],
) -> Result<SynthesizedFp, SynthError> {
    let mut asm = Asm::new();
    let fpm_count = fpm::emit_pipeline(&mut asm, pipeline);
    let insns = asm.finish().map_err(|e| SynthError(e.to_string()))?;
    Ok(SynthesizedFp {
        ifindex,
        ifname: name.to_string(),
        program: Program::new(format!("linuxfp_{name}"), insns),
        fpm_count,
        fpm_label: fpm_label(pipeline),
        cacheable: true,
    })
}

/// The metric label naming a pipeline's FPM composition.
fn fpm_label(pipeline: &[FpmInstance]) -> String {
    pipeline
        .iter()
        .map(|p| p.kind().key())
        .collect::<Vec<_>>()
        .join("+")
}

/// Emits one "trivial network function" snippet: reads a packet byte and
/// folds it into `r9` (cheap, but not removable — there is no optimizer).
fn emit_trivial_nf(a: &mut Asm, index: usize) {
    a.load(MemSize::B, 2, 6, 0);
    a.alu_imm(AluOp::Xor, 2, index as i64 & 0xFF);
    a.alu_reg(AluOp::Add, 9, 2);
}

/// Emits the terminal function of the Fig. 10 chain: "modifies the
/// Ethernet and IP headers and then uses XDP_REDIRECT" (paper §VI-B) —
/// a full MAC rewrite plus the TTL decrement with incremental checksum.
fn emit_chain_terminal(a: &mut Asm, out_if: u32) {
    fpm::emit_guard(a, 34);
    // Rewrite both MACs to fixed next-hop addresses.
    a.mov_imm(2, 0x0202_0202);
    a.store(MemSize::W, 6, 0, 2);
    a.mov_imm(2, 0x0202);
    a.store(MemSize::H, 6, 4, 2);
    a.mov_imm(2, 0x0303_0303);
    a.store(MemSize::W, 6, 6, 2);
    a.mov_imm(2, 0x0303);
    a.store(MemSize::H, 6, 10, 2);
    // Guard the TTL > 1 invariant the decrement snippet assumes.
    a.load(MemSize::B, 2, 6, 22);
    a.jmp_imm(linuxfp_ebpf::insn::JmpCond::Lt, 2, 2, "pass");
    fpm::emit_ttl_decrement(a);
    a.mov_imm(1, i64::from(out_if));
    a.mov_imm(2, 0);
    a.call(HelperId::Redirect);
    a.exit();
}

/// Builds the paper's Fig. 10 microbenchmark data path with **inlined
/// function calls**: one program containing `n` trivial NFs followed by
/// the rewrite+redirect terminal.
pub fn trivial_chain_inline(n: usize, out_if: u32) -> Program {
    let mut a = Asm::new();
    fpm::emit_prologue(&mut a);
    fpm::emit_guard(&mut a, 34);
    a.mov_imm(9, 0);
    for i in 0..n {
        emit_trivial_nf(&mut a, i);
    }
    emit_chain_terminal(&mut a, out_if);
    fpm::emit_exits(&mut a);
    Program::new(
        format!("chain_inline_{n}"),
        a.finish().expect("valid labels"),
    )
}

/// Builds the same chain with **tail calls**: `n` programs each running
/// one trivial NF and tail-calling the next slot, ending in the terminal
/// program. Returns the entry program; the rest are installed into
/// `maps`' program array (returned id).
pub fn trivial_chain_tailcalls(
    n: usize,
    out_if: u32,
    maps: &MapStore,
) -> (Program, linuxfp_ebpf::maps::MapId) {
    let prog_array = maps.create_prog_array(n + 1);
    // Stage programs 1..n and the terminal at slot n.
    for i in 1..=n {
        let mut a = Asm::new();
        // Every tail-called program must re-derive its pointers — the
        // real mechanism's per-program overhead.
        fpm::emit_prologue(&mut a);
        fpm::emit_guard(&mut a, 34);
        a.mov_imm(9, 0);
        if i < n {
            emit_trivial_nf(&mut a, i);
            a.mov_imm(0, Action::Pass.code() as i64);
            a.tail_call(prog_array.0, i as u32 + 1);
            a.exit();
        } else {
            emit_chain_terminal(&mut a, out_if);
        }
        fpm::emit_exits(&mut a);
        let prog = linuxfp_ebpf::program::LoadedProgram::load(Program::new(
            format!("chain_tc_{i}"),
            a.finish().expect("valid labels"),
        ))
        .expect("chain programs verify");
        maps.prog_array_set(prog_array, i, Some(prog))
            .expect("slot in range");
    }
    // Entry program (NF 0).
    let mut a = Asm::new();
    fpm::emit_prologue(&mut a);
    fpm::emit_guard(&mut a, 34);
    a.mov_imm(9, 0);
    if n == 0 {
        emit_chain_terminal(&mut a, out_if);
    } else {
        emit_trivial_nf(&mut a, 0);
        a.mov_imm(0, Action::Pass.code() as i64);
        a.tail_call(prog_array.0, 1);
        a.exit();
    }
    fpm::emit_exits(&mut a);
    (
        Program::new(
            "chain_tc_entry".to_string(),
            a.finish().expect("valid labels"),
        ),
        prog_array,
    )
}

/// A jump-free sanity helper used in tests: whether a program contains a
/// call to the given helper.
pub fn program_calls(program: &Program, helper: HelperId) -> bool {
    program
        .insns
        .iter()
        .any(|i| matches!(i, linuxfp_ebpf::insn::Insn::Call { helper: h } if *h == helper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::Capabilities;
    use crate::graph::build_graph;
    use crate::objects::ObjectStore;
    use linuxfp_ebpf::program::LoadedProgram;
    use linuxfp_netstack::netfilter::{ChainHook, IptRule};
    use linuxfp_netstack::stack::{IfAddr, Kernel};
    use std::net::Ipv4Addr;

    fn gateway_kernel() -> Kernel {
        let mut k = Kernel::new(4);
        let eth0 = k.add_physical("eth0").unwrap();
        let eth1 = k.add_physical("eth1").unwrap();
        k.ip_addr_add(eth0, "10.0.1.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_addr_add(eth1, "10.0.2.1/24".parse::<IfAddr>().unwrap())
            .unwrap();
        k.ip_link_set_up(eth0).unwrap();
        k.ip_link_set_up(eth1).unwrap();
        k.sysctl_set("net.ipv4.ip_forward", 1).unwrap();
        k.ip_route_add(
            "10.10.0.0/16".parse().unwrap(),
            Some(Ipv4Addr::new(10, 0, 2, 2)),
            None,
        )
        .unwrap();
        k.iptables_append(
            ChainHook::Forward,
            IptRule::drop_dst("10.10.3.0/24".parse().unwrap()),
        );
        k
    }

    #[test]
    fn synthesizes_verifiable_programs_from_graph() {
        let k = gateway_kernel();
        let store = ObjectStore::snapshot(&k);
        let graph = build_graph(&store, &Capabilities::full());
        let fps = synthesize(&graph).unwrap();
        assert_eq!(fps.len(), 2);
        for fp in &fps {
            assert_eq!(fp.fpm_count, 2, "{}: router+filter", fp.ifname);
            let loaded = LoadedProgram::load(fp.program.clone())
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", fp.ifname));
            assert!(loaded.len() > 30);
            assert!(program_calls(&fp.program, HelperId::FibLookup));
            assert!(program_calls(&fp.program, HelperId::IptLookup));
            assert!(program_calls(&fp.program, HelperId::Redirect));
            assert!(!program_calls(&fp.program, HelperId::FdbLookup));
        }
    }

    #[test]
    fn l7_policies_add_the_policy_helper_call() {
        use linuxfp_netstack::l7::{L7Action, L7Policy};
        let mut k = gateway_kernel();
        k.l7_policy_append(L7Policy::prefix(b"/admin", L7Action::Deny));
        let store = ObjectStore::snapshot(&k);
        let graph = build_graph(&store, &Capabilities::full());
        let fps = synthesize(&graph).unwrap();
        assert_eq!(fps.len(), 2);
        for fp in &fps {
            assert_eq!(fp.fpm_count, 3, "{}: router+l7+filter", fp.ifname);
            LoadedProgram::load(fp.program.clone())
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", fp.ifname));
            assert!(program_calls(&fp.program, HelperId::L7PolicyLookup));
        }
    }

    #[test]
    fn minimality_no_filter_module_without_rules() {
        let mut k = gateway_kernel();
        k.iptables_flush(ChainHook::Forward);
        let store = ObjectStore::snapshot(&k);
        let graph = build_graph(&store, &Capabilities::full());
        let fps = synthesize(&graph).unwrap();
        for fp in &fps {
            assert_eq!(fp.fpm_count, 1);
            assert!(!program_calls(&fp.program, HelperId::IptLookup));
        }
    }

    #[test]
    fn malformed_graph_is_an_error() {
        assert!(synthesize(&linuxfp_json::json!({})).is_err());
        assert!(synthesize(&linuxfp_json::json!({"interfaces": {"x": {}}})).is_err());
        let empty = synthesize(&linuxfp_json::json!({"interfaces": {}})).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn inline_chain_grows_slowly_with_n() {
        let p1 = trivial_chain_inline(1, 2);
        let p16 = trivial_chain_inline(16, 2);
        LoadedProgram::load(p1.clone()).unwrap();
        LoadedProgram::load(p16.clone()).unwrap();
        // Each trivial NF is 3 instructions.
        assert_eq!(p16.len() - p1.len(), 45);
    }

    #[test]
    fn tailcall_chain_verifies_and_fills_slots() {
        let maps = MapStore::new();
        let (entry, pa) = trivial_chain_tailcalls(4, 2, &maps);
        LoadedProgram::load(entry).unwrap();
        for slot in 1..=4 {
            assert!(maps.prog_array_get(pa, slot).is_some(), "slot {slot}");
        }
        assert!(maps.prog_array_get(pa, 0).is_none());
    }

    #[test]
    fn error_display() {
        assert!(SynthError("x".into()).to_string().contains("x"));
    }
}
