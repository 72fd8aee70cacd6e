//! Compiled-dispatch experiment: per-packet service time with the eBPF
//! programs running on the reference interpreter (`net.linuxfp.jit=0`)
//! vs their load-time compiled form (the default).
//!
//! The engines are parity-locked — identical verdicts, frames, and
//! instruction counts — so the only degree of freedom is the per-insn
//! dispatch price (`ebpf_insn_ns` vs `jit_insn_ns`). The workloads
//! bracket when that price matters:
//!
//! - a steady single flow is served by the microflow verdict cache in
//!   both modes after two misses (the second recorded), so the engines
//!   tie — the cache hides the interpreter;
//! - churn-heavy traffic (a route replaced before every burst) defeats
//!   the cache, so *every* packet pays full program execution and the
//!   compiled engine's cheaper dispatch shows up directly. This is the
//!   cache-miss cost ROADMAP open item 1 targets.

use crate::flow_cache::service_ns;
use crate::table::ExperimentTable;
use linuxfp_platforms::{LinuxFpPlatform, Scenario};

/// The `jit_dispatch` experiment: router service time at burst 32,
/// interpreted vs compiled, on cache-friendly and cache-defeating
/// workloads.
pub fn jit_dispatch_experiment() -> ExperimentTable {
    let scenario = Scenario::router();
    let mut table = ExperimentTable::new(
        "JIT dispatch",
        "Compiled vs interpreted eBPF: router service time at burst 32",
        &[
            "workload",
            "interpreted [ns/pkt]",
            "compiled [ns/pkt]",
            "speedup",
        ],
    );
    type FlowOf = Box<dyn Fn(u64) -> u64>;
    let workloads: [(&str, FlowOf, bool); 3] = [
        ("steady single flow", Box::new(|_| 0), false),
        ("steady 1k flows", Box::new(|i| i % 1000), false),
        ("churn-heavy", Box::new(|i| i % 1000), true),
    ];
    for (name, flow_of, churn) in workloads {
        let run = |jit_on: bool| {
            let mut lfp = LinuxFpPlatform::new(scenario);
            let mac = lfp.dut_mac();
            lfp.kernel_mut()
                .sysctl_set("net.linuxfp.jit", i64::from(jit_on))
                .expect("jit sysctl exists");
            service_ns(&mut lfp, scenario, mac, flow_of.as_ref(), churn)
        };
        let interp = run(false);
        let compiled = run(true);
        table.row(vec![
            name.to_string(),
            ExperimentTable::num(interp, 1),
            ExperimentTable::num(compiled, 1),
            ExperimentTable::num(interp / compiled, 2),
        ]);
    }
    table.note(
        "churn replaces a route before every burst, defeating the verdict cache; \
         every packet then pays program execution, where compiled dispatch is \
         ~3x cheaper per instruction",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_cache::BURST;

    #[test]
    fn compiled_cache_miss_beats_interpreted_by_twenty_percent() {
        let t = jit_dispatch_experiment();
        // The acceptance bar: on the cache-defeating workload, compiled
        // service time must be at least 20% below interpreted.
        let interp = t.value("churn-heavy", 1);
        let compiled = t.value("churn-heavy", 2);
        assert!(
            compiled <= interp * 0.8,
            "compiled churn-heavy {compiled:.1} ns/pkt not 20% under \
             interpreted {interp:.1}: {t}"
        );
        // Steady flows hit the verdict cache in both modes, so the
        // engines tie — the cache already hides dispatch cost.
        let steady_i = t.value("steady single flow", 1);
        let steady_c = t.value("steady single flow", 2);
        assert!(
            (steady_i - steady_c).abs() < 1e-6,
            "cache-served steady flow should tie: {t}"
        );
        // And the compiled engine never loses anywhere.
        for row in ["steady single flow", "steady 1k flows", "churn-heavy"] {
            assert!(t.value(row, 2) <= t.value(row, 1) + 1e-6, "{row}: {t}");
        }
    }

    #[test]
    fn burst_constant_matches_flow_cache_experiment() {
        // Both experiments must measure at the same NAPI burst so their
        // ns/pkt columns are comparable side by side.
        assert_eq!(BURST, 32);
    }
}
