//! The paper-artifact harness: one function per table, figure and
//! ablation of the LinuxFP paper's evaluation, each returning a
//! printable [`table::ExperimentTable`].
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! cargo run -p linuxfp-bench --bin repro --release          # all experiments
//! cargo run -p linuxfp-bench --bin repro --release -- fig5  # one experiment
//! ```
//!
//! | id | paper artifact | function |
//! |---|---|---|
//! | `fig1` | Fig. 1 flame graph | [`control::fig1_flame_profile`] |
//! | `table1` | Table I acceleration model | [`control::table1_acceleration_model`] |
//! | `table2` | Table II platform comparison | [`control::table2_platform_comparison`] |
//! | `fig5` | Fig. 5 router throughput vs cores | [`vnf::fig5_router_throughput`] |
//! | `table3` | Table III router RTT | [`vnf::table3_router_latency`] |
//! | `fig6` | Fig. 6 throughput vs packet size | [`vnf::fig6_packet_size_sweep`] |
//! | `fig7` | Fig. 7 gateway throughput vs cores | [`vnf::fig7_gateway_throughput`] |
//! | `table4` | Table IV gateway RTT | [`vnf::table4_gateway_latency`] |
//! | `fig8` | Fig. 8 throughput vs filter rules | [`vnf::fig8_rules_sweep`] |
//! | `fig9` | Fig. 9 pod-to-pod throughput | [`pods::fig9_pod_throughput`] |
//! | `table5` | Table V pod-to-pod latency | [`pods::table5_pod_latency`] |
//! | `table6` | Table VI reaction time | [`control::table6_reaction_time`] |
//! | `fig10` | Fig. 10 calls vs tail calls | [`hooks::fig10_call_vs_tailcall`] |
//! | `table7` | Table VII XDP vs TC | [`hooks::table7_hook_comparison`] |
//! | `ablation_state` | state-sharing ablation | [`ablations::ablation_state_sharing`] |
//! | `ablation_minimal` | minimality ablation | [`ablations::ablation_minimality`] |

pub mod ablations;
pub mod control;
pub mod hooks;
pub mod pods;
pub mod table;
pub mod vnf;

pub use table::ExperimentTable;

/// Runs one experiment by id; `None` for unknown ids.
pub fn run_experiment(id: &str) -> Option<ExperimentTable> {
    Some(match id {
        "fig1" => control::fig1_flame_profile(),
        "table1" => control::table1_acceleration_model(),
        "table2" => control::table2_platform_comparison(),
        "fig5" => vnf::fig5_router_throughput(6),
        "table3" => vnf::table3_router_latency(),
        "fig6" => vnf::fig6_packet_size_sweep(),
        "fig7" => vnf::fig7_gateway_throughput(6),
        "table4" => vnf::table4_gateway_latency(),
        "fig8" => vnf::fig8_rules_sweep(),
        "fig9" => pods::fig9_pod_throughput(10),
        "table5" => pods::table5_pod_latency(),
        "table6" => control::table6_reaction_time(),
        "fig10" => hooks::fig10_call_vs_tailcall(),
        "table7" => hooks::table7_hook_comparison(),
        "ablation_state" => ablations::ablation_state_sharing(16),
        "ablation_minimal" => ablations::ablation_minimality(),
        _ => return None,
    })
}

/// All experiment ids: the paper's artifacts in paper order, followed by
/// the design-decision ablations DESIGN.md calls out.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "table1",
    "table2",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "table4",
    "fig8",
    "fig9",
    "table5",
    "table6",
    "fig10",
    "table7",
    "ablation_state",
    "ablation_minimal",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs() {
        // Smoke test of the cheap experiments; the heavier assertions
        // live in the per-module tests.
        for id in ["table2", "fig1"] {
            let t = run_experiment(id).expect("known id");
            assert!(!t.rows.is_empty(), "{id} produced no rows");
        }
        assert!(run_experiment("fig99").is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 16);
    }
}
