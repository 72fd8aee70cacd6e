//! The comparator behind `check` and `selfcheck`: one verdict per
//! end-to-end metric × workload, against the bounds `BENCHMARK.json`
//! fixes.

use crate::results::{Measured, ResultFile};
use crate::stats::relative_spread;
use linuxfp_json::Value;
use std::fmt;

/// Modelled time is deterministic per seed: two runs of the same seed
/// may differ by float noise only.
pub const VIRT_TOLERANCE_NS: f64 = 0.05;

/// How `b` (the change) reads against `a` (the parent) on one metric of
/// one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or — where the repetitions spread
    /// wider than the bound — every repetition of `b` beats every
    /// repetition of `a`.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// The median is worse by more than the bound.
    Worse,
    /// Not worse by the bound, but the repetitions of one side spread
    /// wider than the bound: "unchanged" cannot be claimed.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(manifest: &Value) -> Result<Vec<Bound>, String> {
    let list = manifest
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks an `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or("end_to_end entry lacks `name`")?;
            let lower_is_better = match m["better"].as_str() {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: `better` must be lower or higher")),
            };
            let bound = m["bound"]
                .as_f64()
                .ok_or_else(|| format!("{name}: `bound` missing"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// The general rule, on medians and per-repetition values.
pub fn judge(bound: &Bound, a: &Measured, b: &Measured) -> Verdict {
    let beats = |x: f64, y: f64| {
        if bound.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    // Positive when `b` is worse, as a share of the parent's median.
    let worse_by = if bound.lower_is_better {
        (b.value - a.value) / a.value.abs()
    } else {
        (a.value - b.value) / a.value.abs()
    };
    if worse_by > bound.bound {
        return Verdict::Worse;
    }
    let spread = relative_spread(&a.reps).max(relative_spread(&b.reps));
    if spread > bound.bound {
        let every_rep_beats = b.reps.iter().all(|y| a.reps.iter().all(|x| beats(*y, *x)));
        return if every_rep_beats {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Modelled time between two runs of the same seed: exact up to
/// [`VIRT_TOLERANCE_NS`].
pub fn judge_virt(a: f64, b: f64) -> Verdict {
    if (b - a).abs() <= VIRT_TOLERANCE_NS {
        Verdict::WithinBound
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

/// `failed_op_share`: 0 absolute — any rise is a regression.
pub fn judge_failed_share(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Worse
    } else if b < a {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One line of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Compares every end-to-end metric × workload of `b` against `a`.
/// `virt_ns_per_op` is held to the absolute tolerance when both runs
/// used one seed, and to its `BENCHMARK.json` bound otherwise (flow
/// order and ports may then legitimately move it).
pub fn compare(a: &ResultFile, b: &ResultFile, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (workload, wa) in &a.workloads {
        let wb = b
            .workloads
            .get(workload)
            .ok_or_else(|| format!("second file lacks workload `{workload}`"))?;
        for (metric, ma) in &wa.end_to_end {
            let mb = wb
                .end_to_end
                .get(metric)
                .ok_or_else(|| format!("second file lacks {workload}.{metric}"))?;
            let verdict = match metric.as_str() {
                "failed_op_share" => judge_failed_share(ma.value, mb.value),
                "virt_ns_per_op" if a.seed == b.seed => judge_virt(ma.value, mb.value),
                _ => {
                    let bound = bounds
                        .iter()
                        .find(|x| x.name == *metric)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for `{metric}`"))?;
                    judge(bound, ma, mb)
                }
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: ma.value,
                b: mb.value,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; returns whether any row is worse.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "b vs a"
    );
    for r in rows {
        let change = if r.a == 0.0 {
            "      n/a".to_string()
        } else {
            format!("{:>+8.2}%", (r.b - r.a) / r.a.abs() * 100.0)
        };
        println!(
            "{:<16} {:<20} {:>16.4} {:>16.4} {change}  {}",
            r.workload, r.metric, r.a, r.b, r.verdict
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    worse > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::WorkloadEntry;
    use linuxfp_json::json;
    use std::collections::BTreeMap;

    fn m(reps: &[f64]) -> Measured {
        Measured {
            value: crate::stats::median(reps),
            unit: "ns".into(),
            reps: reps.to_vec(),
        }
    }

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "host_ns_per_op_p50".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn within_bound_when_tight_and_close() {
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 101.0, 99.0]),
            &m(&[103.0, 104.0, 102.0]),
        );
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn worse_when_median_exceeds_bound_even_if_noisy() {
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 101.0, 99.0]),
            &m(&[108.0, 109.0, 107.5]),
        );
        assert_eq!(v, Verdict::Worse);
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 130.0, 90.0]),
            &m(&[120.0, 150.0, 95.0]),
        );
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn better_when_tight_and_improved_past_the_bound() {
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 101.0, 99.0]),
            &m(&[90.0, 91.0, 89.0]),
        );
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn unresolved_when_spread_wider_than_bound_and_runs_overlap() {
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 120.0, 95.0]),
            &m(&[101.0, 99.0, 97.0]),
        );
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn better_despite_spread_when_every_run_beats_every_parent_run() {
        let v = judge(
            &lower(0.07),
            &m(&[100.0, 120.0, 95.0]),
            &m(&[80.0, 90.0, 70.0]),
        );
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let b = Bound {
            name: "ops_per_s".into(),
            lower_is_better: false,
            bound: 0.05,
        };
        assert_eq!(
            judge(&b, &m(&[100.0, 100.5, 99.5]), &m(&[90.0, 90.5, 89.5])),
            Verdict::Worse
        );
        assert_eq!(
            judge(&b, &m(&[100.0, 100.5, 99.5]), &m(&[110.0, 110.5, 109.5])),
            Verdict::Better
        );
    }

    #[test]
    fn modelled_time_is_exact_up_to_float_noise() {
        assert_eq!(judge_virt(246.25, 246.25), Verdict::WithinBound);
        assert_eq!(judge_virt(246.25, 246.29), Verdict::WithinBound);
        assert_eq!(judge_virt(246.25, 246.31), Verdict::Worse);
        assert_eq!(judge_virt(246.25, 240.0), Verdict::Better);
    }

    #[test]
    fn any_rise_in_failed_share_is_worse() {
        assert_eq!(judge_failed_share(0.0, 0.0), Verdict::WithinBound);
        assert_eq!(judge_failed_share(0.0, 1e-9), Verdict::Worse);
        assert_eq!(judge_failed_share(0.01, 0.0), Verdict::Better);
    }

    #[test]
    fn bounds_parse_from_the_manifest_and_reject_bad_directions() {
        let manifest = json!({
            "end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
                {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.05},
            ]
        });
        let bounds = load_bounds(&manifest).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert_eq!(bounds[0].bound, 0.15);
        let bad = json!({"end_to_end": [{"name": "x", "better": "sideways", "bound": 0.1}]});
        assert!(load_bounds(&bad).is_err());
        assert!(load_bounds(&json!({})).is_err());
    }

    fn file(seed: u64, p50: &[f64], virt: f64, failed_share: f64) -> ResultFile {
        let mut e = WorkloadEntry::default();
        e.end_to_end.insert("host_ns_per_op_p50".into(), m(p50));
        e.end_to_end.insert("virt_ns_per_op".into(), m(&[virt]));
        e.end_to_end
            .insert("failed_op_share".into(), m(&[failed_share]));
        ResultFile {
            issue: 11,
            comparable: true,
            seed,
            window_s: 3.0,
            repetitions: 3,
            nproc: 2,
            workloads: BTreeMap::from([("router_steady".to_string(), e)]),
        }
    }

    #[test]
    fn compare_applies_each_metrics_own_rule() {
        let bounds = vec![
            lower(0.07),
            Bound {
                name: "virt_ns_per_op".into(),
                lower_is_better: true,
                bound: 0.01,
            },
        ];
        let a = file(11, &[100.0, 101.0, 99.0], 246.25, 0.0);
        // Same seed: modelled time 0.1 ns off is worse, whatever the
        // relative bound says.
        let b = file(11, &[100.5, 101.0, 99.0], 246.35, 0.0);
        let rows = compare(&a, &b, &bounds).unwrap();
        let verdict =
            |rows: &[Row], metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict(&rows, "host_ns_per_op_p50"), Verdict::WithinBound);
        assert_eq!(verdict(&rows, "virt_ns_per_op"), Verdict::Worse);
        assert_eq!(verdict(&rows, "failed_op_share"), Verdict::WithinBound);
        assert!(print_rows(&rows));
        // Another seed: the relative bound applies.
        let c = file(12, &[100.5, 101.0, 99.0], 246.35, 0.0);
        let rows = compare(&a, &c, &bounds).unwrap();
        assert_eq!(verdict(&rows, "virt_ns_per_op"), Verdict::WithinBound);
        assert!(!print_rows(&rows));
        // A missing workload or metric is an error, not a pass.
        let mut d = c.clone();
        d.workloads.clear();
        assert!(compare(&a, &d, &bounds).is_err());
    }
}
