//! The result file (`results/BENCH_<issue>.json`): written by `run`,
//! read back by `check`.

use linuxfp_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The issue that defined this benchmark; names the committed baseline.
pub const ISSUE: u64 = 11;

/// A reported value and the per-repetition values it is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    pub reps: Vec<f64>,
}

/// Everything one workload reported.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadEntry {
    pub end_to_end: BTreeMap<String, Measured>,
    /// Printed, never compared (`host_ns_per_op_p99`, `ops_per_s`,
    /// sample counts).
    pub diagnostics: BTreeMap<String, f64>,
    /// From the traced pass: `name → (value, unit)`.
    pub per_layer: BTreeMap<String, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// One run of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub issue: u64,
    /// False for `--quick` runs: their numbers are for smoke use only.
    pub comparable: bool,
    pub seed: u64,
    /// Timed window of one repetition, in seconds.
    pub window_s: f64,
    pub repetitions: u64,
    /// `std::thread::available_parallelism` where the run was made.
    pub nproc: u64,
    pub workloads: BTreeMap<String, WorkloadEntry>,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result file: `{key}` missing or not a number"))
}

fn object<'a>(v: &'a Value, key: &str) -> Result<&'a Map, String> {
    v.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("result file: `{key}` missing or not an object"))
}

impl ResultFile {
    pub fn to_json(&self) -> Value {
        let workloads: Map = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let end_to_end: Map = w
                    .end_to_end
                    .iter()
                    .map(|(n, m)| {
                        (
                            n.clone(),
                            json!({ "value": m.value, "unit": m.unit.as_str(), "reps": m.reps.clone() }),
                        )
                    })
                    .collect();
                let diagnostics: Map = w
                    .diagnostics
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::from(*v)))
                    .collect();
                let per_layer: Map = w
                    .per_layer
                    .iter()
                    .map(|(n, (v, u))| (n.clone(), json!({ "value": *v, "unit": u.as_str() })))
                    .collect();
                (
                    name.clone(),
                    json!({
                        "end_to_end": Value::Object(end_to_end),
                        "diagnostics": Value::Object(diagnostics),
                        "per_layer": Value::Object(per_layer),
                        "attempted": w.attempted,
                        "failed": w.failed,
                        "correct": w.correct,
                    }),
                )
            })
            .collect();
        json!({
            "issue": self.issue,
            "comparable": self.comparable,
            "seed": self.seed,
            "window_s": self.window_s,
            "repetitions": self.repetitions,
            "nproc": self.nproc,
            "workloads": Value::Object(workloads),
        })
    }

    pub fn from_json(v: &Value) -> Result<ResultFile, String> {
        let mut workloads = BTreeMap::new();
        for (name, w) in object(v, "workloads")? {
            let mut entry = WorkloadEntry {
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                correct: w.get("correct").and_then(Value::as_bool).unwrap_or(false),
                ..WorkloadEntry::default()
            };
            for (n, m) in object(w, "end_to_end")? {
                let reps = m
                    .get("reps")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("result file: {name}.{n} lacks `reps`"))?
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                entry.end_to_end.insert(
                    n.clone(),
                    Measured {
                        value: num(m, "value")?,
                        unit: m["unit"].as_str().unwrap_or_default().to_string(),
                        reps,
                    },
                );
            }
            for (n, d) in object(w, "diagnostics")? {
                entry
                    .diagnostics
                    .insert(n.clone(), d.as_f64().unwrap_or_default());
            }
            for (n, m) in object(w, "per_layer")? {
                let unit = m["unit"].as_str().unwrap_or_default().to_string();
                entry.per_layer.insert(n.clone(), (num(m, "value")?, unit));
            }
            workloads.insert(name.clone(), entry);
        }
        Ok(ResultFile {
            issue: num(v, "issue")? as u64,
            comparable: v
                .get("comparable")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            seed: num(v, "seed")? as u64,
            window_s: num(v, "window_s")?,
            repetitions: num(v, "repetitions")? as u64,
            nproc: num(v, "nproc")? as u64,
            workloads,
        })
    }

    pub fn load(path: &Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value =
            linuxfp_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultFile::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = linuxfp_json::to_string_pretty(&self.to_json());
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample() -> ResultFile {
        let mut entry = WorkloadEntry {
            attempted: 3_701_248,
            failed: 0,
            correct: true,
            ..WorkloadEntry::default()
        };
        entry.end_to_end.insert(
            "host_ns_per_op_p50".into(),
            Measured {
                value: 761.453125,
                unit: "ns".into(),
                reps: vec![761.453125, 762.6171875, 759.30078125],
            },
        );
        entry.end_to_end.insert(
            "setup_s".into(),
            Measured {
                value: 0.0043,
                unit: "s".into(),
                reps: vec![0.0041, 0.0043, 0.0047],
            },
        );
        entry.diagnostics.insert("ops_per_s".into(), 1_231_220.7);
        entry
            .per_layer
            .insert("ebpf.flowcache.hit_ratio".into(), (1.0, "ratio".into()));
        entry
            .per_layer
            .insert("bench.trace_overhead_pct".into(), (-0.25, "%".into()));
        ResultFile {
            issue: ISSUE,
            comparable: true,
            seed: 11,
            window_s: 3.0,
            repetitions: 3,
            nproc: 2,
            workloads: BTreeMap::from([("router_steady".to_string(), entry)]),
        }
    }

    #[test]
    fn result_file_round_trips_through_linuxfp_json() {
        let file = sample();
        let text = linuxfp_json::to_string_pretty(&file.to_json());
        let parsed = linuxfp_json::from_str(&text).expect("renders valid JSON");
        assert_eq!(ResultFile::from_json(&parsed).expect("well-formed"), file);
        // Whole numbers must come back as numbers, not be lost as ints.
        let compact = file.to_json().to_string();
        let parsed = linuxfp_json::from_str(&compact).expect("renders valid JSON");
        assert_eq!(ResultFile::from_json(&parsed).expect("well-formed"), file);
    }

    #[test]
    fn malformed_files_are_rejected_with_the_missing_key() {
        let err = ResultFile::from_json(&json!({ "issue": 11 })).unwrap_err();
        assert!(err.contains("workloads"), "{err}");
        let mut v = sample().to_json();
        if let Value::Object(m) = &mut v {
            m.remove("seed");
        }
        assert!(ResultFile::from_json(&v).unwrap_err().contains("seed"));
    }
}
