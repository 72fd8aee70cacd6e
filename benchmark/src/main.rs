//! Two-clock benchmark for the LinuxFP reproduction.
//!
//! Host time (what the simulator's Rust code costs) and modelled time
//! (what the calibrated cost model says the datapath costs) end to end
//! on seven named workloads, plus a traced pass that times every
//! layer's public functions from outside. See `README.md`.

mod alloc;
mod child;
mod compare;
mod layers;
mod results;
mod stats;
mod suite;
mod trace;
mod workloads;

use crate::results::{ResultFile, WorkloadEntry, ISSUE};
use crate::workloads::WorkloadId;
use linuxfp_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark check <a.json> <b.json>
       benchmark selfcheck [--seed N] [--seconds S]

run        without --workload: all seven workloads, untraced then traced,
           written to benchmark/results/BENCH_11.json.
           with --workload: that workload only (--trace 0 untraced, --trace 1
           traced); the last line of stdout is one JSON object.
--seed     permutes flow order and source ports (default 11).
--seconds  host time one workload measures for, split over 3 repetitions
           (default: run_seconds of BENCHMARK.json).
--quick    0.3 s windows, 1 repetition; smoke use only, output marked not
           comparable and written to benchmark/out/quick.json.
check      compares b against a with the bounds in BENCHMARK.json; exits 1
           on any worse row.
selfcheck  runs the untraced suite twice and applies the same rule.";

/// Default for `--seed`.
const DEFAULT_SEED: u64 = 11;

/// The checkout root: the working directory when it holds
/// `BENCHMARK.json` (how the driver and the README run the benchmark),
/// else the directory above this package as it was when built.
fn repo_root() -> PathBuf {
    if Path::new("BENCHMARK.json").is_file() && Path::new("benchmark").is_dir() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// This package's directory; `out/` and `results/` live under it.
pub fn benchmark_dir() -> PathBuf {
    repo_root().join("benchmark")
}

fn load_manifest() -> Result<Value, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    linuxfp_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parsed flags of `run`, `selfcheck` and the internal `child`.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<WorkloadId>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    mode: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workload = Some(
                    WorkloadId::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds `{v}` outside (0, 600]"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => flags.quick = true,
            "--mode" => flags.mode = Some(value("--mode")?),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// Repetitions, seconds per workload and comparability of a run.
struct Plan {
    seed: u64,
    reps: usize,
    seconds: f64,
    comparable: bool,
}

impl Plan {
    fn new(flags: &Flags) -> Result<Plan, String> {
        let seed = flags.seed.unwrap_or(DEFAULT_SEED);
        if flags.quick {
            return Ok(Plan {
                seed,
                reps: 1,
                seconds: 0.3,
                comparable: false,
            });
        }
        let seconds = match flags.seconds {
            Some(s) => s,
            None => load_manifest()?["run_seconds"]
                .as_f64()
                .ok_or("BENCHMARK.json lacks `run_seconds`")?,
        };
        Ok(Plan {
            seed,
            reps: suite::REPETITIONS,
            seconds,
            comparable: true,
        })
    }

    fn window_s(&self) -> f64 {
        self.seconds / self.reps as f64
    }

    fn result_file(&self, workloads: BTreeMap<String, WorkloadEntry>) -> ResultFile {
        ResultFile {
            issue: ISSUE,
            comparable: self.comparable,
            seed: self.seed,
            window_s: self.window_s(),
            repetitions: self.reps as u64,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            workloads,
        }
    }
}

fn print_entry(id: WorkloadId, entry: &WorkloadEntry, first_mismatch: Option<&str>) {
    println!("{} — {}", id.name(), id.why());
    for (metric, _) in suite::END_TO_END {
        let m = &entry.end_to_end[metric];
        println!(
            "  {metric:<22} {:>18.4} {:<8} reps {:?}",
            m.value, m.unit, m.reps
        );
    }
    for (metric, value) in &entry.diagnostics {
        println!("  {metric:<22} {value:>18.4}          (diagnostic)");
    }
    println!(
        "  attempted {}, failed {}, correct {}",
        entry.attempted, entry.failed, entry.correct
    );
    if let Some(m) = first_mismatch {
        println!("  first mismatch: {m}");
    }
}

fn print_per_layer(name: &str, per_layer: &Map) {
    println!("{name} (traced pass)");
    for (metric, m) in per_layer {
        let value = m["value"].as_f64().unwrap_or_default();
        if value != 0.0 {
            println!(
                "  {metric:<44} {value:>18.4} {}",
                m["unit"].as_str().unwrap_or_default()
            );
        }
    }
}

/// The contract's result line for one workload run.
fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: Map) -> String {
    json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    })
    .to_string()
}

/// `run --workload W`: one workload, one pass, one result line.
fn run_one(id: WorkloadId, plan: &Plan, traced: bool) -> Result<ExitCode, String> {
    if traced {
        let report = suite::run_traced(id, plan.seed, plan.seconds)?;
        let per_layer = report["per_layer"]
            .as_object()
            .ok_or("traced child reported no per-layer metrics")?;
        print_per_layer(id.name(), per_layer);
        println!("  spans written to {}", report["trace_file"]);
        let failed = report["window_failed"].as_u64().unwrap_or(u64::MAX);
        let correct = failed == 0 && report["ledger_ok"] == true;
        let attempted = report["ops"].as_u64().unwrap_or(0);
        println!(
            "{}",
            driver_line(correct, attempted, failed, per_layer.clone())
        );
        return Ok(ExitCode::SUCCESS);
    }
    let (entry, mismatch) = suite::run_timed(id, plan.seed, plan.window_s(), plan.reps)?;
    print_entry(id, &entry, mismatch.as_deref());
    let metrics: Map = entry
        .end_to_end
        .iter()
        .filter(|(name, _)| *name != "failed_op_share")
        .map(|(name, m)| {
            (
                name.clone(),
                json!({ "value": m.value, "unit": m.unit.as_str() }),
            )
        })
        .collect();
    println!(
        "{}",
        driver_line(entry.correct, entry.attempted, entry.failed, metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// The untraced pass over all seven workloads.
fn timed_suite(plan: &Plan) -> Result<BTreeMap<String, WorkloadEntry>, String> {
    let mut workloads = BTreeMap::new();
    for id in WorkloadId::ALL {
        let (entry, mismatch) = suite::run_timed(id, plan.seed, plan.window_s(), plan.reps)?;
        print_entry(id, &entry, mismatch.as_deref());
        workloads.insert(id.name().to_string(), entry);
    }
    Ok(workloads)
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let plan = Plan::new(flags)?;
    if let Some(id) = flags.workload {
        return run_one(id, &plan, flags.trace);
    }
    let mut workloads = timed_suite(&plan)?;
    for id in WorkloadId::ALL {
        let report = suite::run_traced(id, plan.seed, plan.seconds)?;
        let per_layer = report["per_layer"]
            .as_object()
            .ok_or("traced child reported no per-layer metrics")?;
        print_per_layer(id.name(), per_layer);
        let entry = workloads.get_mut(id.name()).expect("timed above");
        for (metric, m) in per_layer {
            entry.per_layer.insert(
                metric.clone(),
                (
                    m["value"].as_f64().unwrap_or_default(),
                    m["unit"].as_str().unwrap_or_default().to_string(),
                ),
            );
        }
        if report["window_failed"] != 0u64 || report["ledger_ok"] != true {
            entry.correct = false;
        }
    }
    let all_correct = workloads.values().all(|w| w.correct);
    let file = plan.result_file(workloads);
    let path = if plan.comparable {
        benchmark_dir()
            .join("results")
            .join(format!("BENCH_{ISSUE}.json"))
    } else {
        println!("--quick: smoke run, numbers NOT comparable");
        benchmark_dir().join("out").join("quick.json")
    };
    file.save(&path)?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: an output check failed (see `correct` above)");
        ExitCode::FAILURE
    })
}

/// Compares `b` against `a` and prints the table.
fn report_comparison(a: &ResultFile, b: &ResultFile) -> Result<ExitCode, String> {
    if !(a.comparable && b.comparable) {
        eprintln!("benchmark: warning: a --quick result is not comparable");
    }
    if a.seed != b.seed {
        eprintln!(
            "benchmark: seeds differ ({} vs {}): virt_ns_per_op held to its relative bound",
            a.seed, b.seed
        );
    }
    let bounds = compare::load_bounds(&load_manifest()?)?;
    let rows = compare::compare(a, b, &bounds)?;
    Ok(if compare::print_rows(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn check(flags: &Flags) -> Result<ExitCode, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err(format!("check takes two result files\n{USAGE}"));
    };
    let a = ResultFile::load(Path::new(a))?;
    let b = ResultFile::load(Path::new(b))?;
    report_comparison(&a, &b)
}

fn selfcheck(flags: &Flags) -> Result<ExitCode, String> {
    let plan = Plan::new(flags)?;
    let mut files = Vec::new();
    for label in ["a", "b"] {
        println!("selfcheck: set {label}");
        let file = plan.result_file(timed_suite(&plan)?);
        file.save(
            &benchmark_dir()
                .join("out")
                .join(format!("selfcheck-{label}.json")),
        )?;
        files.push(file);
    }
    report_comparison(&files[0], &files[1])
}

fn child(flags: &Flags) -> Result<ExitCode, String> {
    let id = flags.workload.ok_or("child needs --workload")?;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.ok_or("child needs --seconds")?;
    let report = match flags.mode.as_deref() {
        Some("oracle") => child::run_oracle(id, seed),
        Some("timed") => child::run_timed(id, seed, Duration::from_secs_f64(seconds)),
        Some("traced") => layers::run_traced(id, seed, seconds)?,
        other => return Err(format!("child --mode {other:?} unknown")),
    };
    println!("{report}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse_flags(rest).and_then(|flags| match command.as_str() {
        "run" => run(&flags),
        "check" => check(&flags),
        "selfcheck" => selfcheck(&flags),
        "child" => child(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver and `check` read; the names
    /// in it must be the names this binary prints.
    #[test]
    fn manifest_lists_exactly_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let manifest = linuxfp_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| manifest[key].as_array().expect(key).clone();
        let text_of = |v: &Value, key: &str| v[key].as_str().expect(key).to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WorkloadId::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, ours);

        // All end-to-end metrics but `failed_op_share`, which is 0 by
        // construction and travels as `failed` / `attempted`.
        let end_to_end: Vec<(String, String)> = list("end_to_end")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let ours: Vec<(String, String)> = suite::END_TO_END
            .iter()
            .filter(|(n, _)| *n != "failed_op_share")
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(end_to_end, ours);
        let bounds = compare::load_bounds(&manifest).expect("bounds parse");
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));

        let mut per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        let mut ours: Vec<(String, String)> = layers::per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        per_layer.sort();
        ours.sort();
        assert_eq!(per_layer, ours);
        assert!(per_layer.len() <= 128);

        assert_eq!(manifest["paths"][0], "benchmark");
        assert_eq!(manifest["command"][0], "cargo");
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let f = parse_flags(&args(
            "--workload pod_to_pod --seed 12 --seconds 6 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload, Some(WorkloadId::PodToPod));
        assert_eq!((f.seed, f.seconds, f.trace), (Some(12), Some(6.0), true));
        assert!(parse_flags(&args("--workload nope")).is_err());
        assert!(parse_flags(&args("--seconds 0")).is_err());
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--frobnicate")).is_err());
        let f = parse_flags(&args("a.json b.json --quick")).unwrap();
        assert_eq!(f.positional, ["a.json", "b.json"]);
        assert!(f.quick);
    }
}
