//! Differential-fuzzing CLI.
//!
//! ```text
//! difftest run --seeds N [--start S] [--corpus DIR] [--shards N] [--opt 0|1]
//!                                                     sweep N seeded scenarios
//! difftest replay [--shards N] [--opt 0|1] FILE...
//!                                                     replay stored fixtures
//! ```
//!
//! Every scenario carries a datapath mode: RSS shards on both kernels
//! (`net.linuxfp.rss_shards`) and whether fast paths deploy optimized
//! (`net.linuxfp.opt`). A seed draws its mode — one of (1 or 4 shards) ×
//! (optimizer on or off) — so a sweep covers every combination; a
//! fixture replays in the mode it recorded (1 shard, optimizer on when it
//! records none). `--shards N` and `--opt 0|1` override the mode of every
//! scenario run; a divergence is shrunk, traced and written in the mode
//! it was found in.
//!
//! Exit status is non-zero on any divergence. `run` shrinks each failure
//! and, with `--corpus`, writes the minimal repro there as JSON.

use linuxfp_difftest::DiffScenario;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!(
                "usage: difftest run --seeds N [--start S] [--corpus DIR] [--shards N] [--opt 0|1]"
            );
            eprintln!("       difftest replay [--shards N] [--opt 0|1] FILE...");
            ExitCode::from(2)
        }
    }
}

fn parse_u64(args: &[String], flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1)?.parse().ok()
}

fn parse_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).map(String::as_str)
}

/// Applies the `--shards N` / `--opt 0|1` overrides to a scenario's mode.
fn override_mode(args: &[String], ds: &mut DiffScenario) {
    if let Some(shards) = parse_u64(args, "--shards") {
        ds.shards = shards as u32;
    }
    if let Some(opt) = parse_u64(args, "--opt") {
        ds.opt = opt != 0;
    }
}

/// The scenario's mode, for log lines.
fn mode(ds: &DiffScenario) -> String {
    let opt = if ds.opt { "on" } else { "off" };
    format!("rss_shards={}, opt={opt}", ds.shards)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let seeds = parse_u64(args, "--seeds").unwrap_or(200);
    let start = parse_u64(args, "--start").unwrap_or(0);
    let corpus = parse_str(args, "--corpus");

    let mut packets = 0usize;
    let mut failures = 0u32;
    let mut modes: BTreeMap<String, u32> = BTreeMap::new();
    for seed in start..start + seeds {
        let mut scenario = linuxfp_difftest::generate(seed);
        override_mode(args, &mut scenario);
        *modes.entry(mode(&scenario)).or_default() += 1;
        let outcome = linuxfp_difftest::run(&scenario);
        packets += outcome.packets;
        if let Some(div) = &outcome.divergence {
            failures += 1;
            eprintln!(
                "difftest: seed {seed} DIVERGED at op {} [{}] ({})",
                div.op,
                div.kind,
                mode(&scenario)
            );
            eprintln!("  {}", div.detail);
            let minimal = linuxfp_difftest::shrink(&scenario);
            eprintln!(
                "  shrunk to {} ops (from {})",
                minimal.ops.len(),
                scenario.ops.len()
            );
            // Re-run the minimal repro with the flight recorder forced
            // on and embed the diverging packet's trace (both kernels)
            // in the fixture, so the repro explains itself.
            let trace = linuxfp_difftest::run(&minimal)
                .divergence
                .as_ref()
                .and_then(|d| linuxfp_difftest::divergence_trace(&minimal, d));
            let mut doc = minimal.to_json_value();
            if let (Some(t), linuxfp_json::Value::Object(obj)) = (trace, &mut doc) {
                obj.insert("trace".to_string(), t);
            }
            let fixture = linuxfp_json::to_string_pretty(&doc);
            if let Some(dir) = corpus {
                let path = format!("{dir}/{}.json", minimal.name);
                match std::fs::write(&path, &fixture) {
                    Ok(()) => eprintln!("  wrote fixture {path}"),
                    Err(e) => eprintln!("  failed to write fixture {path}: {e}"),
                }
            } else {
                eprintln!("  minimal repro:\n{fixture}");
            }
        }
    }
    if failures > 0 {
        eprintln!("difftest: {failures}/{seeds} seeds diverged");
        return ExitCode::FAILURE;
    }
    let tally: Vec<String> = modes.iter().map(|(m, n)| format!("{n} at {m}")).collect();
    println!(
        "difftest: {seeds} seeds, {packets} packets, zero divergence ({})",
        tally.join("; ")
    );
    ExitCode::SUCCESS
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let mut skip_next = false;
    let files: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--shards" || *a == "--opt" {
                skip_next = true;
                return false;
            }
            true
        })
        .collect();
    if files.is_empty() {
        eprintln!("difftest replay: no fixture files given");
        return ExitCode::from(2);
    }
    let mut failures = 0u32;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("difftest: cannot read {file}: {e}");
                failures += 1;
                continue;
            }
        };
        let mut scenario = match DiffScenario::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("difftest: cannot parse {file}: {e}");
                failures += 1;
                continue;
            }
        };
        override_mode(args, &mut scenario);
        let outcome = linuxfp_difftest::run(&scenario);
        match &outcome.divergence {
            Some(div) => {
                failures += 1;
                eprintln!(
                    "difftest: {file} ({}) DIVERGED at op {} [{}] ({}): {}",
                    scenario.name,
                    div.op,
                    div.kind,
                    mode(&scenario),
                    div.detail
                );
            }
            None => println!(
                "difftest: {file} ({}) transparent, {} packets ({})",
                scenario.name,
                outcome.packets,
                mode(&scenario)
            ),
        }
    }
    if failures > 0 {
        eprintln!("difftest: {failures} fixture(s) diverged");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
