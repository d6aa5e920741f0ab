//! The repository's benchmark: six workloads, the end-to-end metrics a
//! user of the simulator feels, and a per-layer ledger from a traced
//! run. `README.md` beside this file is the glossary and the method.
//!
//! ```text
//! benchmark [run] --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out <file>] [--smoke]
//! benchmark trace --workload <name> …          (the same as --trace 1)
//! benchmark compare <a.json…> -- <b.json…>
//! benchmark self-check [<BENCHMARK.json> [<README.md>]]
//! benchmark list
//! ```
//!
//! It drives the library crates only through their public functions and
//! shares no code with `netfi_bench`: its clock, statistics and JSON are
//! its own, so a change to the harness cannot move its numbers.

mod campaigns;
mod compare;
mod host;
mod json;
mod ledger;
mod probe;
mod registry;
mod run;
mod selfcheck;
mod simload;
mod stats;

use run::RunArgs;
use std::process::ExitCode;

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| bad("a number of seconds from 0 to 600"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required (see `benchmark list`)".to_string());
    }
    Ok(out)
}

fn self_check(args: &[String]) -> Result<bool, String> {
    let manifest_path = args.first().map_or("BENCHMARK.json", String::as_str);
    let readme_path = args
        .get(1)
        .map_or("crates/bench/src/bin/benchmark/README.md", String::as_str);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let found = selfcheck::problems(&read(manifest_path)?, &read(readme_path)?);
    for p in &found {
        println!("{p}");
    }
    println!(
        "self-check: {} workloads, {} end-to-end and {} per-layer metrics, {} problems",
        registry::WORKLOADS.len(),
        registry::END_TO_END.len(),
        registry::PER_LAYER.len(),
        found.len()
    );
    Ok(found.is_empty())
}

fn list() {
    for w in &registry::WORKLOADS {
        println!(
            "workload   {:<15} work unit: {}; {}",
            w.name, w.work_unit, w.why
        );
    }
    for m in &registry::END_TO_END {
        println!(
            "end-to-end {:<36} {:<8} {:<6} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    for m in &registry::PER_LAYER {
        println!(
            "per-layer  {:<36} {:<8} {:<6} moves {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |flags: &[String], trace| parse_run(flags, trace).and_then(|a| run::run(&a));
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("self-check") => self_check(&args[1..]),
        Some("list") => {
            list();
            Ok(true)
        }
        Some("trace") => run(&args[1..], true),
        Some("run") => run(&args[1..], false),
        // The contract's command line: flags only.
        _ => run(&args, false),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn repo_file(name: &str) -> String {
        // This file is built as part of two packages (see Cargo.toml), so
        // the repository root is found by walking up to `BENCHMARK.json`.
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").exists() {
            assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
        }
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn manifest_registry_and_readme_agree() {
        let found = selfcheck::problems(
            &repo_file("BENCHMARK.json"),
            &repo_file("crates/bench/src/bin/benchmark/README.md"),
        );
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn command_lines_parse_or_explain() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_run(
            &args("--workload sample --seed 7 --seconds 2.5 --trace 1"),
            false,
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sample", 7, 2.5, true)
        );
        assert!(
            parse_run(&args("--seed 7"), false).is_err(),
            "workload is required"
        );
        assert!(parse_run(&args("--workload sample --trace 2"), false).is_err());
        assert!(parse_run(&args("--workload sample --seconds -1"), false).is_err());
        assert!(parse_run(&args("--workload sample --bogus 1"), false).is_err());
    }

    /// Every workload at its smoke size, untraced and traced: every
    /// named metric is emitted, every oracle passes, and the result is
    /// marked so `compare` refuses it.
    #[test]
    fn smoke_run_of_every_workload_emits_every_metric() {
        for w in &registry::WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    out: None,
                };
                let doc = run::measure(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                // What is written is what is read back.
                assert_eq!(Json::parse(&doc.render_pretty()).as_ref(), Ok(&doc));
                assert_eq!(doc.get("smoke").and_then(Json::as_bool), Some(true));
                assert!(compare::refusal(&doc).is_some_and(|why| why.contains("--smoke")));

                let result = doc.get("result").unwrap();
                let failures = doc.get("failures").unwrap();
                assert_eq!(
                    result.get("failed").and_then(Json::as_f64),
                    Some(0.0),
                    "{failures:?}"
                );
                assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
                assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let metrics = result.get("metrics").unwrap();
                let expected: Vec<(&str, &str)> = if trace {
                    registry::PER_LAYER
                        .iter()
                        .map(|m| (m.name, m.unit))
                        .collect()
                } else {
                    registry::END_TO_END
                        .iter()
                        .map(|m| (m.name, m.unit))
                        .collect()
                };
                assert_eq!(metrics.as_obj().len(), expected.len());
                for (name, unit) in expected {
                    let m = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", w.name));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                    let value = m.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value.is_finite(), "{name} = {value}");
                    // An end-to-end metric is never 0.
                    assert!(trace || value > 0.0, "{}: {name} is 0", w.name);
                }
            }
        }
    }
}
