//! The `netfi-lint` command: scan a workspace, print diagnostics, set the
//! exit code. See the library docs for what is checked and why.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
netfi-lint — netfi workspace invariant checker

USAGE:
    netfi-lint [--format <text|json>] [ROOT]

Scans ROOT/src and ROOT/crates/*/src (default ROOT: the current
directory) for violations of the workspace invariants: determinism
(wall-clock, unordered-collection, env-access, thread-spawn,
relaxed-atomic, fork-not-clone), panic-freedom (unwrap, expect, panic),
hot-path allocation discipline (hot-path-alloc), the unsafe/SAFETY audit
(unsafe-safety), and allow-comments that suppress nothing
(dead-suppression).

OPTIONS:
    --format text    One `path:line: rule: message` line per violation,
                     then a summary line (the default).
    --format json    One JSON object: {\"files\", \"suppressions\",
                     \"violations\": [{\"file\", \"line\", \"rule\",
                     \"message\"}]} — for CI and tooling.

EXIT CODES:
    0  clean
    1  violations found
    2  usage or I/O error
";

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    let got = other.unwrap_or("<missing>");
                    eprintln!("netfi-lint: --format expects `text` or `json`, got `{got}`\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--format=") => {
                match flag.trim_start_matches("--format=") {
                    "text" => format = Format::Text,
                    "json" => format = Format::Json,
                    other => {
                        eprintln!(
                            "netfi-lint: --format expects `text` or `json`, got `{other}`\n\n{USAGE}"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            flag if flag.starts_with('-') => {
                eprintln!("netfi-lint: unknown option `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            extra => {
                eprintln!("netfi-lint: unexpected argument `{extra}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    match netfi_lint::scan_workspace(&root) {
        Ok(report) => {
            match format {
                Format::Text => {
                    for line in report.render_lines() {
                        println!("{line}");
                    }
                    println!(
                        "netfi-lint: {} file(s) scanned, {} violation(s), {} allowed suppression(s)",
                        report.files,
                        report.diagnostics.len(),
                        report.suppressions
                    );
                }
                Format::Json => println!("{}", report.to_json()),
            }
            if report.diagnostics.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("netfi-lint: {}: {err}", root.display());
            ExitCode::from(2)
        }
    }
}
