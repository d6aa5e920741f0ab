//! `netfi-bench` — experiment regenerators and the repository's benchmark.
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index); `cargo run -p netfi-bench --bin <name> --release`. The binaries
//! of EXPERIMENTS.md's paper sections print what [`paper`] renders, the
//! one producer of each quoted table. Host-time cost — end to end and per
//! layer — is measured by `benchmark` alone (`src/bin/benchmark/README.md`).
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_synthesis` | Table 1 — FPGA synthesis results |
//! | `table2_latency` | Table 2 — pass-through latency |
//! | `table4_control_symbols` | Table 4 — control-symbol corruption |
//! | `exp_stop_throughput` | §4.3.1 — faulty-STOP throughput collapse |
//! | `exp_gap_timeout` | §4.3.1 — GAP loss / long-period timeout |
//! | `exp_packet_type` | §4.3.2 — packet-type & route corruption |
//! | `exp_address` | §4.3.3 — physical-address corruption |
//! | `exp_udp_checksum` | §4.3.4 — UDP checksum aliasing |
//! | `exp_random_seu` | §3.1 — random SEU sweep |
//! | `exp_passthrough` | §3.5 — pass-through transparency |
//! | `fig2_fig3_pipeline` | Figures 2/3 — two-phase FIFO operation |
//! | `fig8_stream` | Figure 8 — packet stream with control symbols |
//! | `fig9_slack` | Figure 9 — slack-buffer watermark behaviour |
//! | `fig11_maps` | Figure 11 — network map before/after corruption |
//! | `mmon` | §4.1 — the `mmon` monitoring report |
//! | `ablation_trigger` | ablation — trigger window width vs false triggers |
//! | `ablation_watermarks` | ablation — slack headroom vs overflow loss |
//! | `ablation_fuzzy_decode` | ablation — tolerant control-symbol decoding |
//! | `ablation_latency` | ablation — pipeline depth and slack vs latency |
//! | `campaigns` | the paper's whole evaluation as one campaign list |
//! | `all_experiments` | every [`paper`] section at its defaults, in EXPERIMENTS.md order |
//! | `benchmark` | six workloads, end-to-end and per-layer host-time cost |

#![warn(missing_docs)]

pub mod paper;

use std::str::FromStr;

/// Parses a `--key value`-style argument from `std::env::args`: an absent
/// flag gives `default`; a flag with no value or an unparseable one is a
/// usage message on stderr and exit code 2 — never a silent default.
pub fn arg<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    arg_in(&args, name, default).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    })
}

fn arg_in<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let expected = std::any::type_name::<T>();
    match args.get(at + 1) {
        None => Err(format!("usage: {name} <{expected}> (no value given)")),
        Some(v) => v
            .parse()
            .map_err(|_| format!("usage: {name} <{expected}> (got {v:?})")),
    }
}

#[cfg(test)]
mod tests {
    use super::arg_in;
    use std::collections::BTreeSet;

    #[test]
    fn arg_defaults_only_when_the_flag_is_absent() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(arg_in(&args("bin"), "--window", 20u64), Ok(20));
        assert_eq!(arg_in(&args("bin --window 6"), "--window", 20u64), Ok(6));
        assert_eq!(arg_in(&args("bin --seed 3 --window 6"), "--seed", 7u64), Ok(3));
        let unparseable = arg_in(&args("bin --window abc"), "--window", 20u64).unwrap_err();
        assert!(unparseable.contains("--window") && unparseable.contains("\"abc\""));
        let valueless = arg_in(&args("bin --packets"), "--packets", 0u64).unwrap_err();
        assert!(valueless.contains("--packets") && valueless.contains("no value"));
    }

    /// The crate doc's binary table names exactly the targets under
    /// `src/bin/` (a `.rs` file or a directory each).
    #[test]
    fn binary_table_matches_src_bin() {
        let documented: BTreeSet<String> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .filter_map(|l| l.split_once('`'))
            .map(|(name, _)| name.to_string())
            .collect();
        let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let targets: BTreeSet<String> = std::fs::read_dir(bin_dir)
            .unwrap()
            .map(|e| e.unwrap().path().file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(documented, targets);
    }
}
