//! `netfi-bench` — experiment regenerators and micro-benchmarks.
//!
//! The `bench_*` bins time themselves with the dependency-free
//! [`harness`] (monotonic clock, warmup, median-of-N);
//! `cargo run -p netfi-bench --release --bin bench_engine` emits
//! `BENCH_engine.json` for perf-trend tracking. Per-layer costs are rows
//! of the `benchmark` bin's traced run.
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index); `cargo run -p netfi-bench --bin <name> --release`:
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
//! | `fig8_stream` | Figure 8 — packet stream with control symbols |
//! | `fig9_slack` | Figure 9 — slack-buffer watermark behaviour |
//! | `fig11_maps` | Figure 11 — network map before/after corruption |
//! | `exp_passthrough` | §3.5 — pass-through transparency |
//! | `all_experiments` | run everything, emit EXPERIMENTS data |

#![warn(missing_docs)]

pub mod harness;

/// Parses a `--key value`-style argument from `std::env::args`.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Pulls `"key": <number>` out of a flat JSON object — enough to read a
/// committed `BENCH_*.json` artifact back without a JSON parser.
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
