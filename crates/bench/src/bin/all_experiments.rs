//! Prints every paper section of EXPERIMENTS.md, in its order: each
//! regenerator's stdout at its defaults, then the statistical injection
//! and detection campaigns.
//!
//! Usage: `all_experiments`

use netfi_bench::paper::*;
use netfi_nftape::ScenarioError;

/// Prints one section under its producer's name.
fn section(name: &str, output: Result<String, ScenarioError>) -> Result<(), ScenarioError> {
    println!("================ {name}");
    print!("{}", output?);
    Ok(())
}

fn main() -> Result<(), ScenarioError> {
    section("table1_synthesis", table1_synthesis())?;
    section(
        "table2_latency",
        table2_latency(TABLE2_PACKETS, TABLE2_EXPERIMENTS),
    )?;
    section(
        "table4_control_symbols",
        table4_control_symbols(TABLE4_WINDOW_S, TABLE4_DUTY_ON_MS),
    )?;
    section("exp_stop_throughput", exp_stop_throughput(ARMS_WINDOW_S))?;
    section("exp_gap_timeout", exp_gap_timeout(ARMS_WINDOW_S))?;
    section("exp_packet_type", exp_packet_type())?;
    section("exp_address", exp_address())?;
    section("exp_udp_checksum", exp_udp_checksum())?;
    section("exp_passthrough", exp_passthrough(PASSTHROUGH_WINDOW_S))?;
    section("exp_random_seu", exp_random_seu())?;
    section("sampled campaign", sampled_campaign())?;
    section("detection campaign", detection_campaign())
}
