//! §4.3.1: message throughput under faulty STOP conditions.
//!
//! "In one test run, the test program received 5038 messages in a one
//! minute period, a decrease of almost 90% from the 48000 messages
//! received under normal conditions."
//!
//! Usage: `exp_stop_throughput [--window <secs>]`

use netfi_bench::{arg, paper};

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    let window = arg("--window", paper::ARMS_WINDOW_S);
    print!("{}", paper::exp_stop_throughput(window)?);
    Ok(())
}
