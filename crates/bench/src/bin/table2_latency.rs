//! Regenerates Table 2: latency measurements by UDP ping-pong.
//!
//! Usage: `table2_latency [--packets <n>] [--experiments <n>]`
//!
//! The paper passed two million small UDP packets per experiment; the
//! default here is 20 000 per arm (scale up with `--packets` at the cost
//! of run time — each row is a constant of its arms' seeds long before
//! that).

use netfi_bench::{arg, paper};

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    let packets = arg("--packets", paper::TABLE2_PACKETS);
    let experiments = arg("--experiments", paper::TABLE2_EXPERIMENTS);
    print!("{}", paper::table2_latency(packets, experiments)?);
    Ok(())
}
