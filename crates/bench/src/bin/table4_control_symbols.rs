//! Regenerates Table 4: the control-symbol corruption campaign.
//!
//! Usage: `table4_control_symbols [--window <secs>] [--duty-on <ms>]`

use netfi_bench::{arg, paper};

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    let window = arg("--window", paper::TABLE4_WINDOW_S);
    let duty_on = arg("--duty-on", paper::TABLE4_DUTY_ON_MS);
    print!("{}", paper::table4_control_symbols(window, duty_on)?);
    Ok(())
}
