//! §3.5: pass-through transparency.
//!
//! "The fault injector caused no observable impact on the data transfer
//! rate. Data passed through the fault injector at the same rate it would
//! have if the fault injector had not been in the data path." Also:
//! "routes are correctly mapped through in both directions" — the mapping
//! protocol works across the device.
//!
//! Usage: `exp_passthrough [--window <secs>]`

use netfi_bench::{arg, paper};

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    let window = arg("--window", paper::PASSTHROUGH_WINDOW_S);
    print!("{}", paper::exp_passthrough(window)?);
    Ok(())
}
