//! §4.3.3: physical-address corruption campaigns.

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    print!("{}", netfi_bench::paper::exp_address()?);
    Ok(())
}
