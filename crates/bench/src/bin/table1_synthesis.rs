//! Regenerates Table 1: synthesis results of the FPGA code.
//!
//! Vendor synthesis is unavailable, so the model column comes from the
//! structural resource estimator over the emulated entities (see
//! `netfi_core::synth`).

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    print!("{}", netfi_bench::paper::table1_synthesis()?);
    Ok(())
}
