//! Random SEU characterization (§3.1's first fault model): sweep the
//! injector's LFSR flip probability and watch which protection layer
//! catches the corruption.

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    print!("{}", netfi_bench::paper::exp_random_seu()?);
    Ok(())
}
