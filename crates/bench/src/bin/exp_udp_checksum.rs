//! §4.3.4: UDP checksum aliasing.

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    print!("{}", netfi_bench::paper::exp_udp_checksum()?);
    Ok(())
}
