//! §4.3.2: Myrinet packet-type and source-route corruption.

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    print!("{}", netfi_bench::paper::exp_packet_type()?);
    Ok(())
}
