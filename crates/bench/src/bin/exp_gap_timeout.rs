//! §4.3.1: GAP loss, source blocking and the long-period timeout.
//!
//! "Source blocking can occur if the packet-terminating GAP symbol is not
//! transmitted or is lost in transmission. … The network will recover from
//! this occurrence with a long-period timeout, which occurs after roughly
//! four million character transmission periods (~50ms at a data rate of
//! 80MB/s). … This timeout process causes the throughput of the network to
//! drop significantly, … to around 12% of the normal throughput."
//!
//! Usage: `exp_gap_timeout [--window <secs>]`

use netfi_bench::{arg, paper};

fn main() -> Result<(), netfi_nftape::ScenarioError> {
    let window = arg("--window", paper::ARMS_WINDOW_S);
    print!("{}", paper::exp_gap_timeout(window)?);
    Ok(())
}
