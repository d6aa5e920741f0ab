//! Runs the paper's whole evaluation as a declarative campaign list,
//! in parallel, and prints one summary row per result — the NFTAPE-style
//! automated assessment loop of the paper's introduction.
//!
//! Usage: `campaigns [--seed <n>]`

use netfi_bench::arg;
use netfi_nftape::campaign::{paper_campaigns, run_campaigns_with_workers};
use netfi_nftape::default_workers;
use netfi_nftape::Table;

fn main() {
    let seed = arg("--seed", 7u64);
    let specs = paper_campaigns(seed);
    eprintln!("running {} campaigns in parallel …", specs.len());
    let started = std::time::Instant::now();
    let results = run_campaigns_with_workers(&specs, default_workers()).unwrap();
    eprintln!("done in {:.1?}", started.elapsed());

    let mut table = Table::new(
        "Campaign results",
        &["Campaign", "Sent", "Received", "Loss", "Notes"],
    );
    for rows in &results {
        for r in rows {
            let notes: Vec<String> = r
                .extra
                .iter()
                .filter(|(_, &v)| v != 0.0)
                .map(|(k, v)| format!("{k}={v:.0}"))
                .collect();
            table.row(&[
                r.name.clone(),
                r.sent.to_string(),
                r.received.to_string(),
                format!("{:.1}%", r.loss_rate() * 100.0),
                notes.join(" "),
            ]);
        }
    }
    println!("{table}");
}
