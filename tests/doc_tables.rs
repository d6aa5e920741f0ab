//! Every table EXPERIMENTS.md quotes is its producer's output, byte for
//! byte.
//!
//! A paper section names its binary on a `Regenerator:` line and quotes
//! what that binary prints at its defaults in a fenced `text` block under
//! it. Each test below calls the `netfi_bench::paper` function the binary
//! prints, at the same defaults, and compares; one more test checks that
//! every `Regenerator:` names a binary under `crates/bench/src/bin/` and
//! that no quoted block is left without a test.

use netfi::nftape::ScenarioError;
use netfi_bench::paper::{
    self, ARMS_WINDOW_S, PASSTHROUGH_WINDOW_S, TABLE2_EXPERIMENTS, TABLE2_PACKETS,
    TABLE4_DUTY_ON_MS, TABLE4_WINDOW_S,
};
use std::collections::BTreeSet;
use std::path::Path;

/// One `Regenerator:` line and the fenced `text` blocks under it, up to
/// the next such line or section heading.
struct Quote {
    regenerator: String,
    blocks: Vec<String>,
}

/// The quotes of `doc`, and how many `text` blocks sit under no
/// `Regenerator:` line.
fn quotes(doc: &str) -> (Vec<Quote>, usize) {
    let mut quotes: Vec<Quote> = Vec::new();
    let mut open = false; // the last quote still owns what follows
    let mut block: Option<String> = None;
    let mut unowned = 0;
    for line in doc.lines() {
        if let Some(text) = &mut block {
            if line == "```" {
                let text = block.take().unwrap_or_default();
                match quotes.last_mut() {
                    Some(quote) if open => quote.blocks.push(text),
                    _ => unowned += 1,
                }
            } else {
                text.push_str(line);
                text.push('\n');
            }
        } else if line == "```text" {
            block = Some(String::new());
        } else if line.starts_with("## ") {
            open = false;
        } else if let Some((_, rest)) = line.split_once("Regenerator: `") {
            let name = rest.split('`').next().unwrap_or_default();
            quotes.push(Quote {
                regenerator: name.to_string(),
                blocks: Vec::new(),
            });
            open = true;
        }
    }
    assert!(block.is_none(), "EXPERIMENTS.md ends inside a fenced block");
    (quotes, unowned)
}

fn experiments_md() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(!text.is_empty(), "cannot read {}", path.display());
    text
}

/// The one block EXPERIMENTS.md quotes under `Regenerator: `name``.
fn quoted(name: &str) -> String {
    let (quotes, _) = quotes(&experiments_md());
    let mut blocks: Vec<String> = quotes
        .into_iter()
        .filter(|q| q.regenerator == name)
        .flat_map(|q| q.blocks)
        .collect();
    assert_eq!(blocks.len(), 1, "EXPERIMENTS.md should quote `{name}` once");
    blocks.remove(0)
}

fn assert_quoted(name: &str, output: Result<String, ScenarioError>) {
    assert_eq!(
        Ok(quoted(name)),
        output.map_err(|e| e.to_string()),
        "EXPERIMENTS.md's `{name}` block is not what `{name}` prints"
    );
}

/// One test per quoted block and the list of the binaries they pin.
macro_rules! pinned {
    ($($test:ident: $name:ident => $output:expr,)*) => {
        const PINNED: &[&str] = &[$(stringify!($name)),*];
        $(
            #[test]
            fn $test() {
                assert_quoted(stringify!($name), $output);
            }
        )*
    };
}

// libtest starts tests in name order. The two slowest (15 s and 9.5 s in
// a debug build on 2 vCPUs) are named to start first, so the two test
// threads finish together: 17–19 s for the file instead of 24 s.
pinned! {
    a_table4_control_symbols: table4_control_symbols =>
        paper::table4_control_symbols(TABLE4_WINDOW_S, TABLE4_DUTY_ON_MS),
    b_table2_latency: table2_latency => paper::table2_latency(TABLE2_PACKETS, TABLE2_EXPERIMENTS),
    table1_synthesis: table1_synthesis => paper::table1_synthesis(),
    exp_stop_throughput: exp_stop_throughput => paper::exp_stop_throughput(ARMS_WINDOW_S),
    exp_gap_timeout: exp_gap_timeout => paper::exp_gap_timeout(ARMS_WINDOW_S),
    exp_packet_type: exp_packet_type => paper::exp_packet_type(),
    exp_address: exp_address => paper::exp_address(),
    exp_udp_checksum: exp_udp_checksum => paper::exp_udp_checksum(),
    exp_passthrough: exp_passthrough => paper::exp_passthrough(PASSTHROUGH_WINDOW_S),
    exp_random_seu: exp_random_seu => paper::exp_random_seu(),
}

#[test]
fn every_regenerator_is_a_binary_and_every_block_is_pinned() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let binaries: BTreeSet<String> = std::fs::read_dir(&bin_dir)
        .unwrap()
        .map(|e| {
            e.unwrap()
                .path()
                .file_stem()
                .unwrap()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let (quotes, unowned) = quotes(&experiments_md());
    assert_eq!(
        unowned, 0,
        "a `text` block sits under no `Regenerator:` line"
    );
    let mut quoting = BTreeSet::new();
    for quote in &quotes {
        let name = quote.regenerator.as_str();
        assert!(
            binaries.contains(name),
            "`Regenerator: {name}` names no target under crates/bench/src/bin/"
        );
        if !quote.blocks.is_empty() {
            assert!(
                PINNED.contains(&name),
                "no test pins the block quoted under `{name}`"
            );
            quoting.insert(name);
        }
    }
    assert_eq!(
        quoting,
        PINNED.iter().copied().collect(),
        "a pinned binary is quoted nowhere"
    );
}
