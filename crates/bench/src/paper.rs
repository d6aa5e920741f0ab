//! The paper's evaluation, one renderer per EXPERIMENTS.md section.
//!
//! Each function returns, byte for byte, what the regenerator binary of
//! the same name prints to stdout; the binary only parses its flags and
//! prints. The constants are the binaries' defaults: EXPERIMENTS.md quotes
//! every section's output at them, `tests/doc_tables.rs` pins each quote
//! to its function, and `all_experiments` prints them all. A section's
//! seed is its function's own, and its error the first [`ScenarioError`]
//! one of its scenarios returns.

use netfi_core::synth::{render_table1, table1};
use netfi_myrinet::addr::EthAddr;
use netfi_netstack::{build_testbed, Host, TestbedOptions, Workload, SINK_PORT};
use netfi_nftape::bed::read;
use netfi_nftape::detection::{detect_specs, run_detection, DetectOptions};
use netfi_nftape::scenarios::control::{
    control_symbol_table, gap_timeout_arms, stop_throughput_arms, table4_paper_loss, table4_rows,
    ControlCampaignOptions,
};
use netfi_nftape::scenarios::latency::{latency_table2, paper_table2};
use netfi_nftape::scenarios::{address, ptype, random, udpcheck};
use netfi_nftape::{default_workers, ScenarioError, Table};
use netfi_sample::{run_sampled_campaign, SampleOptions};
use netfi_sim::{SimDuration, SimTime};

/// `table2_latency --packets`: packets per arm (the paper passed 2 M).
pub const TABLE2_PACKETS: u64 = 20_000;
/// `table2_latency --experiments`.
pub const TABLE2_EXPERIMENTS: usize = 5;
/// `table4_control_symbols --window`, seconds per row.
pub const TABLE4_WINDOW_S: u64 = 6;
/// `table4_control_symbols --duty-on`, milliseconds armed per 1 s period.
pub const TABLE4_DUTY_ON_MS: u64 = 400;
/// `exp_stop_throughput --window` and `exp_gap_timeout --window`, seconds
/// per arm.
pub const ARMS_WINDOW_S: u64 = 10;
/// `exp_passthrough --window`, seconds per path.
pub const PASSTHROUGH_WINDOW_S: u64 = 5;

/// Table 1: the structural model against the paper's synthesis counts,
/// then each column's relative error.
pub fn table1_synthesis() -> Result<String, ScenarioError> {
    let mut table = Table::new(
        "Table 1 (detail): per-column relative error of the structural model",
        &["Entity", "Gates", "FGs", "Mux", "DFF"],
    );
    let err = |paper: u32, model: u32| -> String {
        if paper == 0 && model == 0 {
            "exact".to_string()
        } else {
            let p = paper.max(1) as f64;
            format!("{:+.1}%", (model as f64 - paper as f64) / p * 100.0)
        }
    };
    for row in table1() {
        table.row(&[
            row.name.to_string(),
            err(row.paper.gates, row.model.gates),
            err(row.paper.function_generators, row.model.function_generators),
            err(row.paper.multiplexors, row.model.multiplexors),
            err(row.paper.dffs, row.model.dffs),
        ]);
    }
    Ok(format!("{}\n{table}\n", render_table1()))
}

/// Table 2: `experiments` rows of UDP ping-pong, `packets` per arm,
/// without and with the device.
pub fn table2_latency(packets: u64, experiments: usize) -> Result<String, ScenarioError> {
    let rows = latency_table2(packets, experiments, 0x7461_626c_6532)?;
    let mut table = Table::new(
        "Table 2: latency measurements (per-packet averages, ns)",
        &[
            "Experiment",
            "Without injector",
            "With injector",
            "Added",
            "Paper w/o",
            "Paper w/",
            "Paper added",
        ],
    );
    let paper = paper_table2();
    for row in &rows {
        let (p_without, p_with) = paper.get(row.experiment - 1).copied().unwrap_or((0.0, 0.0));
        table.row(&[
            format!("{}", row.experiment),
            format!("{:.0}", row.without_ns),
            format!("{:.0}", row.with_ns),
            format!("{:+.0}", row.added_ns()),
            format!("{p_without:.0}"),
            format!("{p_with:.0}"),
            format!("{:+.0}", p_with - p_without),
        ]);
    }
    let mean_added: f64 = rows.iter().map(|r| r.added_ns()).sum::<f64>() / rows.len() as f64;
    Ok(format!(
        "{table}\nmean added latency: {mean_added:.0} ns  (true model value: 255 ns = \
         250 ns pipeline + 5 ns extra cable; paper band: 75–1407 ns)\n"
    ))
}

/// Table 4: the nine control-symbol rows, each a `window_s`-second window
/// with the swap armed `duty_on_ms` of every second.
pub fn table4_control_symbols(window_s: u64, duty_on_ms: u64) -> Result<String, ScenarioError> {
    let opts = ControlCampaignOptions {
        window: SimDuration::from_secs(window_s),
        duty_on: SimDuration::from_ms(duty_on_ms),
        ..ControlCampaignOptions::default()
    };
    let results = control_symbol_table(&opts)?;
    let mut table = Table::new(
        "Table 4: results of control symbol corruption campaign (model vs paper loss)",
        &[
            "Mask",
            "Replacement",
            "Sent",
            "Received",
            "Loss",
            "Paper loss",
            "Overflow",
            "Framing",
            "LongTO",
        ],
    );
    for ((row, (mask, replacement)), (p_sent, p_recv)) in
        results.iter().zip(table4_rows()).zip(table4_paper_loss())
    {
        let paper_loss = 1.0 - p_recv as f64 / p_sent as f64;
        table.row(&[
            mask.to_string(),
            replacement.to_string(),
            row.sent.to_string(),
            row.received.to_string(),
            format!("{:.1}%", row.loss_rate() * 100.0),
            format!("{:.1}%", paper_loss * 100.0),
            format!("{:.0}", row.extra("overflow_drops").unwrap_or(0.0)),
            format!("{:.0}", row.extra("framing_drops").unwrap_or(0.0)),
            format!("{:.0}", row.extra("long_timeout_releases").unwrap_or(0.0)),
        ]);
    }
    Ok(format!("{table}\n"))
}

/// §4.3.1 STOP: the request/response rate over `window_s` seconds, normal
/// and under faulty STOP conditions.
pub fn exp_stop_throughput(window_s: u64) -> Result<String, ScenarioError> {
    let arms = stop_throughput_arms(SimDuration::from_secs(window_s), 0x73746f70)?;
    let normal = &arms[0];
    let mut table = Table::new(
        "Faulty STOP conditions: request/response message rate",
        &["Condition", "Completed", "Lost", "Msgs/min", "Relative"],
    );
    for r in &arms {
        table.row(&[
            r.name.clone(),
            r.received.to_string(),
            r.lost().to_string(),
            format!("{:.0}", r.extra("messages_per_minute").unwrap_or(0.0)),
            format!(
                "{:.1}%",
                r.throughput() / normal.throughput().max(1e-9) * 100.0
            ),
        ]);
    }
    Ok(format!(
        "{table}\npaper: 5038 vs 48000 messages/minute = 10.5% of normal (≈90% decrease)\n"
    ))
}

/// §4.3.1 GAP: throughput over `window_s` seconds, normal and with every
/// GAP from the intercepted host swapped for IDLE.
pub fn exp_gap_timeout(window_s: u64) -> Result<String, ScenarioError> {
    let arms = gap_timeout_arms(SimDuration::from_secs(window_s), 0x676170)?;
    let normal = &arms[0];
    let mut table = Table::new(
        "GAP corruption: throughput under source blocking",
        &[
            "Condition",
            "Sent",
            "Received",
            "Throughput",
            "Long timeouts",
            "Framing drops",
        ],
    );
    for r in &arms {
        table.row(&[
            r.name.clone(),
            r.sent.to_string(),
            r.received.to_string(),
            format!(
                "{:.1}% of normal",
                r.received as f64 / normal.received.max(1) as f64 * 100.0
            ),
            format!("{:.0}", r.extra("long_timeout_releases").unwrap_or(0.0)),
            format!("{:.0}", r.extra("framing_drops").unwrap_or(0.0)),
        ]);
    }
    Ok(format!(
        "{table}\npaper: throughput drops to ~12% of normal under GAP faults\n"
    ))
}

/// §4.3.2: mapping-type, data-type, route-MSB and misroute corruption.
pub fn exp_packet_type() -> Result<String, ScenarioError> {
    let mapping = ptype::mapping_packet_corruption(0x70747970)?;
    let data = ptype::data_packet_corruption(0x70747970)?;
    let msb = ptype::route_msb_corruption(0x70747970)?;
    let misroute = ptype::route_misroute(0x70747970)?;
    let mut table = Table::new(
        "Packet-type / route corruption outcomes",
        &["Campaign", "Observed", "Paper says"],
    );
    table.row(&[
        mapping.name.clone(),
        format!(
            "node removed={} restored next round={} ({} sends failed meanwhile)",
            mapping.extra("removed").unwrap_or(0.0) == 1.0,
            mapping.extra("restored").unwrap_or(0.0) == 1.0,
            mapping.extra("lost_no_route").unwrap_or(0.0),
        ),
        "node removed from network until the next mapping packet".to_string(),
    ]);
    table.row(&[
        data.name.clone(),
        format!(
            "{} sent, {} delivered, {} unrecognized, routing table unchanged={}",
            data.sent,
            data.received,
            data.extra("rx_unknown_type").unwrap_or(0.0),
            data.extra("routing_table_unchanged").unwrap_or(0.0) == 1.0,
        ),
        "dropped by the receiving node; internal structures unchanged".to_string(),
    ]);
    table.row(&[
        msb.name.clone(),
        format!(
            "{} route errors, {} delivered during fault, {} delivered after disarm",
            msb.extra("route_errors").unwrap_or(0.0),
            msb.received,
            msb.extra("recovered_rx").unwrap_or(0.0),
        ),
        "consumed and handled as an error, without incident".to_string(),
    ]);
    table.row(&[
        misroute.name.clone(),
        format!(
            "{} sent ({} mapping replies), {} misroute drops, {} accepted by wrong nodes",
            misroute.extra("frames").unwrap_or(0.0),
            misroute.extra("mapping_frames").unwrap_or(0.0),
            misroute.extra("misroute_drops").unwrap_or(0.0),
            misroute.extra("accepted_by_wrong_node").unwrap_or(0.0),
        ),
        "expected packet losses; none accepted by incorrect nodes".to_string(),
    ]);
    Ok(format!("{table}\n"))
}

/// §4.3.3: destination, own-address, non-existent-address and
/// controller-collision corruption.
pub fn exp_address() -> Result<String, ScenarioError> {
    let dest = address::destination_corruption(0x61646472, false)?;
    let dest_fixed = address::destination_corruption(0x61646472, true)?;
    let own = address::sender_address_corruption(0x61646472)?;
    let nonexist = address::nonexistent_address(0x61646472)?;
    let mut table = Table::new(
        "Physical-address corruption outcomes",
        &["Campaign", "Observed", "Paper says"],
    );
    table.row(&[
        dest.name.clone(),
        format!(
            "{} sent, {} to intended, {} to wrong node, {} CRC drops",
            dest.sent,
            dest.received,
            dest.extra("received_by_wrong_node").unwrap_or(0.0),
            dest.extra("crc_drops").unwrap_or(0.0),
        ),
        "dropped; received by neither node — a result of the incorrect CRC-8".to_string(),
    ]);
    table.row(&[
        dest_fixed.name.clone(),
        format!(
            "{} to intended, {} misaddressed drops (ablation: CRC recomputed)",
            dest_fixed.received,
            dest_fixed.extra("misaddressed_drops").unwrap_or(0.0),
        ),
        "(beyond paper: the address filter is the second line of defence)".to_string(),
    ]);
    table.row(&[
        own.name.clone(),
        format!(
            "{} delivered, {} misaddressed drops, scouts answered={}, still in map={}",
            own.received,
            own.extra("misaddressed_drops").unwrap_or(0.0),
            own.extra("scouts_still_answered").unwrap_or(0.0),
            own.extra("still_in_map").unwrap_or(0.0) == 1.0,
        ),
        "unreachable, but still answers mapping; routing info unchanged".to_string(),
    ]);
    table.row(&[
        nonexist.name.clone(),
        format!(
            "old address routable={}, new address routable={}, {} sends dropped",
            nonexist.extra("old_address_routable").unwrap_or(0.0) == 1.0,
            nonexist.extra("new_address_routable").unwrap_or(0.0) == 1.0,
            nonexist.extra("packets_dropped_no_route").unwrap_or(0.0),
        ),
        "packets dropped; table updated — like replacing the computer".to_string(),
    ]);
    let collision = address::controller_address_collision(0x61646472)?;
    Ok(format!(
        "{table}\n\n--- controller-address collision (see also fig11_maps) ---\n\
         inconsistent mapping rounds: {} (paper: \"unable to generate a consistent map\")\n",
        collision.inconsistent_rounds
    ))
}

/// §4.3.4: the checksum-aliasing word swap against a corruption the
/// checksum catches.
pub fn exp_udp_checksum() -> Result<String, ScenarioError> {
    let base = udpcheck::baseline(0x756470)?;
    let alias = udpcheck::aliasing_corruption(0x756470)?;
    let detected = udpcheck::detected_corruption(0x756470)?;
    let mut table = Table::new(
        "UDP address/payload corruption ('Have a lot of fun!')",
        &["Corruption", "Sent", "Delivered", "Checksum drops"],
    );
    for r in [&base, &alias, &detected] {
        table.row(&[
            r.name.clone(),
            r.sent.to_string(),
            r.received.to_string(),
            format!("{:.0}", r.extra("checksum_drops").unwrap_or(0.0)),
        ]);
    }
    Ok(format!(
        "{table}\npaper: the 16-bit-aligned word swap ('Have' -> 'veHa') satisfies the\n\
         one's-complement checksum and reaches the application; other\n\
         corruptions are detected and dropped.\n"
    ))
}

/// §3.1: the SEU flip-probability sweep, and its top arm with the CRC-8
/// repaired in flight.
pub fn exp_random_seu() -> Result<String, ScenarioError> {
    let mut table = Table::new(
        "Random SEU injection: loss and detection by layer",
        &[
            "p/segment",
            "Frames",
            "Mapping",
            "Received",
            "Loss",
            "CRC-8 drops",
            "UDP drops",
        ],
    );
    let mut arms = random::seu_sweep(0x736575)?;
    // The ablation arm: CRC repaired in flight, so detection falls to UDP.
    arms.push(random::seu_arm(1e-1, true, 0x736575)?);
    for r in &arms {
        table.row(&[
            r.name.clone(),
            format!("{}", r.extra("frames").unwrap_or(0.0)),
            format!("{}", r.extra("mapping_frames").unwrap_or(0.0)),
            r.received.to_string(),
            format!("{:.2}%", r.loss_rate() * 100.0),
            format!("{:.0}", r.extra("crc8_drops").unwrap_or(0.0)),
            format!("{:.0}", r.extra("udp_checksum_drops").unwrap_or(0.0)),
        ]);
    }
    Ok(format!(
        "{table}\nshape: loss grows with p; the Myrinet CRC-8 is the catching layer\n\
         unless the injector repairs it, in which case UDP's checksum takes\n\
         over — the layered-protection story of §4.3.\n"
    ))
}

/// One pass-through arm: a saturating sender for `window_s` seconds after
/// mapping, with or without the device on host 1's link. Returns what
/// host 0 sent, what host 1 received and whether host 1 mapped.
fn passthrough_arm(with_injector: bool, window_s: u64) -> Result<(u64, u64, bool), ScenarioError> {
    let mut tb = build_testbed(
        TestbedOptions {
            hosts: 2,
            intercept_host: with_injector.then_some(1),
            ..TestbedOptions::default()
        },
        |i, host: &mut Host| {
            if i == 0 {
                // Saturating sender: large back-to-back bursts.
                host.add_workload(Workload::Sender {
                    dest: EthAddr::myricom(2),
                    interval: SimDuration::from_ms(10),
                    payload_len: 1024,
                    forbidden: vec![],
                    burst: 32,
                });
            }
        },
    )?;
    tb.engine
        .run_until(SimTime::from_secs(2) + SimDuration::from_secs(window_s));
    let host = |i: usize| read::<Host>(&tb.engine, tb.hosts[i]);
    let (h0, h1) = (host(0)?, host(1)?);
    let sent = h0.sender_sent() - h0.nic().stats().tx_no_route;
    // Host 1, the highest address, must be the one that maps.
    Ok((sent, h1.rx_count(SINK_PORT), h1.nic().is_mapper()))
}

/// §3.5: a saturating transfer over `window_s` seconds on a direct link
/// and through the device.
pub fn exp_passthrough(window_s: u64) -> Result<String, ScenarioError> {
    let (sent_direct, recv_direct, mapped_direct) = passthrough_arm(false, window_s)?;
    let (sent_dev, recv_dev, mapped_dev) = passthrough_arm(true, window_s)?;
    let mut table = Table::new(
        "Pass-through transparency (saturating 4 KiB bursts)",
        &["Path", "Sent", "Received", "Rate", "Mapping works"],
    );
    table.row(&[
        "direct link".into(),
        sent_direct.to_string(),
        recv_direct.to_string(),
        "100%".into(),
        mapped_direct.to_string(),
    ]);
    table.row(&[
        "through injector".into(),
        sent_dev.to_string(),
        recv_dev.to_string(),
        format!(
            "{:.2}%",
            recv_dev as f64 / recv_direct.max(1) as f64 * 100.0
        ),
        mapped_dev.to_string(),
    ]);
    Ok(format!(
        "{table}\npaper: no observable impact on the data transfer rate; routes map\n\
         through in both directions.\n"
    ))
}

/// The statistical injection campaign: 2,048 points drawn at seed 11,
/// its fingerprint, outcome histogram and per-dimension breakdowns. The
/// bytes do not depend on the worker count.
pub fn sampled_campaign() -> Result<String, ScenarioError> {
    let sampled = run_sampled_campaign(&SampleOptions {
        seed: 11,
        points: 2048,
        workers: default_workers(),
    })?;
    Ok(format!(
        "sampled campaign fingerprint {:#018x}\n{}\n{}\n{}\n",
        sampled.fingerprint(),
        sampled.report().render(),
        sampled.direction_breakdown().render(),
        sampled.control_swap_breakdown().render(),
    ))
}

/// The detection campaign on the 100-host fabric: its fingerprint, the
/// topology analysis and the verdict tables. The bytes do not depend on
/// the worker count.
pub fn detection_campaign() -> Result<String, ScenarioError> {
    let options = DetectOptions::sized(100);
    let detected = run_detection(&options, &detect_specs(&options), default_workers())?;
    Ok(format!(
        "detection campaign fingerprint {:#018x}\n{}\n",
        detected.fingerprint(),
        detected.render(),
    ))
}
