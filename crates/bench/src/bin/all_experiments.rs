//! Runs every experiment regenerator at moderate scale and prints the
//! consolidated report — the source of EXPERIMENTS.md's measured columns.
//!
//! Usage: `all_experiments [--quick 1]`

use netfi_bench::arg;
use netfi_nftape::detection::{detect_specs, run_detection, DetectOptions};
use netfi_nftape::runner::default_workers;
use netfi_nftape::scenarios::{address, control, latency, ptype, random, udpcheck};
use netfi_nftape::Table;
use netfi_sample::{run_sampled_campaign, SampleOptions};
use netfi_sim::SimDuration;

fn main() {
    let quick = arg("--quick", 0u8) != 0;
    let (t4_window, t2_packets, thr_window) = if quick {
        (SimDuration::from_secs(6), 4_000u64, SimDuration::from_secs(5))
    } else {
        (SimDuration::from_secs(20), 20_000, SimDuration::from_secs(10))
    };

    println!("================ netfi: all experiments ================\n");

    // --- Table 1 ---
    println!("{}", netfi_core::synth::render_table1());

    // --- Table 2 ---
    eprintln!("[table 2] latency ping-pong …");
    let rows = latency::latency_table2(t2_packets, 5, 0x616c6c).unwrap();
    let mut t2 = Table::new(
        "Table 2: per-packet time (ns), model / paper",
        &["Experiment", "Without", "With", "Added", "Paper added"],
    );
    for (row, (pw, pwi)) in rows.iter().zip(latency::paper_table2()) {
        t2.row(&[
            row.experiment.to_string(),
            format!("{:.0}", row.without_ns),
            format!("{:.0}", row.with_ns),
            format!("{:+.0}", row.added_ns()),
            format!("{:+.0}", pwi - pw),
        ]);
    }
    println!("{t2}");

    // --- Table 4 ---
    eprintln!("[table 4] control-symbol campaign …");
    let opts = control::ControlCampaignOptions {
        window: t4_window,
        ..control::ControlCampaignOptions::default()
    };
    let results = control::control_symbol_table(&opts).unwrap();
    let mut t4 = Table::new(
        "Table 4: control-symbol corruption, loss model / paper",
        &["Mask", "Replacement", "Sent", "Received", "Loss", "Paper"],
    );
    for ((row, (mask, replacement)), (ps, pr)) in results
        .iter()
        .zip(control::table4_rows())
        .zip(control::table4_paper_loss())
    {
        t4.row(&[
            mask.to_string(),
            replacement.to_string(),
            row.sent.to_string(),
            row.received.to_string(),
            format!("{:.1}%", row.loss_rate() * 100.0),
            format!("{:.1}%", (1.0 - pr as f64 / ps as f64) * 100.0),
        ]);
    }
    println!("{t4}");

    // --- STOP throughput ---
    eprintln!("[4.3.1] faulty STOP throughput …");
    let normal = control::stop_throughput(false, thr_window, 1).unwrap();
    let faulty = control::stop_throughput(true, thr_window, 1).unwrap();
    println!(
        "Faulty STOP: {:.0} vs {:.0} msgs/min = {:.1}% of normal (paper: 5038 vs 48000 = 10.5%)\n",
        faulty.extra("messages_per_minute").unwrap_or(0.0),
        normal.extra("messages_per_minute").unwrap_or(0.0),
        faulty.throughput() / normal.throughput().max(1e-9) * 100.0
    );

    // --- GAP timeout ---
    eprintln!("[4.3.1] GAP long-period timeout …");
    let gnormal = control::gap_timeout(false, thr_window, 2).unwrap();
    let gfaulty = control::gap_timeout(true, thr_window, 2).unwrap();
    println!(
        "GAP corruption: throughput {:.1}% of normal with {} long-period timeouts (paper: ~12%)\n",
        gfaulty.received as f64 / gnormal.received.max(1) as f64 * 100.0,
        gfaulty.extra("long_timeout_releases").unwrap_or(0.0)
    );

    // --- packet type ---
    eprintln!("[4.3.2] packet-type corruption …");
    let mapping = ptype::mapping_packet_corruption(3).unwrap();
    let data = ptype::data_packet_corruption(3).unwrap();
    let msb = ptype::route_msb_corruption(3).unwrap();
    let mis = ptype::route_misroute(3).unwrap();
    println!(
        "mapping 0x0005 corruption: removed={} restored={} (paper: out until next mapping round)",
        mapping.extra("removed").unwrap_or(0.0) == 1.0,
        mapping.extra("restored").unwrap_or(0.0) == 1.0
    );
    println!(
        "data 0x0004 corruption: {}/{} delivered, tables unchanged={} (paper: dropped, tables unchanged)",
        data.received,
        data.sent,
        data.extra("routing_table_unchanged").unwrap_or(0.0) == 1.0
    );
    println!(
        "route MSB: {} route errors, 0 delivered, recovery after disarm={} (paper: consumed without incident)",
        msb.extra("route_errors").unwrap_or(0.0),
        msb.extra("recovered_rx").unwrap_or(0.0) > 0.0
    );
    println!(
        "misroute: {}/{} lost at switch, {} accepted by wrong nodes (paper: losses, no wrong acceptance)\n",
        mis.extra("misroute_drops").unwrap_or(0.0),
        mis.sent,
        mis.extra("accepted_by_wrong_node").unwrap_or(0.0)
    );

    // --- addresses ---
    eprintln!("[4.3.3] address corruption …");
    let dest = address::destination_corruption(4, false).unwrap();
    let own = address::sender_address_corruption(4).unwrap();
    let coll = address::controller_address_collision(4).unwrap();
    let nonx = address::nonexistent_address(4).unwrap();
    println!(
        "destination corrupted: {} to intended, {} to wrong, {} CRC drops (paper: neither receives; CRC-8)",
        dest.received,
        dest.extra("received_by_wrong_node").unwrap_or(0.0),
        dest.extra("crc_drops").unwrap_or(0.0)
    );
    println!(
        "own address := other node: {} delivered, mapping still answers={}, in map={} (paper: deaf but mapped)",
        own.received,
        own.extra("scouts_still_answered").unwrap_or(0.0) > 0.0,
        own.extra("still_in_map").unwrap_or(0.0) == 1.0
    );
    println!(
        "controller collision: {} inconsistent rounds (paper: no consistent map)",
        coll.inconsistent_rounds
    );
    println!(
        "non-existent address: old routable={}, new routable={} (paper: table updated)\n",
        nonx.extra("old_address_routable").unwrap_or(0.0) == 1.0,
        nonx.extra("new_address_routable").unwrap_or(0.0) == 1.0
    );

    // --- random SEU ---
    eprintln!("[3.1] random SEU sweep …");
    for r in random::seu_sweep(6).unwrap() {
        println!(
            "SEU {}: {}/{} delivered, {:.0} CRC-8 drops, {:.0} UDP drops",
            r.name,
            r.received,
            r.sent,
            r.extra("crc8_drops").unwrap_or(0.0),
            r.extra("udp_checksum_drops").unwrap_or(0.0)
        );
    }
    println!();

    // --- UDP checksum ---
    eprintln!("[4.3.4] UDP checksum …");
    let alias = udpcheck::aliasing_corruption(5).unwrap();
    let caught = udpcheck::detected_corruption(5).unwrap();
    println!(
        "word swap: {}/{} delivered corrupt ({}); non-aliasing: {}/{} delivered, {} checksum drops",
        alias.received,
        alias.sent,
        alias.name,
        caught.received,
        caught.sent,
        caught.extra("checksum_drops").unwrap_or(0.0)
    );

    // --- statistical injection (seed 11, the campaign EXPERIMENTS.md quotes) ---
    eprintln!("[sample] 2048-point statistical injection campaign …");
    let workers = default_workers();
    let sampled = run_sampled_campaign(&SampleOptions {
        seed: 11,
        points: 2048,
        workers,
    })
    .unwrap();
    println!("\nsampled campaign fingerprint {:#018x}", sampled.fingerprint());
    println!("{}", sampled.report().render());
    println!("{}", sampled.direction_breakdown().render());
    println!("{}", sampled.control_swap_breakdown().render());

    // --- detection latency + SPOF (the render leads with the `analyze` report) ---
    eprintln!("[detect] 100-host detection campaign …");
    let options = DetectOptions::sized(100);
    let detected = run_detection(&options, &detect_specs(&options), workers).unwrap();
    println!("detection campaign fingerprint {:#018x}", detected.fingerprint());
    println!("{}", detected.render());
    println!("================ done ================");
}
