//! Control-symbol corruption campaigns (§4.3.1: Table 4, the STOP
//! throughput collapse, and the GAP long-timeout experiment).

use netfi_core::command::DirSelect;
use netfi_core::config::InjectorConfig;
use netfi_core::device::InjectorDevice;
use netfi_myrinet::event::Ev;
use netfi_myrinet::switch::Switch;
use netfi_netstack::{
    build_testbed, build_testbed_probed, Host, Testbed, TestbedOptions, Workload,
};
use netfi_phy::ControlSymbol;
use netfi_sim::{Engine, NullProbe, Probe, SimDuration, SimTime};

use crate::bed::{read, Bed, Warm};
use crate::results::{RunResult, ScenarioError};
use crate::runner::{program_injector, schedule_duty_cycle};
use crate::scenarios::TrafficSnapshot;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::addr::EthAddr;

/// When every window of this module opens: after 2.5 s of warm-up, for
/// mapping to settle.
const T0: SimTime = SimTime::from_ms(2_500);
/// Injection duty cycle period. The paper does not state its injection
/// duty cycle; NFTAPE-style campaigns alternate inject and observe
/// phases, which we reproduce with a periodic ON/OFF schedule.
const DUTY_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Messages per sender burst.
const BURST: usize = 24;
/// Interval between bursts.
const BURST_INTERVAL: SimDuration = SimDuration::from_us(17_000);
/// Message payload length.
const PAYLOAD_LEN: usize = 512;

/// Options for the Table 4 campaign.
#[derive(Debug, Clone)]
pub struct ControlCampaignOptions {
    /// Measurement window.
    pub window: SimDuration,
    /// Portion of each 1 s duty period with the trigger armed.
    pub duty_on: SimDuration,
    /// NIC receive slack-buffer capacity (the high watermark stays at
    /// 3072): headroom above the watermark is the quantity the
    /// watermark-placement ablation sweeps.
    pub nic_rx_capacity: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for ControlCampaignOptions {
    fn default() -> Self {
        ControlCampaignOptions {
            window: SimDuration::from_secs(20),
            duty_on: SimDuration::from_ms(400),
            nic_rx_capacity: 4608,
            seed: 0x7461_626c_6534, // "table4"
        }
    }
}

/// The nine (mask, replacement) rows of Table 4, in the paper's order.
pub fn table4_rows() -> [(ControlSymbol, ControlSymbol); 9] {
    use ControlSymbol::{Gap, Go, Idle, Stop};
    [
        (Stop, Idle),
        (Stop, Gap),
        (Stop, Go),
        (Gap, Go),
        (Gap, Idle),
        (Gap, Stop),
        (Go, Idle),
        (Go, Gap),
        (Go, Stop),
    ]
}

/// Loss rates the paper reports for the nine rows, for comparison tables.
pub fn table4_paper_loss() -> [(u64, u64); 9] {
    // (messages sent, messages received)
    [
        (4064, 3705),
        (4092, 3445),
        (4015, 3694),
        (3132, 2785),
        (3378, 3022),
        (3983, 3607),
        (2564, 2199),
        (3483, 3108),
        (3720, 3322),
    ]
}

/// Builds the contended Table 4 test bed: the injector intercepts host 1;
/// hosts 1 and 2 blast bursts at host 0 (contending for its output port,
/// which generates STOP/GO on both their links), host 0 sends background
/// traffic to host 2.
fn build_campaign_net<P: Probe>(
    opts: &ControlCampaignOptions,
    forbidden: Vec<u8>,
    probe: P,
) -> Result<Testbed<P>, ScenarioError> {
    // Campaign-era slack buffers: the headroom above the high watermark is
    // sized for the STOP round-trip (about two frames), so a sender whose
    // STOPs are eaten genuinely overruns the buffer.
    let switch_config = netfi_myrinet::SwitchConfig {
        sbuf_capacity: 5120,
        sbuf_high: 3072,
        sbuf_low: 512,
        ..netfi_myrinet::SwitchConfig::default()
    };
    let options = TestbedOptions {
        hosts: 3,
        intercept_host: Some(1),
        seed: opts.seed,
        switch_config,
        ..TestbedOptions::default()
    };
    let nic_rx_capacity = opts.nic_rx_capacity;
    Ok(build_testbed_probed(options, probe, move |i, host: &mut Host| {
        // Hosts 0 and 2 converge on the intercepted host 1 (saturating its
        // NIC receive buffer, whose STOP/GO crosses the injector); host 1
        // sends its own stream back to host 0.
        let dest = match i {
            1 => EthAddr::myricom(1),
            _ => EthAddr::myricom(2),
        };
        // Campaign-era NIC slack buffers, matched to the switch geometry.
        host.nic_mut()
            .set_rx_params(nic_rx_capacity, 3072, 512, 300_000_000);
        // Mutually prime periods per host sweep the senders through every
        // phase alignment quickly, so congestion (and its STOP/GO traffic)
        // visits both contending links in every duty window.
        let skew = SimDuration::from_us(2_700) * i as u64;
        host.add_workload(Workload::Sender {
            dest,
            interval: BURST_INTERVAL + skew,
            payload_len: PAYLOAD_LEN,
            forbidden: forbidden.clone(),
            burst: BURST,
        });
    })?)
}

/// How long before [`T0`] the donor stops and a row is programmed. One
/// `control_swap` script is ≈ 10 ms of serial line; NFTAPE likewise
/// reprogrammed the device between rows without re-mapping the network.
const PROGRAM_LEAD: SimDuration = SimDuration::from_ms(100);

/// Runs `tb` up to [`PROGRAM_LEAD`] before [`T0`], the fork instant, and
/// captures it: a donor forked once per Table 4 row or two-host arm.
///
/// The donor is exact, not approximate: until a fork programs and arms the
/// device, the device passes everything through, so the 2.4 s every run
/// would replay are one trajectory, run once. And a scheduled byte sorts
/// ahead of every component's events of its instant
/// (`Engine::schedule`'s key), in a fork as in a fresh bed, so when before
/// [`T0`] a row's script was written cannot reorder anything after it.
fn warm_to_fork_instant<P: Probe + Clone>(
    mut tb: Testbed<P>,
) -> Result<Warm<P>, ScenarioError> {
    let bed = Bed::of(&tb)?;
    tb.engine.run_until(T0.saturating_sub_duration(PROGRAM_LEAD));
    Ok(Warm::new(bed, &tb.engine))
}

/// Builds the Table 4 test bed and runs it up to the fork instant. Every
/// row whose options [`share_warm_up`] with `opts` forks it.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built.
pub(crate) fn warm_table4<P: Probe + Clone>(
    opts: &ControlCampaignOptions,
    probe: P,
) -> Result<Warm<P>, ScenarioError> {
    // §4.3.1 methodology: no corrupted symbol may appear in a payload.
    // One donor serves every row, so it avoids all four encodings (none of
    // which the printable filler alphabet contains to begin with).
    let forbidden = ControlSymbol::ALL.map(ControlSymbol::encode).to_vec();
    warm_to_fork_instant(build_campaign_net(opts, forbidden, probe)?)
}

/// Whether rows run under `a` and under `b` follow one trajectory up to
/// the fork instant — agree on everything that acts before [`T0`] — and so
/// can be forks of one donor.
pub(crate) fn share_warm_up(a: &ControlCampaignOptions, b: &ControlCampaignOptions) -> bool {
    // Exhaustive, so a new option has to be sorted into one side.
    let ControlCampaignOptions {
        window: _,
        duty_on: _,
        nic_rx_capacity,
        seed,
    } = a;
    (nic_rx_capacity, seed) == (&b.nic_rx_capacity, &b.seed)
}

/// Runs one row on a fork of `warm`, a donor [`warm_table4`] warmed under
/// options that [`share_warm_up`] with `opts`: program the swap at the
/// fork instant (match mode Off), arm it by duty cycle from [`T0`], run the
/// window and the cool-down, count messages network-wide.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the forked test bed cannot be read.
pub(crate) fn table4_row<P: Probe + Clone>(
    warm: &Warm<P>,
    mask: ControlSymbol,
    replacement: ControlSymbol,
    opts: &ControlCampaignOptions,
) -> Result<RunResult, ScenarioError> {
    run_row(warm, mask, replacement, opts).map(|(row, _)| row)
}

/// [`table4_row`], also returning the fork as the row leaves it.
fn run_row<P: Probe + Clone>(
    warm: &Warm<P>,
    mask: ControlSymbol,
    replacement: ControlSymbol,
    opts: &ControlCampaignOptions,
) -> Result<(RunResult, Engine<Ev, P>), ScenarioError> {
    let mut engine = warm.fork();
    let bed = &warm.bed;

    let config = InjectorConfig::builder()
        .match_mode(MatchMode::Off) // armed by the duty cycle
        .control_swap(mask.encode(), replacement.encode())
        .build();
    let fork_instant = engine.now();
    program_injector(
        &mut engine,
        bed.device,
        fork_instant,
        DirSelect::Both,
        &config,
    );

    let t1 = T0 + opts.window;
    schedule_duty_cycle(
        &mut engine,
        bed.device,
        T0,
        t1,
        DUTY_PERIOD,
        opts.duty_on,
        MatchMode::On,
    );

    engine.run_until(T0);
    let before = TrafficSnapshot::capture(&engine, &bed.hosts)?;
    engine.run_until(t1);
    // Cool-down: stop injecting, let in-flight messages settle.
    engine.run_for(SimDuration::from_ms(200));
    let delta = TrafficSnapshot::capture(&engine, &bed.hosts)?.delta(&before);

    let mut nic_overflow = 0u64;
    for &h in &bed.hosts {
        nic_overflow += read::<Host>(&engine, h)?.nic().stats().rx_overflow_drops;
    }
    let sw = read::<Switch>(&engine, bed.switch)?;
    let row = RunResult::new(
        format!("{mask}->{replacement}"),
        delta.sent(),
        delta.received.min(delta.sent()),
        opts.window.as_secs_f64(),
    )
    .with_extra("overflow_drops", sw.stats().overflow_drops as f64)
    .with_extra("nic_overflow_drops", nic_overflow as f64)
    .with_extra("framing_drops", sw.stats().framing_drops as f64)
    .with_extra(
        "long_timeout_releases",
        sw.stats().long_timeout_releases as f64,
    );
    Ok((row, engine))
}

/// Runs the nine rows of Table 4 on forks of `warm`, in the paper's order.
fn table4<P: Probe + Clone>(
    warm: &Warm<P>,
    opts: &ControlCampaignOptions,
) -> Result<Vec<RunResult>, ScenarioError> {
    table4_rows()
        .into_iter()
        .map(|(mask, replacement)| table4_row(warm, mask, replacement, opts))
        .collect()
}

/// Runs one row of Table 4: corrupt every `mask` control symbol crossing
/// the intercepted link into `replacement`, duty-cycled, and count
/// messages network-wide. Warms a test bed for this one row;
/// [`control_symbol_table`] and
/// [`run_campaigns_with_workers`](crate::campaign::run_campaigns_with_workers)
/// warm one for all the rows they run.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn control_symbol_row(
    mask: ControlSymbol,
    replacement: ControlSymbol,
    opts: &ControlCampaignOptions,
) -> Result<RunResult, ScenarioError> {
    table4_row(&warm_table4(opts, NullProbe)?, mask, replacement, opts)
}

/// Runs one row of Table 4 like [`control_symbol_row`], and also returns
/// the row's injector device as the cool-down leaves it, with that
/// instant: what its counters and capture memory read at the end.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn control_symbol_row_device(
    mask: ControlSymbol,
    replacement: ControlSymbol,
    opts: &ControlCampaignOptions,
) -> Result<(RunResult, InjectorDevice, SimTime), ScenarioError> {
    let warm = warm_table4(opts, NullProbe)?;
    let (row, engine) = run_row(&warm, mask, replacement, opts)?;
    let device = read::<InjectorDevice>(&engine, warm.bed.device)?.clone();
    Ok((row, device, engine.now()))
}

/// Runs the full nine-row Table 4 campaign on forks of one warmed test
/// bed: 1 × warm-up + 9 × (window + cool-down).
///
/// # Errors
///
/// Returns the first row's [`ScenarioError`], if any.
pub fn control_symbol_table(opts: &ControlCampaignOptions) -> Result<Vec<RunResult>, ScenarioError> {
    table4(&warm_table4(opts, NullProbe)?, opts)
}

/// A fork of a two-host donor ([`stop_throughput`]'s or [`gap_timeout`]'s),
/// with `config`, if any, programmed into the device's host-to-switch
/// direction (the intercepted host's transmissions) at the fork instant.
/// The arms differ only in that program, and until then the device passes
/// everything, so both arms share one warm-up.
fn fork_arm(warm: &Warm, config: Option<&InjectorConfig>) -> Engine<Ev> {
    let mut engine = warm.fork();
    if let Some(config) = config {
        let at = engine.now();
        program_injector(&mut engine, warm.bed.device, at, DirSelect::A, config);
    }
    engine
}

/// §4.3.1 STOP experiment: a request/response program's message rate with
/// and without "faulty STOP conditions" (every GAP from the intercepted
/// host corrupted into STOP, so its replies leave paths unterminated and
/// are lost; the test program limps on its loss timeout).
///
/// The paper observed 5038 messages/minute against 48000 under normal
/// conditions (~90 % decrease).
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn stop_throughput(
    faulty: bool,
    window: SimDuration,
    seed: u64,
) -> Result<RunResult, ScenarioError> {
    stop_arm(&warm_stop_throughput(seed)?, faulty, window)
}

/// Both arms of [`stop_throughput`], normal then faulty, forked from one
/// warm-up.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn stop_throughput_arms(
    window: SimDuration,
    seed: u64,
) -> Result<Vec<RunResult>, ScenarioError> {
    let warm = warm_stop_throughput(seed)?;
    [false, true]
        .into_iter()
        .map(|faulty| stop_arm(&warm, faulty, window))
        .collect()
}

fn warm_stop_throughput(seed: u64) -> Result<Warm, ScenarioError> {
    let options = TestbedOptions {
        hosts: 2,
        intercept_host: Some(1),
        paper_era_hosts: true,
        seed,
        ..TestbedOptions::default()
    };
    warm_to_fork_instant(build_testbed(options, |i, host: &mut Host| {
        if i == 0 {
            host.add_workload(Workload::Flood {
                peer: EthAddr::myricom(2),
                payload_len: 64,
                timeout: SimDuration::from_ms(4),
            });
        }
    })?)
}

fn stop_arm(warm: &Warm, faulty: bool, window: SimDuration) -> Result<RunResult, ScenarioError> {
    // Corrupt only the host->switch direction (the replies), armed by the
    // duty cycle below.
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::Off)
        .control_swap(ControlSymbol::Gap.encode(), ControlSymbol::Stop.encode())
        .build();
    let mut engine = fork_arm(warm, faulty.then_some(&config));
    if faulty {
        // The fault is active 90 % of the time — the paper's injection
        // pacing is not stated; this duty reproduces its ~10 % residual
        // throughput.
        schedule_duty_cycle(
            &mut engine,
            warm.bed.device,
            T0,
            T0 + window,
            SimDuration::from_secs(1),
            SimDuration::from_ms(900),
            MatchMode::On,
        );
    }
    engine.run_until(T0);
    let h0 = read::<Host>(&engine, warm.bed.hosts[0])?;
    let before = h0.ping_report(0).completed;
    let before_losses = h0.ping_report(0).losses;
    engine.run_until(T0 + window);
    let h0 = read::<Host>(&engine, warm.bed.hosts[0])?;
    let completed = h0.ping_report(0).completed - before;
    let losses = h0.ping_report(0).losses - before_losses;
    Ok(RunResult::new(
        if faulty { "faulty STOP" } else { "normal" },
        completed + losses,
        completed,
        window.as_secs_f64(),
    )
    .with_extra(
        "messages_per_minute",
        completed as f64 * 60.0 / window.as_secs_f64(),
    ))
}

/// §4.3.1 GAP experiment: corrupt every GAP from the intercepted host into
/// IDLE. Each packet leaves its wormhole path occupied; the network
/// recovers only by the ~50 ms long-period timeout, so throughput falls to
/// around `interval / long_timeout` of normal (the paper reports ~12 %).
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn gap_timeout(
    faulty: bool,
    window: SimDuration,
    seed: u64,
) -> Result<RunResult, ScenarioError> {
    gap_arm(&warm_gap_timeout(seed)?, faulty, window)
}

/// Both arms of [`gap_timeout`], normal then faulty, forked from one
/// warm-up.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the test bed cannot be built or read.
pub fn gap_timeout_arms(
    window: SimDuration,
    seed: u64,
) -> Result<Vec<RunResult>, ScenarioError> {
    let warm = warm_gap_timeout(seed)?;
    [false, true]
        .into_iter()
        .map(|faulty| gap_arm(&warm, faulty, window))
        .collect()
}

fn warm_gap_timeout(seed: u64) -> Result<Warm, ScenarioError> {
    let interval = SimDuration::from_ms(6);
    let options = TestbedOptions {
        hosts: 2,
        intercept_host: Some(1),
        seed,
        ..TestbedOptions::default()
    };
    warm_to_fork_instant(build_testbed(options, |i, host: &mut Host| {
        // Pure data-path experiment: static routes, no mapping. Corrupting
        // every GAP a node emits also kills its mapping traffic (the node
        // self-isolates), which would measure a different effect than the
        // paper's source-blocking throughput collapse.
        host.nic_mut().set_can_map(false);
        let peer_port = 1 - i as u8;
        host.nic_mut().install_route(
            EthAddr::myricom(peer_port as u32 + 1),
            vec![netfi_myrinet::packet::route_to_host(peer_port)],
        );
        if i == 1 {
            host.add_workload(Workload::Sender {
                dest: EthAddr::myricom(1),
                interval,
                payload_len: 512,
                forbidden: vec![ControlSymbol::Gap.encode(), ControlSymbol::Idle.encode()],
                burst: 1,
            });
        }
    })?)
}

fn gap_arm(warm: &Warm, faulty: bool, window: SimDuration) -> Result<RunResult, ScenarioError> {
    // Armed at the fork instant, after the first mapping rounds settle, so
    // the campaign measures data-path blocking rather than a never-mapped
    // network.
    let config = InjectorConfig::builder()
        .match_mode(MatchMode::On)
        .control_swap(ControlSymbol::Gap.encode(), ControlSymbol::Idle.encode())
        .build();
    let mut engine = fork_arm(warm, faulty.then_some(&config));
    engine.run_until(T0);
    let before = TrafficSnapshot::capture(&engine, &warm.bed.hosts)?;
    engine.run_until(T0 + window);
    engine.run_for(SimDuration::from_ms(100));
    let delta = TrafficSnapshot::capture(&engine, &warm.bed.hosts)?.delta(&before);
    let sw = read::<Switch>(&engine, warm.bed.switch)?;
    Ok(RunResult::new(
        if faulty { "GAP corrupted" } else { "normal" },
        delta.sent(),
        delta.received.min(delta.sent()),
        window.as_secs_f64(),
    )
    .with_extra(
        "long_timeout_releases",
        sw.stats().long_timeout_releases as f64,
    )
    .with_extra("framing_drops", sw.stats().framing_drops as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_sim::ComponentId;

    fn quick_opts() -> ControlCampaignOptions {
        ControlCampaignOptions {
            window: SimDuration::from_secs(4),
            ..ControlCampaignOptions::default()
        }
    }

    /// Counts every dispatch of the engine it is installed on and of
    /// every fork of it, on whichever thread they run.
    #[derive(Debug, Clone, Default)]
    struct Dispatched(std::sync::Arc<std::sync::atomic::AtomicU64>);

    impl Probe for Dispatched {
        fn on_dispatch(&mut self, _: SimTime, _: ComponentId, _: u64) {
            // A statistic read after every engine is done: publishes nothing.
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Dispatched {
        /// The count since the last take.
        fn take(&self) -> u64 {
            self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    /// The oracle: one row the way every row ran before rows forked a
    /// donor — a test bed of its own whose payloads avoid this row's two
    /// symbols, programmed at 100 ms, warmed through to [`T0`].
    /// Returns the row and the events the engine dispatched for it.
    fn fresh_row(
        mask: ControlSymbol,
        replacement: ControlSymbol,
        opts: &ControlCampaignOptions,
    ) -> (RunResult, u64) {
        let forbidden = vec![mask.encode(), replacement.encode()];
        let mut tb = build_campaign_net(opts, forbidden, NullProbe).unwrap();
        let device = tb.injector.unwrap();

        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Off)
            .control_swap(mask.encode(), replacement.encode())
            .build();
        program_injector(&mut tb.engine, device, SimTime::from_ms(100), DirSelect::Both, &config);

        let t0 = T0;
        let t1 = t0 + opts.window;
        schedule_duty_cycle(
            &mut tb.engine,
            device,
            t0,
            t1,
            DUTY_PERIOD,
            opts.duty_on,
            MatchMode::On,
        );

        tb.engine.run_until(t0);
        let before = TrafficSnapshot::capture(&tb.engine, &tb.hosts).unwrap();
        tb.engine.run_until(t1);
        tb.engine.run_for(SimDuration::from_ms(200));
        let after = TrafficSnapshot::capture(&tb.engine, &tb.hosts).unwrap();
        let delta = after.delta(&before);

        let mut nic_overflow = 0u64;
        for &h in &tb.hosts {
            let host = tb.engine.component_as::<Host>(h).unwrap();
            nic_overflow += host.nic().stats().rx_overflow_drops;
        }
        let sw = tb.engine.component_as::<Switch>(tb.switch).unwrap();
        let row = RunResult::new(
            format!("{mask}->{replacement}"),
            delta.sent(),
            delta.received.min(delta.sent()),
            opts.window.as_secs_f64(),
        )
        .with_extra("overflow_drops", sw.stats().overflow_drops as f64)
        .with_extra("nic_overflow_drops", nic_overflow as f64)
        .with_extra("framing_drops", sw.stats().framing_drops as f64)
        .with_extra(
            "long_timeout_releases",
            sw.stats().long_timeout_releases as f64,
        );
        (row, tb.engine.events_processed())
    }

    fn table4_opts(seed: u64, window_secs: u64) -> ControlCampaignOptions {
        ControlCampaignOptions {
            window: SimDuration::from_secs(window_secs),
            seed,
            ..ControlCampaignOptions::default()
        }
    }

    /// Every forked row `==` the fresh row, for one seed: one donor serves
    /// both windows, as it would a duty sweep.
    fn forked_rows_equal_fresh_rows(seed: u64) {
        let warm = warm_table4(&table4_opts(seed, 1), NullProbe).unwrap();
        for window_secs in [1, 3] {
            let opts = table4_opts(seed, window_secs);
            for (mask, replacement) in table4_rows() {
                let forked = table4_row(&warm, mask, replacement, &opts).unwrap();
                let (fresh, _) = fresh_row(mask, replacement, &opts);
                assert_eq!(forked, fresh, "seed {seed}, window {window_secs} s");
            }
        }
    }

    #[test]
    fn forked_rows_equal_fresh_rows_seed_7() {
        forked_rows_equal_fresh_rows(7);
    }

    #[test]
    fn forked_rows_equal_fresh_rows_seed_12345() {
        forked_rows_equal_fresh_rows(12345);
    }

    #[test]
    fn forked_rows_equal_fresh_rows_seed_99() {
        forked_rows_equal_fresh_rows(99);
    }

    #[test]
    fn nine_rows_warm_one_donor_whatever_the_worker_count() {
        use crate::campaign::{paper_campaigns, run_campaigns_probed, FaultSpec};
        let seed = 2002;
        let opts = table4_opts(seed, 1);

        // What one warm-up and nine rows dispatch, from the oracle: a
        // fresh row's engine counts the warm-up and the row together.
        let warm_events = {
            let mut tb = build_campaign_net(&opts, Vec::new(), NullProbe).unwrap();
            tb.engine.run_until(T0 - PROGRAM_LEAD);
            tb.engine.events_processed()
        };
        let fresh: Vec<(RunResult, u64)> = table4_rows()
            .into_iter()
            .map(|(mask, replacement)| fresh_row(mask, replacement, &opts))
            .collect();
        let nine_fresh: u64 = fresh.iter().map(|(_, events)| events).sum();
        let one_warm_nine_rows = nine_fresh - 8 * warm_events;
        assert!(warm_events > 10_000, "a second warm-up could not hide");

        let dispatched = Dispatched::default();
        let table = table4(&warm_table4(&opts, dispatched.clone()).unwrap(), &opts).unwrap();
        assert_eq!(dispatched.take(), one_warm_nine_rows, "control_symbol_table");
        assert!(table.iter().eq(fresh.iter().map(|(row, _)| row)));

        let mut specs = paper_campaigns(seed);
        specs.retain(|spec| matches!(spec.fault, FaultSpec::ControlSymbol { .. }));
        for spec in &mut specs {
            spec.window_secs = 1;
        }
        for workers in [1, 2, 8] {
            let rows = run_campaigns_probed(&specs, workers, &dispatched).unwrap();
            assert_eq!(dispatched.take(), one_warm_nine_rows, "workers = {workers}");
            assert_eq!(rows.len(), 9);
        }
    }

    /// Table 4's test bed draws nothing from its seed: its hosts are
    /// `HostConfig::fast` (no jitter, no calibration offset) and its NIC
    /// seeds derive from addresses. A row at any seed is the row at seed 7,
    /// so checking the rows at "held-out" seeds proves nothing. A change
    /// that wires the seed in must move this test on purpose.
    #[test]
    fn control_symbol_row_ignores_its_seed() {
        let opts = |seed| table4_opts(seed, 1);
        for (mask, replacement) in [
            (ControlSymbol::Stop, ControlSymbol::Idle),
            (ControlSymbol::Go, ControlSymbol::Stop),
        ] {
            let row = control_symbol_row(mask, replacement, &opts(7)).unwrap();
            for seed in [31337, 424242] {
                assert_eq!(
                    control_symbol_row(mask, replacement, &opts(seed)).unwrap(),
                    row,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn baseline_without_injection_is_lossless() {
        // An identity swap (STOP -> STOP) exercises the whole campaign
        // machinery without corrupting anything.
        let opts = quick_opts();
        let result = control_symbol_row(ControlSymbol::Stop, ControlSymbol::Stop, &opts).unwrap();
        assert!(result.sent > 200, "sent = {}", result.sent);
        assert!(
            result.loss_rate() < 0.01,
            "baseline loss {:.3} (sent {} received {})",
            result.loss_rate(),
            result.sent,
            result.received
        );
    }

    #[test]
    fn stop_corruption_causes_moderate_loss() {
        let opts = quick_opts();
        let result = control_symbol_row(ControlSymbol::Stop, ControlSymbol::Idle, &opts).unwrap();
        assert!(
            result.loss_rate() > 0.02 && result.loss_rate() < 0.45,
            "STOP->IDLE loss {:.3}",
            result.loss_rate()
        );
        assert!(result.extra("overflow_drops").unwrap() > 0.0);
    }

    #[test]
    fn gap_corruption_causes_loss_and_blocking() {
        let opts = quick_opts();
        let result = control_symbol_row(ControlSymbol::Gap, ControlSymbol::Go, &opts).unwrap();
        assert!(
            result.loss_rate() > 0.02,
            "GAP->GO loss {:.3}",
            result.loss_rate()
        );
        assert!(
            result.extra("framing_drops").unwrap() > 0.0
                || result.extra("long_timeout_releases").unwrap() > 0.0
        );
    }

    /// The campaign runner's arms fork one warm-up and read what each arm
    /// reads on a bed of its own: a fork leaves its donor as it found it.
    #[test]
    fn two_host_arms_share_one_warm_up() {
        let window = SimDuration::from_secs(1);
        for seed in [7, 31337] {
            let stop = [false, true].map(|faulty| stop_throughput(faulty, window, seed).unwrap());
            assert_eq!(stop_throughput_arms(window, seed).unwrap(), stop, "seed {seed}");
            let gap = [false, true].map(|faulty| gap_timeout(faulty, window, seed).unwrap());
            assert_eq!(gap_timeout_arms(window, seed).unwrap(), gap, "seed {seed}");
        }
    }

    #[test]
    fn stop_throughput_drops_dramatically() {
        let window = SimDuration::from_secs(4);
        let normal = stop_throughput(false, window, 1).unwrap();
        let faulty = stop_throughput(true, window, 1).unwrap();
        let ratio = faulty.throughput() / normal.throughput();
        // Paper: ~90 % decrease (5038 vs 48000 per minute).
        assert!(
            ratio < 0.35,
            "faulty/normal = {ratio:.3} ({} vs {})",
            faulty.received,
            normal.received
        );
        assert!(normal.loss_rate() < 0.01);
    }

    #[test]
    fn gap_timeout_throughput_near_12_percent() {
        let window = SimDuration::from_secs(4);
        let normal = gap_timeout(false, window, 2).unwrap();
        let faulty = gap_timeout(true, window, 2).unwrap();
        assert!(normal.loss_rate() < 0.01, "normal loss {}", normal.loss_rate());
        let ratio = faulty.received as f64 / normal.received.max(1) as f64;
        // Paper: throughput drops to ~12 % of normal.
        assert!(
            (0.05..0.30).contains(&ratio),
            "throughput ratio {ratio:.3}"
        );
        assert!(faulty.extra("long_timeout_releases").unwrap() > 0.0);
    }
}
