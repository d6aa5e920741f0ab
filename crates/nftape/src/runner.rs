//! Campaign execution helpers.
//!
//! NFTAPE (\[Sto00\]) drives the injector from an external control host over
//! the serial line; these helpers do the same in simulation — they turn an
//! [`InjectorConfig`] into its serial command script and schedule the bytes
//! as [`Ev::Serial`] events, so campaigns exercise the device's real
//! command decoder rather than poking its state directly.

use netfi_core::command::{write_command, Command, DirSelect};
use netfi_core::config::InjectorConfig;
use netfi_core::corrupt::CorruptMode;
use netfi_core::trigger::MatchMode;
use netfi_myrinet::event::Ev;
use netfi_myrinet::switch::Switch;
use netfi_netstack::Host;
use netfi_phy::serial::UartConfig;
use netfi_sim::{ComponentId, SimDuration, SimTime, Simulation};

use crate::bed::read_mut;
use crate::results::ScenarioError;

/// The default campaign fan-out width: one worker per available core.
///
/// Campaign workers are CPU-bound (each spins a private simulation
/// engine), so oversubscribing buys nothing; the paper's NFTAPE control
/// host likewise ran one experiment per target machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Runs every index `i < n` over `workers` threads and returns the
/// results in index order — the one fan-out every campaign driver uses
/// (DESIGN.md §10).
///
/// `worker` is a factory: each thread calls it once and feeds the
/// `FnMut(i)` it returns every index that thread claims, so a driver can
/// keep state on its worker — in practice one resident engine that each
/// item overwrites with `EngineSnapshot::fork_into` instead of building
/// and freeing an engine per item. A stateless driver passes `|| |i| …`.
///
/// The calling thread is the first worker, so `workers == 1` spawns
/// nothing and runs the same loop as any other count. Workers claim
/// indices from a shared iterator that hands each a disjoint `&mut`
/// result slot; the claim lock is released before the item starts.
/// Nothing in the output can observe which thread ran which index, so an
/// item that is a pure function of `i` makes the result independent of
/// `workers`. Per-worker state keeps that property as long as every item
/// begins by overwriting it whole, which is `fork_into`'s contract: what
/// the worker's previous item left behind — even one that failed or
/// panicked half-way — cannot reach an output byte.
///
/// Each worker is fed its indices in strictly increasing order — a
/// contract, not an accident of the schedule: the claim iterator only
/// moves forward. That is the other way per-worker state may stay sound
/// without being overwritten per item: state that only ever moves
/// forward with the index, and that each item reads at its own index
/// whatever the worker saw before (the sampler's healthy prefix, run
/// ahead to each point's arming instant and forked there).
///
/// # Errors
///
/// Every index runs; the error of the lowest failing index is returned.
///
/// # Panics
///
/// Panics if `workers` is zero. A panic inside an item propagates once the
/// remaining workers have finished and been joined.
pub fn fan_out<T: Send, E: Send, W: FnMut(usize) -> Result<T, E>>(
    workers: usize,
    n: usize,
    worker: impl Fn() -> W + Sync,
) -> Result<Vec<T>, E> {
    assert!(workers > 0, "worker count must be non-zero");
    let mut slots: Vec<Option<Result<T, E>>> = (0..n).map(|_| None).collect();
    {
        let claims = std::sync::Mutex::new(slots.iter_mut().enumerate());
        let work = || {
            let mut run = worker();
            loop {
                let claimed = claims
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .next();
                let Some((i, slot)) = claimed else { break };
                *slot = Some(run(i));
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the one campaign fan-out: results land in index-ordered slots, so the schedule cannot reach any output byte"
        )]
        std::thread::scope(|scope| {
            for _ in 1..workers.min(n) {
                scope.spawn(work);
            }
            work();
        });
    }
    // The scope re-raises a worker's panic, so here every slot is filled,
    // and `map_while` lets the collect reuse the slots' storage in place
    // (`flatten` would copy every result into a second vector).
    slots.into_iter().map_while(|slot| slot).collect()
}

/// Powers off `host`: it stays wired but ignores every later event — the
/// paper's silent node failure. A STOP train its receive buffer was
/// sending ends with the repeats sent by now; the train end that tells the
/// held sender so is scheduled here ([`Host::power_off`]).
///
/// # Errors
///
/// Returns [`ScenarioError::WrongComponent`] if `host` is not a [`Host`].
pub fn power_off(sim: &mut impl Simulation<Ev>, host: ComponentId) -> Result<(), ScenarioError> {
    let now = sim.now();
    let cut = read_mut::<Host>(sim, host)?.power_off(now);
    cut.schedule(sim, host);
    Ok(())
}

/// Severs `port` of `switch`: frames arriving on or routed out of it are
/// dropped and counted, and it sends no flow control — the paper's link
/// failure. The STOP trains on the link end with the repeats that crossed
/// by now; what that owes either end is scheduled here.
///
/// # Errors
///
/// Returns [`ScenarioError::WrongComponent`] if `switch` is not a
/// [`Switch`] or has no such port.
pub fn sever(
    sim: &mut impl Simulation<Ev>,
    switch: ComponentId,
    port: usize,
) -> Result<(), ScenarioError> {
    let now = sim.now();
    let sw = read_mut::<Switch>(sim, switch)?;
    let port = u8::try_from(port)
        .ok()
        .filter(|&p| usize::from(p) < sw.port_count())
        .ok_or(ScenarioError::WrongComponent("Switch port"))?;
    let cut = sw.sever_port(now, port);
    cut.schedule(sim, switch);
    Ok(())
}

/// Builds the serial command sequence that programs `config` on the
/// selected direction(s).
pub fn commands_for_config(dir: DirSelect, config: &InjectorConfig) -> Vec<Command> {
    let mut out = vec![Command::SelectDirection(dir)];
    out.push(Command::CompareData(config.compare.compare_data));
    out.push(Command::CompareMask(config.compare.compare_mask));
    out.push(Command::CorruptMode(config.corrupt.mode));
    out.push(Command::CorruptData(config.corrupt.corrupt_data));
    match config.corrupt.mode {
        CorruptMode::Replace => out.push(Command::CorruptMask(config.corrupt.corrupt_mask)),
        CorruptMode::Toggle => {}
    }
    out.push(Command::CrcRecompute(config.crc_recompute));
    match config.control {
        Some(ctl) => out.push(Command::ControlSwap {
            from: ctl.compare.compare_code,
            mask: ctl.compare.compare_mask,
            to: ctl.corrupt.corrupt_code,
        }),
        None => out.push(Command::ControlOff),
    }
    out.push(Command::RandomRate(
        config.random.map(|r| r.threshold).unwrap_or(0),
    ));
    // Match mode last, so the trigger arms only once fully configured.
    out.push(Command::MatchMode(config.match_mode));
    out
}

/// Renders commands to the byte stream the UART carries, into one buffer
/// sized for the longest line (a tag, eight hex digits and the newline).
pub fn script_bytes(commands: &[Command]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 * commands.len());
    for cmd in commands {
        write_command(cmd, &mut out);
        out.push(b'\n');
    }
    out
}

/// Schedules a command script at the device, one byte per UART frame time
/// starting at `at`. Returns the time the last byte arrives.
///
/// Generic over [`Simulation`], so the same script drives a serial
/// `Engine` or a `ShardedEngine` identically.
pub fn schedule_script(
    sim: &mut impl Simulation<Ev>,
    device: ComponentId,
    at: SimTime,
    commands: &[Command],
) -> SimTime {
    let uart = UartConfig::rs232_115200();
    let mut t = at;
    for byte in script_bytes(commands) {
        sim.schedule(t, device, Ev::Serial(byte));
        t += uart.frame_duration();
    }
    t
}

/// Schedules the full programming of `config` (direction `dir`) at `at`.
pub fn program_injector(
    sim: &mut impl Simulation<Ev>,
    device: ComponentId,
    at: SimTime,
    dir: DirSelect,
    config: &InjectorConfig,
) -> SimTime {
    schedule_script(sim, device, at, &commands_for_config(dir, config))
}

/// Schedules a duty-cycled campaign: the trigger is switched ON at the
/// start of each period and OFF after `on_for`, from `from` until `until`.
/// The configuration itself must already be programmed.
pub(crate) fn schedule_duty_cycle(
    sim: &mut impl Simulation<Ev>,
    device: ComponentId,
    from: SimTime,
    until: SimTime,
    period: SimDuration,
    on_for: SimDuration,
    mode_when_on: MatchMode,
) {
    assert!(on_for <= period, "on_for must not exceed the period");
    let mut t = from;
    while t < until {
        schedule_script(sim, device, t, &[Command::MatchMode(mode_when_on)]);
        let off_at = t + on_for;
        if off_at < until {
            schedule_script(sim, device, off_at, &[Command::MatchMode(MatchMode::Off)]);
        }
        t += period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_core::trigger::MatchMode;
    use netfi_sim::Engine;

    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_returns_index_order_and_runs_each_index_once() {
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 5, 64] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = fan_out(workers, n, || {
                    |i| {
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        Ok::<_, ()>(i * 10)
                    }
                });
                let want: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, Ok(want), "workers={workers} n={n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                    "workers={workers} n={n}"
                );
            }
        }
    }

    #[test]
    fn fan_out_builds_one_state_per_worker_and_keeps_it_across_items() {
        for (workers, n) in [(1, 5), (2, 64), (3, 64), (4, 64), (8, 2), (4, 0)] {
            let made = AtomicUsize::new(0);
            let out = fan_out(workers, n, || {
                let worker = made.fetch_add(1, Ordering::SeqCst);
                let mut served = 0usize;
                move |i| {
                    served += 1;
                    Ok::<_, ()>((i, worker, served))
                }
            })
            .unwrap();
            let made = made.load(Ordering::SeqCst);
            assert_eq!(made, workers.min(n).max(1), "workers={workers} n={n}");
            assert!(out.iter().map(|&(i, ..)| i).eq(0..n));
            // Each worker is fed strictly increasing indices (the
            // documented contract), so in index order each state's own
            // count reads 1, 2, 3, …
            let mut next = vec![1usize; made];
            for &(_, worker, served) in &out {
                assert_eq!(served, next[worker], "workers={workers} n={n}");
                next[worker] += 1;
            }
        }
    }

    #[test]
    fn fan_out_returns_the_lowest_failing_index_even_when_it_finishes_last() {
        // Index 1 blocks until index 7 starts. With two workers the other
        // one runs 2..=7 in order, so index 6 has failed and been recorded
        // before index 1 returns.
        let seven_started = std::sync::Barrier::new(2);
        let out: Result<Vec<usize>, usize> = fan_out(2, 8, || {
            |i| {
                if i == 1 || i == 7 {
                    seven_started.wait();
                }
                if i == 1 || i == 6 {
                    Err(i)
                } else {
                    Ok(i)
                }
            }
        });
        assert_eq!(out, Err(1));
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn fan_out_rejects_zero_workers() {
        let _ = fan_out(0, 3, || Ok::<_, ()>);
    }

    #[test]
    #[should_panic(expected = "item 2")]
    fn fan_out_propagates_an_item_panic_after_the_other_items_ran() {
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(3, 8, || {
                |i| {
                    assert_ne!(i, 2, "item 2");
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(i)
                }
            })
        }));
        // No hang, and the claim lock was never poisoned: the two
        // surviving workers drained every other index before the scope
        // re-raised the panic.
        assert_eq!(ran.load(Ordering::SeqCst), 7);
        assert!(outcome.is_ok(), "item 2 panicked out of fan_out");
    }

    #[test]
    fn donors_are_sync() {
        // `fan_out` shares the donor by reference; a component that grows
        // an `Rc`/`Cell` field must fail here, at the trait bound.
        fn assert_sync<T: Sync>() {}
        assert_sync::<crate::bed::Warm<netfi_obs::DispatchProbe>>();
        assert_sync::<crate::WarmedCampaign>();
        assert_sync::<crate::WarmedDetect>();
    }

    #[test]
    fn config_script_roundtrip() {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::Once)
            .compare(0x1818_0000, 0xFFFF_0000)
            .corrupt_replace(0x1918_0000, 0xFFFF_0000)
            .recompute_crc(true)
            .control_swap(0x0F, 0x0C)
            .build();
        let commands = commands_for_config(DirSelect::A, &config);
        // Feeding the script into a device must install exactly `config`.
        let mut device = netfi_core::InjectorDevice::with_name("t");
        device.feed_serial(&script_bytes(&commands));
        let installed = device.config_of(netfi_core::Direction::AToB);
        assert_eq!(installed, &config);
        // And the other direction stays pass-through.
        let other = device.config_of(netfi_core::Direction::BToA);
        assert_eq!(other.match_mode, MatchMode::Off);
        // All commands acked.
        let acks = device.take_serial_output();
        assert_eq!(acks.len(), commands.len() * 2); // "+\n" each
    }

    #[test]
    fn toggle_config_skips_corrupt_mask() {
        let config = InjectorConfig::builder()
            .match_mode(MatchMode::On)
            .corrupt_toggle(0xFF00_0000)
            .build();
        let commands = commands_for_config(DirSelect::Both, &config);
        assert!(!commands
            .iter()
            .any(|c| matches!(c, Command::CorruptMask(_))));
        let mut device = netfi_core::InjectorDevice::with_name("t");
        device.feed_serial(&script_bytes(&commands));
        assert_eq!(device.config_of(netfi_core::Direction::BToA), &config);
    }

    #[test]
    fn match_mode_is_programmed_last() {
        let config = InjectorConfig::builder().match_mode(MatchMode::On).build();
        let commands = commands_for_config(DirSelect::A, &config);
        assert_eq!(*commands.last().unwrap(), Command::MatchMode(MatchMode::On));
    }

    #[test]
    #[should_panic(expected = "on_for")]
    fn duty_cycle_validates_period() {
        let mut engine: Engine<Ev> = Engine::new();
        let dev = engine.add_component(Box::new(netfi_core::InjectorDevice::with_name("x")));
        schedule_duty_cycle(
            &mut engine,
            dev,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_ms(10),
            SimDuration::from_ms(20),
            MatchMode::On,
        );
    }
}
