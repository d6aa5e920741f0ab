//! The engine dispatch probe.
//!
//! [`DispatchProbe`] plugs into the engine's static-dispatch observation
//! seam (`netfi_sim::engine::Probe`) and records, per component: how many
//! events it handled and how many it emitted, plus a bounded flight trace
//! of recent dispatches. Because the probe is a type parameter of the
//! engine, a simulation built without one (`NullProbe`) pays nothing —
//! the hooks inline to empty bodies.

use netfi_sim::engine::Probe;
use netfi_sim::{ComponentId, SimTime};

use crate::event::{ObsEvent, Stamped};
use crate::flight::FlightRecorder;

/// Counts per-component dispatches and keeps a bounded dispatch trace.
///
/// `Clone` is the probe's snapshot seam: `Engine::snapshot` clones the
/// installed probe, so a forked engine resumes with identical counters
/// and trace state. `clone_from` overwrites the counter vectors and the
/// trace ring where they are, which is what makes
/// `EngineSnapshot::fork_into` free of the ring's reservation.
#[derive(Debug)]
pub struct DispatchProbe {
    dispatches: Vec<u64>,
    emitted: Vec<u64>,
    total: u64,
    first: Option<SimTime>,
    last: SimTime,
    ring: FlightRecorder<ObsEvent>,
    /// Evictions inherited from the probes a [`DispatchProbe::merged`]
    /// probe was folded from; zero on a directly-installed probe.
    carried_dropped: u64,
}

impl Clone for DispatchProbe {
    fn clone(&self) -> Self {
        let mut probe = DispatchProbe::new(self.ring.capacity());
        probe.clone_from(self);
        probe
    }

    fn clone_from(&mut self, src: &Self) {
        let DispatchProbe {
            dispatches,
            emitted,
            total,
            first,
            last,
            ring,
            carried_dropped,
        } = src;
        self.dispatches.clone_from(dispatches);
        self.emitted.clone_from(emitted);
        self.total = *total;
        self.first = *first;
        self.last = *last;
        self.ring.clone_from(ring);
        self.carried_dropped = *carried_dropped;
    }
}

impl DispatchProbe {
    /// A probe whose dispatch trace keeps the last `ring_capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity` is zero.
    pub fn new(ring_capacity: usize) -> DispatchProbe {
        DispatchProbe {
            dispatches: Vec::new(),
            emitted: Vec::new(),
            total: 0,
            first: None,
            last: SimTime::ZERO,
            ring: FlightRecorder::new(ring_capacity),
            carried_dropped: 0,
        }
    }

    /// Folds per-shard probes into one whole-engine export.
    ///
    /// A `ShardedEngine` (see `netfi_sim::shard`) installs one probe per
    /// affinity shard; this constructor sums their counters elementwise,
    /// takes the earliest first-dispatch and latest last-dispatch, merges
    /// the dispatch traces by time (ties keep shard order — the traces are
    /// diagnostic, not part of any pinned export), and carries the parts'
    /// eviction counts forward into [`DispatchProbe::trace_dropped`].
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a DispatchProbe>) -> DispatchProbe {
        let mut dispatches: Vec<u64> = Vec::new();
        let mut emitted: Vec<u64> = Vec::new();
        let mut total = 0;
        let mut first: Option<SimTime> = None;
        let mut last = SimTime::ZERO;
        let mut carried_dropped = 0;
        let mut trace: Vec<Stamped<ObsEvent>> = Vec::new();
        for part in parts {
            if dispatches.len() < part.dispatches.len() {
                dispatches.resize(part.dispatches.len(), 0);
            }
            for (sum, n) in dispatches.iter_mut().zip(&part.dispatches) {
                *sum += n;
            }
            if emitted.len() < part.emitted.len() {
                emitted.resize(part.emitted.len(), 0);
            }
            for (sum, n) in emitted.iter_mut().zip(&part.emitted) {
                *sum += n;
            }
            total += part.total;
            first = match (first, part.first) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            last = last.max(part.last);
            carried_dropped += part.ring.dropped() + part.carried_dropped;
            trace.extend(part.ring.iter().copied());
        }
        trace.sort_by_key(|e| e.time);
        let mut ring = FlightRecorder::new(trace.len().max(1));
        for event in &trace {
            ring.push(event.time, event.value);
        }
        DispatchProbe {
            dispatches,
            emitted,
            total,
            first,
            last,
            ring,
            carried_dropped,
        }
    }

    /// Total events dispatched while this probe was installed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Dispatches evicted from the bounded trace (including, for a
    /// [`DispatchProbe::merged`] probe, evictions in the folded parts).
    pub fn trace_dropped(&self) -> u64 {
        self.ring.dropped() + self.carried_dropped
    }
}

fn bump(counts: &mut Vec<u64>, index: usize) {
    if counts.len() <= index {
        counts.resize(index + 1, 0);
    }
    if let Some(slot) = counts.get_mut(index) {
        *slot += 1;
    }
}

impl Probe for DispatchProbe {
    #[inline]
    fn on_dispatch(&mut self, now: SimTime, dst: ComponentId, _events_processed: u64) {
        bump(&mut self.dispatches, dst.index());
        self.total += 1;
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = now;
        self.ring.push(
            now,
            ObsEvent::instant("engine", "dispatch", dst.index() as u64),
        );
    }

    #[inline]
    fn on_deliver(&mut self, _now: SimTime, dst: ComponentId, emitted: usize) {
        let index = dst.index();
        if self.emitted.len() <= index {
            self.emitted.resize(index + 1, 0);
        }
        if let Some(slot) = self.emitted.get_mut(index) {
            *slot += emitted as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(engine: &mut netfi_sim::Engine<u32, DispatchProbe>) -> ComponentId {
        struct Nop;
        impl netfi_sim::Component<u32> for Nop {
            fn on_event(&mut self, ctx: &mut netfi_sim::Context<'_, u32>, payload: u32) {
                if payload > 0 {
                    ctx.send_self(netfi_sim::SimDuration::from_ns(1), payload - 1);
                }
            }
            fn fork(&self) -> Box<dyn netfi_sim::Component<u32>> {
                Box::new(Nop)
            }
        }
        engine.add_component(Box::new(Nop))
    }

    #[test]
    fn probe_counts_dispatches_and_emissions() {
        let mut engine = netfi_sim::Engine::with_probe(DispatchProbe::new(8));
        let c = id(&mut engine);
        engine.schedule(SimTime::ZERO, c, 3);
        engine.run();
        let probe = engine.probe();
        assert_eq!(probe.total(), 4);
        assert_eq!(probe.dispatches[c.index()], 4);
        assert_eq!(probe.emitted[c.index()], 3);
        assert_eq!(probe.first, Some(SimTime::ZERO));
        assert_eq!(probe.last, SimTime::from_ns(3));
        assert_eq!(probe.ring.iter().count(), 4);
        assert_eq!(probe.trace_dropped(), 0);
        assert_eq!(probe.dispatches, [4]);
    }

    #[test]
    fn clone_from_overwrites_a_used_probe() {
        let run = |ring: usize, components: usize, payload: u32| {
            let mut engine = netfi_sim::Engine::with_probe(DispatchProbe::new(ring));
            let ids: Vec<_> = (0..components).map(|_| id(&mut engine)).collect();
            engine.schedule(SimTime::from_ns(5), ids[components - 1], payload);
            engine.run();
            engine
        };
        let state = |p: &DispatchProbe| {
            let trace: Vec<_> = p.ring.iter().copied().collect();
            let emitted: Vec<_> = (0..4).map(|i| p.emitted.get(i).copied()).collect();
            (
                p.total(),
                p.dispatches.clone(),
                emitted,
                p.first,
                p.last,
                trace,
                p.trace_dropped(),
            )
        };
        let source = run(4, 2, 9);
        // Fewer and more components, a larger ring that wrapped, a smaller
        // one that did not: nothing of the target may show through.
        for mut target in [run(8, 3, 20), run(2, 1, 1), run(4, 2, 0)] {
            target.probe_mut().clone_from(source.probe());
            assert_eq!(state(target.probe()), state(source.probe()));
            assert_eq!(state(target.probe()), state(&source.probe().clone()));
        }
    }

    #[test]
    fn merged_probe_folds_parts() {
        let mut a = netfi_sim::Engine::with_probe(DispatchProbe::new(2));
        let ca = id(&mut a);
        a.schedule(SimTime::ZERO, ca, 4);
        a.run();
        let mut b = netfi_sim::Engine::with_probe(DispatchProbe::new(8));
        let cb = id(&mut b);
        b.schedule(SimTime::from_ns(10), cb, 1);
        b.run();
        let merged = DispatchProbe::merged([a.probe(), b.probe()]);
        assert_eq!(merged.total(), a.probe().total() + b.probe().total());
        assert_eq!(merged.dispatches[ca.index()], 7);
        assert_eq!(merged.emitted[ca.index()], 5);
        assert_eq!(merged.first, Some(SimTime::ZERO));
        assert_eq!(merged.last, SimTime::from_ns(11));
        // a's ring of 2 evicted 3 of its 5 dispatches; the merged trace
        // keeps everything that survived, in time order.
        assert_eq!(merged.trace_dropped(), 3);
        assert_eq!(merged.ring.iter().count(), 4);
        let times: Vec<_> = merged.ring.iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merged_of_nothing_is_empty() {
        let merged = DispatchProbe::merged([]);
        assert_eq!(merged.total(), 0);
        assert_eq!(merged.first, None);
        assert_eq!(merged.ring.iter().count(), 0);
        assert_eq!(merged.trace_dropped(), 0);
    }

    #[test]
    fn trace_is_bounded() {
        let mut engine = netfi_sim::Engine::with_probe(DispatchProbe::new(2));
        let c = id(&mut engine);
        engine.schedule(SimTime::ZERO, c, 9);
        engine.run();
        let probe = engine.probe();
        assert_eq!(probe.ring.iter().count(), 2);
        assert_eq!(probe.trace_dropped(), 8);
    }
}
