//! The benchmark's tracing: a wall-clock span probe for the engine's
//! dispatch seam, and parent/child phase spans around campaign calls.
//!
//! Both record from the benchmark's own files, around the calls into
//! each layer; spans inside the program are a later change.

use crate::json::{obj, Json};
use crate::stats::median;
use netfi_sim::{Component, ComponentId, Context, Engine, NullProbe, Probe, SimDuration, SimTime};
use std::time::Instant;

/// What a component is, for attributing its handler time to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host = 0,
    Switch = 1,
    Device = 2,
    Other = 3,
}

/// Span classes a [`SpanProbe`] aggregates: one per component kind plus
/// the engine loop between handlers.
pub const LOOP: usize = 4;
const CLASSES: usize = 5;
const CLASS_NAMES: [&str; CLASSES] = ["host", "switch", "device", "other", "loop"];

/// Aggregate of one span class: count, total and a log₂ histogram of
/// durations in nanoseconds (bucket `b` holds spans in `[2^(b-1), 2^b)`).
#[derive(Debug, Clone)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub hist: [u64; 40],
}

impl Default for SpanStats {
    fn default() -> SpanStats {
        SpanStats {
            count: 0,
            total_ns: 0,
            hist: [0; 40],
        }
    }
}

impl SpanStats {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        let bucket = (64 - ns.leading_zeros() as usize).min(self.hist.len() - 1);
        self.hist[bucket] += 1;
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Mean span in nanoseconds after subtracting the calibrated cost of
    /// recording it (see [`span_cost_ns`]).
    pub fn mean_ns(&self, span_cost_ns: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.count as f64 - span_cost_ns).max(0.0)
    }

    /// Upper bound (ns) of the bucket holding quantile `q`.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank && n > 0 {
                return 1u64 << b;
            }
        }
        0
    }

    fn to_json(&self, span_cost_ns: f64) -> Json {
        let mut fields = vec![
            ("count".to_string(), Json::from(self.count)),
            ("total_ns".to_string(), self.total_ns.into()),
            ("mean_ns".to_string(), self.mean_ns(span_cost_ns).into()),
        ];
        // The highest percentile the sample supports, as the upper edge
        // of its log₂ bucket (raw, recording cost included).
        if let Some(p) = crate::stats::highest_supported_percentile(self.count) {
            fields.push(("supported_percentile".to_string(), p.into()));
            fields.push((
                "percentile_upper_ns".to_string(),
                self.quantile_upper_ns(p).into(),
            ));
        }
        let last = self.hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        fields.push(("log2_hist".to_string(), self.hist[..last].to_vec().into()));
        Json::Obj(fields)
    }
}

/// A timing probe for the engine's dispatch seam. `on_dispatch →
/// on_deliver` is a handler span, attributed to the kind of the
/// component that handled the event (handlers include their
/// `Context::send` pushes); `on_deliver → next on_dispatch` is a loop
/// span (queue pop and dispatch bookkeeping). On a serial engine the two
/// tile the whole run; on a sharded engine only handler spans are
/// recorded, because the gap between two dispatches of one shard also
/// holds every other shard's work.
#[derive(Debug, Clone)]
pub struct SpanProbe {
    kinds: Vec<Kind>,
    loop_spans: bool,
    last: Option<Instant>,
    pub classes: [SpanStats; CLASSES],
    pub emitted: u64,
}

impl SpanProbe {
    /// A probe with no kind table yet (see [`SpanProbe::set_kinds`]):
    /// what `build_*_probed` installs before component ids exist.
    pub fn unassigned() -> SpanProbe {
        SpanProbe::new(Vec::new(), true)
    }

    pub fn new(kinds: Vec<Kind>, loop_spans: bool) -> SpanProbe {
        SpanProbe {
            kinds,
            loop_spans,
            last: None,
            classes: Default::default(),
            emitted: 0,
        }
    }

    /// Installs the component-index → kind table and starts the first
    /// loop span now (so set-up is not charged to the loop).
    pub fn set_kinds(&mut self, kinds: Vec<Kind>) {
        self.kinds = kinds;
        self.last = Some(Instant::now());
    }

    /// Folds several probes — one per shard, or one per rep — into one.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a SpanProbe>) -> SpanProbe {
        let mut out = SpanProbe::new(Vec::new(), false);
        for p in parts {
            out.emitted += p.emitted;
            for (a, b) in out.classes.iter_mut().zip(&p.classes) {
                a.merge(b);
            }
        }
        out
    }

    pub fn handler(&self, kind: Kind) -> &SpanStats {
        &self.classes[kind as usize]
    }

    /// Events seen: every dispatch ends exactly one handler span.
    pub fn events(&self) -> u64 {
        self.classes[..LOOP].iter().map(|c| c.count).sum()
    }

    /// Nanoseconds attributed to any span, clock reads included.
    pub fn attributed_ns(&self) -> u64 {
        self.classes.iter().map(|c| c.total_ns).sum()
    }

    pub fn to_json(&self, span_cost_ns: f64) -> Json {
        Json::Obj(
            CLASS_NAMES
                .iter()
                .zip(&self.classes)
                .filter(|(_, c)| c.count > 0)
                .map(|(name, c)| (name.to_string(), c.to_json(span_cost_ns)))
                .collect(),
        )
    }
}

/// A component that sends itself the next of a countdown of events: the
/// smallest possible handler, for calibrating the probe against.
struct Countdown;

impl Component<u32> for Countdown {
    fn on_event(&mut self, ctx: &mut Context<'_, u32>, left: u32) {
        if left > 0 {
            ctx.send_self(SimDuration::from_ns(10), left - 1);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn fork(&self) -> Box<dyn Component<u32>> {
        Box::new(Countdown)
    }
}

/// What recording one span adds to it, in nanoseconds: a toy engine run
/// with a [`SpanProbe`] minus the same run with [`NullProbe`], per event,
/// halved (an event is two spans). It covers the clock read and the
/// probe's own bookkeeping; every reported span mean has it subtracted.
pub fn span_cost_ns() -> f64 {
    fn ns_per_event<P: Probe>(probe: P, events: u32) -> f64 {
        let mut engine: Engine<u32, P> = Engine::with_probe(probe);
        let id = engine.add_component(Box::new(Countdown));
        engine.schedule(SimTime::ZERO, id, events - 1);
        let start = Instant::now();
        engine.run();
        start.elapsed().as_nanos() as f64 / f64::from(events)
    }
    let events = 100_000;
    let costs: Vec<f64> = (0..15)
        .map(|_| {
            let traced = ns_per_event(SpanProbe::new(vec![Kind::Other], true), events);
            (traced - ns_per_event(NullProbe, events)) / 2.0
        })
        .collect();
    median(&costs).max(0.0)
}

impl Probe for SpanProbe {
    #[inline]
    fn on_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _events_processed: u64) {
        let now = Instant::now();
        if self.loop_spans {
            if let Some(last) = self.last {
                self.classes[LOOP].record((now - last).as_nanos() as u64);
            }
        }
        self.last = Some(now);
    }

    #[inline]
    fn on_deliver(&mut self, _now: SimTime, dst: ComponentId, emitted: usize) {
        let now = Instant::now();
        if let Some(last) = self.last {
            let kind = self.kinds.get(dst.index()).copied().unwrap_or(Kind::Other);
            self.classes[kind as usize].record((now - last).as_nanos() as u64);
        }
        self.last = Some(now);
        self.emitted += emitted as u64;
    }
}

/// One recorded phase span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parent/child spans around the public phase calls of a campaign
/// workload, kept in memory and written out with the result file.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open on entry.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Share of the root spans' wall time that leaf spans account for.
    pub fn coverage(&self) -> f64 {
        let is_parent = |id: usize| self.spans.iter().any(|c| c.parent == Some(id));
        let (mut root, mut leaf) = (0u64, 0u64);
        for (id, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                root += d;
            }
            if !is_parent(id) {
                leaf += d;
            }
        }
        if root == 0 {
            0.0
        } else {
            leaf as f64 / root as f64
        }
    }

    /// Per-name aggregate (count, total, self time) for the result file.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        Json::Arr(
            names
                .into_iter()
                .map(|name| {
                    let ids: Vec<usize> = (0..self.spans.len())
                        .filter(|&i| self.spans[i].name == name)
                        .collect();
                    let total: u64 = ids
                        .iter()
                        .map(|&i| self.spans[i].end_ns - self.spans[i].start_ns)
                        .sum();
                    let own: u64 = ids.iter().map(|&i| self.self_ns(i)).sum();
                    obj([
                        ("name", name.into()),
                        (
                            "parent",
                            self.spans[ids[0]].parent.map(|p| self.spans[p].name).into(),
                        ),
                        ("count", ids.len().into()),
                        ("total_ns", total.into()),
                        ("self_ns", own.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bounces an event between two components a fixed number of times.
    struct Bouncer {
        peer: Option<ComponentId>,
    }

    impl Component<u32> for Bouncer {
        fn on_event(&mut self, ctx: &mut Context<'_, u32>, left: u32) {
            if left > 0 {
                let dst = self.peer.unwrap_or(ctx.self_id());
                ctx.send(dst, SimDuration::from_ns(10), left - 1);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn fork(&self) -> Box<dyn Component<u32>> {
            Box::new(Bouncer { peer: self.peer })
        }
    }

    #[test]
    fn span_probe_accounts_for_every_event_within_wall_time() {
        let mut engine: Engine<u32, SpanProbe> = Engine::with_probe(SpanProbe::unassigned());
        let a = engine.add_component(Box::new(Bouncer { peer: None }));
        let b = engine.add_component(Box::new(Bouncer { peer: Some(a) }));
        engine.component_as_mut::<Bouncer>(a).unwrap().peer = Some(b);
        engine.schedule(SimTime::ZERO, a, 999);

        let wall = Instant::now();
        engine.probe_mut().set_kinds(vec![Kind::Host, Kind::Switch]);
        engine.run();
        let wall_ns = wall.elapsed().as_nanos() as u64;

        let probe = engine.probe();
        assert_eq!(engine.events_processed(), 1_000);
        assert_eq!(probe.events(), engine.events_processed());
        assert_eq!(probe.handler(Kind::Host).count, 500);
        assert_eq!(probe.handler(Kind::Switch).count, 500);
        assert_eq!(probe.handler(Kind::Device).count, 0);
        // One loop span precedes each dispatch; every handler but the
        // last emitted exactly one event.
        assert_eq!(probe.classes[LOOP].count, 1_000);
        assert_eq!(probe.emitted, 999);
        assert!(probe.attributed_ns() <= wall_ns, "spans exceed wall time");
        let hist_total: u64 = probe.handler(Kind::Host).hist.iter().sum();
        assert_eq!(hist_total, 500);
    }

    #[test]
    fn recording_a_span_costs_something_but_not_much() {
        let cost = span_cost_ns();
        assert!(cost > 0.0 && cost < 10_000.0, "{cost} ns per span");
    }

    #[test]
    fn merged_probe_sums_shard_probes() {
        let id = Engine::<u32>::new().add_component(Box::new(Bouncer { peer: None }));
        let mut a = SpanProbe::new(vec![Kind::Host], false);
        let mut b = SpanProbe::new(vec![Kind::Device], false);
        for p in [&mut a, &mut b] {
            p.on_dispatch(SimTime::ZERO, id, 1);
            p.on_deliver(SimTime::ZERO, id, 2);
        }
        let m = SpanProbe::merged([&a, &b]);
        assert_eq!((m.events(), m.emitted), (2, 4));
        assert_eq!(
            m.classes[LOOP].count, 0,
            "shard probes record no loop spans"
        );
    }

    #[test]
    fn phase_spans_nest_and_compute_self_time() {
        let mut spans = Spans::new();
        spans.scope("root", |s| {
            for _ in 0..3 {
                s.scope("child", |_| std::hint::black_box(0u64.wrapping_add(1)));
            }
        });
        assert_eq!(spans.spans.len(), 4);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.durations_s("child").len(), 3);
        let children: u64 = (1..4)
            .map(|i| spans.spans[i].end_ns - spans.spans[i].start_ns)
            .sum();
        let root = spans.spans[0].end_ns - spans.spans[0].start_ns;
        assert_eq!(spans.self_ns(0), root - children);
        assert!(spans.coverage() <= 1.0);
    }
}
