//! φ-accrual failure detection in pure fixed-point arithmetic.
//!
//! An accrual detector does not answer "has this peer failed?" with a
//! boolean; it outputs a continuously rising *suspicion level* φ and lets
//! each consumer pick its own threshold (Hayashibara et al.; the adaptive
//! empirical-histogram variant follows Satzger et al.). This module keeps
//! the whole computation in integers so suspicion is a pure function of
//! the deterministic heartbeat arrival stream:
//!
//! - inter-arrival samples are raw picosecond counts in a sliding window;
//! - the survival estimate is the Satzger counting estimator
//!   `P(elapsed exceeded) = (n_greater + 1) / (n + 1)`;
//! - φ = log₂(1/P), computed by `log2_fp` in 16.16 fixed point — never
//!   a float, so thresholds compare exactly on every platform and every
//!   worker count.
//!
//! When the elapsed silence exceeds *every* windowed sample the counting
//! estimator saturates, so φ grows by a tail extension:
//! `log₂(n + 1) + log₂(elapsed / max_sample)` — suspicion keeps rising
//! smoothly with silence instead of plateauing, which is what separates a
//! θ = 2 threshold from a θ = 8 one in detection latency.
//!
//! ```
//! use netfi_detect::accrual::{AccrualDetector, Phi};
//! use netfi_sim::SimTime;
//!
//! // Eight 10 ms heartbeats fill the window...
//! let mut d = AccrualDetector::new(8);
//! for beat in 0..9u64 {
//!     d.observe(SimTime::from_ms(10 * beat));
//! }
//! // ...5 ms after the last beat suspicion is still below φ = 1,
//! // but after 400 ms of silence it has climbed past φ = 8.
//! assert!(d.suspicion(SimTime::from_ms(85)) < Phi::from_int(1));
//! assert!(d.suspicion(SimTime::from_ms(400)) > Phi::from_int(8));
//! ```

use std::fmt;

use netfi_obs::Registry;
use netfi_sim::SimTime;

/// Fractional bits of the fixed-point suspicion scale.
pub(crate) const PHI_FRAC_BITS: u32 = 16;

/// One in 16.16 fixed point.
const ONE_FP: u64 = 1 << PHI_FRAC_BITS;

/// A suspicion level in 16.16 fixed point.
///
/// Stored as a raw `u32` so comparisons are exact integer comparisons —
/// the determinism scope bans floats from anything that orders or gates
/// behaviour. `Phi::from_int(8)` is the fixed-point rendering of φ = 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Phi(u32);

impl Phi {
    /// Zero suspicion.
    pub const ZERO: Phi = Phi(0);

    /// A whole-number suspicion level.
    pub const fn from_int(v: u16) -> Phi {
        Phi((v as u32) << PHI_FRAC_BITS)
    }

    /// The raw 16.16 fixed-point value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Phi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Milli-phi, rendered as a fixed three-decimal value so reports
        // are byte-stable.
        let milli = (u64::from(self.0) * 1000) >> PHI_FRAC_BITS;
        write!(f, "{}.{:03}", milli / 1000, milli % 1000)
    }
}

/// log₂ of a 16.16 fixed-point value, in 16.16 fixed point.
///
/// Inputs below one return zero (the detector never needs negative
/// logarithms: ratios are ≥ 1 by construction). The fractional part is
/// computed by sixteen shift-and-square iterations — pure integer
/// arithmetic, exact to the last fixed-point bit for the integer part and
/// within one ULP for the fraction.
pub(crate) fn log2_fp(x: u64) -> u32 {
    if x <= ONE_FP {
        return 0;
    }
    // Position of the leading bit relative to the 16.16 "one" bit.
    let int = 63 - x.leading_zeros() - PHI_FRAC_BITS;
    // Normalize the mantissa into [1, 2) in 16.16.
    let mut mant = x >> int;
    let mut frac: u32 = 0;
    for i in (0..PHI_FRAC_BITS).rev() {
        mant = (mant * mant) >> PHI_FRAC_BITS;
        if mant >= 2 * ONE_FP {
            frac |= 1 << i;
            mant >>= 1;
        }
    }
    (int << PHI_FRAC_BITS) | frac
}

/// An adaptive accrual failure detector for one peer.
///
/// Feed it heartbeat arrival times with [`observe`](Self::observe); ask it
/// how suspicious the current silence is with
/// [`suspicion`](Self::suspicion). The window holds the most recent
/// `window` inter-arrival samples; until two arrivals have been seen the
/// detector reports zero suspicion (it has no distribution to judge
/// against).
#[derive(Debug, Clone)]
pub struct AccrualDetector {
    /// Ring of inter-arrival samples, picoseconds.
    window: Vec<u64>,
    /// Next slot to overwrite.
    cursor: usize,
    /// Number of live samples (≤ window capacity).
    filled: usize,
    /// Most recent arrival.
    last: Option<SimTime>,
}

impl AccrualDetector {
    /// Creates a detector with a sliding window of `window` samples.
    pub fn new(window: usize) -> AccrualDetector {
        assert!(window > 0, "accrual window must hold at least one sample");
        AccrualDetector {
            window: vec![0; window],
            cursor: 0,
            filled: 0,
            last: None,
        }
    }

    /// Records a heartbeat arrival at `at`.
    ///
    /// Out-of-order arrivals (`at` not after the previous one) update
    /// nothing but the last-seen time — the simulated poll loop delivers
    /// arrivals in time order, so this is a guard, not a code path.
    pub fn observe(&mut self, at: SimTime) {
        if let Some(last) = self.last {
            let sample = at.as_ps().saturating_sub(last.as_ps());
            if sample > 0 {
                self.window[self.cursor] = sample;
                self.cursor = (self.cursor + 1) % self.window.len();
                self.filled = (self.filled + 1).min(self.window.len());
            }
        }
        self.last = Some(at);
    }

    /// The suspicion level φ at `now`.
    ///
    /// φ = log₂(1/P) where P is the Satzger counting estimator of the
    /// probability that a healthy peer's inter-arrival gap exceeds the
    /// current silence. Once the silence exceeds every windowed sample,
    /// φ keeps growing as `log₂(n + 1) + log₂(elapsed / max_sample)`.
    pub fn suspicion(&self, now: SimTime) -> Phi {
        let Some(last) = self.last else {
            return Phi::ZERO;
        };
        if self.filled == 0 || now <= last {
            return Phi::ZERO;
        }
        let elapsed = now.as_ps() - last.as_ps();
        let n = self.filled as u64;
        let live = &self.window[..self.filled.min(self.window.len())];
        let n_greater = live.iter().filter(|&&s| s > elapsed).count() as u64;
        if n_greater > 0 {
            // P = (n_greater + 1) / (n + 1); φ = log2(1/P).
            let ratio_fp = ((n + 1) << PHI_FRAC_BITS) / (n_greater + 1);
            return Phi(log2_fp(ratio_fp));
        }
        // Tail extension: the empirical estimator bottoms out at
        // P = 1/(n+1); extend with the overshoot past the largest sample.
        let base = log2_fp((n + 1) << PHI_FRAC_BITS);
        let s_max = live.iter().copied().max().unwrap_or(1).max(1);
        // Clamp so `elapsed << 16` cannot overflow (a silence this long —
        // ~2.5 simulated hours — is maximal suspicion anyway).
        let clamped = elapsed.min(u64::MAX >> (PHI_FRAC_BITS + 1));
        let overshoot_fp = (clamped << PHI_FRAC_BITS) / s_max;
        let ext = log2_fp(overshoot_fp.max(ONE_FP));
        Phi(base.saturating_add(ext))
    }
}

/// A suspicion-threshold crossing (or recovery) observed by a
/// [`SuspicionMonitor`] poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspicionEvent {
    /// Poll time at which the crossing was observed.
    pub time: SimTime,
    /// Monitored pair index.
    pub pair: u32,
    /// Index into the monitor's threshold list.
    pub threshold: u32,
    /// The suspicion level at the poll.
    pub phi: Phi,
    /// `true` = crossed above the threshold, `false` = recovered below it.
    pub suspected: bool,
}

/// A bank of per-pair accrual detectors polled against a ladder of
/// suspicion thresholds.
///
/// The monitor owns one [`AccrualDetector`] per heartbeat pair plus the
/// per-`(threshold, pair)` suspected/cleared state machine; every state
/// flip is recorded as a [`SuspicionEvent`]. Arrivals are deduplicated by
/// sequence number, so feeding it overlapping reads of a flight-recorder
/// ring is safe. `Clone` is cheap and deep: a detection campaign warms one
/// monitor alongside the donor engine and forks both per scenario.
#[derive(Debug, Clone)]
pub struct SuspicionMonitor {
    thresholds: Vec<Phi>,
    detectors: Vec<AccrualDetector>,
    /// Highest heartbeat sequence number seen per pair.
    last_seq: Vec<Option<u64>>,
    /// Suspected flags, `threshold-major`: `[t * pairs + pair]`.
    suspected: Vec<bool>,
    /// Most recent polled φ per pair.
    last_phi: Vec<Phi>,
    /// Peak polled φ per pair.
    peak_phi: Vec<Phi>,
    events: Vec<SuspicionEvent>,
}

impl SuspicionMonitor {
    /// Creates a monitor for `pairs` heartbeat pairs, each judged by an
    /// accrual window of `window` samples against every threshold in
    /// `thresholds` (kept in the given order; indices into it appear in
    /// the emitted events).
    pub fn new(pairs: usize, window: usize, thresholds: &[Phi]) -> SuspicionMonitor {
        SuspicionMonitor {
            thresholds: thresholds.to_vec(),
            detectors: vec![AccrualDetector::new(window); pairs],
            last_seq: vec![None; pairs],
            suspected: vec![false; thresholds.len() * pairs],
            last_phi: vec![Phi::ZERO; pairs],
            peak_phi: vec![Phi::ZERO; pairs],
            events: Vec::new(),
        }
    }

    /// The threshold ladder.
    pub fn thresholds(&self) -> &[Phi] {
        &self.thresholds
    }

    /// Number of monitored pairs.
    pub fn pairs(&self) -> usize {
        self.detectors.len()
    }

    /// Feeds one heartbeat arrival for `pair`. Returns `true` if the
    /// sequence number was fresh (later than anything seen for the pair)
    /// and the detector observed it.
    pub fn arrival(&mut self, pair: usize, seq: u64, at: SimTime) -> bool {
        if let Some(prev) = self.last_seq[pair] {
            if seq <= prev {
                return false;
            }
        }
        self.last_seq[pair] = Some(seq);
        self.detectors[pair].observe(at);
        true
    }

    /// Polls every pair at `now`, flipping suspected/cleared states and
    /// recording a [`SuspicionEvent`] per flip.
    pub fn poll(&mut self, now: SimTime) {
        let pairs = self.detectors.len();
        for pair in 0..pairs {
            let phi = self.detectors[pair].suspicion(now);
            self.last_phi[pair] = phi;
            self.peak_phi[pair] = self.peak_phi[pair].max(phi);
            for (t, &threshold) in self.thresholds.iter().enumerate() {
                let slot = t * pairs + pair;
                let is = phi >= threshold;
                if is != self.suspected[slot] {
                    self.suspected[slot] = is;
                    self.events.push(SuspicionEvent {
                        time: now,
                        pair: pair as u32,
                        threshold: t as u32,
                        phi,
                        suspected: is,
                    });
                }
            }
        }
    }

    /// All state-flip events, in poll order.
    pub fn events(&self) -> &[SuspicionEvent] {
        &self.events
    }

    /// Exports per-pair suspicion gauges and crossing counters into an
    /// observability registry. `pair_name` renders the pair label used in
    /// the gauge names (e.g. `h003->h007`).
    pub fn export_to(&self, registry: &mut Registry, pair_name: impl Fn(usize) -> String) {
        for pair in 0..self.detectors.len() {
            let name = pair_name(pair);
            registry.set_gauge(
                &format!("detect.phi.{name}"),
                i64::from(self.last_phi[pair].raw()),
            );
            registry.set_gauge(
                &format!("detect.phi_peak.{name}"),
                i64::from(self.peak_phi[pair].raw()),
            );
        }
        registry.add(
            "detect.suspect_events",
            self.events.iter().filter(|e| e.suspected).count() as u64,
        );
        registry.add(
            "detect.recovery_events",
            self.events.iter().filter(|e| !e.suspected).count() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation in floating point, for tolerance checks
    /// only — the production path never touches a float.
    fn log2_f64(x: f64) -> f64 {
        x.log2()
    }

    #[test]
    fn log2_fp_matches_float_reference() {
        for &x in &[
            1u64 << 16,
            (1 << 16) + 1,
            3 << 15, // 1.5
            2 << 16,
            17 << 16,
            1000 << 16,
            u64::from(u32::MAX),
            1 << 40,
        ] {
            let got = f64::from(log2_fp(x)) / f64::from(1u32 << 16);
            let want = log2_f64(x as f64 / f64::from(1u32 << 16));
            assert!(
                (got - want).abs() < 1e-4,
                "log2_fp({x}) = {got}, reference {want}"
            );
        }
    }

    #[test]
    fn log2_fp_below_one_clamps_to_zero() {
        assert_eq!(log2_fp(0), 0);
        assert_eq!(log2_fp(1), 0);
        assert_eq!(log2_fp(1 << 16), 0);
    }

    #[test]
    fn exact_powers_of_two_are_exact() {
        for k in 1..32u32 {
            assert_eq!(log2_fp(1u64 << (16 + k)), k << 16, "log2(2^{k})");
        }
    }

    #[test]
    fn suspicion_is_zero_without_history() {
        let d = AccrualDetector::new(8);
        assert_eq!(d.suspicion(SimTime::from_ms(50)), Phi::ZERO);
        let mut d = AccrualDetector::new(8);
        d.observe(SimTime::from_ms(1));
        // One arrival = no inter-arrival sample yet.
        assert_eq!(d.suspicion(SimTime::from_ms(50)), Phi::ZERO);
    }

    #[test]
    fn suspicion_rises_monotonically_with_silence() {
        let mut d = AccrualDetector::new(16);
        for beat in 0..17u64 {
            d.observe(SimTime::from_ms(10 * beat));
        }
        let mut prev = Phi::ZERO;
        for probe in [165u64, 175, 200, 300, 500, 1000, 5000] {
            let phi = d.suspicion(SimTime::from_ms(probe));
            assert!(phi >= prev, "phi fell from {prev} to {phi} at {probe} ms");
            prev = phi;
        }
        assert!(prev > Phi::from_int(10), "long silence stayed at {prev}");
    }

    #[test]
    fn jittered_window_tolerates_its_own_spread() {
        // Samples between 8 and 14 ms: a 13 ms silence is within the
        // observed spread, so suspicion stays modest.
        let mut d = AccrualDetector::new(8);
        let mut t = 0u64;
        for (i, gap) in [8u64, 14, 9, 13, 10, 12, 11, 8].iter().enumerate() {
            let _ = i;
            d.observe(SimTime::from_us(t * 1000));
            t += gap;
        }
        d.observe(SimTime::from_us(t * 1000));
        let within = d.suspicion(SimTime::from_us((t + 13) * 1000));
        let beyond = d.suspicion(SimTime::from_us((t + 140) * 1000));
        assert!(within < Phi::from_int(4), "within-spread phi {within}");
        assert!(beyond > Phi::from_int(5), "beyond-spread phi {beyond}");
    }

    #[test]
    fn monitor_emits_crossing_and_recovery() {
        let thresholds = [Phi::from_int(2), Phi::from_int(8)];
        let mut m = SuspicionMonitor::new(2, 4, &thresholds);
        // Pair 0 beats every 10 ms; pair 1 beats then goes silent.
        for beat in 0..6u64 {
            let at = SimTime::from_ms(10 * beat);
            assert!(m.arrival(0, beat, at));
            if beat < 5 {
                assert!(m.arrival(1, beat, at));
            }
        }
        // Duplicate sequence numbers are ignored.
        assert!(!m.arrival(0, 3, SimTime::from_ms(60)));
        for poll in 6..80u64 {
            let now = SimTime::from_ms(10 * poll);
            if poll < 30 {
                m.arrival(0, poll, now);
            }
            m.poll(now);
        }
        // Pair 1 crossed both thresholds; pair 0 crossed once it went
        // silent at 300 ms, later than pair 1.
        let first_crossing = |m: &SuspicionMonitor, pair, t| {
            m.events()
                .iter()
                .find(|e| e.pair == pair && e.threshold == t && e.suspected)
                .map(|e| e.time)
        };
        // Both pairs' suspicion flags at threshold index 0.
        let suspected = |m: &SuspicionMonitor| [m.suspected[0], m.suspected[1]];
        let t0_cross_p1 = first_crossing(&m, 1, 0).expect("pair 1 crossing");
        let t0_cross_p0 = first_crossing(&m, 0, 0).expect("pair 0 crossing");
        assert!(t0_cross_p1 < t0_cross_p0);
        assert!(first_crossing(&m, 1, 1).is_some());
        assert_eq!(suspected(&m), [true, true]);
        assert!(m.events().iter().all(|e| e.suspected), "no recoveries yet");

        // A fresh arrival for pair 1 recovers it at the next poll.
        m.arrival(1, 99, SimTime::from_ms(800));
        m.arrival(1, 100, SimTime::from_ms(801));
        m.poll(SimTime::from_ms(802));
        assert!(
            m.events().iter().any(|e| e.pair == 1 && !e.suspected),
            "recovery event missing"
        );
        assert_eq!(suspected(&m), [true, false]);
    }

    #[test]
    fn monitor_clone_is_independent() {
        let mut a = SuspicionMonitor::new(1, 4, &[Phi::from_int(2)]);
        for beat in 0..5u64 {
            a.arrival(0, beat, SimTime::from_ms(10 * beat));
        }
        let mut b = a.clone();
        b.poll(SimTime::from_ms(500));
        assert!(a.events().is_empty());
        assert_eq!(b.events().len(), 1);
    }

    #[test]
    fn export_writes_gauges_and_counters() {
        let mut m = SuspicionMonitor::new(1, 4, &[Phi::from_int(1)]);
        for beat in 0..5u64 {
            m.arrival(0, beat, SimTime::from_ms(10 * beat));
        }
        m.poll(SimTime::from_ms(300));
        let mut reg = Registry::new();
        m.export_to(&mut reg, |p| format!("pair{p}"));
        assert!(reg.gauge("detect.phi.pair0").unwrap_or(0) > 0);
        assert_eq!(reg.counter("detect.suspect_events"), 1);
    }
}
