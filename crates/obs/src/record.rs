//! The armable recorder components embed.
//!
//! A [`Recorder`] is the deployment vehicle for the flight recorder: a
//! component owns one, constructed disarmed (no storage, a single `None`
//! branch per emission — nothing on the allocator, nothing in cache), and
//! a harness arms it before a run it wants to observe. This mirrors how
//! the paper's device idles transparently until NFTAPE programs it over
//! the serial line.

// netfi-lint: deny(hot-path-alloc)
//
// Every instrumented component emits through `Recorder::emit` on its
// per-frame paths. Arming reserves the ring once; an emission writes in
// place or, disarmed, does nothing.

use netfi_sim::SimTime;

use crate::event::{ObsEvent, Stamped};
use crate::flight::FlightRecorder;

/// A runtime-armable bounded event recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    ring: Option<FlightRecorder<ObsEvent>>,
}

netfi_sim::clone_in_place!(Recorder { ring });

impl Recorder {
    /// A disarmed recorder: no storage, emissions are discarded.
    pub const fn disarmed() -> Recorder {
        Recorder { ring: None }
    }

    /// Arms the recorder with a ring of `capacity` events. Re-arming
    /// replaces the ring (previous contents are discarded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn arm(&mut self, capacity: usize) {
        self.ring = Some(FlightRecorder::new(capacity));
    }

    /// `true` while emissions are being captured.
    pub fn is_armed(&self) -> bool {
        self.ring.is_some()
    }

    /// Captured events, oldest first (empty when disarmed).
    pub fn events(&self) -> impl Iterator<Item = &Stamped<ObsEvent>> {
        self.ring.iter().flat_map(|r| r.iter())
    }

    /// Events evicted from the ring since arming.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped())
    }

    #[inline]
    fn emit(&mut self, time: SimTime, event: ObsEvent) {
        if let Some(ring) = &mut self.ring {
            ring.push(time, event);
        }
    }

    /// Records a point observation.
    #[inline]
    pub fn instant(&mut self, time: SimTime, scope: &'static str, name: &'static str, value: u64) {
        self.emit(time, ObsEvent::instant(scope, name, value));
    }

    /// Records a span-opening edge.
    #[inline]
    pub fn begin(&mut self, time: SimTime, scope: &'static str, name: &'static str, value: u64) {
        self.emit(time, ObsEvent::begin(scope, name, value));
    }

    /// Records a span-closing edge.
    #[inline]
    pub fn end(&mut self, time: SimTime, scope: &'static str, name: &'static str, value: u64) {
        self.emit(time, ObsEvent::end(scope, name, value));
    }

    /// Records a sampled value.
    #[inline]
    pub fn sample(&mut self, time: SimTime, scope: &'static str, name: &'static str, value: u64) {
        self.emit(time, ObsEvent::sample(scope, name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_discards_everything() {
        let mut r = Recorder::disarmed();
        assert!(!r.is_armed());
        r.instant(SimTime::ZERO, "a", "b", 1);
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn armed_captures_bounded() {
        let mut r = Recorder::default();
        r.arm(2);
        assert!(r.is_armed());
        for i in 0..3u64 {
            r.instant(SimTime::from_ns(i), "s", "n", i);
        }
        assert_eq!(r.dropped(), 1);
        let values: Vec<u64> = r.events().map(|e| e.value.value).collect();
        assert_eq!(values, vec![1, 2]);
    }
}
