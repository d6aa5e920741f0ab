//! The outcome taxonomy: what one injection *did*, read from the
//! observability exports and the per-layer counters.
//!
//! Every sampled run ends in exactly one of five classes, ordered by
//! detection layer: the fault never became an observable error
//! ([`OutcomeClass::Masked`]), it reached the application undetected
//! ([`OutcomeClass::CorruptedDelivered`]), an integrity check caught it
//! ([`OutcomeClass::DetectedByCrc`]), a watchdog caught it
//! ([`OutcomeClass::DetectedByTimeout`]), or the simulated system never
//! reached the end of its bounded run ([`OutcomeClass::Hang`]).
//!
//! Classification is differential: the same [`RunEvidence`] is gathered
//! from a healthy baseline fork (same warm state, same traffic, no
//! injector program), and a class fires only when a counter *moved*
//! relative to that baseline. Absolute thresholds would misclassify —
//! the warmed campaign's map phase already put events in every recorder.

use netfi_sim::{Fnv1a, RunOutcome};

/// The five-way outcome taxonomy of a sampled injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// No observable difference from the healthy baseline: the trigger
    /// armed too late, watched the wrong direction, or the corruption
    /// was absorbed before any check or application saw it.
    Masked,
    /// Application-visible data error with no detection anywhere: a
    /// corrupt payload was delivered to the sink port, or the delivered
    /// count silently diverged from the baseline (lost or duplicated
    /// datagrams with every checksum content).
    CorruptedDelivered,
    /// An integrity check fired: link CRC-8 at an interface, switch
    /// framing/truncation/malformed screening, or the UDP checksum and
    /// length validation at the destination host. All are grouped as
    /// "detected by CRC" — the paper's per-layer integrity family.
    DetectedByCrc,
    /// A watchdog fired: an egress Stop-timeout recovery, or the
    /// switch's long-timeout / dead-gap release of a held path.
    DetectedByTimeout,
    /// The bounded run exhausted its event budget before its deadline —
    /// the signature of a livelocked simulated system.
    Hang,
}

impl OutcomeClass {
    /// Every class, in rendering order. Reports iterate this so all five
    /// rows appear even when a class drew zero runs.
    pub const ALL: [OutcomeClass; 5] = [
        OutcomeClass::Masked,
        OutcomeClass::CorruptedDelivered,
        OutcomeClass::DetectedByCrc,
        OutcomeClass::DetectedByTimeout,
        OutcomeClass::Hang,
    ];

    /// Stable snake_case label, used in reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeClass::Masked => "masked",
            OutcomeClass::CorruptedDelivered => "corrupted_delivered",
            OutcomeClass::DetectedByCrc => "detected_crc",
            OutcomeClass::DetectedByTimeout => "detected_timeout",
            OutcomeClass::Hang => "hang",
        }
    }

    /// Position in [`OutcomeClass::ALL`] — the histogram bucket index.
    pub fn index(self) -> usize {
        match self {
            OutcomeClass::Masked => 0,
            OutcomeClass::CorruptedDelivered => 1,
            OutcomeClass::DetectedByCrc => 2,
            OutcomeClass::DetectedByTimeout => 3,
            OutcomeClass::Hang => 4,
        }
    }
}

/// Everything the classifier reads from one finished run: the bounded
/// executor's outcome, the device's injection evidence (FIFO counters
/// and the `netfi-obs` recorder's `inject` instants), and the end-state
/// detection/delivery totals of every layer.
///
/// All counter fields are absolute end-of-run totals; [`classify`]
/// compares them against the healthy baseline's totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEvidence {
    /// Why the bounded run returned.
    pub outcome: RunOutcome,
    /// Data + control injections reported by the device FIFOs, both
    /// directions.
    pub injections: u64,
    /// `device`/`inject` instants in the device's obs recorder ring —
    /// the export-side witness of the FIFO counter (data plane only;
    /// control swaps are counter-only).
    pub obs_injects: u64,
    /// Integrity-check detections: interface CRC/truncation/malformed
    /// drops, switch framing/truncation/malformed drops, and host UDP
    /// checksum/malformed drops, summed over all components.
    pub crc_detections: u64,
    /// Watchdog detections: egress Stop-timeout recoveries plus switch
    /// long-timeout and dead-gap releases, summed over all components.
    pub timeout_detections: u64,
    /// Datagrams the two stream endpoints' application layers accepted
    /// on the sink port (corrupt or not), summed.
    pub delivered: u64,
    /// Of the endpoints' recently delivered datagrams, how many carried
    /// a payload that differs from the campaign message.
    pub corrupt_payloads: u64,
}

impl RunEvidence {
    /// Folds the evidence into a campaign fingerprint. Field order is part
    /// of the fingerprint contract.
    pub(crate) fn eat_into(&self, hash: &mut Fnv1a) {
        hash.write(&[self.outcome as u8]);
        hash.write_u64(self.injections);
        hash.write_u64(self.obs_injects);
        hash.write_u64(self.crc_detections);
        hash.write_u64(self.timeout_detections);
        hash.write_u64(self.delivered);
        hash.write_u64(self.corrupt_payloads);
    }
}

/// Assigns one run its outcome class by differencing its evidence
/// against the healthy baseline's.
///
/// Priority is fixed: a hang trumps everything (the run never finished,
/// its counters are untrustworthy); then watchdog detections — a
/// held-path release is the distinctive signature of control-symbol
/// corruption, and the packets a held path mangles routinely trip an
/// integrity check *as well*, so ranking CRC first would silently
/// absorb the whole timeout class; then integrity-check detections;
/// then silent application-visible damage; and only a run
/// indistinguishable from the baseline is masked. An injection that
/// *fired* (`injections > 0`) but moved nothing else is still masked —
/// that is the interesting masked population the paper's coverage
/// argument needs.
pub fn classify(run: &RunEvidence, baseline: &RunEvidence) -> OutcomeClass {
    if run.outcome == RunOutcome::BudgetExhausted {
        return OutcomeClass::Hang;
    }
    if run.timeout_detections > baseline.timeout_detections {
        return OutcomeClass::DetectedByTimeout;
    }
    if run.crc_detections > baseline.crc_detections {
        return OutcomeClass::DetectedByCrc;
    }
    if run.corrupt_payloads > 0 || run.delivered != baseline.delivered {
        return OutcomeClass::CorruptedDelivered;
    }
    OutcomeClass::Masked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> RunEvidence {
        RunEvidence {
            outcome: RunOutcome::DeadlineReached,
            injections: 0,
            obs_injects: 0,
            crc_detections: 7,
            timeout_detections: 2,
            delivered: 6,
            corrupt_payloads: 0,
        }
    }

    #[test]
    fn baseline_against_itself_is_masked() {
        let base = healthy();
        assert_eq!(classify(&base, &base), OutcomeClass::Masked);
    }

    #[test]
    fn fired_but_absorbed_is_still_masked() {
        let base = healthy();
        let run = RunEvidence {
            injections: 1,
            obs_injects: 1,
            ..base
        };
        assert_eq!(classify(&run, &base), OutcomeClass::Masked);
    }

    #[test]
    fn classifier_priority_is_hang_timeout_crc_corrupt() {
        let base = healthy();
        // Everything fired at once: the hang wins.
        let mut run = RunEvidence {
            outcome: RunOutcome::BudgetExhausted,
            injections: 3,
            obs_injects: 3,
            crc_detections: base.crc_detections + 1,
            timeout_detections: base.timeout_detections + 1,
            delivered: base.delivered - 1,
            corrupt_payloads: 1,
        };
        assert_eq!(classify(&run, &base), OutcomeClass::Hang);
        // Finished: the held-path watchdog outranks the integrity drops
        // the held path caused.
        run.outcome = RunOutcome::DeadlineReached;
        assert_eq!(classify(&run, &base), OutcomeClass::DetectedByTimeout);
        // No watchdog movement: the integrity check outranks silent
        // damage.
        run.timeout_detections = base.timeout_detections;
        assert_eq!(classify(&run, &base), OutcomeClass::DetectedByCrc);
        // No detection at all: silent damage is corrupted-delivered.
        run.crc_detections = base.crc_detections;
        assert_eq!(classify(&run, &base), OutcomeClass::CorruptedDelivered);
        // Same delivery count but a corrupt payload still counts.
        run.delivered = base.delivered;
        assert_eq!(classify(&run, &base), OutcomeClass::CorruptedDelivered);
        // And with nothing left, the run is masked.
        run.corrupt_payloads = 0;
        assert_eq!(classify(&run, &base), OutcomeClass::Masked);
    }

    #[test]
    fn silent_loss_is_corrupted_delivered() {
        let base = healthy();
        let run = RunEvidence {
            delivered: base.delivered - 2,
            ..base
        };
        assert_eq!(classify(&run, &base), OutcomeClass::CorruptedDelivered);
    }

    #[test]
    fn labels_and_indices_are_stable() {
        for (i, class) in OutcomeClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        let labels: Vec<_> = OutcomeClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "masked",
                "corrupted_delivered",
                "detected_crc",
                "detected_timeout",
                "hang"
            ]
        );
    }
}
