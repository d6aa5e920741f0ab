//! Campaign result records.

use std::collections::BTreeMap;
use std::fmt;

use netfi_netstack::ConnectError;

/// Why a scenario could not be built or observed.
///
/// Scenarios assemble a test bed, splice in the injector and read
/// component state back out; each of those steps can fail if the bed is
/// mis-specified, and the failure surfaces here instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// Test-bed wiring failed.
    Build(ConnectError),
    /// The scenario needs the injector but the test bed has none.
    NoInjector,
    /// A component id did not resolve to the expected type (the type's
    /// name, from [`read`](crate::bed::read)), or a spec named a host,
    /// leaf, spine or switch port the test bed lacks (`"Host"`,
    /// `"Switch"` or `"Switch port"`).
    WrongComponent(&'static str),
    /// The mapper has not produced a network map yet.
    NoMap,
}

impl From<ConnectError> for ScenarioError {
    fn from(e: ConnectError) -> ScenarioError {
        ScenarioError::Build(e)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Build(e) => write!(f, "test-bed wiring failed: {e}"),
            ScenarioError::NoInjector => f.write_str("test bed has no injector"),
            ScenarioError::WrongComponent(what) => {
                write!(f, "component is not a {what}")
            }
            ScenarioError::NoMap => f.write_str("mapper has not produced a map"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Build(e) => Some(e),
            _ => None,
        }
    }
}

/// The outcome of one campaign run, in the units the paper reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Run label (e.g. "STOP->GAP" or "Experiment 3").
    pub name: String,
    /// Messages sent during the measurement window.
    pub sent: u64,
    /// Messages received during the measurement window.
    pub received: u64,
    /// Measurement window, seconds.
    pub window_secs: f64,
    /// Additional named measurements (throughput, latency, …).
    pub extra: BTreeMap<String, f64>,
}

impl RunResult {
    /// Creates a result.
    pub fn new(name: impl Into<String>, sent: u64, received: u64, window_secs: f64) -> RunResult {
        RunResult {
            name: name.into(),
            sent,
            received,
            window_secs,
            extra: BTreeMap::new(),
        }
    }

    /// Messages lost.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.received)
    }

    /// Loss rate in `[0, 1]` (0 when nothing was sent).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost() as f64 / self.sent as f64
        }
    }

    /// Received messages per second.
    pub fn throughput(&self) -> f64 {
        if self.window_secs <= 0.0 {
            0.0
        } else {
            self.received as f64 / self.window_secs
        }
    }

    /// Attaches a named extra measurement.
    pub(crate) fn with_extra(mut self, key: &str, value: f64) -> RunResult {
        self.extra.insert(key.to_string(), value);
        self
    }

    /// Reads a named extra measurement.
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extra.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_throughput() {
        let r = RunResult::new("STOP->GAP", 4092, 3445, 60.0);
        assert_eq!(r.lost(), 647);
        assert!((r.loss_rate() - 0.158).abs() < 0.001);
        assert!((r.throughput() - 3445.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let r = RunResult::new("empty", 0, 0, 0.0);
        assert_eq!(r.loss_rate(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        // received > sent clamps to zero lost
        let r2 = RunResult::new("weird", 5, 9, 1.0);
        assert_eq!(r2.lost(), 0);
    }

    #[test]
    fn extras_roundtrip() {
        let r = RunResult::new("x", 1, 1, 1.0).with_extra("added_latency_ns", 250.0);
        assert_eq!(r.extra("added_latency_ns"), Some(250.0));
        assert_eq!(r.extra("missing"), None);
    }
}
