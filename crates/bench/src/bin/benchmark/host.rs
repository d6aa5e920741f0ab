//! What the benchmark reads from the host: provenance for the result
//! file, the per-rep noise gauge, and the peak resident set. The `/proc`
//! fields are Linux-only and degrade to `None` — never to a guess.

use crate::json::{obj, Json};
use std::time::Instant;

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM`, the process's peak resident set, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`/proc/thread-self/schedstat`, first field).
fn thread_on_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Times one repetition on the calling thread: wall seconds plus the
/// share of them the thread was actually on a CPU.
pub struct RepClock {
    start: Instant,
    on_cpu_ns: Option<u64>,
}

/// A rep whose thread was on-CPU for less than this share of its wall
/// time lost the difference to the rest of the box: it is flagged
/// `noisy` in the result file (and still counted).
pub const NOISY_BELOW: f64 = 0.95;

impl RepClock {
    pub fn start() -> RepClock {
        RepClock {
            on_cpu_ns: thread_on_cpu_ns(),
            start: Instant::now(),
        }
    }

    /// `(wall seconds, on-CPU share of the calling thread)`.
    pub fn stop(self) -> (f64, Option<f64>) {
        let wall = self.start.elapsed().as_secs_f64();
        let on_cpu = match (self.on_cpu_ns, thread_on_cpu_ns()) {
            (Some(a), Some(b)) if wall > 0.0 => Some((b - a) as f64 / 1e9 / wall),
            _ => None,
        };
        (wall, on_cpu)
    }
}

/// The provenance block every result file carries.
pub fn provenance(seed: u64) -> Json {
    obj([
        ("seed", seed.into()),
        ("argv", std::env::args().collect::<Vec<_>>().into()),
        ("package_version", env!("CARGO_PKG_VERSION").into()),
        ("nproc", nproc().into()),
        // Every workload runs a one-worker and a two-worker configuration.
        ("workers_used", vec![1u64, 2].into()),
        ("cpu_model", cpu_model().into()),
        ("os", std::env::consts::OS.into()),
        ("debug_build", cfg!(debug_assertions).into()),
    ])
}
