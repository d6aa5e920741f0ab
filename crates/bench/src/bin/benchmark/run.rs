//! Running one workload: rounds of repetitions with tracing off for the
//! end-to-end metrics, or one traced pass for the per-layer metrics.

use crate::campaigns::{Detect, PaperEval, Sample};
use crate::host::{self, NOISY_BELOW};
use crate::json::{hex, obj, Json};
use crate::ledger::Ledger;
use crate::probe::Spans;
use crate::registry::{self, END_TO_END, PER_LAYER};
use crate::simload::SimLoad;
use crate::stats::{highest_supported_percentile, median};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How much work one repetition is. `FULL` is what every reported number
/// is measured at; `SMOKE` finishes in seconds in a debug build and only
/// proves that every metric is produced and every oracle holds.
pub struct Sizes {
    pub testbed_sim_ms: u64,
    pub fabric_sim_us: u64,
    pub sample_points: u64,
    pub detect_hosts: usize,
    pub paper_table4_rows: usize,
}

pub const FULL: Sizes = Sizes {
    testbed_sim_ms: 120_000,
    fabric_sim_us: 40_000,
    sample_points: 16_384,
    detect_hosts: 100,
    paper_table4_rows: 9,
};

pub const SMOKE: Sizes = Sizes {
    testbed_sim_ms: 600,
    fabric_sim_us: 500,
    sample_points: 48,
    detect_hosts: 10,
    paper_table4_rows: 1,
};

/// The two configurations of every workload, in the order a round runs
/// them: `(name, workers)`.
pub const CONFIGS: [(&str, usize); 2] = [("w1", 1), ("w2", 2)];

/// One operation: one repetition of one configuration.
pub struct Rep {
    /// Units of work done (see `WorkloadDef::work_unit`).
    pub work: u64,
    pub wall_s: f64,
    /// Share of the wall time the calling thread was on a CPU, where
    /// that thread did the work.
    pub on_cpu: Option<f64>,
    /// Digest or fingerprint of the outputs; every rep of a workload
    /// must produce the warm-up's.
    pub signature: u64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

impl Rep {
    pub fn failed(why: &str) -> Rep {
        Rep {
            work: 0,
            wall_s: 0.0,
            on_cpu: None,
            signature: 0,
            error: Some(why.to_string()),
        }
    }
}

/// One round: the set-up, then one rep of each of the [`CONFIGS`], so a
/// slow phase of the box hits both alike.
pub struct Round {
    pub setup_s: f64,
    pub reps: [Rep; 2],
}

/// Times a set-up. A set-up that takes microseconds is executed `batch`
/// times and the times averaged, so that the sample is not mostly clock
/// and cache noise. Only one product is alive at a time (or the batch
/// would set the peak resident set), and the previous one is dropped
/// outside the timed interval. Returns seconds per execution and the
/// last product.
pub fn timed_setup<T>(batch: usize, mut set_up: impl FnMut() -> T) -> (f64, T) {
    let batch = batch.max(1);
    let mut total = Duration::ZERO;
    let mut product = None;
    for _ in 0..batch {
        let start = Instant::now();
        let fresh = set_up();
        total += start.elapsed();
        product = Some(fresh);
    }
    let last = product.expect("at least one execution");
    (total.as_secs_f64() / batch as f64, last)
}

pub trait Workload {
    /// One untimed repetition; returns the signature every timed rep
    /// must reproduce.
    fn warm_up(&mut self) -> Result<u64, String>;
    fn round(&mut self) -> Round;
    /// Counts, digests and fingerprints: reported, not pinned.
    fn reported(&self) -> Json;
    /// The traced pass (after `warm_up`).
    fn trace(&mut self, t: &mut Trace);
}

pub fn workload(name: &str, seed: u64, sizes: &'static Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "testbed3" => Box::new(SimLoad::testbed3(seed, false, sizes)),
        "testbed3_armed" => Box::new(SimLoad::testbed3(seed, true, sizes)),
        "fabric1000" => Box::new(SimLoad::fabric(seed, sizes)),
        "sample" => Box::new(Sample::new(seed, sizes)),
        "detect100" => Box::new(Detect::new(seed, sizes)),
        "paper_eval" => Box::new(PaperEval::new(seed, sizes)),
        _ => return None,
    })
}

/// What a traced pass collects.
pub struct Trace {
    pub smoke: bool,
    /// What recording one span costs (`probe::span_cost_ns`).
    pub span_cost_ns: f64,
    /// The warm-up's signature.
    pub reference: u64,
    rows: Vec<(&'static str, f64)>,
    details: Vec<(String, Json)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Trace {
    /// Records a per-layer row (the last value of a name wins).
    pub fn row(&mut self, name: &'static str, value: f64) {
        debug_assert!(registry::layer(name).is_some(), "unregistered row {name}");
        self.rows.retain(|(n, _)| *n != name);
        self.rows.push((name, value));
    }

    /// Counts one traced operation or oracle.
    pub fn operation(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// Attaches a span dump to the result file (the last of a name wins).
    pub fn detail(&mut self, name: &str, value: Json) {
        self.details.retain(|(n, _)| n != name);
        self.details.push((name.to_string(), value));
    }

    /// The rows every phase-span trace ends with: how much of the traced
    /// wall time the leaf spans cover, and what recording a span costs.
    pub fn phase_rows(&mut self, spans: &Spans) {
        self.row("trace.coverage", spans.coverage());
        let mut empty = Spans::new();
        let start = Instant::now();
        for _ in 0..1_000 {
            empty.scope("calibration", |_| ());
        }
        self.row(
            "trace.overhead_ns",
            start.elapsed().as_nanos() as f64 / 1_000.0,
        );
        self.detail("phase_spans", spans.to_json());
    }
}

/// The parsed `run` command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
}

/// Runs one workload, printing its metrics by name, and returns the
/// result document: provenance, every rep, what the workload reports,
/// and under `result` the contract's result object.
pub fn measure(args: &RunArgs) -> Result<Json, String> {
    let def = registry::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let sizes: &'static Sizes = if args.smoke { &SMOKE } else { &FULL };
    let mut load = workload(def.name, args.seed, sizes).ok_or("workload not built")?;
    println!(
        "workload {} (seed {}, {}): {}",
        def.name,
        args.seed,
        if args.smoke {
            "SMOKE size"
        } else {
            "full size"
        },
        def.why
    );

    let reference = load.warm_up()?;
    let mut doc = vec![
        ("benchmark".to_string(), Json::from("netfi")),
        ("workload".to_string(), def.name.into()),
        ("smoke".to_string(), args.smoke.into()),
        ("trace".to_string(), args.trace.into()),
        ("provenance".to_string(), host::provenance(args.seed)),
        ("reference_signature".to_string(), hex(reference)),
    ];
    let (attempted, failures, metrics) = if args.trace {
        traced(load.as_mut(), args, reference, &mut doc)
    } else {
        untraced(load.as_mut(), args, reference, def.work_unit, &mut doc)
    };
    doc.push(("reported".to_string(), load.reported()));

    for f in &failures {
        println!("FAILED operation: {f}");
    }
    println!(
        "operations: {attempted} attempted, {} failed",
        failures.len()
    );
    doc.push(("failures".to_string(), failures.clone().into()));
    doc.push((
        "result".to_string(),
        obj([
            ("correct", failures.is_empty().into()),
            ("attempted", attempted.into()),
            ("failed", failures.len().into()),
            ("metrics", metrics),
        ]),
    ));
    Ok(Json::Obj(doc))
}

/// `measure`, then the result file if one was asked for, then the result
/// object as the last line of standard output. Returns whether every
/// operation passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let doc = measure(args)?;
    if let Some(path) = &args.out {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let result = doc.get("result").ok_or("no result")?;
    println!("{}", result.render());
    Ok(result.get("correct").and_then(Json::as_bool) == Some(true))
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

fn untraced(
    load: &mut dyn Workload,
    args: &RunArgs,
    reference: u64,
    work_unit: &str,
    doc: &mut Vec<(String, Json)>,
) -> (u64, Vec<String>, Json) {
    let min_rounds = if args.smoke { 1 } else { 3 };
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut work: [Option<u64>; 2] = [None, None];
    let mut reps_json = Vec::new();

    let started = Instant::now();
    let mut rounds = 0u64;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let Ok(round) = catch_unwind(AssertUnwindSafe(|| load.round())) else {
            attempted += 2;
            failures.push(format!("round {rounds}: panicked"));
            continue;
        };
        setups.push(round.setup_s);
        for (slot, rep) in round.reps.into_iter().enumerate() {
            attempted += 1;
            let (config, workers) = CONFIGS[slot];
            let error = rep
                .error
                .or_else(|| {
                    (rep.signature != reference)
                        .then(|| "outputs differ from the warm-up's".to_string())
                })
                .or_else(|| {
                    (*work[slot].get_or_insert(rep.work) != rep.work)
                        .then(|| "work differs between rounds".to_string())
                })
                .or_else(|| {
                    (workers > host::nproc())
                        .then(|| format!("{workers} workers asked of a {}-core box", host::nproc()))
                });
            let noisy = rep.on_cpu.is_some_and(|share| share < NOISY_BELOW);
            reps_json.push(obj([
                ("round", rounds.into()),
                ("config", config.into()),
                ("work", rep.work.into()),
                ("wall_s", rep.wall_s.into()),
                ("on_cpu_share", rep.on_cpu.into()),
                ("noisy", noisy.into()),
                ("ok", error.is_none().into()),
            ]));
            match error {
                Some(e) => failures.push(format!("round {rounds} {config}: {e}")),
                None => rates[slot].push(rep.work as f64 / rep.wall_s),
            }
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let mut metrics = Vec::new();
    for def in &END_TO_END {
        let (value, note) = match def.name {
            "work_per_s" => (
                median(&rates[0]),
                format!("{work_unit}s, one worker; median of R = {}", rates[0].len()),
            ),
            "work_per_s_w2" => (
                median(&rates[1]),
                format!(
                    "{work_unit}s, two workers; median of R = {}",
                    rates[1].len()
                ),
            ),
            "setup_s" => (median(&setups), format!("median of R = {}", setups.len())),
            "peak_rss_mib" => (
                host::peak_rss_mib().unwrap_or(0.0),
                "VmHWM of this process".to_string(),
            ),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        println!("{:<14} {value:>18.6} {:<4} ({note})", def.name, def.unit);
        metrics.push((def.name.to_string(), metric(value, def.unit)));
    }
    // R supports the median only, unless a run is long enough to put
    // ten reps beyond a higher percentile.
    match highest_supported_percentile(rounds) {
        Some(p) => println!("R = {rounds} supports percentiles up to {p}"),
        None => println!("R = {rounds} supports the median only"),
    }
    doc.push(("rounds".to_string(), rounds.into()));
    doc.push(("measured_s".to_string(), measured_s.into()));
    doc.push(("reps".to_string(), Json::Arr(reps_json)));
    doc.push(("setup_samples_s".to_string(), setups.into()));
    (attempted, failures, Json::Obj(metrics))
}

fn traced(
    load: &mut dyn Workload,
    args: &RunArgs,
    reference: u64,
    doc: &mut Vec<(String, Json)>,
) -> (u64, Vec<String>, Json) {
    let mut t = Trace {
        smoke: args.smoke,
        span_cost_ns: crate::probe::span_cost_ns(),
        reference,
        rows: Vec::new(),
        details: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    if catch_unwind(AssertUnwindSafe(|| load.trace(&mut t))).is_err() {
        t.operation(false, "the traced pass panicked");
    }
    // The whole ledger several times over, each row's median taken
    // across the passes: a slow phase of the box lasts longer than one
    // row, but rarely longer than one pass.
    let passes: Vec<_> = (0..if args.smoke { 1 } else { 5 })
        .map(|_| Ledger::run_all(args.smoke, args.seed))
        .collect();
    for (i, &(name, _)) in passes[0].iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|rows| rows[i].1).collect();
        t.row(name, median(&values));
    }

    let mut metrics = Vec::new();
    for def in &PER_LAYER {
        // A row the workload's trace did not produce: the workload does
        // not run that layer.
        let value = t
            .rows
            .iter()
            .find(|(n, _)| *n == def.name)
            .map_or(0.0, |r| r.1);
        println!("{:<36} {value:>18.4} {}", def.name, def.unit);
        metrics.push((def.name.to_string(), metric(value, def.unit)));
    }
    doc.push(("span_cost_ns".to_string(), t.span_cost_ns.into()));
    doc.push(("spans".to_string(), Json::Obj(t.details)));
    (t.attempted, t.failures, Json::Obj(metrics))
}
