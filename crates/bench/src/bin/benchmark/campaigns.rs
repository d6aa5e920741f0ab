//! The three campaign workloads — `sample`, `detect100`, `paper_eval` —
//! and their traced runs: parent/child phase spans around the public
//! campaign calls.

use crate::host::RepClock;
use crate::json::{hex, obj, Json};
use crate::probe::Spans;
use crate::run::{timed_setup, Rep, Round, Sizes, Trace, Workload, CONFIGS};
use crate::stats::median;
use netfi_nftape::campaign::{paper_campaigns, CampaignSpec, FaultSpec};
use netfi_nftape::scenarios::control::table4_paper_loss;
use netfi_nftape::{
    detect_specs, grid_specs, run_campaign, run_campaigns_with_workers, run_detection,
    warm_campaign, warm_detect, DetectOptions, DetectResult, DetectSpec, RunResult,
};
use netfi_sample::{sample_warmed, OutcomeClass, SampleOptions, SampledCampaign};
use netfi_sim::RunOutcome;

/// FNV-1a over a byte string: the benchmark's own fold for results that
/// carry no fingerprint of their own.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rep_of<T>(
    work: u64,
    clock: RepClock,
    workers: usize,
    result: Result<T, String>,
    signature: impl FnOnce(&T) -> Result<u64, String>,
) -> Rep {
    let (wall_s, on_cpu) = clock.stop();
    let checked = result.and_then(|r| signature(&r));
    Rep {
        work,
        wall_s,
        // At two workers the calling thread mostly waits.
        on_cpu: if workers == 1 { on_cpu } else { None },
        signature: *checked.as_ref().unwrap_or(&0),
        error: checked.err(),
    }
}

// ---------------------------------------------------------------- sample

/// `sample`: one warm donor per round, then every drawn point as a fork
/// of it, classified.
pub struct Sample {
    seed: u64,
    points: u64,
    last: Option<SampledCampaign>,
}

impl Sample {
    pub fn new(seed: u64, sizes: &Sizes) -> Sample {
        Sample {
            seed,
            points: sizes.sample_points,
            last: None,
        }
    }

    fn options(&self, workers: usize) -> SampleOptions {
        SampleOptions {
            seed: self.seed,
            points: self.points,
            workers,
        }
    }

    /// The fingerprint, once the campaign's own invariants hold: the
    /// healthy baseline finished, and the histogram covers every point.
    fn checked(&self, campaign: &SampledCampaign) -> Result<u64, String> {
        if campaign.baseline.outcome == RunOutcome::BudgetExhausted {
            return Err("the healthy baseline exhausted its event budget".to_string());
        }
        let classified: u64 = campaign.histogram().iter().sum();
        if classified != self.points {
            return Err(format!("{classified} of {} points classified", self.points));
        }
        Ok(campaign.fingerprint())
    }
}

impl Workload for Sample {
    fn warm_up(&mut self) -> Result<u64, String> {
        let warm = warm_campaign(self.seed).map_err(|e| e.to_string())?;
        let campaign = sample_warmed(&warm, &self.options(1)).map_err(|e| e.to_string())?;
        let fingerprint = self.checked(&campaign);
        self.last = Some(campaign);
        fingerprint
    }

    fn round(&mut self) -> Round {
        // Warming the donor takes a few hundred microseconds.
        let (setup_s, warm) = timed_setup(8, || warm_campaign(self.seed));
        let reps = CONFIGS.map(|(_, workers)| match &warm {
            Err(e) => Rep::failed(&e.to_string()),
            Ok(warm) => {
                let clock = RepClock::start();
                let result = sample_warmed(warm, &self.options(workers)).map_err(|e| e.to_string());
                rep_of(self.points, clock, workers, result, |c| self.checked(c))
            }
        });
        Round { setup_s, reps }
    }

    fn reported(&self) -> Json {
        let Some(campaign) = &self.last else {
            return Json::Null;
        };
        let histogram = campaign.histogram();
        obj([
            ("points", self.points.into()),
            ("fingerprint", hex(campaign.fingerprint())),
            (
                "histogram",
                Json::Obj(
                    OutcomeClass::ALL
                        .iter()
                        .map(|c| (c.label().to_string(), histogram[c.index()].into()))
                        .collect(),
                ),
            ),
        ])
    }

    fn trace(&mut self, t: &mut Trace) {
        let passes = if t.smoke { 1 } else { 3 };
        let mut spans = Spans::new();
        let result = spans.scope("sample", |s| -> Result<SampledCampaign, String> {
            let warm = s
                .scope("nftape.grid.warm", |_| warm_campaign(self.seed))
                .map_err(|e| e.to_string())?;
            // The grid's 19 failure specs on the same donor: what a fork
            // costs, and what a fork plus its fault phases costs.
            for spec in grid_specs() {
                s.scope("nftape.grid.fork", |_| {
                    std::hint::black_box(warm.fork_engine())
                });
                s.scope("nftape.grid.fork_run", |_| warm.fork_run(&spec))
                    .map_err(|e| e.to_string())?;
            }
            // The two configurations, interleaved.
            let mut last = None;
            for _ in 0..passes {
                for (name, workers) in [("sample.w1", 1), ("sample.w2", 2)] {
                    let campaign = s
                        .scope(name, |_| sample_warmed(&warm, &self.options(workers)))
                        .map_err(|e| e.to_string())?;
                    last = Some(campaign);
                }
            }
            last.ok_or_else(|| "no campaign ran".to_string())
        });
        match result.and_then(|c| self.checked(&c).map(|f| (c, f))) {
            Ok((campaign, fingerprint)) => {
                t.operation(fingerprint == t.reference, "traced fingerprint");
                let h = campaign.histogram();
                for (name, class) in [
                    ("sample.masked", OutcomeClass::Masked),
                    ("sample.corrupted", OutcomeClass::CorruptedDelivered),
                    ("sample.crc", OutcomeClass::DetectedByCrc),
                    ("sample.timeout", OutcomeClass::DetectedByTimeout),
                    ("sample.hang", OutcomeClass::Hang),
                ] {
                    t.row(name, h[class.index()] as f64);
                }
                let injections: u64 = campaign.records.iter().map(|r| r.evidence.injections).sum();
                t.row("core.device.injections", injections as f64);
            }
            Err(e) => t.operation(false, &e),
        }
        let us = |name: &str| median(&spans.durations_s(name)) * 1e6;
        t.row("nftape.grid.warm_ms", us("nftape.grid.warm") / 1e3);
        t.row("nftape.grid.fork_us", us("nftape.grid.fork"));
        t.row("nftape.grid.fork_run_us", us("nftape.grid.fork_run"));
        t.row("sample.point_us", us("sample.w1") / self.points as f64);
        t.row(
            "sample.fanout_efficiency",
            us("sample.w1") / (2.0 * us("sample.w2")).max(1e-9),
        );
        t.phase_rows(&spans);
    }
}

// ------------------------------------------------------------- detect100

/// `detect100`: the whole detection campaign — warm the heartbeating
/// fabric, fork it per failure scenario, score the detectors.
pub struct Detect {
    options: DetectOptions,
    specs: Vec<DetectSpec>,
    last: Option<DetectResult>,
}

impl Detect {
    pub fn new(seed: u64, sizes: &Sizes) -> Detect {
        let mut options = DetectOptions::sized(sizes.detect_hosts);
        options.topo.seed = seed;
        Detect {
            specs: detect_specs(&options),
            options,
            last: None,
        }
    }

    fn checked(result: &DetectResult) -> Result<u64, String> {
        match result.runs.iter().find(|r| r.outcome != "complete") {
            Some(run) => Err(format!("scenario {} ended {}", run.spec, run.outcome)),
            None => Ok(result.fingerprint()),
        }
    }

    /// Median first-crossing latency at the reference threshold, in ms.
    fn p50_ms(result: &DetectResult) -> f64 {
        let latencies: Vec<f64> = result
            .latency_samples(result.reference)
            .into_iter()
            .map(|us| us as f64 / 1e3)
            .collect();
        median(&latencies)
    }
}

impl Workload for Detect {
    fn warm_up(&mut self) -> Result<u64, String> {
        let result = run_detection(&self.options, &self.specs, 1).map_err(|e| e.to_string())?;
        let fingerprint = Detect::checked(&result);
        self.last = Some(result);
        fingerprint
    }

    fn round(&mut self) -> Round {
        // `run_detection` warms its own donor inside the timed region;
        // one standalone warm-up per round is the set-up sample.
        let (setup_s, warm) = timed_setup(1, || warm_detect(&self.options).map(drop));
        let reps = CONFIGS.map(|(_, workers)| {
            let clock = RepClock::start();
            let result = warm
                .and_then(|()| run_detection(&self.options, &self.specs, workers))
                .map_err(|e| e.to_string());
            rep_of(
                self.specs.len() as u64,
                clock,
                workers,
                result,
                Detect::checked,
            )
        });
        Round { setup_s, reps }
    }

    fn reported(&self) -> Json {
        let Some(result) = &self.last else {
            return Json::Null;
        };
        obj([
            ("scenarios", self.specs.len().into()),
            ("fingerprint", hex(result.fingerprint())),
            (
                "events",
                result.runs.iter().map(|r| r.events).sum::<u64>().into(),
            ),
            ("detect_p50_ms", Detect::p50_ms(result).into()),
            ("missed", result.missed_total(result.reference).into()),
            (
                "false_alarms",
                result.false_alarm_total(result.reference).into(),
            ),
        ])
    }

    fn trace(&mut self, t: &mut Trace) {
        let mut spans = Spans::new();
        let outcome = spans.scope("detect100", |s| -> Result<(), String> {
            let warm = s
                .scope("nftape.detection.warm", |_| warm_detect(&self.options))
                .map_err(|e| e.to_string())?;
            for spec in &self.specs {
                let run = s
                    .scope("nftape.detection.fork_run", |_| warm.fork_run(spec))
                    .map_err(|e| e.to_string())?;
                if run.outcome != "complete" {
                    return Err(format!("scenario {} ended {}", run.spec, run.outcome));
                }
            }
            Ok(())
        });
        t.operation(
            outcome.is_ok(),
            outcome.as_ref().err().map_or("phase spans", |e| e),
        );
        let runs_ms: Vec<f64> = spans
            .durations_s("nftape.detection.fork_run")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        t.row(
            "nftape.detection.warm_ms",
            median(&spans.durations_s("nftape.detection.warm")) * 1e3,
        );
        t.row("nftape.detection.fork_run_ms", median(&runs_ms));
        t.row(
            "nftape.detection.fork_run_max_ms",
            runs_ms.iter().copied().fold(0.0, f64::max),
        );
        if let Some(result) = &self.last {
            t.row("detect.p50_ms", Detect::p50_ms(result));
            t.row(
                "detect.missed",
                result.missed_total(result.reference) as f64,
            );
            t.row(
                "detect.false_alarms",
                result.false_alarm_total(result.reference) as f64,
            );
            t.row(
                "detect.agreement_permille",
                result.mean_agreement_permille() as f64,
            );
        }
        t.phase_rows(&spans);
    }
}

// ------------------------------------------------------------ paper_eval

/// The measurement window of every `paper_eval` campaign. The library's
/// default of 6 s makes one round take 8 s: a run would hold one or two.
const WINDOW_SECS: u64 = 1;

/// `paper_eval`: the paper's evaluation as a campaign list, a fresh test
/// bed per campaign.
pub struct PaperEval {
    seed: u64,
    sizes: &'static Sizes,
    specs: Vec<CampaignSpec>,
    last: Option<Vec<Vec<RunResult>>>,
}

impl PaperEval {
    pub fn new(seed: u64, sizes: &'static Sizes) -> PaperEval {
        PaperEval {
            seed,
            sizes,
            specs: PaperEval::specs(seed, sizes),
            last: None,
        }
    }

    /// `paper_campaigns(seed)` at the benchmark's measurement window,
    /// keeping the first `paper_table4_rows` rows of Table 4.
    fn specs(seed: u64, sizes: &Sizes) -> Vec<CampaignSpec> {
        let mut table4_rows = 0;
        paper_campaigns(seed)
            .into_iter()
            .filter(|spec| {
                let is_row = matches!(spec.fault, FaultSpec::ControlSymbol { .. });
                table4_rows += usize::from(is_row);
                !is_row || table4_rows <= sizes.paper_table4_rows
            })
            .map(|mut spec| {
                spec.window_secs = WINDOW_SECS;
                spec
            })
            .collect()
    }

    /// A hash of every result row: what workers 1 and 2 must agree on.
    fn results_hash(results: &[Vec<RunResult>]) -> u64 {
        fnv1a(format!("{results:?}").as_bytes())
    }

    /// Mean absolute error, in percentage points, of the Table 4 loss
    /// rates against the paper's.
    fn table4_mae_pp(&self, results: &[Vec<RunResult>]) -> f64 {
        let errors: Vec<f64> = self
            .specs
            .iter()
            .zip(results)
            .filter(|(spec, _)| matches!(spec.fault, FaultSpec::ControlSymbol { .. }))
            .zip(table4_paper_loss())
            .filter_map(|((_, rows), (sent, received))| {
                let paper = 1.0 - received as f64 / sent as f64;
                rows.first()
                    .map(|row| (row.loss_rate() - paper).abs() * 100.0)
            })
            .collect();
        errors.iter().sum::<f64>() / errors.len().max(1) as f64
    }
}

impl Workload for PaperEval {
    fn warm_up(&mut self) -> Result<u64, String> {
        let results = run_campaigns_with_workers(&self.specs, 1).map_err(|e| e.to_string())?;
        let signature = PaperEval::results_hash(&results);
        self.last = Some(results);
        Ok(signature)
    }

    fn round(&mut self) -> Round {
        // Campaigns build their own test beds inside the timed region;
        // all that is left outside is writing down the campaign list,
        // which takes microseconds.
        let (setup_s, specs) = timed_setup(512, || PaperEval::specs(self.seed, self.sizes));
        let reps = CONFIGS.map(|(_, workers)| {
            let clock = RepClock::start();
            let result = run_campaigns_with_workers(&specs, workers).map_err(|e| e.to_string());
            rep_of(specs.len() as u64, clock, workers, result, |r| {
                Ok(PaperEval::results_hash(r))
            })
        });
        Round { setup_s, reps }
    }

    fn reported(&self) -> Json {
        let Some(results) = &self.last else {
            return Json::Null;
        };
        obj([
            ("campaigns", self.specs.len().into()),
            ("rows", results.iter().map(Vec::len).sum::<usize>().into()),
            ("results_hash", hex(PaperEval::results_hash(results))),
            ("table4_mae_pp", self.table4_mae_pp(results).into()),
        ])
    }

    fn trace(&mut self, t: &mut Trace) {
        let mut spans = Spans::new();
        let results = spans.scope("paper_eval", |s| -> Result<Vec<Vec<RunResult>>, String> {
            self.specs
                .iter()
                .map(|spec| {
                    s.scope("nftape.campaign.run", |_| run_campaign(spec))
                        .map_err(|e| e.to_string())
                })
                .collect()
        });
        match results {
            Ok(results) => {
                t.operation(
                    PaperEval::results_hash(&results) == t.reference,
                    "traced results hash",
                );
                t.row("nftape.table4.mae_pp", self.table4_mae_pp(&results));
            }
            Err(e) => t.operation(false, &e),
        }
        let slowest = spans
            .durations_s("nftape.campaign.run")
            .into_iter()
            .fold(0.0, f64::max);
        t.row("nftape.campaign.slowest_ms", slowest * 1e3);
        t.phase_rows(&spans);
    }
}
