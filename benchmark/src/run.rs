//! The measurement loops: set-up (several times), warm-up, timed rounds in
//! a closed loop until `--seconds` have been measured, then the checks.
//!
//! A round is a fixed amount of work, identical on every commit: a full pass
//! of the statement set over the stream, or for the fleet one ingest quantum
//! drained to empty. Every round of a pass workload — and every epoch of the
//! fleet — repeats the same work from the same seeds, so the count-derived
//! metrics do not depend on how many rounds fit into `--seconds`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::calibrate::{Calibrated, SETUP_SAMPLES};
use crate::check::{check_pass, Findings};
use crate::fleet;
use crate::layers;
use crate::metrics::{median, peak_rss_mib, quantile};
use crate::pass::{self, run_pass, PassInputs, PassOutcome, Statement};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Untimed rounds at the end of every set-up.
pub const WARMUP_ROUNDS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run hands back: the operations it attempted, the ones that
/// failed, and the measured values by metric name.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Where the operating points sat, for the run's output.
    pub summary: String,
    pub values: Vec<(&'static str, f64)>,
    /// Timed rounds and camera-frames per round, for the fingerprint.
    pub rounds: usize,
    pub frames_per_round: u64,
}

/// A single-camera workload: how to build it and which extras it carries.
pub struct PassSpec {
    pub build: fn(u64, usize) -> PassInputs,
    /// Frames per pass. The reference host runs 30 % faster when its
    /// neighbours are quiet; the sizes keep a round at or above 150 ms then
    /// and at or below about 200 ms otherwise, so that about 100 rounds fit
    /// into the declared 20 seconds either way.
    pub frames: usize,
    /// Whether selects decide what reaches the detector, i.e. whether the
    /// detector-share guard applies.
    pub select_bearing: bool,
    /// The variance probe: backend index, WHERE clauses and window sizes.
    pub probe: (usize, &'static [&'static str], &'static [usize]),
    /// The layers whose self time should dominate the traced round.
    pub dominant: &'static [&'static str],
}

pub fn pass_spec(workload: &str) -> Option<PassSpec> {
    Some(match workload {
        "nn_select" => PassSpec {
            build: pass::nn_select,
            frames: 1_000,
            select_bearing: true,
            probe: (1, &[pass::A1], &[pass::PROBE_WINDOW]),
            dominant: &["filters"],
        },
        "standing_many" => PassSpec {
            build: pass::standing_many,
            frames: 2_250,
            select_bearing: true,
            probe: (0, &[pass::A1, pass::A2], &[pass::PROBE_WINDOW]),
            dominant: &["query", "detect"],
        },
        "aggregate_cv" => PassSpec {
            build: pass::aggregate_cv,
            frames: 4_200,
            select_bearing: false,
            probe: (0, &[pass::A1, pass::A2], &[250, 500, 1000]),
            dominant: &["aggregate"],
        },
        _ => return None,
    })
}

/// Wall-clock statistics of the timed rounds. `setup_s` and `round_ms` are at
/// reference speed (see [`crate::calibrate`]); `raw_round_ms` is what the
/// clock read.
pub struct Timing {
    pub setup_s: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub raw_round_ms: Vec<f64>,
    pub frames_per_round: u64,
}

impl Timing {
    pub fn frames_per_s(&self) -> f64 {
        self.round_ms.len() as f64 * self.frames_per_round as f64 / (self.round_ms.iter().sum::<f64>() / 1000.0)
    }

    /// The distribution of the timed rounds, raw and at reference speed, for
    /// the run's output.
    pub fn summary(&self) -> String {
        let row = |label: &str, ms: &[f64]| {
            let at = |q: f64| quantile(ms, q);
            format!(
                "{label} ms: min {:.1} p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} max {:.1}",
                at(0.0),
                at(0.1),
                at(0.25),
                at(0.5),
                at(0.75),
                at(0.9),
                at(1.0)
            )
        };
        let slowdown = self.raw_round_ms.iter().sum::<f64>() / self.round_ms.iter().sum::<f64>();
        format!(
            "{} timed rounds, host at {slowdown:.2} of nominal time\n  {}\n  {}",
            self.round_ms.len(),
            row("wall clock     ", &self.raw_round_ms),
            row("reference speed", &self.round_ms)
        )
    }

    /// The five wall and memory metrics every workload shares.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", median(&self.setup_s)),
            ("frames_per_s", self.frames_per_s()),
            ("round_ms_p50", median(&self.round_ms)),
            ("round_ms_p90", quantile(&self.round_ms, 0.9)),
            ("peak_rss_mb", peak_rss_mib()),
        ]
    }
}

/// Sets a pass workload up `repeats` times, warm-up rounds included, and
/// keeps the last set-up's inputs.
pub fn set_up_pass(spec: &PassSpec, seed: u64, repeats: usize) -> (PassInputs, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(repeats);
    let mut built = None;
    let mut calibrated = Calibrated::start(SETUP_SAMPLES);
    for _ in 0..repeats {
        drop(built.take()); // one set of inputs resident at a time
        let (inputs, _, reference_ms) = calibrated.time(|| {
            let inputs = (spec.build)(seed, spec.frames);
            for _ in 0..WARMUP_ROUNDS {
                run_pass(&inputs.camera, &inputs.statements, None);
            }
            inputs
        });
        setup_s.push(reference_ms / 1000.0);
        built = Some(inputs);
    }
    (built.expect("at least one set-up"), setup_s)
}

/// The timed rounds of one run: reference-speed and raw milliseconds per
/// round, and what each round returned.
pub struct Rounds<T> {
    pub round_ms: Vec<f64>,
    pub raw_round_ms: Vec<f64>,
    pub outcomes: Vec<T>,
}

/// Runs `round` in a closed loop until `seconds` of rounds have been
/// measured on the wall clock. A round that panics is a failed operation.
pub fn timed_rounds<T>(seconds: f64, failures: &mut Vec<String>, mut round: impl FnMut() -> T) -> Rounds<T> {
    let mut rounds = Rounds { round_ms: Vec::new(), raw_round_ms: Vec::new(), outcomes: Vec::new() };
    let mut calibrated = Calibrated::start(1);
    let mut measured_ms = 0.0;
    while measured_ms < seconds * 1000.0 {
        let (outcome, raw_ms, reference_ms) = calibrated.time(|| catch_unwind(AssertUnwindSafe(&mut round)));
        measured_ms += raw_ms;
        match outcome {
            Ok(outcome) => {
                rounds.round_ms.push(reference_ms);
                rounds.raw_round_ms.push(raw_ms);
                rounds.outcomes.push(outcome);
            }
            Err(_) => {
                failures.push(format!("round {} panicked", rounds.round_ms.len() + failures.len()));
                if failures.len() > 3 {
                    break; // a broken build fails every round; do not spin
                }
            }
        }
    }
    rounds
}

/// Checks a pass outcome against the reference, applies the detector-share
/// guard on a select-bearing workload, and runs the variance probe.
pub fn check_pass_workload(spec: &PassSpec, inputs: &PassInputs, outcome: &PassOutcome) -> Findings {
    let mut findings = check_pass(&inputs.camera.frames, &inputs.statements, outcome);
    if spec.select_bearing {
        findings.detector_share(outcome.bill.detector_frames, inputs.camera.frames.len() as u64);
    }
    // `cv_reduction_*` come from the probe alone, also where the timed
    // statements are 100-trial aggregates themselves: their windows are
    // checked above, but their variances are four times coarser.
    findings.cv_reductions.clear();
    let (backend, clauses, windows) = spec.probe;
    let statements: Vec<Statement> = pass::probe_statements(backend, clauses, windows);
    let (stream, probed) = pass::run_probe(&inputs.camera, &statements);
    findings.absorb(check_pass(&stream, &statements, &probed));
    findings
}

fn run_pass_workload(spec: &PassSpec, args: &Args) -> Report {
    let (inputs, setup_s) = set_up_pass(spec, args.seed, SETUP_REPEATS);
    let frames = inputs.camera.frames.len() as u64;
    let mut failures = Vec::new();
    let mut first: Option<PassOutcome> = None;
    let Rounds { round_ms, raw_round_ms, outcomes: digests } = timed_rounds(args.seconds, &mut failures, || {
        let outcome = run_pass(&inputs.camera, &inputs.statements, None);
        let digest = outcome.digest();
        first.get_or_insert(outcome);
        digest
    });
    let Some(outcome) = first else {
        failures.push("no round completed".into());
        return Report {
            attempted: 1,
            failures,
            summary: String::new(),
            values: Vec::new(),
            rounds: 0,
            frames_per_round: frames,
        };
    };
    if let Some(round) = digests.iter().position(|&d| d != outcome.digest()) {
        failures.push(format!("round {round} disagrees with round 0 on a count-derived result"));
    }
    let findings = check_pass_workload(spec, &inputs, &outcome);
    let timing = Timing { setup_s, round_ms, raw_round_ms, frames_per_round: frames };
    let mut values = timing.values();
    values.push(("virtual_ms_per_frame", outcome.bill.total_ms / frames as f64));
    values.extend(findings.quality_values());
    let attempted = (timing.round_ms.len() + failures.len()) as u64 + findings.checked;
    let summary = format!("{}\n{}", timing.summary(), findings.summary());
    failures.extend(findings.failures);
    Report { attempted, failures, summary, values, rounds: timing.round_ms.len(), frames_per_round: frames }
}

pub fn run(args: &Args) -> Option<Report> {
    if args.workload == "fleet_poll" {
        return Some(if args.trace { layers::traced_fleet(args) } else { fleet::run_untraced(args) });
    }
    let spec = pass_spec(&args.workload)?;
    Some(if args.trace { layers::traced_pass(&spec, args) } else { run_pass_workload(&spec, args) })
}
