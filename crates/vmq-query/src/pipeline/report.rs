//! What a pass reports: [`StageMetrics`] rows and the per-statement
//! [`QueryRun`]s built from them when a pass ends.

use super::{ExecState, SharedStreamPlan};
use crate::drift::DriftMonitor;
use crate::exec::QueryRun;
use crate::planner::CalibrationReport;
use serde::{Deserialize, Serialize};
use vmq_detect::Stage;

/// Per-operator execution metrics, the unified currency of reporting:
/// `QueryRun`, the engine's `QueryOutcome` and the golden tests all
/// derive their numbers from these.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Operator name (`calibrate`, `source`, `cascade-filter`,
    /// `drift-monitor`, `detect`, `predicate-eval`, `sink`, `window-filter`,
    /// `aggregate-sink`).
    pub operator: String,
    /// The cost-model stage the operator charges, if any.
    pub stage: Option<Stage>,
    /// Frames that entered the operator.
    pub frames_in: usize,
    /// Frames that left the operator (survivors).
    pub frames_out: usize,
    /// Virtual milliseconds charged by the operator (`frames_in × per-frame
    /// stage cost`; zero for uncharged operators).
    pub virtual_ms: f64,
    /// Real wall-clock milliseconds spent inside the operator. For sharded
    /// operators this is the *elapsed* span of the stage — the scoped worker
    /// pool joins before the stage returns, so the figure is the
    /// max-over-workers wall span, never the sum of per-worker CPU time.
    pub wall_ms: f64,
    /// Worker threads the operator actually sharded its work over: the
    /// decode width ([`vmq_exec::parallelism`]) for a learned backend's
    /// `cascade-filter`, `window-filter` and `drift-monitor` rows, and 1 for
    /// a backend that reads no raster (the calibrated filter never shards)
    /// and for every other operator. A plan detects on the calling thread,
    /// a fleet camera's included, so `detect` reads 1. Speedup arithmetic on
    /// `wall_ms` stays honest: dividing by a baseline compares elapsed
    /// spans, not CPU time.
    pub workers: usize,
    /// The compute kernel backend the operator's inference ran on (`"avx2"`,
    /// `"neon"`, `"scalar"` for dispatched f32 kernels; `"int8"` for
    /// quantized filters; `"none"` for filters that run no network). `None`
    /// for operators without filter inference. Keeps wall-clock claims
    /// auditable: a bench row that says `wall_ms` dropped also says which
    /// kernel path produced the number.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kernel_backend: Option<String>,
}

impl StageMetrics {
    /// Builds a row whose virtual charge is `charged × per-frame stage cost`
    /// (zero for uncharged operators). The one constructor behind every
    /// stage row — the plan's finalisation and the runtime's synthesised
    /// brute-force baseline — so the cost formula cannot drift between them.
    pub fn charged_row(
        operator: &str,
        stage: Option<Stage>,
        frames_in: usize,
        frames_out: usize,
        charged: u64,
        model: &vmq_detect::CostModel,
        wall_ms: f64,
    ) -> Self {
        StageMetrics {
            operator: operator.to_string(),
            stage,
            frames_in,
            frames_out,
            virtual_ms: stage.map_or(0.0, |s| model.cost_ms(s) * charged as f64),
            wall_ms,
            workers: 1,
            kernel_backend: None,
        }
    }

    /// The pre-pass `calibrate` row of an adaptively planned select: the
    /// planner's prefix and its calibration bill (already charged to the
    /// statement's ledger), so calibration cost shows up in the same
    /// per-operator report as execution cost.
    pub fn calibrate(report: &CalibrationReport) -> Self {
        StageMetrics {
            operator: "calibrate".to_string(),
            stage: None,
            frames_in: report.prefix_frames,
            frames_out: report.prefix_frames,
            virtual_ms: report.calibration_ms,
            wall_ms: report.calibration_wall_ms,
            workers: 1,
            kernel_backend: None,
        }
    }

    /// Fraction of entering frames that survived the operator.
    pub fn pass_rate(&self) -> f64 {
        if self.frames_in == 0 {
            0.0
        } else {
            self.frames_out as f64 / self.frames_in as f64
        }
    }
}

impl SharedStreamPlan<'_> {
    /// Builds the per-query [`QueryRun`]s of the pass `st`, in registration
    /// order: one stage row per operator of the statement's logical plan,
    /// virtual columns from its private ledger's prices and frame counts,
    /// wall columns from the shared phase times.
    pub(super) fn finalize(&self, st: &ExecState) -> Vec<QueryRun> {
        let model = self.global.model().clone();
        let detector_stage = self.detector.stage();
        let frames_total = st.frames_total;
        let row = |operator: &str, stage: Option<Stage>, fin: usize, fout: usize, charged: u64, w: f64| {
            StageMetrics::charged_row(operator, stage, fin, fout, charged, &model, w)
        };
        // A backend's row reports the width its inference ran on (the decode
        // width for a network, 1 for a backend that reads no raster) and the
        // kernels it ran.
        let backend_row = |operator: &str, b: usize, frames_out: usize| {
            let stage = Some(self.backends[b].kind().stage());
            StageMetrics {
                workers: self.decode_width(b),
                kernel_backend: Some(self.backends[b].kernel_backend().to_string()),
                ..row(operator, stage, frames_total, frames_out, frames_total as u64, st.backend_wall[b])
            }
        };
        let source = row("source", Some(Stage::Decode), frames_total, frames_total, frames_total as u64, 0.0);
        // What every statement reports; a select adds what its cascade and
        // the detector did.
        let base = |q: usize, stage_metrics: Vec<StageMetrics>, filter_wall_ms: f64| {
            let statement = &self.queries[q];
            QueryRun {
                query: statement.name.clone(),
                mode: statement.mode_label.clone(),
                matched_frames: Vec::new(),
                frames_total,
                frames_passed_filter: frames_total,
                frames_detected: 0,
                virtual_ms: statement.ledger.total_ms(),
                filter_wall_ms,
                stage_metrics,
                replans: Vec::new(),
                audit_frames: 0,
            }
        };
        let mut runs: Vec<(usize, QueryRun)> = Vec::with_capacity(self.queries.len());
        for select in &self.selects {
            let audit_frames = select.drift.as_ref().map_or(0, DriftMonitor::audit_frames);
            let detected = select.survivors + audit_frames as usize;
            let mut matched_frames = select.matched.clone();
            if select.drift.is_some() {
                // Audit corrections and catch-up repair append out of stream
                // order; restore it for reporting.
                matched_frames.sort_unstable();
            }
            let matched = matched_frames.len();
            let mut stage_metrics: Vec<StageMetrics> = select.calibration.iter().chain([&source]).cloned().collect();
            let mut filter_wall_ms = 0.0;
            if let Some(b) = select.backend {
                filter_wall_ms = st.backend_wall[b];
                stage_metrics.push(backend_row("cascade-filter", b, select.survivors));
            }
            // Candidate backends the drift monitor kept warm are billed every
            // frame; report them as their own rows so the stage sum still
            // equals the private ledger.
            let monitored = select.drift.iter().flat_map(DriftMonitor::monitored_backends);
            for &mb in monitored.filter(|&&mb| Some(mb) != select.backend) {
                stage_metrics.push(backend_row("drift-monitor", mb, frames_total));
            }
            let detect = row("detect", Some(detector_stage), detected, detected, detected as u64, st.wall.detect_ms);
            stage_metrics.push(detect);
            stage_metrics.push(row("predicate-eval", None, detected, matched, 0, st.wall.eval_ms));
            stage_metrics.push(row("sink", None, matched, matched, 0, 0.0));
            let run = QueryRun {
                matched_frames,
                frames_passed_filter: if select.backend.is_some() { select.survivors } else { frames_total },
                frames_detected: detected,
                replans: select.drift.as_ref().map_or_else(Vec::new, |m| m.replans().to_vec()),
                audit_frames,
                ..base(select.q, stage_metrics, filter_wall_ms)
            };
            runs.push((select.q, run));
        }
        for aggregate in self.windows.aggregates() {
            let detected = aggregate.charged.total();
            let mut stage_metrics = vec![source.clone()];
            let mut filter_wall_ms = 0.0;
            for b in aggregate.backends() {
                filter_wall_ms += st.backend_wall[b];
                stage_metrics.push(backend_row("window-filter", b, frames_total));
            }
            let sink =
                row("aggregate-sink", Some(detector_stage), frames_total, frames_total, detected, aggregate.wall_ms);
            stage_metrics.push(sink);
            runs.push((
                aggregate.q,
                QueryRun { frames_detected: detected as usize, ..base(aggregate.q, stage_metrics, filter_wall_ms) },
            ));
        }
        runs.sort_unstable_by_key(|&(q, _)| q);
        runs.into_iter().map(|(_, run)| run).collect()
    }
}
