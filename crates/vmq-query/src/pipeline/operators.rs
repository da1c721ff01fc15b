//! Phases 1–5 of the shared pass and the drift replan at batch boundaries:
//! what runs on which frame, and who is billed for it.

use super::{ExecState, SharedStreamPlan, SharedWall};
use crate::drift::DriftMonitor;
use crate::plan::{frame_words, AtomVerdicts, FilterCascade};
use std::sync::Arc;
use std::time::Instant;
use vmq_detect::{FrameDetections, Stage};
use vmq_filters::{FilterEstimate, FrameFilter};
use vmq_video::Frame;

/// One bit per `(frame, select)`: which select statements subscribe to
/// which batch positions.
pub(super) struct Subscribers {
    words_per_frame: usize,
    pub(super) bits: Vec<u64>,
}

impl Subscribers {
    pub(super) fn new(frames: usize, selects: usize) -> Self {
        let words_per_frame = selects.div_ceil(64);
        Subscribers { words_per_frame, bits: vec![0; frames * words_per_frame] }
    }

    pub(super) fn insert(&mut self, frame: usize, s: usize) {
        self.bits[frame * self.words_per_frame + s / 64] |= 1 << (s % 64);
    }

    fn contains(&self, frame: usize, s: usize) -> bool {
        self.bits[frame * self.words_per_frame + s / 64] >> (s % 64) & 1 == 1
    }

    /// The selects subscribed to `frame`, ascending.
    fn of(&self, frame: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.bits[frame * self.words_per_frame..][..self.words_per_frame];
        words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |rest| Some(rest & (rest - 1)).filter(|&r| r != 0))
                .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }
}

/// Phase 3 for select `s`: escalates the batch positions set in `pass`
/// (frame bit-words, see [`AtomVerdicts::pass_words`]) by walking the set
/// bits and, under a drift monitor, the audit channel's seeded draw over the
/// rejected rest, in frame order. Returns the number of passing frames.
pub(super) fn escalate(
    s: usize,
    pass: &[u64],
    frames: &[Frame],
    drift: Option<&DriftMonitor>,
    escalations: &mut Subscribers,
    audits: &mut Subscribers,
) -> usize {
    let mut passed = 0;
    for (w, &word) in pass.iter().enumerate() {
        passed += word.count_ones() as usize;
        let mut rest = word;
        while rest != 0 {
            escalations.insert(w * 64 + rest.trailing_zeros() as usize, s);
            rest &= rest - 1;
        }
    }
    if let Some(monitor) = drift {
        for (i, frame) in frames.iter().enumerate() {
            // Audit tap: a seeded fraction of rejected frames goes to the
            // detector anyway.
            if pass[i / 64] >> (i % 64) & 1 == 0 && monitor.audits(frame) {
                escalations.insert(i, s);
                audits.insert(i, s);
            }
        }
    }
    passed
}

/// A batch whose per-plan phases have run (decode charge, backend inference,
/// per-query fan-out): which selects escalate which frames. Produced by
/// [`SharedStreamPlan::stage_batch`], consumed by
/// [`SharedStreamPlan::probe_batch`]. It holds no filter estimate, so a
/// fleet poll that stages cameras ahead of their completion holds a few
/// bit-words per camera, not a batch of estimates.
pub(crate) struct StagedBatch {
    frames: usize,
    /// Batch position → the selects that escalated it.
    escalations: Subscribers,
    /// The escalations the audit channel added.
    audits: Subscribers,
}

/// A batch mid-flight through the shared pass: the cheap phases (decode
/// charge, backend inference, per-query fan-out, detection-cache probe) have
/// run, and the `missing` frames still await the detector. Produced by
/// [`SharedStreamPlan::prepare_batch`], consumed by
/// [`SharedStreamPlan::complete_batch`]; between the two, the
/// caller detects the missing frames ([`SharedStreamPlan::detect_pending`]).
pub struct PreparedBatch<'f> {
    frames: &'f [Frame],
    /// Batch position → the selects that escalated it.
    escalations: Subscribers,
    /// The escalations the audit channel added.
    audits: Subscribers,
    /// Batch position → shared annotations, filled for cache hits; the
    /// missing positions are completed by `complete_batch`.
    resolved: Vec<Option<Arc<FrameDetections>>>,
    /// Batch positions escalated but absent from the cache, in batch order.
    missing: Vec<usize>,
}

impl PreparedBatch<'_> {
    /// Number of frames awaiting detection.
    pub fn missing_len(&self) -> usize {
        self.missing.len()
    }
}

impl SharedStreamPlan<'_> {
    /// Phases 1–3 of the shared pass: decode charges, shared backend
    /// inference and per-query fan-out (escalations, indicator rows, drift
    /// observation). Reads and writes only this plan's state, its private
    /// ledgers, the global ledger's `u64` counts and its own users'
    /// attribution rows, and never the detection cache.
    pub(super) fn stage(&mut self, frames: &[Frame], st: &mut ExecState) -> StagedBatch {
        let n = frames.len();
        // Phase 1 — decode: once globally, split across every query (global
        // charges address queries by their fleet-global user ids); each
        // private ledger pays the full batch (as isolated).
        self.global.charge_shared(Stage::Decode, n as u64, &self.user_ids);
        for statement in &self.queries {
            statement.ledger.charge(Stage::Decode, n as u64);
        }

        // Phase 2 — shared backend inference, billed once per (backend,
        // frame) ...
        for (b, users) in st.backend_users.iter().enumerate().filter(|(_, users)| !users.is_empty()) {
            let stage = self.backends[b].kind().stage();
            let uids: Vec<usize> = users.iter().map(|&q| self.user_ids[q]).collect();
            self.global.charge_shared(stage, n as u64, &uids);
            for &q in users {
                self.queries[q].ledger.charge(stage, n as u64);
            }
        }
        // ... and run once per decode group, which renders each frame once
        // for all of its backends; on the heels of each backend's estimates
        // comes the one evaluation of its atom table: every distinct cascade
        // atom and indicator, once per frame. The estimates themselves are
        // kept only for a backend a drift monitor reads.
        let mut estimates: Vec<Option<Vec<FilterEstimate>>> = vec![None; self.backends.len()];
        let mut verdicts: Vec<Option<AtomVerdicts>> = self.backends.iter().map(|_| None).collect();
        for group in &st.decode_groups {
            // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only
            // the per-backend wall attribution stat; estimates and charges
            // are already fixed.
            let start = Instant::now();
            // A group's backends all read one raster or (alone) none, so the
            // first one names the group's width: the whole machine for a
            // network, whose per-frame inference (tens to hundreds of µs)
            // pays for a pool scope many times over, and 1 for a backend
            // that reads no raster, such as the calibrated filter, whose
            // µs-scale estimates cost less than a scope.
            let workers = self.backends[group[0]].raster().map_or(1, |_| vmq_exec::parallelism());
            // A group of one runs the backend's own batch path, which for a
            // learned filter is the decode step over itself; a backend that
            // reads no raster is always alone.
            let batches = match group[..] {
                [b] => vec![self.backends[b].estimate_batch_sharded(frames, workers)],
                _ => {
                    let filters: Vec<&dyn FrameFilter> = group.iter().map(|&b| self.backends[b]).collect();
                    vmq_filters::estimate_shared(&filters, frames, workers)
                }
            };
            for (&b, batch) in group.iter().zip(batches) {
                verdicts[b] = Some(self.atoms[b].evaluate(&batch));
                if st.monitored[b] {
                    estimates[b] = Some(batch);
                }
            }
            let share_ms = start.elapsed().as_secs_f64() * 1000.0 / group.len() as f64;
            // Inside a fleet poll's pool stage the decode scope runs inline.
            let ran = vmq_exec::scope_width(workers);
            for &b in group {
                st.backend_wall[b] += share_ms;
                st.backend_width[b] = st.backend_width[b].max(ran);
            }
        }

        // Phase 3 — per-query fan-out from the shared verdicts: aggregates
        // read their indicator rows, and a select escalates the frames on
        // which all of its atoms hold.
        self.windows.append(frames, &verdicts);
        let mut escalations = Subscribers::new(n, self.selects.len());
        // Escalations the audit channel added: detected like survivors, but
        // billed through the ledger's audit phase and fed back to the drift
        // monitor as ground truth.
        let mut audits = Subscribers::new(n, self.selects.len());
        // A select's passing frames as bit-words, reused across statements.
        let mut pass = Vec::new();
        for (s, select) in self.selects.iter_mut().enumerate() {
            match select.backend {
                None => {
                    pass.clear();
                    pass.extend(frame_words(n));
                }
                Some(b) => verdicts[b]
                    .as_ref()
                    .expect("backend inference ran for its users")
                    .pass_words(&select.atoms, &mut pass),
            }
            select.survivors += escalate(s, &pass, frames, select.drift.as_ref(), &mut escalations, &mut audits);
            if let Some(monitor) = select.drift.as_mut() {
                let monitored: Vec<usize> = monitor.monitored_backends().to_vec();
                for (i, frame) in frames.iter().enumerate() {
                    let row: Vec<FilterEstimate> = monitored
                        .iter()
                        .map(|&mb| estimates[mb].as_ref().expect("monitored backend inference ran")[i].clone())
                        .collect();
                    monitor.observe(frame, row, pass[i / 64] >> (i % 64) & 1 == 1);
                }
            }
        }
        StagedBatch { frames: n, escalations, audits }
    }

    /// The shared half of [`SharedStreamPlan::prepare_batch`], phase 4's
    /// first half: probes the detection cache for the escalations of
    /// `staged`, the batch [`SharedStreamPlan::stage_batch`] ran over
    /// `frames`. Frames already annotated resolve here (recording every
    /// escalator as a sharing user); the rest become the batch's missing set.
    /// The cache's recency order and user sets depend on the order of
    /// probes, so plans sharing a cache probe in a fixed order.
    pub(super) fn probe_batch<'f>(&mut self, staged: StagedBatch, frames: &'f [Frame]) -> PreparedBatch<'f> {
        let StagedBatch { frames: n, escalations, audits } = staged;
        assert_eq!(n, frames.len(), "probe the frames that were staged");
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        let mut resolved: Vec<Option<Arc<FrameDetections>>> = vec![None; n];
        let mut missing: Vec<usize> = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let mut users = escalations.of(i).map(|s| self.user_ids[self.selects[s].q]).peekable();
            if users.peek().is_none() {
                continue;
            }
            match self.cache.get_for(frame, users) {
                Some(hit) => resolved[i] = Some(hit),
                None => missing.push(i),
            }
        }
        let st = self.exec.as_mut().expect("stage_batch before probe_batch");
        st.wall.detect_ms += start.elapsed().as_secs_f64() * 1000.0;
        PreparedBatch { frames, escalations, audits, resolved, missing }
    }

    /// Detection install plus phase 5 of the shared pass, given the detector
    /// results for a prepared batch's missing frames.
    pub(super) fn complete(
        &mut self,
        pending: PreparedBatch<'_>,
        detections: Vec<FrameDetections>,
        wall: &mut SharedWall,
    ) {
        let PreparedBatch { frames, escalations, audits, mut resolved, missing } = pending;
        assert_eq!(detections.len(), missing.len(), "one detection per missing frame");

        // Phase 4 (second half) — install the fresh detections: one global
        // charge per fresh frame (private ledgers pay per query in the
        // evaluation phase) and one cache insert on behalf of all its
        // escalators — a miss for the first, recorded hits for the rest, so
        // same-batch sharing counts as cache hits exactly like cross-batch
        // sharing does.
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `detect_ms` wall attribution stat.
        let start = Instant::now();
        if !missing.is_empty() {
            self.global.charge(self.detector.stage(), missing.len() as u64);
            for (i, d) in missing.into_iter().zip(detections) {
                let arc = Arc::new(d);
                let users = escalations.of(i).map(|s| self.user_ids[self.selects[s].q]);
                self.cache.insert_for(&frames[i], Arc::clone(&arc), users);
                resolved[i] = Some(arc);
            }
        }
        wall.detect_ms += start.elapsed().as_secs_f64() * 1000.0;

        // Phase 5 — exact evaluation on the shared annotations, for exactly
        // the subscribers of each frame, each distinct predicate at most once
        // per frame; each private ledger pays its own escalations in full.
        // vmq-lint: allow(no-wallclock-in-result-paths) -- feeds only the
        // `eval_ms` wall attribution stat.
        let start = Instant::now();
        let mut detected = vec![0u64; self.selects.len()];
        let mut audited = vec![0u64; self.selects.len()];
        let mut memo = self.exact.memo();
        for (i, frame) in frames.iter().enumerate() {
            memo.fill(None);
            for s in escalations.of(i) {
                let select = &mut self.selects[s];
                if audits.contains(i, s) {
                    audited[s] += 1;
                } else {
                    detected[s] += 1;
                }
                let detections = resolved[i].as_ref().expect("escalated frames are detected");
                let truth = self.exact.matches(&select.exact, detections, &mut memo);
                if truth {
                    // Audit sentinels double as corrections: a true frame the
                    // committed plan rejected still reaches the result set.
                    select.matched.push(frame.frame_id);
                }
                if let Some(monitor) = select.drift.as_mut() {
                    monitor.record_truth(frame.frame_id, truth);
                }
            }
        }
        let detector_stage = self.detector.stage();
        for (select, (&detected, &audited)) in self.selects.iter_mut().zip(detected.iter().zip(&audited)) {
            let ledger = &self.queries[select.q].ledger;
            if detected > 0 {
                ledger.charge(detector_stage, detected);
            }
            if audited > 0 {
                ledger.charge_audit(detector_stage, audited);
                if let Some(monitor) = select.drift.as_mut() {
                    monitor.note_audited(audited);
                }
            }
        }
        wall.eval_ms += start.elapsed().as_secs_f64() * 1000.0;
    }

    /// Consults every drift monitor at a batch boundary (`stream_offset`
    /// frames processed so far) and swaps committed plans where the audit
    /// evidence demands it: the known-truth window is replayed through the
    /// adaptive planner, and — on a swap — rejected window frames the new
    /// plan would have escalated are detected retroactively (catch-up
    /// repair, billed as audit work), which restores recall instead of
    /// merely stopping future misses.
    pub(super) fn maybe_replan(&mut self, stream_offset: usize) {
        let detector_stage = self.detector.stage();
        let model = self.global.model().clone();
        for select in &mut self.selects {
            let Some(monitor) = select.drift.as_mut() else { continue };
            if !monitor.should_attempt() {
                continue;
            }
            let report = monitor.plan(&select.query, &self.backends, detector_stage, &model);
            let choice = &report.choice;
            let new_backend =
                if choice.brute_force { None } else { Some(monitor.monitored_backends()[choice.backend_index]) };
            if monitor.committed() == (new_backend, choice.cascade) {
                // The planner re-affirmed the committed plan; the cooldown
                // was re-anchored and contradictions stay until new audit
                // evidence changes the window's verdict.
                continue;
            }
            // Catch-up repair over the still-windowed history.
            let targets = match new_backend {
                Some(b) => monitor.catchup_targets(
                    choice.backend_index,
                    &FilterCascade::new(select.query.clone(), choice.cascade),
                    self.backends[b].threshold(),
                ),
                None => monitor.catchup_targets_brute(),
            };
            let user = self.user_ids[select.q];
            let mut fresh = 0u64;
            let mut memo = self.exact.memo();
            for frame in &targets {
                let detections = match self.cache.get(frame, user) {
                    Some(hit) => hit,
                    None => {
                        fresh += 1;
                        let arc = Arc::new(self.detector.detect(frame));
                        self.cache.insert(frame, Arc::clone(&arc), user);
                        arc
                    }
                };
                memo.fill(None);
                let truth = self.exact.matches(&select.exact, &detections, &mut memo);
                if truth {
                    select.matched.push(frame.frame_id);
                }
                monitor.record_catchup(frame.frame_id, truth);
            }
            if fresh > 0 {
                self.global.charge(detector_stage, fresh);
            }
            let statement = &mut self.queries[select.q];
            if !targets.is_empty() {
                statement.ledger.charge_audit(detector_stage, targets.len() as u64);
            }
            // Commit the swap: subsequent batches run the new plan, whose
            // cascade resolves to atoms of the new backend's table.
            let label = choice.label.clone();
            statement.mode_label = format!("adaptive {label}");
            monitor.commit(new_backend, choice.cascade, label, stream_offset, choice.expected_cost);
            select.backend = new_backend;
            select.atoms = new_backend.map_or_else(Box::default, |b| {
                self.atoms[b].compile_select(&select.query, choice.cascade, self.backends[b].threshold())
            });
        }
    }

    /// Detects a prepared batch's missing frames, in batch order, on the
    /// calling thread: the detector work [`SharedStreamPlan::push_batch`]
    /// runs between [`SharedStreamPlan::prepare_batch`] and
    /// [`SharedStreamPlan::complete_batch`], and a fleet poll per camera.
    pub fn detect_pending(&self, pending: &PreparedBatch<'_>) -> Vec<FrameDetections> {
        pending.missing.iter().map(|&i| self.detector.detect(&pending.frames[i])).collect()
    }
}
