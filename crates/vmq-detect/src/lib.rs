//! # vmq-detect — detector substrates and the virtual-time cost model
//!
//! In the paper the expensive stage of every query is a full object detector:
//! Mask R-CNN (~200 ms/frame) produces both the ground-truth annotations used
//! for training and the final, authoritative answer for frames that survive
//! the cheap filters. It cannot run here (no GPU, no pretrained weights), so
//! this crate provides a stand-in that preserves exactly what the downstream
//! layers rely on:
//!
//! * [`oracle::OracleDetector`] — returns the simulator's ground truth,
//!   optionally perturbed by a [`noise::NoiseModel`]. In the paper, Mask
//!   R-CNN output *is* treated as ground truth, so this substitution is
//!   faithful by construction. It charges nothing itself: its
//!   [`Detector::stage`] names the price, and the plan or a
//!   [`cache::CachedDetector`] charges a [`cost::CostLedger`] per fresh
//!   detection.
//! * [`cost`] — a virtual clock: every stage charges its per-frame cost so
//!   end-to-end times (Table III, Table IV) can be reproduced deterministically
//!   on any machine, alongside real wall-clock measurements of our own filters.
//!   For shared multi-query execution the ledger additionally tracks per-query
//!   *attribution* — work performed once for several queries is charged once
//!   globally and split in a [`cost::SharedCost`] breakdown.
//! * [`cache`] — the [`cache::DetectionCache`]: `frame_id → Arc` memoisation of
//!   detector output, so N concurrent queries over one stream invoke the
//!   expensive detector at most once per frame.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotation;
pub mod cache;
pub mod cost;
pub mod noise;
pub mod oracle;

pub use annotation::{Detection, FrameDetections};
pub use cache::{CachedDetector, DetectionCache, DEFAULT_ENTRY_BUDGET};
pub use cost::{CostLedger, CostModel, GroupCost, QueryCostShare, SharedCost, Stage, StageCost};
pub use noise::NoiseModel;
pub use oracle::OracleDetector;

use std::sync::Arc;
use vmq_video::Frame;

/// A frame-level object detector.
///
/// Detectors are `Send + Sync` so the streaming executor can share one across
/// worker threads; internal randomness is behind a lock.
pub trait Detector: Send + Sync {
    /// Detects objects in a frame.
    fn detect(&self, frame: &Frame) -> FrameDetections;

    /// [`Detector::detect`] behind a shared pointer. A detector that already
    /// holds its result shared (the [`CachedDetector`]) hands out that
    /// pointer instead of a deep copy.
    fn detect_shared(&self, frame: &Frame) -> Arc<FrameDetections> {
        Arc::new(self.detect(frame))
    }

    /// The cost-model stage this detector charges per frame.
    fn stage(&self) -> Stage;

    /// Human-readable detector name.
    fn name(&self) -> &'static str;
}
