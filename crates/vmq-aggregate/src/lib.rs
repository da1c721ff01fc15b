//! # vmq-aggregate — monitoring aggregates with control variates (Section III)
//!
//! Aggregate monitoring queries estimate, over a window of the stream, how
//! often a frame-level predicate holds (e.g. *"how many frames in the last
//! 5 000 have a car left of a stop sign"*). The straightforward estimator
//! samples frames and evaluates each with the expensive detector; the paper
//! shows that using the cheap filters as **control variates** (single or
//! multiple) substantially reduces the variance of the estimate at almost no
//! extra cost, because the filter output is highly correlated with the
//! detector output.
//!
//! * [`estimate`] — sample means, variances and confidence intervals.
//! * [`linalg`] — the small dense solver needed for multiple control variates.
//! * [`sampler`] — deterministic frame sampling.
//! * [`cv`] — the single-control-variate estimator with the optimal `β*`.
//! * [`mcv`] — multiple control variates (`β* = Σ_ZZ⁻¹ Σ_YZ`, variance
//!   `(1 − R²)·Var(Ȳ)`).
//! * [`window`] — hopping windows (the `WINDOW HOPPING` clause).
//! * [`queries`] — the per-window [`AggregateReport`] (one Table IV row).
//! * [`streaming`] — the per-window estimator that plugs into the executor's
//!   aggregate statements (one [`AggregateReport`] per completed hopping
//!   window, with per-window adaptive control-variate backend selection); a
//!   one-shot estimate is one window spanning the stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cv;
pub mod estimate;
pub mod linalg;
pub mod mcv;
pub mod queries;
pub mod sampler;
pub mod streaming;
pub mod window;

pub use cv::CvEstimate;
pub use estimate::SampleStats;
pub use linalg::Matrix;
pub use mcv::McvEstimate;
pub use queries::AggregateReport;
pub use sampler::FrameSampler;
pub use streaming::WindowedAggregator;
pub use window::HoppingWindow;
