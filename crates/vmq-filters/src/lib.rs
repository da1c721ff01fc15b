//! # vmq-filters — the paper's approximate filters (Section II)
//!
//! This crate implements the two filter families the paper proposes to avoid
//! running an expensive object detector on every frame:
//!
//! * **IC filters** ([`ic`]) — a branch attached to the first layers of an
//!   image-*classification* style trunk. Global average pooling feeds a
//!   fully-connected count head; the **class activation map** (Eq. 1), which
//!   shares the count head's weights, is thresholded on a `g×g` grid to
//!   localise objects. Trained with the multi-task loss of Eq. 2, including
//!   the count-first `(α, β)` schedule described in Sec. II-A.
//! * **OD filters** ([`od`]) — a branch attached to the first layers of an
//!   object-*detection* style trunk (Fig. 4): extra conv layers, a per-class
//!   sigmoid occupancy grid and a count head, trained with the masked grid
//!   loss of Eq. 3.
//! * **OD-COF** ([`cof`]) — the count-optimised classification branch of
//!   Fig. 5 / Table I, trained purely to predict the total object count.
//!
//! From each network's output the concrete filters of the paper are derived
//! ([`estimate::FilterEstimate`]): `CF` (total count), `CCF` (per-class
//! count) and `CLF` (class location on the grid); [`metrics`] quantifies their
//! accuracy exactly as Sec. IV does (exact/±1/±2 counts, F1 at Manhattan
//! distance 0/1/2).
//!
//! What the query layer's cascade check reads from an estimate — rounded
//! counts and thresholded grids, bit-packed one machine word per row — is
//! [`occupancy::OccupancySummary`], computed once per `(backend, frame)`.
//!
//! A [`backend::CalibratedFilter`] is also provided: it emulates a trained
//! filter with configurable error rates, so the query and aggregate layers
//! can be tested quickly and independently of training time. All experiment
//! fixtures of the paper-claims sheet use the learned filters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod backend;
pub mod cof;
pub mod config;
pub mod estimate;
pub mod grid;
pub mod ic;
pub mod label;
pub mod metrics;
pub mod occupancy;
pub mod od;
pub mod quantized;
pub mod train;

pub use backend::{CalibratedFilter, CalibrationProfile};
pub use cof::{CofConfig, CofFilter};
pub use config::{FilterConfig, TrainSchedule};
pub use estimate::{estimate_shared, FilterEstimate, FilterKind, FilterProfile, FrameFilter};
pub use grid::ClassGrid;
pub use ic::IcFilter;
pub use metrics::{ClfMetrics, CountMetrics};
pub use occupancy::{BitGrid, CountEstimate, OccupancyLayer, OccupancySummary, SummarySpec};
pub use od::OdFilter;
pub use quantized::{QuantizedCofFilter, QuantizedIcFilter, QuantizedOdFilter};
pub use train::TrainedFilters;
