//! # vmq-query — declarative video monitoring queries
//!
//! The paper's queries select frames of a video stream that satisfy count and
//! spatial predicates over detected objects (Sec. I, IV-B), e.g. *"frames
//! with exactly one car and exactly one person, with the car left of the
//! person"* (query q5). This crate provides:
//!
//! * [`ast`] — the query representation: count predicates (total, per-class,
//!   per-class-and-colour), spatial predicates between object classes
//!   (left/right/above/below) and screen-region predicates, with a builder
//!   API and the named queries q1–q7 of Sec. IV-B.
//! * [`spatial`] — evaluation of spatial relations on exact detections and on
//!   filter grids.
//! * [`catalog`] — named screen regions (quadrants, custom rectangles).
//! * [`plan`] — the filter cascade: which approximate filters apply to a
//!   query and with what tolerances, mirroring the filter combinations of
//!   Table III.
//! * [`planner`] — the adaptive cascade planner: profiles every
//!   `(backend × tolerance)` candidate on a calibration prefix and picks the
//!   cheapest combination that keeps 100 % recall, reproducing Table III's
//!   per-query choice automatically.
//! * [`pipeline`] — the one batched executor, [`SharedStreamPlan`]: N
//!   registered statements, one stream pass (`prepare_batch →
//!   detect_pending → complete_batch`) fed from a slice
//!   (`execute_slice`) or batch by batch (`push_batch` / `finish`), with
//!   per-operator [`StageMetrics`] (`source → cascade-filter → detect →
//!   predicate-eval → sink`).
//! * [`exec`] — the single-statement front-ends over a frame slice
//!   (brute-force, filtered, adaptive, aggregate), each a registration on a
//!   plan of one, with every stage charged to the virtual-time cost ledger.
//! * [`metrics`] — accuracy / F1 against ground truth and speedup
//!   vs. brute-force evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
pub mod drift;
pub mod exec;
pub mod metrics;
pub mod parser;
pub mod pipeline;
pub mod plan;
pub mod planner;
pub mod spatial;

pub use ast::{CountTarget, ObjectRef, Predicate, Query};
pub use catalog::RegionCatalog;
pub use drift::{DriftConfig, DriftSetup, ReplanEvent};
pub use exec::{QueryExecutor, QueryRun};
pub use metrics::{QueryAccuracy, SpeedupReport};
pub use parser::{format_statement, format_where_clause, parse_statement, ParseError, ParsedStatement};
pub use pipeline::{
    AggregateSpec, PipelineConfig, PreparedBatch, SharedStreamPlan, StageMetrics, StagedBatch, WindowBackendColumns,
    WindowCharge, WindowData, WindowEstimator,
};
pub use plan::{CascadeConfig, FilterCascade};
pub use planner::{
    plan_cascade, select_cv_backend, CalibrationReport, CandidateProfile, CvBackendChoice, CvCandidate, PlanChoice,
};
pub use spatial::SpatialRelation;
