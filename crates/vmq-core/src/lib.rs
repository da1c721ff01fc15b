//! # vmq-core — the high-level Video Monitoring Queries engine
//!
//! [`VmqEngine`] ties the workspace together behind one API:
//!
//! 1. register a video source (a dataset profile → simulated stream),
//! 2. train the approximate filters on its training split (labels produced by
//!    the expensive oracle detector, as in the paper),
//! 3. register standing statements (selects behind a fixed or adaptively
//!    planned filter cascade, windowed aggregates with control variates) on
//!    [`VmqEngine::runtime`],
//! 4. and run them all in one shared pass over the stream.
//!
//! One driver runs every statement: `vmq-query`'s [`FleetRuntime`], M
//! cameras (live scenes or recorded frame slices) × N standing statements
//! over one detection cache and cost ledger. [`StreamRuntime`] is a fleet of
//! one camera fed the engine's test split.
//!
//! ```no_run
//! use vmq_core::{EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
//! use vmq_query::{CascadeConfig, Query};
//! use vmq_video::DatasetProfile;
//!
//! let mut engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()));
//! engine.train_filters();
//! let mut runtime = engine.runtime();
//! runtime.register(RuntimeQuery::Select {
//!     query: Query::paper_q3(),
//!     choice: FilterChoice::Od,
//!     cascade: CascadeConfig::strict(),
//! });
//! let outcome = runtime.run();
//! println!("{}", outcome.outcomes[0].as_select().expect("a select").summary());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod report;
pub mod runtime;

pub use config::{CalibrationConfig, EngineConfig, FilterChoice};
pub use engine::{AdaptiveOutcome, QueryOutcome, VmqEngine, WindowedAggregateOutcome};
pub use report::Report;
pub use runtime::{MultiQueryOutcome, RuntimeQuery, StatementOutcome, StreamRuntime};
pub use vmq_query::{DriftConfig, ReplanEvent};
/// The fleet lives in `vmq-query`; re-exported here for `benchmark/`.
pub use vmq_query::{FleetConfig, FleetOutcome, FleetRuntime, FleetStatementOutcome};
