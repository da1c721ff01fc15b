//! # vmq — Video Monitoring Queries
//!
//! Facade crate for the workspace reproducing *Video Monitoring Queries*
//! (Koudas, Li, Xarchakos — ICDE 2020). It re-exports the individual crates
//! under short module names so examples and downstream users can depend on a
//! single crate:
//!
//! * [`nn`] — the CPU neural-network substrate.
//! * [`video`] — synthetic video streams and dataset profiles.
//! * [`detect`] — the oracle detector and the virtual-time cost model.
//! * [`filters`] — the paper's IC and OD approximate filters.
//! * [`query`] — declarative queries, spatial predicates and the executor.
//! * [`aggregate`] — monitoring aggregates with (multiple) control variates.
//! * [`engine`] — the high-level [`engine::VmqEngine`] API.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use vmq_aggregate as aggregate;
pub use vmq_core as engine;
pub use vmq_detect as detect;
pub use vmq_exec as exec;
pub use vmq_filters as filters;
pub use vmq_nn as nn;
pub use vmq_query as query;
pub use vmq_video as video;
