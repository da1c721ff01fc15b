//! Multi-tenant monitoring: many standing queries, one camera stream.
//!
//! The paper's setting is monitoring — q1–q7 and a1–a5 all watch the *same*
//! stream. This example registers a mixed workload (fixed selects, an
//! adaptively planned select and a windowed aggregate) with the shared
//! [`StreamRuntime`](vmq::engine::StreamRuntime) and runs everything in one
//! pass: the cheap filter runs once per frame, the expensive detector once
//! per frame *any* tenant escalates, and the combined bill is split across
//! the tenants in the shared-cost report.
//!
//! ```bash
//! cargo run --release --example multi_tenant_monitoring
//! ```

use vmq::aggregate::HoppingWindow;
use vmq::engine::{CalibrationConfig, EngineConfig, FilterChoice, RuntimeQuery, VmqEngine};
use vmq::filters::CalibrationProfile;
use vmq::query::{CascadeConfig, Query};
use vmq::video::DatasetProfile;

fn main() {
    // One camera: the Jackson intersection, 400 monitored frames.
    let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 400));
    let choice = FilterChoice::Calibrated(CalibrationProfile::od_like());

    // Four tenants share the stream: two fixed selects, one select that
    // plans its own cascade on a calibration prefix, and one hopping-window
    // aggregate estimating the fraction of frames with a car.
    let statements = vec![
        RuntimeQuery::Select { query: Query::paper_q3(), choice, cascade: CascadeConfig::tolerant() },
        RuntimeQuery::Select { query: Query::paper_q4(), choice, cascade: CascadeConfig::tolerant() },
        RuntimeQuery::SelectAdaptive {
            query: Query::paper_q5(),
            calibration: CalibrationConfig::calibrated(vec![CalibrationProfile::od_like()]).with_prefix(40),
            drift: None,
        },
        RuntimeQuery::Aggregate {
            query: Query::paper_a1(),
            choice,
            window: HoppingWindow::new(100, 50),
            sample_size: 20,
            trials: 15,
        },
    ];

    // One shared pass, filter and detect stages sharded across 4 workers.
    let mut runtime = engine.runtime().with_workers(4);
    for statement in statements {
        runtime.register(statement);
    }
    let outcome = runtime.run();

    println!("=== per-tenant outcomes (bit-identical to isolated runs) ===");
    for statement_outcome in &outcome.outcomes {
        let run = statement_outcome.run();
        if let Some(select) = statement_outcome.as_select() {
            println!("{}", select.summary());
        } else if let Some(adaptive) = statement_outcome.as_adaptive() {
            println!("{}", adaptive.summary());
        } else if let Some(aggregate) = statement_outcome.as_aggregate() {
            println!("{} [{}]: {} windows", run.query, run.mode, aggregate.reports.len());
            for report in &aggregate.reports {
                println!("  {}", report.table_row());
            }
        }
    }

    println!("\n=== shared-pass accounting ===");
    println!(
        "detector invocations: {} (one per distinct frame; {} lookups served from the shared cache)",
        outcome.detector_invocations, outcome.cache_hits
    );
    println!("{}", outcome.shared.summary());
    println!(
        "\nsharing the stream pass saved {:.1} virtual seconds ({:.2}x) over running the {} tenants in isolation",
        outcome.shared.saved_ms() / 1000.0,
        outcome.shared.speedup(),
        outcome.outcomes.len()
    );
}
