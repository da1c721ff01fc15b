//! Golden trained-weights harness: pins what filter training produces, bit
//! for bit.
//!
//! For IC, OD and OD-COF on each of the three dataset profiles, under
//! `FilterConfig::fast_test` and under the end-to-end benchmark's
//! `nn_select` configuration (`FilterConfig::experiment`, seed 6, 240
//! training frames, 3 epochs), the snapshot records the filter's
//! `param_digest` (FNV-1a over the bit pattern of every parameter in layer
//! order) and every epoch's `mean_loss` by bit pattern.
//!
//! Training runs a fixed scalar accumulation order whatever kernel backend
//! inference dispatches to, so the snapshot must hold unchanged with and
//! without `VMQ_FORCE_SCALAR=1` — CI runs both — and across any change to
//! the training kernels that claims to keep that order
//! (`tests/golden/trained_weights.txt` was generated from the allocating
//! im2col kernels the direct ones replaced).
//!
//! The `fast_test` rows are checked in the quick suite. The `nn_select` rows
//! take minutes in a debug build, so the whole-file check is `#[ignore]`d
//! there and runs in CI's release steps (default dispatch and forced
//! scalar), like the Table IV golden.
//!
//! Regenerate with `VMQ_UPDATE_GOLDEN=1 cargo test --release --test
//! trained_weights -- --ignored` after an intentional change to training
//! arithmetic.

use std::fmt::Write as _;
use vmq::detect::OracleDetector;
use vmq::filters::label::label_frames;
use vmq::filters::{CofFilter, FilterConfig, IcFilter, OdFilter};
use vmq::nn::train::EpochStats;
use vmq::video::{Dataset, DatasetProfile, ObjectClass};

/// Committed snapshot location (relative to the workspace root).
const GOLDEN_PATH: &str = "tests/golden/trained_weights.txt";

/// `(name, training seed, training frames, configuration)` of the two pinned
/// set-ups; the second mirrors `benchmark/src/pass.rs::nn_select`.
fn setups(classes: Vec<ObjectClass>) -> [(&'static str, u64, usize, FilterConfig); 2] {
    let mut nn_select = FilterConfig::experiment(classes.clone()).with_seed(6);
    nn_select.schedule.epochs = 3;
    nn_select.schedule.count_only_epochs = 1;
    [("fast_test", 41, 48, FilterConfig::fast_test(classes)), ("nn_select", 6, 240, nn_select)]
}

fn render_filter(out: &mut String, case: &str, digest: u64, history: &[EpochStats]) {
    let losses: Vec<String> = history.iter().map(|e| format!("{:08x}", e.mean_loss.to_bits())).collect();
    writeln!(out, "{case}: params={digest:016x} mean_loss=[{}]", losses.join(" ")).unwrap();
}

const HEADER: &str =
    "# Golden trained weights — parameter digest and per-epoch mean loss (bit patterns) of every learned filter.\n\
     # Regenerate with: VMQ_UPDATE_GOLDEN=1 cargo test --release --test trained_weights -- --ignored\n";

/// The snapshot's rows, for every set-up or only the named one.
fn rendered(only: Option<&str>) -> String {
    let mut out = String::new();
    for profile in [DatasetProfile::jackson(), DatasetProfile::coral(), DatasetProfile::detrac()] {
        for (name, seed, frames, config) in setups(profile.class_list()) {
            if only.is_some_and(|o| o != name) {
                continue;
            }
            let dataset = Dataset::generate(&profile, frames, 0, seed);
            let labels = label_frames(dataset.train(), &OracleDetector::perfect(), &config.classes, config.grid);
            let case = format!("{:?} {name}", profile.kind);

            let mut ic = IcFilter::new(config.clone());
            let history = ic.train(dataset.train(), &labels);
            render_filter(&mut out, &format!("{case} ic"), ic.param_digest(), &history);

            let mut od = OdFilter::new(config.clone());
            let history = od.train(dataset.train(), &labels);
            render_filter(&mut out, &format!("{case} od"), od.param_digest(), &history);

            let mut cof = CofFilter::new(config.clone());
            let history = cof.train(dataset.train(), &labels);
            render_filter(&mut out, &format!("{case} cof"), cof.param_digest(), &history);
        }
    }
    out
}

fn golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH} (regenerate it as the module docs say): {e}"))
}

#[test]
fn fast_test_weights_match_golden_snapshot_bit_for_bit() {
    if std::env::var("VMQ_UPDATE_GOLDEN").is_ok() {
        return; // the whole-file test below rewrites the snapshot
    }
    let golden: String = golden().lines().filter(|l| l.contains(" fast_test ")).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        rendered(Some("fast_test")),
        golden,
        "trained weights drifted from the golden snapshot; if intentional, regenerate it as the module docs say"
    );
}

#[test]
#[ignore = "trains nine experiment-size filters: minutes in a debug build; CI runs it in release, both dispatch modes"]
fn trained_weights_match_golden_snapshot_bit_for_bit() {
    let text = format!("{HEADER}{}", rendered(None));
    if std::env::var("VMQ_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden snapshot");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    assert_eq!(
        text,
        golden(),
        "trained weights drifted from the golden snapshot; if intentional, regenerate it as the module docs say"
    );
}
