//! Density-tuned dataset profiles for the aggregate queries a1–a5.

use vmq::video::DatasetProfile;

/// The dataset profile aggregate query `query` (`"a1"` … `"a5"`) runs on,
/// tuned so it has a non-degenerate true fraction on a 400-frame split. At
/// the stock densities several queries (a2, a3, a5) are false on every
/// frame, which leaves the control-variate indicator columns constant and
/// the variance-reduction comparison inert.
pub fn aggregate_profile(query: &str) -> DatasetProfile {
    match query {
        // a1: car in the lower-right quadrant — the stock Jackson profile
        // already puts the true fraction near 0.25.
        "a1" => DatasetProfile::jackson(),
        // a2: car left of a person — Jackson's 1.2 objects/frame and 20 %
        // person share make co-occurrence (and hence the spatial predicate)
        // too rare to estimate; densify and balance the mix.
        "a2" => {
            let mut p = DatasetProfile::jackson();
            p.mean_objects = 3.5;
            p.std_objects = 1.2;
            p.classes[0].fraction = 0.55;
            p.classes[1].fraction = 0.45;
            p
        }
        // a3 / a4: DeTRAC at the paper's 15.8 objects/frame never has
        // "exactly three objects"; sparsify (the Table III golden does the
        // same) and raise the bus share so a3's bus predicate can hold.
        "a3" | "a4" => {
            let mut p = DatasetProfile::detrac();
            p.mean_objects = 3.0;
            p.std_objects = 1.2;
            p.classes[0].fraction = 0.58;
            p.classes[1].fraction = 0.38;
            p.classes[2].fraction = 0.04;
            // Mix the count process fast enough that every 200-frame window
            // contains exactly-three-object frames (DeTRAC's slow reversion
            // would otherwise leave whole windows without a true a3 frame).
            p.count_reversion = 0.5;
            p
        }
        // a5: exactly three people, two in the lower-left — Coral's mean of
        // 8.7 people/frame makes count-three frames vanishingly rare.
        "a5" => {
            let mut p = DatasetProfile::coral();
            p.mean_objects = 3.0;
            p.std_objects = 1.2;
            p.count_reversion = 0.5;
            p
        }
        other => panic!("unknown aggregate query {other}"),
    }
}
