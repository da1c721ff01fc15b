//! Seeded input generators: streams, statement sets and the seeds handed to
//! filters and samplers. Everything a workload feeds the library crates is
//! made here from `--seed`; the crates receive only frames and statements.

use vmq_query::{parse_statement, ParsedStatement};
use vmq_video::{DatasetProfile, Frame, Scene, SceneConfig};

/// SplitMix64 finaliser: turns sequential integers into well-separated seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent seed for purpose `tag` under run seed `seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix64(mix64(seed) ^ tag)
}

/// Seed tags, one per generator, so no two generators share a stream.
pub mod tag {
    pub const STREAM: u64 = 1;
    pub const FILTER_NOISE: u64 = 2;
    pub const PLANNER_NOISE: u64 = 3;
    pub const SAMPLER: u64 = 4;
    pub const STATEMENTS: u64 = 5;
    pub const PROBE: u64 = 6;
    pub const FLEET_SCENES: u64 = 7;
    pub const BURST: u64 = 8;
}

/// A tiny deterministic generator for shuffles and draws.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The first `k` entries of a Fisher–Yates shuffle of `0..n`.
    pub fn draw_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k.min(n));
        idx
    }
}

/// The dense Jackson variant `vmq_bench::aggregate_profile_for("a2")` uses:
/// at the stock 1.2 objects per frame a car and a person rarely share a
/// frame, so q3/q5-shaped predicates are vacuous or pass everything.
pub fn dense_jackson() -> DatasetProfile {
    let mut p = DatasetProfile::jackson();
    p.mean_objects = 3.5;
    p.std_objects = 1.2;
    p.classes[0].fraction = 0.55;
    p.classes[1].fraction = 0.45;
    p
}

/// A stream of `n` frames in which every frame is the first frame of its
/// own independently seeded scene.
///
/// A continuous scene mixes slowly: over 1 500 frames its a1 true fraction
/// swings between 0.19 and 0.42 from seed to seed (effective sample size
/// around 50), which would put a ±24 % seed-to-seed spread on
/// `virtual_ms_per_frame`. Independent snapshots give `n` independent draws
/// of the same stationary scene process, so pass rates repeat to a few
/// percent across seeds. Nothing downstream depends on temporal coherence:
/// filters, cascade checks, the detection cache and the samplers are all
/// per-frame.
pub fn snapshot_stream(profile: &DatasetProfile, seed: u64, n: usize) -> Vec<Frame> {
    let config = SceneConfig::from_profile(profile);
    (0..n)
        .map(|i| {
            let mut frame = Scene::new(config.clone(), derive(seed, i as u64)).step();
            frame.frame_id = i as u64;
            frame.timestamp = i as f64 / config.fps as f64;
            frame
        })
        .collect()
}

const CAR_ATOMS: [&str; 2] = ["COUNT(car) = 1", "COUNT(car) <= 1"];
const PERSON_ATOMS: [&str; 4] =
    ["COUNT(person) >= 1", "COUNT(person) >= 2", "COUNT(person) <= 2", "COUNT(person) <= 3"];
const RELATIONS: [&str; 4] = ["RIGHT", "LEFT", "ABOVE", "BELOW"];
const QUADRANTS: [&str; 4] = ["upper-left", "upper-right", "lower-left", "lower-right"];

/// The select family: q3/q5-shaped predicates over car and person on the
/// dense Jackson profile — a car-count atom, a person-count atom and
/// optionally one spatial atom (an `ORDER` relation or an `IN` quadrant).
///
/// Every member keeps the car count at most one, so at count tolerance 1 no
/// member escalates a frame with three or more (estimated) cars and the
/// union of passes stays near 0.69; measured over twelve seeds at tolerance
/// (1, 1) each member passes 0.25–0.70 of 3 000 frames with at least 100
/// true frames and recall ≥ 0.99. The operating-point guards in `check.rs`
/// assert this on every run.
pub fn select_family() -> Vec<String> {
    let mut family = Vec::new();
    for car in CAR_ATOMS {
        for person in PERSON_ATOMS {
            let base = format!("{car} AND {person}");
            family.push(base.clone());
            for relation in RELATIONS {
                family.push(format!("{base} AND ORDER(car, person) = {relation}"));
            }
            for quadrant in QUADRANTS {
                family.push(format!("{base} AND IN(car, {quadrant}) >= 1"));
                family.push(format!("{base} AND IN(person, {quadrant}) >= 1"));
            }
        }
    }
    family
}

/// The aggregate predicates of the light standing monitors: a1 and a2 from
/// the paper plus their quadrant and relation siblings.
pub fn aggregate_family() -> Vec<String> {
    let mut family = vec![
        "IN(car, lower-right) >= 1".to_string(),  // a1
        "ORDER(car, person) = RIGHT".to_string(), // a2: car left of person
        "ORDER(car, person) = LEFT".to_string(),
    ];
    for quadrant in ["upper-left", "upper-right", "lower-left"] {
        family.push(format!("IN(car, {quadrant}) >= 1"));
    }
    for quadrant in QUADRANTS {
        family.push(format!("IN(person, {quadrant}) >= 1"));
    }
    family
}

/// SQL text of a statement with the given WHERE clause and optional
/// tumbling window.
pub fn statement_sql(where_clause: &str, window: Option<usize>) -> String {
    let mut sql = format!("SELECT cameraID, frameID FROM stream WHERE {where_clause}");
    if let Some(size) = window {
        sql.push_str(&format!(" WINDOW HOPPING (SIZE {size}, ADVANCE BY {size})"));
    }
    sql
}

/// Parses benchmark-generated SQL; a parse error is a bug in the generator.
pub fn parse(name: &str, sql: &str) -> ParsedStatement {
    parse_statement(name, sql).unwrap_or_else(|e| panic!("generated statement `{sql}` does not parse: {e}"))
}

/// `k` distinct members of the select family, drawn with `seed`.
pub fn draw_selects(seed: u64, k: usize) -> Vec<String> {
    let family = select_family();
    SeedRng::new(seed).draw_distinct(family.len(), k).into_iter().map(|i| family[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_member_parses_and_is_distinct() {
        let family = select_family();
        assert_eq!(family.len(), 104);
        let mut unique = family.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), family.len());
        for (i, clause) in family.iter().chain(&aggregate_family()).enumerate() {
            let parsed = parse(&format!("s{i}"), &statement_sql(clause, None));
            assert!(!parsed.query.predicates.is_empty());
        }
        assert_eq!(aggregate_family().len(), 10);
    }

    #[test]
    fn draws_repeat_with_the_seed_and_differ_across_seeds() {
        assert_eq!(draw_selects(9, 39), draw_selects(9, 39));
        assert_ne!(draw_selects(9, 39), draw_selects(10, 39));
        let mut drawn = draw_selects(9, 39);
        drawn.sort();
        drawn.dedup();
        assert_eq!(drawn.len(), 39);
    }

    #[test]
    fn snapshot_streams_repeat_with_the_seed() {
        let p = dense_jackson();
        let a = snapshot_stream(&p, 3, 40);
        let b = snapshot_stream(&p, 3, 40);
        let c = snapshot_stream(&p, 4, 40);
        let counts = |s: &[Frame]| s.iter().map(|f| f.objects.len()).collect::<Vec<_>>();
        assert_eq!(counts(&a), counts(&b));
        assert_ne!(counts(&a), counts(&c));
        assert!(a.iter().enumerate().all(|(i, f)| f.frame_id == i as u64));
    }
}
