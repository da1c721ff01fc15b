//! `compare <A> <B>`: two recorded result sets, median and quartiles per
//! workload and end-to-end metric, and a verdict per pair using the bounds
//! in `BENCHMARK.json`.
//!
//! * `worse` — B's median is worse than A's by more than the bound.
//! * `unresolved` — the quartile spread of either set is wider than the
//!   bound, so a change of the bound's size could hide in it (unless every
//!   run of B reads better than every run of A, which is `same`).
//! * `same` — otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::Better;

/// Invocations per workload a result set needs for quartiles to mean
/// anything.
const MIN_RUNS: usize = 3;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads match the ones the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("results are finite"));
    let len = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64; // after the clamp, as CPython does
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The distance between the first and third quartile as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

pub struct Bound {
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics `BENCHMARK.json` declares, with their bounds.
pub fn declared_bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let metrics = doc.get("end_to_end").and_then(Json::as_array).ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric has no name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("metric {name} has no direction")),
            };
            let bound = m.get("bound").and_then(Json::as_f64).ok_or(format!("metric {name} has no bound"))?;
            Ok((name.to_string(), Bound { better, bound }))
        })
        .collect()
}

/// workload → metric → values, from the untraced lines of a recorded set.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn read_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |key: &str| doc.get(key).ok_or(format!("line {}: no `{key}`", n + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.as_str().ok_or(format!("line {}: workload is not a string", n + 1))?;
        let metrics = field("result")?.get("metrics").and_then(Json::as_object);
        for (name, metric) in metrics.ok_or(format!("line {}: no metrics", n + 1))? {
            let value =
                metric.get("value").and_then(Json::as_f64).ok_or(format!("line {}: {name} has no value", n + 1))?;
            set.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (median_a, median_b) = (quartiles(a)[1], quartiles(b)[1]);
    // Positive when B is worse, as a share of A's median.
    let worsening = match bound.better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let b_always_better = match bound.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if worsening > bound.bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound.bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; returns how many pairs are not `same`.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &BTreeMap<String, Bound>) -> Result<usize, String> {
    let mut flagged = 0;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>12} {:>7}   {:>12} {:>12} {:>12} {:>7}  {:>6}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "bound"
    );
    for (workload, metrics_a) in a {
        let metrics_b = b.get(workload).ok_or(format!("set B has no runs of {workload}"))?;
        for (name, bound) in bounds {
            let runs = |set: &BTreeMap<String, Vec<f64>>, which: &str| {
                let values = set.get(name).ok_or(format!("set {which} has no {name} for {workload}"))?;
                if values.len() < MIN_RUNS {
                    return Err(format!("set {which} has {} runs of {workload}, fewer than {MIN_RUNS}", values.len()));
                }
                Ok(values.clone())
            };
            let (values_a, values_b) = (runs(metrics_a, "A")?, runs(metrics_b, "B")?);
            let (qa, qb) = (quartiles(&values_a), quartiles(&values_b));
            let verdict = verdict(&values_a, &values_b, bound);
            flagged += usize::from(verdict != Verdict::Same);
            println!(
                "{workload:<14} {name:<22} {:>12.5} {:>12.5} {:>12.5} {:>6.2}%   {:>12.5} {:>12.5} {:>12.5} {:>6.2}%  {:>5.1}%  {}",
                qa[0],
                qa[1],
                qa[2],
                100.0 * spread(&values_a),
                qb[0],
                qb[1],
                qb[2],
                100.0 * spread(&values_b),
                100.0 * bound.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0]), [12.5, 30.0, 70.0]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Bound { better: Better::Lower, bound: 0.05 };
        let tight = [100.0, 101.0, 100.5, 99.5];
        assert_eq!(verdict(&tight, &[100.2, 100.9, 100.4, 99.9], &lower), Verdict::Same);
        assert_eq!(verdict(&tight, &[108.0, 109.0, 108.5, 107.5], &lower), Verdict::Worse);
        assert_eq!(verdict(&tight, &[90.0, 110.0, 100.0, 95.0], &lower), Verdict::Unresolved);
        // A wide B that is better on every run is not held against it.
        assert_eq!(verdict(&tight, &[60.0, 90.0, 70.0, 80.0], &lower), Verdict::Same);
        let higher = Bound { better: Better::Higher, bound: 0.05 };
        assert_eq!(verdict(&tight, &[90.0, 91.0, 90.5, 89.5], &higher), Verdict::Worse);
        assert_eq!(verdict(&tight, &[108.0, 109.0, 108.5, 107.5], &higher), Verdict::Same);
    }

    #[test]
    fn recorded_lines_round_trip() {
        let line = |seed: u32, v: f64| {
            format!(
                "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": true, \"attempted\": 1, \
                 \"failed\": 0, \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}"
            )
        };
        let text = [line(1, 1.5), line(2, 2.5), line(3, 3.5)].join("\n");
        let set = read_set(&text).unwrap();
        assert_eq!(set["w"]["m"], vec![1.5, 2.5, 3.5]);
        let traced = line(1, 9.0).replace("\"trace\": 0", "\"trace\": 1");
        assert!(read_set(&traced).unwrap().is_empty());
    }
}
