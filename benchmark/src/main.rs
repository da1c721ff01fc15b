//! The repository's end-to-end benchmark. See `benchmark/README.md`.
//!
//! ```text
//! vmq-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--record <file>]
//! vmq-benchmark compare <set A> <set B> [--bounds <BENCHMARK.json>]
//! vmq-benchmark calibrate
//! ```

mod calibrate;
mod check;
mod compare;
mod fleet;
mod inputs;
mod json;
mod layers;
mod metrics;
mod pass;
mod run;
mod trace;

use std::io::Write;
use std::process::ExitCode;

use metrics::{bind, result_json, Value, END_TO_END, PER_LAYER, WORKLOADS};
use vmq_nn::KernelBackend;

const USAGE: &str = "usage: vmq-benchmark --workload <nn_select|standing_many|aggregate_cv|fleet_poll> \
                     --seed <u64> [--seconds <n>] [--trace [0|1]] [--record <file>]\n       \
                     vmq-benchmark compare <set A> <set B> [--bounds <BENCHMARK.json>]\n       \
                     vmq-benchmark calibrate";

struct Cli {
    args: run::Args,
    record: Option<String>,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut args = run::Args { workload: String::new(), seed: 0, seconds: 20.0, trace: false };
    let (mut record, mut seen_seed) = (None, false);
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--record" => record = Some(value("a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    Ok(Cli { args, record })
}

/// Prints what the numbers were measured on; they compare only across runs
/// with the same fingerprint.
fn print_fingerprint(report: &run::Report, args: &run::Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc").arg("--version").output();
    let rustc = rustc.ok().and_then(|o| String::from_utf8(o.stdout).ok()).unwrap_or_else(|| "rustc unknown".into());
    println!(
        "host: nproc={nproc} kernels={} {} | workload={} seed={} trace={} rounds={} frames/round={}",
        KernelBackend::active().name(),
        rustc.trim(),
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.rounds,
        report.frames_per_round
    );
    if KernelBackend::active() == KernelBackend::Scalar && !KernelBackend::forced_scalar() {
        println!(
            "WARNING: kernel dispatch fell back to scalar (no SIMD backend supported on this host) and \
             VMQ_FORCE_SCALAR is not set — wall-clock numbers of this run are NOT comparable with SIMD hosts"
        );
    }
}

fn run_workload(cli: &Cli) -> Result<ExitCode, String> {
    let report = run::run(&cli.args).expect("the workload name was validated");
    print_fingerprint(&report, &cli.args);
    println!("{}", report.summary);
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let failed = report.failures.len() as u64;
    let defs: &'static [metrics::MetricDef] = if cli.args.trace { &PER_LAYER } else { &END_TO_END };
    if report.values.is_empty() {
        return Err("no round completed, nothing to report".into());
    }
    let values: Vec<Value> = bind(defs, &report.values);
    for v in &values {
        let better = if v.def.better == metrics::Better::Higher { "higher" } else { "lower" };
        println!("{:<40} {:>16.6} {:<10} ({better} is better)", v.def.name, v.value, v.def.unit);
    }
    let line = result_json(report.attempted, failed, &values);
    if let Some(path) = &cli.record {
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
            cli.args.workload,
            cli.args.seed,
            u8::from(cli.args.trace)
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{line}");
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_compare(argv: &[String]) -> Result<ExitCode, String> {
    let (mut paths, mut bounds_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().cloned().ok_or("--bounds needs a path")?;
        } else {
            paths.push(arg);
        }
    }
    let [a, b] = paths[..] else { return Err(USAGE.into()) };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::declared_bounds(&read(&bounds_path)?)?;
    let flagged = compare::compare(&compare::read_set(&read(a)?)?, &compare::read_set(&read(b)?)?, &bounds)?;
    println!("{flagged} pair(s) worse or unresolved");
    Ok(if flagged == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Prints the distribution of the calibration kernel on this host: what
/// `calibrate::NOMINAL_MS` was read from, and how disturbed the host is now.
fn run_calibrate() -> Result<ExitCode, String> {
    let mut kernel = calibrate::Kernel::new();
    let runs: Vec<f64> = (0..2_500).map(|_| kernel.run_ms()).collect();
    let at = |q: f64| metrics::quantile(&runs, q);
    println!(
        "calibration kernel, {} runs, ms: min {:.3} p1 {:.3} p10 {:.3} p50 {:.3} p90 {:.3} (nominal {:.3})",
        runs.len(),
        at(0.0),
        at(0.01),
        at(0.1),
        at(0.5),
        at(0.9),
        calibrate::NOMINAL_MS
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => run_compare(&argv[1..]),
        Some("calibrate") => run_calibrate(),
        _ => parse_cli(&argv).and_then(|cli| run_workload(&cli)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&argv("--workload fleet_poll --seed 7 --seconds 22 --trace 1")).unwrap();
        assert_eq!(
            (cli.args.workload.as_str(), cli.args.seed, cli.args.seconds, cli.args.trace),
            ("fleet_poll", 7, 22.0, true)
        );
        assert!(!parse_cli(&argv("--workload nn_select --seed 7 --trace 0")).unwrap().args.trace);
        assert!(parse_cli(&argv("--workload nn_select --seed 7 --trace")).unwrap().args.trace);
        assert!(parse_cli(&argv("--workload nope --seed 7")).is_err());
        assert!(parse_cli(&argv("--workload nn_select")).is_err());
        assert!(parse_cli(&argv("--workload nn_select --seed 7 --seconds 0")).is_err());
    }

    /// The names the binary emits are the names `BENCHMARK.json` declares:
    /// workloads, end-to-end metrics with unit and direction, per-layer
    /// metrics with unit and direction.
    #[test]
    fn declared_names_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(json::Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let emitted = |defs: &[metrics::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == metrics::Better::Higher { "higher" } else { "lower" };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), emitted(&END_TO_END));
        assert_eq!(names("per_layer"), emitted(&PER_LAYER));
        let workloads: BTreeSet<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect());
        let command = doc.get("command").and_then(json::Json::as_array).unwrap();
        assert!(command.iter().any(|c| c.as_str() == Some("benchmark/Cargo.toml")));
    }

    /// Every workload emits exactly the declared metrics, untraced and
    /// traced (`bind` panics otherwise), nothing fails at a reduced round
    /// count, and two same-seed runs agree on every count-derived metric.
    #[test]
    fn workloads_emit_the_declared_metrics_and_repeat_their_counts() {
        const COUNT_DERIVED: [&str; 5] = [
            "virtual_ms_per_frame",
            "select_recall_min",
            "cv_reduction_min",
            "cv_reduction_median",
            "detect.detector_frames",
        ];
        for workload in WORKLOADS {
            let mut counts: Vec<Vec<(String, u64)>> = Vec::new();
            for _ in 0..2 {
                let mut seen = Vec::new();
                for trace in [false, true] {
                    let args = run::Args { workload: workload.to_string(), seed: 2026, seconds: 0.5, trace };
                    let report = run::run(&args).unwrap();
                    assert!(report.failures.is_empty(), "{workload}: {:?}", report.failures);
                    assert!(report.attempted > report.rounds as u64 && report.rounds >= 2);
                    let table: &'static [metrics::MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
                    for value in bind(table, &report.values) {
                        if COUNT_DERIVED.contains(&value.def.name) {
                            seen.push((value.def.name.to_string(), value.value.to_bits()));
                        }
                    }
                }
                assert_eq!(seen.len(), COUNT_DERIVED.len());
                counts.push(seen);
            }
            assert_eq!(counts[0], counts[1], "{workload}: same seed, different counts");
        }
    }
}
