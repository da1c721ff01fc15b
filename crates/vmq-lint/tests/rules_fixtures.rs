//! Fixture tests: one firing and one clean snippet per rule, plus the
//! suppression meta-rules. Snippets live in raw strings so the workspace
//! scan (which lints this file too) sees them as literals, not code.

use vmq_lint::rules::{self, lint_source};

/// Rule IDs of every finding, in report order.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).into_iter().map(|f| f.rule).collect()
}

const NEUTRAL: &str = "crates/vmq-core/src/fake.rs";

// --- unsafe-needs-safety-comment -----------------------------------------

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    unsafe { *p }
}
"#;
    let findings = lint_source("crates/vmq-exec/src/fake.rs", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, rules::UNSAFE_NEEDS_SAFETY_COMMENT);
    assert_eq!(findings[0].line, 3);
}

#[test]
fn unsafe_with_adjacent_safety_comment_is_clean() {
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
"#;
    assert!(fired("crates/vmq-exec/src/fake.rs", src).is_empty());
}

#[test]
fn safety_comment_may_sit_above_attributes() {
    let src = r#"
// SAFETY: caller guarantees AVX2.
#[target_feature(enable = "avx2")]
#[allow(clippy::missing_safety_doc)]
pub unsafe fn f() {}
"#;
    assert!(fired("crates/vmq-exec/src/fake.rs", src).is_empty());
}

#[test]
fn trailing_safety_comment_counts() {
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    unsafe { *p } // SAFETY: caller guarantees p is valid for reads.
}
"#;
    assert!(fired("crates/vmq-exec/src/fake.rs", src).is_empty());
}

#[test]
fn detached_safety_comment_does_not_count() {
    // A blank line breaks adjacency: the comment no longer vouches for
    // the unsafe block below it.
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid for reads.

    unsafe { *p }
}
"#;
    assert_eq!(fired("crates/vmq-exec/src/fake.rs", src), vec![rules::UNSAFE_NEEDS_SAFETY_COMMENT]);
}

// --- unsafe-module-allowlist ----------------------------------------------

#[test]
fn unsafe_outside_allowlist_fires_even_with_safety_comment() {
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::UNSAFE_MODULE_ALLOWLIST]);
}

#[test]
fn unsafe_inside_kernel_module_is_allowed() {
    let src = r#"
pub fn f(p: *const f32) -> f32 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}
"#;
    assert!(fired("crates/vmq-nn/src/kernels.rs", src).is_empty());
}

// --- no-raw-thread-spawn --------------------------------------------------

#[test]
fn raw_thread_spawn_fires_outside_executor() {
    let src = r#"
pub fn f() {
    std::thread::spawn(|| {}).join().unwrap();
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_RAW_THREAD_SPAWN]);
}

#[test]
fn raw_thread_scope_fires_outside_executor() {
    let src = r#"
pub fn f() {
    std::thread::scope(|_s| {});
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_RAW_THREAD_SPAWN]);
}

#[test]
fn thread_spawn_inside_executor_is_allowed() {
    let src = r#"
pub fn f() {
    std::thread::spawn(|| {}).join().unwrap();
}
"#;
    assert!(fired("crates/vmq-exec/src/lib.rs", src).is_empty());
}

// --- no-hash-iteration-in-result-paths ------------------------------------

#[test]
fn hash_map_fires() {
    let src = r#"
pub fn f() -> std::collections::HashMap<u32, u32> {
    std::collections::HashMap::new()
}
"#;
    // One finding per occurrence of the type name.
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_HASH_ITERATION, rules::NO_HASH_ITERATION]);
}

#[test]
fn btree_map_is_clean() {
    let src = r#"
pub fn f() -> std::collections::BTreeMap<u32, u32> {
    std::collections::BTreeMap::new()
}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

// --- no-wallclock-in-result-paths ------------------------------------------

#[test]
fn instant_now_fires_outside_allowlist() {
    let src = r#"
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_WALLCLOCK]);
}

#[test]
fn system_time_fires_outside_allowlist() {
    let src = r#"
pub fn f() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
"#;
    // `SystemTime` appears twice (return type and call site).
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_WALLCLOCK, rules::NO_WALLCLOCK]);
}

#[test]
fn instant_now_in_ledger_is_allowed() {
    let src = r#"
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
"#;
    assert!(fired("crates/vmq-detect/src/cost.rs", src).is_empty());
}

#[test]
fn instant_elapsed_alone_is_clean() {
    // Only the clock *read* is flagged; passing an Instant around is fine.
    let src = r#"
pub fn f(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

// --- no-unseeded-rng --------------------------------------------------------

#[test]
fn thread_rng_fires_everywhere_even_in_bench() {
    let src = r#"
pub fn f() -> u64 {
    let mut rng = rand::thread_rng();
    rng.next_u64()
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_UNSEEDED_RNG]);
    // No allowlist for entropy: the micro-benchmarks fire too.
    assert_eq!(fired("benches/micro_kernels.rs", src), vec![rules::NO_UNSEEDED_RNG]);
}

#[test]
fn seeded_rng_is_clean() {
    let src = r#"
pub fn f() -> StdRng {
    StdRng::seed_from_u64(42)
}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

// --- suppressions ------------------------------------------------------------

#[test]
fn justified_allow_suppresses_the_named_rule() {
    let src = r#"
pub fn f() -> std::time::Instant {
    // vmq-lint: allow(no-wallclock-in-result-paths) -- span feeds a stat only.
    std::time::Instant::now()
}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn justification_may_wrap_onto_continuation_lines() {
    let src = r#"
pub fn f() -> std::time::Instant {
    // vmq-lint: allow(no-wallclock-in-result-paths)
    // -- the justification lives on this continuation line.
    std::time::Instant::now()
}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

#[test]
fn allow_does_not_suppress_other_rules() {
    let src = r#"
pub fn f() {
    // vmq-lint: allow(no-wallclock-in-result-paths) -- wrong rule named.
    std::thread::spawn(|| {}).join().unwrap();
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::NO_RAW_THREAD_SPAWN]);
}

#[test]
fn unjustified_allow_is_itself_a_finding() {
    let src = r#"
pub fn f() -> std::time::Instant {
    // vmq-lint: allow(no-wallclock-in-result-paths)
    std::time::Instant::now()
}
"#;
    // Without the `--` justification the suppression is void: the original
    // finding stays AND the bare allow is reported.
    let mut rules_fired = fired(NEUTRAL, src);
    rules_fired.sort();
    assert_eq!(rules_fired, vec![rules::NO_WALLCLOCK, rules::UNJUSTIFIED_ALLOW]);
}

#[test]
fn allow_naming_unknown_rule_is_a_finding() {
    let src = r#"
pub fn f() {
    // vmq-lint: allow(no-such-rule) -- justified but meaningless.
}
"#;
    assert_eq!(fired(NEUTRAL, src), vec![rules::UNJUSTIFIED_ALLOW]);
}

#[test]
fn doc_comments_mentioning_the_syntax_are_not_annotations() {
    let src = r#"
/// Suppress with `vmq-lint: allow(no-wallclock-in-result-paths)`.
pub fn f() {}
"#;
    assert!(fired(NEUTRAL, src).is_empty());
}

// --- loc-ceiling -------------------------------------------------------------

const CEILINGS: &str = r#"{
  "vmq-a": 10,
  "vmq-b": 20
}
"#;

fn counts(entries: &[(&str, usize)]) -> Vec<(String, usize)> {
    entries.iter().map(|&(name, lines)| (name.to_string(), lines)).collect()
}

#[test]
fn code_lines_skip_blanks_comments_and_the_test_module() {
    let src = r#"//! Crate doc.

/// Item doc.
pub fn f() -> u32 {
    // A comment.
    1
}
#[cfg(test)]
mod tests {
    fn g() {}
}
"#;
    assert_eq!(rules::code_lines(src), 3);
}

#[test]
fn code_lines_skip_a_file_that_is_a_test_module() {
    let src = r#"//! Tests of the parent module.
#![cfg(test)]

use super::*;

#[test]
fn g() {}
"#;
    assert_eq!(rules::code_lines(src), 0);
}

#[test]
fn crate_over_its_ceiling_fires_on_its_entry() {
    let (findings, notes) = rules::check_loc(&counts(&[("vmq-a", 10), ("vmq-b", 21)]), CEILINGS);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, rules::LOC_CEILING);
    assert_eq!((findings[0].path.as_str(), findings[0].line), (rules::LOC_FILE, 3));
    assert!(findings[0].message.contains("21") && findings[0].message.contains("20"), "{}", findings[0].message);
    assert!(notes.is_empty(), "{notes:?}");
}

#[test]
fn crate_at_its_ceiling_is_clean() {
    let (findings, notes) = rules::check_loc(&counts(&[("vmq-a", 10), ("vmq-b", 20)]), CEILINGS);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(notes.is_empty(), "{notes:?}");
}

#[test]
fn crate_missing_from_the_file_fires() {
    let (findings, _) = rules::check_loc(&counts(&[("vmq-a", 10), ("vmq-c", 5)]), CEILINGS);
    assert_eq!(fired_rules(&findings), vec![rules::LOC_CEILING]);
    assert!(findings[0].message.contains("\"vmq-c\": 5"), "{}", findings[0].message);
    let (findings, _) = rules::check_loc(&counts(&[("vmq-a", 1)]), "");
    assert_eq!(fired_rules(&findings), vec![rules::LOC_CEILING], "no file, no ceiling");
}

#[test]
fn crate_under_its_ceiling_prints_the_count_to_commit() {
    let (findings, notes) = rules::check_loc(&counts(&[("vmq-a", 7), ("vmq-b", 20)]), CEILINGS);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert!(notes[0].contains("\"vmq-a\": 7"), "{}", notes[0]);
}

fn fired_rules(findings: &[rules::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}
