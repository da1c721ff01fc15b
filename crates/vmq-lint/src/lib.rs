//! `vmq-lint`: in-tree static analysis for the workspace invariants.
//!
//! Every claim this reproduction makes — planner recall 1.0, adaptive
//! cost at most brute force plus calibration, fleet results bit-identical
//! to isolated runs at any worker count — rests on source-level
//! invariants that no compiler flag enforces: position-keyed merges
//! instead of hash-order iteration, seeded RNG everywhere, wall-clock
//! confined to the ledger and drift monitor, parallelism routed through
//! `vmq-exec`, `unsafe` confined to the SIMD kernels and audited with
//! `// SAFETY:` comments.
//! This crate machine-checks them: a dependency-free hand-rolled lexer
//! ([`lexer`]) tokenizes every `.rs` file under `crates/`, `src/`,
//! `tests/` and `benches/`, and a rule engine ([`rules`]) with stable rule IDs runs over
//! the token stream. `tests/lint_workspace.rs` in the workspace root gates
//! the whole tree under plain `cargo test`; the `vmq-lint` binary runs the
//! same pass standalone (`--json` for machines).
//!
//! The vendored dependency shims under `vendor/` are intentionally out of
//! scope: they are API stand-ins for external crates, not result-path code.
#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

use rules::Finding;
use std::path::{Path, PathBuf};

/// The outcome of a workspace pass: findings plus scan statistics.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Runs every rule over the workspace rooted at `root`: all `.rs` files
/// under `crates/`, `src/`, `tests/` and `benches/` (recursively), skipping
/// build output. Paths in findings are workspace-relative and `/`-separated so
/// reports are stable across machines.
pub fn run_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "benches"] {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for file in &files {
        let rel = relative_unix_path(root, file);
        let source = std::fs::read_to_string(file)?;
        findings.extend(rules::lint_source(&rel, &source));
    }
    findings.sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    Ok(WorkspaceReport { findings, files_scanned: files.len() })
}

/// Recursively collects `.rs` files, skipping `target/` build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_unix_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_are_unix_style() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/x/src/lib.rs");
        assert_eq!(relative_unix_path(root, file), "crates/x/src/lib.rs");
    }
}
