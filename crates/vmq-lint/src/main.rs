//! The `vmq-lint` binary: run the workspace invariant pass standalone.
//!
//! ```text
//! cargo run -p vmq-lint            # human report, exit 1 on any finding
//! cargo run -p vmq-lint -- --json  # machine report on stdout
//! cargo run -p vmq-lint -- --json <workspace-root>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: vmq-lint [--json] [workspace-root]");
                return ExitCode::SUCCESS;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let report = match vmq_lint::run_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("vmq-lint: failed to scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("vmq-lint: {note}");
    }
    if json {
        print!("{}", vmq_lint::report::render_json(&report.findings, report.files_scanned));
    } else {
        print!("{}", vmq_lint::report::render_human(&report.findings, report.files_scanned));
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Locates the workspace root: under `cargo run` the crate's manifest dir
/// is two levels below it; otherwise walk up from the current directory to
/// the first `Cargo.toml` declaring a `[workspace]`.
fn workspace_root() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let crate_dir = PathBuf::from(manifest);
        if let Some(root) = crate_dir.ancestors().nth(2) {
            if root.join("Cargo.toml").is_file() {
                return root.to_path_buf();
            }
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
