//! The rule engine: token-pattern checks for the workspace invariants.
//!
//! Each rule has a stable ID (used in reports and in `vmq-lint: allow(...)`
//! suppressions), a path allowlist where the flagged construct is
//! legitimate by design, and a message that points at the sanctioned
//! alternative. The catalog below is documentation-bearing: DESIGN.md's
//! "Invariants & lint catalog" section mirrors it rule for rule.
//!
//! ## Suppressions
//!
//! A finding is suppressed by an explicit, auditable annotation on the
//! offending line (trailing) or on the line(s) directly above it:
//!
//! ```text
//! // vmq-lint: allow(no-wallclock-in-result-paths) -- wall span feeds the
//! // ledger only; results never branch on it
//! let start = Instant::now();
//! ```
//!
//! The justification after `--` is mandatory and the rule list must name
//! known rules — a bare or unknown `allow` is itself a finding
//! ([`UNJUSTIFIED_ALLOW`]), so suppressions cannot rot silently.

use crate::lexer::{lex, LexedFile, LineClass, Token, TokenKind};

/// Rule: `unsafe` blocks/fns need an adjacent `// SAFETY:` comment.
pub const UNSAFE_NEEDS_SAFETY_COMMENT: &str = "unsafe-needs-safety-comment";
/// Rule: `unsafe` only in the SIMD kernel modules and the executor.
pub const UNSAFE_MODULE_ALLOWLIST: &str = "unsafe-module-allowlist";
/// Rule: raw `thread::spawn`/`scope`/`Builder` only inside `vmq-exec`.
pub const NO_RAW_THREAD_SPAWN: &str = "no-raw-thread-spawn";
/// Rule: no std hash containers outside order-insensitive modules.
pub const NO_HASH_ITERATION: &str = "no-hash-iteration-in-result-paths";
/// Rule: no wall-clock reads outside the ledger and drift-monitor modules.
pub const NO_WALLCLOCK: &str = "no-wallclock-in-result-paths";
/// Rule: no entropy-seeded RNG anywhere.
pub const NO_UNSEEDED_RNG: &str = "no-unseeded-rng";
/// Meta-rule: every `vmq-lint: allow(...)` must name known rules and carry
/// a `--` justification.
pub const UNJUSTIFIED_ALLOW: &str = "unjustified-allow";

/// Every rule ID, for `allow(...)` validation and the report catalog.
pub const ALL_RULES: [&str; 7] = [
    UNSAFE_NEEDS_SAFETY_COMMENT,
    UNSAFE_MODULE_ALLOWLIST,
    NO_RAW_THREAD_SPAWN,
    NO_HASH_ITERATION,
    NO_WALLCLOCK,
    NO_UNSEEDED_RNG,
    UNJUSTIFIED_ALLOW,
];

/// Files (path prefixes, `/`-separated, relative to the workspace root)
/// where `unsafe` is permitted at all: the SIMD kernel layer of `vmq-nn`
/// and the lifetime-erasing executor. Everything else stays
/// `forbid(unsafe_code)`.
const UNSAFE_ALLOWED: [&str; 4] =
    ["crates/vmq-nn/src/kernels.rs", "crates/vmq-nn/src/quant.rs", "crates/vmq-nn/src/ops.rs", "crates/vmq-exec/"];

/// Where raw thread primitives are permitted: only the executor (which owns
/// the persistent pool *and* the `VMQ_NO_POOL` spawn-per-task reference
/// path). All other parallelism must go through `vmq_exec::scope`.
const THREADS_ALLOWED: [&str; 1] = ["crates/vmq-exec/"];

/// Modules allowlisted as order-insensitive for hash-container use. Empty
/// by design today: every in-tree site either converted to `BTreeMap`/
/// `BTreeSet` or carries a justified inline allow, so a refactor that
/// introduces hash-order iteration fails the gate loudly.
const HASH_ALLOWED: [&str; 0] = [];

/// Where wall-clock reads are legitimate: the cost ledger (which *defines*
/// wall accounting) and the drift monitor's timing.
const WALLCLOCK_ALLOWED: [&str; 2] = ["crates/vmq-detect/src/cost.rs", "crates/vmq-query/src/drift.rs"];

/// One finding: a rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID.
    pub rule: &'static str,
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Human explanation with the sanctioned alternative.
    pub message: String,
}

/// A parsed `vmq-lint: allow(rules) -- justification` annotation.
struct Allow {
    rules: Vec<String>,
    justified: bool,
    unknown: Vec<String>,
    line_start: usize,
    line_end: usize,
}

/// Lints one source file given its workspace-relative path. The path
/// decides which allowlists apply; the source is lexed fresh.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let allows = parse_allows(&lexed);
    let mut findings = Vec::new();

    check_unsafe(path, &lexed, &mut findings);
    check_threads(path, &lexed, &mut findings);
    check_hash(path, &lexed, &mut findings);
    check_wallclock(path, &lexed, &mut findings);
    check_rng(path, &lexed, &mut findings);

    // Apply suppressions, then report the malformed allows themselves.
    findings.retain(|f| {
        !allows.iter().any(|a| {
            a.justified && a.rules.iter().any(|r| r == f.rule) && (f.line >= a.line_start && f.line <= a.line_end + 1)
        })
    });
    for a in &allows {
        if !a.justified {
            findings.push(Finding {
                rule: UNJUSTIFIED_ALLOW,
                path: path.to_string(),
                line: a.line_start,
                message: "`vmq-lint: allow(...)` must carry a `-- <justification>`; suppressions are auditable \
                          or they are findings"
                    .to_string(),
            });
        }
        for unknown in &a.unknown {
            findings.push(Finding {
                rule: UNJUSTIFIED_ALLOW,
                path: path.to_string(),
                line: a.line_start,
                message: format!("`vmq-lint: allow({unknown})` names no known rule (known: {})", ALL_RULES.join(", ")),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path == *p || path.starts_with(p))
}

/// Extracts every `vmq-lint: allow(...)` annotation from the comments.
/// Consecutive comment lines are merged into one annotation span so a
/// justification may wrap onto a continuation line. Doc comments (`///`,
/// `//!`) never carry annotations — they are documentation, so prose like
/// this sentence can mention the syntax without being parsed as one.
fn parse_allows(lexed: &LexedFile) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, c) in lexed.comments.iter().enumerate() {
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("vmq-lint:") else { continue };
        let rest = c.text[at + "vmq-lint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            allows.push(Allow {
                rules: Vec::new(),
                justified: false,
                unknown: Vec::new(),
                line_start: c.line_start,
                line_end: c.line_end,
            });
            continue;
        };
        let (rule_list, after) = inner;
        let rules: Vec<String> = rule_list.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
        let unknown: Vec<String> = rules.iter().filter(|r| !ALL_RULES.contains(&r.as_str())).cloned().collect();
        // The annotation's reach extends over directly following comment
        // lines (justification continuations), and the justification may
        // live on any of them.
        let mut line_end = c.line_end;
        let mut tail = after.trim().to_string();
        for next in &lexed.comments[i + 1..] {
            let contiguous = next.line_start == line_end + 1 && !next.text.contains("vmq-lint:");
            let comment_only = lexed.line_class(next.line_start) == LineClass::CommentOnly;
            if contiguous && comment_only {
                line_end = next.line_end;
                tail.push(' ');
                tail.push_str(next.text.trim_start_matches('/').trim());
            } else {
                break;
            }
        }
        let justified = match tail.split_once("--") {
            Some((_, j)) => !j.trim().is_empty(),
            None => false,
        };
        allows.push(Allow { rules, justified, unknown: unknown.clone(), line_start: c.line_start, line_end });
    }
    allows
}

/// Rules 1 + 2: every `unsafe` keyword needs a module allowlist hit *and*
/// an adjacent `// SAFETY:` comment.
fn check_unsafe(path: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    for t in keyword_occurrences(lexed, "unsafe") {
        if !path_in(path, &UNSAFE_ALLOWED) {
            findings.push(Finding {
                rule: UNSAFE_MODULE_ALLOWLIST,
                path: path.to_string(),
                line: t.line,
                message: "`unsafe` is confined to vmq-nn::{kernels,quant,ops} and vmq-exec; everything else \
                          builds with forbid(unsafe_code)"
                    .to_string(),
            });
        }
        if !has_safety_comment(lexed, t.line) {
            findings.push(Finding {
                rule: UNSAFE_NEEDS_SAFETY_COMMENT,
                path: path.to_string(),
                line: t.line,
                message: "`unsafe` must be immediately preceded by a `// SAFETY:` comment stating the audited \
                          claim (bounds, alignment, lifetime)"
                    .to_string(),
            });
        }
    }
}

/// True when the line carrying `unsafe` has a `SAFETY:` comment trailing on
/// it, or a contiguous comment group directly above it (attribute lines in
/// between are skipped, so the comment may sit above `#[target_feature]`).
fn has_safety_comment(lexed: &LexedFile, line: usize) -> bool {
    if lexed.comments_on_line(line).any(|c| c.text.contains("SAFETY:")) {
        return true;
    }
    let mut l = line - 1;
    // Skip attribute-only lines between the construct and its comment.
    while l > 0 && lexed.line_class(l) == LineClass::AttrOnly {
        l -= 1;
    }
    // Walk the contiguous comment group.
    while l > 0 && lexed.line_class(l) == LineClass::CommentOnly {
        if lexed.comments_on_line(l).any(|c| c.text.contains("SAFETY:")) {
            return true;
        }
        l -= 1;
    }
    false
}

/// Rule 3: `thread::spawn` / `thread::scope` / `thread::Builder` outside
/// the executor.
fn check_threads(path: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if path_in(path, &THREADS_ALLOWED) {
        return;
    }
    for w in lexed.tokens.windows(3) {
        let [a, sep, b] = w else { continue };
        if a.kind == TokenKind::Ident
            && a.text == "thread"
            && sep.text == "::"
            && matches!(b.text.as_str(), "spawn" | "scope" | "Builder")
        {
            findings.push(Finding {
                rule: NO_RAW_THREAD_SPAWN,
                path: path.to_string(),
                line: a.line,
                message: format!(
                    "raw `thread::{}` bypasses the vmq-exec pool (and its VMQ_NO_POOL reference path); route \
                     parallelism through `vmq_exec::scope`",
                    b.text
                ),
            });
        }
    }
}

/// Rule 4: std hash containers outside order-insensitive modules. The check
/// is deliberately conservative — it flags the *type*, not just `.iter()`
/// calls, because any hash container one refactor away from an iteration
/// can silently break position-keyed determinism.
fn check_hash(path: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if path_in(path, &HASH_ALLOWED) {
        return;
    }
    for t in &lexed.tokens {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            findings.push(Finding {
                rule: NO_HASH_ITERATION,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted/position-keyed \
                     merge, or annotate a provably order-insensitive use",
                    t.text
                ),
            });
        }
    }
}

/// Rule 5: `Instant::now` / `SystemTime` outside the ledger and
/// drift-monitor modules.
fn check_wallclock(path: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    if path_in(path, &WALLCLOCK_ALLOWED) {
        return;
    }
    for t in &lexed.tokens {
        if t.kind == TokenKind::Ident && t.text == "SystemTime" {
            findings.push(Finding {
                rule: NO_WALLCLOCK,
                path: path.to_string(),
                line: t.line,
                message: "`SystemTime` in a result path breaks replayability; wall-clock belongs to the ledger \
                          and drift-monitor timing"
                    .to_string(),
            });
        }
    }
    for w in lexed.tokens.windows(3) {
        let [a, sep, b] = w else { continue };
        if a.kind == TokenKind::Ident && a.text == "Instant" && sep.text == "::" && b.text == "now" {
            findings.push(Finding {
                rule: NO_WALLCLOCK,
                path: path.to_string(),
                line: a.line,
                message: "`Instant::now` in a result path breaks replayability; confine wall-clock reads to the \
                          ledger and drift-monitor timing (or justify that results never branch \
                          on the measured span)"
                    .to_string(),
            });
        }
    }
}

/// Rule 6: entropy-seeded randomness. Every RNG in the workspace must be
/// seeded (`StdRng::seed_from_u64`, `splitmix64` streams); ambient entropy
/// makes runs unreproducible.
fn check_rng(path: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng")
        {
            findings.push(Finding {
                rule: NO_UNSEEDED_RNG,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` draws ambient entropy; every RNG must be explicitly seeded (StdRng::seed_from_u64 or a \
                     splitmix64 stream) so runs replay bit-identically",
                    t.text
                ),
            });
        }
    }
}

/// All `unsafe`-keyword tokens (identifier position only; `unsafe_code`
/// inside attributes is a different identifier and never matches).
fn keyword_occurrences<'l>(lexed: &'l LexedFile, kw: &'static str) -> impl Iterator<Item = &'l Token> {
    lexed.tokens.iter().filter(move |t| t.kind == TokenKind::Ident && t.text == kw)
}
