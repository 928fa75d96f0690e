#![forbid(unsafe_code)]
//! `daris-lint` — the determinism static-analysis pass for the DARIS
//! workspace.
//!
//! Every headline result in this repository rests on one invariant:
//! simulations are **byte-identical** across thread counts, record/replay
//! round trips, and device-local vs. global arrival streams. This pass makes
//! that invariant machine-checked instead of conventional. It walks every
//! workspace source file with a small hand-rolled lexer (no `syn`, no
//! network — the same vendoring discipline as the proptest stub)
//! and enforces six named rules:
//!
//! | rule | hazard |
//! |------|--------|
//! | D001 | unordered-container iteration (`HashMap`/`HashSet`/`RandomState`) in sim crates |
//! | D002 | ambient nondeterminism (`Instant::now`, `SystemTime`, `thread_rng`) outside bench |
//! | D003 | float accumulation over an unordered source |
//! | D004 | thread spawns outside the sanctioned worker-pool module |
//! | D005 | lossy float<->int `as` casts in sim-time arithmetic |
//! | D006 | missing `#![forbid(unsafe_code)]` in a library crate root |
//!
//! Findings can be waived only by an inline
//! `// daris-lint: allow(<rule>, reason = "...")` with a mandatory reason;
//! stale waivers are themselves errors (`W002`), so the waiver set can never
//! rot. See [`rules::RULES`] for the scope of each rule and `DESIGN.md`
//! ("Determinism invariants & static analysis") for the full rationale,
//! including where the lookup-vs-iteration line is drawn.
//!
//! The second, compiler-native enforcement layer lives in the workspace
//! `clippy.toml` (`disallowed-types`/`disallowed-methods`); keep the two in
//! sync when editing either.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod waiver;

use report::Report;
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Analyzes one source file. `rel_path` must be repo-relative with forward
/// slashes — it determines which rule scopes apply (see
/// [`rules::FileScope`]). Waivers are parsed and applied; the returned
/// findings are what survives them (plus any `W001`/`W002` waiver errors).
pub fn analyze_source(rel_path: &str, source: &str) -> (Vec<Finding>, Vec<waiver::Waiver>) {
    let lexed = lexer::lex(source);
    let mut findings = rules::analyze(rel_path, source, &lexed);
    let waivers = waiver::parse_waivers(rel_path, &lexed.comments, &mut findings);
    waiver::apply_waivers(rel_path, findings, waivers)
}

/// Directories walked relative to the workspace root. `vendor/` is excluded:
/// the stubs there are third-party API shims, not simulation logic (their
/// wall-clock use is the whole point of a timing harness stub).
const WALK_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path components that are never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Recursively collects the workspace `.rs` files to lint, sorted for
/// deterministic report order. `fixtures` directories are skipped — they hold
/// deliberately-bad inputs for the lint's own test suite.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for walk_root in WALK_ROOTS {
        let dir = root.join(walk_root);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = collect_files(root)?;
    let mut all_findings = Vec::new();
    let mut all_waivers = Vec::new();
    let mut sources = BTreeMap::new();
    let files_scanned = files.len();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        let (findings, waivers) = analyze_source(&rel, &source);
        all_findings.extend(findings);
        all_waivers.extend(waivers);
        sources.insert(rel, source);
    }
    Ok(Report { findings: all_findings, waivers_used: all_waivers, files_scanned, sources })
}
