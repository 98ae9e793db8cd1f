//! Repo maintenance tasks, amcheck's source-level sibling: `cargo run -p
//! xtask -- lint` statically audits the core crates the way
//! `minidb::check` audits the on-disk structures.
//!
//! The linter works on scrubbed source text (no external parser — the
//! build environment is offline) and enforces, over `crates/minidb`,
//! `crates/inversion` and `crates/simdev` non-test code:
//!
//! * `panic-budget` — `.unwrap()` / `.expect()` / `panic!` /
//!   `unreachable!` sites may never exceed the per-file budget checked in
//!   at `crates/xtask/lint-budget.toml`. The budget only ratchets down:
//!   `--update-budget` records lower counts and refuses to raise one.
//! * `relaxed-ordering` — `Ordering::Relaxed` only in `stats` modules.
//! * `let-underscore` — no `let _ =` discarding a value in core paths.
//! * `lock-order` — `lock::order::token(...)` markers must acquire levels
//!   in the hierarchy order exported by `minidb::lock::order` (the same
//!   table the debug-build runtime assertions use).
//! * `meta-blob` — `write_meta(` / `read_meta(` (whole-structure in-place
//!   persistence) only in `minidb/src/smgr.rs`.
//! * `wal-force-site` — `.force_up_to(` only in `wal.rs`, the buffer
//!   manager's `force_wal_for` and `db.rs`'s commit; `.flush_rel(` only in
//!   `db.rs` behind the `eager_index_writes` test.
//! * `thread-site` — no file in `crates/minidb` starts a thread.
//! * `checksum-site` — the checksum kernel's multiplier (`16_777_619`)
//!   only in `minidb/src/checksum.rs`: one checksum, no byte-serial loop.
//!
//! It also checks the documents: `doc-names` — every backticked Rust-shaped
//! name in README.md and DESIGN.md is a word of a tracked `.rs`, `.sh`,
//! `.toml` or `.json` file (or of its path), or on the rule's allow list.

mod rules;
mod scrub;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The crates the lint governs, relative to the repo root.
const LINT_ROOTS: &[&str] = &["crates/minidb/src", "crates/inversion/src", "crates/simdev/src"];

/// The documents `doc-names` checks, relative to the repo root.
const DOCS: &[&str] = &["README.md", "DESIGN.md"];

/// Repo-relative location of the ratchet budget.
const BUDGET_PATH: &str = "crates/xtask/lint-budget.toml";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update = args.iter().any(|a| a == "--update-budget");
            lint(update)
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--update-budget]");
            ExitCode::FAILURE
        }
    }
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn lint(update_budget: bool) -> ExitCode {
    let root = repo_root();
    let mut files = Vec::new();
    for r in LINT_ROOTS {
        collect_rs(&root.join(r), &mut files);
    }
    files.sort();

    let mut violations = Vec::new();
    let mut panic_counts: BTreeMap<String, (usize, Vec<rules::Violation>)> = BTreeMap::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("xtask: cannot read {}", path.display());
            return ExitCode::FAILURE;
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // Exempt markers live in comments, so collect them before scrubbing.
        let exempt: Vec<usize> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("lock-order: exempt"))
            .map(|(i, _)| i + 1)
            .collect();
        let cleaned = scrub::blank_tests(&scrub::scrub(&src));
        let sites = rules::panic_sites(&rel, &cleaned);
        panic_counts.insert(rel.clone(), (sites.len(), sites));
        violations.extend(rules::relaxed_sites(&rel, &cleaned));
        violations.extend(rules::let_underscore_sites(&rel, &cleaned));
        violations.extend(rules::lock_order_sites(&rel, &cleaned, &exempt));
        violations.extend(rules::meta_blob_sites(&rel, &cleaned));
        violations.extend(rules::wal_force_sites(&rel, &cleaned));
        violations.extend(rules::thread_sites(&rel, &cleaned));
        violations.extend(rules::checksum_sites(&rel, &cleaned));
    }

    match doc_name_violations(&root) {
        Ok(v) => violations.extend(v),
        Err(e) => {
            eprintln!("xtask: doc-names: {e}");
            return ExitCode::FAILURE;
        }
    }

    let budget_file = root.join(BUDGET_PATH);
    let budget = match load_budget(&budget_file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask: bad budget file {BUDGET_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if update_budget {
        return write_budget(&budget_file, &budget, &panic_counts);
    }

    let mut over = 0;
    for (file, (count, sites)) in &panic_counts {
        let allowed = budget.get(file).copied().unwrap_or(0);
        if *count > allowed {
            over += 1;
            eprintln!(
                "{file}: {count} panic-budget site(s), budget is {allowed}:"
            );
            for v in sites {
                eprintln!("  {v}");
            }
        } else if *count < allowed {
            eprintln!(
                "note: {file} is under budget ({count} < {allowed}); \
                 run `cargo run -p xtask -- lint --update-budget` to ratchet down"
            );
        }
    }
    for v in &violations {
        eprintln!("{v}");
    }

    if over > 0 || !violations.is_empty() {
        eprintln!(
            "xtask lint: FAILED ({} file(s) over panic budget, {} other violation(s))",
            over,
            violations.len()
        );
        ExitCode::FAILURE
    } else {
        println!("xtask lint: OK ({} files)", files.len());
        ExitCode::SUCCESS
    }
}

/// Runs `doc-names` over [`DOCS`] against the words of every source file
/// git tracks or would track (`git ls-files`, ignored files left out).
fn doc_name_violations(root: &Path) -> Result<Vec<rules::Violation>, String> {
    let listed = std::process::Command::new("git")
        .args(["ls-files", "-z", "--cached", "--others", "--exclude-standard"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run git ls-files: {e}"))?;
    if !listed.status.success() {
        return Err("git ls-files failed".into());
    }
    let mut corpus = String::new();
    for path in String::from_utf8_lossy(&listed.stdout).split('\0') {
        if [".rs", ".sh", ".toml", ".json"].iter().any(|ext| path.ends_with(ext)) {
            corpus.push_str(path);
            corpus.push('\n');
            // A listed file that is gone from the tree is simply skipped.
            corpus.push_str(&std::fs::read_to_string(root.join(path)).unwrap_or_default());
            corpus.push('\n');
        }
    }
    let known = rules::words(&corpus).collect();
    let mut out = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).map_err(|e| format!("{doc}: {e}"))?;
        out.extend(rules::doc_name_sites(doc, &text, &known));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Parses the budget file: `"repo/relative/path.rs" = N` lines, `#`
/// comments. A missing file is an empty budget (everything must be clean).
fn load_budget(path: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(out);
    };
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(format!("line {}: expected `\"path\" = count`", i + 1));
        };
        let key = key.trim().trim_matches('"').to_string();
        let val: usize = val
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad count: {e}", i + 1))?;
        out.insert(key, val);
    }
    Ok(out)
}

/// Rewrites the budget from current counts. Lowering is the point;
/// raising is refused — fix the code instead.
fn write_budget(
    path: &Path,
    old: &BTreeMap<String, usize>,
    counts: &BTreeMap<String, (usize, Vec<rules::Violation>)>,
) -> ExitCode {
    for (file, (count, _)) in counts {
        let allowed = old.get(file).copied().unwrap_or(0);
        if *count > allowed && !old.is_empty() {
            eprintln!(
                "xtask: refusing to raise {file} budget {allowed} -> {count}; \
                 the budget only ratchets down — remove the new sites instead"
            );
            return ExitCode::FAILURE;
        }
    }
    let mut text = String::from(
        "# Panic-budget ratchet (see crates/xtask): per-file allowance of\n\
         # .unwrap()/.expect()/panic!/unreachable! sites in non-test code.\n\
         # Regenerate with `cargo run -p xtask -- lint --update-budget`;\n\
         # counts may only go down.\n",
    );
    for (file, (count, _)) in counts {
        if *count > 0 {
            text.push_str(&format!("\"{file}\" = {count}\n"));
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("xtask: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("xtask: budget written to {}", path.display());
    ExitCode::SUCCESS
}
