//! The lint rules. Each rule takes scrubbed, test-blanked source (see
//! [`crate::scrub`]) and reports zero or more findings with 1-based line
//! numbers. String matching is safe here precisely because comment and
//! literal text has already been blanked out.

use std::collections::HashSet;
use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule name, e.g. `panic-budget`.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos].iter().filter(|&&c| c == b'\n').count() + 1
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Finds every `needle` occurrence that is a whole identifier (not the tail
/// or head of a longer one), yielding byte offsets.
fn ident_matches<'a>(text: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let b = text.as_bytes();
    let n = needle.as_bytes();
    text.match_indices(needle).filter_map(move |(p, _)| {
        let before_ok = p == 0 || !is_ident(b[p - 1]);
        let after = p + n.len();
        let after_ok = after >= b.len() || !is_ident(b[after]);
        (before_ok && after_ok).then_some(p)
    })
}

/// Rule `panic-budget`: `.unwrap()`, `.expect(...)`, `panic!`, and
/// `unreachable!` sites in non-test code. The caller compares the count
/// against the checked-in per-file budget.
pub fn panic_sites(file: &str, text: &str) -> Vec<Violation> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    for method in ["unwrap", "expect"] {
        for p in ident_matches(text, method) {
            let called = b.get(p + method.len()) == Some(&b'(');
            let on_receiver = p > 0 && b[p - 1] == b'.';
            if called && on_receiver {
                out.push(Violation {
                    file: file.into(),
                    line: line_of(text, p),
                    rule: "panic-budget",
                    msg: format!(".{method}() in core code"),
                });
            }
        }
    }
    for mac in ["panic", "unreachable"] {
        for p in ident_matches(text, mac) {
            if b.get(p + mac.len()) == Some(&b'!') {
                out.push(Violation {
                    file: file.into(),
                    line: line_of(text, p),
                    rule: "panic-budget",
                    msg: format!("{mac}! in core code"),
                });
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Rule `relaxed-ordering`: `Relaxed` atomics are allowed only inside
/// `stats` modules, where counters are monotonic and approximate reads are
/// fine. Everywhere else they hide real synchronization bugs.
pub fn relaxed_sites(file: &str, text: &str) -> Vec<Violation> {
    if file.rsplit('/').next() == Some("stats.rs") || file.contains("/stats/") {
        return Vec::new();
    }
    ident_matches(text, "Relaxed")
        .map(|p| Violation {
            file: file.into(),
            line: line_of(text, p),
            rule: "relaxed-ordering",
            msg: "Ordering::Relaxed outside a stats module".into(),
        })
        .collect()
}

/// Rule `let-underscore`: `let _ = ...` silently discards a value — in core
/// paths that is almost always a dropped `Result`. Use `.ok()` (documented
/// intent) or handle the error.
pub fn let_underscore_sites(file: &str, text: &str) -> Vec<Violation> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    for p in ident_matches(text, "let") {
        let mut j = p + 3;
        while b.get(j).is_some_and(|c| c.is_ascii_whitespace()) {
            j += 1;
        }
        if b.get(j) != Some(&b'_') || b.get(j + 1).is_some_and(|&c| is_ident(c)) {
            continue;
        }
        j += 1;
        while b.get(j).is_some_and(|c| c.is_ascii_whitespace()) {
            j += 1;
        }
        if b.get(j) == Some(&b'=') && b.get(j + 1) != Some(&b'=') {
            out.push(Violation {
                file: file.into(),
                line: line_of(text, p),
                rule: "let-underscore",
                msg: "`let _ =` discards a value (use .ok() or handle it)".into(),
            });
        }
    }
    out
}

/// Rule `meta-blob`: `write_meta` / `read_meta` persist a structure by
/// rewriting it whole and in place — unlogged, unchecksummed, torn by one
/// failed destage. The device relation maps in `minidb/src/smgr.rs` are the
/// last things kept that way (the catalog used to be); no second one may
/// appear. Everything else becomes durable as logged rows or pages.
pub fn meta_blob_sites(file: &str, text: &str) -> Vec<Violation> {
    if file.ends_with("minidb/src/smgr.rs") {
        return Vec::new();
    }
    let b = text.as_bytes();
    let mut out = Vec::new();
    for name in ["write_meta", "read_meta"] {
        for p in ident_matches(text, name) {
            if b.get(p + name.len()) == Some(&b'(') {
                out.push(Violation {
                    file: file.into(),
                    line: line_of(text, p),
                    rule: "meta-blob",
                    msg: format!("`{name}` outside smgr.rs: persist it as logged rows"),
                });
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Rule `thread-site`: no file in `crates/minidb` starts a thread. Work
/// runs on the thread that asked for it — a page write-back on the thread
/// that evicts or checkpoints the page, a checkpoint on the writer that put
/// the log under pressure — so where the engine's work lands in the order
/// of writes and syncs, and on the simulated clock, never depends on the
/// host's thread scheduling.
pub fn thread_sites(file: &str, text: &str) -> Vec<Violation> {
    if !file.contains("crates/minidb/") {
        return Vec::new();
    }
    let b = text.as_bytes();
    ident_matches(text, "spawn")
        .filter(|&p| b.get(p + "spawn".len()) == Some(&b'(') && !text[..p].trim_end().ends_with("fn"))
        .map(|p| Violation {
            file: file.into(),
            line: line_of(text, p),
            rule: "thread-site",
            msg: "a thread started in minidb".into(),
        })
        .collect()
}

/// Rule `checksum-site`: the checksum kernel's multiplier (16 777 619, FNV's
/// prime, in any spelling of the literal) appears only in the kernel's
/// module, `minidb/src/checksum.rs`. Every check runs the lane sum, and a
/// byte-serial loop that multiplies by it on every byte cannot creep back.
pub fn checksum_sites(file: &str, text: &str) -> Vec<Violation> {
    if file.ends_with("minidb/src/checksum.rs") {
        return Vec::new();
    }
    let b = text.as_bytes();
    text.match_indices(|c: char| c.is_ascii_digit())
        .map(|(p, _)| p)
        .filter(|&p| p == 0 || !is_ident(b[p - 1]))
        .filter(|&p| {
            let end = b[p..].iter().position(|&c| !is_ident(c)).map_or(b.len(), |n| p + n);
            literal_value(&text[p..end]) == Some(16_777_619)
        })
        .map(|p| Violation {
            file: file.into(),
            line: line_of(text, p),
            rule: "checksum-site",
            msg: "the checksum multiplier outside minidb/src/checksum.rs: \
                  call minidb::checksum"
                .into(),
        })
        .collect()
}

/// The value of an integer literal: `_` separators, a `0x` prefix and a
/// type suffix allowed.
fn literal_value(lit: &str) -> Option<u64> {
    let lit = lit.replace('_', "").to_ascii_lowercase();
    let (digits, radix) = match lit.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (lit.as_str(), 10),
    };
    let end = digits.find(|c: char| !c.is_digit(radix)).unwrap_or(digits.len());
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Splits scrubbed source at every `fn` keyword into `(start offset,
/// function name, body up to the next `fn`)`: a call is judged by the
/// function it sits in.
fn functions(text: &str) -> Vec<(usize, &str, &str)> {
    let starts: Vec<usize> = ident_matches(text, "fn").collect();
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let body = &text[s..starts.get(i + 1).copied().unwrap_or(text.len())];
            let name = body[2..]
                .trim_start()
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            (s, name, body)
        })
        .collect()
}

/// Rule `wal-force-site`: the log is forced by a commit and by the buffer
/// manager before it writes back a page whose last change is not yet
/// durable — nothing else, so an insert path can never again pay a log
/// write and sync per row unnoticed.
/// `.force_up_to(` may be called in `minidb/src/wal.rs`, in
/// `buffer.rs::force_wal_for` and in `db.rs::commit_written`; `.flush_rel(`
/// (a writeback, hence a force, per dirty page of one relation) only in
/// `db.rs`, in a function that tests `eager_index_writes` (the POSTGRES
/// 4.0.1 emulation).
pub fn wal_force_sites(file: &str, text: &str) -> Vec<Violation> {
    let b = text.as_bytes();
    let in_file = |name: &str| file.ends_with(&format!("minidb/src/{name}"));
    let mut out = Vec::new();
    for (s, fn_name, body) in functions(text) {
        let allowed = |callee: &str| match callee {
            "force_up_to" => {
                in_file("wal.rs")
                    || (in_file("buffer.rs") && fn_name == "force_wal_for")
                    || (in_file("db.rs") && fn_name == "commit_written")
            }
            "flush_rel" => in_file("db.rs") && body.contains("eager_index_writes"),
            _ => false,
        };
        for callee in ["force_up_to", "flush_rel"] {
            for p in ident_matches(body, callee) {
                let p = s + p;
                let is_call = p > 0 && b[p - 1] == b'.' && b.get(p + callee.len()) == Some(&b'(');
                if is_call && !allowed(callee) {
                    out.push(Violation {
                        file: file.into(),
                        line: line_of(text, p),
                        rule: "wal-force-site",
                        msg: format!(
                            "`{callee}` in `{fn_name}`: only commit, a WAL-before-data \
                             writeback and the checkpoint force the log"
                        ),
                    });
                }
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Rule `lock-order`: audits the declared lock-acquisition markers
/// (`lock::order::token(LEVEL)`) against the hierarchy exported by
/// `minidb::lock::order`. Tokens are live until their enclosing brace
/// closes; acquiring a level below a live one is a violation (equal levels
/// — sibling latches — are allowed). A site can be waived with a
/// `lock-order: exempt` comment on the same or the preceding line.
pub fn lock_order_sites(file: &str, text: &str, exempt_lines: &[usize]) -> Vec<Violation> {
    const NEEDLE: &str = "lock::order::token(";
    let b = text.as_bytes();
    let mut out = Vec::new();
    // Byte offset -> declared level, for every marker in the file.
    let mut sites = Vec::new();
    for (p, _) in text.match_indices(NEEDLE) {
        let arg_start = p + NEEDLE.len();
        let Some(rel_end) = b[arg_start..].iter().position(|&c| c == b')') else {
            continue;
        };
        let arg = text[arg_start..arg_start + rel_end].trim();
        let seg = arg.rsplit("::").next().unwrap_or(arg);
        match level_by_const(seg) {
            Some(level) => sites.push((p, level)),
            None => out.push(Violation {
                file: file.into(),
                line: line_of(text, p),
                rule: "lock-order",
                msg: format!("unknown lock level `{seg}`"),
            }),
        }
    }
    // Sweep the file once, tracking brace depth and the live token stack.
    let mut next = 0;
    let mut depth: usize = 0;
    let mut live: Vec<(usize, usize)> = Vec::new(); // (depth, level)
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                live.retain(|&(d, _)| d <= depth);
            }
            _ => {}
        }
        if next < sites.len() && sites[next].0 == i {
            let (_, level) = sites[next];
            next += 1;
            let line = line_of(text, i);
            let exempt = exempt_lines.contains(&line)
                || (line > 1 && exempt_lines.contains(&(line - 1)));
            if let Some(&(_, held)) = live.iter().max_by_key(|&&(_, l)| l) {
                if level < held && !exempt {
                    out.push(Violation {
                        file: file.into(),
                        line,
                        rule: "lock-order",
                        msg: format!(
                            "acquires `{}` (rank {level}) while `{}` (rank {held}) is held",
                            minidb::lock::order::HIERARCHY[level],
                            minidb::lock::order::HIERARCHY[held],
                        ),
                    });
                }
            }
            live.push((depth, level));
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Names a document may use though no source file has them: other
/// systems' (PostgreSQL's, NFS's, the C library's and Linux's).
const DOC_NAME_ALLOW: &[&str] = &[
    "XLogPutNextOid",
    "XLOG_NEXTOID",
    "dlopen",
    "relatime",
];

/// The identifier-shaped words of `text`: what `doc-names` looks names up in.
pub fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// The name a code span refers to, if it is Rust-shaped: `a`, `a::b`,
/// `a.b`, `a()` or `a!`, each segment an identifier. That is its last
/// segment, when 4 or more characters long: shorter ones are too common
/// to tell anything.
fn doc_name(span: &str) -> Option<&str> {
    let path = span.strip_suffix("()").or_else(|| span.strip_suffix('!')).unwrap_or(span);
    let mut last = None;
    for seg in path.split("::").flat_map(|p| p.split('.')) {
        let b = seg.as_bytes();
        let ident = !b.is_empty() && !b[0].is_ascii_digit() && b.iter().all(|&c| is_ident(c));
        if !ident {
            return None;
        }
        last = Some(seg);
    }
    last.filter(|l| l.len() >= 4)
}

/// Rule `doc-names`: every Rust-shaped name a document puts in backticks
/// must be a word of the tracked sources (`known`) or on
/// [`DOC_NAME_ALLOW`], so a document cannot go on naming code that was
/// renamed or deleted. Fenced blocks hold commands and output, not names,
/// and are skipped.
pub fn doc_name_sites(file: &str, doc: &str, known: &HashSet<&str>) -> Vec<Violation> {
    let mut prose = String::with_capacity(doc.len());
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut out = Vec::new();
    let mut at = 0;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 {
            if let Some(name) = doc_name(piece) {
                if !known.contains(name) && !DOC_NAME_ALLOW.contains(&name) {
                    out.push(Violation {
                        file: file.into(),
                        line: line_of(&prose, at),
                        rule: "doc-names",
                        msg: format!("`{piece}` names nothing in the sources"),
                    });
                }
            }
        }
        at += piece.len() + 1;
    }
    out
}

/// Maps a const name (`HEAP_PAGE`) to its rank in the shared hierarchy.
fn level_by_const(name: &str) -> Option<usize> {
    minidb::lock::order::HIERARCHY
        .iter()
        .position(|h| h.to_uppercase().replace('-', "_") == name)
}

/// Rule `tests-last`: after a file's first line that starts with
/// `#[cfg(test)]`, where `scripts/loc.sh` stops counting, only test items
/// and the braces that close the items around them may follow. Takes the
/// raw source, to find that line as the script does, and its
/// test-blanked form.
pub fn tests_last_sites(file: &str, src: &str, cleaned: &str) -> Vec<Violation> {
    let mut first = None;
    let mut line_start = 0;
    for line in src.split_inclusive('\n') {
        if line
            .trim_start_matches([' ', '\t'])
            .starts_with("#[cfg(test)]")
        {
            first = Some(line_start);
            break;
        }
        line_start += line.len();
    }
    let Some(first) = first else {
        return Vec::new();
    };
    cleaned.as_bytes()[first..]
        .iter()
        .position(|c| !c.is_ascii_whitespace() && *c != b'}')
        .map(|p| Violation {
            file: file.into(),
            line: line_of(cleaned, first + p),
            rule: "tests-last",
            msg: "non-test code after a #[cfg(test)] item (scripts/loc.sh stops counting there)"
                .into(),
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::{blank_tests, scrub};

    fn clean(src: &str) -> String {
        blank_tests(&scrub(src))
    }

    #[test]
    fn counts_unwrap_but_not_unwrap_or() {
        let src = "fn f() { a.unwrap(); b.unwrap_or(0); c.unwrap_or_else(|| 0); }";
        let v = panic_sites("x.rs", &clean(src));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn counts_expect_but_not_expect_err() {
        let src = "fn f() { a.expect(msg); b.expect_err(msg); }";
        assert_eq!(panic_sites("x.rs", &clean(src)).len(), 1);
    }

    #[test]
    fn counts_macros_not_prose() {
        let src = "fn f() { panic!(); unreachable!() } // panic! in a comment\n";
        assert_eq!(panic_sites("x.rs", &clean(src)).len(), 2);
    }

    #[test]
    fn test_code_is_free() {
        let src = "#[cfg(test)]\nmod t { fn f() { a.unwrap(); panic!(); } }\n";
        assert!(panic_sites("x.rs", &clean(src)).is_empty());
    }

    #[test]
    fn relaxed_allowed_only_in_stats() {
        let src = "fn f() { c.load(Ordering::Relaxed); }";
        assert_eq!(relaxed_sites("crates/minidb/src/page.rs", &clean(src)).len(), 1);
        assert!(relaxed_sites("crates/minidb/src/stats.rs", &clean(src)).is_empty());
    }

    #[test]
    fn let_underscore_flagged_but_named_discards_ok() {
        let src = "fn f() { let _ = g(); let _keep = g(); let x = g(); }";
        let v = let_underscore_sites("x.rs", &clean(src));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn lock_order_allows_increasing_and_flags_decreasing() {
        let good = "fn f() { let _o = lock::order::token(lock::order::HEAP_PAGE); { let _p = lock::order::token(lock::order::BUFFER_SHARD); } }";
        assert!(lock_order_sites("x.rs", &clean(good), &[]).is_empty());
        let bad = "fn f() { let _o = lock::order::token(lock::order::BUFFER_SHARD); let _p = lock::order::token(lock::order::HEAP_PAGE); }";
        assert_eq!(lock_order_sites("x.rs", &clean(bad), &[]).len(), 1);
    }

    #[test]
    fn lock_order_scope_exit_releases() {
        let src = "fn f() { { let _o = lock::order::token(lock::order::BUFFER_SHARD); } let _p = lock::order::token(lock::order::HEAP_PAGE); }";
        assert!(lock_order_sites("x.rs", &clean(src), &[]).is_empty());
    }

    #[test]
    fn lock_order_exempt_marker() {
        let src = "fn f() { let _o = lock::order::token(lock::order::BUFFER_SHARD);\n// lock-order: exempt (test)\nlet _p = lock::order::token(lock::order::HEAP_PAGE); }";
        // Marker lines are collected from the raw source by the caller.
        assert!(lock_order_sites("x.rs", &clean(src), &[2]).is_empty());
    }

    #[test]
    fn sibling_same_level_allowed() {
        let src = "fn f() { let _o = lock::order::token(lock::order::BTREE_PAGE); let _p = lock::order::token(lock::order::BTREE_PAGE); }";
        assert!(lock_order_sites("x.rs", &clean(src), &[]).is_empty());
    }

    #[test]
    fn meta_blob_calls_are_confined_to_smgr() {
        let src = "fn persist(&self) { write_meta(&dev, 0, &bytes)?; let m = read_meta(&dev, 0)?; }";
        let v = meta_blob_sites("crates/minidb/src/db.rs", &clean(src));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "meta-blob"));
        assert!(meta_blob_sites("crates/minidb/src/smgr.rs", &clean(src)).is_empty());
        // Prose, longer identifiers and test code are not calls.
        let ok = "// write_meta(x)\nfn f() { rewrite_meta(); write_meta_v2(); }\n#[cfg(test)]\nmod t { fn g() { write_meta(); } }\n";
        assert!(meta_blob_sites("crates/minidb/src/db.rs", &clean(ok)).is_empty());
    }

    #[test]
    fn wal_force_sites_are_commit_writeback_and_the_emulation() {
        let forces = |file: &str, src: &str| wal_force_sites(file, &clean(src)).len();
        let commit = "fn commit_written(inner: &DbInner) { inner.wal.force_up_to(lsn)?; }";
        assert_eq!(forces("crates/minidb/src/db.rs", commit), 0);
        let insert = "fn insert(&mut self) { self.db.inner.wal.force_up_to(lsn)?; }";
        assert_eq!(forces("crates/minidb/src/db.rs", insert), 1);
        assert_eq!(forces("crates/inversion/src/api.rs", commit), 1);
        let writeback = "fn force_wal_for(&self) { wal.force_up_to(lsn)?; }\nfn evict(&self) { wal.force_up_to(lsn)?; }";
        let v = wal_force_sites("crates/minidb/src/buffer.rs", &clean(writeback));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("wal-force-site", 2));
        assert_eq!(forces("crates/minidb/src/wal.rs", insert), 0);
        // A flush of one relation's pages forces per page: emulation only.
        let eager = "fn insert(&mut self) { if self.config.eager_index_writes { pool.flush_rel(smgr, idx)?; } }";
        assert_eq!(forces("crates/minidb/src/db.rs", eager), 0);
        // An index build is logged like any insert: its row's commit makes
        // it durable, and no unlogged handle excuses a flush.
        let unlogged = "fn build_index(&self) { let bt = BTree { wal: None }; self.pool.flush_rel(smgr, id)?; }";
        assert_eq!(forces("crates/minidb/src/db.rs", unlogged), 1);
        let bare = "fn insert(&mut self) { pool.flush_rel(smgr, idx)?; }";
        assert_eq!(forces("crates/minidb/src/db.rs", bare), 1);
        assert_eq!(forces("crates/minidb/src/vacuum.rs", eager), 1);
        // Definitions, prose and test code are not calls.
        let ok = "// x.flush_rel(y)\npub fn flush_rel(&self) {}\npub fn force_up_to(&self) {}\n#[cfg(test)]\nmod t { fn g() { w.force_up_to(1); p.flush_rel(a, b); } }\n";
        assert_eq!(forces("crates/minidb/src/heap.rs", ok), 0);
        // The status file's own force before its checkpoint write is gone:
        // a status page waits for the log like any page.
        let status = "pub fn persist_dirty(&self, wal: &Wal) { wal.force_up_to(lsn)?; }";
        assert_eq!(forces("crates/minidb/src/xact.rs", status), 1);
        assert_eq!(forces("crates/minidb/src/xact.rs", insert), 1);
    }

    #[test]
    fn no_file_in_minidb_starts_a_thread() {
        let sites = |file: &str, src: &str| thread_sites(file, &clean(src)).len();
        let spawns = "fn start(&self) { std::thread::spawn(move || run()); }\n\
                      fn named(&self) { std::thread::Builder::new().name(n).spawn(move || run()); }\n\
                      fn scoped(&self) { std::thread::scope(|s| { s.spawn(f); }); }";
        let v = thread_sites("crates/minidb/src/db.rs", &clean(spawns));
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(found, [("thread-site", 1), ("thread-site", 2), ("thread-site", 3)]);
        assert_eq!(sites("crates/minidb/src/smgr.rs", spawns), 3);
        assert_eq!(sites("crates/inversion/src/server.rs", spawns), 0);
        // Definitions, longer identifiers, prose and test code are not starts.
        let ok = "// thread::spawn(f)\nfn spawn(&self) {}\nfn f() { respawn(); spawn_all; }\n#[cfg(test)]\nmod t { fn g() { std::thread::spawn(f); } }\n";
        assert_eq!(sites("crates/minidb/src/vacuum.rs", ok), 0);
    }

    #[test]
    fn the_checksum_multiplier_lives_only_in_the_kernel() {
        let sites = |file: &str, src: &str| checksum_sites(file, &clean(src)).len();
        let spellings = "fn a(h: u32) -> u32 { h.wrapping_mul(16_777_619) }\n\
                         fn b(h: u32) -> u32 { h.wrapping_mul(0x0100_0193) }\n\
                         fn c(h: u32) -> u32 { h.wrapping_mul(16777619u32) }\n\
                         const P: u32 = 0x1000193;";
        let v = checksum_sites("crates/minidb/src/wal.rs", &clean(spellings));
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            found,
            [("checksum-site", 1), ("checksum-site", 2), ("checksum-site", 3), ("checksum-site", 4)]
        );
        assert_eq!(sites("crates/inversion/src/api.rs", spellings), 4);
        assert_eq!(sites("crates/minidb/src/checksum.rs", spellings), 0);
        // Other numbers, identifiers, prose, strings and test code are not
        // the multiplier.
        let ok = "// h * 16_777_619\nfn f() { g(167_776_190, 0x811C_9DC5); x16777619(); let s = \"0x01000193\"; }\n#[cfg(test)]\nmod t { fn g() { h.wrapping_mul(16_777_619); } }\n";
        assert_eq!(sites("crates/minidb/src/wal.rs", ok), 0);
    }

    #[test]
    fn doc_names_must_name_a_source_word() {
        let src = "pub fn checkpoint_locked() {}\nconst CEILING_RESERVE: u64 = 960;\n";
        let known: HashSet<&str> = words(src).collect();
        let doc = "Runs `Db::checkpoint_locked()` under `CEILING_RESERVE`.\n\
                   It once called `gone_helper` and `Wal::gone_method`,\n\
                   like PostgreSQL's `XLogPutNextOid`.\n\
                   ```\n`fenced_away` is output\n```\n\
                   Not names: `cargo test -q`, `tests/recovery.rs`, `Vec<u8>`, `lsn`, `a.b()`.\n";
        let v = doc_name_sites("DESIGN.md", doc, &known);
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line, v.msg.as_str())).collect();
        assert_eq!(
            found,
            [
                ("doc-names", 2, "`gone_helper` names nothing in the sources"),
                ("doc-names", 2, "`Wal::gone_method` names nothing in the sources"),
            ]
        );
    }

    #[test]
    fn only_test_items_follow_the_first_cfg_test() {
        let sites = |src: &str| -> Vec<usize> {
            tests_last_sites("a.rs", src, &clean(src))
                .iter()
                .map(|v| v.line)
                .collect()
        };
        let ok = "fn a() {}\n#[cfg(test)]\nmod t { fn b() { if x { y(); } } }\n\
                  #[cfg(test)]\n#[allow(dead_code)]\nmod u;\n#[test]\nfn c() {}\n\
                  // pub fn commented_out() {}\n";
        assert!(sites(ok).is_empty());
        assert!(sites("fn a() {}\n").is_empty());
        // A test module that ends a module: the closing brace is no code.
        assert!(sites("mod m {\n    fn a() {}\n    #[cfg(test)]\n    mod t {}\n}\n").is_empty());

        assert_eq!(
            sites("fn a() {}\n#[cfg(test)]\nmod t { fn b() {} }\n\npub struct Late;\n"),
            [5]
        );
        // A test item inside an impl: the impl's own code after it counts.
        assert_eq!(
            sites("impl X {\n    #[cfg(test)]\n    fn h() {}\n    fn g() {}\n}\n"),
            [4]
        );
    }
}
