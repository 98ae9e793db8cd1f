//! Golden plan corpus: `explain` output for a fixed query set against a
//! deterministic database is pinned in `explain-corpus.txt`. A diff here
//! means the planner changed its mind — new access method, different cost
//! arithmetic, reshaped tree. Regenerate with
//!
//! ```text
//! cargo test --test explain regenerate_corpus -- --ignored
//! ```
//!
//! only when the change is intentional, and review the diff like code:
//! every changed line is a changed planner decision.

use minidb::{Datum, Db, Schema, TypeId};

/// A deterministic database: `emp`/`dept` (one heap page each, `emp.age`
/// indexed) and `big` (hundreds of padded rows across several pages,
/// `big.k` indexed) so the cost model's seq-vs-range choice differs
/// between small and large relations.
fn corpus_db() -> Db {
    let db = Db::open_in_memory().unwrap();
    db.create_table(
        "emp",
        Schema::new([
            ("name", TypeId::TEXT),
            ("age", TypeId::INT4),
            ("dept", TypeId::TEXT),
        ]),
    )
    .unwrap();
    let emp = db.relation_id("emp").unwrap();
    db.create_index("emp_age", emp, &["age"]).unwrap();
    db.create_table(
        "dept",
        Schema::new([("dname", TypeId::TEXT), ("floor", TypeId::INT4)]),
    )
    .unwrap();
    db.create_table(
        "big",
        Schema::new([("k", TypeId::INT4), ("pad", TypeId::TEXT)]),
    )
    .unwrap();
    let big = db.relation_id("big").unwrap();
    db.create_index("big_k", big, &["k"]).unwrap();

    let mut s = db.begin().unwrap();
    for (n, a, d) in [
        ("mao", 29, "db"),
        ("mike", 45, "db"),
        ("margo", 35, "fs"),
        ("randy", 40, "arch"),
        ("wei", 31, "db"),
    ] {
        s.query(&format!(
            r#"append emp (name = "{n}", age = {a}, dept = "{d}")"#
        ))
        .unwrap();
    }
    for (dn, f) in [("db", 4), ("fs", 5), ("arch", 1)] {
        s.query(&format!(r#"append dept (dname = "{dn}", floor = {f})"#))
            .unwrap();
    }
    for k in 0..240 {
        s.insert(
            big,
            vec![Datum::Int4(k), Datum::Text(format!("{k:0>120}"))],
        )
        .unwrap();
    }
    s.commit().unwrap();
    db
}

/// The pinned query set: every planner decision the corpus locks down.
const CORPUS_QUERIES: [&str; 22] = [
    // Constant rows and limits.
    "retrieve (two = 1 + 1)",
    "retrieve (x = 1) limit 0",
    // Sequential scans and conjunct pushdown.
    "retrieve (e.name) from e in emp",
    "retrieve (e.name) from e in emp where e.age > 30",
    // Equality pins: exact-type literals probe the index...
    "retrieve (e.name) from e in emp where e.age = 35",
    // ...while lossy or overflowing literals must not.
    "retrieve (e.name) from e in emp where e.age = 35.0",
    "retrieve (e.name) from e in emp where e.age = 5000000000",
    // Range predicates cost out to an index walk on big tables and —
    // because a B-tree descent is cheap — even on one-page ones.
    "retrieve (b.k) from b in big where b.k > 100",
    "retrieve (b.k) from b in big where b.k > 10 and b.k <= 50",
    "retrieve (e.name) from e in emp where e.age > 30 and e.age < 40",
    // Joins: from-clause order, single-variable conjuncts pushed below.
    "retrieve (e.name, d.floor) from e in emp, d in dept where e.dept = d.dname",
    "retrieve (e.name, d.floor) from e in emp, d in dept where e.dept = d.dname and e.age = 29 and d.floor > 2",
    "retrieve (e.name, d.dname, b.k) from e in emp, d in dept, b in big where e.dept = d.dname and b.k = 7",
    // Aggregates, groups, sorts, limits.
    "retrieve (n = count(), a = avg(e.age)) from e in emp",
    "retrieve (e.dept, n = count()) from e in emp sort by dept",
    "retrieve (e.name, e.age) from e in emp sort by age desc, name",
    "retrieve (e.name) from e in emp where e.age > 29 sort by name limit 2",
    // Materialization and mutations.
    "retrieve into elders (e.name) from e in emp where e.age > 40",
    "append emp (name = \"new\", age = 20)",
    "delete e from e in emp where e.age < 30",
    "replace e (age = e.age + 1) from e in emp where e.dept = \"db\"",
    // Virtual relations scan materialized rows.
    "retrieve (p.plans_built) from p in pg_stat_planner",
];

fn corpus_text() -> String {
    let db = corpus_db();
    let mut out = String::from(
        "# Pinned EXPLAIN output for the golden query set (tests/explain.rs).\n\
         # A diff here is a changed planner decision. Regenerate with\n\
         #   cargo test --test explain regenerate_corpus -- --ignored\n\
         # only when the new plans are intentional.\n",
    );
    for q in CORPUS_QUERIES {
        out.push_str(&format!("## {q}\n"));
        let mut s = db.begin().unwrap();
        let r = s.query(&format!("explain {q}")).unwrap();
        s.abort().unwrap();
        for row in &r.rows {
            match &row[0] {
                Datum::Text(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                other => panic!("explain returned non-text row {other:?}"),
            }
        }
    }
    out
}

#[test]
fn corpus_pins_planner_decisions() {
    assert_eq!(
        corpus_text(),
        include_str!("explain-corpus.txt"),
        "planner drift: the golden query set no longer plans to its pinned trees"
    );
}

#[test]
#[ignore = "rewrites tests/explain-corpus.txt"]
fn regenerate_corpus() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/explain-corpus.txt");
    std::fs::write(path, corpus_text()).unwrap();
}

/// The corpus pins text; this pins behavior: the bounded query must
/// actually choose an index and read fewer pages than the unbounded scan.
#[test]
fn bounded_predicate_prefers_index_over_seq_scan() {
    let db = corpus_db();
    let mut s = db.begin().unwrap();
    let eq = s
        .query("explain retrieve (b.pad) from b in big where b.k = 17")
        .unwrap();
    let eq = eq.to_table();
    assert!(eq.contains("Index Scan on big as b using big_k"), "{eq}");
    let range = s
        .query("explain retrieve (b.pad) from b in big where b.k >= 200")
        .unwrap();
    let range = range.to_table();
    assert!(
        range.contains("Index Range Scan on big as b using big_k"),
        "{range}"
    );
    let seq = s
        .query("explain retrieve (b.pad) from b in big")
        .unwrap()
        .to_table();
    assert!(seq.contains("Seq Scan on big as b"), "{seq}");
    s.commit().unwrap();
}

/// `explain analyze` runs the plan and annotates every node with its
/// actual row count, in the same preorder the tree renders in.
#[test]
fn explain_analyze_row_counts_match_reality() {
    let db = corpus_db();
    let mut s = db.begin().unwrap();
    let r = s
        .query("explain analyze retrieve (b.k) from b in big where b.k < 10 sort by k")
        .unwrap();
    let text = r.to_table();
    assert!(text.contains("Sort (k) (rows=10)"), "{text}");
    assert!(text.contains("Project (k) (rows=10)"), "{text}");
    s.commit().unwrap();
}

/// A virtual relation binds by schema only: `explain` plans without calling
/// its row producer, and each scan — a `retrieve`, an `explain analyze` —
/// calls it exactly once.
#[test]
fn virtual_relation_rows_are_produced_once_per_scan_and_never_at_bind() {
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    let db = Db::open_in_memory().unwrap();
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    db.register_virtual("v_probe", Schema::new([("n", TypeId::INT4)]), move |_| {
        counted.fetch_add(1, SeqCst);
        vec![vec![Datum::Int4(7)]]
    });
    let mut s = db.begin().unwrap();
    s.query("explain retrieve (v.n) from v in v_probe").unwrap();
    assert_eq!(calls.load(SeqCst), 0, "explain must not produce rows");
    let res = s.query("retrieve (v.n) from v in v_probe").unwrap();
    assert_eq!(res.rows, vec![vec![Datum::Int4(7)]]);
    assert_eq!(calls.load(SeqCst), 1, "one scan, one production");
    s.query("explain analyze retrieve (v.n) from v in v_probe")
        .unwrap();
    assert_eq!(calls.load(SeqCst), 2, "explain analyze scans once");
    s.commit().unwrap();
}

/// The catalogs are relations like any other to the query language: the
/// ordinary planner scans `pg_class`, joins it, and shows the user's DDL —
/// and nothing but the DDL entry points may write it.
#[test]
fn pg_class_is_queryable_and_read_only_from_postquel() {
    let db = corpus_db();
    let mut s = db.begin().unwrap();
    let plan = s
        .query(r#"explain retrieve (c.relname) from c in pg_class where c.relkind = "r""#)
        .unwrap()
        .to_table();
    assert!(plan.contains("Seq Scan on pg_class as c"), "{plan}");
    let heaps = s
        .query(r#"retrieve (c.relname) from c in pg_class where c.relkind = "r" sort by relname"#)
        .unwrap();
    let names: Vec<&str> = heaps.rows.iter().map(|r| r[0].as_text().unwrap()).collect();
    assert_eq!(names, ["big", "dept", "emp"]);
    // An index's row names its heap: a self-join resolves it.
    let idx = s
        .query(
            "retrieve (i.relname, t.relname) from i in pg_class, t in pg_class \
             where i.indrelid = t.oid sort by relname",
        )
        .unwrap();
    let pairs: Vec<(&str, &str)> =
        idx.rows.iter().map(|r| (r[0].as_text().unwrap(), r[1].as_text().unwrap())).collect();
    assert_eq!(pairs, [("big_k", "big"), ("emp_age", "emp")]);
    // Reading the catalog holds no lock a later DDL of this very
    // transaction's thread would wait behind.
    db.create_table("later", Schema::default()).unwrap();

    for stmt in [
        r#"append pg_class (relname = "forged")"#,
        r#"delete c from c in pg_class where c.relname = "emp""#,
        r#"replace c (relname = "renamed") from c in pg_class where c.relname = "emp""#,
        r#"append pg_type (typname = "forged")"#,
    ] {
        let err = s.query(stmt).unwrap_err();
        assert!(
            matches!(&err, minidb::DbError::Invalid(m) if m.contains("system relation")),
            "{stmt}: {err}"
        );
    }
    s.commit().unwrap();
    assert!(db.relation_id("emp").is_ok());
    let findings = db.check_all();
    assert!(findings.is_empty(), "verifier: {findings:?}");
}
