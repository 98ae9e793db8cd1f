//! The predicate rules system.
//!
//! "We are exploring strategies for using the POSTGRES predicate rules
//! system to allow users and administrators to define migration policies.
//! Arbitrarily complex rules controlling the locations of files or groups of
//! files would be declared to the database manager. When a file met the
//! announced conditions, it would be moved from one location in the storage
//! hierarchy to another."
//!
//! A rule is `(watched relation, event, qualification, action)`; both
//! qualification and action are query-language expressions evaluated with
//! the matching row bound to the variable `this` (and to unqualified column
//! names). Actions are typically calls to registered functions such as
//! Inversion's `migrate(file, device)`.

use crate::catalog::RuleEvent;
use crate::datum::Datum;
use crate::db::Session;
use crate::error::DbResult;
use crate::ids::RelId;
use crate::lock::LockMode;
use crate::query::{eval, parse_expr, Binding};

/// The outcome of one rules sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleRun {
    /// Rows whose qualification matched, per rule, as `(rule, matches)`.
    pub fired: Vec<(String, usize)>,
    /// Action results for inspection (rule name, action value).
    pub actions: Vec<(String, Datum)>,
}

/// Evaluates every rule registered for (`rel`, `event`) against the rows
/// currently visible to `session`, executing actions for matches.
///
/// `OnAccess`/`OnUpdate` rules are evaluated when the storage layer calls
/// this at the corresponding moment; `Periodic` rules are evaluated by
/// administrative sweeps (e.g. a migration daemon).
pub fn run_rules(session: &mut Session, rel: RelId, event: RuleEvent) -> DbResult<RuleRun> {
    // Lock, then read: `define rule` holds `rel`'s exclusive lock to its
    // end, so the rules read under this one are committed or our own.
    session.lock(rel, LockMode::Shared)?;
    let rules: Vec<(String, String, String)> = {
        let cat = session.db().catalog();
        cat.rules_for(rel, event)
            .into_iter()
            .map(|r| (r.name.clone(), r.qual.clone(), r.action.clone()))
            .collect()
    };
    let mut run = RuleRun::default();
    if rules.is_empty() {
        return Ok(run);
    }
    let schema = session.db().schema_of(rel)?;
    let rows = session.seq_scan(rel)?;
    for (name, qual_src, action_src) in rules {
        let qual = parse_expr(&qual_src)?;
        let action = parse_expr(&action_src)?;
        let mut matches = 0usize;
        for (_tid, row) in &rows {
            let binding = Binding::single("this", &schema, row);
            if eval(session, &binding, &qual)?.as_bool()? {
                matches += 1;
                let binding = Binding::single("this", &schema, row);
                let out = eval(session, &binding, &action)?;
                run.actions.push((name.clone(), out));
            }
        }
        run.fired.push((name, matches));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RuleEntry;
    use crate::datum::{Schema, TypeId};
    use crate::db::Db;

    fn setup() -> (Db, RelId) {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table(
                "fileatt",
                Schema::new([("file", TypeId::OID), ("size", TypeId::INT8)]),
            )
            .unwrap();
        let mut s = db.begin().unwrap();
        for (f, sz) in [(1u32, 10i64), (2, 5000), (3, 20_000)] {
            s.insert(rel, vec![Datum::Oid(f), Datum::Int8(sz)]).unwrap();
        }
        s.commit().unwrap();
        (db, rel)
    }

    #[test]
    fn periodic_rule_fires_on_matching_rows() {
        let (db, rel) = setup();
        let moved = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let moved2 = moved.clone();
        db.functions().register("t.note", move |_s, args| {
            moved2.fetch_add(args[0].as_oid()?, std::sync::atomic::Ordering::SeqCst);
            Ok(Datum::Bool(true))
        });
        db.define_function("note", 1, TypeId::BOOL, "t.note", None)
            .unwrap();
        db.define_rule(RuleEntry {
            name: "big_files".into(),
            on_rel: rel,
            event: RuleEvent::Periodic,
            qual: "size > 1000".into(),
            action: "note(this.file)".into(),
        })
        .unwrap();

        let mut s = db.begin().unwrap();
        let run = run_rules(&mut s, rel, RuleEvent::Periodic).unwrap();
        s.commit().unwrap();
        assert_eq!(run.fired, vec![("big_files".into(), 2)]);
        assert_eq!(run.actions.len(), 2);
        // Files 2 and 3 matched: 2 + 3 = 5.
        assert_eq!(moved.load(std::sync::atomic::Ordering::SeqCst), 5);
    }

    #[test]
    fn no_rules_is_a_cheap_noop() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        let run = run_rules(&mut s, rel, RuleEvent::Periodic).unwrap();
        assert!(run.fired.is_empty());
        s.commit().unwrap();
    }

    #[test]
    fn events_are_independent() {
        let (db, rel) = setup();
        db.functions()
            .register("t.tru", |_s, _| Ok(Datum::Bool(true)));
        db.define_function("tru", 0, TypeId::BOOL, "t.tru", None)
            .unwrap();
        db.define_rule(RuleEntry {
            name: "on_access_only".into(),
            on_rel: rel,
            event: RuleEvent::OnAccess,
            qual: "true".into(),
            action: "tru()".into(),
        })
        .unwrap();
        let mut s = db.begin().unwrap();
        let run = run_rules(&mut s, rel, RuleEvent::Periodic).unwrap();
        assert!(run.fired.is_empty());
        let run = run_rules(&mut s, rel, RuleEvent::OnAccess).unwrap();
        assert_eq!(run.fired[0].1, 3);
        s.commit().unwrap();
    }

    #[test]
    fn rule_defined_through_query_language_fires() {
        let (db, rel) = setup();
        db.functions()
            .register("t.tru", |_s, _| Ok(Datum::Bool(true)));
        db.define_function("tru", 0, TypeId::BOOL, "t.tru", None)
            .unwrap();
        let mut s = db.begin().unwrap();
        s.query(r#"define rule huge on periodic to fileatt where size >= 20000 do tru()"#)
            .unwrap();
        let run = run_rules(&mut s, rel, RuleEvent::Periodic).unwrap();
        assert_eq!(run.fired, vec![("huge".into(), 1)]);
        s.commit().unwrap();
    }
}
