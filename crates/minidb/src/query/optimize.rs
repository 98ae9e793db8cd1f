//! The planner: resolves a parsed [`Stmt`] against the catalog and turns it
//! into a physical [`Plan`], in one pass per statement.
//!
//! Names resolve first, in statement order: the `from` items (each becomes
//! the [`ScanPlan`] it will run as, its access method not yet chosen), the
//! targets, the qualification, the assignments, then the sort keys.
//! Unqualified column references are rewritten to qualified ones (`age` →
//! `e.age`) and assignments name column indices, so a name error surfaces
//! before any row is read and before any `pg_stat_planner` counter moves.
//!
//! The cost model is deliberately small. A relation's page count (from the
//! storage manager's block map — see [`crate::db::Db::relation_pages`]) is
//! the cardinality input; rows are estimated at a fixed fill of 64 tuples
//! per page. Costs are in page-read units:
//!
//! - sequential scan: `pages + 0.01 · rows` (every page, plus per-tuple CPU)
//! - index equality probe: `0.5 + 1 + 0.01` (a cached btree descent, one
//!   heap page, one tuple)
//! - index range scan: `0.5 + min(out_rows, pages) + 0.01 · out_rows`,
//!   with selectivity 1/3 per bound (1/9 when bounded on both sides)
//!
//! Qualification conjuncts are classified per range variable: "safe"
//! single-variable comparisons (column/literal operands only — they cannot
//! raise a runtime error) are pushed down into the scan; everything else
//! stays in a residual filter above the joins, preserving the original
//! evaluation order. An equality conjunct consumed by an index probe is
//! dropped outright (the probe already enforces it exactly); range
//! conjuncts stay in the scan filter because the btree walk uses an
//! inclusive superset of the predicate's bounds.
//!
//! Index selection requires the literal to coerce *exactly* to the column
//! type: probing an INT4 index with the encoding of `5.0` would miss rows
//! that predicate evaluation (which compares across numeric types) keeps.
//!
//! Join order is the `from`-clause order, folded left-deep, so the planned
//! executor enumerates combinations exactly like the reference
//! interpreter's odometer loop. Mutating statements always scan their
//! target sequentially with the full qualification as the scan filter —
//! byte-for-byte the reference semantics.

use crate::datum::{Datum, Schema};
use crate::db::Session;
use crate::error::{DbError, DbResult};
use crate::ids::RelId;

use super::ast::{BinOp, Expr, FromItem, Stmt, Target};
use super::exec::{is_aggregate, targets_reference_columns};
use super::plan::{Access, Plan, ScanPlan};

/// Assumed tuples per heap page.
const TUPLES_PER_PAGE: f64 = 64.0;
/// Per-tuple CPU cost, in page-read units.
const CPU_PER_TUPLE: f64 = 0.01;
/// Cost of a (cached) btree descent.
const BTREE_DESCENT: f64 = 0.5;
/// Selectivity of one range bound.
const BOUND_SELECTIVITY: f64 = 1.0 / 3.0;

/// Resolves and plans one statement. Only the four DML statements are
/// planned; DDL executes directly.
pub fn plan_stmt(session: &mut Session, stmt: Stmt) -> DbResult<Plan> {
    let plan = match stmt {
        Stmt::Retrieve {
            into,
            targets,
            from,
            qual,
            sort,
            limit,
        } => plan_retrieve(session, into, targets, from, qual, sort, limit)?,
        Stmt::Append {
            rel: rel_name,
            values,
        } => {
            let (rel, schema) = resolve_rel(session, &rel_name)?;
            let values = resolve_assignments(&schema, &rel_name, values, &[])?;
            Plan::Append {
                rel,
                rel_name,
                schema,
                values,
            }
        }
        Stmt::Delete {
            var,
            rel: rel_name,
            mut qual,
        } => {
            let (rel, schema) = resolve_rel(session, &rel_name)?;
            if let Some(q) = &mut qual {
                qualify(q, &[(var.as_str(), &schema)])?;
            }
            let child = mutation_scan(session, var, rel, &rel_name, schema, qual)?;
            Plan::Delete {
                rel,
                rel_name,
                child: Box::new(child),
            }
        }
        Stmt::Replace {
            var,
            rel: rel_name,
            values,
            mut qual,
        } => {
            let (rel, schema) = resolve_rel(session, &rel_name)?;
            let scope = [(var.as_str(), &schema)];
            if let Some(q) = &mut qual {
                qualify(q, &scope)?;
            }
            let values = resolve_assignments(&schema, &rel_name, values, &scope)?;
            let child = mutation_scan(session, var, rel, &rel_name, schema.clone(), qual)?;
            Plan::Replace {
                rel,
                rel_name,
                schema,
                values,
                child: Box::new(child),
            }
        }
        other => {
            return Err(DbError::Invalid(format!(
                "statement does not go through the planner: {other:?}"
            )))
        }
    };
    session.db().stats_registry().planner.plans_built.bump();
    Ok(plan)
}

fn plan_retrieve(
    session: &mut Session,
    into: Option<String>,
    mut targets: Vec<Target>,
    from: Vec<FromItem>,
    mut qual: Option<Expr>,
    sort: Vec<(String, bool)>,
    limit: Option<u64>,
) -> DbResult<Plan> {
    let aggregated = targets.iter().any(|t| is_aggregate(&t.expr));
    let grouped = aggregated && !targets.iter().all(|t| is_aggregate(&t.expr));

    if from.is_empty() {
        if targets_reference_columns(&targets) || aggregated {
            return Err(DbError::Bind(
                "column references require a from clause".into(),
            ));
        }
        validate_sort(&targets, &sort)?;
        return Ok(wrap_output(Plan::ConstRow { targets }, &[], limit, into));
    }

    let scans: Vec<ScanPlan> = from
        .into_iter()
        .map(|f| resolve_from(session, f))
        .collect::<DbResult<_>>()?;
    let scope: Vec<(&str, &Schema)> = scans.iter().map(|s| (s.var.as_str(), &s.schema)).collect();
    for t in &mut targets {
        if aggregated {
            validate_aggregate(&t.expr)?;
        }
        qualify(&mut t.expr, &scope)?;
    }
    if let Some(q) = &mut qual {
        qualify(q, &scope)?;
    }
    validate_sort(&targets, &sort)?;

    let mut conjuncts = split_and(qual);
    let mut planned = Vec::with_capacity(scans.len());
    for scan in scans {
        planned.push(plan_scan(session, scan, &mut conjuncts)?);
    }
    let Some(mut node) = planned.into_iter().reduce(|outer, inner| {
        session.db().stats_registry().planner.joins_planned.bump();
        let est_rows = outer.est_rows() * inner.est_rows();
        Plan::NestLoop {
            outer: Box::new(outer),
            inner: Box::new(inner),
            est_rows,
        }
    }) else {
        return Err(DbError::Invalid(
            "retrieve requires at least one range variable".into(),
        ));
    };
    if let Some(residual) = fold_and(conjuncts.into_iter().map(|c| c.expr)) {
        node = Plan::Filter {
            qual: residual,
            child: Box::new(node),
        };
    }
    node = if aggregated {
        Plan::Aggregate {
            targets,
            grouped,
            child: Box::new(node),
        }
    } else {
        Plan::Project {
            targets,
            child: Box::new(node),
        }
    };
    Ok(wrap_output(node, &sort, limit, into))
}

/// Looks a heap relation up by name.
fn resolve_rel(session: &Session, name: &str) -> DbResult<(RelId, Schema)> {
    let rel = session.db().relation_id(name)?;
    Ok((rel, session.db().schema_of(rel)?))
}

/// Resolves one `from` item into the scan it runs as, its access method
/// and estimates left for [`plan_scan`] to choose. A virtual system
/// relation resolves by schema only; its rows are produced when the scan
/// opens.
fn resolve_from(session: &Session, item: FromItem) -> DbResult<ScanPlan> {
    let (rel, schema) = match session.db().virtual_table(&item.rel) {
        Some(_) if item.as_of.is_some() => {
            return Err(DbError::Invalid(format!(
                "virtual relation \"{}\" has no history (time-travel bracket not allowed)",
                item.rel
            )))
        }
        Some(table) => (None, table.schema),
        None => {
            let (rel, schema) = resolve_rel(session, &item.rel)?;
            (Some(rel), schema)
        }
    };
    Ok(ScanPlan {
        var: item.var,
        rel_name: item.rel,
        rel,
        schema,
        as_of: item.as_of,
        access: Access::Seq,
        filter: None,
        est_pages: 0,
        est_rows: 0.0,
        est_cost: 0.0,
    })
}

/// Maps `(column name, expr)` assignments to `(column index, expr)`,
/// qualifying column references in the value expressions against `scope`.
fn resolve_assignments(
    schema: &Schema,
    rel_name: &str,
    values: Vec<(String, Expr)>,
    scope: &[(&str, &Schema)],
) -> DbResult<Vec<(usize, Expr)>> {
    values
        .into_iter()
        .map(|(col, mut e)| {
            let i = schema
                .column_index(&col)
                .ok_or_else(|| DbError::Bind(format!("no column \"{col}\" in {rel_name}")))?;
            qualify(&mut e, scope)?;
            Ok((i, e))
        })
        .collect()
}

/// Rewrites unqualified column references to qualified ones and checks
/// every reference resolves against `scope`, the `(range variable,
/// schema)` pairs in `from`-clause order. Mirrors the resolution rules of
/// [`super::eval::Binding::resolve`]: a qualified reference must name a
/// range variable in scope; an unqualified one must match exactly one.
fn qualify(e: &mut Expr, scope: &[(&str, &Schema)]) -> DbResult<()> {
    match e {
        Expr::Lit(_) => Ok(()),
        Expr::Column { var, attr } => match var {
            Some(v) => {
                let (_, schema) = scope
                    .iter()
                    .find(|(name, _)| name == v)
                    .ok_or_else(|| DbError::Bind(format!("unknown range variable \"{v}\"")))?;
                if schema.column_index(attr).is_none() {
                    return Err(DbError::Bind(format!(
                        "no column \"{attr}\" in range of {v}"
                    )));
                }
                Ok(())
            }
            None => {
                let mut hits = scope
                    .iter()
                    .filter(|(_, schema)| schema.column_index(attr).is_some());
                match (hits.next(), hits.next()) {
                    (Some((name, _)), None) => {
                        *var = Some(name.to_string());
                        Ok(())
                    }
                    (Some(_), Some(_)) => Err(DbError::Bind(format!(
                        "ambiguous column \"{attr}\" (qualify with a range variable)"
                    ))),
                    (None, _) => Err(DbError::Bind(format!("unknown column \"{attr}\""))),
                }
            }
        },
        Expr::Call { args, .. } => {
            for a in args {
                qualify(a, scope)?;
            }
            Ok(())
        }
        Expr::Binary { lhs, rhs, .. } => {
            qualify(lhs, scope)?;
            qualify(rhs, scope)
        }
        Expr::Not(inner) | Expr::Neg(inner) => qualify(inner, scope),
    }
}

/// Arity check for an aggregate target (no-op for plain targets).
fn validate_aggregate(e: &Expr) -> DbResult<()> {
    if let Expr::Call { name, args } = e {
        if is_aggregate(e) && args.len() > 1 {
            return Err(DbError::Bind(format!("{name} takes at most one argument")));
        }
    }
    Ok(())
}

/// Sort keys must name output columns.
fn validate_sort(targets: &[Target], sort: &[(String, bool)]) -> DbResult<()> {
    for (name, _) in sort {
        if !targets.iter().any(|t| &t.name == name) {
            return Err(DbError::Bind(format!("sort by unknown column \"{name}\"")));
        }
    }
    Ok(())
}

/// Sort / limit / materialize wrappers, applied outermost-last.
fn wrap_output(
    mut node: Plan,
    sort: &[(String, bool)],
    limit: Option<u64>,
    into: Option<String>,
) -> Plan {
    if !sort.is_empty() {
        node = Plan::Sort {
            keys: sort.to_vec(),
            child: Box::new(node),
        };
    }
    if let Some(n) = limit {
        node = Plan::Limit {
            n,
            child: Box::new(node),
        };
    }
    if let Some(name) = into {
        node = Plan::Materialize {
            into: name,
            child: Box::new(node),
        };
    }
    node
}

/// Mutating statements keep the reference interpreter's exact row walk: a
/// sequential scan of the target with the full qualification as the
/// per-row filter.
fn mutation_scan(
    session: &mut Session,
    var: String,
    rel: RelId,
    rel_name: &str,
    schema: Schema,
    qual: Option<Expr>,
) -> DbResult<Plan> {
    let pages = session.db().relation_pages(rel)?;
    let est_rows = pages as f64 * TUPLES_PER_PAGE;
    session
        .db()
        .stats_registry()
        .planner
        .seq_scans_chosen
        .bump();
    Ok(Plan::Scan(Box::new(ScanPlan {
        var,
        rel_name: rel_name.to_string(),
        rel: Some(rel),
        schema,
        as_of: None,
        access: Access::Seq,
        filter: qual,
        est_pages: pages,
        est_rows,
        est_cost: seq_cost(pages),
    })))
}

/// One qualification conjunct, tagged with what the classifier learned.
struct Conjunct {
    expr: Expr,
    /// `Some(var)` if this is a safe single-variable comparison that can be
    /// pushed into `var`'s scan.
    pushable_to: Option<String>,
}

/// Splits a qualification on its top-level `and`s, preserving order.
fn split_and(qual: Option<Expr>) -> Vec<Conjunct> {
    let mut out = Vec::new();
    fn walk(e: Expr, out: &mut Vec<Conjunct>) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                walk(*lhs, out);
                walk(*rhs, out);
            }
            other => {
                let pushable_to = safe_single_var(&other).map(str::to_string);
                out.push(Conjunct {
                    expr: other,
                    pushable_to,
                });
            }
        }
    }
    if let Some(q) = qual {
        walk(q, &mut out);
    }
    out
}

/// Re-folds conjuncts left-associatively, as the parser would have.
fn fold_and(mut exprs: impl Iterator<Item = Expr>) -> Option<Expr> {
    let first = exprs.next()?;
    Some(exprs.fold(first, |acc, e| Expr::Binary {
        op: BinOp::And,
        lhs: Box::new(acc),
        rhs: Box::new(e),
    }))
}

/// Returns the range variable of a comparison whose operands are all
/// literals or columns of one variable. Such a conjunct is pure (cannot
/// raise a runtime error), so it may run below the join without changing
/// which errors a query reports.
fn safe_single_var(e: &Expr) -> Option<&str> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    let mut var: Option<&str> = None;
    for side in [lhs.as_ref(), rhs.as_ref()] {
        match side {
            Expr::Lit(_) => {}
            Expr::Column { var: Some(v), .. } => match var {
                None => var = Some(v),
                Some(existing) if existing == v => {}
                Some(_) => return None,
            },
            _ => return None,
        }
    }
    var
}

/// A `col OP literal` comparison normalized to a bound on `col`.
struct ColBound {
    col: usize,
    op: BinOp,
    lit: Datum,
}

/// Normalizes a conjunct into a column bound for `var`, flipping the
/// operator when the literal is on the left. The literal must coerce
/// exactly to the column's type — see the module docs for why.
fn col_bound(f: &ScanPlan, e: &Expr) -> Option<ColBound> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    let (col_side, lit_side, op) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column { .. }, Expr::Lit(_)) => (lhs.as_ref(), rhs.as_ref(), *op),
        (Expr::Lit(_), Expr::Column { .. }) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            (rhs.as_ref(), lhs.as_ref(), flipped)
        }
        _ => return None,
    };
    if !matches!(op, BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    let (Expr::Column { var, attr }, Expr::Lit(d)) = (col_side, lit_side) else {
        return None;
    };
    if var.as_deref() != Some(f.var.as_str()) {
        return None;
    }
    let col = f.schema.column_index(attr)?;
    let ty = f.schema.columns[col].ty;
    let coerced = super::eval::coerce(d.clone(), ty).ok()?;
    if coerced.type_id() != Some(ty) {
        return None; // Cross-type or null: the index would miss rows.
    }
    Some(ColBound {
        col,
        op,
        lit: coerced,
    })
}

fn index_name(session: &Session, id: RelId) -> String {
    session
        .db()
        .catalog()
        .relation(id)
        .map(|e| e.name.clone())
        .unwrap_or_else(|_| format!("{id}"))
}

fn seq_cost(pages: u64) -> f64 {
    pages as f64 + CPU_PER_TUPLE * pages as f64 * TUPLES_PER_PAGE
}

/// Completes one resolved scan: chooses the access method and pushes down
/// this variable's safe conjuncts. Consumed conjuncts are drained from
/// `conjuncts`; what remains becomes the residual filter.
fn plan_scan(
    session: &mut Session,
    mut scan: ScanPlan,
    conjuncts: &mut Vec<Conjunct>,
) -> DbResult<Plan> {
    let Some(rel) = scan.rel else {
        // Virtual relations materialize in memory; pushdown still applies
        // but there is no access method to choose.
        scan.filter = take_pushable(conjuncts, &scan.var);
        scan.est_rows = 1.0;
        return Ok(Plan::Scan(Box::new(scan)));
    };

    let pages = session.db().relation_pages(rel)?;
    let rows = pages as f64 * TUPLES_PER_PAGE;
    let seq = seq_cost(pages);

    // Candidate: equality probe on an indexed, type-matched column.
    let mut index_eq: Option<(usize, RelId, ColBound)> = None; // (conjunct idx, ...)
    // Candidate: range walk bounds per indexed column (first column wins).
    let mut range: Option<(usize, RelId, Option<Datum>, Option<Datum>)> = None;
    for (ci, c) in conjuncts.iter().enumerate() {
        if c.pushable_to.as_deref() != Some(scan.var.as_str()) {
            continue;
        }
        let Some(b) = col_bound(&scan, &c.expr) else {
            continue;
        };
        let Some(idx) = session.db().find_index(rel, &[b.col]) else {
            continue;
        };
        if b.op == BinOp::Eq {
            if index_eq.is_none() {
                index_eq = Some((ci, idx, b));
            }
        } else if scan.as_of.is_none() {
            // A read of the past walks no index range: only a point probe
            // also searches the archive, for keys the heap cannot answer,
            // and a range walk cannot tell which those are. Time travel
            // falls back to seq (or an equality probe).
            let r = range.get_or_insert((b.col, idx, None, None));
            if r.0 == b.col {
                match b.op {
                    BinOp::Gt | BinOp::Ge if r.2.is_none() => r.2 = Some(b.lit),
                    BinOp::Lt | BinOp::Le if r.3.is_none() => r.3 = Some(b.lit),
                    _ => {}
                }
            }
        }
    }

    // Cost the candidates against the sequential scan.
    (scan.access, scan.est_rows, scan.est_cost) = (Access::Seq, rows, seq);
    if let Some((ci, idx, b)) = index_eq {
        let probe_cost = BTREE_DESCENT + 1.0 + CPU_PER_TUPLE;
        if probe_cost < seq || pages == 0 {
            // The probe enforces the equality exactly; drop the conjunct.
            scan.access = Access::IndexEq {
                index: idx,
                index_name: index_name(session, idx),
                col: b.col,
                key: b.lit,
            };
            (scan.est_rows, scan.est_cost) = (1.0, probe_cost);
            conjuncts.remove(ci);
        }
    } else if let Some((col, idx, lo, hi)) = range.filter(|r| r.2.is_some() || r.3.is_some()) {
        let sel = match (&lo, &hi) {
            (Some(_), Some(_)) => BOUND_SELECTIVITY * BOUND_SELECTIVITY,
            _ => BOUND_SELECTIVITY,
        };
        let out = rows * sel;
        let range_cost = BTREE_DESCENT + out.min(pages as f64) + CPU_PER_TUPLE * out;
        if range_cost < seq {
            scan.access = Access::IndexRange {
                index: idx,
                index_name: index_name(session, idx),
                col,
                lo,
                hi,
            };
            (scan.est_rows, scan.est_cost) = (out, range_cost);
        }
    }
    let planner = &session.db().stats_registry().planner;
    match scan.access {
        Access::Seq => planner.seq_scans_chosen.bump(),
        _ => planner.index_scans_chosen.bump(),
    }

    scan.filter = take_pushable(conjuncts, &scan.var);
    scan.est_pages = pages;
    Ok(Plan::Scan(Box::new(scan)))
}

/// Drains the conjuncts pushable to `var` and folds them into one filter
/// expression, preserving their original order.
fn take_pushable(conjuncts: &mut Vec<Conjunct>, var: &str) -> Option<Expr> {
    let mut taken = Vec::new();
    conjuncts.retain_mut(|c| {
        if c.pushable_to.as_deref() == Some(var) {
            taken.push(std::mem::replace(&mut c.expr, Expr::Lit(Datum::Null)));
            false
        } else {
            true
        }
    });
    fold_and(taken.into_iter())
}

#[cfg(test)]
mod tests {
    use crate::datum::{Datum, Schema, TypeId};
    use crate::db::Db;
    use crate::error::{DbError, DbResult};
    use crate::query::QueryResult;

    fn setup() -> Db {
        let db = Db::open_in_memory().unwrap();
        db.create_table(
            "emp",
            Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
        )
        .unwrap();
        db.create_table(
            "dept",
            Schema::new([("dname", TypeId::TEXT), ("age", TypeId::INT4)]),
        )
        .unwrap();
        let mut s = db.begin().unwrap();
        s.query(r#"append emp (name = "mao", age = 29)"#).unwrap();
        s.query(r#"append emp (name = "ann", age = 2)"#).unwrap();
        s.query(r#"append dept (dname = "fs", age = 29)"#).unwrap();
        s.commit().unwrap();
        db
    }

    fn query(db: &Db, src: &str) -> DbResult<QueryResult> {
        let mut s = db.begin().unwrap();
        let out = s.query(src);
        s.abort().unwrap();
        out
    }

    /// `explain`'s plan text, one line per node.
    fn explain(db: &Db, src: &str) -> String {
        let r = query(db, &format!("explain {src}")).unwrap();
        let lines: Vec<&str> = r.rows.iter().map(|row| row[0].as_text().unwrap()).collect();
        lines.join("\n")
    }

    #[test]
    fn qualifies_unqualified_columns() {
        let db = setup();
        // The qualification's column reference gained its range variable.
        let plan = explain(&db, "retrieve (name) from e in emp where age > 3");
        assert!(
            plan.contains("Seq Scan on emp as e filter (e.age > 3)"),
            "{plan}"
        );
        // `name` and `dname` each belong to one range variable of the join.
        let r = query(
            &db,
            "retrieve (name, dname) from e in emp, d in dept where e.age = d.age",
        )
        .unwrap();
        assert_eq!(r.columns, ["name", "dname"]);
        assert_eq!(
            r.rows,
            [vec![Datum::Text("mao".into()), Datum::Text("fs".into())]]
        );
    }

    #[test]
    fn ambiguity_and_unknowns_are_bind_errors() {
        let db = setup();
        let planned = || db.stats_registry().planner.plans_built.get();
        let before = planned();
        // `age` lives in both emp and dept.
        assert!(matches!(
            query(&db, "retrieve (age) from e in emp, d in dept"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "retrieve (e.salary) from e in emp"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "retrieve (q.age) from e in emp"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "retrieve (e.age) from e in nope"),
            Err(DbError::NotFound(_))
        ));
        assert!(matches!(
            query(&db, "retrieve (e.age) from e in emp sort by salary"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "append emp (salary = 1)"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "replace e (age = e.salary) from e in emp"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            query(&db, "delete e from e in emp where e.salary > 1"),
            Err(DbError::Bind(_))
        ));
        assert_eq!(
            planned(),
            before,
            "a statement that fails to resolve is not planned"
        );
    }

    #[test]
    fn const_retrieve_and_missing_from() {
        let db = setup();
        assert_eq!(explain(&db, "retrieve (two = 1 + 1)"), "Result (two)");
        assert_eq!(
            query(&db, "retrieve (two = 1 + 1)").unwrap().rows,
            [vec![Datum::Int8(2)]]
        );
        assert!(matches!(
            query(&db, "retrieve (age)"),
            Err(DbError::Bind(_))
        ));
    }

    #[test]
    fn virtual_relations_resolve_without_history() {
        let db = setup();
        let plan = explain(&db, "retrieve (s.hits) from s in pg_stat_buffer");
        assert!(
            plan.contains("Virtual Scan on pg_stat_buffer as s"),
            "{plan}"
        );
        assert!(matches!(
            query(&db, "retrieve (s.hits) from s in pg_stat_buffer[12]"),
            Err(DbError::Invalid(_))
        ));
    }

    #[test]
    fn aggregate_arity_is_a_bind_error() {
        let db = setup();
        assert!(matches!(
            query(&db, "retrieve (n = count(e.age, e.name)) from e in emp"),
            Err(DbError::Bind(_))
        ));
    }
}
