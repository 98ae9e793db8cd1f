//! The optimizer: turns a [`BoundStmt`] into a physical [`Plan`].
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

use crate::datum::Datum;
use crate::db::Session;
use crate::error::{DbError, DbResult};
use crate::ids::RelId;

use super::ast::{BinOp, Expr};
use super::bind::{BoundFrom, BoundSource, BoundStmt};
use super::plan::{Access, Plan, ScanPlan};

/// Assumed tuples per heap page.
const TUPLES_PER_PAGE: f64 = 64.0;
/// Per-tuple CPU cost, in page-read units.
const CPU_PER_TUPLE: f64 = 0.01;
/// Cost of a (cached) btree descent.
const BTREE_DESCENT: f64 = 0.5;
/// Selectivity of one range bound.
const BOUND_SELECTIVITY: f64 = 1.0 / 3.0;

/// Plans one bound statement.
pub fn plan_stmt(session: &mut Session, bound: BoundStmt) -> DbResult<Plan> {
    session.db().stats_registry().planner.plans_built.bump();
    match bound {
        BoundStmt::ConstRetrieve {
            into,
            targets,
            limit,
        } => Ok(wrap_output(Plan::ConstRow { targets }, &[], limit, into)),
        BoundStmt::Retrieve {
            into,
            targets,
            from,
            qual,
            sort,
            limit,
            aggregated,
            grouped,
        } => {
            let mut conjuncts = split_and(qual);
            let mut scans = Vec::with_capacity(from.len());
            for f in &from {
                scans.push(plan_scan(session, f, &mut conjuncts)?);
            }
            let Some(mut node) = scans.into_iter().reduce(|outer, inner| {
                session
                    .db()
                    .stats_registry()
                    .planner
                    .joins_planned
                    .bump();
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
        BoundStmt::Append {
            rel,
            rel_name,
            schema,
            values,
        } => Ok(Plan::Append {
            rel,
            rel_name,
            schema,
            values,
        }),
        BoundStmt::Delete {
            var,
            rel,
            rel_name,
            schema,
            qual,
        } => {
            let child = mutation_scan(session, var, rel, &rel_name, schema.clone(), qual)?;
            Ok(Plan::Delete {
                rel,
                rel_name,
                child: Box::new(child),
            })
        }
        BoundStmt::Replace {
            var,
            rel,
            rel_name,
            schema,
            values,
            qual,
        } => {
            let child = mutation_scan(session, var, rel, &rel_name, schema.clone(), qual)?;
            Ok(Plan::Replace {
                rel,
                rel_name,
                schema,
                values,
                child: Box::new(child),
            })
        }
    }
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
    schema: crate::datum::Schema,
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
fn col_bound(f: &BoundFrom, e: &Expr) -> Option<ColBound> {
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

/// Plans one scan: chooses the access method and pushes down this
/// variable's safe conjuncts. Consumed conjuncts are drained from
/// `conjuncts`; what remains becomes the residual filter.
fn plan_scan(
    session: &mut Session,
    f: &BoundFrom,
    conjuncts: &mut Vec<Conjunct>,
) -> DbResult<Plan> {
    let reg = session.db().stats_registry();
    let planner = &reg.planner;

    let rel = match f.source {
        BoundSource::Virtual => {
            // Virtual relations materialize in memory; pushdown still
            // applies but there is no access method to choose.
            let filter = take_pushable(conjuncts, &f.var);
            return Ok(Plan::Scan(Box::new(ScanPlan {
                var: f.var.clone(),
                rel_name: f.rel_name.clone(),
                rel: None,
                schema: f.schema.clone(),
                as_of: None,
                access: Access::Virtual,
                filter,
                est_pages: 0,
                est_rows: 1.0,
                est_cost: 0.0,
            })));
        }
        BoundSource::Heap(rel) => rel,
    };

    let pages = session.db().relation_pages(rel)?;
    let rows = pages as f64 * TUPLES_PER_PAGE;
    let seq = seq_cost(pages);

    // Candidate: equality probe on an indexed, type-matched column.
    let mut index_eq: Option<(usize, RelId, ColBound)> = None; // (conjunct idx, ...)
    // Candidate: range walk bounds per indexed column (first column wins).
    let mut range: Option<(usize, RelId, Option<Datum>, Option<Datum>)> = None;
    for (ci, c) in conjuncts.iter().enumerate() {
        if c.pushable_to.as_deref() != Some(f.var.as_str()) {
            continue;
        }
        let Some(b) = col_bound(f, &c.expr) else {
            continue;
        };
        let Some(idx) = session.db().find_index(rel, &[b.col]) else {
            continue;
        };
        if b.op == BinOp::Eq {
            if index_eq.is_none() {
                index_eq = Some((ci, idx, b));
            }
        } else if f.as_of.is_none() {
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
    let access;
    let est_rows;
    let est_cost;
    if let Some((ci, idx, b)) = index_eq {
        let probe_cost = BTREE_DESCENT + 1.0 + CPU_PER_TUPLE;
        if probe_cost < seq || pages == 0 {
            // The probe enforces the equality exactly; drop the conjunct.
            let name = index_name(session, idx);
            access = Access::IndexEq {
                index: idx,
                index_name: name,
                col: b.col,
                key: b.lit,
            };
            est_rows = 1.0;
            est_cost = probe_cost;
            conjuncts.remove(ci);
            planner.index_scans_chosen.bump();
        } else {
            access = Access::Seq;
            est_rows = rows;
            est_cost = seq;
            planner.seq_scans_chosen.bump();
        }
    } else if let Some((col, idx, lo, hi)) = range.filter(|r| r.2.is_some() || r.3.is_some()) {
        let sel = match (&lo, &hi) {
            (Some(_), Some(_)) => BOUND_SELECTIVITY * BOUND_SELECTIVITY,
            _ => BOUND_SELECTIVITY,
        };
        let out = rows * sel;
        let range_cost = BTREE_DESCENT + out.min(pages as f64) + CPU_PER_TUPLE * out;
        if range_cost < seq {
            let name = index_name(session, idx);
            access = Access::IndexRange {
                index: idx,
                index_name: name,
                col,
                lo,
                hi,
            };
            est_rows = out;
            est_cost = range_cost;
            planner.index_scans_chosen.bump();
        } else {
            access = Access::Seq;
            est_rows = rows;
            est_cost = seq;
            planner.seq_scans_chosen.bump();
        }
    } else {
        access = Access::Seq;
        est_rows = rows;
        est_cost = seq;
        planner.seq_scans_chosen.bump();
    }

    let filter = take_pushable(conjuncts, &f.var);
    Ok(Plan::Scan(Box::new(ScanPlan {
        var: f.var.clone(),
        rel_name: f.rel_name.clone(),
        rel: Some(rel),
        schema: f.schema.clone(),
        as_of: f.as_of.clone(),
        access,
        filter,
        est_pages: pages,
        est_rows,
        est_cost,
    })))
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
