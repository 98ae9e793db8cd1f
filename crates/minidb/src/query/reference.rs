//! The reference interpreter: the original match-and-eval executor, kept
//! as the semantic oracle the planned pipeline is differentially tested
//! against (`tests/properties.rs`).
//!
//! This is deliberately a direct port of the pre-planner `exec.rs` — an
//! odometer nested loop over materialized candidate row sets, with the one
//! "optimization" the old code had (equality pins against an indexed
//! column become index probes). Two latent index-path bugs the oracle
//! flushed out are fixed here *and* in the planner, each with a dedicated
//! unit test in `exec.rs`:
//!
//! 1. A cross-type pin (`int4_col = 5.0`) used to probe the B-tree with
//!    the literal's encoding, missing rows the predicate would match.
//!    An index is now only used when the literal coerces *exactly* to the
//!    column type.
//! 2. An out-of-range pin (`int4_col = 5000000000`) used to propagate the
//!    coercion overflow as a query error, while the same query without an
//!    index quietly returned the empty set. A literal that fails to coerce
//!    now just disqualifies the index.
//!
//! This module is `#[doc(hidden)]` public so integration tests (which are
//! external crates) can drive it; it is not part of the supported API.

use crate::datum::{Datum, Row, Schema};
use crate::db::Session;
use crate::error::{DbError, DbResult};
use crate::ids::Tid;
use crate::xact::Snapshot;
use simdev::SimInstant;

use super::ast::{BinOp, Expr, FromItem, Stmt, Target};
use super::eval::{coerce, eval, Binding};
use super::exec::{
    is_aggregate, sort_rows, targets_reference_columns, Accumulator, QueryResult,
};
use super::parser::parse;

/// One bound range variable with its materialized candidate rows.
struct BoundRel {
    var: String,
    schema: Schema,
    rows: Vec<(Tid, Row)>,
}

/// Parses and executes one DML statement through the reference
/// interpreter.
pub fn query(s: &mut Session, input: &str) -> DbResult<QueryResult> {
    execute(s, parse(input)?)
}

/// Executes one DML statement through the reference interpreter. DDL and
/// `explain` are planner-era concerns and are rejected.
pub fn execute(s: &mut Session, stmt: Stmt) -> DbResult<QueryResult> {
    match stmt {
        Stmt::Retrieve {
            into,
            targets,
            from,
            qual,
            sort,
            limit,
        } => {
            let result = exec_retrieve(s, targets, from, qual, sort, limit)?;
            match into {
                None => Ok(result),
                Some(name) => s.materialize_into(&name, result),
            }
        }
        Stmt::Append { rel, values } => exec_append(s, &rel, values),
        Stmt::Delete { var, rel, qual } => exec_delete(s, &var, &rel, qual),
        Stmt::Replace {
            var,
            rel,
            values,
            qual,
        } => exec_replace(s, &var, &rel, values, qual),
        _ => Err(DbError::Invalid(
            "reference interpreter only executes DML statements".into(),
        )),
    }
}

/// Materializes the candidate rows for one `from` item, using an index
/// when the qualification pins an indexed column to a literal of the
/// column's exact type.
fn bind_from(s: &mut Session, item: &FromItem, qual: Option<&Expr>) -> DbResult<BoundRel> {
    // Virtual system relations: rows are produced on the spot, not
    // fetched from a heap. They have no history — reject a time-travel
    // bracket rather than silently answering about the present.
    if let Some(table) = s.db().virtual_table(&item.rel) {
        if item.as_of.is_some() {
            return Err(DbError::Invalid(format!(
                "virtual relation \"{}\" has no history (time-travel bracket not allowed)",
                item.rel
            )));
        }
        return Ok(BoundRel {
            var: item.var.clone(),
            schema: table.schema.clone(),
            rows: (table.rows)(s.db())
                .into_iter()
                .enumerate()
                .map(|(i, r)| (Tid::new((i >> 16) as u32, (i & 0xffff) as u16), r))
                .collect(),
        });
    }
    let rel = s.db().relation_id(&item.rel)?;
    let schema = s.db().schema_of(rel)?;
    let snap = match &item.as_of {
        Some(e) => {
            let t = eval(s, &Binding::empty(), e)?.as_int()?;
            Some(Snapshot::AsOf(SimInstant::from_nanos(t.max(0) as u64)))
        }
        None => None,
    };

    // Index selection: look for `var.col = <literal>` conjuncts.
    if let Some(q) = qual {
        let mut eq_pins: Vec<(usize, Datum)> = Vec::new();
        collect_eq_pins(q, &item.var, &schema, &mut eq_pins);
        for (col, lit) in &eq_pins {
            if let Some(idx) = s.db().find_index(rel, &[*col]) {
                let ty = schema.columns[*col].ty;
                // Only probe when the literal coerces exactly to the
                // column type: a lossy coercion (or a failing one, e.g.
                // int4 overflow) means the B-tree's key encoding does not
                // agree with predicate evaluation — fall through to the
                // sequential scan instead of missing rows or erroring.
                let Ok(key) = coerce(lit.clone(), ty) else {
                    continue;
                };
                if key.type_id() != Some(ty) {
                    continue;
                }
                let key = [key];
                let rows = match &snap {
                    Some(sn) => s.index_scan_eq_with(idx, &key, sn)?,
                    None => s.index_scan_eq(idx, &key)?,
                };
                return Ok(BoundRel {
                    var: item.var.clone(),
                    schema,
                    rows,
                });
            }
        }
    }
    let rows = match &snap {
        Some(sn) => s.scan_with_snapshot(rel, sn)?,
        None => s.seq_scan(rel)?,
    };
    Ok(BoundRel {
        var: item.var.clone(),
        schema,
        rows,
    })
}

fn exec_retrieve(
    s: &mut Session,
    targets: Vec<Target>,
    from: Vec<FromItem>,
    qual: Option<Expr>,
    sort: Vec<(String, bool)>,
    limit: Option<u64>,
) -> DbResult<QueryResult> {
    let aggregated = targets.iter().any(|t| is_aggregate(&t.expr));
    // Mixing aggregates with plain targets groups implicitly by the
    // plain ones (POSTQUEL's aggregate "by" semantics).
    let grouped = aggregated && !targets.iter().all(|t| is_aggregate(&t.expr));

    // `limit 0` asks for no rows at all. The volcano executor's Limit node
    // never pulls its child, so not a single target expression runs; match
    // that by skipping evaluation entirely (sort keys are still validated,
    // as the planner's binder would).
    if limit == Some(0) {
        let columns: Vec<String> = targets.into_iter().map(|t| t.name).collect();
        sort_rows(&columns, &sort, &mut [])?;
        return Ok(QueryResult {
            columns,
            rows: Vec::new(),
            affected: 0,
        });
    }

    // Constant retrieve: no relations at all.
    if from.is_empty() && !targets_reference_columns(&targets) && !aggregated {
        let b = Binding::empty();
        let mut row = Vec::with_capacity(targets.len());
        for t in &targets {
            row.push(eval(s, &b, &t.expr)?);
        }
        return Ok(QueryResult {
            columns: targets.into_iter().map(|t| t.name).collect(),
            rows: vec![row],
            affected: 0,
        });
    }
    if from.is_empty() {
        return Err(DbError::Bind(
            "column references require a from clause".into(),
        ));
    }

    let bound: Vec<BoundRel> = from
        .iter()
        .map(|f| bind_from(s, f, qual.as_ref()))
        .collect::<DbResult<_>>()?;

    let mut aggs: Vec<Accumulator> = if aggregated && !grouped {
        targets
            .iter()
            .map(|t| Accumulator::for_target(&t.expr))
            .collect::<DbResult<_>>()?
    } else {
        Vec::new()
    };
    // Group mode: key bytes -> (key datums per plain target, accumulators
    // per aggregate target), insertion-ordered.
    let mut groups: Vec<(Vec<Datum>, Vec<Accumulator>)> = Vec::new();
    let mut group_index: std::collections::HashMap<Vec<u8>, usize> =
        std::collections::HashMap::new();

    // Nested-loop join over the bound relations. An empty relation
    // yields no combinations at all.
    let mut out_rows = Vec::new();
    if bound.iter().all(|b| !b.rows.is_empty()) {
        let mut cursor = vec![0usize; bound.len()];
        'outer: loop {
            {
                let binding = Binding {
                    vars: bound
                        .iter()
                        .zip(&cursor)
                        .map(|(b, &i)| (b.var.as_str(), &b.schema, &b.rows[i].1))
                        .collect(),
                };
                let keep = match &qual {
                    Some(q) => eval(s, &binding, q)?.as_bool()?,
                    None => true,
                };
                if keep {
                    if grouped {
                        // Evaluate plain targets (the group key) and
                        // aggregate arguments under the same binding.
                        let mut key = Vec::new();
                        let mut arg_vals = Vec::new();
                        for t in &targets {
                            let binding = Binding {
                                vars: bound
                                    .iter()
                                    .zip(&cursor)
                                    .map(|(b, &i)| (b.var.as_str(), &b.schema, &b.rows[i].1))
                                    .collect(),
                            };
                            if is_aggregate(&t.expr) {
                                let Expr::Call { args, .. } = &t.expr else {
                                    return Err(DbError::Eval(
                                        "aggregate target is not a function call".into(),
                                    ));
                                };
                                let v = match args.first() {
                                    Some(a) => eval(s, &binding, a)?,
                                    None => Datum::Int8(1),
                                };
                                arg_vals.push(Some(v));
                            } else {
                                key.push(eval(s, &binding, &t.expr)?);
                                arg_vals.push(None);
                            }
                        }
                        let key_bytes = crate::datum::encode_row(&key);
                        let gi = match group_index.get(&key_bytes) {
                            Some(&gi) => gi,
                            None => {
                                let accs = targets
                                    .iter()
                                    .filter(|t| is_aggregate(&t.expr))
                                    .map(|t| Accumulator::for_target(&t.expr))
                                    .collect::<DbResult<Vec<_>>>()?;
                                groups.push((key, accs));
                                group_index.insert(key_bytes, groups.len() - 1);
                                groups.len() - 1
                            }
                        };
                        let accs = &mut groups[gi].1;
                        for (ai, v) in arg_vals.into_iter().flatten().enumerate() {
                            accs[ai].add(v)?;
                        }
                    } else if aggregated {
                        for (acc, t) in aggs.iter_mut().zip(&targets) {
                            let Expr::Call { args, .. } = &t.expr else {
                                return Err(DbError::Eval(
                                    "aggregate target is not a function call".into(),
                                ));
                            };
                            let v = match args.first() {
                                Some(a) => {
                                    let binding = Binding {
                                        vars: bound
                                            .iter()
                                            .zip(&cursor)
                                            .map(|(b, &i)| {
                                                (b.var.as_str(), &b.schema, &b.rows[i].1)
                                            })
                                            .collect(),
                                    };
                                    eval(s, &binding, a)?
                                }
                                None => Datum::Int8(1), // count() counts rows.
                            };
                            acc.add(v)?;
                        }
                    } else {
                        let mut row = Vec::with_capacity(targets.len());
                        for t in &targets {
                            let binding = Binding {
                                vars: bound
                                    .iter()
                                    .zip(&cursor)
                                    .map(|(b, &i)| (b.var.as_str(), &b.schema, &b.rows[i].1))
                                    .collect(),
                            };
                            row.push(eval(s, &binding, &t.expr)?);
                        }
                        out_rows.push(row);
                    }
                }
            }
            // Odometer increment.
            for i in (0..bound.len()).rev() {
                cursor[i] += 1;
                if cursor[i] < bound[i].rows.len() {
                    continue 'outer;
                }
                cursor[i] = 0;
            }
            break;
        }
    }
    if grouped {
        for (key, accs) in groups {
            let mut finished = accs.into_iter().map(Accumulator::finish);
            let mut key_it = key.into_iter();
            let row: Vec<Datum> = targets
                .iter()
                .map(|t| {
                    if is_aggregate(&t.expr) {
                        finished.next().ok_or_else(|| {
                            DbError::Invalid("group produced too few accumulators".into())
                        })
                    } else {
                        key_it.next().ok_or_else(|| {
                            DbError::Invalid("group produced too few key values".into())
                        })
                    }
                })
                .collect::<DbResult<_>>()?;
            out_rows.push(row);
        }
    } else if aggregated {
        out_rows = vec![aggs.into_iter().map(Accumulator::finish).collect()];
    }
    let columns: Vec<String> = targets.into_iter().map(|t| t.name).collect();
    sort_rows(&columns, &sort, &mut out_rows)?;
    if let Some(n) = limit {
        out_rows.truncate(n as usize);
    }
    Ok(QueryResult {
        columns,
        rows: out_rows,
        affected: 0,
    })
}

fn exec_append(s: &mut Session, rel_name: &str, values: Vec<(String, Expr)>) -> DbResult<QueryResult> {
    let rel = s.db().relation_id(rel_name)?;
    let schema = s.db().schema_of(rel)?;
    let mut row = vec![Datum::Null; schema.len()];
    for (col, e) in &values {
        let i = schema
            .column_index(col)
            .ok_or_else(|| DbError::Bind(format!("no column \"{col}\" in {rel_name}")))?;
        let v = eval(s, &Binding::empty(), e)?;
        row[i] = coerce(v, schema.columns[i].ty)?;
    }
    s.insert(rel, row)?;
    Ok(QueryResult {
        affected: 1,
        ..Default::default()
    })
}

fn exec_delete(s: &mut Session, var: &str, rel_name: &str, qual: Option<Expr>) -> DbResult<QueryResult> {
    let rel = s.db().relation_id(rel_name)?;
    let schema = s.db().schema_of(rel)?;
    let candidates = s.seq_scan(rel)?;
    let mut victims = Vec::new();
    for (tid, row) in &candidates {
        let binding = Binding::single(var, &schema, row);
        let keep = match &qual {
            Some(q) => eval(s, &binding, q)?.as_bool()?,
            None => true,
        };
        if keep {
            victims.push(*tid);
        }
    }
    let mut affected = 0;
    for tid in victims {
        if s.delete(rel, tid)? {
            affected += 1;
        }
    }
    Ok(QueryResult {
        affected,
        ..Default::default()
    })
}

fn exec_replace(
    s: &mut Session,
    var: &str,
    rel_name: &str,
    values: Vec<(String, Expr)>,
    qual: Option<Expr>,
) -> DbResult<QueryResult> {
    let rel = s.db().relation_id(rel_name)?;
    let schema = s.db().schema_of(rel)?;
    let candidates = s.seq_scan(rel)?;
    let mut updates = Vec::new();
    for (tid, row) in &candidates {
        let binding = Binding::single(var, &schema, row);
        let keep = match &qual {
            Some(q) => eval(s, &binding, q)?.as_bool()?,
            None => true,
        };
        if !keep {
            continue;
        }
        let mut new_row = row.clone();
        for (col, e) in &values {
            let i = schema
                .column_index(col)
                .ok_or_else(|| DbError::Bind(format!("no column \"{col}\" in {rel_name}")))?;
            let v = eval(s, &binding, e)?;
            new_row[i] = coerce(v, schema.columns[i].ty)?;
        }
        updates.push((*tid, new_row));
    }
    let affected = updates.len();
    for (tid, new_row) in updates {
        s.update(rel, tid, new_row)?;
    }
    Ok(QueryResult {
        affected,
        ..Default::default()
    })
}

/// Collects `var.col = literal` (or `literal = var.col`) conjuncts usable
/// for index selection.
fn collect_eq_pins(e: &Expr, var: &str, schema: &Schema, out: &mut Vec<(usize, Datum)>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_eq_pins(lhs, var, schema, out);
            collect_eq_pins(rhs, var, schema, out);
        }
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let sides = [(lhs, rhs), (rhs, lhs)];
            for (col_side, lit_side) in sides {
                if let (Expr::Column { var: v, attr }, Expr::Lit(d)) =
                    (col_side.as_ref(), lit_side.as_ref())
                {
                    let applies = match v {
                        Some(v) => v == var,
                        None => true,
                    };
                    if applies {
                        if let Some(i) = schema.column_index(attr) {
                            out.push((i, d.clone()));
                            return;
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::TypeId;
    use crate::db::Db;

    fn setup() -> Db {
        let db = Db::open_in_memory().unwrap();
        db.create_table(
            "emp",
            Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
        )
        .unwrap();
        let rel = db.relation_id("emp").unwrap();
        db.create_index("emp_age", rel, &["age"]).unwrap();
        let mut s = db.begin().unwrap();
        for (n, a) in [("mao", 29), ("mike", 45), ("margo", 35)] {
            s.query(&format!(r#"append emp (name = "{n}", age = {a})"#))
                .unwrap();
        }
        s.commit().unwrap();
        db
    }

    #[test]
    fn reference_matches_planned_on_basics() {
        let db = setup();
        let mut s = db.begin().unwrap();
        for q in [
            "retrieve (e.name, e.age) from e in emp",
            "retrieve (e.name) from e in emp where e.age = 35",
            "retrieve (e.name) from e in emp where e.age > 30 sort by name limit 1",
            "retrieve (n = count(), a = avg(e.age)) from e in emp",
        ] {
            let planned = s.query(q).unwrap();
            let refr = query(&mut s, q).unwrap();
            assert_eq!(planned.columns, refr.columns, "{q}");
            let mut p = planned.rows.clone();
            let mut r = refr.rows.clone();
            p.sort_by(|a, b| crate::datum::encode_row(a).cmp(&crate::datum::encode_row(b)));
            r.sort_by(|a, b| crate::datum::encode_row(a).cmp(&crate::datum::encode_row(b)));
            assert_eq!(p, r, "{q}");
        }
        s.commit().unwrap();
    }

    #[test]
    fn cross_type_pin_falls_back_to_seq_scan() {
        // int4 column pinned with a float literal: the index encoding
        // would miss the row, the fixed reference path must not.
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = query(&mut s, "retrieve (e.name) from e in emp where e.age = 35.0").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Text("margo".into())]]);
        s.commit().unwrap();
    }

    #[test]
    fn overflowing_pin_is_empty_not_an_error() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = query(
            &mut s,
            "retrieve (e.name) from e in emp where e.age = 5000000000",
        )
        .unwrap();
        assert!(r.rows.is_empty());
        s.commit().unwrap();
    }

    #[test]
    fn limit_zero_never_evaluates_targets() {
        // The volcano Limit node with n = 0 never pulls its child, so an
        // error-capable target (`age + 1` over a null age) is never
        // evaluated. The reference path must short-circuit identically.
        let db = setup();
        let mut s = db.begin().unwrap();
        s.query(r#"append emp (name = "ghost")"#).unwrap(); // age is null
        assert!(matches!(
            query(&mut s, "retrieve (x = e.age + 1) from e in emp"),
            Err(DbError::Eval(_))
        ));
        let planned = s
            .query("retrieve (x = e.age + 1) from e in emp sort by x limit 0")
            .unwrap();
        let refr = query(
            &mut s,
            "retrieve (x = e.age + 1) from e in emp sort by x limit 0",
        )
        .unwrap();
        assert!(planned.rows.is_empty());
        assert!(refr.rows.is_empty());
        // Sort keys are still validated even when nothing runs.
        assert!(matches!(
            query(&mut s, "retrieve (e.age) from e in emp sort by ghost limit 0"),
            Err(DbError::Bind(_))
        ));
        s.commit().unwrap();
    }

    #[test]
    fn rejects_non_dml() {
        let db = setup();
        let mut s = db.begin().unwrap();
        assert!(matches!(
            query(&mut s, "define type blob"),
            Err(DbError::Invalid(_))
        ));
        assert!(matches!(
            query(&mut s, "explain retrieve (x = 1)"),
            Err(DbError::Invalid(_))
        ));
        s.abort().unwrap();
    }
}
