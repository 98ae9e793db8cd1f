//! Statement execution: the push executor over planned statements.
//!
//! A DML statement runs in three stages: [`super::parser`] parses it,
//! [`super::optimize`] resolves its names and plans it, and `run_plan` runs
//! the plan. A run opens every scan first, in plan preorder, then walks the
//! plan once: each node hands its rows, one at a time, to its parent's
//! callback, which returns `false` to stop it. Join-side nodes hand on
//! `Tuple`s (one `(tid, row)` per range variable in scope order);
//! output-side nodes hand on finished result rows. Every node counts the
//! rows it emits so `explain analyze` can annotate the plan. DDL statements
//! execute directly, and the old match-and-eval interpreter survives
//! verbatim in [`super::reference`] as the differential oracle's reference
//! semantics.

use std::cell::Cell;

use simdev::SimInstant;

use crate::catalog::RuleEvent;
use crate::datum::{Datum, Row, Schema};
use crate::db::Session;
use crate::error::{DbError, DbResult};
use crate::ids::Tid;

use super::ast::{Expr, Stmt, Target};
use super::eval::{coerce, eval, Binding};
use super::optimize;
use super::parser::parse;
use super::plan::{Access, Plan, ScanPlan};

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column labels (retrieve only).
    pub columns: Vec<String>,
    /// Result rows (retrieve only).
    pub rows: Vec<Row>,
    /// Rows appended / deleted / replaced (mutating statements).
    pub affected: usize,
}

impl QueryResult {
    /// Renders the result as an aligned text table (for the query monitor).
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return format!("({} rows affected)\n", self.affected);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|d| d.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out.push_str(&format!("({} rows)\n", self.rows.len()));
        out
    }
}

impl Session {
    /// Parses and executes one statement of the query language.
    ///
    /// # Examples
    ///
    /// ```
    /// use minidb::{Db, Datum};
    /// let db = Db::open_in_memory().unwrap();
    /// let mut s = db.begin().unwrap();
    /// s.query("retrieve (two = 1 + 1)").unwrap();
    /// s.commit().unwrap();
    /// ```
    pub fn query(&mut self, input: &str) -> DbResult<QueryResult> {
        let stmt = parse(input)?;
        self.execute(stmt)
    }

    fn execute(&mut self, stmt: Stmt) -> DbResult<QueryResult> {
        match stmt {
            Stmt::Retrieve { .. }
            | Stmt::Append { .. }
            | Stmt::Delete { .. }
            | Stmt::Replace { .. } => {
                let plan = optimize::plan_stmt(self, stmt)?;
                let (result, _counts) = run_plan(self, &plan)?;
                Ok(result)
            }
            Stmt::Explain { analyze, inner } => self.exec_explain(analyze, *inner),
            Stmt::DefineType { name } => {
                self.define_type(&name)?;
                Ok(QueryResult::default())
            }
            Stmt::DefineFunction {
                name,
                nargs,
                returns,
                impl_key,
                for_type,
            } => {
                let ret = self.db().catalog().type_by_name(&returns)?;
                let for_ty = match for_type {
                    Some(t) => Some(self.db().catalog().type_by_name(&t)?),
                    None => None,
                };
                self.define_function(&name, nargs, ret, &impl_key, for_ty)?;
                Ok(QueryResult::default())
            }
            Stmt::DefineRule {
                name,
                event,
                rel,
                qual,
                action,
            } => {
                let event = match event.to_ascii_lowercase().as_str() {
                    "access" => RuleEvent::OnAccess,
                    "update" => RuleEvent::OnUpdate,
                    "periodic" => RuleEvent::Periodic,
                    other => return Err(DbError::Parse(format!("unknown rule event \"{other}\""))),
                };
                let on_rel = self.db().relation_id(&rel)?;
                self.define_rule(crate::catalog::RuleEntry {
                    name,
                    on_rel,
                    event,
                    qual,
                    action,
                })?;
                Ok(QueryResult::default())
            }
        }
    }

    /// `explain [analyze] <stmt>`: plans the statement and returns the plan
    /// tree as one text row per line. With `analyze` the plan also runs
    /// (side effects included — explaining an `append` appends) and each
    /// node line gains its actual output-row count.
    fn exec_explain(&mut self, analyze: bool, inner: Stmt) -> DbResult<QueryResult> {
        let plan = optimize::plan_stmt(self, inner)?;
        let text = if analyze {
            let (_result, counts) = run_plan(self, &plan)?;
            plan.render(Some(&counts))
        } else {
            plan.render(None)
        };
        Ok(QueryResult {
            columns: vec!["QUERY PLAN".into()],
            rows: text
                .lines()
                .map(|l| vec![Datum::Text(l.to_string())])
                .collect(),
            affected: 0,
        })
    }

    /// `retrieve into name (...)`: creates a table named `name` with the
    /// result's columns and appends every result row, all in this
    /// session's transaction. Column types come from the first non-null
    /// datum in each column (all-null columns become text).
    pub(crate) fn materialize_into(
        &mut self,
        name: &str,
        result: QueryResult,
    ) -> DbResult<QueryResult> {
        let mut cols: Vec<(String, crate::datum::TypeId)> = Vec::new();
        for (i, cname) in result.columns.iter().enumerate() {
            let ty = result
                .rows
                .iter()
                .find_map(|r| r[i].type_id())
                .unwrap_or(crate::datum::TypeId::TEXT);
            cols.push((cname.clone(), ty));
        }
        let schema = Schema {
            columns: cols
                .iter()
                .map(|(n, t)| crate::datum::Column::new(n.clone(), *t))
                .collect(),
        };
        let rel = self.create_table_on(name, schema, crate::ids::DeviceId::DEFAULT, false)?;
        let affected = result.rows.len();
        for row in result.rows {
            self.insert(rel, row)?;
        }
        Ok(QueryResult {
            affected,
            ..Default::default()
        })
    }
}

// ---------------------------------------------------------------------------
// The push executor.

/// One row in flight: below the projection, a `(tid, row)` pair per range
/// variable in scope order; above it, one finished result row as a tuple of
/// one entry whose tid names no heap tuple.
type Tuple = Vec<(Tid, Row)>;
/// The range variables a tuple's entries correspond to.
type Scope<'p> = Vec<(&'p str, &'p Schema)>;
/// A node's consumer: it takes each row the node produces, in order, and
/// returns `false` to stop the node.
type Emit<'e> = dyn FnMut(&mut Session, Tuple) -> DbResult<bool> + 'e;

/// Runs a plan to completion. The second return value is each plan node's
/// actual output-row count, in preorder — the order [`Plan::render`] walks
/// for `explain analyze`.
pub(crate) fn run_plan(s: &mut Session, plan: &Plan) -> DbResult<(QueryResult, Vec<u64>)> {
    if let Plan::Append {
        rel,
        schema,
        values,
        ..
    } = plan
    {
        let mut row = vec![Datum::Null; schema.len()];
        for (i, e) in values {
            let v = eval(s, &Binding::empty(), e)?;
            row[*i] = coerce(v, schema.columns[*i].ty)?;
        }
        s.insert(*rel, row)?;
        let result = QueryResult {
            affected: 1,
            ..Default::default()
        };
        return Ok((result, vec![1]));
    }
    let run = Run::open(s, plan)?;
    let result = match plan {
        Plan::Delete { rel, child, .. } => {
            // Collect first, mutate after: the scan must not see its own
            // deletions.
            let mut victims = Vec::new();
            run.push(s, child, 1, &mut |_, t| {
                victims.push(t[0].0);
                Ok(true)
            })?;
            let mut affected = 0;
            for tid in victims {
                if s.delete(*rel, tid)? {
                    affected += 1;
                }
            }
            QueryResult {
                affected,
                ..Default::default()
            }
        }
        Plan::Replace {
            rel,
            schema,
            values,
            child,
            ..
        } => {
            // Same collect-then-mutate discipline as delete (no Halloween
            // problem: a replaced row cannot be revisited).
            let scope = scope(child);
            let mut updates = Vec::new();
            run.push(s, child, 1, &mut |s, t| {
                let binding = make_binding(&scope, &t);
                let mut new_row = t[0].1.clone();
                for (i, e) in values {
                    new_row[*i] = coerce(eval(s, &binding, e)?, schema.columns[*i].ty)?;
                }
                updates.push((t[0].0, new_row));
                Ok(true)
            })?;
            let affected = updates.len();
            for (tid, new_row) in updates {
                s.update(*rel, tid, new_row)?;
            }
            QueryResult {
                affected,
                ..Default::default()
            }
        }
        Plan::Materialize { into, child } => {
            let inner = QueryResult {
                columns: output_columns(child),
                rows: run.collect(s, child, 1)?,
                affected: 0,
            };
            s.materialize_into(into, inner)?
        }
        _ => QueryResult {
            columns: output_columns(plan),
            rows: run.collect(s, plan, 0)?,
            affected: 0,
        },
    };
    if matches!(
        plan,
        Plan::Delete { .. } | Plan::Replace { .. } | Plan::Materialize { .. }
    ) {
        run.counts[0].set(result.affected as u64);
    }
    let counts = run.counts.into_iter().map(Cell::into_inner).collect();
    Ok((result, counts))
}

/// Output column labels of a row-producing plan.
fn output_columns(plan: &Plan) -> Vec<String> {
    match plan {
        Plan::Project { targets, .. }
        | Plan::Aggregate { targets, .. }
        | Plan::ConstRow { targets } => targets.iter().map(|t| t.name.clone()).collect(),
        Plan::Sort { child, .. } | Plan::Limit { child, .. } | Plan::Materialize { child, .. } => {
            output_columns(child)
        }
        _ => Vec::new(),
    }
}

/// A node's inputs, outer before inner.
fn inputs(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::Scan(_) | Plan::ConstRow { .. } | Plan::Append { .. } => Vec::new(),
        Plan::NestLoop { outer, inner, .. } => vec![outer, inner],
        Plan::Filter { child, .. }
        | Plan::Project { child, .. }
        | Plan::Aggregate { child, .. }
        | Plan::Sort { child, .. }
        | Plan::Limit { child, .. }
        | Plan::Materialize { child, .. }
        | Plan::Delete { child, .. }
        | Plan::Replace { child, .. } => vec![child],
    }
}

/// The number of nodes in a subtree.
fn size(plan: &Plan) -> usize {
    1 + inputs(plan).into_iter().map(size).sum::<usize>()
}

/// The scope of a join-side node's tuples.
fn scope(plan: &Plan) -> Scope<'_> {
    match plan {
        Plan::Scan(sp) => vec![(sp.var.as_str(), &sp.schema)],
        _ => inputs(plan).into_iter().flat_map(scope).collect(),
    }
}

fn make_binding<'a>(scope: &[(&'a str, &'a Schema)], tuple: &'a [(Tid, Row)]) -> Binding<'a> {
    Binding {
        vars: scope
            .iter()
            .zip(tuple)
            .map(|(&(v, sch), (_, row))| (v, sch, row))
            .collect(),
    }
}

/// A finished result row, as it travels between nodes.
fn result_tuple(row: Row) -> Tuple {
    vec![(Tid::MAX, row)]
}

/// Hands `items` to `out` in order until it asks to stop.
fn push_all(
    s: &mut Session,
    items: impl IntoIterator<Item = Tuple>,
    out: &mut impl FnMut(&mut Session, Tuple) -> DbResult<bool>,
) -> DbResult<bool> {
    for t in items {
        if !out(s, t)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// One run of a plan. Its state is indexed by each node's preorder
/// position.
struct Run {
    /// Each node's output-row count; an inner scan's accumulates over every
    /// outer row.
    counts: Vec<Cell<u64>>,
    /// Each scan's rows, pushed-down filter applied (empty for other
    /// nodes).
    rows: Vec<Vec<(Tid, Row)>>,
}

impl Run {
    /// Opens every node in preorder before any row flows: a scan reads its
    /// rows (evaluating its `as_of` bracket and pushed filter once), and a
    /// sort resolves its keys.
    fn open(s: &mut Session, plan: &Plan) -> DbResult<Run> {
        fn open_node(
            s: &mut Session,
            plan: &Plan,
            rows: &mut Vec<Vec<(Tid, Row)>>,
        ) -> DbResult<()> {
            rows.push(match plan {
                Plan::Scan(sp) => read_scan(s, sp)?,
                Plan::Sort { keys, child } => {
                    sort_rows(&output_columns(child), keys, &mut [])?;
                    Vec::new()
                }
                _ => Vec::new(),
            });
            inputs(plan)
                .into_iter()
                .try_for_each(|p| open_node(s, p, rows))
        }
        let mut rows = Vec::new();
        open_node(s, plan, &mut rows)?;
        Ok(Run {
            counts: (0..rows.len()).map(|_| Cell::new(0)).collect(),
            rows,
        })
    }

    /// Pushes each row of `plan` (the node at preorder position `at`) into
    /// `emit`, in order. Returns `false` when `emit` stopped it.
    fn push(&self, s: &mut Session, plan: &Plan, at: usize, emit: &mut Emit<'_>) -> DbResult<bool> {
        let count = &self.counts[at];
        let mut out = |s: &mut Session, t: Tuple| {
            count.set(count.get() + 1);
            emit(s, t)
        };
        match plan {
            Plan::Scan(_) => push_all(s, self.rows[at].iter().map(|r| vec![r.clone()]), &mut out),
            // The inner side runs once per outer row, in the reference
            // interpreter's odometer order.
            Plan::NestLoop { outer, inner, .. } => {
                let inner_at = at + 1 + size(outer);
                self.push(s, outer, at + 1, &mut |s, o| {
                    self.push(s, inner, inner_at, &mut |s, i| {
                        let mut t = o.clone();
                        t.extend(i);
                        out(s, t)
                    })
                })
            }
            Plan::Filter { qual, child } => {
                let scope = scope(child);
                self.push(s, child, at + 1, &mut |s, t| {
                    if eval(s, &make_binding(&scope, &t), qual)?.as_bool()? {
                        out(s, t)
                    } else {
                        Ok(true)
                    }
                })
            }
            Plan::Project { targets, child } => {
                let scope = scope(child);
                self.push(s, child, at + 1, &mut |s, t| {
                    let binding = make_binding(&scope, &t);
                    let row = targets
                        .iter()
                        .map(|tg| eval(s, &binding, &tg.expr))
                        .collect::<DbResult<Row>>()?;
                    out(s, result_tuple(row))
                })
            }
            Plan::ConstRow { targets } => {
                let row = targets
                    .iter()
                    .map(|tg| eval(s, &Binding::empty(), &tg.expr))
                    .collect::<DbResult<Row>>()?;
                out(s, result_tuple(row))
            }
            Plan::Aggregate {
                targets,
                grouped,
                child,
            } => {
                let rows = self.aggregate(s, targets, *grouped, child, at + 1)?;
                push_all(s, rows.into_iter().map(result_tuple), &mut out)
            }
            Plan::Sort { keys, child } => {
                let mut rows = self.collect(s, child, at + 1)?;
                sort_rows(&output_columns(child), keys, &mut rows)?;
                push_all(s, rows.into_iter().map(result_tuple), &mut out)
            }
            // Stops its input right after the n-th row; `limit 0` never
            // starts it.
            Plan::Limit { n, child } => {
                let mut left = *n;
                let mut more = true;
                if left > 0 {
                    self.push(s, child, at + 1, &mut |s, t| {
                        left -= 1;
                        more = out(s, t)?;
                        Ok(more && left > 0)
                    })?;
                }
                Ok(more)
            }
            other => Err(DbError::Invalid(format!(
                "plan node cannot produce rows: {other:?}"
            ))),
        }
    }

    /// Walks `plan` to its end and keeps each result row.
    fn collect(&self, s: &mut Session, plan: &Plan, at: usize) -> DbResult<Vec<Row>> {
        let mut rows = Vec::new();
        self.push(s, plan, at, &mut |_, mut t| {
            rows.extend(t.pop().map(|(_, r)| r));
            Ok(true)
        })?;
        Ok(rows)
    }

    /// Walks the aggregate's input through its accumulators and returns one
    /// row per group, in the order the groups first appear. An ungrouped
    /// aggregate is the empty-key group, made before any row arrives, so it
    /// emits one row even over no input.
    fn aggregate(
        &self,
        s: &mut Session,
        targets: &[Target],
        grouped: bool,
        child: &Plan,
        at: usize,
    ) -> DbResult<Vec<Row>> {
        let scope = scope(child);
        let new_group = || {
            targets
                .iter()
                .filter(|t| is_aggregate(&t.expr))
                .map(|t| Accumulator::for_target(&t.expr))
                .collect::<DbResult<Vec<_>>>()
        };
        let mut groups: Vec<(Vec<Datum>, Vec<Accumulator>)> = Vec::new();
        let mut group_index = std::collections::HashMap::new();
        if !grouped {
            groups.push((Vec::new(), new_group()?));
            group_index.insert(crate::datum::encode_row(&[]), 0);
        }
        self.push(s, child, at, &mut |s, t| {
            let binding = make_binding(&scope, &t);
            let mut key = Vec::new();
            let mut args = Vec::new();
            let mut ai = 0;
            for tg in targets {
                match &tg.expr {
                    Expr::Call { args: a, .. } if is_aggregate(&tg.expr) => {
                        let v = match a.first() {
                            Some(a) => eval(s, &binding, a)?,
                            None => Datum::Int8(1), // count() counts rows.
                        };
                        // Without group keys the group is known before any
                        // target is evaluated, so each value goes in at once.
                        if grouped {
                            args.push(v);
                        } else {
                            groups[0].1[ai].add(v)?;
                        }
                        ai += 1;
                    }
                    e => key.push(eval(s, &binding, e)?),
                }
            }
            let key_bytes = crate::datum::encode_row(&key);
            let gi = match group_index.get(&key_bytes) {
                Some(&gi) => gi,
                None => {
                    groups.push((key, new_group()?));
                    group_index.insert(key_bytes, groups.len() - 1);
                    groups.len() - 1
                }
            };
            for (acc, v) in groups[gi].1.iter_mut().zip(args) {
                acc.add(v)?;
            }
            Ok(true)
        })?;
        groups
            .into_iter()
            .map(|(key, accs)| {
                let mut finished = accs.into_iter().map(Accumulator::finish);
                let mut key_it = key.into_iter();
                targets
                    .iter()
                    .map(|t| {
                        let v = if is_aggregate(&t.expr) {
                            finished.next()
                        } else {
                            key_it.next()
                        };
                        v.ok_or_else(|| DbError::Invalid("group row is short of values".into()))
                    })
                    .collect()
            })
            .collect()
    }
}

/// Reads one scan's rows through the chosen access method and applies the
/// pushed-down filter.
fn read_scan(s: &mut Session, sp: &ScanPlan) -> DbResult<Vec<(Tid, Row)>> {
    let mut rows: Vec<(Tid, Row)> = match sp.rel {
        None => {
            let table = s.db().virtual_table(&sp.rel_name).ok_or_else(|| {
                DbError::NotFound(format!("relation \"{}\"", sp.rel_name))
            })?;
            (table.rows)(s.db())
                .into_iter()
                .enumerate()
                .map(|(i, r)| (Tid::new((i >> 16) as u32, (i & 0xffff) as u16), r))
                .collect()
        }
        Some(rel) => {
            // `rel[t]` reads on a session of the past.
            let mut past = match &sp.as_of {
                Some(e) => {
                    let t = eval(s, &Binding::empty(), e)?.as_int()?;
                    Some(s.db().snapshot_at(SimInstant::from_nanos(t.max(0) as u64)))
                }
                None => None,
            };
            let r = past.as_mut().unwrap_or(s);
            match &sp.access {
                Access::Seq => r.seq_scan(rel)?,
                Access::IndexEq { index, key, .. } => {
                    r.index_scan_eq(*index, std::slice::from_ref(key))?
                }
                Access::IndexRange { index, lo, hi, .. } => {
                    let lo_key: Option<Vec<Datum>> = lo.as_ref().map(|d| vec![d.clone()]);
                    let hi_key: Option<Vec<Datum>> = hi.as_ref().map(|d| vec![d.clone()]);
                    let mut out = Vec::new();
                    r.index_scan_range(*index, lo_key.as_deref(), hi_key.as_deref(), |tid, row| {
                        out.push((tid, row));
                        Ok(true)
                    })?;
                    out
                }
            }
        }
    };
    if let Some(f) = &sp.filter {
        let mut kept = Vec::with_capacity(rows.len());
        for (tid, row) in rows {
            let keep = {
                let binding = Binding::single(&sp.var, &sp.schema, &row);
                eval(s, &binding, f)?.as_bool()?
            };
            if keep {
                kept.push((tid, row));
            }
        }
        rows = kept;
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Shared helpers (used by the planner and the reference interpreter too).

/// Aggregate function names reserved by the executor.
const AGGREGATES: [&str; 5] = ["count", "sum", "avg", "min", "max"];

pub(crate) fn is_aggregate(e: &Expr) -> bool {
    matches!(e, Expr::Call { name, .. }
        if AGGREGATES.iter().any(|a| name.eq_ignore_ascii_case(a)))
}

/// Running state for one aggregate target.
pub(crate) enum Accumulator {
    Count(i64),
    Sum(f64, bool),      // (sum, any_float)
    Avg(f64, i64, bool), // (sum, n, any_float)
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl Accumulator {
    pub(crate) fn for_target(e: &Expr) -> DbResult<Accumulator> {
        let Expr::Call { name, args } = e else {
            return Err(DbError::Bind("not an aggregate".into()));
        };
        if args.len() > 1 {
            return Err(DbError::Bind(format!("{name} takes at most one argument")));
        }
        Ok(match name.to_ascii_lowercase().as_str() {
            "count" => Accumulator::Count(0),
            "sum" => Accumulator::Sum(0.0, false),
            "avg" => Accumulator::Avg(0.0, 0, false),
            "min" => Accumulator::Min(None),
            "max" => Accumulator::Max(None),
            other => return Err(DbError::Bind(format!("unknown aggregate {other}"))),
        })
    }

    pub(crate) fn add(&mut self, v: Datum) -> DbResult<()> {
        if v == Datum::Null {
            return Ok(()); // Nulls do not participate, SQL-style.
        }
        match self {
            Accumulator::Count(n) => *n += 1,
            Accumulator::Sum(sum, float) => {
                *float |= matches!(v, Datum::Float8(_));
                *sum += v.as_float()?;
            }
            Accumulator::Avg(sum, n, float) => {
                *float |= matches!(v, Datum::Float8(_));
                *sum += v.as_float()?;
                *n += 1;
            }
            Accumulator::Min(cur) => {
                let better = cur
                    .as_ref()
                    .map(|c| v.cmp_total(c) == std::cmp::Ordering::Less)
                    .unwrap_or(true);
                if better {
                    *cur = Some(v);
                }
            }
            Accumulator::Max(cur) => {
                let better = cur
                    .as_ref()
                    .map(|c| v.cmp_total(c) == std::cmp::Ordering::Greater)
                    .unwrap_or(true);
                if better {
                    *cur = Some(v);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Datum {
        match self {
            Accumulator::Count(n) => Datum::Int8(n),
            Accumulator::Sum(sum, true) => Datum::Float8(sum),
            Accumulator::Sum(sum, false) => Datum::Int8(sum as i64),
            Accumulator::Avg(_, 0, _) => Datum::Null,
            Accumulator::Avg(sum, n, _) => Datum::Float8(sum / n as f64),
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Datum::Null),
        }
    }
}

/// Sorts result rows by the named output columns. The sort is stable, so
/// rows with equal keys keep their input order.
pub(crate) fn sort_rows(
    columns: &[String],
    sort: &[(String, bool)],
    rows: &mut [Row],
) -> DbResult<()> {
    if sort.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::with_capacity(sort.len());
    for (name, desc) in sort {
        let i = columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| DbError::Bind(format!("sort by unknown column \"{name}\"")))?;
        keys.push((i, *desc));
    }
    rows.sort_by(|a, b| {
        for &(i, desc) in &keys {
            let ord = a[i].cmp_total(&b[i]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

pub(crate) fn targets_reference_columns(targets: &[Target]) -> bool {
    fn walk(e: &Expr) -> bool {
        match e {
            Expr::Column { .. } => true,
            Expr::Lit(_) => false,
            Expr::Call { args, .. } => args.iter().any(walk),
            Expr::Binary { lhs, rhs, .. } => walk(lhs) || walk(rhs),
            Expr::Not(e) | Expr::Neg(e) => walk(e),
        }
    }
    targets.iter().any(|t| walk(&t.expr))
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
            Schema::new([
                ("name", TypeId::TEXT),
                ("age", TypeId::INT4),
                ("dept", TypeId::TEXT),
            ]),
        )
        .unwrap();
        let mut s = db.begin().unwrap();
        for (n, a, d) in [
            ("mao", 29, "db"),
            ("mike", 45, "db"),
            ("margo", 35, "fs"),
            ("randy", 40, "arch"),
        ] {
            s.query(&format!(
                r#"append emp (name = "{n}", age = {a}, dept = "{d}")"#
            ))
            .unwrap();
        }
        s.commit().unwrap();
        db
    }

    #[test]
    fn retrieve_constant() {
        let db = Db::open_in_memory().unwrap();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (two = 1 + 1, greeting = \"hi\")")
            .unwrap();
        assert_eq!(r.columns, vec!["two", "greeting"]);
        assert_eq!(r.rows, vec![vec![Datum::Int8(2), Datum::Text("hi".into())]]);
        s.commit().unwrap();
    }

    #[test]
    fn retrieve_with_qual() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (e.name) from e in emp where e.age > 34 and e.dept = "db""#)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Text("mike".into())]]);
        s.commit().unwrap();
    }

    #[test]
    fn retrieve_unqualified_single_rel() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (name, age) from e in emp where age < 30"#)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Text("mao".into()));
        s.commit().unwrap();
    }

    #[test]
    fn join_two_relations() {
        let db = setup();
        db.create_table(
            "dept",
            Schema::new([("dname", TypeId::TEXT), ("floor", TypeId::INT4)]),
        )
        .unwrap();
        let mut s = db.begin().unwrap();
        s.query(r#"append dept (dname = "db", floor = 4)"#).unwrap();
        s.query(r#"append dept (dname = "fs", floor = 5)"#).unwrap();
        let r = s
            .query(
                "retrieve (e.name, d.floor) from e in emp, d in dept \
                 where e.dept = d.dname and d.floor = 4",
            )
            .unwrap();
        let mut names: Vec<String> = r
            .rows
            .iter()
            .map(|row| row[0].as_text().unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["mao", "mike"]);
        s.commit().unwrap();
    }

    #[test]
    fn index_used_for_equality_pin() {
        let db = setup();
        let rel = db.relation_id("emp").unwrap();
        db.create_index("emp_name", rel, &["name"]).unwrap();
        let before = db.buffer_stats();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (e.age) from e in emp where e.name = "randy""#)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int4(40)]]);
        s.commit().unwrap();
        // Weak but real signal that we did not scan every heap page: the
        // index path touches the btree meta+root and one heap page.
        let after = db.buffer_stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
    }

    #[test]
    fn cross_type_equality_does_not_use_index() {
        // `e.age = 5.0` on an INT4 column: probing the btree with a float
        // key's encoding would miss every row, while predicate evaluation
        // compares across numeric types. The planner must refuse the index.
        let db = setup();
        let rel = db.relation_id("emp").unwrap();
        db.create_index("emp_age", rel, &["age"]).unwrap();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (e.name) from e in emp where e.age = 35.0")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Text("margo".into())]]);
        let plan = s
            .query("explain retrieve (e.name) from e in emp where e.age = 35.0")
            .unwrap();
        let text = plan.to_table();
        assert!(text.contains("Seq Scan"), "{text}");
        // A literal that cannot coerce (out of int4 range) must not error,
        // and must not use the index either: the row set is simply empty.
        let r = s
            .query("retrieve (e.name) from e in emp where e.age = 5000000000")
            .unwrap();
        assert!(r.rows.is_empty());
        // Null pins never probe the index (and match nothing).
        let r = s
            .query("retrieve (e.name) from e in emp where e.age = null")
            .unwrap();
        assert!(r.rows.is_empty());
        // Type-matched pins still do use it.
        let plan = s
            .query("explain retrieve (e.name) from e in emp where e.age = 35")
            .unwrap();
        assert!(plan.to_table().contains("Index Scan"), "{}", plan.to_table());
        s.commit().unwrap();
    }

    #[test]
    fn delete_and_replace() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"delete e from e in emp where e.age >= 40"#)
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = s
            .query(r#"replace e (age = e.age + 1) from e in emp where e.dept = "db""#)
            .unwrap();
        assert_eq!(r.affected, 1); // Only mao remains in db.
        let r = s.query("retrieve (e.name, e.age) from e in emp").unwrap();
        assert_eq!(r.rows.len(), 2);
        s.commit().unwrap();

        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (e.age) from e in emp where e.name = "mao""#)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int4(30)]]);
        s.commit().unwrap();
    }

    #[test]
    fn time_travel_bracket_in_from() {
        let db = setup();
        let t0 = db.now().as_nanos();
        let mut s = db.begin().unwrap();
        s.query(r#"delete e from e in emp"#).unwrap();
        s.commit().unwrap();

        let mut s = db.begin().unwrap();
        let r = s.query("retrieve (e.name) from e in emp").unwrap();
        assert!(r.rows.is_empty());
        let r = s
            .query(&format!("retrieve (e.name) from e in emp[{t0}]"))
            .unwrap();
        assert_eq!(r.rows.len(), 4, "historical scan sees the old rows");
        s.commit().unwrap();
    }

    #[test]
    fn define_statements() {
        let db = setup();
        let mut s = db.begin().unwrap();
        s.query("define type tm").unwrap();
        db.functions()
            .register("t.const", |_s, _a| Ok(Datum::Int8(7)));
        s.query(r#"define function seven (0) returns int8 as "t.const""#)
            .unwrap();
        let r = s.query("retrieve (x = seven())").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(7));
        s.query(r#"define rule cold on periodic to emp where age > 100 do seven()"#)
            .unwrap();
        s.commit().unwrap();
        assert_eq!(db.catalog().rules().len(), 1);
    }

    #[test]
    fn append_missing_column_defaults_null() {
        let db = setup();
        let mut s = db.begin().unwrap();
        s.query(r#"append emp (name = "ghost")"#).unwrap();
        let r = s
            .query(r#"retrieve (e.age) from e in emp where e.name = "ghost""#)
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Null]]);
        s.commit().unwrap();
    }

    #[test]
    fn errors_reported() {
        let db = setup();
        let mut s = db.begin().unwrap();
        assert!(matches!(
            s.query("retrieve (x.y) from x in nope"),
            Err(DbError::NotFound(_))
        ));
        assert!(matches!(
            s.query("append emp (salary = 1)"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(s.query("retrieve (zzz)"), Err(DbError::Bind(_))));
        s.abort().unwrap();
    }

    #[test]
    fn result_table_rendering() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (e.name, e.age) from e in emp where e.age = 29"#)
            .unwrap();
        let table = r.to_table();
        assert!(table.contains("name"));
        assert!(table.contains("mao"));
        assert!(table.contains("(1 rows)"));
        let r = s
            .query(r#"delete e from e in emp where e.age = 29"#)
            .unwrap();
        assert!(r.to_table().contains("(1 rows affected)"));
        s.commit().unwrap();
    }

    #[test]
    fn limit_caps_output_after_sort() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (e.name, e.age) from e in emp sort by age desc limit 2")
            .unwrap();
        let names: Vec<&str> = r.rows.iter().map(|r| r[0].as_text().unwrap()).collect();
        assert_eq!(names, vec!["mike", "randy"]);
        let r = s
            .query("retrieve (e.name) from e in emp limit 0")
            .unwrap();
        assert!(r.rows.is_empty());
        let r = s.query("retrieve (x = 1) limit 0").unwrap();
        assert!(r.rows.is_empty());
        s.commit().unwrap();
    }
}

#[cfg(test)]
mod explain_tests {
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
        db.create_index("emp_name", rel, &["name"]).unwrap();
        let mut s = db.begin().unwrap();
        for (n, a) in [("mao", 29), ("mike", 45), ("margo", 35)] {
            s.query(&format!(r#"append emp (name = "{n}", age = {a})"#))
                .unwrap();
        }
        s.commit().unwrap();
        db
    }

    fn plan_text(db: &Db, q: &str) -> String {
        let mut s = db.begin().unwrap();
        let r = s.query(q).unwrap();
        s.commit().unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        r.rows
            .iter()
            .map(|row| row[0].as_text().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_shows_access_choice() {
        let db = setup();
        let seq = plan_text(&db, "explain retrieve (e.age) from e in emp where e.age > 30");
        assert!(seq.contains("Seq Scan on emp as e"), "{seq}");
        assert!(seq.contains("Project"), "{seq}");
        let idx = plan_text(
            &db,
            r#"explain retrieve (e.age) from e in emp where e.name = "mike""#,
        );
        assert!(
            idx.contains("Index Scan on emp as e using emp_name"),
            "{idx}"
        );
    }

    #[test]
    fn explain_does_not_run_the_statement() {
        let db = setup();
        let mut s = db.begin().unwrap();
        s.query("explain delete e from e in emp").unwrap();
        let r = s.query("retrieve (n = count()) from e in emp").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(3), "rows survived the explain");
        s.commit().unwrap();
    }

    #[test]
    fn explain_analyze_reports_row_counts() {
        let db = setup();
        let text = plan_text(
            &db,
            "explain analyze retrieve (e.name) from e in emp where e.age > 30 sort by name",
        );
        // Sort and Project both saw two rows; the scan emitted two of three.
        assert!(text.contains("Sort (name) (rows=2)"), "{text}");
        assert!(text.contains("(rows=2)"), "{text}");
        assert!(text.contains("Seq Scan"), "{text}");
    }

    #[test]
    fn explain_join_and_pushdown_shape() {
        let db = setup();
        db.create_table(
            "dept",
            Schema::new([("dname", TypeId::TEXT), ("floor", TypeId::INT4)]),
        )
        .unwrap();
        let text = plan_text(
            &db,
            "explain retrieve (e.name, d.floor) from e in emp, d in dept \
             where e.name = d.dname and e.age > 30 and d.floor = 4",
        );
        assert!(text.contains("Nested Loop"), "{text}");
        // Single-variable conjuncts went below the join...
        assert!(text.contains("filter (e.age > 30)"), "{text}");
        assert!(text.contains("filter (d.floor = 4)"), "{text}");
        // ...while the join predicate stayed above it.
        assert!(text.contains("Filter (e.name = d.dname)"), "{text}");
    }

    #[test]
    fn planner_counters_track_choices() {
        let db = setup();
        let p = || {
            let reg = db.stats_registry();
            (
                reg.planner.plans_built.get(),
                reg.planner.index_scans_chosen.get(),
                reg.planner.seq_scans_chosen.get(),
                reg.planner.joins_planned.get(),
            )
        };
        let before = p();
        let mut s = db.begin().unwrap();
        s.query(r#"retrieve (e.age) from e in emp where e.name = "mike""#)
            .unwrap();
        s.query("retrieve (e.age) from e in emp").unwrap();
        s.query("retrieve (a.age, b.age) from a in emp, b in emp")
            .unwrap();
        s.commit().unwrap();
        let after = p();
        assert_eq!(after.0 - before.0, 3, "plans built");
        assert_eq!(after.1 - before.1, 1, "index scans chosen");
        assert_eq!(after.2 - before.2, 3, "seq scans chosen");
        assert_eq!(after.3 - before.3, 1, "joins planned");
        // And the counters are visible through the virtual relation.
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (p.plans_built, p.index_scans_chosen) from p in pg_stat_planner")
            .unwrap();
        assert!(r.rows[0][0].as_int().unwrap() >= 4);
        assert!(r.rows[0][1].as_int().unwrap() >= 1);
        s.commit().unwrap();
    }

    #[test]
    fn explain_rejects_ddl() {
        let db = setup();
        let mut s = db.begin().unwrap();
        assert!(s.query("explain define type blob").is_err());
        s.abort().unwrap();
    }
}

#[cfg(test)]
mod agg_tests {
    use super::*;
    use crate::datum::TypeId;
    use crate::db::Db;

    fn setup() -> Db {
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
        s.commit().unwrap();
        db
    }

    #[test]
    fn count_sum_avg_min_max() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (n = count(), s = sum(e.age), a = avg(e.age), lo = min(e.age), hi = max(e.age)) from e in emp")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![
                Datum::Int8(5),
                Datum::Int8(180),
                Datum::Float8(36.0),
                Datum::Int4(29),
                Datum::Int4(45),
            ]]
        );
        s.commit().unwrap();
    }

    #[test]
    fn aggregates_respect_quals() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query(r#"retrieve (n = count(), a = avg(e.age)) from e in emp where e.dept = "db""#)
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(3));
        assert_eq!(r.rows[0][1], Datum::Float8(35.0));
        s.commit().unwrap();
    }

    #[test]
    fn aggregates_over_empty_set() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (n = count(), a = avg(e.age), lo = min(e.age)) from e in emp where e.age > 100")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int8(0), Datum::Null, Datum::Null]]);
        s.commit().unwrap();
    }

    #[test]
    fn mixing_aggregates_and_columns_groups_implicitly() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (e.dept, n = count(), a = avg(e.age)) from e in emp sort by dept")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![
                    Datum::Text("arch".into()),
                    Datum::Int8(1),
                    Datum::Float8(40.0)
                ],
                vec![
                    Datum::Text("db".into()),
                    Datum::Int8(3),
                    Datum::Float8(35.0)
                ],
                vec![
                    Datum::Text("fs".into()),
                    Datum::Int8(1),
                    Datum::Float8(35.0)
                ],
            ]
        );
        // Aggregate-before-key column order works too.
        let r = s
            .query("retrieve (hi = max(e.age), e.dept) from e in emp sort by dept")
            .unwrap();
        assert_eq!(r.rows[1], vec![Datum::Int4(45), Datum::Text("db".into())]);
        // A group over an empty qualification yields no rows.
        let r = s
            .query("retrieve (e.dept, n = count()) from e in emp where e.age > 100")
            .unwrap();
        assert!(r.rows.is_empty());
        s.abort().unwrap();
    }

    #[test]
    fn sort_by_orders_output() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (e.name, e.age) from e in emp sort by age")
            .unwrap();
        let ages: Vec<i64> = r.rows.iter().map(|row| row[1].as_int().unwrap()).collect();
        assert_eq!(ages, vec![29, 31, 35, 40, 45]);
        let r = s
            .query("retrieve (e.name, e.age) from e in emp sort by age desc")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Text("mike".into()));
        s.commit().unwrap();
    }

    #[test]
    fn sort_by_multiple_keys_and_errors() {
        let db = setup();
        let mut s = db.begin().unwrap();
        let r = s
            .query("retrieve (e.dept, e.name) from e in emp sort by dept asc, name desc")
            .unwrap();
        let pairs: Vec<(String, String)> = r
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].as_text().unwrap().to_string(),
                    row[1].as_text().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(pairs[0].0, "arch");
        // Within "db", names descend.
        let db_names: Vec<&str> = pairs
            .iter()
            .filter(|(d, _)| d == "db")
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(db_names, vec!["wei", "mike", "mao"]);
        assert!(matches!(
            s.query("retrieve (e.name) from e in emp sort by salary"),
            Err(DbError::Bind(_))
        ));
        s.commit().unwrap();
    }

    #[test]
    fn count_with_argument_skips_nulls() {
        let db = setup();
        let mut s = db.begin().unwrap();
        s.query(r#"append emp (name = "ghost")"#).unwrap(); // age is null
        let r = s
            .query("retrieve (n = count(e.age)) from e in emp")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(5));
        let r = s.query("retrieve (n = count()) from e in emp").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(6));
        s.commit().unwrap();
    }
}

#[cfg(test)]
mod into_tests {
    use super::*;
    use crate::datum::TypeId;
    use crate::db::Db;

    #[test]
    fn retrieve_into_materializes_a_table() {
        let db = Db::open_in_memory().unwrap();
        db.create_table(
            "emp",
            Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
        )
        .unwrap();
        let mut s = db.begin().unwrap();
        for (n, a) in [("mao", 29), ("mike", 45), ("margo", 35)] {
            s.query(&format!(r#"append emp (name = "{n}", age = {a})"#))
                .unwrap();
        }
        let r = s
            .query(r#"retrieve into elders (e.name, e.age) from e in emp where e.age > 30 sort by age"#)
            .unwrap();
        assert_eq!(r.affected, 2);
        let rows = s
            .query("retrieve (x.name) from x in elders sort by name")
            .unwrap();
        assert_eq!(
            rows.rows,
            vec![
                vec![Datum::Text("margo".into())],
                vec![Datum::Text("mike".into())]
            ]
        );
        s.commit().unwrap();
        // The new table is a first-class relation with the right schema.
        let rel = db.relation_id("elders").unwrap();
        let schema = db.schema_of(rel).unwrap();
        assert_eq!(schema.columns[1].ty, TypeId::INT4);
    }

    #[test]
    fn retrieve_into_existing_name_fails() {
        let db = Db::open_in_memory().unwrap();
        db.create_table("t", Schema::new([("v", TypeId::INT4)]))
            .unwrap();
        let mut s = db.begin().unwrap();
        s.query("append t (v = 1)").unwrap();
        assert!(matches!(
            s.query("retrieve into t (e.v) from e in t"),
            Err(DbError::AlreadyExists(_))
        ));
        s.abort().unwrap();
    }

    #[test]
    fn retrieve_into_with_aggregates() {
        let db = Db::open_in_memory().unwrap();
        db.create_table("t", Schema::new([("v", TypeId::INT4)]))
            .unwrap();
        let mut s = db.begin().unwrap();
        for v in [1, 2, 3] {
            s.query(&format!("append t (v = {v})")).unwrap();
        }
        s.query("retrieve into summary (n = count(), total = sum(e.v)) from e in t")
            .unwrap();
        let r = s
            .query("retrieve (x.n, x.total) from x in summary")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int8(3), Datum::Int8(6)]]);
        s.commit().unwrap();
    }
}
