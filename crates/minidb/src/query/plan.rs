//! The plan tree: a physical description of how a statement will run,
//! produced by the planner and walked by the push executor.
//!
//! Every node reads like one line of `EXPLAIN` output; [`Plan::render`]
//! walks the tree in preorder, which is also the order the executor
//! reports per-node row counts in for `EXPLAIN ANALYZE`.

use crate::datum::{Datum, Schema};
use crate::ids::RelId;

use super::ast::{Expr, Target};
use super::parser::expr_to_source;

/// How a scan node reaches its rows.
#[derive(Debug, Clone)]
pub enum Access {
    /// Read every visible tuple (of a virtual relation: every row it
    /// materializes).
    Seq,
    /// Probe a B-tree index for one key.
    IndexEq {
        /// The index relation.
        index: RelId,
        /// Its catalog name (for display).
        index_name: String,
        /// Indexed column position in the table schema.
        col: usize,
        /// The probe key, already coerced to the column type.
        key: Datum,
    },
    /// Walk a B-tree index between two keys (inclusive superset of the
    /// predicate's range; strict bounds are re-checked by the scan filter).
    IndexRange {
        /// The index relation.
        index: RelId,
        /// Its catalog name (for display).
        index_name: String,
        /// Indexed column position in the table schema.
        col: usize,
        /// Lower bound, if any.
        lo: Option<Datum>,
        /// Upper bound, if any.
        hi: Option<Datum>,
    },
}

/// A scan leaf: one range variable's row source plus any pushed-down
/// filter conjuncts.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// The range variable this scan feeds.
    pub var: String,
    /// Relation name (for display).
    pub rel_name: String,
    /// Heap relation id; `None` marks a virtual system relation
    /// (`pg_stat_*` and friends), materialized when the scan opens.
    pub rel: Option<RelId>,
    /// The relation's schema.
    pub schema: Schema,
    /// Time-travel bracket, evaluated when the scan opens.
    pub as_of: Option<Expr>,
    /// The access method the planner chose.
    pub access: Access,
    /// Conjuncts pushed below the join, evaluated per scanned row.
    pub filter: Option<Expr>,
    /// Heap pages, the cost model's cardinality input.
    pub est_pages: u64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cost in page-read units.
    pub est_cost: f64,
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Leaf scan (boxed: `ScanPlan` dwarfs every other variant).
    Scan(Box<ScanPlan>),
    /// Nested-loop join; `inner` runs once per outer tuple.
    NestLoop {
        /// Outer (driving) input.
        outer: Box<Plan>,
        /// Inner input, run once per outer tuple.
        inner: Box<Plan>,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Residual qualification above the joins.
    Filter {
        /// The predicate.
        qual: Expr,
        /// Input node.
        child: Box<Plan>,
    },
    /// Per-tuple target evaluation.
    Project {
        /// The projection list.
        targets: Vec<Target>,
        /// Input node.
        child: Box<Plan>,
    },
    /// Blocking aggregation (plain or implicitly grouped).
    Aggregate {
        /// The projection list (aggregates plus group keys).
        targets: Vec<Target>,
        /// Group by the non-aggregate targets.
        grouped: bool,
        /// Input node.
        child: Box<Plan>,
    },
    /// A single constant row (`retrieve` with no `from` clause).
    ConstRow {
        /// The projection list.
        targets: Vec<Target>,
    },
    /// Stable sort of the full result.
    Sort {
        /// `(output column, descending)` keys.
        keys: Vec<(String, bool)>,
        /// Input node.
        child: Box<Plan>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// The cap.
        n: u64,
        /// Input node.
        child: Box<Plan>,
    },
    /// `retrieve into`: create a table from the result.
    Materialize {
        /// New table name.
        into: String,
        /// Input node.
        child: Box<Plan>,
    },
    /// `append` root.
    Append {
        /// Target relation.
        rel: RelId,
        /// Its catalog name.
        rel_name: String,
        /// Its schema.
        schema: Schema,
        /// `(column index, value expression)` assignments.
        values: Vec<(usize, Expr)>,
    },
    /// `delete` root: drains the child, then deletes the collected tids.
    Delete {
        /// Target relation.
        rel: RelId,
        /// Its catalog name.
        rel_name: String,
        /// Input scan (possibly filtered).
        child: Box<Plan>,
    },
    /// `replace` root: drains the child, then applies the assignments.
    Replace {
        /// Target relation.
        rel: RelId,
        /// Its catalog name.
        rel_name: String,
        /// Its schema.
        schema: Schema,
        /// `(column index, value expression)` assignments.
        values: Vec<(usize, Expr)>,
        /// Input scan (possibly filtered).
        child: Box<Plan>,
    },
}

impl Plan {
    /// Estimated output rows of this node.
    pub fn est_rows(&self) -> f64 {
        match self {
            Plan::Scan(s) => s.est_rows,
            Plan::NestLoop { est_rows, .. } => *est_rows,
            Plan::Filter { child, .. }
            | Plan::Sort { child, .. }
            | Plan::Materialize { child, .. }
            | Plan::Project { child, .. } => child.est_rows(),
            Plan::Aggregate { .. } | Plan::ConstRow { .. } | Plan::Append { .. } => 1.0,
            Plan::Limit { n, child } => child.est_rows().min(*n as f64),
            Plan::Delete { child, .. } | Plan::Replace { child, .. } => child.est_rows(),
        }
    }

    /// Renders the tree as indented `EXPLAIN` text. With `actuals` (per-node
    /// row counts in preorder, from an `analyze` run) each line gains an
    /// `(rows=N)` annotation.
    pub fn render(&self, actuals: Option<&[u64]>) -> String {
        let mut out = String::new();
        let mut idx = 0usize;
        self.render_into(&mut out, 0, actuals, &mut idx);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, actuals: Option<&[u64]>, idx: &mut usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        if depth > 0 {
            out.push_str("-> ");
        }
        out.push_str(&self.node_line());
        if let Some(counts) = actuals {
            let n = counts.get(*idx).copied().unwrap_or(0);
            out.push_str(&format!(" (rows={n})"));
        }
        *idx += 1;
        out.push('\n');
        match self {
            Plan::Scan(_) | Plan::ConstRow { .. } | Plan::Append { .. } => {}
            Plan::NestLoop { outer, inner, .. } => {
                outer.render_into(out, depth + 1, actuals, idx);
                inner.render_into(out, depth + 1, actuals, idx);
            }
            Plan::Filter { child, .. }
            | Plan::Project { child, .. }
            | Plan::Aggregate { child, .. }
            | Plan::Sort { child, .. }
            | Plan::Limit { child, .. }
            | Plan::Materialize { child, .. }
            | Plan::Delete { child, .. }
            | Plan::Replace { child, .. } => child.render_into(out, depth + 1, actuals, idx),
        }
    }

    fn node_line(&self) -> String {
        match self {
            Plan::Scan(s) => s.node_line(),
            Plan::NestLoop { est_rows, .. } => {
                format!("Nested Loop (est_rows={})", round(*est_rows))
            }
            Plan::Filter { qual, .. } => format!("Filter {}", expr_to_source(qual)),
            Plan::Project { targets, .. } => format!("Project ({})", target_names(targets)),
            Plan::Aggregate {
                targets, grouped, ..
            } => {
                let kind = if *grouped { "GroupAggregate" } else { "Aggregate" };
                format!("{kind} ({})", target_names(targets))
            }
            Plan::ConstRow { targets } => format!("Result ({})", target_names(targets)),
            Plan::Sort { keys, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|(k, desc)| {
                        if *desc {
                            format!("{k} desc")
                        } else {
                            k.clone()
                        }
                    })
                    .collect();
                format!("Sort ({})", keys.join(", "))
            }
            Plan::Limit { n, .. } => format!("Limit {n}"),
            Plan::Materialize { into, .. } => format!("Materialize into {into}"),
            Plan::Append {
                rel_name,
                schema,
                values,
                ..
            } => {
                let cols: Vec<&str> = values
                    .iter()
                    .map(|(i, _)| schema.columns[*i].name.as_str())
                    .collect();
                format!("Append on {rel_name} ({})", cols.join(", "))
            }
            Plan::Delete { rel_name, .. } => format!("Delete on {rel_name}"),
            Plan::Replace {
                rel_name,
                schema,
                values,
                ..
            } => {
                let cols: Vec<&str> = values
                    .iter()
                    .map(|(i, _)| schema.columns[*i].name.as_str())
                    .collect();
                format!("Replace on {rel_name} ({})", cols.join(", "))
            }
        }
    }
}

impl ScanPlan {
    fn node_line(&self) -> String {
        let mut line = match &self.access {
            _ if self.rel.is_none() => {
                format!("Virtual Scan on {} as {}", self.rel_name, self.var)
            }
            Access::Seq => format!("Seq Scan on {} as {}", self.rel_name, self.var),
            Access::IndexEq {
                index_name, col, key, ..
            } => format!(
                "Index Scan on {} as {} using {} ({} = {})",
                self.rel_name,
                self.var,
                index_name,
                self.schema.columns[*col].name,
                datum_src(key)
            ),
            Access::IndexRange {
                index_name,
                col,
                lo,
                hi,
                ..
            } => {
                let cname = &self.schema.columns[*col].name;
                let mut bounds = Vec::new();
                if let Some(lo) = lo {
                    bounds.push(format!("{cname} >= {}", datum_src(lo)));
                }
                if let Some(hi) = hi {
                    bounds.push(format!("{cname} <= {}", datum_src(hi)));
                }
                format!(
                    "Index Range Scan on {} as {} using {} ({})",
                    self.rel_name,
                    self.var,
                    index_name,
                    bounds.join(", ")
                )
            }
        };
        if let Some(e) = &self.as_of {
            line.push_str(&format!(" as of [{}]", expr_to_source(e)));
        }
        if let Some(f) = &self.filter {
            line.push_str(&format!(" filter {}", expr_to_source(f)));
        }
        if self.rel.is_some() {
            line.push_str(&format!(
                " (pages={}, est_rows={}, est_cost={:.2})",
                self.est_pages,
                round(self.est_rows),
                self.est_cost
            ));
        }
        line
    }
}

fn target_names(targets: &[Target]) -> String {
    let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
    names.join(", ")
}

fn datum_src(d: &Datum) -> String {
    expr_to_source(&Expr::Lit(d.clone()))
}

fn round(v: f64) -> u64 {
    v.round().max(0.0) as u64
}
