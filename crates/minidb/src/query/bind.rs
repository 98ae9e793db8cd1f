//! The binder: resolves relation and column names against the catalog.
//!
//! Binding is the first stage of the planned pipeline (bind → plan →
//! optimize → execute). It turns a parsed [`Stmt`] into a [`BoundStmt`]
//! whose range variables carry their [`RelId`]s and [`Schema`]s, whose
//! unqualified column references have been rewritten to qualified ones
//! (`age` → `e.age`), and whose assignment lists name column *indices*
//! instead of strings. Name errors therefore surface at bind time rather
//! than per-row during evaluation.

use crate::datum::Schema;
use crate::db::Session;
use crate::error::{DbError, DbResult};
use crate::ids::RelId;

use super::ast::{Expr, FromItem, Stmt, Target};
use super::exec::{is_aggregate, targets_reference_columns, validate_aggregate};

/// Where a bound range variable's rows come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSource {
    /// An ordinary heap relation.
    Heap(RelId),
    /// A virtual system relation (`pg_stat_*` and friends), materialized
    /// when the scan opens.
    Virtual,
}

/// One resolved `from` item.
#[derive(Debug, Clone)]
pub struct BoundFrom {
    /// The range variable.
    pub var: String,
    /// The relation's catalog name.
    pub rel_name: String,
    /// Heap relation id, or virtual.
    pub source: BoundSource,
    /// The relation's schema.
    pub schema: Schema,
    /// Time-travel bracket, evaluated when the scan opens.
    pub as_of: Option<Expr>,
}

/// A statement with every name resolved against the catalog.
#[derive(Debug, Clone)]
pub enum BoundStmt {
    /// A `retrieve` over at least one range variable.
    Retrieve {
        /// Materialize the result into a new table of this name.
        into: Option<String>,
        /// Projection list (columns qualified).
        targets: Vec<Target>,
        /// Resolved range variables, in `from`-clause order.
        from: Vec<BoundFrom>,
        /// Qualification (columns qualified).
        qual: Option<Expr>,
        /// Output ordering.
        sort: Vec<(String, bool)>,
        /// Row-count cap, applied after sorting.
        limit: Option<u64>,
        /// Any target is an aggregate call.
        aggregated: bool,
        /// Aggregates mixed with plain targets: group by the plain ones.
        grouped: bool,
    },
    /// A `retrieve` of constant expressions only (no `from` clause).
    ConstRetrieve {
        /// Materialize the result into a new table of this name.
        into: Option<String>,
        /// Projection list (no column references).
        targets: Vec<Target>,
        /// Row-count cap (`limit 0` silences even a constant row).
        limit: Option<u64>,
    },
    /// `append rel (...)` with assignments resolved to column indices.
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
    /// `delete var from var in rel [where qual]`.
    Delete {
        /// The range variable.
        var: String,
        /// Target relation.
        rel: RelId,
        /// Its catalog name.
        rel_name: String,
        /// Its schema.
        schema: Schema,
        /// Qualification (columns qualified).
        qual: Option<Expr>,
    },
    /// `replace var (...) [where qual]`.
    Replace {
        /// The range variable.
        var: String,
        /// Target relation.
        rel: RelId,
        /// Its catalog name.
        rel_name: String,
        /// Its schema.
        schema: Schema,
        /// `(column index, value expression)` assignments.
        values: Vec<(usize, Expr)>,
        /// Qualification (columns qualified).
        qual: Option<Expr>,
    },
}

/// Resolves every name in `stmt` against the catalog. Only the four DML
/// statements reach the binder; DDL executes directly.
pub fn bind(session: &mut Session, stmt: Stmt) -> DbResult<BoundStmt> {
    match stmt {
        Stmt::Retrieve {
            into,
            targets,
            from,
            qual,
            sort,
            limit,
        } => bind_retrieve(session, into, targets, from, qual, sort, limit),
        Stmt::Append { rel, values } => bind_append(session, &rel, values),
        Stmt::Delete { var, rel, qual } => bind_delete(session, var, &rel, qual),
        Stmt::Replace {
            var,
            rel,
            values,
            qual,
        } => bind_replace(session, var, &rel, values, qual),
        other => Err(DbError::Invalid(format!(
            "statement does not go through the planner: {other:?}"
        ))),
    }
}

fn bind_retrieve(
    session: &mut Session,
    into: Option<String>,
    mut targets: Vec<Target>,
    from: Vec<FromItem>,
    mut qual: Option<Expr>,
    sort: Vec<(String, bool)>,
    limit: Option<u64>,
) -> DbResult<BoundStmt> {
    let aggregated = targets.iter().any(|t| is_aggregate(&t.expr));
    let grouped = aggregated && !targets.iter().all(|t| is_aggregate(&t.expr));

    if from.is_empty() && !targets_reference_columns(&targets) && !aggregated {
        validate_sort(&targets, &sort)?;
        return Ok(BoundStmt::ConstRetrieve {
            into,
            targets,
            limit,
        });
    }
    if from.is_empty() {
        return Err(DbError::Bind(
            "column references require a from clause".into(),
        ));
    }

    let bound: Vec<BoundFrom> = from
        .into_iter()
        .map(|f| bind_from(session, f))
        .collect::<DbResult<_>>()?;

    for t in &mut targets {
        if aggregated {
            validate_aggregate(&t.expr)?;
        }
        qualify(&mut t.expr, &bound)?;
    }
    if let Some(q) = &mut qual {
        qualify(q, &bound)?;
    }
    validate_sort(&targets, &sort)?;

    Ok(BoundStmt::Retrieve {
        into,
        targets,
        from: bound,
        qual,
        sort,
        limit,
        aggregated,
        grouped,
    })
}

/// Resolves one `from` item. Virtual system relations bind by schema only;
/// their rows are produced when the scan opens.
fn bind_from(session: &mut Session, item: FromItem) -> DbResult<BoundFrom> {
    if let Some(table) = session.db().virtual_table(&item.rel) {
        if item.as_of.is_some() {
            return Err(DbError::Invalid(format!(
                "virtual relation \"{}\" has no history (time-travel bracket not allowed)",
                item.rel
            )));
        }
        return Ok(BoundFrom {
            var: item.var,
            rel_name: item.rel,
            source: BoundSource::Virtual,
            schema: table.schema,
            as_of: None,
        });
    }
    let rel = session.db().relation_id(&item.rel)?;
    let schema = session.db().schema_of(rel)?;
    Ok(BoundFrom {
        var: item.var,
        rel_name: item.rel,
        source: BoundSource::Heap(rel),
        schema,
        as_of: item.as_of,
    })
}

fn bind_append(session: &mut Session, rel_name: &str, values: Vec<(String, Expr)>) -> DbResult<BoundStmt> {
    let rel = session.db().relation_id(rel_name)?;
    let schema = session.db().schema_of(rel)?;
    let values = resolve_assignments(&schema, rel_name, values, &[])?;
    Ok(BoundStmt::Append {
        rel,
        rel_name: rel_name.to_string(),
        schema,
        values,
    })
}

fn bind_delete(
    session: &mut Session,
    var: String,
    rel_name: &str,
    mut qual: Option<Expr>,
) -> DbResult<BoundStmt> {
    let rel = session.db().relation_id(rel_name)?;
    let schema = session.db().schema_of(rel)?;
    let scope = [BoundFrom {
        var: var.clone(),
        rel_name: rel_name.to_string(),
        source: BoundSource::Heap(rel),
        schema: schema.clone(),
        as_of: None,
    }];
    if let Some(q) = &mut qual {
        qualify(q, &scope)?;
    }
    Ok(BoundStmt::Delete {
        var,
        rel,
        rel_name: rel_name.to_string(),
        schema,
        qual,
    })
}

fn bind_replace(
    session: &mut Session,
    var: String,
    rel_name: &str,
    values: Vec<(String, Expr)>,
    mut qual: Option<Expr>,
) -> DbResult<BoundStmt> {
    let rel = session.db().relation_id(rel_name)?;
    let schema = session.db().schema_of(rel)?;
    let scope = [BoundFrom {
        var: var.clone(),
        rel_name: rel_name.to_string(),
        source: BoundSource::Heap(rel),
        schema: schema.clone(),
        as_of: None,
    }];
    if let Some(q) = &mut qual {
        qualify(q, &scope)?;
    }
    let values = resolve_assignments(&schema, rel_name, values, &scope)?;
    Ok(BoundStmt::Replace {
        var,
        rel,
        rel_name: rel_name.to_string(),
        schema,
        values,
        qual,
    })
}

/// Maps `(column name, expr)` assignments to `(column index, expr)`,
/// qualifying column references in the value expressions against `scope`.
fn resolve_assignments(
    schema: &Schema,
    rel_name: &str,
    values: Vec<(String, Expr)>,
    scope: &[BoundFrom],
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
/// every reference resolves. Mirrors the resolution rules of
/// [`super::eval::Binding::resolve`]: a qualified reference must name a
/// range variable in scope; an unqualified one must match exactly one.
fn qualify(e: &mut Expr, scope: &[BoundFrom]) -> DbResult<()> {
    match e {
        Expr::Lit(_) => Ok(()),
        Expr::Column { var, attr } => match var {
            Some(v) => {
                let b = scope
                    .iter()
                    .find(|b| &b.var == v)
                    .ok_or_else(|| DbError::Bind(format!("unknown range variable \"{v}\"")))?;
                if b.schema.column_index(attr).is_none() {
                    return Err(DbError::Bind(format!(
                        "no column \"{attr}\" in range of {v}"
                    )));
                }
                Ok(())
            }
            None => {
                let mut hits = scope.iter().filter(|b| b.schema.column_index(attr).is_some());
                match (hits.next(), hits.next()) {
                    (Some(b), None) => {
                        *var = Some(b.var.clone());
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

/// Sort keys must name output columns.
fn validate_sort(targets: &[Target], sort: &[(String, bool)]) -> DbResult<()> {
    for (name, _) in sort {
        if !targets.iter().any(|t| &t.name == name) {
            return Err(DbError::Bind(format!("sort by unknown column \"{name}\"")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::TypeId;
    use crate::db::Db;
    use crate::query::parser::parse;

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
        db
    }

    fn bind_str(db: &Db, src: &str) -> DbResult<BoundStmt> {
        let mut s = db.begin().unwrap();
        let out = bind(&mut s, parse(src).unwrap());
        s.abort().unwrap();
        out
    }

    #[test]
    fn qualifies_unqualified_columns() {
        let db = setup();
        let b = bind_str(&db, "retrieve (name) from e in emp where age > 3").unwrap();
        let BoundStmt::Retrieve { targets, qual, .. } = b else {
            panic!()
        };
        assert_eq!(
            targets[0].expr,
            Expr::Column {
                var: Some("e".into()),
                attr: "name".into()
            }
        );
        // The qualification's column reference gained its range variable.
        let q = format!("{:?}", qual.unwrap());
        assert!(q.contains("Some(\"e\")"), "{q}");
    }

    #[test]
    fn ambiguity_and_unknowns_are_bind_errors() {
        let db = setup();
        // `age` lives in both emp and dept.
        assert!(matches!(
            bind_str(&db, "retrieve (age) from e in emp, d in dept"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            bind_str(&db, "retrieve (e.salary) from e in emp"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            bind_str(&db, "retrieve (q.age) from e in emp"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            bind_str(&db, "retrieve (e.age) from e in nope"),
            Err(DbError::NotFound(_))
        ));
        assert!(matches!(
            bind_str(&db, "retrieve (e.age) from e in emp sort by salary"),
            Err(DbError::Bind(_))
        ));
        assert!(matches!(
            bind_str(&db, "append emp (salary = 1)"),
            Err(DbError::Bind(_))
        ));
    }

    #[test]
    fn const_retrieve_and_missing_from() {
        let db = setup();
        assert!(matches!(
            bind_str(&db, "retrieve (two = 1 + 1)").unwrap(),
            BoundStmt::ConstRetrieve { .. }
        ));
        assert!(matches!(
            bind_str(&db, "retrieve (age)"),
            Err(DbError::Bind(_))
        ));
    }

    #[test]
    fn virtual_relations_bind_without_history() {
        let db = setup();
        let b = bind_str(&db, "retrieve (s.hits) from s in pg_stat_buffer").unwrap();
        let BoundStmt::Retrieve { from, .. } = b else {
            panic!()
        };
        assert_eq!(from[0].source, BoundSource::Virtual);
        assert!(matches!(
            bind_str(&db, "retrieve (s.hits) from s in pg_stat_buffer[12]"),
            Err(DbError::Invalid(_))
        ));
    }

    #[test]
    fn aggregate_arity_checked_at_bind() {
        let db = setup();
        assert!(matches!(
            bind_str(&db, "retrieve (n = count(e.age, e.name)) from e in emp"),
            Err(DbError::Bind(_))
        ));
    }
}
