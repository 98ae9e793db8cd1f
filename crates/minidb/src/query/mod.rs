//! The POSTQUEL-flavoured query language.
//!
//! "Instead of mastering the use of many different programs, the user may
//! examine the file system's structure and contents by formulating simple
//! POSTQUEL queries." Supported statements:
//!
//! * `retrieve (targets) [from var in rel[, ...]] [where qual]` — with
//!   optional per-relation time travel: `from e in naming[<nanos>]` scans
//!   `naming` on a session of the past ([`crate::Db::snapshot_at`]).
//! * `append rel (col = expr, ...)`
//! * `delete var from var in rel [where qual]` (or the short form
//!   `delete rel [where qual]`)
//! * `replace var (col = expr, ...) [from ...] [where qual]`
//! * `define type name`
//! * `define function name (nargs) returns type as "impl.key" [for type]`
//! * `define rule name on access|update|periodic to rel where qual do action`
//!
//! Function calls in any expression position dispatch through the catalog to
//! registered Rust implementations, which run inside the data manager — the
//! mechanism behind the paper's `snow(file)` example and its fastest
//! benchmark configuration.
//!
//! DML statements run through a cost-based pipeline of three stages:
//! [`parser`] parses, [`optimize`] resolves names against the catalog and
//! builds a physical [`plan::Plan`] in the same pass (choosing B-tree index
//! scans when a qualification bounds an indexed column, pushing
//! single-variable conjuncts below the joins, nesting loops in
//! `from`-clause order), and [`exec`] runs it in one walk that pushes rows
//! from the scans up through each node. `explain [analyze]
//! <stmt>` renders the chosen plan; `pg_stat_planner` counts its decisions.
//! The pre-planner interpreter survives in [`reference`](mod@reference) as
//! the differential-testing oracle.

pub mod ast;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
#[doc(hidden)]
pub mod reference;

pub use ast::{BinOp, Expr, FromItem, Stmt, Target};
pub use eval::{coerce, eval, Binding};
pub use exec::QueryResult;
pub use parser::{expr_to_source, parse, parse_expr};
pub use plan::{Access, Plan, ScanPlan};
