//! `minidb` — a POSTGRES-4.0.1-flavoured storage engine.
//!
//! This crate is the substrate the Inversion file system is built on, as
//! POSTGRES was for the system in Olson's 1993 paper. It reproduces, from
//! scratch, every POSTGRES mechanism the paper leans on:
//!
//! * **No-overwrite storage** ([`heap`], [`xact`]): updated and deleted
//!   records are never overwritten in place; the old version is stamped with
//!   the deleting transaction and a new version is appended. The only commit
//!   bookkeeping is the transaction *status file* — no write-ahead log.
//! * **Time travel** ([`Db::snapshot_at`]): any transaction-consistent
//!   past state of the database is readable, through a read-only session.
//! * **Instant crash recovery**: reopening the database is recovery;
//!   uncommitted updates are invisible by construction.
//! * **The device manager switch** ([`smgr`]): relations live on magnetic
//!   disk, NVRAM, a WORM optical jukebox (with extent allocation and a
//!   magnetic-disk staging cache), or tape, all behind one interface.
//! * **Shared buffer cache** ([`buffer`]): LRU over 8 KB pages, 64 buffers
//!   as shipped, 300 as deployed at Berkeley.
//! * **B-tree indices** ([`btree`]).
//! * **Two-phase locking** ([`lock`]) with deadlock detection.
//! * **The vacuum cleaner** ([`vacuum`]): moves obsolete record versions to
//!   archive relations, in one logged transaction, so history survives.
//! * **Type and function extensibility** ([`funcs`], [`catalog`]): users
//!   register Rust callables invokable from the query language.
//! * **A POSTQUEL-style query language** ([`query`]): `retrieve`, `append`,
//!   `delete`, `replace`, `define type/function/rule`, with time travel.
//! * **A predicate rules system** ([`rules`]) used for file migration.
//! * **Queryable statistics** ([`stats`]): every layer reports into a
//!   central registry, snapshot via [`Db::stats`] and scannable from the
//!   query language as virtual `pg_stat_*` system relations.
//!
//! The top-level entry point is [`Db`]; per-transaction work happens through
//! [`Session`].
//!
//! # Example
//!
//! ```
//! use minidb::{Db, Datum, Schema, TypeId};
//!
//! let db = Db::open_in_memory().unwrap();
//! let rel = db
//!     .create_table("emp", Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]))
//!     .unwrap();
//! let mut s = db.begin().unwrap();
//! s.insert(rel, vec![Datum::Text("mao".into()), Datum::Int4(29)]).unwrap();
//! s.commit().unwrap();
//!
//! let mut r = db.begin().unwrap();
//! let rows = r.seq_scan(rel).unwrap();
//! assert_eq!(rows.len(), 1);
//! r.commit().unwrap();
//! ```

pub mod btree;
pub mod buffer;
pub(crate) mod bytes;
pub mod catalog;
pub mod check;
pub mod checksum;
pub mod datum;
pub mod db;
mod ddl;
pub mod error;
pub mod funcs;
pub mod heap;
pub mod ids;
pub mod lock;
pub mod page;
pub mod query;
pub mod recovery;
pub mod rules;
pub mod smgr;
pub mod stats;
pub mod vacuum;
pub mod wal;
pub mod xact;

pub use buffer::{BufferPool, BufferStats, PinnedPage, BERKELEY_BUFFERS, DEFAULT_BUFFERS};
pub use catalog::{IndexInfo, RelKind, RelationEntry};
pub use check::Finding;
pub use datum::{column_in_place, decode_row, encode_row, Column, Datum, DatumRef, Row, Schema, TypeId};
pub use db::{Db, DbConfig, Session};
pub use error::{DbError, DbResult};
pub use funcs::{FuncDef, FunctionRegistry};
pub use ids::{DeviceId, Oid, RelId, Tid, XactId};
pub use query::QueryResult;
pub use smgr::{
    shared_device, DeviceManager, GenericManager, JukeboxConfig, JukeboxManager, SharedDevice, Smgr,
};
pub use stats::{
    DeviceIoStats, StatsRegistry, StatsSnapshot, VirtualRowsFn, VirtualTable, VirtualTables,
};
pub use wal::{Wal, WalRecord};
pub use xact::{XactLog, XactState};
