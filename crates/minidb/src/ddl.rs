//! DDL as [`Session`] operations: each locks what it changes, changes the
//! catalog cache, writes its `pg_*` rows under the session's xid and goes
//! on the session's DDL list. The transaction's end applies the list (a
//! durable commit frees what it dropped and moves what a vacuum rebuilt
//! onto its new storage) or takes it back (an abort, what it created,
//! defined and built) before the locks go.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::catalog::{
    Catalog, IndexInfo, ProcEntry, RelKind, RelationEntry, RuleEntry, TypeEntry, PG_CLASS,
    PG_PROC, PG_RULE, PG_TYPE,
};
use crate::datum::{decode_row, Datum, Schema, TypeId};
use crate::db::{DbInner, Session};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId, Tid};

/// One catalog change of a running transaction, on its session's DDL list.
pub(crate) enum Ddl {
    /// A relation it created: an abort releases entry, cached pages, storage.
    Created(RelId),
    /// A relation it dropped: a commit releases the same three.
    Dropped(RelId),
    /// A type, function or rule it defined in `pg_type`, `pg_proc` or
    /// `pg_rule`, by name: an abort removes the entry.
    Defined(RelId, String),
    /// Fresh storage on `device` a vacuum built `rel` into, and the
    /// `pg_class` row that names it (with `archive`, the heap's archive
    /// link): a commit moves `rel` onto it and frees the old storage; an
    /// abort frees it.
    Swapped { rel: RelId, device: DeviceId, storage: RelId, archive: Option<RelId>, row: Tid },
}

/// Storage that reads taking no lock are using, by `(device, storage)`:
/// how many, and whether a commit has let it go meanwhile, so that the
/// last unpin frees it.
pub(crate) type Pins = Mutex<HashMap<(DeviceId, RelId), (usize, bool)>>;

/// One read's pins ([`DbInner::pin`]), released when it is dropped.
pub(crate) struct Pinned<'a> {
    db: &'a DbInner,
    storage: Vec<(DeviceId, RelId)>,
}

impl Drop for Pinned<'_> {
    fn drop(&mut self) {
        for s in std::mem::take(&mut self.storage) {
            let mut pins = self.db.pins.lock();
            let Some(pin) = pins.get_mut(&s) else { continue };
            pin.0 -= 1;
            if pin.0 == 0 && pins.remove(&s).is_some_and(|(_, let_go)| let_go) {
                drop(pins);
                self.db.free_storage(s);
            }
        }
    }
}

impl DbInner {
    /// Pins `storage` for a read that takes no lock. The caller found it
    /// named in the cache and still holds the catalog lock, so no commit
    /// has let it go yet, and one that does before the read ends leaves it
    /// to the read's last unpin.
    pub(crate) fn pin(&self, storage: Vec<(DeviceId, RelId)>) -> Pinned<'_> {
        if !storage.is_empty() {
            let mut pins = self.pins.lock();
            for s in &storage {
                pins.entry(*s).or_default().0 += 1;
            }
        }
        Pinned { db: self, storage }
    }

    /// Frees storage no cache entry names any more, its cached pages and
    /// its blocks; a pinned one at its last unpin.
    pub(crate) fn free_storage(&self, (dev, storage): (DeviceId, RelId)) {
        if let Some(pin) = self.pins.lock().get_mut(&(dev, storage)) {
            pin.1 = true;
            return;
        }
        self.pool.discard_rel(storage);
        self.smgr.with(dev, |m| m.drop_rel(storage)).ok();
    }

    /// Ends a transaction's DDL list, newest first, after a durable commit
    /// or an abort. The rows need nothing: the outcome decides for good
    /// which of them are visible. `finish`, which takes the transaction out
    /// of the running set, runs under the same catalog lock: a read that
    /// finds its storage under that lock sees the outcome that goes with
    /// it, so a version a vacuum archived shows from the old heap or from
    /// the archive, never both.
    pub(crate) fn end_ddl(
        &self,
        ddl: &[Ddl],
        committed: bool,
        finish: impl FnOnce() -> DbResult<()>,
    ) -> DbResult<()> {
        if ddl.is_empty() {
            return finish();
        }
        let mut freed = Vec::new();
        let finished = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let mut cat = self.catalog.write();
            for step in ddl.iter().rev() {
                match (step, committed) {
                    (Ddl::Created(id), false) | (Ddl::Dropped(id), true) => {
                        if let Ok(e) = cat.remove_relation(*id) {
                            freed.push((e.device, e.storage));
                        }
                    }
                    (Ddl::Defined(rel, name), false) => cat.undefine(*rel, name),
                    (&Ddl::Swapped { rel, device, storage, archive, row }, true) => {
                        if let Ok(e) = cat.relation_mut(rel) {
                            freed.push((e.device, e.storage));
                            (e.device, e.storage, e.archive) = (device, storage, archive);
                            cat.set_class_tid(rel, row);
                        }
                    }
                    (&Ddl::Swapped { device, storage, .. }, false) => freed.push((device, storage)),
                    _ => {}
                }
            }
            finish()
        };
        for s in freed {
            self.free_storage(s);
        }
        finished
    }
}

impl Session {
    /// Creates a heap table on `dev` in this transaction; `no_history`
    /// asks the vacuum cleaner to discard (not archive) dead versions.
    pub fn create_table_on(
        &mut self,
        name: &str,
        schema: Schema,
        dev: DeviceId,
        no_history: bool,
    ) -> DbResult<RelId> {
        let entry = RelationEntry::heap(self.db.alloc_oid()?, name, dev, schema);
        self.create_relation(RelationEntry { no_history, ..entry }, |_| Ok(()))
    }

    /// Creates a B-tree index named `name` on `table(columns...)` in this
    /// transaction, on the table's device, backfilling entries for every
    /// existing tuple version (historical versions stay reachable through
    /// it).
    pub fn create_index(&mut self, name: &str, table: RelId, columns: &[&str]) -> DbResult<RelId> {
        self.build_index(name, table, columns, false)
    }

    /// [`Session::create_index`] for a *versioned-unique* key: the caller
    /// declares that under any one snapshot at most one version per key is
    /// visible (see [`IndexInfo::unique`]), and keeps it so — nothing here
    /// probes on insert. In return a probe stops at the first visible
    /// version instead of fetching every version the key ever had.
    pub fn create_unique_index(
        &mut self,
        name: &str,
        table: RelId,
        columns: &[&str],
    ) -> DbResult<RelId> {
        self.build_index(name, table, columns, true)
    }

    /// Takes `table`'s exclusive lock (a new index changes what each of its
    /// writers maintains) and creates the index, bulk-loaded from every
    /// version in the heap.
    fn build_index(
        &mut self,
        name: &str,
        table: RelId,
        columns: &[&str],
        unique: bool,
    ) -> DbResult<RelId> {
        self.lock_exclusive(table)?;
        let (dev, storage, key_columns) = self.target(table, |_, t| {
            if t.kind != RelKind::Heap {
                return Err(DbError::Invalid(format!("{name}: {table} is not a heap")));
            }
            let mut key_columns = Vec::with_capacity(columns.len());
            for c in columns {
                key_columns.push(t.schema.column_index(c).ok_or_else(|| {
                    DbError::NotFound(format!("column \"{c}\" of \"{}\"", t.name))
                })?);
            }
            Ok((t.device, t.storage, key_columns))
        })?;
        let id = self.db.alloc_oid()?;
        let entry = RelationEntry {
            kind: RelKind::BTreeIndex,
            index: Some(IndexInfo {
                table,
                key_columns: key_columns.clone(),
                unique,
            }),
            ..RelationEntry::heap(id, name, dev, Schema::default())
        };
        self.create_relation(entry, |s| {
            let bt = s.db.inner.btree(id, dev);
            bt.create()?;
            s.db.inner.heap(storage, dev).scan_all_raw(|tid, _hdr, row_bytes| {
                let row = decode_row(row_bytes)?;
                let key: Vec<Datum> = key_columns.iter().map(|&i| row[i].clone()).collect();
                bt.insert(&key, tid)
            })
        })
    }

    /// The one sequence that creates a relation, inside this transaction:
    /// the relation's exclusive lock (a fresh oid, so never a wait), the
    /// cache entry (which claims the name), storage on its device, `build`
    /// (an index's bulk load, logged like any insert), the `pg_class` row
    /// under this transaction's xid. The lock is held until the
    /// transaction ends, so no other transaction reads or writes the
    /// relation before it commits; an abort takes the entry and the storage
    /// back, and so does a failure here. Nothing syncs a device: the commit's
    /// force makes the relation durable, and recovery gives a committed row
    /// its storage back and releases storage no committed row names
    /// (`Db::reconcile_storage`).
    fn create_relation(
        &mut self,
        entry: RelationEntry,
        build: impl FnOnce(&Session) -> DbResult<()>,
    ) -> DbResult<RelId> {
        let (id, dev, row) = (entry.id, entry.device, entry.to_row());
        self.change_catalog(Ddl::Created(id), |cat| cat.add_relation(entry), |s| {
            s.db.inner.smgr.with(dev, |m| m.create_rel(id))?;
            build(s)?;
            let tid = s.insert_row(PG_CLASS, row)?;
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            s.db.inner.catalog.write().set_class_tid(id, tid);
            Ok(())
        })?;
        Ok(id)
    }

    /// Registers a new file/database type (`define type` in the paper).
    pub fn define_type(&mut self, name: &str) -> DbResult<TypeId> {
        let entry = TypeEntry {
            id: TypeId(self.db.alloc_oid()?.0),
            name: name.to_string(),
        };
        let (id, row) = (entry.id, entry.to_row());
        let step = Ddl::Defined(PG_TYPE, name.to_string());
        self.change_catalog(step, |cat| cat.define_type(entry), |s| s.insert_row(PG_TYPE, row).map(drop))?;
        Ok(id)
    }

    /// Registers a function definition; its implementation must be (or
    /// become) available in [`crate::Db::functions`] under `impl_key`.
    pub fn define_function(
        &mut self,
        name: &str,
        nargs: usize,
        ret: TypeId,
        impl_key: &str,
        operates_on: Option<TypeId>,
    ) -> DbResult<()> {
        let entry = ProcEntry {
            name: name.to_string(),
            nargs,
            ret,
            impl_key: impl_key.to_string(),
            operates_on,
        };
        let (step, row) = (Ddl::Defined(PG_PROC, name.to_string()), entry.to_row());
        self.change_catalog(step, |cat| cat.define_proc(entry), |s| s.insert_row(PG_PROC, row).map(drop))
    }

    /// Registers a predicate rule (see [`crate::rules`]). A rule changes
    /// what every access to the relation it watches does, so this first
    /// takes that relation's exclusive lock, as an index build does, and
    /// under it finds the relation still there.
    pub fn define_rule(&mut self, rule: RuleEntry) -> DbResult<()> {
        self.lock_exclusive(rule.on_rel)?;
        self.target(rule.on_rel, |_, _| Ok(()))?;
        let (step, row) = (Ddl::Defined(PG_RULE, rule.name.clone()), rule.to_row());
        self.change_catalog(step, |cat| cat.define_rule(rule), |s| s.insert_row(PG_RULE, row).map(drop))
    }

    /// Drops a table (and its indices and archive) or a single index. It
    /// takes the exclusive lock on each relation it drops, and on an
    /// index's table, whose writers maintain the index, and deletes their
    /// `pg_class` rows and the `pg_rule` rows of the rules that watch them;
    /// the cache entries (rules included), cached pages and storage go once
    /// the commit is durable (a crash before then leaves storage no
    /// committed row names, which reopening releases).
    pub fn drop_relation(&mut self, name: &str) -> DbResult<()> {
        let id = self.db.relation_id(name)?;
        if Catalog::is_system(id) {
            return Err(DbError::Invalid(format!("\"{name}\" is a system relation")));
        }
        let table = self.target(id, |_, e| Ok(e.index.as_ref().map_or(id, |i| i.table)))?;
        self.lock_exclusive(table)?;
        self.lock_exclusive(id)?;
        // Under the locks no other transaction builds or drops a part of it;
        // one that dropped it while this one waited left nothing to find.
        let victims: Vec<(RelId, Option<Tid>)> = self.target(id, |cat, e| {
            let mut ids = vec![id];
            if e.kind == RelKind::Heap {
                ids.extend(e.indexes.iter().chain(&e.archive).filter(|&&v| !self.dropped(v)));
            }
            Ok(ids.into_iter().map(|v| (v, cat.class_tid(v))).collect())
        })?;
        for &(v, tid) in &victims {
            self.lock_exclusive(v)?;
            if let Some(tid) = tid {
                self.delete_row(PG_CLASS, tid)?;
            }
            self.ddl.push(Ddl::Dropped(v));
        }
        // The rules that watch a victim go with it. Under its lock no rule
        // on it is being defined, so the cache lists every one.
        let watched = |rel: RelId| victims.iter().any(|&(v, _)| v == rel);
        let has_rules = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            self.db.inner.catalog.read().rules().iter().any(|r| watched(r.on_rel))
        };
        if has_rules {
            for (tid, row) in self.seq_scan(PG_RULE)? {
                if watched(RuleEntry::from_row(&row)?.on_rel) {
                    self.delete_row(PG_RULE, tid)?;
                }
            }
        }
        Ok(())
    }

    /// Reads the cache entry of `id`, a relation DDL acts on, under the
    /// catalog lock. One this transaction dropped is gone already.
    pub(crate) fn target<T>(
        &self,
        id: RelId,
        f: impl FnOnce(&Catalog, &RelationEntry) -> DbResult<T>,
    ) -> DbResult<T> {
        let _order = crate::lock::order::token(crate::lock::order::CATALOG);
        let cat = self.db.inner.catalog.read();
        match cat.relation(id) {
            Ok(e) if !self.dropped(id) => f(&cat, e),
            _ => Err(DbError::NotFound(format!("relation {id}"))),
        }
    }

    fn dropped(&self, id: RelId) -> bool {
        self.ddl.iter().any(|d| matches!(d, Ddl::Dropped(v) if *v == id))
    }

    /// Refuses a write of, or a second pass over, `rel` once a vacuum pass
    /// of this transaction has swapped it: the cache names the old storage
    /// until the commit frees it.
    pub(crate) fn refuse_swapped(&self, rel: RelId) -> DbResult<()> {
        match self.ddl.iter().any(|d| matches!(d, Ddl::Swapped { rel: r, .. } if *r == rel)) {
            true => Err(DbError::Invalid(format!("{rel} was vacuumed in this transaction"))),
            false => Ok(()),
        }
    }

    /// The one way a create or define changes the cache: it takes the
    /// exclusive lock on the relation `step` names (the new relation; the
    /// system relation a definition goes in, so a second definer of a name
    /// waits for this one to end), lets `install` change the cache (which
    /// may refuse, a taken name say), then `write` its rows under this
    /// transaction's xid. From then on the change is on the DDL list and
    /// goes with the transaction; a failed `write` takes it back at once.
    fn change_catalog(
        &mut self,
        step: Ddl,
        install: impl FnOnce(&mut Catalog) -> DbResult<()>,
        write: impl FnOnce(&mut Session) -> DbResult<()>,
    ) -> DbResult<()> {
        let (Ddl::Created(rel) | Ddl::Dropped(rel) | Ddl::Defined(rel, _) | Ddl::Swapped { rel, .. }) =
            step;
        self.lock_exclusive(rel)?;
        {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            install(&mut self.db.inner.catalog.write())?;
        }
        let written = write(self);
        match written {
            Ok(()) => self.ddl.push(step),
            Err(_) => self.db.inner.end_ddl(&[step], false, || Ok(()))?,
        }
        written
    }
}
