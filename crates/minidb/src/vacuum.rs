//! The vacuum cleaner: archiving obsolete record versions.
//!
//! "Periodically, obsolete records must be garbage-collected from the
//! database, and either moved elsewhere or physically deleted. ... POSTGRES
//! includes a special-purpose process, called the vacuum cleaner, that
//! archives records. Obsolete records are physically removed from the table
//! in which they originally appeared, and are moved to an archive."
//!
//! A pass is one transaction under the heap's exclusive lock, so it waits
//! only for the heap's writers and readers. A dead version goes to the
//! archive as the row `(amin, amax, <the heap's columns>)`, `amin`/`amax`
//! being the *commit times* of its inserter and deleter, so historical
//! visibility no longer needs their status entries. The live versions are
//! copied, headers and all, into fresh storage, and each index is built
//! anew on fresh storage of its own, logged like any insert. The same
//! transaction rewrites the `pg_class` rows to name the new storage; its
//! commit swaps it in and frees the old (`crate::ddl`). Until then, and
//! after any failure, the heap and its history are as they were. A session
//! of the past ([`Db::snapshot_at`]) merges the archive back in, and its
//! rows count under the committed-only view, so the vacuuming transaction
//! itself still sees each version once. A pass whose fresh storage is on another device migrates the
//! relation, indexes and all, under the same oid ([`Session::vacuum`]).

use simdev::SimInstant;

use crate::catalog::{Catalog, RelKind, RelationEntry, PG_CLASS};
use crate::datum::{decode_row, Column, Datum, Schema, TypeId};
use crate::db::{Db, Session};
use crate::ddl::Ddl;
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId, XactId};
use crate::xact::{TupleHeader, XactState};

/// What one vacuum pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Versions still visible to some present or future transaction.
    pub kept: u64,
    /// Dead versions moved to the archive relation.
    pub archived: u64,
    /// Versions discarded outright (aborted inserts, or `no_history` heaps).
    pub discarded: u64,
}

/// Vacuums `rel` in a transaction of its own, archiving dead versions onto
/// `archive_dev`.
///
/// Dead versions (insert and delete both committed) move to the archive
/// relation — created on first need as `"<name>,arch"` with the schema
/// `(amin time, amax time, <rel's columns>)` — unless the relation was
/// created with `no_history`, in which case they are discarded. Tuples from
/// aborted transactions are always discarded. A heap with nothing to
/// remove is left as it is; otherwise it and every index on it move onto
/// fresh storage holding only the kept versions.
///
/// System relations are skipped (nothing is done, nothing is counted):
/// `pg_class` and the status relation must stay at fixed storage, where a
/// reopening database finds them before it has read a row.
pub fn vacuum(db: &Db, rel: RelId, archive_dev: DeviceId) -> DbResult<VacuumStats> {
    if Catalog::is_system(rel) {
        return Ok(VacuumStats::default());
    }
    db.catalog_txn(|s| {
        s.lock_exclusive(rel)?;
        let dev = s.target(rel, |_, e| Ok(e.device))?;
        s.vacuum(rel, dev, archive_dev)
    })
}

impl Session {
    /// One vacuum pass over the heap `rel` in this transaction ([`vacuum`])
    /// onto fresh storage on `dev`. One onto another device runs even with
    /// nothing to remove: it moves `rel`. A later write of `rel` in this
    /// transaction is refused, as it would go to the storage the commit frees.
    /// Each pass that completes counts in `vacuum_passes`, a migration's too.
    pub fn vacuum(&mut self, rel: RelId, dev: DeviceId, archive_dev: DeviceId) -> DbResult<VacuumStats> {
        if Catalog::is_system(rel) {
            return Err(DbError::Invalid(format!("{rel} is a system relation: its storage stays put")));
        }
        self.lock_exclusive(rel)?;
        self.refuse_swapped(rel)?;
        let (heap, indexes) = self.target(rel, |cat, e| {
            if e.kind != RelKind::Heap {
                return Err(DbError::Invalid(format!("{rel} is not a heap")));
            }
            let indexes = e.indexes.iter().map(|&i| cat.relation(i).cloned());
            Ok((e.clone(), indexes.collect::<DbResult<Vec<_>>>()?))
        })?;
        // Sort every version: live ones are kept, dead ones archived (or
        // discarded, `no_history`), those of aborted inserters discarded.
        let (mut live, mut dead, mut stats) = (Vec::new(), Vec::new(), VacuumStats::default());
        let old = self.db.inner.heap(heap.storage, heap.device);
        // A writer whose outcome is unknown (its commit force failed, and
        // so did the `Abort` behind it) left its versions as they are.
        old.scan_all_raw(|_tid, mut hdr, bytes| {
            let deleted = match old.state(hdr.xmin)? {
                XactState::Committed(amin) if hdr.xmax.is_valid() => match old.state(hdr.xmax)? {
                    XactState::Committed(amax) => Some((amin, amax)),
                    XactState::InProgress => None,
                    _ => {
                        hdr.xmax = XactId::INVALID; // Its deleter aborted.
                        None
                    }
                },
                XactState::Committed(_) | XactState::InProgress => None,
                _ => {
                    stats.discarded += 1; // The version never existed.
                    return Ok(());
                }
            };
            match deleted {
                None => live.push((hdr, bytes.to_vec())),
                Some(_) if heap.no_history => stats.discarded += 1,
                Some((amin, amax)) => dead.push((amin, amax, bytes.to_vec())),
            }
            Ok(())
        })?;
        (stats.kept, stats.archived) = (live.len() as u64, dead.len() as u64);
        if stats.archived + stats.discarded > 0 || dev != heap.device {
            let mut built = Vec::new();
            let swapped = self.swap(&heap, &indexes, &live, &dead, (dev, archive_dev), &mut built);
            for e in built {
                self.db.inner.free_storage((e.device, e.storage));
            }
            swapped?;
        }
        self.db.inner.stats.maintenance.vacuum_passes.bump();
        Ok(stats)
    }

    /// Builds the `live` versions of `heap` and each of its `indexes` into
    /// fresh storage on `dev`, moves the `dead` ones to the archive
    /// (creating it on `archive_dev` if needed) and rewrites the `pg_class`
    /// rows to name the new storage. `built` holds each new storage, under
    /// the entry that names it, until its swap is on the DDL list.
    fn swap(
        &mut self,
        heap: &RelationEntry,
        indexes: &[RelationEntry],
        live: &[(TupleHeader, Vec<u8>)],
        dead: &[(SimInstant, SimInstant, Vec<u8>)],
        (dev, archive_dev): (DeviceId, DeviceId),
        built: &mut Vec<RelationEntry>,
    ) -> DbResult<()> {
        let db = self.db.clone();
        let new_heap = db.inner.heap(self.new_storage(heap, dev, built)?, dev);
        let mut tids = Vec::with_capacity(live.len());
        for (hdr, bytes) in live {
            tids.push(new_heap.insert_bytes(*hdr, bytes)?);
            db.inner.maybe_checkpoint();
        }
        for ie in indexes {
            let info = ie.index.as_ref().ok_or_else(|| DbError::Corrupt(format!("index {} without index info", ie.id)))?;
            let bt = db.inner.btree(self.new_storage(ie, dev, built)?, dev);
            bt.create()?;
            for (tid, (_, bytes)) in tids.iter().zip(live) {
                let row = decode_row(bytes)?;
                bt.insert(&info.key_columns.iter().map(|&c| row[c].clone()).collect::<Vec<_>>(), *tid)?;
                db.inner.maybe_checkpoint();
            }
        }
        let archive = match heap.archive {
            None if !dead.is_empty() => {
                let times = [Column::new("amin", TypeId::TIME), Column::new("amax", TypeId::TIME)];
                let columns = times.into_iter().chain(heap.schema.columns.iter().cloned()).collect();
                let name = format!("{},arch", heap.name);
                Some(self.create_table_on(&name, Schema { columns }, archive_dev, true)?)
            }
            archive => archive,
        };
        if let Some(arch) = archive {
            for (amin, amax, bytes) in dead {
                let mut row = vec![Datum::Time(amin.as_nanos()), Datum::Time(amax.as_nanos())];
                row.extend(decode_row(bytes)?);
                self.insert_row(arch, row)?;
            }
        }
        // The rows that name the new storage; the commit swaps it in.
        while let Some(e) = built.last_mut() {
            if e.id == heap.id {
                e.archive = archive;
            }
            let rel = e.id;
            let old = self.target(rel, |cat, _| Ok(cat.class_tid(rel)))?;
            if let Some(tid) = old {
                self.delete_row(PG_CLASS, tid)?;
            }
            let row = self.insert_row(PG_CLASS, e.to_row())?;
            self.ddl.push(Ddl::Swapped { rel, device: e.device, storage: e.storage, archive: e.archive, row });
            built.pop();
        }
        Ok(())
    }

    /// Fresh storage for `e` on `dev`, under a fresh oid whose exclusive
    /// lock marks it as being built (`pg_check` does not report it as an
    /// orphan). Its entry, `e` moved onto it, goes on `built`.
    fn new_storage(&self, e: &RelationEntry, dev: DeviceId, built: &mut Vec<RelationEntry>) -> DbResult<RelId> {
        let storage = self.db.alloc_oid()?;
        self.lock_exclusive(storage)?;
        self.db.inner.smgr.with(dev, |m| m.create_rel(storage))?;
        built.push(RelationEntry { device: dev, storage, ..e.clone() });
        Ok(storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Db, RelId) {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)]))
            .unwrap();
        (db, rel)
    }

    fn row(k: i32, v: &str) -> Vec<Datum> {
        vec![Datum::Int4(k), Datum::Text(v.into())]
    }

    #[test]
    fn vacuum_keeps_live_archives_dead() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        let t_old = s.insert(rel, row(1, "old")).unwrap();
        s.insert(rel, row(2, "live")).unwrap();
        s.commit().unwrap();
        let t_mid = db.now();
        let mut s = db.begin().unwrap();
        s.update(rel, t_old, row(1, "new")).unwrap();
        s.commit().unwrap();

        let stats = vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        assert_eq!(stats.kept, 2); // "new" and "live".
        assert_eq!(stats.archived, 1); // "old".
        assert_eq!(stats.discarded, 0);

        // Present view: two rows, updated value.
        let mut r = db.begin().unwrap();
        let rows = r.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), 2);
        r.commit().unwrap();

        // Historical view still works, now served from the archive.
        let mut h = db.snapshot_at(t_mid);
        let mut vals: Vec<String> = h
            .seq_scan(rel)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r[1].as_text().unwrap().to_string())
            .collect();
        vals.sort();
        assert_eq!(vals, vec!["live", "old"]);
    }

    #[test]
    fn vacuum_discards_aborted() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        s.insert(rel, row(1, "aborted")).unwrap();
        s.abort().unwrap();
        let mut s = db.begin().unwrap();
        s.insert(rel, row(2, "kept")).unwrap();
        s.commit().unwrap();

        let stats = vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        assert_eq!(stats.discarded, 1);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.archived, 0);
        // No archive relation was created.
        assert!(db.catalog().relation(rel).unwrap().archive.is_none());
    }

    #[test]
    fn vacuum_no_history_discards_dead() {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table_on(
                "nh",
                Schema::new([("k", TypeId::INT4)]),
                DeviceId::DEFAULT,
                true,
            )
            .unwrap();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, vec![Datum::Int4(1)]).unwrap();
        s.commit().unwrap();
        let t_before = db.now();
        let mut s = db.begin().unwrap();
        s.delete(rel, tid).unwrap();
        s.commit().unwrap();

        let stats = vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        assert_eq!(stats.discarded, 1);
        assert_eq!(stats.archived, 0);
        // History is gone: the as-of view is empty now.
        let mut h = db.snapshot_at(t_before);
        assert!(h.seq_scan(rel).unwrap().is_empty());
    }

    #[test]
    fn vacuum_rebuilds_indexes() {
        let (db, rel) = setup();
        let idx = db.create_index("t_k", rel, &["k"]).unwrap();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, row(1, "a")).unwrap();
        s.insert(rel, row(2, "b")).unwrap();
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        s.delete(rel, tid).unwrap();
        s.commit().unwrap();

        vacuum(&db, rel, DeviceId::DEFAULT).unwrap();

        let mut r = db.begin().unwrap();
        assert!(r.index_scan_eq(idx, &[Datum::Int4(1)]).unwrap().is_empty());
        let hits = r.index_scan_eq(idx, &[Datum::Int4(2)]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1[1], Datum::Text("b".into()));
        r.commit().unwrap();
    }

    #[test]
    fn vacuum_runs_beside_a_writer_of_another_relation() {
        let (db, rel) = setup();
        let other = db.create_table("u", Schema::new([("k", TypeId::INT4)])).unwrap();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, row(1, "old")).unwrap();
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        s.update(rel, tid, row(1, "new")).unwrap();
        s.commit().unwrap();

        let mut writer = db.begin().unwrap();
        writer.insert(other, vec![Datum::Int4(7)]).unwrap();
        let stats = vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        assert_eq!((stats.kept, stats.archived), (1, 1));
        writer.commit().unwrap();
        assert_eq!(db.check_all(), []);
    }

    #[test]
    fn vacuum_waits_for_the_holder_of_the_heap_lock() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, row(1, "old")).unwrap();
        s.commit().unwrap();
        let mut holder = db.begin().unwrap();
        holder.update(rel, tid, row(1, "new")).unwrap();

        let waits = db.stats().lock.waits;
        let vacuumer = {
            let db = db.clone();
            std::thread::spawn(move || vacuum(&db, rel, DeviceId::DEFAULT))
        };
        while db.stats().lock.waits == waits && !vacuumer.is_finished() {
            std::thread::yield_now();
        }
        assert!(!vacuumer.is_finished(), "vacuum ran under a writer's lock");
        holder.commit().unwrap();
        let stats = vacuumer.join().unwrap().unwrap();
        assert_eq!((stats.kept, stats.archived), (1, 1), "it sorted what the writer committed");
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(rel).unwrap()[0].1, row(1, "new"));
        r.commit().unwrap();
        assert_eq!(db.check_all(), []);
    }

    /// A table of 40 rows under an index on wide keys (so the index spans
    /// several leaves), every row then replaced: the instant between the two
    /// and the rows that were current then.
    fn replaced_rows(db: &Db, rel: RelId) -> (RelId, SimInstant, Vec<Vec<Datum>>) {
        let idx = db.create_index("t_v", rel, &["v"]).unwrap();
        let wide = |k: i32, tag: &str| row(k, &format!("{k:03}{tag}{}", "x".repeat(600)));
        let mut s = db.begin().unwrap();
        let tids: Vec<_> = (0..40).map(|k| s.insert(rel, wide(k, "a")).unwrap()).collect();
        s.commit().unwrap();
        let then = db.now();
        let mut s = db.begin().unwrap();
        for (k, tid) in (0..40).zip(tids) {
            s.update(rel, tid, wide(k, "b")).unwrap();
        }
        s.commit().unwrap();
        (idx, then, (0..40).map(|k| wide(k, "a")).collect())
    }

    /// The rows an `AsOf(then)` range scan of `idx` returns when `during`
    /// runs on another thread while the scan is at its first row.
    fn scan_across(db: &Db, idx: RelId, then: SimInstant, during: impl FnOnce() + Send) -> Vec<Vec<Datum>> {
        let (mut during, mut rows) = (Some(during), Vec::new());
        let mut h = db.snapshot_at(then);
        h.index_scan_range(idx, None, None, |_, row| {
            if let Some(f) = during.take() {
                std::thread::scope(|s| drop(s.spawn(f)));
            }
            rows.push(row);
            Ok(true)
        })
        .unwrap();
        rows
    }

    fn on_device(db: &Db, storage: RelId) -> bool {
        db.inner.smgr.with(DeviceId::DEFAULT, |m| Ok(m.has_rel(storage))).unwrap()
    }

    #[test]
    fn an_as_of_scan_in_flight_across_a_vacuum_commit_reads_what_it_began_with() {
        let (db, rel) = setup();
        let (idx, then, rows) = replaced_rows(&db, rel);
        let storage = |id| db.catalog().relation(id).unwrap().storage;
        let old = [storage(rel), storage(idx)];
        let seen = scan_across(&db, idx, then, || {
            assert_eq!(vacuum(&db, rel, DeviceId::DEFAULT).unwrap().archived, 40);
            assert!(old.iter().all(|&s| on_device(&db, s)), "the scan's pins keep the old storage");
        });
        assert_eq!(seen, rows);
        assert_ne!([storage(rel), storage(idx)], old, "the vacuum moved heap and index");
        assert!(!old.iter().any(|&s| on_device(&db, s)), "the last unpin freed the old storage");
        let mut h = db.snapshot_at(then);
        assert_eq!(h.seq_scan(rel).unwrap().len(), 40, "the archive serves the past once");
        assert_eq!(db.check_all(), []);
    }

    #[test]
    fn an_as_of_scan_in_flight_across_a_drop_commit_reads_what_it_began_with() {
        let (db, rel) = setup();
        let (idx, then, rows) = replaced_rows(&db, rel);
        let old = [rel, idx];
        let seen = scan_across(&db, idx, then, || {
            db.drop_relation("t").unwrap();
            assert!(old.iter().all(|&s| on_device(&db, s)), "the scan's pins keep the storage");
        });
        assert_eq!(seen, rows);
        assert!(db.relation_id("t").is_err());
        assert!(!old.iter().any(|&s| on_device(&db, s)), "the last unpin freed the storage");
        assert_eq!(db.check_all(), []);
    }

    /// A transaction that vacuums a heap that has an archive reads the
    /// heap's old storage until its commit, beside the archive rows it
    /// wrote itself: each version still counts once, for the present's
    /// history and for a read of the past alike.
    #[test]
    fn a_vacuuming_transaction_counts_each_version_once() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, row(1, "v1")).unwrap();
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        s.update(rel, tid, row(1, "v2")).unwrap();
        s.commit().unwrap();
        let t_v2 = db.now();
        assert_eq!(vacuum(&db, rel, DeviceId::DEFAULT).unwrap().archived, 1);
        let mut s = db.begin().unwrap();
        let (tid, _) = s.seq_scan(rel).unwrap().remove(0);
        s.update(rel, tid, row(1, "v3")).unwrap();
        s.commit().unwrap();
        let versions = |s: &mut Session| s.scan_version_history(rel).unwrap().len();
        assert_eq!(versions(&mut db.begin().unwrap()), 3);

        let mut x = db.begin().unwrap();
        assert_eq!(x.vacuum(rel, DeviceId::DEFAULT, DeviceId::DEFAULT).unwrap().archived, 1);
        assert_eq!(versions(&mut x), 3, "inside the vacuuming transaction");
        let then = x.query(&format!("retrieve (r.v) from r in t[{}]", t_v2.as_nanos())).unwrap();
        assert_eq!(then.rows, [row(1, "v2")[1..].to_vec()]);
        assert_eq!(db.snapshot_at(t_v2).seq_scan(rel).unwrap().len(), 1);
        x.commit().unwrap();
        assert_eq!(versions(&mut db.begin().unwrap()), 3);
        assert_eq!(db.check_all(), []);
    }

    #[test]
    fn repeated_vacuum_accumulates_archive() {
        let (db, rel) = setup();
        for gen in 0..3 {
            let mut s = db.begin().unwrap();
            let tid = s.insert(rel, row(gen, "v")).unwrap();
            s.commit().unwrap();
            let mut s = db.begin().unwrap();
            s.delete(rel, tid).unwrap();
            s.commit().unwrap();
            let stats = vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
            assert_eq!(stats.archived, 1, "generation {gen}");
        }
        // All three dead generations are in the archive.
        let arch = db.catalog().relation(rel).unwrap().archive.unwrap();
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(arch).unwrap().len(), 3);
        r.commit().unwrap();
    }

    #[test]
    fn vacuum_compacts_heap_pages() {
        let (db, rel) = setup();
        let mut s = db.begin().unwrap();
        let mut tids = Vec::new();
        for i in 0..200 {
            tids.push(
                s.insert(rel, vec![Datum::Int4(i), Datum::Text("x".repeat(500))])
                    .unwrap(),
            );
        }
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        for tid in &tids[..190] {
            s.delete(rel, *tid).unwrap();
        }
        s.commit().unwrap();
        let before = db.relation_pages(rel).unwrap();
        vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        let after = db.relation_pages(rel).unwrap();
        assert!(after < before, "heap should shrink: {before} -> {after}");
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(rel).unwrap().len(), 10);
        r.commit().unwrap();
    }
}
