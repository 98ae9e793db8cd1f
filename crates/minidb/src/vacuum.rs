//! The vacuum cleaner: archiving obsolete record versions.
//!
//! "Periodically, obsolete records must be garbage-collected from the
//! database, and either moved elsewhere or physically deleted. ... POSTGRES
//! includes a special-purpose process, called the vacuum cleaner, that
//! archives records. Obsolete records are physically removed from the table
//! in which they originally appeared, and are moved to an archive."
//!
//! Archive rows are `(amin, amax, original-row-bytes)` where `amin`/`amax`
//! are the *commit times* of the inserting and deleting transactions —
//! materializing times at archive time means historical visibility no longer
//! needs the originals' transaction-status entries. Historical scans
//! ([`crate::db::Session::scan_with_snapshot`]) merge the archive back in.
//!
//! Vacuuming rewrites the heap compactly and rebuilds its indices, so it
//! requires a quiescent system (no active transactions).

use simdev::SimInstant;

use crate::btree::BTree;
use crate::catalog::{Catalog, RelKind, RelationEntry};
use crate::datum::{decode_row, Datum, Schema, TypeId};
use crate::db::Db;
use crate::error::{DbError, DbResult};
use crate::heap::Heap;
use crate::ids::{DeviceId, RelId};
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

/// Vacuums `rel`, archiving dead versions onto `archive_dev`.
///
/// Dead versions (insert and delete both committed) move to the archive
/// relation — created on first need as `"<name>,arch"` with schema
/// `(amin time, amax time, data bytes)` — unless the relation was created
/// with `no_history`, in which case they are discarded. Tuples from aborted
/// transactions are always discarded. The heap is rewritten compactly and
/// every index on it rebuilt.
///
/// System relations are skipped (nothing is done, nothing is counted): the
/// rewrite below is in place and unlogged, and the archive attach that ends
/// it writes `pg_class`. Their dead rows come only from drops and archive
/// attaches.
///
/// Errors with [`DbError::Invalid`] if any transaction is active.
pub fn vacuum(db: &Db, rel: RelId, archive_dev: DeviceId) -> DbResult<VacuumStats> {
    if Catalog::is_system(rel) {
        return Ok(VacuumStats::default());
    }
    if !db.inner.xlog.active_set().is_empty() {
        return Err(DbError::Invalid(
            "vacuum requires a quiescent system (transactions active)".into(),
        ));
    }
    // The rewrite below is unlogged, and it reformats pages the log may
    // still hold records for. Checkpointing first drains those pages and
    // truncates the log, so a crash mid-vacuum replays nothing stale onto
    // the rewritten relation.
    db.checkpoint()?;
    let entry = {
        let cat = db.inner.catalog.read();
        let e = cat.relation(rel)?.clone();
        if e.kind != RelKind::Heap {
            return Err(DbError::Invalid(format!("{rel} is not a heap")));
        }
        e
    };

    // Classify every tuple version.
    enum Fate {
        Keep(TupleHeader, Vec<u8>),
        Archive(SimInstant, SimInstant, Vec<u8>),
    }
    let mut fates = Vec::new();
    let mut stats = VacuumStats::default();
    {
        let heap = Heap {
            wal: None,
            pool: &db.inner.pool,
            smgr: &db.inner.smgr,
            xlog: &db.inner.xlog,
            stats: &db.inner.stats,
            dev: entry.device,
            rel,
        };
        heap.scan_all_raw(|_tid, hdr, row_bytes| {
            let xmin_state = heap.state(hdr.xmin)?;
            let XactState::Committed(amin) = xmin_state else {
                // Aborted or crashed inserter: the version never existed.
                stats.discarded += 1;
                return Ok(());
            };
            if hdr.xmax.is_valid() {
                if let XactState::Committed(amax) = heap.state(hdr.xmax)? {
                    // Dead to everyone: archive (or discard).
                    if entry.no_history {
                        stats.discarded += 1;
                    } else {
                        stats.archived += 1;
                        fates.push(Fate::Archive(amin, amax, row_bytes.to_vec()));
                    }
                    return Ok(());
                }
                // Deleter aborted: clear the stale xmax on the kept copy.
                stats.kept += 1;
                fates.push(Fate::Keep(
                    TupleHeader {
                        xmin: hdr.xmin,
                        xmax: crate::ids::XactId::INVALID,
                    },
                    row_bytes.to_vec(),
                ));
                return Ok(());
            }
            stats.kept += 1;
            fates.push(Fate::Keep(hdr, row_bytes.to_vec()));
            Ok(())
        })?;
    }

    // Ensure the archive relation exists if we need it.
    let mut archive: Option<(RelId, DeviceId)> = None;
    let mut attached: Option<RelId> = None;
    if fates.iter().any(|f| matches!(f, Fate::Archive(..))) {
        let existing = entry.archive;
        let (arch_id, arch_dev) = match existing {
            Some(a) => {
                let cat = db.inner.catalog.read();
                (a, cat.relation(a)?.device)
            }
            None => {
                let id = db.alloc_oid()?;
                let arch_id = {
                    let mut cat = db.inner.catalog.write();
                    cat.add_relation(RelationEntry {
                        id,
                        name: format!("{},arch", entry.name),
                        kind: RelKind::Heap,
                        device: archive_dev,
                        schema: Schema::new([
                            ("amin", TypeId::TIME),
                            ("amax", TypeId::TIME),
                            ("data", TypeId::BYTES),
                        ]),
                        index: None,
                        indexes: vec![],
                        archive: None,
                        no_history: true,
                    })?;
                    cat.relation_mut(rel)?.archive = Some(id);
                    id
                };
                db.inner.smgr.with(archive_dev, |m| m.create_rel(arch_id))?;
                attached = Some(arch_id);
                (arch_id, archive_dev)
            }
        };
        archive = Some((arch_id, arch_dev));
    }

    // Move dead versions to the archive.
    if let Some((arch_id, arch_dev)) = archive {
        let arch_heap = Heap {
            wal: None,
            pool: &db.inner.pool,
            smgr: &db.inner.smgr,
            xlog: &db.inner.xlog,
            stats: &db.inner.stats,
            dev: arch_dev,
            rel: arch_id,
        };
        for f in &fates {
            if let Fate::Archive(amin, amax, bytes) = f {
                arch_heap.insert(
                    crate::ids::XactId::FROZEN,
                    &[
                        Datum::Time(amin.as_nanos()),
                        Datum::Time(amax.as_nanos()),
                        Datum::Bytes(bytes.clone()),
                    ],
                )?;
            }
        }
    }

    // Rewrite the heap with only the kept versions.
    db.inner.pool.discard_rel(rel);
    db.inner.smgr.with(entry.device, |m| m.truncate(rel))?;
    let heap = Heap {
        wal: None,
        pool: &db.inner.pool,
        smgr: &db.inner.smgr,
        xlog: &db.inner.xlog,
        stats: &db.inner.stats,
        dev: entry.device,
        rel,
    };
    let mut kept_rows: Vec<(crate::ids::Tid, Vec<u8>)> = Vec::new();
    for f in &fates {
        if let Fate::Keep(hdr, bytes) = f {
            let tid = heap.insert_bytes(*hdr, bytes)?;
            kept_rows.push((tid, bytes.clone()));
        }
    }

    // Rebuild every index on the heap.
    let (_, indexes) = db.heap_parts(rel)?;
    for (idx, cols) in indexes {
        let idx_dev = db.inner.catalog.read().relation(idx)?.device;
        db.inner.pool.discard_rel(idx);
        db.inner.smgr.with(idx_dev, |m| m.truncate(idx))?;
        let bt = BTree {
            wal: None,
            pool: &db.inner.pool,
            smgr: &db.inner.smgr,
            stats: &db.inner.stats,
            dev: idx_dev,
            rel: idx,
        };
        bt.create()?;
        for (tid, bytes) in &kept_rows {
            let row = decode_row(bytes)?;
            let key: Vec<Datum> = cols.iter().map(|&i| row[i].clone()).collect();
            bt.insert(&key, *tid)?;
        }
    }

    // Make the rewrite durable, then the catalog change: the archive's row
    // and the heap's row now naming it, in one transaction. (The rewrite
    // was unlogged, so its durability is this flush, not the log.)
    db.inner.pool.flush_all(&db.inner.smgr)?;
    db.inner.sync_devices()?;
    if let Some(arch_id) = attached {
        db.store_class_rows(&[arch_id, rel])?;
    }
    db.inner.stats.maintenance.vacuum_passes.bump();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Schema;
    use crate::db::Db;

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
    fn vacuum_refuses_during_active_transaction() {
        let (db, rel) = setup();
        let s = db.begin().unwrap();
        assert!(matches!(
            vacuum(&db, rel, DeviceId::DEFAULT),
            Err(DbError::Invalid(_))
        ));
        drop(s);
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
        let before = db
            .inner
            .smgr
            .with(DeviceId::DEFAULT, |m| m.nblocks(rel))
            .unwrap();
        vacuum(&db, rel, DeviceId::DEFAULT).unwrap();
        let after = db
            .inner
            .smgr
            .with(DeviceId::DEFAULT, |m| m.nblocks(rel))
            .unwrap();
        assert!(after < before, "heap should shrink: {before} -> {after}");
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(rel).unwrap().len(), 10);
        r.commit().unwrap();
    }
}
