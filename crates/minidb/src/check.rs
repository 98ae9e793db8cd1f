//! amcheck-style structural verification.
//!
//! The paper's robustness claim is that Inversion needs *no fsck*: after a
//! crash, uncommitted updates are invisible by construction of the
//! no-overwrite storage manager. This module is the mechanized form of that
//! claim — a verifier that walks every page, heap, index, the transaction
//! log, and the catalog, and reports each violated invariant as a
//! [`Finding`] instead of asserting or panicking.
//!
//! Entry points:
//!
//! * [`crate::Db::check_all`] — runs every check, returns all findings;
//! * the `pg_check` virtual relation — the same report from the query
//!   language (`retrieve (c.all) from c in pg_check`).
//!
//! Per-layer hooks live next to the structures they verify:
//! [`crate::page::verify`], [`crate::heap::Heap::check`],
//! [`crate::btree::BTree::check`], [`crate::xact::XactLog::check`], and
//! [`crate::catalog::Catalog::check`].
//!
//! ## What is corruption, and what is legal crash debris?
//!
//! Because dirty pages reach the disk whenever a checkpoint or the
//! eviction sweep writes them, independently of commit, a crash
//! legitimately leaves behind:
//!
//! * tuples whose `xmin` never reached the status log (state `Unknown`) —
//!   invisible by construction, *not* corruption;
//! * uninitialized (all-zero) pages at the end of a relation — extended but
//!   never flushed;
//! * index entries whose heap tuple never reached disk — dangling by tid,
//!   skipped by readers after visibility filtering.
//!
//! The verifier therefore anchors its cross-reference checks on *committed*
//! state: every committed tuple must be decodable, must match its schema,
//! and must be present in every index on the relation; every index entry
//! that resolves to a heap tuple must agree with that tuple's key bytes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::catalog::{Catalog, RelKind, RelationEntry, PG_PROC, PG_RULE, PG_TYPE};
use crate::datum::{decode_row, Datum, Row};
use crate::db::Db;
use crate::error::DbResult;
use crate::ids::{DeviceId, RelId, Tid};
use crate::xact::{TupleHeader, XactState};
use simdev::SimInstant;

/// One structural problem found by the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The relation the problem is in (or a pseudo-relation such as
    /// `xact-log` / `catalog`).
    pub relation: String,
    /// Page number, when the problem is page-scoped.
    pub page: Option<u64>,
    /// Slot number, when the problem is slot-scoped.
    pub slot: Option<u16>,
    /// Stable machine-readable code, e.g. `page-invariant`.
    pub code: String,
    /// Human-readable description.
    pub detail: String,
}

impl Finding {
    /// Creates a finding scoped to a whole relation.
    pub fn new(
        relation: impl Into<String>,
        code: impl Into<String>,
        detail: impl Into<String>,
    ) -> Finding {
        Finding {
            relation: relation.into(),
            page: None,
            slot: None,
            code: code.into(),
            detail: detail.into(),
        }
    }

    /// Scopes the finding to a page.
    pub fn on_page(mut self, page: u64) -> Finding {
        self.page = Some(page);
        self
    }

    /// Scopes the finding to a slot.
    pub fn on_slot(mut self, slot: u16) -> Finding {
        self.slot = Some(slot);
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.relation)?;
        if let Some(p) = self.page {
            write!(f, " page {p}")?;
        }
        if let Some(s) = self.slot {
            write!(f, " slot {s}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Runs every structural check and returns all findings (empty = clean).
///
/// Infallible by design: I/O and decode errors surface as `check-error`
/// findings rather than aborting the run, so a damaged database still
/// produces a full report.
pub fn check_all(db: &Db) -> Vec<Finding> {
    let mut out = Vec::new();
    // The storage is pinned: a vacuum or drop that commits meanwhile frees
    // what this run reads only once it is done.
    let (rels, storage, defined, _pins) = {
        let _order = crate::lock::order::token(crate::lock::order::CATALOG);
        let cat = db.inner.catalog.read();
        out.extend(cat.check());
        let storage: HashSet<(DeviceId, RelId)> = cat.storage().collect();
        let pins = db.inner.pin(storage.iter().copied().collect());
        (cat.relations().cloned().collect::<Vec<_>>(), storage, cat.defined_rows(), pins)
    };
    out.extend(db.inner.xlog.check(db.inner.status_io()));
    // The buffer pool's structural self-audit: its map and clock ring must
    // describe the same set of cached pages.
    out.extend(
        db.inner
            .pool
            .check_consistency()
            .into_iter()
            .map(|detail| Finding::new("buffer-pool", "buffer-inconsistent", detail)),
    );

    let by_id: HashMap<RelId, &RelationEntry> = rels.iter().map(|e| (e.id, e)).collect();
    catalog_rows(db, &by_id, defined, &storage, &mut out);
    for e in &rels {
        match db.inner.smgr.with(e.device, |m| Ok(m.has_rel(e.storage))) {
            Ok(true) => {}
            Ok(false) => {
                out.push(Finding::new(
                    &e.name,
                    "catalog-dangling-rel",
                    format!("relation {} is catalogued but its storage {} is absent from {}", e.id, e.storage, e.device),
                ));
                continue;
            }
            Err(err) => {
                out.push(Finding::new(
                    &e.name,
                    "check-error",
                    format!("cannot reach device {}: {err}", e.device),
                ));
                continue;
            }
        }
        match e.kind {
            RelKind::Heap => {
                let heap = db.inner.heap(e.storage, e.device);
                out.extend(heap.check(&e.name, &e.schema));
            }
            RelKind::BTreeIndex => {
                let bt = db.inner.btree(e.storage, e.device);
                let (findings, entries) = bt.check(&e.name);
                out.extend(findings);
                index_to_heap(db, e, &by_id, entries, &mut out);
            }
        }
    }

    for e in rels.iter().filter(|e| e.kind == RelKind::Heap) {
        if !e.indexes.is_empty() {
            if let Err(err) = heap_to_index(db, e, &by_id, &mut out) {
                out.push(Finding::new(
                    &e.name,
                    "check-error",
                    format!("heap/index cross-reference aborted: {err}"),
                ));
            }
        }
    }
    out
}

/// Cache ↔ rows ↔ devices. The catalog cache must be what reopening the
/// database would load from the visible system-relation rows — a row that
/// does not decode, a row the cache lacks or contradicts, a cached relation
/// with no row (it would not survive a restart) are all `catalog-row`,
/// except a relation a running transaction creates or drops
/// ([`Db::ddl_in_flight`]) and a type, function or rule whose row's
/// inserting transaction still runs —
/// and every relation a device holds must be in the catalog's `storage`
/// (`device-orphan-rel`), but for storage a running vacuum is building
/// (it holds the new storage id's exclusive lock): the reverse of the
/// per-relation `catalog-dangling-rel` check, and the verifier of the
/// sweep [`crate::Db::recover`] ends with. What a device manager finds
/// wrong with its own bookkeeping ([`crate::smgr::DeviceManager::check`]:
/// a jukebox block staged for no relation) is `device-manager`.
fn catalog_rows(
    db: &Db,
    by_id: &HashMap<RelId, &RelationEntry>,
    defined: [HashMap<String, Row>; 3],
    storage: &HashSet<(DeviceId, RelId)>,
    out: &mut Vec<Finding>,
) {
    let mut stored = Catalog::new();
    match db.scan_catalog().and_then(|rows| stored.load(rows)) {
        Err(err) => out.push(Finding::new("pg_class", "catalog-row", err.to_string())),
        Ok(()) => {
            let ids: HashSet<_> = stored.relations().map(|e| e.id).chain(by_id.keys().copied()).collect();
            for id in ids {
                let (row, cached) = (stored.relation(id).ok(), by_id.get(&id).copied());
                if row != cached && !(row.is_none() && db.ddl_in_flight(id)) {
                    out.push(Finding::new(
                        row.or(cached).map_or_else(String::new, |e| e.name.clone()),
                        "catalog-row",
                        format!("relation {id}: pg_class says {row:?}, the catalog cache {cached:?}"),
                    ));
                }
            }
            // A definition with no committed row is in flight, not wrong,
            // while the inserter of its row still runs.
            let in_flight = |rel, key: usize, value: Datum| {
                let rows = rows_in_flight(db, rel);
                rows.is_ok_and(|rows| rows.iter().any(|r| r.get(key) == Some(&value)))
            };
            let rels = [(PG_TYPE, "pg_type", 1), (PG_PROC, "pg_proc", 0), (PG_RULE, "pg_rule", 0)];
            for (((rel, relname, key), cached), stored) in
                rels.into_iter().zip(defined).zip(stored.defined_rows())
            {
                let names: BTreeSet<&String> = cached.keys().chain(stored.keys()).collect();
                for name in names {
                    let (row, entry) = (stored.get(name), cached.get(name));
                    if row != entry && !(row.is_none() && in_flight(rel, key, Datum::Text(name.clone()))) {
                        out.push(Finding::new(
                            name,
                            "catalog-row",
                            format!("{relname} says {row:?}, the catalog cache {entry:?}"),
                        ));
                    }
                }
            }
        }
    }
    for dev in db.inner.smgr.devices() {
        let Ok((on_device, problems)) = db.inner.smgr.with(dev, |m| Ok((m.relations(), m.check())))
        else {
            continue; // Reported per relation, as `check-error`.
        };
        for detail in problems {
            out.push(Finding::new(dev.to_string(), "device-manager", detail));
        }
        for rel in on_device {
            if !storage.contains(&(dev, rel)) && !db.ddl_in_flight(rel) {
                out.push(Finding::new(
                    dev.to_string(),
                    "device-orphan-rel",
                    format!("relation {rel} is on the device but not in the catalog"),
                ));
            }
        }
    }
}

/// The rows of the system relation `rel` whose inserting transaction still
/// runs: DDL in flight.
fn rows_in_flight(db: &Db, rel: RelId) -> DbResult<Vec<Row>> {
    let heap = db.inner.heap(rel, DeviceId::CATALOG);
    let mut rows = Vec::new();
    heap.scan_all_raw(|_tid, hdr, bytes| {
        if heap.state(hdr.xmin)? == XactState::InProgress {
            rows.push(decode_row(bytes)?);
        }
        Ok(())
    })?;
    Ok(rows)
}

/// Index → heap: every index entry that *resolves* to an on-disk tuple must
/// agree with the tuple's key bytes. Entries whose tid does not resolve are
/// legal crash debris (the index page reached disk, the heap page did not)
/// and are skipped — see the module docs.
///
/// A unique index is also held to its declaration: the committed versions
/// filed under one key must have disjoint lifetimes (`index-unique-
/// violation`), or some snapshot sees two rows where probes stop at one.
fn index_to_heap(
    db: &Db,
    index_rel: &RelationEntry,
    by_id: &HashMap<RelId, &RelationEntry>,
    entries: Vec<(crate::btree::Key, Tid)>,
    out: &mut Vec<Finding>,
) {
    let Some(info) = &index_rel.index else {
        return; // Catalog::check already reported the missing IndexInfo.
    };
    let Some(table) = by_id.get(&info.table) else {
        return; // Catalog::check already reported the dangling table.
    };
    let nblocks = match db
        .inner
        .smgr
        .with(table.device, |m| m.nblocks(table.storage))
    {
        Ok(n) => n,
        Err(err) => {
            out.push(Finding::new(
                &index_rel.name,
                "check-error",
                format!("cannot size heap {}: {err}", table.name),
            ));
            return;
        }
    };
    // Committed versions of the current key of a unique index, as
    // (created, deleted-or-never, tid). `entries` arrive in key order.
    let state = |xid| db.inner.xlog.state(&db.inner.pool, &db.inner.smgr, xid);
    let mut lifetimes: Vec<(SimInstant, Option<SimInstant>, Tid)> = Vec::new();
    let mut run_key: Option<crate::btree::Key> = None;
    for (key, tid) in entries {
        if info.unique && run_key.as_ref() != Some(&key) {
            unique_violations(index_rel, run_key.as_ref(), &mut lifetimes, out);
            run_key = Some(key.clone());
        }
        if u64::from(tid.blkno) >= nblocks {
            continue; // Dangling tid: crash debris.
        }
        let resolved: DbResult<Option<Vec<Finding>>> = (|| {
            let pref =
                db.inner
                    .pool
                    .get_page(&db.inner.smgr, table.device, table.storage, tid.blkno.into())?;
            let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
            let pbuf = pref.read();
            let data = pbuf.data();
            if !crate::page::is_initialized(data) {
                return Ok(None); // Crash debris.
            }
            let Some(item) = crate::page::item_even_dead(data, tid.slot) else {
                return Ok(None); // Crash debris (or reported by the heap pass).
            };
            let hdr = TupleHeader::decode(item)?;
            let XactState::Committed(created) = state(hdr.xmin)? else {
                return Ok(None); // Uncommitted writer: nothing to cross-check.
            };
            if info.unique {
                let deleted = match state(hdr.xmax)? {
                    XactState::Committed(t) => Some(t),
                    _ => None, // Never deleted, or by a transaction that failed.
                };
                lifetimes.push((created, deleted, tid));
            }
            let row = decode_row(&item[TupleHeader::SIZE.min(item.len())..])?;
            let mut local = Vec::new();
            for (ki, &col) in info.key_columns.iter().enumerate() {
                let heap_datum = row.get(col);
                let index_datum = key.get(ki);
                if heap_datum != index_datum {
                    local.push(
                        Finding::new(
                            &index_rel.name,
                            "index-key-mismatch",
                            format!(
                                "entry {key:?} at {tid} disagrees with heap column {col}: \
                                 index {index_datum:?} vs heap {heap_datum:?}"
                            ),
                        )
                        .on_page(tid.blkno.into())
                        .on_slot(tid.slot),
                    );
                }
            }
            Ok(Some(local))
        })();
        match resolved {
            Ok(Some(findings)) => out.extend(findings),
            Ok(None) => {}
            Err(err) => out.push(
                Finding::new(
                    &index_rel.name,
                    "check-error",
                    format!("entry at {tid} unreadable: {err}"),
                )
                .on_page(tid.blkno.into()),
            ),
        }
    }
    unique_violations(index_rel, run_key.as_ref(), &mut lifetimes, out);
}

/// Reports each pair of neighbouring lifetimes under one key of a unique
/// index that overlap, and empties `lifetimes` for the next key. A version
/// deleted by the transaction that created it was never visible to anyone
/// else and is left out; a version still live lasts forever.
fn unique_violations(
    index_rel: &RelationEntry,
    key: Option<&crate::btree::Key>,
    lifetimes: &mut Vec<(SimInstant, Option<SimInstant>, Tid)>,
    out: &mut Vec<Finding>,
) {
    lifetimes.retain(|&(created, deleted, _)| deleted.is_none_or(|d| d > created));
    lifetimes.sort_by_key(|&(created, deleted, _)| (created, deleted.is_none(), deleted));
    for pair in lifetimes.windows(2) {
        let ((_, a_deleted, a), (b_created, _, b)) = (pair[0], pair[1]);
        if a_deleted.is_none_or(|d| d > b_created) {
            out.push(
                Finding::new(
                    &index_rel.name,
                    "index-unique-violation",
                    format!(
                        "key {key:?}: the version at {a} is still visible when the one \
                         at {b} appears"
                    ),
                )
                .on_page(b.blkno.into())
                .on_slot(b.slot),
            );
        }
    }
    lifetimes.clear();
}

/// Heap → index: every tuple whose inserting transaction committed must have
/// an entry (same key, same tid) in every index on the relation. A
/// transaction logs its index entries before its `Commit` record, so a
/// committed tuple implies they are on their pages or replay onto them.
fn heap_to_index(
    db: &Db,
    heap_rel: &RelationEntry,
    by_id: &HashMap<RelId, &RelationEntry>,
    out: &mut Vec<Finding>,
) -> DbResult<()> {
    let mut indexes = Vec::new();
    for &idx in &heap_rel.indexes {
        let Some(&ie) = by_id.get(&idx) else {
            continue; // Catalog::check reports dangling index ids.
        };
        let Some(info) = &ie.index else { continue };
        indexes.push((ie, info.key_columns.clone()));
    }
    if indexes.is_empty() {
        return Ok(());
    }
    let heap = db.inner.heap(heap_rel.storage, heap_rel.device);
    heap.scan_all_raw(|tid, hdr, bytes| {
        if !matches!(heap.state(hdr.xmin)?, XactState::Committed(_)) {
            return Ok(()); // Uncommitted or crashed writer: no entry required.
        }
        let Ok(row) = decode_row(bytes) else {
            return Ok(()); // Heap::check already reported the bad tuple.
        };
        for (ie, key_columns) in &indexes {
            let mut key = Vec::with_capacity(key_columns.len());
            let mut skip = false;
            for &col in key_columns {
                match row.get(col) {
                    Some(d) => key.push(d.clone()),
                    None => skip = true, // Arity findings come from Heap::check.
                }
            }
            if skip {
                continue;
            }
            let bt = db.inner.btree(ie.storage, ie.device);
            match bt.contains(&key, tid) {
                Ok(true) => {}
                Ok(false) => out.push(
                    Finding::new(
                        &ie.name,
                        "index-missing-entry",
                        format!(
                            "committed tuple at {tid} in {} has no entry for key {key:?}",
                            heap_rel.name
                        ),
                    )
                    .on_page(tid.blkno.into())
                    .on_slot(tid.slot),
                ),
                Err(err) => out.push(Finding::new(
                    &ie.name,
                    "check-error",
                    format!("lookup of ({key:?}, {tid}) failed: {err}"),
                )),
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{Datum, Schema, TypeId};
    use crate::ids::XactId;

    fn sample_db() -> (Db, crate::ids::RelId) {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table(
                "emp",
                Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
            )
            .unwrap();
        db.create_index("emp_name_idx", rel, &["name"]).unwrap();
        let mut s = db.begin().unwrap();
        for (n, a) in [("mao", 29), ("mike", 31), ("wei", 27)] {
            s.insert(rel, vec![Datum::Text(n.into()), Datum::Int4(a)])
                .unwrap();
        }
        s.commit().unwrap();
        (db, rel)
    }

    #[test]
    fn clean_database_has_zero_findings() {
        let (db, _) = sample_db();
        let findings = db.check_all();
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn clean_after_deletes_updates_and_aborts() {
        let (db, rel) = sample_db();
        let mut s = db.begin().unwrap();
        let rows = s.seq_scan(rel).unwrap();
        let (tid, _) = rows[0].clone();
        s.delete(rel, tid).unwrap();
        let (tid2, mut row2) = rows[1].clone();
        row2[1] = Datum::Int4(99);
        s.update(rel, tid2, row2).unwrap();
        s.commit().unwrap();
        let mut a = db.begin().unwrap();
        a.insert(rel, vec![Datum::Text("gone".into()), Datum::Int4(1)])
            .unwrap();
        a.abort().unwrap();
        let findings = db.check_all();
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    /// Flips bytes inside a cached heap page and asserts the checker sees
    /// the damage (the corruption-seeding half of the acceptance criteria).
    #[test]
    fn detects_seeded_page_header_corruption() {
        let (db, rel) = sample_db();
        let e = {
            let cat = db.catalog();
            cat.relation(rel).unwrap().clone()
        };
        let pref = db
            .inner
            .pool
            .get_page(&db.inner.smgr, e.device, rel, 0)
            .unwrap();
        {
            let mut pbuf = pref.write();
            // Scribble the slot array (it starts right after the 20-byte
            // header): point slot 0 past the page end.
            let data = pbuf.data_mut();
            data[20..22].copy_from_slice(&(crate::page::PAGE_SIZE as u16 - 2).to_le_bytes());
        }
        let findings = db.check_all();
        assert!(
            findings.iter().any(|f| f.relation == "emp" && f.code == "page-invariant"),
            "corruption not detected: {findings:?}"
        );
    }

    #[test]
    fn detects_invalid_xmin() {
        let (db, rel) = sample_db();
        let e = {
            let cat = db.catalog();
            cat.relation(rel).unwrap().clone()
        };
        let pref = db
            .inner
            .pool
            .get_page(&db.inner.smgr, e.device, rel, 0)
            .unwrap();
        {
            let mut pbuf = pref.write();
            let data = pbuf.data_mut();
            let item = crate::page::item_mut(data, 0).unwrap();
            item[..4].copy_from_slice(&XactId::INVALID.0.to_le_bytes());
        }
        let findings = db.check_all();
        assert!(
            findings.iter().any(|f| f.code == "mvcc-xmin-invalid"),
            "invalid xmin not detected: {findings:?}"
        );
    }

    #[test]
    fn detects_missing_index_entry() {
        let (db, rel) = sample_db();
        // Remove one committed key from the index behind the heap's back.
        let (idx_entry, key, tid) = {
            let cat = db.catalog();
            let e = cat.relation(rel).unwrap();
            let ie = cat.relation(e.indexes[0]).unwrap().clone();
            drop(cat);
            let mut s = db.begin().unwrap();
            let (tid, row) = s.seq_scan(rel).unwrap()[0].clone();
            s.commit().unwrap();
            (ie, vec![row[0].clone()], tid)
        };
        let bt = db.inner.btree(idx_entry.storage, idx_entry.device);
        assert!(bt.delete(&key, tid).unwrap());
        let findings = db.check_all();
        assert!(
            findings.iter().any(|f| f.code == "index-missing-entry"),
            "missing index entry not detected: {findings:?}"
        );
    }

    /// A one-column table with an index on it, unique or not.
    fn keyed_table(unique: bool) -> (Db, crate::ids::RelId, RelationEntry) {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::INT4)]))
            .unwrap();
        let idx = if unique {
            db.create_unique_index("t_k", rel, &["k"]).unwrap()
        } else {
            db.create_index("t_k", rel, &["k"]).unwrap()
        };
        let ie = db.catalog().relation(idx).unwrap().clone();
        (db, rel, ie)
    }

    fn codes(db: &Db) -> Vec<String> {
        db.check_all().into_iter().map(|f| f.code).collect()
    }

    #[test]
    fn detects_a_version_run_out_of_tid_order() {
        let (db, rel, ie) = keyed_table(false);
        // Four versions of one row: one key, four entries, told apart and
        // ordered by tid alone.
        let mut s = db.begin().unwrap();
        let mut tid = s.insert(rel, vec![Datum::Int4(7), Datum::Int4(0)]).unwrap();
        for v in 1..4 {
            tid = s.update(rel, tid, vec![Datum::Int4(7), Datum::Int4(v)]).unwrap();
        }
        s.commit().unwrap();
        assert_eq!(codes(&db), [] as [&str; 0]);
        // Move the oldest entry behind the newest, as a run that grew in
        // arrival order across an unlucky split would have it.
        let root = 0;
        let pref = db.inner.pool.get_page(&db.inner.smgr, ie.device, ie.id, root).unwrap();
        {
            let mut pbuf = pref.write();
            let data = pbuf.data_mut();
            let oldest = crate::page::item(data, 0).unwrap().to_vec();
            crate::page::set_dead(data, 0).unwrap();
            crate::page::insert(data, &oldest).unwrap();
        }
        // Out of order, and so out of reach of a descent to its position.
        // A leaf is binary-searched, so the misplaced entry also hides the
        // newest one: the search for it lands past the misplaced entry at
        // the end of the slot array and finds nothing. Both versions are
        // reported missing.
        assert_eq!(
            codes(&db),
            ["btree-key-order", "index-missing-entry", "index-missing-entry"]
        );
    }

    #[test]
    fn detects_two_live_rows_under_one_key_of_a_unique_index() {
        let (db, rel, _) = keyed_table(true);
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, vec![Datum::Int4(7), Datum::Int4(0)]).unwrap();
        s.insert(rel, vec![Datum::Int4(8), Datum::Int4(0)]).unwrap();
        s.commit().unwrap();
        // A version chain is what uniqueness allows: each version ends as
        // the next begins, whoever replaced it — even its own creator.
        let mut s = db.begin().unwrap();
        let tid = s.update(rel, tid, vec![Datum::Int4(7), Datum::Int4(1)]).unwrap();
        s.update(rel, tid, vec![Datum::Int4(7), Datum::Int4(2)]).unwrap();
        s.commit().unwrap();
        assert_eq!(codes(&db), [] as [&str; 0]);
        // Nothing stops a writer that does not look first.
        let mut s = db.begin().unwrap();
        s.insert(rel, vec![Datum::Int4(7), Datum::Int4(3)]).unwrap();
        s.commit().unwrap();
        let findings = db.check_all();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "index-unique-violation");
        assert_eq!(findings[0].relation, "t_k");
        // The same history under an index that promises nothing is clean.
        let (db, rel, _) = keyed_table(false);
        let mut s = db.begin().unwrap();
        s.insert(rel, vec![Datum::Int4(7), Datum::Int4(0)]).unwrap();
        s.insert(rel, vec![Datum::Int4(7), Datum::Int4(3)]).unwrap();
        s.commit().unwrap();
        assert_eq!(codes(&db), [] as [&str; 0]);
    }

    #[test]
    fn detects_overlapping_past_lifetimes_under_a_unique_index() {
        let (db, rel, _) = keyed_table(true);
        let mut s = db.begin().unwrap();
        let first = s.insert(rel, vec![Datum::Int4(7), Datum::Int4(0)]).unwrap();
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        s.insert(rel, vec![Datum::Int4(7), Datum::Int4(1)]).unwrap();
        s.commit().unwrap();
        // Deleting the first leaves one live row, but a snapshot between the
        // second commit and this one saw two.
        let mut s = db.begin().unwrap();
        s.delete(rel, first).unwrap();
        s.commit().unwrap();
        assert_eq!(codes(&db), ["index-unique-violation"]);
    }

    #[test]
    fn detects_a_root_that_is_not_one() {
        let (db, rel) = sample_db();
        let idx = {
            let cat = db.catalog();
            let e = cat.relation(rel).unwrap();
            cat.relation(e.indexes[0]).unwrap().clone()
        };
        let pref = db
            .inner
            .pool
            .get_page(&db.inner.smgr, idx.device, idx.id, 0)
            .unwrap();
        {
            // Block 0 with a right sibling: the root has none.
            let mut pbuf = pref.write();
            let sp = crate::page::special_mut(pbuf.data_mut());
            sp[4..12].copy_from_slice(&7u64.to_le_bytes());
        }
        let findings = db.check_all();
        assert!(
            findings.iter().any(|f| f.relation == idx.name && f.code == "btree-root"),
            "corrupt root not detected: {findings:?}"
        );
    }

    #[test]
    fn detects_catalog_cache_rows_and_devices_out_of_step() {
        use crate::catalog::PG_CLASS;
        use crate::ids::{DeviceId, Oid};
        let (db, rel) = sample_db();
        let codes = |db: &Db| -> Vec<(String, String)> {
            let mut v: Vec<_> = db.check_all().into_iter().map(|f| (f.code, f.relation)).collect();
            v.sort();
            v
        };
        // Storage no row names: what a crash between a create's device
        // step and its commit leaves (and reopening sweeps).
        db.inner
            .smgr
            .with(DeviceId::DEFAULT, |m| m.create_rel(Oid(777_777)))
            .unwrap();
        assert_eq!(codes(&db), [("device-orphan-rel".into(), "dev0".into())]);
        db.inner
            .smgr
            .with(DeviceId::DEFAULT, |m| m.drop_rel(Oid(777_777)))
            .unwrap();

        // A cached relation whose row never committed would vanish at the
        // next restart.
        let mut ghost = db.catalog().relation(rel).unwrap().clone();
        (ghost.id, ghost.storage, ghost.name, ghost.indexes) = (Oid(777_778), Oid(777_778), "ghost".into(), vec![]);
        db.inner.catalog.write().add_relation(ghost.clone()).unwrap();
        db.inner
            .smgr
            .with(DeviceId::DEFAULT, |m| m.create_rel(ghost.id))
            .unwrap();
        assert_eq!(codes(&db), [("catalog-row".into(), "ghost".into())]);
        db.catalog_txn(|s| s.insert_row(PG_CLASS, ghost.to_row())).unwrap();
        assert_eq!(codes(&db), []);

        // Not so one whose creating transaction still runs, and nothing is
        // left of it once that transaction aborts.
        let mut s = db.begin().unwrap();
        s.create_table_on("pending", ghost.schema.clone(), DeviceId::DEFAULT, false).unwrap();
        assert_eq!(codes(&db), []);
        s.abort().unwrap();
        assert_eq!(codes(&db), []);

        // Types, functions and rules are held to their rows the same way:
        // a definition in flight passes, an entry with no row does not.
        let mut s = db.begin().unwrap();
        s.define_type("pending_type").unwrap();
        assert_eq!(codes(&db), []);
        s.abort().unwrap();
        let ghost_fn = crate::catalog::ProcEntry {
            name: "ghost_fn".into(),
            nargs: 0,
            ret: TypeId::INT4,
            impl_key: "t.ghost".into(),
            operates_on: None,
        };
        db.inner.catalog.write().define_proc(ghost_fn).unwrap();
        assert_eq!(codes(&db), [("catalog-row".into(), "ghost_fn".into())]);
        db.inner.catalog.write().undefine(crate::catalog::PG_PROC, "ghost_fn");

        // A row the cache does not know: an index naming no heap at that.
        let mut stray = db.catalog().relation_by_name("emp_name_idx").unwrap().clone();
        (stray.id, stray.name) = (Oid(777_779), "stray_idx".into());
        stray.index.as_mut().unwrap().table = Oid(777_780);
        db.catalog_txn(|s| s.insert_row(PG_CLASS, stray.to_row())).unwrap();
        assert_eq!(codes(&db), [("catalog-row".into(), "stray_idx".into())]);

        // A row that does not decode.
        let mut bad = ghost.to_row();
        bad[2] = Datum::Text("?".into());
        db.catalog_txn(|s| s.insert_row(PG_CLASS, bad)).unwrap();
        assert_eq!(codes(&db), [("catalog-row".into(), "pg_class".into())]);
    }

    #[test]
    fn pg_check_relation_reports_findings() {
        let (db, _) = sample_db();
        let mut s = db.begin().unwrap();
        let res = s
            .query("retrieve (c.relation, c.code) from c in pg_check")
            .unwrap();
        s.commit().unwrap();
        assert!(res.rows.is_empty(), "clean db, got {:?}", res.rows);
    }

    #[test]
    fn finding_display_is_readable() {
        let f = Finding::new("emp", "page-invariant", "slot 3 overlaps slot 4")
            .on_page(7)
            .on_slot(3);
        assert_eq!(
            f.to_string(),
            "[page-invariant] emp page 7 slot 3: slot 3 overlaps slot 4"
        );
    }
}
