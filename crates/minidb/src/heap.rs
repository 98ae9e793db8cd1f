//! No-overwrite heap relations.
//!
//! "When a record is updated or deleted, the original record is marked
//! invalid, but remains in place. For updates, a new record containing the
//! new values is added to the database." Deletion stamps the deleting
//! transaction id (`xmax`) into the tuple header in place — the only in-place
//! mutation the storage manager ever performs — and inserts append. Old
//! versions stay readable forever (or until the vacuum cleaner archives
//! them), which is what makes time travel work.

use crate::buffer::BufferPool;
use crate::datum::{decode_row, encode_row, Row};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId, Tid, XactId};
use crate::page;
use crate::smgr::Smgr;
use crate::stats::StatsRegistry;
use crate::xact::{Snapshot, TupleHeader, XactLog, XactState};

/// The largest encoded row that fits in one heap tuple.
pub const MAX_ROW: usize = page::MAX_ITEM - TupleHeader::SIZE;

/// A handle binding a heap relation to the machinery needed to operate on it.
pub struct Heap<'a> {
    /// The shared buffer cache.
    pub pool: &'a BufferPool,
    /// The device manager switch.
    pub smgr: &'a Smgr,
    /// The transaction status file (for visibility checks).
    pub xlog: &'a XactLog,
    /// Device the relation lives on.
    pub dev: DeviceId,
    /// The relation.
    pub rel: RelId,
    /// Where scan/fetch/append counts go.
    pub stats: &'a StatsRegistry,
    /// The write-ahead log, when mutations must be logged. `None` runs
    /// unlogged — read paths, integrity checks, and vacuum rewrites that
    /// checkpoint before and after instead.
    pub wal: Option<&'a crate::wal::Wal>,
}

impl<'a> Heap<'a> {
    /// Appends `rec` to the WAL (if one is attached) and stamps `data`'s
    /// page LSN with the record's end, upholding the LSN-before-write rule
    /// the buffer manager enforces on writeback.
    fn log(&self, data: &mut [u8], rec: &crate::wal::WalRecord) -> DbResult<()> {
        if let Some(wal) = self.wal {
            let end = wal.append(rec)?;
            page::set_lsn(data, end);
        }
        Ok(())
    }

    /// Number of pages in the relation.
    pub fn nblocks(&self) -> DbResult<u64> {
        self.smgr.with(self.dev, |m| m.nblocks(self.rel))
    }

    /// The state of `xid` ([`XactLog::state`]), through this heap's pool.
    pub fn state(&self, xid: XactId) -> DbResult<XactState> {
        self.xlog.state(self.pool, self.smgr, xid)
    }

    /// Structurally verifies every page and tuple of this heap, reporting
    /// problems as [`crate::check::Finding`]s (empty = clean).
    ///
    /// Uninitialized pages and tuples with an `Unknown` `xmin` are legal
    /// crash debris, not corruption — see [`crate::check`]. Committed tuples
    /// must carry a valid header, decode as a row, and match `schema`'s
    /// arity.
    pub fn check(&self, name: &str, schema: &crate::datum::Schema) -> Vec<crate::check::Finding> {
        use crate::check::Finding;
        let mut out = Vec::new();
        let nblocks = match self.nblocks() {
            Ok(n) => n,
            Err(e) => {
                out.push(Finding::new(
                    name,
                    "check-error",
                    format!("cannot size relation: {e}"),
                ));
                return out;
            }
        };
        for blkno in 0..nblocks {
            let pref = match self.pool.get_page(self.smgr, self.dev, self.rel, blkno) {
                Ok(p) => p,
                Err(e) => {
                    out.push(
                        Finding::new(name, "check-error", format!("page unreadable: {e}"))
                            .on_page(blkno),
                    );
                    continue;
                }
            };
            let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
            let pbuf = pref.read();
            let data = pbuf.data();
            if !page::is_initialized(data) {
                continue; // Extended but never flushed: legal crash debris.
            }
            for v in page::verify(data) {
                out.push(Finding::new(name, "page-invariant", v).on_page(blkno));
            }
            for slot in 0..page::nslots(data) {
                let Some(item) = page::item_even_dead(data, slot) else {
                    continue; // Out-of-range slots were reported by verify.
                };
                let hdr = match TupleHeader::decode(item) {
                    Ok(h) => h,
                    Err(e) => {
                        out.push(
                            Finding::new(name, "tuple-header", e.to_string())
                                .on_page(blkno)
                                .on_slot(slot),
                        );
                        continue;
                    }
                };
                if hdr.xmin == XactId::INVALID {
                    out.push(
                        Finding::new(name, "mvcc-xmin-invalid", "tuple with xmin 0")
                            .on_page(blkno)
                            .on_slot(slot),
                    );
                    continue;
                }
                let committed = match self.state(hdr.xmin) {
                    Ok(state) => matches!(state, XactState::Committed(_)),
                    Err(e) => {
                        out.push(Finding::new(name, "check-error", e.to_string()).on_page(blkno).on_slot(slot));
                        continue;
                    }
                };
                if committed {
                    match decode_row(&item[TupleHeader::SIZE..]) {
                        Ok(row) => {
                            if row.len() != schema.len() {
                                out.push(
                                    Finding::new(
                                        name,
                                        "tuple-arity",
                                        format!(
                                            "committed tuple has {} columns, schema has {}",
                                            row.len(),
                                            schema.len()
                                        ),
                                    )
                                    .on_page(blkno)
                                    .on_slot(slot),
                                );
                            }
                        }
                        Err(e) => {
                            out.push(
                                Finding::new(
                                    name,
                                    "tuple-undecodable",
                                    format!("committed tuple does not decode: {e}"),
                                )
                                .on_page(blkno)
                                .on_slot(slot),
                            );
                        }
                    }
                }
            }
        }
        out
    }

    /// Inserts `row` on behalf of `xid`, returning the new tuple's id.
    pub fn insert(&self, xid: XactId, row: &[crate::datum::Datum]) -> DbResult<Tid> {
        self.insert_bytes(
            TupleHeader {
                xmin: xid,
                xmax: XactId::INVALID,
            },
            &encode_row(row),
        )
    }

    /// Inserts a pre-encoded row under an explicit header (vacuum uses this
    /// to move tuples while preserving their visibility information).
    pub fn insert_bytes(&self, hdr: TupleHeader, row_bytes: &[u8]) -> DbResult<Tid> {
        self.stats.heap.appends.bump();
        if row_bytes.len() > MAX_ROW {
            return Err(DbError::TupleTooBig {
                size: row_bytes.len(),
                max: MAX_ROW,
            });
        }
        let mut tuple = Vec::with_capacity(TupleHeader::SIZE + row_bytes.len());
        tuple.extend_from_slice(&hdr.encode());
        tuple.extend_from_slice(row_bytes);

        // Try the last page first; extend if it will not fit.
        let nblocks = self.nblocks()?;
        if nblocks > 0 {
            let blkno = nblocks - 1;
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blkno)?;
            let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
            let mut pbuf = pref.write();
            let data = pbuf.data_mut();
            if !page::is_initialized(data) {
                page::init(data, 0);
                self.log_init(data, blkno)?;
            }
            if page::fits(data, tuple.len()) {
                let slot = page::insert(data, &tuple)?;
                self.log_insert(data, blkno, slot, &tuple)?;
                return Ok(Tid::new(blkno as u32, slot));
            }
        }
        let (blkno, pref) = self.pool.new_page(self.smgr, self.dev, self.rel)?;
        let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
        let mut pbuf = pref.write();
        let data = pbuf.data_mut();
        page::init(data, 0);
        self.log_init(data, blkno)?;
        let slot = page::insert(data, &tuple)?;
        self.log_insert(data, blkno, slot, &tuple)?;
        Ok(Tid::new(blkno as u32, slot))
    }

    fn log_init(&self, data: &mut [u8], blkno: u64) -> DbResult<()> {
        self.log(
            data,
            &crate::wal::WalRecord::PageInit {
                dev: self.dev,
                rel: self.rel,
                blkno,
                special_size: 0,
            },
        )
    }

    fn log_insert(&self, data: &mut [u8], blkno: u64, slot: u16, tuple: &[u8]) -> DbResult<()> {
        self.log(
            data,
            &crate::wal::WalRecord::Insert {
                dev: self.dev,
                rel: self.rel,
                blkno,
                slot,
                tuple: tuple.to_vec(),
            },
        )
    }

    /// Marks the tuple at `tid` as deleted by `xid`.
    ///
    /// Returns `false` if the tuple was already deleted (its `xmax` is set
    /// and the deleter did not abort).
    pub fn delete(&self, xid: XactId, tid: Tid) -> DbResult<bool> {
        let pref = self
            .pool
            .get_page(self.smgr, self.dev, self.rel, tid.blkno as u64)?;
        let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
        let mut pbuf = pref.write();
        let data = pbuf.data_mut();
        let item = page::item_mut(data, tid.slot)
            .ok_or_else(|| DbError::NotFound(format!("tuple {tid} in {}", self.rel)))?;
        let hdr = TupleHeader::decode(item)?;
        if hdr.xmax.is_valid() {
            // An aborted deleter leaves a stale xmax we may overwrite.
            match self.state(hdr.xmax)? {
                XactState::Aborted | XactState::Unknown => {}
                _ => return Ok(false),
            }
        }
        let new_hdr = TupleHeader {
            xmin: hdr.xmin,
            xmax: xid,
        };
        item[..TupleHeader::SIZE].copy_from_slice(&new_hdr.encode());
        self.log(
            data,
            &crate::wal::WalRecord::Overwrite {
                dev: self.dev,
                rel: self.rel,
                blkno: tid.blkno as u64,
                slot: tid.slot,
                offset: 0,
                bytes: new_hdr.encode().to_vec(),
            },
        )?;
        Ok(true)
    }

    /// Replaces the tuple at `tid` with `row`: stamps the old version and
    /// appends the new one, returning its id.
    pub fn update(&self, xid: XactId, tid: Tid, row: &[crate::datum::Datum]) -> DbResult<Tid> {
        if !self.delete(xid, tid)? {
            return Err(DbError::Invalid(format!(
                "tuple {tid} concurrently deleted"
            )));
        }
        self.insert(xid, row)
    }

    /// Fetches the row at `tid` if it is visible under `snap`.
    pub fn fetch(&self, snap: &Snapshot, tid: Tid) -> DbResult<Option<Row>> {
        self.fetch_with(snap, tid, decode_row)
    }

    /// Reads the tuple at `tid`, if it is visible under `snap`, through
    /// `read`, which is handed the encoded row. Visibility comes from the
    /// tuple header, so the page is read either way; a caller that wants
    /// only to know the version exists passes a `read` that ignores the
    /// bytes and saves the decode and the copy.
    pub fn fetch_with<T>(
        &self,
        snap: &Snapshot,
        tid: Tid,
        read: impl FnOnce(&[u8]) -> DbResult<T>,
    ) -> DbResult<Option<T>> {
        self.stats.heap.fetches.bump();
        if matches!(snap, Snapshot::AsOf(_)) {
            self.stats.xact.time_travel_reads.bump();
        }
        let nblocks = self.nblocks()?;
        if tid.blkno as u64 >= nblocks {
            return Ok(None);
        }
        let pref = self
            .pool
            .get_page(self.smgr, self.dev, self.rel, tid.blkno as u64)?;
        let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
        let pbuf = pref.read();
        let data = pbuf.data();
        if !page::is_initialized(data) {
            return Ok(None);
        }
        let Some(item) = page::item(data, tid.slot) else {
            return Ok(None);
        };
        let hdr = TupleHeader::decode(item)?;
        if !snap.visible(hdr, |x| self.state(x))? {
            return Ok(None);
        }
        read(&item[TupleHeader::SIZE..]).map(Some)
    }

    /// Calls `f` for every tuple visible under `snap`, in physical order.
    /// `f` returns `false` to stop the scan early.
    pub fn scan_visible(
        &self,
        snap: &Snapshot,
        mut f: impl FnMut(Tid, Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.stats.heap.scans.bump();
        if matches!(snap, Snapshot::AsOf(_)) {
            self.stats.xact.time_travel_reads.bump();
        }
        let nblocks = self.nblocks()?;
        for blkno in 0..nblocks {
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blkno)?;
            // Collect matches under the read lock, then release before
            // calling out (f may want to fetch other pages).
            let mut visible_rows = Vec::new();
            {
                let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
                let pbuf = pref.read();
                let data = pbuf.data();
                if !page::is_initialized(data) {
                    continue;
                }
                for (slot, item) in page::iter(data) {
                    let hdr = TupleHeader::decode(item)?;
                    if snap.visible(hdr, |x| self.state(x))? {
                        visible_rows.push((
                            Tid::new(blkno as u32, slot),
                            decode_row(&item[TupleHeader::SIZE..])?,
                        ));
                    }
                }
            }
            for (tid, row) in visible_rows {
                if !f(tid, row)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Collects every visible tuple (convenience over [`Heap::scan_visible`]).
    pub fn scan_collect(&self, snap: &Snapshot) -> DbResult<Vec<(Tid, Row)>> {
        let mut out = Vec::new();
        self.scan_visible(snap, |tid, row| {
            out.push((tid, row));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Calls `f` for every tuple regardless of visibility, including ones in
    /// dead page slots, with raw header and bytes. The vacuum cleaner's scan.
    pub fn scan_all_raw(
        &self,
        mut f: impl FnMut(Tid, TupleHeader, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        self.stats.heap.scans.bump();
        let nblocks = self.nblocks()?;
        for blkno in 0..nblocks {
            let pref = self.pool.get_page(self.smgr, self.dev, self.rel, blkno)?;
            let _order = crate::lock::order::token(crate::lock::order::HEAP_PAGE);
            let pbuf = pref.read();
            let data = pbuf.data();
            if !page::is_initialized(data) {
                continue;
            }
            for slot in 0..page::nslots(data) {
                if let Some(item) = page::item_even_dead(data, slot) {
                    let hdr = TupleHeader::decode(item)?;
                    f(
                        Tid::new(blkno as u32, slot),
                        hdr,
                        &item[TupleHeader::SIZE..],
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::ids::Oid;
    use crate::xact::rig::Rig;

    struct Fixture {
        rig: Rig,
        xlog: XactLog,
        rel: RelId,
        stats: StatsRegistry,
    }

    impl Fixture {
        fn new() -> Fixture {
            let rig = Rig::new(256);
            let rel = Oid(50);
            rig.smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel)).unwrap();
            Fixture {
                rig,
                xlog: XactLog::default(),
                rel,
                stats: StatsRegistry::new(),
            }
        }

        fn heap(&self) -> Heap<'_> {
            Heap {
                pool: &self.rig.pool,
                smgr: &self.rig.smgr,
                xlog: &self.xlog,
                dev: DeviceId::DEFAULT,
                rel: self.rel,
                stats: &self.stats,
                wal: None,
            }
        }

        fn begin(&self) -> (XactId, Snapshot) {
            let xid = self.xlog.start(self.rig.io()).unwrap();
            let mut active = self.xlog.active_set();
            active.remove(&xid);
            (xid, Snapshot::Current { xid, active })
        }

        /// Commits `xid` as a writer does: its `Commit` onto its status
        /// page, then out of the running set.
        fn commit(&self, xid: XactId, time_ns: u64) {
            let rec = crate::wal::WalRecord::Commit { xid, time_ns };
            self.xlog.log_outcome(self.rig.io(), &rec).unwrap();
            self.xlog.finish(xid).unwrap();
        }
    }

    fn row(n: i32) -> Row {
        vec![Datum::Int4(n), Datum::Text(format!("row{n}"))]
    }

    #[test]
    fn insert_fetch_visible_to_self() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (xid, snap) = fx.begin();
        let tid = h.insert(xid, &row(1)).unwrap();
        assert_eq!(h.fetch(&snap, tid).unwrap(), Some(row(1)));
    }

    #[test]
    fn uncommitted_insert_invisible_to_others() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let tid = h.insert(x1, &row(1)).unwrap();
        let (_, snap2) = fx.begin();
        assert_eq!(h.fetch(&snap2, tid).unwrap(), None);
        // After commit, a *new* snapshot sees it.
        fx.commit(x1, 10);
        let (_, snap3) = fx.begin();
        assert_eq!(h.fetch(&snap3, tid).unwrap(), Some(row(1)));
    }

    #[test]
    fn delete_hides_from_later_snapshots_keeps_history() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let tid = h.insert(x1, &row(7)).unwrap();
        fx.commit(x1, 10);

        let (x2, snap2) = fx.begin();
        assert!(h.delete(x2, tid).unwrap());
        assert_eq!(
            h.fetch(&snap2, tid).unwrap(),
            None,
            "deleter no longer sees it"
        );
        fx.commit(x2, 20);

        let (_, snap3) = fx.begin();
        assert_eq!(h.fetch(&snap3, tid).unwrap(), None);

        // Time travel to before the delete: the row is there.
        let t15 = Snapshot::AsOf(simdev::SimInstant::from_nanos(15));
        assert_eq!(h.fetch(&t15, tid).unwrap(), Some(row(7)));
        // And before the insert: nothing.
        let t5 = Snapshot::AsOf(simdev::SimInstant::from_nanos(5));
        assert_eq!(h.fetch(&t5, tid).unwrap(), None);
    }

    #[test]
    fn aborted_delete_leaves_tuple_visible_and_redeletable() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let tid = h.insert(x1, &row(3)).unwrap();
        fx.commit(x1, 10);

        let (x2, _) = fx.begin();
        assert!(h.delete(x2, tid).unwrap());
        fx.xlog.finish(x2).unwrap();

        let (x3, snap3) = fx.begin();
        assert_eq!(h.fetch(&snap3, tid).unwrap(), Some(row(3)));
        // A new transaction can delete it again (stale aborted xmax).
        assert!(h.delete(x3, tid).unwrap());
    }

    #[test]
    fn double_delete_by_committed_xact_returns_false() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let tid = h.insert(x1, &row(3)).unwrap();
        fx.commit(x1, 10);
        let (x2, _) = fx.begin();
        assert!(h.delete(x2, tid).unwrap());
        assert!(!h.delete(x2, tid).unwrap());
    }

    #[test]
    fn update_creates_new_version() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let t1 = h.insert(x1, &row(1)).unwrap();
        fx.commit(x1, 10);

        let (x2, snap2) = fx.begin();
        let t2 = h.update(x2, t1, &row(2)).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(h.fetch(&snap2, t1).unwrap(), None);
        assert_eq!(h.fetch(&snap2, t2).unwrap(), Some(row(2)));
        fx.commit(x2, 20);

        // Both versions reachable through time travel.
        let t15 = Snapshot::AsOf(simdev::SimInstant::from_nanos(15));
        assert_eq!(h.fetch(&t15, t1).unwrap(), Some(row(1)));
        let t25 = Snapshot::AsOf(simdev::SimInstant::from_nanos(25));
        assert_eq!(h.fetch(&t25, t2).unwrap(), Some(row(2)));
    }

    #[test]
    fn scan_sees_only_visible() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        for i in 0..5 {
            h.insert(x1, &row(i)).unwrap();
        }
        fx.commit(x1, 10);
        let (x2, _) = fx.begin();
        h.insert(x2, &row(99)).unwrap(); // Uncommitted.

        let (_, snap) = fx.begin();
        let rows = h.scan_collect(&snap).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, r)| r[0] != Datum::Int4(99)));
    }

    #[test]
    fn scan_early_stop() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, snap) = fx.begin();
        for i in 0..10 {
            h.insert(x1, &row(i)).unwrap();
        }
        let mut seen = 0;
        h.scan_visible(&snap, |_, _| {
            seen += 1;
            Ok(seen < 3)
        })
        .unwrap();
        assert_eq!(seen, 3);
    }

    #[test]
    fn multi_page_insert_and_scan() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, snap) = fx.begin();
        // ~2 KB rows: 3-4 per page, so 50 rows span many pages.
        for i in 0..50 {
            let big = vec![Datum::Int4(i), Datum::Bytes(vec![i as u8; 2000])];
            h.insert(x1, &big).unwrap();
        }
        assert!(h.nblocks().unwrap() > 5);
        let rows = h.scan_collect(&snap).unwrap();
        assert_eq!(rows.len(), 50);
        for (i, (_, r)) in rows.iter().enumerate() {
            assert_eq!(r[0], Datum::Int4(i as i32), "physical order preserved");
        }
    }

    #[test]
    fn oversized_row_rejected() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let huge = vec![Datum::Bytes(vec![0u8; MAX_ROW + 1])];
        assert!(matches!(
            h.insert(x1, &huge),
            Err(DbError::TupleTooBig { .. })
        ));
    }

    #[test]
    fn max_size_row_fits_one_per_page() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, snap) = fx.begin();
        // Encoded row: 2 (ncols) + 1 (tag) + 4 (len) + n  = MAX_ROW.
        let n = MAX_ROW - 7;
        let tid = h.insert(x1, &[Datum::Bytes(vec![9u8; n])]).unwrap();
        let got = h.fetch(&snap, tid).unwrap().unwrap();
        assert_eq!(got[0].as_bytes().unwrap().len(), n);
        // The next insert of the same size must go to a fresh page.
        let tid2 = h.insert(x1, &[Datum::Bytes(vec![8u8; n])]).unwrap();
        assert_ne!(tid.blkno, tid2.blkno);
    }

    #[test]
    fn fetch_out_of_range_is_none() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (_, snap) = fx.begin();
        assert_eq!(h.fetch(&snap, Tid::new(99, 0)).unwrap(), None);
    }

    #[test]
    fn scan_all_raw_sees_deleted_versions() {
        let fx = Fixture::new();
        let h = fx.heap();
        let (x1, _) = fx.begin();
        let tid = h.insert(x1, &row(1)).unwrap();
        fx.commit(x1, 10);
        let (x2, _) = fx.begin();
        h.delete(x2, tid).unwrap();
        fx.commit(x2, 20);

        let mut count = 0;
        h.scan_all_raw(|_, hdr, _| {
            count += 1;
            assert_eq!(hdr.xmin, x1);
            assert_eq!(hdr.xmax, x2);
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 1);
    }
}
