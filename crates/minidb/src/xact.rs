//! Transactions: the status relation, id allocation, snapshots, and tuple
//! visibility.
//!
//! POSTGRES's no-overwrite storage manager needs no write-ahead log: "only
//! the start time and commit state of a transaction must be recorded in the
//! status file, no special log processing is required at crash recovery
//! time". This module is that status file plus the visibility rules that
//! make both ordinary reads and *time travel* work. A transaction that
//! crashes before committing simply never gets a `Committed` entry; its
//! tuples are invisible to everyone forever.
//!
//! The status file is a relation, [`PG_LOG`], on the catalog device: pages
//! of one 9-byte entry per xid. A status page changes the way every page
//! does. A `Commit` or `Abort` record is appended under the page's latch
//! and applied to it ([`WalRecord::redo`]), and the page is stamped with the
//! record's LSN, so the buffer pool writes it only once the log is durable
//! past that record. Restart needs nothing of its own: first-touch replay
//! brings each page up to date as [`XactLog::load`] reads it. [`XactLog`]
//! also keeps every entry in memory, for visibility checks; the pages are
//! the durable form.
//!
//! It also hands out xids and oids, from in-memory counters below ceilings
//! that one unforced [`WalRecord::Ceiling`] raises 1 024 at a time. That
//! record is applied to status page 0, whose entry for the invalid xid
//! holds both ceilings. The write-ahead rule makes that enough: whatever
//! durable thing carries an id — a logged page, a `Commit` record, a status
//! page — was logged after the record covering the id and reaches its
//! device only once the log is durable past it. Restart resumes both
//! counters at page 0's ceilings, so no id that anything surviving a crash
//! carries is handed out again; one given to a transaction that left
//! nothing durable may be.

use std::collections::HashSet;

use parking_lot::Mutex;
use simdev::SimInstant;

use crate::buffer::{BufferPool, PageBuf, PinnedPage};
use crate::catalog::{Catalog, PG_LOG};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, XactId};
use crate::lock::order::{token, HEAP_PAGE, XACT_LOG};
use crate::page;
use crate::smgr::Smgr;
use crate::wal::{Wal, WalRecord};

/// Commit state of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XactState {
    /// Never started (or started and crashed before commit — equivalent).
    Unknown,
    /// Running right now (volatile; never persisted).
    InProgress,
    /// Committed at the given instant.
    Committed(SimInstant),
    /// Explicitly aborted.
    Aborted,
}

const ENTRY_SIZE: usize = 9; // 1 status byte + 8 commit-time bytes.
/// Where a status page's entries start: past the page header, whose LSN
/// the status pages keep where every page does.
const ENTRIES_AT: usize = 24;
const ENTRIES_PER_PAGE: usize = (page::PAGE_SIZE - ENTRIES_AT) / ENTRY_SIZE;

const ST_UNKNOWN: u8 = 0;
const ST_COMMITTED: u8 = 2;
const ST_ABORTED: u8 = 3;

/// How many ids one raise of a ceiling covers: at most this many of a kind
/// are skipped after a crash.
const CEILING_STEP: u32 = 1024;

/// The status page holding `xid`'s entry.
pub(crate) fn status_page(xid: XactId) -> u64 {
    (xid.0 as usize / ENTRIES_PER_PAGE) as u64
}

/// Byte offset of `xid`'s entry on its status page.
fn entry_at(xid: XactId) -> usize {
    ENTRIES_AT + xid.0 as usize % ENTRIES_PER_PAGE * ENTRY_SIZE
}

/// The xid and oid ceilings held in status page 0's entry for the invalid
/// xid (zero on a page no raise has reached).
fn ceilings(buf: &[u8]) -> DbResult<(u32, u32)> {
    let at = entry_at(XactId::INVALID);
    Ok((crate::bytes::le_u32(buf, at + 1)?, crate::bytes::le_u32(buf, at + 5)?))
}

/// Applies a status record to its page ([`WalRecord::page_addr`]): an
/// outcome sets its xid's entry; a `Ceiling` raises page 0's ceilings and
/// never lowers them.
pub(crate) fn redo(rec: &WalRecord, buf: &mut [u8]) -> DbResult<()> {
    match *rec {
        WalRecord::Commit { xid, time_ns } => {
            let at = entry_at(xid);
            buf[at] = ST_COMMITTED;
            buf[at + 1..at + ENTRY_SIZE].copy_from_slice(&time_ns.to_le_bytes());
        }
        WalRecord::Abort { xid } => {
            let at = entry_at(xid);
            buf[at..at + ENTRY_SIZE].fill(0);
            buf[at] = ST_ABORTED;
        }
        WalRecord::Ceiling { xid, oid } => {
            let (x, o) = ceilings(buf)?;
            let at = entry_at(XactId::INVALID);
            buf[at + 1..at + 5].copy_from_slice(&x.max(xid.0).to_le_bytes());
            buf[at + 5..at + 9].copy_from_slice(&o.max(oid.0).to_le_bytes());
        }
        _ => {}
    }
    Ok(())
}

/// Appends `rec` and applies it to `buf`, its status page, stamping the
/// record's end LSN, which it returns. The page is marked dirty before the
/// record exists, so a checkpoint whose cut lies past the record writes it.
fn log_to(buf: &mut PageBuf, wal: &Wal, rec: &WalRecord) -> DbResult<u64> {
    let data = buf.data_mut();
    let lsn = wal.append(rec)?;
    redo(rec, data)?;
    page::set_lsn(data, lsn);
    Ok(lsn)
}

/// What the status relation's pages are reached through: the buffer pool
/// and storage manager they live in, and the log each change to them is
/// appended to first.
#[derive(Clone, Copy)]
pub struct StatusIo<'a> {
    /// The buffer pool.
    pub pool: &'a BufferPool,
    /// The storage manager, with the catalog device registered.
    pub smgr: &'a Smgr,
    /// The write-ahead log.
    pub wal: &'a Wal,
}

struct LogInner {
    /// Entry `i` describes `XactId(i)`; index 0 is the invalid xid. Its
    /// length is the next xid to hand out.
    entries: Vec<XactState>,
    /// The next oid to hand out.
    next_oid: u32,
    /// First xid, and first oid, that no `Ceiling` record covers.
    xid_ceiling: u32,
    oid_ceiling: u32,
}

impl LogInner {
    /// A log holding `entries`, whose ceilings cover no further id.
    fn new(entries: Vec<XactState>) -> LogInner {
        LogInner {
            xid_ceiling: entries.len() as u32,
            entries,
            next_oid: Catalog::FIRST_OID,
            oid_ceiling: Catalog::FIRST_OID,
        }
    }

    fn next_xid(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Takes note of ceilings found durable at restart and resumes both
    /// counters at them: an id below may have been handed out and be
    /// carried by something that survived.
    fn resume_at(&mut self, xid: u32, oid: u32) {
        self.xid_ceiling = self.xid_ceiling.max(xid);
        self.oid_ceiling = self.oid_ceiling.max(oid);
        let len = self.entries.len().max(self.xid_ceiling as usize);
        self.entries.resize(len, XactState::Unknown);
        self.next_oid = self.next_oid.max(self.oid_ceiling);
    }
}

/// The transaction status file, and the allocator of xids and oids.
///
/// Outcomes are *marked* here in memory — the commit point is the log
/// force that made the `Commit` record durable, which the caller performs
/// first ([`XactLog::log_outcome`]) — and reach the device with their
/// status page, as any logged page does. In-progress state is memory-only,
/// and so are the outcomes of transactions that logged nothing (read-only
/// commits, aborts): a crash leaves those `Unknown`, which means aborted,
/// and no tuple carries a read-only xid.
pub struct XactLog {
    inner: Mutex<LogInner>,
    /// Serialises growing the status relation: two transactions that need
    /// the same new page must not each append one.
    grow: Mutex<()>,
}

impl Default for XactLog {
    /// A fresh log. [`XactId::FROZEN`] is committed at the epoch (bootstrap
    /// tuples are stamped with it) and needs no entry on any page; the
    /// ceilings cover no id yet, so the first of either kind raises them.
    fn default() -> XactLog {
        XactLog {
            inner: Mutex::new(LogInner::new(vec![
                XactState::Unknown,
                XactState::Committed(SimInstant::EPOCH),
            ])),
            grow: Mutex::new(()),
        }
    }
}

impl XactLog {
    /// Reloads every logged outcome and both ceilings from the status
    /// relation after a crash or restart. The storage manager must already
    /// replay the recovered log on first touch: reading each page through
    /// the pool brings it up to date with the `Commit`, `Abort` and
    /// `Ceiling` records newer than the last checkpoint. A transaction in
    /// progress at the crash has no entry and reads [`XactState::Unknown`],
    /// making its updates permanently invisible. Allocation resumes at page
    /// 0's ceilings.
    pub fn load(&self, io: StatusIo<'_>) -> DbResult<()> {
        let (dev, rel) = (DeviceId::CATALOG, PG_LOG);
        let mut entries = vec![XactState::Unknown, XactState::Committed(SimInstant::EPOCH)];
        let (mut xid_ceiling, mut oid_ceiling) = (0, 0);
        let pages = io.smgr.with(dev, |m| m.nblocks(rel))?;
        for blkno in 0..pages {
            let page = io.pool.get_page(io.smgr, dev, rel, blkno)?;
            let _latch = token(HEAP_PAGE);
            let buf = page.read();
            let data = buf.data();
            if blkno == 0 {
                (xid_ceiling, oid_ceiling) = ceilings(data)?;
            }
            let first = blkno as usize * ENTRIES_PER_PAGE;
            for (i, xid) in (first..first + ENTRIES_PER_PAGE).enumerate() {
                let at = ENTRIES_AT + i * ENTRY_SIZE;
                let state = match data[at] {
                    // Also the invalid xid's entry, whose status byte a
                    // raise leaves zero.
                    ST_UNKNOWN => continue,
                    ST_COMMITTED => XactState::Committed(SimInstant::from_nanos(
                        crate::bytes::le_u64(data, at + 1)?,
                    )),
                    ST_ABORTED => XactState::Aborted,
                    other => {
                        return Err(DbError::Corrupt(format!(
                            "bad status byte {other} for xid {xid}"
                        )))
                    }
                };
                if entries.len() <= xid {
                    entries.resize(xid + 1, XactState::Unknown);
                }
                entries[xid] = state;
            }
        }
        let mut inner = LogInner::new(entries);
        inner.resume_at(xid_ceiling, oid_ceiling);
        let _order = token(XACT_LOG);
        *self.inner.lock() = inner;
        Ok(())
    }

    /// Allocates a new transaction id, marked in-progress (volatile),
    /// raising the xid ceiling first if the counter has reached it.
    pub fn start(&self, io: StatusIo<'_>) -> DbResult<XactId> {
        self.allocate(io, |g| {
            (g.next_xid() < g.xid_ceiling).then(|| {
                g.entries.push(XactState::InProgress);
                XactId(g.next_xid() - 1)
            })
        })
    }

    /// Allocates a fresh object identifier, raising the oid ceiling first
    /// if the counter has reached it.
    pub fn alloc_oid(&self, io: StatusIo<'_>) -> DbResult<Oid> {
        self.allocate(io, |g| {
            (g.next_oid < g.oid_ceiling).then(|| {
                g.next_oid += 1;
                Oid(g.next_oid - 1)
            })
        })
    }

    /// Takes an id with `take`, which finds none at its counter's ceiling:
    /// then the ceilings rise and it tries again.
    fn allocate<T>(&self, io: StatusIo<'_>, take: impl Fn(&mut LogInner) -> Option<T>) -> DbResult<T> {
        loop {
            {
                let _order = token(XACT_LOG);
                if let Some(id) = take(&mut self.inner.lock()) {
                    return Ok(id);
                }
            }
            self.raise_ceiling(io)?;
        }
    }

    /// The one way a ceiling rises: each counter that has reached its
    /// ceiling gets one [`CEILING_STEP`] past it, and one `Ceiling` record
    /// carrying both limits is appended — under status page 0's latch and
    /// the `xact-log` mutex, never forced — and applied to that page. The
    /// new limits take effect only once the append has returned; if it
    /// fails (`WAL full`, past the room [`Wal::append`] keeps for this
    /// record) both stay where they were. Taken once per 1 024 ids, so kept
    /// off the allocation path.
    #[cold]
    fn raise_ceiling(&self, io: StatusIo<'_>) -> DbResult<()> {
        let page = self.page(io, 0)?;
        let _latch = token(HEAP_PAGE);
        let mut buf = page.write();
        let _order = token(XACT_LOG);
        let mut g = self.inner.lock();
        let raised = |next, ceiling| if next < ceiling { ceiling } else { next + CEILING_STEP };
        let (xid, oid) = (raised(g.next_xid(), g.xid_ceiling), raised(g.next_oid, g.oid_ceiling));
        if (xid, oid) != (g.xid_ceiling, g.oid_ceiling) {
            let rec = WalRecord::Ceiling { xid: XactId(xid), oid: Oid(oid) };
            log_to(&mut buf, io.wal, &rec)?;
            (g.xid_ceiling, g.oid_ceiling) = (xid, oid);
        }
        Ok(())
    }

    /// Appends the outcome `rec` — a `Commit` or an `Abort` record — and
    /// applies it to its xid's status page; returns the record's end LSN.
    /// Memory is not marked: a commit is marked
    /// ([`XactLog::mark_committed`]) only once a log force has covered that
    /// LSN, and the page cannot reach its device before then either.
    pub fn log_outcome(&self, io: StatusIo<'_>, rec: &WalRecord) -> DbResult<u64> {
        let (WalRecord::Commit { xid, .. } | WalRecord::Abort { xid }) = *rec else {
            return Err(DbError::Invalid(format!("{rec:?} is not a transaction outcome")));
        };
        let page = self.page(io, status_page(xid))?;
        let _latch = token(HEAP_PAGE);
        let mut buf = page.write();
        log_to(&mut buf, io.wal, rec)
    }

    /// Status page `blkno`, pinned. The relation grows to reach it: a new
    /// page is zero — every entry `Unknown` — and dirty, so its block,
    /// which may hold another relation's bytes after a crash, is
    /// overwritten before the page is ever read back.
    fn page(&self, io: StatusIo<'_>, blkno: u64) -> DbResult<PinnedPage> {
        let (dev, rel) = (DeviceId::CATALOG, PG_LOG);
        let nblocks = || io.smgr.with(dev, |m| m.nblocks(rel));
        if blkno >= nblocks()? {
            let _order = token(XACT_LOG);
            let _grow = self.grow.lock();
            let mut pages = nblocks()?;
            while pages <= blkno {
                pages = io.pool.new_page(io.smgr, dev, rel)?.0 + 1;
            }
        }
        io.pool.get_page(io.smgr, dev, rel, blkno)
    }

    /// Verifies the status log's own structural invariants.
    ///
    /// Entry 0 is the invalid xid and must be `Unknown`; entry 1 is
    /// [`XactId::FROZEN`] and must be `Committed` (it stands in for every
    /// pre-history transaction). Every outcome a status page holds must be
    /// the one memory holds (`xact-status-page`) — or memory may still show
    /// the transaction running, its commit force under way.
    pub fn check(&self, io: StatusIo<'_>) -> Vec<crate::check::Finding> {
        let mut out = Vec::new();
        {
            let _order = token(XACT_LOG);
            let g = self.inner.lock();
            match g.entries.first() {
                Some(XactState::Unknown) | None => {}
                Some(other) => out.push(crate::check::Finding::new(
                    "pg_log",
                    "xact-invalid-entry",
                    format!("entry 0 (invalid xid) is {other:?}, want Unknown"),
                )),
            }
            match g.entries.get(XactId::FROZEN.0 as usize) {
                Some(XactState::Committed(_)) => {}
                other => out.push(crate::check::Finding::new(
                    "pg_log",
                    "xact-frozen-entry",
                    format!("frozen xid entry is {other:?}, want Committed"),
                )),
            }
        }
        let on_pages = XactLog::default();
        if let Err(e) = on_pages.load(io) {
            out.push(crate::check::Finding::new("pg_log", "check-error", e.to_string()));
            return out;
        }
        let stored = on_pages.inner.into_inner().entries;
        for (i, &page) in stored.iter().enumerate().skip(2) {
            let memory = self.state(XactId(i as u32));
            if page != XactState::Unknown && page != memory && memory != XactState::InProgress {
                out.push(crate::check::Finding::new(
                    "pg_log",
                    "xact-status-page",
                    format!("xid {i} is {page:?} on its status page, {memory:?} in memory"),
                ));
            }
        }
        out
    }

    /// The current state of `xid`.
    pub fn state(&self, xid: XactId) -> XactState {
        let _order = token(XACT_LOG);
        let g = self.inner.lock();
        g.entries
            .get(xid.0 as usize)
            .copied()
            .unwrap_or(XactState::Unknown)
    }

    /// Ends the running transaction `xid` in `state`, in memory.
    fn finish(&self, xid: XactId, state: XactState) -> DbResult<()> {
        let _order = token(XACT_LOG);
        let mut g = self.inner.lock();
        match g.entries.get_mut(xid.0 as usize) {
            Some(slot @ XactState::InProgress) => *slot = state,
            other => {
                return Err(DbError::Invalid(format!(
                    "{state:?} for non-running {xid} ({other:?})"
                )))
            }
        }
        Ok(())
    }

    /// Marks `xid` committed at `now`. For a transaction that wrote, call
    /// it only once the log force covering its logged `Commit` has
    /// succeeded: until then other snapshots must not see its effects. A
    /// read-only transaction logs nothing; after a crash it reads
    /// `Unknown`, which is indistinguishable because it had no effects.
    pub fn mark_committed(&self, xid: XactId, now: SimInstant) -> DbResult<()> {
        self.finish(xid, XactState::Committed(now))
    }

    /// Marks `xid` aborted. Nothing needs to be durable: after a crash the
    /// missing entry reads `Unknown`, which means exactly the same thing.
    pub fn mark_aborted(&self, xid: XactId) -> DbResult<()> {
        self.finish(xid, XactState::Aborted)
    }

    /// The set of transaction ids currently in progress.
    pub fn active_set(&self) -> HashSet<XactId> {
        let _order = token(XACT_LOG);
        let g = self.inner.lock();
        g.entries
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, XactState::InProgress))
            .map(|(i, _)| XactId(i as u32))
            .collect()
    }
}

/// A tuple header as stored on-page: the inserting and deleting transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleHeader {
    /// The transaction that created this version.
    pub xmin: XactId,
    /// The transaction that deleted/superseded it (INVALID if none).
    pub xmax: XactId,
}

impl TupleHeader {
    /// On-page size of the header.
    pub const SIZE: usize = 8;

    /// Encodes into the first [`TupleHeader::SIZE`] bytes of a tuple.
    pub fn encode(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.xmin.0.to_le_bytes());
        out[4..].copy_from_slice(&self.xmax.0.to_le_bytes());
        out
    }

    /// Decodes from the start of a tuple.
    pub fn decode(buf: &[u8]) -> DbResult<TupleHeader> {
        if buf.len() < 8 {
            return Err(DbError::Corrupt("tuple shorter than header".into()));
        }
        Ok(TupleHeader {
            xmin: XactId(crate::bytes::le_u32(buf, 0)?),
            xmax: XactId(crate::bytes::le_u32(buf, 4)?),
        })
    }
}

/// What a reader is allowed to see.
#[derive(Debug, Clone)]
pub enum Snapshot {
    /// The view of a running transaction: its own updates plus everything
    /// committed before it started.
    Current {
        /// The reading transaction.
        xid: XactId,
        /// Transactions in progress when the snapshot was taken.
        active: HashSet<XactId>,
    },
    /// Time travel: the transaction-consistent state at a past instant.
    AsOf(SimInstant),
    /// Every tuple version regardless of state (vacuum, debugging).
    Dirty,
}

impl Snapshot {
    /// Whether this snapshot permits writes.
    pub fn is_writable(&self) -> bool {
        matches!(self, Snapshot::Current { .. })
    }

    /// Decides visibility of a tuple under this snapshot.
    pub fn visible(&self, hdr: TupleHeader, log: &XactLog) -> bool {
        match self {
            Snapshot::Dirty => true,
            Snapshot::Current { xid, active } => {
                let ins_visible = if hdr.xmin == *xid {
                    true
                } else {
                    matches!(log.state(hdr.xmin), XactState::Committed(_))
                        && !active.contains(&hdr.xmin)
                };
                if !ins_visible {
                    return false;
                }
                if !hdr.xmax.is_valid() {
                    return true;
                }
                if hdr.xmax == *xid {
                    return false; // We deleted it ourselves.
                }
                // Deleted by someone else: gone only if that commit is in
                // our past.
                !matches!(log.state(hdr.xmax), XactState::Committed(_))
                    || active.contains(&hdr.xmax)
            }
            Snapshot::AsOf(t) => {
                let committed_by = |x: XactId| match log.state(x) {
                    XactState::Committed(ct) => ct <= *t,
                    _ => false,
                };
                if !committed_by(hdr.xmin) {
                    return false;
                }
                !(hdr.xmax.is_valid() && committed_by(hdr.xmax))
            }
        }
    }
}

/// A status relation, a log and a buffer pool on small devices, laid out
/// as a database lays them out, plus a data device for tests that need a
/// relation of their own.
#[cfg(test)]
pub(crate) mod rig {
    use std::sync::Arc;

    use simdev::{DiskProfile, MagneticDisk, SimClock};

    use super::*;
    use crate::recovery::Redo;
    use crate::smgr::{shared_device, DeviceManager, GenericManager, SharedDevice};

    pub(crate) struct Rig {
        pub(crate) pool: BufferPool,
        pub(crate) smgr: Smgr,
        pub(crate) wal: Arc<Wal>,
        devices: [SharedDevice; 3],
    }

    fn disk(name: &str, nblocks: u64) -> SharedDevice {
        shared_device(MagneticDisk::new(name, SimClock::new(), DiskProfile::tiny_for_tests(nblocks)))
    }

    impl Rig {
        /// Fresh devices, the log device `log_blocks` long.
        pub(crate) fn new(log_blocks: u64) -> Rig {
            let devices = [disk("log", log_blocks), disk("catalog", 1 << 10), disk("data", 1 << 14)];
            let mut catalog = GenericManager::format(devices[1].clone()).unwrap();
            catalog.create_rel(PG_LOG).unwrap();
            catalog.sync().unwrap();
            let data = GenericManager::format(devices[2].clone()).unwrap();
            let wal = Wal::create(devices[0].clone(), Default::default()).unwrap();
            Rig::assemble(devices, [catalog, data], wal, None)
        }

        fn assemble(
            devices: [SharedDevice; 3],
            [catalog, data]: [GenericManager; 2],
            wal: Wal,
            redo: Option<Arc<Redo>>,
        ) -> Rig {
            let mut smgr = Smgr::new();
            smgr.register(DeviceId::CATALOG, Box::new(catalog)).unwrap();
            smgr.register(DeviceId::DEFAULT, Box::new(data)).unwrap();
            if let Some(redo) = redo {
                smgr.attach_redo(redo);
            }
            let (pool, wal) = (BufferPool::new(16), Arc::new(wal));
            pool.attach_wal(Arc::clone(&wal));
            Rig { pool, smgr, wal, devices }
        }

        pub(crate) fn io(&self) -> StatusIo<'_> {
            StatusIo { pool: &self.pool, smgr: &self.smgr, wal: &self.wal }
        }

        /// A checkpoint: every dirty page written, the devices synced, the
        /// log truncated.
        pub(crate) fn checkpoint(&self) {
            let cut = self.wal.mark_cut();
            self.pool.flush_all(&self.smgr).unwrap();
            self.smgr.sync_all().unwrap();
            self.wal.truncate_to(cut).unwrap();
        }

        /// A crash and restart: what the pool held and the log had not
        /// forced is gone, and the status relation is loaded through
        /// first-touch replay of the log.
        pub(crate) fn reopen(self) -> (XactLog, Rig) {
            let [log, catalog, data] = self.devices;
            let (wal, records) = Wal::recover(log.clone(), Default::default()).unwrap();
            let redo = Arc::new(Redo::from_records(&records, Default::default()));
            let managers = [
                GenericManager::attach(catalog.clone()).unwrap(),
                GenericManager::attach(data.clone()).unwrap(),
            ];
            let rig = Rig::assemble([log, catalog, data], managers, wal, Some(Arc::clone(&redo)));
            crate::db::cover_logged_pages(&rig.smgr, &redo, &[DeviceId::CATALOG]).unwrap();
            let xlog = XactLog::default();
            xlog.load(rig.io()).unwrap();
            (xlog, rig)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rig::Rig;
    use super::*;

    fn fresh() -> (XactLog, Rig) {
        (XactLog::default(), Rig::new(1 << 10))
    }

    /// Commits `xid` as a transaction that wrote does: logs the outcome,
    /// forces it, marks it.
    fn commit(log: &XactLog, rig: &Rig, xid: XactId, time_ns: u64) {
        let lsn = log.log_outcome(rig.io(), &WalRecord::Commit { xid, time_ns }).unwrap();
        rig.wal.force_up_to(lsn).unwrap();
        log.mark_committed(xid, SimInstant::from_nanos(time_ns)).unwrap();
    }

    #[test]
    fn frozen_is_committed_at_epoch() {
        assert_eq!(
            XactLog::default().state(XactId::FROZEN),
            XactState::Committed(SimInstant::EPOCH)
        );
    }

    #[test]
    fn lifecycle_start_commit() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        assert_eq!(log.state(x), XactState::InProgress);
        assert!(log.active_set().contains(&x));
        commit(&log, &rig, x, 100);
        assert_eq!(
            log.state(x),
            XactState::Committed(SimInstant::from_nanos(100))
        );
        assert!(!log.active_set().contains(&x));
    }

    #[test]
    fn lifecycle_start_abort() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        log.mark_aborted(x).unwrap();
        assert_eq!(log.state(x), XactState::Aborted);
    }

    #[test]
    fn double_commit_rejected() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        log.mark_committed(x, SimInstant::EPOCH).unwrap();
        assert!(log.mark_committed(x, SimInstant::EPOCH).is_err());
        assert!(log.mark_aborted(x).is_err());
    }

    #[test]
    fn status_records_set_entries_and_never_lower_the_ceilings() {
        let mut buf = vec![0u8; page::PAGE_SIZE];
        let (x, o) = (XactId(7), Oid(3000));
        for rec in [
            WalRecord::Commit { xid: x, time_ns: 42 },
            WalRecord::Ceiling { xid: XactId(2048), oid: o },
            WalRecord::Ceiling { xid: XactId(1024), oid: Oid(4000) },
        ] {
            assert_eq!(rec.page_addr(), (DeviceId::CATALOG, PG_LOG, 0));
            redo(&rec, &mut buf).unwrap();
        }
        assert_eq!(ceilings(&buf).unwrap(), (2048, 4000));
        assert_eq!(buf[entry_at(x)], ST_COMMITTED);
        redo(&WalRecord::Abort { xid: x }, &mut buf).unwrap();
        assert_eq!(buf[entry_at(x)..entry_at(x) + ENTRY_SIZE], [ST_ABORTED, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(status_page(XactId(ENTRIES_PER_PAGE as u32 * 3 + 1)), 3);
        assert_eq!(status_page(XactId(ENTRIES_PER_PAGE as u32 - 1)), 0);
    }

    #[test]
    fn recovery_loses_in_progress_keeps_committed() {
        let (log, rig) = fresh();
        let committed = log.start(rig.io()).unwrap();
        let aborted = log.start(rig.io()).unwrap();
        let in_progress = log.start(rig.io()).unwrap();
        let read_only = log.start(rig.io()).unwrap();
        commit(&log, &rig, committed, 7);
        // A commit whose force failed: its `Abort` follows its `Commit`.
        for rec in [WalRecord::Commit { xid: aborted, time_ns: 8 }, WalRecord::Abort { xid: aborted }] {
            log.log_outcome(rig.io(), &rec).unwrap();
        }
        log.mark_aborted(aborted).unwrap();
        log.mark_committed(read_only, SimInstant::from_nanos(9)).unwrap();
        rig.wal.force_up_to(rig.wal.next_lsn()).unwrap();
        // `in_progress` crashes here: no persistent record.
        let (log, _) = rig.reopen();
        assert_eq!(
            log.state(committed),
            XactState::Committed(SimInstant::from_nanos(7))
        );
        assert_eq!(log.state(aborted), XactState::Aborted);
        assert_eq!(log.state(in_progress), XactState::Unknown);
        // It logged nothing, and nothing carries its xid.
        assert_eq!(log.state(read_only), XactState::Unknown);
    }

    #[test]
    fn a_checkpoint_moves_outcomes_from_the_log_onto_their_status_pages() {
        let (log, rig) = fresh();
        let xids: Vec<XactId> = (0..ENTRIES_PER_PAGE + 10).map(|_| log.start(rig.io()).unwrap()).collect();
        let (first, last) = (xids[0], *xids.last().unwrap());
        commit(&log, &rig, first, 5);
        commit(&log, &rig, last, 6);
        rig.checkpoint();
        assert_eq!(rig.wal.epoch_bytes(), 0, "the log holds none of it");
        assert_eq!(rig.smgr.with(DeviceId::CATALOG, |m| m.nblocks(PG_LOG)).unwrap(), 2);
        let (log, rig) = rig.reopen();
        assert_eq!(log.state(first), XactState::Committed(SimInstant::from_nanos(5)));
        assert_eq!(log.state(last), XactState::Committed(SimInstant::from_nanos(6)));
        assert!(log.check(rig.io()).is_empty());
    }

    /// A 96-block log device used to keep its first 64 blocks for the status
    /// file, room for 58 240 xids; a checkpoint past that wrote status
    /// blocks over the log. On the catalog device the relation grows as far
    /// as the xids go.
    #[test]
    fn the_status_relation_grows_past_where_the_log_device_used_to_end_it() {
        let (log, rig) = (XactLog::default(), Rig::new(96));
        let mut last = XactId::INVALID;
        for _ in 0..60_000 {
            last = log.start(rig.io()).unwrap();
        }
        commit(&log, &rig, last, 11);
        rig.checkpoint();
        let pages = rig.smgr.with(DeviceId::CATALOG, |m| m.nblocks(PG_LOG)).unwrap();
        assert_eq!(pages, status_page(last) + 1);
        assert!(pages > 64, "{pages} status pages");
        let (log, rig) = rig.reopen();
        assert_eq!(log.state(last), XactState::Committed(SimInstant::from_nanos(11)));
        assert!(log.start(rig.io()).unwrap() > last);
        assert!(log.check(rig.io()).is_empty());
    }

    /// WAL-before-data holds for status pages: writing one forces the log
    /// past every record applied to it, so no device holds an outcome the
    /// log could still lose.
    #[test]
    fn a_status_page_reaches_its_device_only_behind_its_records() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        let lsn = log.log_outcome(rig.io(), &WalRecord::Commit { xid: x, time_ns: 4 }).unwrap();
        assert!(rig.wal.durable_lsn() < lsn);
        rig.pool.flush_all(&rig.smgr).unwrap();
        assert!(rig.wal.durable_lsn() >= lsn, "the page went out ahead of its record");
    }

    #[test]
    fn recovered_log_allocates_fresh_xids() {
        let (log, rig) = fresh();
        let old = log.start(rig.io()).unwrap();
        commit(&log, &rig, old, 1);
        rig.checkpoint();
        let (log, rig) = rig.reopen();
        let new = log.start(rig.io()).unwrap();
        assert!(new.0 > old.0, "new xid {new} must not reuse {old}");
    }

    #[test]
    fn a_raise_is_one_unforced_record_for_both_counters() {
        let (log, rig) = fresh();
        let mut xids = HashSet::new();
        let mut oids = HashSet::new();
        for _ in 0..1100 {
            assert!(xids.insert(log.start(rig.io()).unwrap()));
            assert!(oids.insert(log.alloc_oid(rig.io()).unwrap()));
        }
        assert!(xids.contains(&XactId(2)) && oids.contains(&Oid(Catalog::FIRST_OID)));
        // Both ceilings start used up, so the first id raises both; moving
        // in step, the two counters reach their next ceilings together, and
        // one more record raises both again.
        let stats = &rig.wal.stats().wal;
        assert_eq!(stats.records_appended.get(), 2);
        for _ in 0..1024 {
            log.alloc_oid(rig.io()).unwrap();
        }
        assert_eq!(stats.records_appended.get(), 3, "an oid raise on its own");
        assert_eq!(stats.log_forces.get(), 0, "a raise never forces the log");
        assert_eq!(rig.wal.durable_lsn(), 0);
    }

    #[test]
    fn restart_resumes_past_the_highest_ceiling_of_the_status_page_and_the_log() {
        let (log, rig) = fresh();
        let (mut xid_max, mut oid_max) = (XactId(0), Oid(0));
        let mut burn = |n: usize| {
            for _ in 0..n {
                xid_max = log.start(rig.io()).unwrap();
                oid_max = log.alloc_oid(rig.io()).unwrap();
            }
        };
        burn(1100);
        // Page 0 takes the ceilings of the first two raises...
        rig.checkpoint();
        // ...the log alone those of the next, made durable by a force of
        // whatever came after it.
        burn(1100);
        rig.wal.force_up_to(rig.wal.next_lsn()).unwrap();
        let (log, rig) = rig.reopen();
        assert!(log.start(rig.io()).unwrap() > xid_max);
        assert!(log.alloc_oid(rig.io()).unwrap() > oid_max);
    }

    #[test]
    fn an_id_nothing_durable_carries_may_be_handed_out_again() {
        let (log, rig) = fresh();
        let first = log.start(rig.io()).unwrap();
        log.start(rig.io()).unwrap();
        // The raise's record was never forced: the crash takes it.
        let (log, rig) = rig.reopen();
        assert_eq!(log.start(rig.io()).unwrap(), first);
    }

    #[test]
    fn a_raise_the_log_has_no_room_for_leaves_both_ceilings_where_they_were() {
        // 7 log blocks per half.
        let (log, rig) = (XactLog::default(), Rig::new(16));
        let wal = &rig.wal;
        let big = WalRecord::Insert {
            dev: crate::ids::DeviceId::DEFAULT,
            rel: Oid(7),
            blkno: 0,
            slot: 0,
            tuple: vec![0; 4000],
        };
        for filler in [big, WalRecord::Abort { xid: XactId(0) }] {
            while wal.append(&filler).is_ok() {}
        }
        // Full for every other record, the log still takes the raise of
        // both ceilings that the first id needs...
        assert_eq!(log.start(rig.io()).unwrap(), XactId(2));
        // ...but not once other raises have used up the room kept for them.
        let filler = WalRecord::Ceiling { xid: XactId(0), oid: Oid(0) };
        while wal.append(&filler).is_ok() {}
        for _ in 1..CEILING_STEP {
            log.start(rig.io()).unwrap();
        }
        for _ in 0..CEILING_STEP {
            log.alloc_oid(rig.io()).unwrap();
        }
        let full = |e: DbError| assert!(e.to_string().contains("WAL full"), "{e}");
        full(log.start(rig.io()).unwrap_err());
        full(log.alloc_oid(rig.io()).unwrap_err());
        let (xid, oid) = (XactId(2 + CEILING_STEP), Oid(Catalog::FIRST_OID + CEILING_STEP));
        assert_eq!(log.state(xid), XactState::Unknown);
        // Room again: allocation goes on where it stood.
        wal.truncate_to(wal.mark_cut()).unwrap();
        assert_eq!(log.start(rig.io()).unwrap(), xid);
        assert_eq!(log.alloc_oid(rig.io()).unwrap(), oid);
    }

    #[test]
    fn check_reports_a_status_page_that_disagrees_with_memory() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        log.log_outcome(rig.io(), &WalRecord::Commit { xid: x, time_ns: 3 }).unwrap();
        // The force is under way: memory still shows it running.
        assert!(log.check(rig.io()).is_empty());
        log.mark_aborted(x).unwrap();
        let codes: Vec<String> = log.check(rig.io()).into_iter().map(|f| f.code).collect();
        assert_eq!(codes, ["xact-status-page"]);
    }

    #[test]
    fn header_roundtrips() {
        let h = TupleHeader {
            xmin: XactId(3),
            xmax: XactId(9),
        };
        assert_eq!(TupleHeader::decode(&h.encode()).unwrap(), h);
        assert!(TupleHeader::decode(&[0u8; 4]).is_err());
    }

    fn hdr(xmin: u32, xmax: u32) -> TupleHeader {
        TupleHeader {
            xmin: XactId(xmin),
            xmax: XactId(xmax),
        }
    }

    #[test]
    fn current_snapshot_sees_own_and_committed() {
        let (log, rig) = fresh();
        let committed = log.start(rig.io()).unwrap();
        log.mark_committed(committed, SimInstant::from_nanos(5)).unwrap();
        let other_active = log.start(rig.io()).unwrap();
        let me = log.start(rig.io()).unwrap();
        let snap = Snapshot::Current {
            xid: me,
            active: log.active_set(),
        };

        // Own insert visible; own delete invisible.
        assert!(snap.visible(hdr(me.0, 0), &log));
        assert!(!snap.visible(hdr(me.0, me.0), &log));
        // Committed insert visible.
        assert!(snap.visible(hdr(committed.0, 0), &log));
        // Concurrent (active) insert invisible.
        assert!(!snap.visible(hdr(other_active.0, 0), &log));
        // Aborted/unknown insert invisible.
        assert!(!snap.visible(hdr(9999, 0), &log));
        // Delete by a concurrent active transaction doesn't hide it from us.
        assert!(snap.visible(hdr(committed.0, other_active.0), &log));
    }

    #[test]
    fn concurrent_commit_after_snapshot_stays_invisible() {
        let (log, rig) = fresh();
        let other = log.start(rig.io()).unwrap();
        let me = log.start(rig.io()).unwrap();
        let snap = Snapshot::Current {
            xid: me,
            active: log.active_set(),
        };
        log.mark_committed(other, SimInstant::from_nanos(50)).unwrap();
        // `other` committed *after* our snapshot: still invisible.
        assert!(!snap.visible(hdr(other.0, 0), &log));
    }

    #[test]
    fn as_of_snapshot_is_a_consistent_past() {
        let (log, rig) = fresh();
        let early = log.start(rig.io()).unwrap();
        log.mark_committed(early, SimInstant::from_nanos(10)).unwrap();
        let late = log.start(rig.io()).unwrap();
        log.mark_committed(late, SimInstant::from_nanos(100)).unwrap();

        let t50 = Snapshot::AsOf(SimInstant::from_nanos(50));
        // Inserted early: visible at t=50. Inserted late: not yet.
        assert!(t50.visible(hdr(early.0, 0), &log));
        assert!(!t50.visible(hdr(late.0, 0), &log));
        // Deleted late: still visible at t=50 (the delete hadn't happened).
        assert!(t50.visible(hdr(early.0, late.0), &log));
        // At t=100 the delete has landed.
        let t100 = Snapshot::AsOf(SimInstant::from_nanos(100));
        assert!(!t100.visible(hdr(early.0, late.0), &log));
    }

    #[test]
    fn as_of_ignores_aborted_and_running() {
        let (log, rig) = fresh();
        let ab = log.start(rig.io()).unwrap();
        log.mark_aborted(ab).unwrap();
        let run = log.start(rig.io()).unwrap();
        let snap = Snapshot::AsOf(SimInstant::from_nanos(1_000_000));
        assert!(!snap.visible(hdr(ab.0, 0), &log));
        assert!(!snap.visible(hdr(run.0, 0), &log));
        // Delete by an aborted transaction never takes effect.
        assert!(snap.visible(hdr(1, ab.0), &log));
    }

    #[test]
    fn dirty_sees_everything() {
        assert!(Snapshot::Dirty.visible(hdr(424242, 999), &XactLog::default()));
    }

    #[test]
    fn snapshot_writability() {
        assert!(Snapshot::Current {
            xid: XactId(2),
            active: HashSet::new()
        }
        .is_writable());
        assert!(!Snapshot::AsOf(SimInstant::EPOCH).is_writable());
        assert!(!Snapshot::Dirty.is_writable());
    }
}
