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
//! of one 9-byte entry per xid, and the only record of outcomes. A status
//! page changes the way every page does. A `Commit` or `Abort` record is
//! appended under the page's latch and applied to it ([`WalRecord::redo`]),
//! and the page is stamped with the record's LSN, so the buffer pool writes
//! it only once the log is durable past that record. A visibility check
//! reads the entry through the buffer pool ([`XactLog::state`]). Restart
//! needs nothing of its own: [`XactLog::load`] reads page 0, and first-touch
//! replay brings every other page up to date when a reader first asks it.
//! In memory [`XactLog`] keeps only the running xids and the id counters.
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
    /// No outcome on its status page: never started, crashed before
    /// commit, read-only, or aborted with nothing logged — all equivalent.
    Unknown,
    /// Running right now (volatile; never persisted).
    InProgress,
    /// Committed at the given instant.
    Committed(SimInstant),
    /// Aborted behind a logged `Commit` whose force failed.
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

/// The first xid a transaction gets: 0 is the invalid xid, 1
/// [`XactId::FROZEN`].
const FIRST_XID: u32 = XactId::FROZEN.0 + 1;

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

/// `xid`'s entry on its status page `buf`.
fn entry(buf: &[u8], xid: XactId) -> DbResult<XactState> {
    let at = entry_at(xid);
    Ok(match buf[at] {
        // Also the invalid xid's entry, whose status byte a raise leaves
        // zero.
        ST_UNKNOWN => XactState::Unknown,
        ST_COMMITTED => XactState::Committed(SimInstant::from_nanos(crate::bytes::le_u64(buf, at + 1)?)),
        ST_ABORTED => XactState::Aborted,
        other => return Err(DbError::Corrupt(format!("bad status byte {other} for xid {xid}"))),
    })
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

/// Status page `blkno`, pinned, or `None` past the relation's end: a read
/// never grows the relation. Only a page the pool misses costs asking the
/// catalog device's manager, whose mutex its I/O holds, for the length.
fn existing_page(pool: &BufferPool, smgr: &Smgr, blkno: u64) -> DbResult<Option<PinnedPage>> {
    if let Some((page, _)) = pool.pin_cached(PG_LOG, blkno) {
        return Ok(Some(page));
    }
    if blkno >= smgr.with(DeviceId::CATALOG, |m| m.nblocks(PG_LOG))? {
        return Ok(None);
    }
    pool.get_page(smgr, DeviceId::CATALOG, PG_LOG, blkno).map(Some)
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
    /// Transactions started and not yet finished.
    running: HashSet<XactId>,
    /// The next xid, and the next oid, to hand out.
    next_xid: u32,
    next_oid: u32,
    /// First xid, and first oid, that no `Ceiling` record covers.
    xid_ceiling: u32,
    oid_ceiling: u32,
}

impl LogInner {
    /// Nothing running and both counters at their ceilings: an id below
    /// may have been handed out and be carried by something that survived.
    fn at(xid_ceiling: u32, oid_ceiling: u32) -> LogInner {
        LogInner {
            running: HashSet::new(),
            next_xid: xid_ceiling,
            next_oid: oid_ceiling,
            xid_ceiling,
            oid_ceiling,
        }
    }
}

/// The running transactions, and the allocator of xids and oids.
///
/// An outcome has one home, its status page. A transaction that wrote logs
/// its `Commit` onto it ([`XactLog::log_outcome`]) before the force that is
/// its commit point, and leaves the running set ([`XactLog::finish`]) only
/// once that force has succeeded; until then [`XactLog::state`] reads it
/// `InProgress` whatever its page says, so no reader sees an outcome the
/// log could still lose. A transaction that logged nothing (a read-only
/// commit, a plain abort) has no entry and reads `Unknown`, which means
/// aborted; no tuple carries a read-only xid.
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
            inner: Mutex::new(LogInner::at(FIRST_XID, Catalog::FIRST_OID)),
            grow: Mutex::new(()),
        }
    }
}

impl XactLog {
    /// Resumes both counters after a crash or restart at the ceilings on
    /// status page 0, which first-touch replay raises to the log's. No
    /// other status page is read here: [`XactLog::state`] reads each when
    /// it is first asked, and replay brings it up to date with the
    /// `Commit` and `Abort` records newer than the last checkpoint. A
    /// transaction in progress at the crash has no entry and reads
    /// [`XactState::Unknown`], making its updates permanently invisible.
    pub fn load(&self, io: StatusIo<'_>) -> DbResult<()> {
        let (xid, oid) = match existing_page(io.pool, io.smgr, 0)? {
            Some(page) => {
                let _latch = token(HEAP_PAGE);
                let buf = page.read();
                ceilings(buf.data())?
            }
            None => (0, 0),
        };
        let inner = LogInner::at(xid.max(FIRST_XID), oid.max(Catalog::FIRST_OID));
        let _order = token(XACT_LOG);
        *self.inner.lock() = inner;
        Ok(())
    }

    /// Allocates a new transaction id, running until [`XactLog::finish`],
    /// raising the xid ceiling first if the counter has reached it.
    pub fn start(&self, io: StatusIo<'_>) -> DbResult<XactId> {
        self.allocate(io, |g| {
            (g.next_xid < g.xid_ceiling).then(|| {
                let xid = XactId(g.next_xid);
                g.next_xid += 1;
                g.running.insert(xid);
                xid
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
        let (xid, oid) = (raised(g.next_xid, g.xid_ceiling), raised(g.next_oid, g.oid_ceiling));
        if (xid, oid) != (g.xid_ceiling, g.oid_ceiling) {
            let rec = WalRecord::Ceiling { xid: XactId(xid), oid: Oid(oid) };
            log_to(&mut buf, io.wal, &rec)?;
            (g.xid_ceiling, g.oid_ceiling) = (xid, oid);
        }
        Ok(())
    }

    /// Appends the outcome `rec` — a `Commit` or an `Abort` record — and
    /// applies it to its xid's status page; returns the record's end LSN.
    /// The transaction reads `InProgress` until [`XactLog::finish`], which
    /// a commit calls only once a log force has covered that LSN; the page
    /// cannot reach its device before then either.
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
        if let Some(page) = existing_page(io.pool, io.smgr, blkno)? {
            return Ok(page);
        }
        let (dev, rel) = (DeviceId::CATALOG, PG_LOG);
        {
            let _order = token(XACT_LOG);
            let _grow = self.grow.lock();
            let mut pages = io.smgr.with(dev, |m| m.nblocks(rel))?;
            while pages <= blkno {
                pages = io.pool.new_page(io.smgr, dev, rel)?.0 + 1;
            }
        }
        io.pool.get_page(io.smgr, dev, rel, blkno)
    }

    /// One pass over the status pages. An unknown status byte is
    /// `xact-status-byte`. An outcome for an xid the counter has not
    /// passed is `xact-outcome-ahead`: that id would be handed out again
    /// and take the outcome over, which the ceilings rule out (DESIGN §6d).
    pub fn check(&self, io: StatusIo<'_>) -> Vec<crate::check::Finding> {
        use crate::check::Finding;
        let pages = match io.smgr.with(DeviceId::CATALOG, |m| m.nblocks(PG_LOG)) {
            Ok(n) => n,
            Err(e) => return vec![Finding::new("pg_log", "check-error", e.to_string())],
        };
        let (mut out, mut last_outcome) = (Vec::new(), None);
        for blkno in 0..pages {
            let page = match io.pool.get_page(io.smgr, DeviceId::CATALOG, PG_LOG, blkno) {
                Ok(page) => page,
                Err(e) => {
                    out.push(Finding::new("pg_log", "check-error", e.to_string()).on_page(blkno));
                    continue;
                }
            };
            let _latch = token(HEAP_PAGE);
            let buf = page.read();
            let first = blkno as u32 * ENTRIES_PER_PAGE as u32;
            for xid in (first..first + ENTRIES_PER_PAGE as u32).map(XactId) {
                match entry(buf.data(), xid) {
                    Ok(XactState::Unknown) => {}
                    Ok(_) => last_outcome = Some((blkno, xid)),
                    Err(e) => out.push(Finding::new("pg_log", "xact-status-byte", e.to_string()).on_page(blkno)),
                }
            }
        }
        // Read after the pass: every outcome it saw was logged by an xid
        // handed out before.
        let next_xid = {
            let _order = token(XACT_LOG);
            self.inner.lock().next_xid
        };
        if let Some((blkno, xid)) = last_outcome.filter(|&(_, xid)| xid.0 >= next_xid) {
            let detail = format!("xid {xid} has an outcome; the next xid handed out is {next_xid}");
            out.push(Finding::new("pg_log", "xact-outcome-ahead", detail).on_page(blkno));
        }
        out
    }

    /// The state of `xid`: `InProgress` while it runs, otherwise its entry
    /// on its status page, read through the pool. The running set is read
    /// and released before the page latch is taken, because a ceiling's
    /// raise holds page 0's latch while it takes the `xact-log` mutex.
    pub fn state(&self, pool: &BufferPool, smgr: &Smgr, xid: XactId) -> DbResult<XactState> {
        if xid == XactId::FROZEN {
            return Ok(XactState::Committed(SimInstant::EPOCH));
        }
        {
            let _order = token(XACT_LOG);
            if self.inner.lock().running.contains(&xid) {
                return Ok(XactState::InProgress);
            }
        }
        let Some(page) = existing_page(pool, smgr, status_page(xid))? else {
            return Ok(XactState::Unknown);
        };
        let _latch = token(HEAP_PAGE);
        let buf = page.read();
        entry(buf.data(), xid)
    }

    /// Ends the running transaction `xid`. A commit that wrote calls it
    /// only once the force covering its logged `Commit` has succeeded:
    /// until then other snapshots must not see its effects. A transaction
    /// that logged nothing reads `Unknown` from here on, which means
    /// aborted, and for a read-only one is indistinguishable from
    /// committed: it had no effects.
    pub fn finish(&self, xid: XactId) -> DbResult<()> {
        let _order = token(XACT_LOG);
        if self.inner.lock().running.remove(&xid) {
            Ok(())
        } else {
            Err(DbError::Invalid(format!("{xid} is not running")))
        }
    }

    /// The set of transaction ids currently in progress.
    pub fn active_set(&self) -> HashSet<XactId> {
        let _order = token(XACT_LOG);
        self.inner.lock().running.clone()
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

    /// Decides visibility of a tuple under this snapshot, asking `state`
    /// ([`XactLog::state`]) for the outcomes it needs.
    pub fn visible(&self, hdr: TupleHeader, state: impl Fn(XactId) -> DbResult<XactState>) -> DbResult<bool> {
        match self {
            Snapshot::Dirty => Ok(true),
            Snapshot::Current { xid, active } => {
                // Committed in our past: not running when we started.
                let committed = |x: XactId| -> DbResult<bool> {
                    Ok(!active.contains(&x) && matches!(state(x)?, XactState::Committed(_)))
                };
                if hdr.xmin != *xid && !committed(hdr.xmin)? {
                    return Ok(false);
                }
                if !hdr.xmax.is_valid() {
                    return Ok(true);
                }
                if hdr.xmax == *xid {
                    return Ok(false); // We deleted it ourselves.
                }
                // Deleted by someone else: gone only if that commit is in
                // our past.
                Ok(!committed(hdr.xmax)?)
            }
            Snapshot::AsOf(t) => {
                let committed_by = |x: XactId| -> DbResult<bool> {
                    Ok(match state(x)? {
                        XactState::Committed(ct) => ct <= *t,
                        _ => false,
                    })
                };
                if !committed_by(hdr.xmin)? {
                    return Ok(false);
                }
                Ok(!(hdr.xmax.is_valid() && committed_by(hdr.xmax)?))
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
    /// forces it, finishes the transaction.
    fn commit(log: &XactLog, rig: &Rig, xid: XactId, time_ns: u64) {
        let lsn = log.log_outcome(rig.io(), &WalRecord::Commit { xid, time_ns }).unwrap();
        rig.wal.force_up_to(lsn).unwrap();
        log.finish(xid).unwrap();
    }

    /// Ends `xid` as a commit whose force failed does: its `Abort` follows
    /// its `Commit`.
    fn abort_after_commit(log: &XactLog, rig: &Rig, xid: XactId) {
        for rec in [WalRecord::Commit { xid, time_ns: 8 }, WalRecord::Abort { xid }] {
            log.log_outcome(rig.io(), &rec).unwrap();
        }
        log.finish(xid).unwrap();
    }

    fn state(log: &XactLog, rig: &Rig, xid: XactId) -> XactState {
        log.state(&rig.pool, &rig.smgr, xid).unwrap()
    }

    #[test]
    fn frozen_is_committed_at_epoch() {
        let (log, rig) = fresh();
        assert_eq!(state(&log, &rig, XactId::FROZEN), XactState::Committed(SimInstant::EPOCH));
    }

    #[test]
    fn lifecycle_start_commit() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        assert_eq!(state(&log, &rig, x), XactState::InProgress);
        assert!(log.active_set().contains(&x));
        commit(&log, &rig, x, 100);
        assert_eq!(state(&log, &rig, x), XactState::Committed(SimInstant::from_nanos(100)));
        assert!(!log.active_set().contains(&x));
    }

    #[test]
    fn lifecycle_start_abort() {
        let (log, rig) = fresh();
        let (plain, failed) = (log.start(rig.io()).unwrap(), log.start(rig.io()).unwrap());
        log.finish(plain).unwrap();
        abort_after_commit(&log, &rig, failed);
        // A plain abort logs nothing, and no entry means the same.
        assert_eq!(state(&log, &rig, plain), XactState::Unknown);
        assert_eq!(state(&log, &rig, failed), XactState::Aborted);
    }

    #[test]
    fn double_finish_rejected() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        log.finish(x).unwrap();
        assert!(log.finish(x).is_err());
    }

    /// A `Commit` on its page ahead of the force that makes it durable is
    /// not an outcome yet: the transaction reads `InProgress` until it
    /// finishes.
    #[test]
    fn a_logged_commit_reads_in_progress_until_the_transaction_finishes() {
        let (log, rig) = fresh();
        let x = log.start(rig.io()).unwrap();
        log.log_outcome(rig.io(), &WalRecord::Commit { xid: x, time_ns: 3 }).unwrap();
        assert_eq!(state(&log, &rig, x), XactState::InProgress);
        log.finish(x).unwrap();
        assert_eq!(state(&log, &rig, x), XactState::Committed(SimInstant::from_nanos(3)));
    }

    /// Memory holds the running transactions and nothing for a finished
    /// one.
    #[test]
    fn memory_grows_only_with_the_running_transactions() {
        let (log, rig) = fresh();
        for i in 0..100_000u64 {
            let x = log.start(rig.io()).unwrap();
            if i % 10_000 == 0 {
                commit(&log, &rig, x, i);
            } else {
                log.finish(x).unwrap();
            }
        }
        assert!(log.active_set().is_empty());
        assert!(log.inner.lock().running.capacity() < 16);
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
        abort_after_commit(&log, &rig, aborted);
        log.finish(read_only).unwrap();
        rig.wal.force_up_to(rig.wal.next_lsn()).unwrap();
        // `in_progress` crashes here: no persistent record.
        let (log, rig) = rig.reopen();
        assert_eq!(state(&log, &rig, committed), XactState::Committed(SimInstant::from_nanos(7)));
        assert_eq!(state(&log, &rig, aborted), XactState::Aborted);
        assert_eq!(state(&log, &rig, in_progress), XactState::Unknown);
        // It logged nothing, and nothing carries its xid.
        assert_eq!(state(&log, &rig, read_only), XactState::Unknown);
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
        assert_eq!(state(&log, &rig, first), XactState::Committed(SimInstant::from_nanos(5)));
        assert_eq!(state(&log, &rig, last), XactState::Committed(SimInstant::from_nanos(6)));
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
        assert_eq!(state(&log, &rig, last), XactState::Committed(SimInstant::from_nanos(11)));
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
        assert_eq!(state(&log, &rig, xid), XactState::Unknown);
        // Room again: allocation goes on where it stood.
        wal.truncate_to(wal.mark_cut()).unwrap();
        assert_eq!(log.start(rig.io()).unwrap(), xid);
        assert_eq!(log.alloc_oid(rig.io()).unwrap(), oid);
    }

    /// `pg_check` reads every status page. An unknown status byte is a
    /// finding, and so is an outcome for an xid the counter has not handed
    /// out yet: handing it out would give that outcome to a new owner.
    #[test]
    fn check_reports_bad_status_bytes_and_outcomes_ahead_of_the_counter() {
        let (log, rig) = fresh();
        let codes = |log: &XactLog| -> Vec<String> { log.check(rig.io()).into_iter().map(|f| f.code).collect() };
        let x = log.start(rig.io()).unwrap();
        commit(&log, &rig, x, 3);
        assert_eq!(codes(&log), [] as [&str; 0]);
        let ahead = XactId(x.0 + 1);
        log.log_outcome(rig.io(), &WalRecord::Commit { xid: ahead, time_ns: 4 }).unwrap();
        assert_eq!(codes(&log), ["xact-outcome-ahead"]);
        // Handed out, it is an outcome like any other.
        assert_eq!(log.start(rig.io()).unwrap(), ahead);
        assert_eq!(codes(&log), [] as [&str; 0]);
        let page = rig.pool.get_page(&rig.smgr, DeviceId::CATALOG, PG_LOG, 0).unwrap();
        page.write().data_mut()[entry_at(x)] = 7;
        assert_eq!(codes(&log), ["xact-status-byte"]);
        assert!(log.state(&rig.pool, &rig.smgr, x).is_err());
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

    fn visible(snap: &Snapshot, h: TupleHeader, log: &XactLog, rig: &Rig) -> bool {
        snap.visible(h, |x| log.state(&rig.pool, &rig.smgr, x)).unwrap()
    }

    #[test]
    fn current_snapshot_sees_own_and_committed() {
        let (log, rig) = fresh();
        let committed = log.start(rig.io()).unwrap();
        commit(&log, &rig, committed, 5);
        let other_active = log.start(rig.io()).unwrap();
        let me = log.start(rig.io()).unwrap();
        let snap = Snapshot::Current {
            xid: me,
            active: log.active_set(),
        };
        let sees = |h| visible(&snap, h, &log, &rig);

        // Own insert visible; own delete invisible.
        assert!(sees(hdr(me.0, 0)));
        assert!(!sees(hdr(me.0, me.0)));
        // Committed insert visible.
        assert!(sees(hdr(committed.0, 0)));
        // Concurrent (active) insert invisible.
        assert!(!sees(hdr(other_active.0, 0)));
        // Aborted/unknown insert invisible.
        assert!(!sees(hdr(9999, 0)));
        // Delete by a concurrent active transaction doesn't hide it from us.
        assert!(sees(hdr(committed.0, other_active.0)));
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
        commit(&log, &rig, other, 50);
        // `other` committed *after* our snapshot: still invisible.
        assert!(!visible(&snap, hdr(other.0, 0), &log, &rig));
    }

    #[test]
    fn as_of_snapshot_is_a_consistent_past() {
        let (log, rig) = fresh();
        let early = log.start(rig.io()).unwrap();
        commit(&log, &rig, early, 10);
        let late = log.start(rig.io()).unwrap();
        commit(&log, &rig, late, 100);

        let t50 = Snapshot::AsOf(SimInstant::from_nanos(50));
        // Inserted early: visible at t=50. Inserted late: not yet.
        assert!(visible(&t50, hdr(early.0, 0), &log, &rig));
        assert!(!visible(&t50, hdr(late.0, 0), &log, &rig));
        // Deleted late: still visible at t=50 (the delete hadn't happened).
        assert!(visible(&t50, hdr(early.0, late.0), &log, &rig));
        // At t=100 the delete has landed.
        let t100 = Snapshot::AsOf(SimInstant::from_nanos(100));
        assert!(!visible(&t100, hdr(early.0, late.0), &log, &rig));
    }

    #[test]
    fn as_of_ignores_aborted_and_running() {
        let (log, rig) = fresh();
        let ab = log.start(rig.io()).unwrap();
        abort_after_commit(&log, &rig, ab);
        let run = log.start(rig.io()).unwrap();
        let snap = Snapshot::AsOf(SimInstant::from_nanos(1_000_000));
        assert!(!visible(&snap, hdr(ab.0, 0), &log, &rig));
        assert!(!visible(&snap, hdr(run.0, 0), &log, &rig));
        // Delete by an aborted transaction never takes effect.
        assert!(visible(&snap, hdr(1, ab.0), &log, &rig));
    }

    #[test]
    fn dirty_sees_everything() {
        assert!(Snapshot::Dirty.visible(hdr(424242, 999), |_| Ok(XactState::Unknown)).unwrap());
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
