//! Transactions: the status file, id allocation, snapshots, and tuple
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
//! It also hands out xids and oids, from in-memory counters below ceilings
//! that one unforced [`WalRecord::Ceiling`] raises 1 024 at a time. The
//! write-ahead rule makes that enough: whatever durable thing carries an id
//! — a logged page, a `Commit` record, a status block — was logged after
//! the record covering the id and reaches its device only once the log is
//! durable past it. Restart resumes both counters at the highest ceiling in
//! the status file's block 0 (written at checkpoints) or in the log, so no
//! id that anything surviving a crash carries is handed out again; one
//! given to a transaction that left nothing durable may be.

use std::collections::HashSet;

use parking_lot::Mutex;
use simdev::SimInstant;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::ids::{Oid, XactId};
use crate::smgr::SharedDevice;
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
const ENTRIES_PER_BLOCK: usize = simdev::BLOCK_SIZE / ENTRY_SIZE;

const ST_UNKNOWN: u8 = 0;
/// Marker byte in block 0's slot 0 (the invalid xid's slot): the following
/// eight bytes hold the xid and the oid ceiling, as of the last checkpoint.
const ST_CEILING: u8 = 1;
const ST_COMMITTED: u8 = 2;
const ST_ABORTED: u8 = 3;

/// How many ids one raise of a ceiling covers: at most this many of a kind
/// are skipped after a crash.
const CEILING_STEP: u32 = 1024;

struct LogInner {
    /// Entry `i` describes `XactId(i)`; index 0 is the invalid xid. Its
    /// length is the next xid to hand out.
    entries: Vec<XactState>,
    /// The next oid to hand out.
    next_oid: u32,
    /// First xid, and first oid, that no `Ceiling` record covers.
    xid_ceiling: u32,
    oid_ceiling: u32,
    /// End LSN of the last `Ceiling` record appended.
    ceiling_lsn: u64,
    /// Status blocks whose in-memory state is ahead of the device. The
    /// log force is the commit point and status entries are only marked in
    /// memory; checkpoints drain this set via [`XactLog::persist_dirty`].
    dirty: HashSet<u64>,
}

impl LogInner {
    /// A status file holding `entries`, whose ceilings cover no further id.
    fn new(entries: Vec<XactState>) -> LogInner {
        LogInner {
            xid_ceiling: entries.len() as u32,
            entries,
            next_oid: Catalog::FIRST_OID,
            oid_ceiling: Catalog::FIRST_OID,
            ceiling_lsn: 0,
            dirty: HashSet::new(),
        }
    }

    fn next_xid(&self) -> u32 {
        self.entries.len() as u32
    }

    fn mark_dirty(&mut self, xid: XactId) {
        self.dirty.insert((xid.0 as usize / ENTRIES_PER_BLOCK) as u64);
    }

    /// The one way a ceiling rises: each counter that has reached its
    /// ceiling gets one [`CEILING_STEP`] past it, and one `Ceiling` record
    /// carrying both limits is appended — under the `xact-log` mutex, never
    /// forced. The new limits take effect only once the append has
    /// returned; if it fails (`WAL full`, past the room [`Wal::append`]
    /// keeps for this record) both stay where they were. Taken once per
    /// 1 024 ids, so kept off the allocation path.
    #[cold]
    fn raise_ceiling(&mut self, wal: &Wal) -> DbResult<()> {
        let raised = |next, ceiling| if next < ceiling { ceiling } else { next + CEILING_STEP };
        let xid = raised(self.next_xid(), self.xid_ceiling);
        let oid = raised(self.next_oid, self.oid_ceiling);
        self.ceiling_lsn = wal.append(&WalRecord::Ceiling { xid: XactId(xid), oid: Oid(oid) })?;
        (self.xid_ceiling, self.oid_ceiling) = (xid, oid);
        self.dirty.insert(0);
        Ok(())
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

    /// Block `blkno` of the status file as the device should hold it.
    fn image(&self, blkno: u64) -> Vec<u8> {
        let first = blkno as usize * ENTRIES_PER_BLOCK;
        let mut blk = vec![0u8; simdev::BLOCK_SIZE];
        for i in 0..ENTRIES_PER_BLOCK {
            let x = first + i;
            let off = i * ENTRY_SIZE;
            if x == 0 {
                // The invalid xid's slot carries the ceilings instead.
                blk[off] = ST_CEILING;
                blk[off + 1..off + 5].copy_from_slice(&self.xid_ceiling.to_le_bytes());
                blk[off + 5..off + 9].copy_from_slice(&self.oid_ceiling.to_le_bytes());
                continue;
            }
            match self.entries.get(x).copied().unwrap_or(XactState::Unknown) {
                XactState::Committed(t) => {
                    blk[off] = ST_COMMITTED;
                    blk[off + 1..off + 9].copy_from_slice(&t.as_nanos().to_le_bytes());
                }
                XactState::Aborted => blk[off] = ST_ABORTED,
                // In-progress is deliberately not persisted.
                XactState::InProgress | XactState::Unknown => blk[off] = ST_UNKNOWN,
            }
        }
        blk
    }
}

/// The transaction status file, and the allocator of xids and oids.
///
/// Persistent entries live on a dedicated device (`pg_log` in POSTGRES).
/// Outcomes are *marked* here in memory — the commit point is the log
/// force that made the `Commit` record durable, which the caller performs
/// first — and reach the device at the next checkpoint
/// ([`XactLog::persist_dirty`]); restart overlays the outcomes and ceilings
/// logged since then ([`XactLog::apply_recovered`]). In-progress state is
/// memory-only, so a crash leaves those transactions `Unknown` — i.e.
/// aborted.
pub struct XactLog {
    dev: SharedDevice,
    inner: Mutex<LogInner>,
}

impl XactLog {
    /// Creates a fresh log on `dev`, with [`XactId::FROZEN`] pre-committed at
    /// the epoch (bootstrap tuples are stamped with it).
    pub fn create(dev: SharedDevice) -> DbResult<XactLog> {
        let inner = LogInner::new(vec![
            XactState::Unknown,
            XactState::Committed(SimInstant::EPOCH),
        ]);
        // Block 0 carries FROZEN and ceilings that cover nothing yet: the
        // first id of either kind raises them.
        let block = inner.image(0);
        let log = XactLog {
            dev,
            inner: Mutex::new(inner),
        };
        log.persist_blocks(&[(0, block)])?;
        Ok(log)
    }

    /// Reloads the log from `dev` after a crash or restart.
    ///
    /// Any transaction that was in progress at the crash has no persistent
    /// entry and is reported [`XactState::Unknown`], making its updates
    /// permanently invisible. Allocation resumes at block 0's ceilings;
    /// [`XactLog::apply_recovered`] raises them to the log's.
    pub fn recover(dev: SharedDevice) -> DbResult<XactLog> {
        // FROZEN as `create` wrote it, unless block 0 says otherwise.
        let mut entries = vec![XactState::Unknown, XactState::Committed(SimInstant::EPOCH)];
        let mut blk = vec![0u8; simdev::BLOCK_SIZE];
        let mut blkno = 0u64;
        let (mut xid_ceiling, mut oid_ceiling) = (0u32, 0u32);
        'outer: loop {
            {
                let mut d = dev.lock();
                if blkno >= d.nblocks() {
                    break;
                }
                d.read_block(blkno, &mut blk)?;
            }
            let first = blkno as usize * ENTRIES_PER_BLOCK;
            for i in 0..ENTRIES_PER_BLOCK {
                let xid = first + i;
                if xid == 0 {
                    if blk[0] == ST_CEILING {
                        xid_ceiling = crate::bytes::le_u32(&blk, 1)?;
                        oid_ceiling = crate::bytes::le_u32(&blk, 5)?;
                    }
                    continue;
                }
                let off = i * ENTRY_SIZE;
                let state = match blk[off] {
                    ST_COMMITTED => XactState::Committed(SimInstant::from_nanos(
                        crate::bytes::le_u64(&blk, off + 1)?,
                    )),
                    ST_ABORTED => XactState::Aborted,
                    // An all-unknown tail past the allocation ceiling ends
                    // the log. Below the ceiling it proves nothing: a
                    // restart skips to the ceiling, so entries may sit
                    // beyond an arbitrarily long run of never-used ids.
                    ST_UNKNOWN if entries.len() <= xid && xid >= xid_ceiling as usize => {
                        break 'outer
                    }
                    ST_UNKNOWN => continue,
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
            blkno += 1;
        }
        let mut inner = LogInner::new(entries);
        inner.resume_at(xid_ceiling, oid_ceiling);
        Ok(XactLog {
            dev,
            inner: Mutex::new(inner),
        })
    }

    /// Overlays one record of the recovered write-ahead log: `Commit` and
    /// `Abort` records newer than the last checkpoint exist only there, and
    /// so may a `Ceiling`, which resumes allocation past it. Page records
    /// are not the status file's business. The touched block is marked
    /// dirty for the next checkpoint.
    pub fn apply_recovered(&self, rec: &WalRecord) {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let mut g = self.inner.lock();
        let (xid, state) = match *rec {
            WalRecord::Commit { xid, time_ns } => {
                (xid, XactState::Committed(SimInstant::from_nanos(time_ns)))
            }
            WalRecord::Abort { xid } => (xid, XactState::Aborted),
            WalRecord::Ceiling { xid, oid } => {
                g.resume_at(xid.0, oid.0);
                g.dirty.insert(0);
                return;
            }
            _ => return,
        };
        let idx = xid.0 as usize;
        if g.entries.len() <= idx {
            g.entries.resize(idx + 1, XactState::Unknown);
        }
        g.entries[idx] = state;
        g.mark_dirty(xid);
    }

    /// Allocates a new transaction id, marked in-progress (volatile),
    /// raising the xid ceiling first if the counter has reached it.
    pub fn start(&self, wal: &Wal) -> DbResult<XactId> {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let mut g = self.inner.lock();
        if g.next_xid() >= g.xid_ceiling {
            g.raise_ceiling(wal)?;
        }
        let xid = XactId(g.next_xid());
        g.entries.push(XactState::InProgress);
        Ok(xid)
    }

    /// Allocates a fresh object identifier, raising the oid ceiling first
    /// if the counter has reached it.
    pub fn alloc_oid(&self, wal: &Wal) -> DbResult<Oid> {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let mut g = self.inner.lock();
        if g.next_oid >= g.oid_ceiling {
            g.raise_ceiling(wal)?;
        }
        g.next_oid += 1;
        Ok(Oid(g.next_oid - 1))
    }

    /// Verifies the status log's own structural invariants.
    ///
    /// Entry 0 is the invalid xid and must be `Unknown`; entry 1 is
    /// [`XactId::FROZEN`] and must be `Committed` (it stands in for every
    /// pre-history transaction).
    pub fn check(&self) -> Vec<crate::check::Finding> {
        let mut out = Vec::new();
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
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
        out
    }

    /// The current state of `xid`.
    pub fn state(&self, xid: XactId) -> XactState {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let g = self.inner.lock();
        g.entries
            .get(xid.0 as usize)
            .copied()
            .unwrap_or(XactState::Unknown)
    }

    /// Ends the running transaction `xid` in `state`, in memory. Durable
    /// outcomes (`record`) also dirty their status block for the next
    /// checkpoint.
    fn finish(&self, xid: XactId, state: XactState, record: bool) -> DbResult<()> {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let mut g = self.inner.lock();
        match g.entries.get_mut(xid.0 as usize) {
            Some(slot @ XactState::InProgress) => *slot = state,
            other => {
                return Err(DbError::Invalid(format!(
                    "{state:?} for non-running {xid} ({other:?})"
                )))
            }
        }
        if record {
            g.mark_dirty(xid);
        }
        Ok(())
    }

    /// Marks `xid` committed at `now`. Call it only once the WAL force
    /// covering its `Commit` record has succeeded: a checkpoint persists
    /// in-memory marks, and must never make durable a transaction whose
    /// commit record could still be lost.
    pub fn mark_committed(&self, xid: XactId, now: SimInstant) -> DbResult<()> {
        self.finish(xid, XactState::Committed(now), true)
    }

    /// Marks `xid` committed at `now` *without* a persistent record — legal
    /// only for transactions that wrote nothing, which need no durability.
    /// After a crash such a transaction reads as `Unknown`, which is
    /// indistinguishable because it had no effects.
    pub fn commit_readonly(&self, xid: XactId, now: SimInstant) -> DbResult<()> {
        self.finish(xid, XactState::Committed(now), false)
    }

    /// Marks `xid` aborted. Nothing needs to be durable first: after a
    /// crash the missing record reads `Unknown`, which means exactly the
    /// same thing.
    pub fn mark_aborted(&self, xid: XactId) -> DbResult<()> {
        self.finish(xid, XactState::Aborted, true)
    }

    /// Writes every status block whose in-memory state is ahead of the
    /// device and syncs the log device once. Called by checkpoints; after a
    /// clean return the status file alone reconstructs every outcome and
    /// ceiling up to the checkpoint. The blocks are taken and imaged in one
    /// critical section, so a mark that lands meanwhile dirties its block
    /// again instead of being lost; on failure they stay dirty.
    ///
    /// The write-ahead rule holds here as for pages: a block can carry the
    /// outcome of a read-only or aborted transaction that nothing forced,
    /// so the log is made durable past the last `Ceiling` record first.
    pub fn persist_dirty(&self, wal: &Wal) -> DbResult<()> {
        let (blocks, ceiling_lsn) = {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let mut g = self.inner.lock();
            let mut blknos: Vec<u64> = g.dirty.drain().collect();
            blknos.sort_unstable();
            let blocks: Vec<(u64, Vec<u8>)> = blknos.into_iter().map(|b| (b, g.image(b))).collect();
            (blocks, g.ceiling_lsn)
        };
        if blocks.is_empty() {
            return Ok(());
        }
        let written = wal.force_up_to(ceiling_lsn).and_then(|forced| {
            if forced {
                wal.stats().wal.forces_checkpoint.bump();
            }
            self.persist_blocks(&blocks)
        });
        if written.is_err() {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            self.inner.lock().dirty.extend(blocks.iter().map(|&(b, _)| b));
        }
        written
    }

    /// The set of transaction ids currently in progress.
    pub fn active_set(&self) -> HashSet<XactId> {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let g = self.inner.lock();
        g.entries
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, XactState::InProgress))
            .map(|(i, _)| XactId(i as u32))
            .collect()
    }

    /// Writes status blocks on the log device and syncs it once — the one
    /// place the status file is written, called only by
    /// [`XactLog::create`] and [`XactLog::persist_dirty`] (`xtask lint`'s
    /// `status-file-site` keeps it so).
    fn persist_blocks(&self, blocks: &[(u64, Vec<u8>)]) -> DbResult<()> {
        let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        for (blkno, blk) in blocks {
            d.write_block(*blkno, blk)?;
        }
        d.sync()?;
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smgr::shared_device;
    use simdev::{DiskProfile, MagneticDisk, SimClock};

    fn log_device(nblocks: u64) -> SharedDevice {
        shared_device(MagneticDisk::new(
            "log",
            SimClock::new(),
            DiskProfile::tiny_for_tests(nblocks),
        ))
    }

    /// A status file and a write-ahead log on one log device, as a
    /// database keeps them.
    fn create(dev: &SharedDevice) -> (XactLog, Wal) {
        let log = XactLog::create(dev.clone()).unwrap();
        (log, Wal::create(dev.clone(), Default::default()).unwrap())
    }

    fn fresh() -> (XactLog, Wal) {
        create(&log_device(1024))
    }

    /// Restart as `Db::recover` does it: the status file, then every record
    /// of the log overlaid onto it.
    fn reopen(dev: &SharedDevice) -> (XactLog, Wal) {
        let log = XactLog::recover(dev.clone()).unwrap();
        let (wal, records) = Wal::recover(dev.clone(), Default::default()).unwrap();
        for (_, rec) in &records {
            log.apply_recovered(rec);
        }
        (log, wal)
    }

    #[test]
    fn frozen_is_committed_at_epoch() {
        let (log, _) = fresh();
        assert_eq!(
            log.state(XactId::FROZEN),
            XactState::Committed(SimInstant::EPOCH)
        );
    }

    #[test]
    fn lifecycle_start_commit() {
        let (log, wal) = fresh();
        let x = log.start(&wal).unwrap();
        assert_eq!(log.state(x), XactState::InProgress);
        assert!(log.active_set().contains(&x));
        log.mark_committed(x, SimInstant::from_nanos(100)).unwrap();
        assert_eq!(
            log.state(x),
            XactState::Committed(SimInstant::from_nanos(100))
        );
        assert!(!log.active_set().contains(&x));
    }

    #[test]
    fn lifecycle_start_abort() {
        let (log, wal) = fresh();
        let x = log.start(&wal).unwrap();
        log.mark_aborted(x).unwrap();
        assert_eq!(log.state(x), XactState::Aborted);
    }

    #[test]
    fn double_commit_rejected() {
        let (log, wal) = fresh();
        let x = log.start(&wal).unwrap();
        log.mark_committed(x, SimInstant::EPOCH).unwrap();
        assert!(log.mark_committed(x, SimInstant::EPOCH).is_err());
        assert!(log.mark_aborted(x).is_err());
    }

    #[test]
    fn recovery_loses_in_progress_keeps_committed() {
        let dev = log_device(1024);
        let committed;
        let aborted;
        let in_progress;
        {
            let (log, wal) = create(&dev);
            committed = log.start(&wal).unwrap();
            aborted = log.start(&wal).unwrap();
            in_progress = log.start(&wal).unwrap();
            log.mark_committed(committed, SimInstant::from_nanos(7)).unwrap();
            log.mark_aborted(aborted).unwrap();
            log.persist_dirty(&wal).unwrap();
            // `in_progress` crashes here: no persistent record.
        }
        let log = XactLog::recover(dev).unwrap();
        assert_eq!(
            log.state(committed),
            XactState::Committed(SimInstant::from_nanos(7))
        );
        assert_eq!(log.state(aborted), XactState::Aborted);
        assert_eq!(log.state(in_progress), XactState::Unknown);
    }

    #[test]
    fn recovered_log_allocates_fresh_xids() {
        let dev = log_device(1024);
        let old;
        {
            let (log, wal) = create(&dev);
            old = log.start(&wal).unwrap();
            log.mark_committed(old, SimInstant::from_nanos(1)).unwrap();
            log.persist_dirty(&wal).unwrap();
        }
        let (log, wal) = reopen(&dev);
        let new = log.start(&wal).unwrap();
        assert!(new.0 > old.0, "new xid {new} must not reuse {old}");
    }

    #[test]
    fn a_raise_is_one_unforced_record_for_both_counters() {
        let (log, wal) = fresh();
        let mut xids = HashSet::new();
        let mut oids = HashSet::new();
        for _ in 0..1100 {
            assert!(xids.insert(log.start(&wal).unwrap()));
            assert!(oids.insert(log.alloc_oid(&wal).unwrap()));
        }
        assert!(xids.contains(&XactId(2)) && oids.contains(&Oid(Catalog::FIRST_OID)));
        // Both ceilings start used up, so the first id raises both; moving
        // in step, the two counters reach their next ceilings together, and
        // one more record raises both again.
        let stats = &wal.stats().wal;
        assert_eq!(stats.records_appended.get(), 2);
        for _ in 0..1024 {
            log.alloc_oid(&wal).unwrap();
        }
        assert_eq!(stats.records_appended.get(), 3, "an oid raise on its own");
        assert_eq!(stats.log_forces.get(), 0, "a raise never forces the log");
        assert_eq!(wal.durable_lsn(), 0);
    }

    #[test]
    fn restart_resumes_past_the_highest_ceiling_of_the_status_file_and_the_log() {
        let dev = log_device(1024);
        let (mut xid_max, mut oid_max) = (XactId(0), Oid(0));
        {
            let (log, wal) = create(&dev);
            let mut burn = |n: usize| {
                for _ in 0..n {
                    xid_max = log.start(&wal).unwrap();
                    oid_max = log.alloc_oid(&wal).unwrap();
                }
            };
            burn(1100);
            // Block 0 takes the ceilings of the first two raises...
            log.persist_dirty(&wal).unwrap();
            // ...the log alone those of the next, made durable by a force
            // of whatever came after it.
            burn(1100);
            wal.force_up_to(wal.next_lsn()).unwrap();
        }
        let (log, wal) = reopen(&dev);
        assert!(log.start(&wal).unwrap() > xid_max);
        assert!(log.alloc_oid(&wal).unwrap() > oid_max);
    }

    #[test]
    fn an_id_nothing_durable_carries_may_be_handed_out_again() {
        let dev = log_device(1024);
        let first = {
            let (log, wal) = create(&dev);
            let first = log.start(&wal).unwrap();
            log.start(&wal).unwrap();
            first
            // The raise's record was never forced: the crash takes it.
        };
        let (log, wal) = reopen(&dev);
        assert_eq!(log.start(&wal).unwrap(), first);
    }

    #[test]
    fn a_raise_the_log_has_no_room_for_leaves_both_ceilings_where_they_were() {
        // region_start = 64 leaves 7 log blocks per half.
        let (log, wal) = create(&log_device(80));
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
        assert_eq!(log.start(&wal).unwrap(), XactId(2));
        // ...but not once other raises have used up the room kept for them.
        let filler = WalRecord::Ceiling { xid: XactId(0), oid: Oid(0) };
        while wal.append(&filler).is_ok() {}
        for _ in 1..CEILING_STEP {
            log.start(&wal).unwrap();
        }
        for _ in 0..CEILING_STEP {
            log.alloc_oid(&wal).unwrap();
        }
        let full = |e: DbError| assert!(e.to_string().contains("WAL full"), "{e}");
        full(log.start(&wal).unwrap_err());
        full(log.alloc_oid(&wal).unwrap_err());
        let (xid, oid) = (XactId(2 + CEILING_STEP), Oid(Catalog::FIRST_OID + CEILING_STEP));
        assert_eq!(log.state(xid), XactState::Unknown);
        // Room again: allocation goes on where it stood.
        wal.truncate_to(wal.mark_cut()).unwrap();
        assert_eq!(log.start(&wal).unwrap(), xid);
        assert_eq!(log.alloc_oid(&wal).unwrap(), oid);
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
        let (log, wal) = fresh();
        let committed = log.start(&wal).unwrap();
        log.mark_committed(committed, SimInstant::from_nanos(5)).unwrap();
        let other_active = log.start(&wal).unwrap();
        let me = log.start(&wal).unwrap();
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
        let (log, wal) = fresh();
        let other = log.start(&wal).unwrap();
        let me = log.start(&wal).unwrap();
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
        let (log, wal) = fresh();
        let early = log.start(&wal).unwrap();
        log.mark_committed(early, SimInstant::from_nanos(10)).unwrap();
        let late = log.start(&wal).unwrap();
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
        let (log, wal) = fresh();
        let ab = log.start(&wal).unwrap();
        log.mark_aborted(ab).unwrap();
        let run = log.start(&wal).unwrap();
        let snap = Snapshot::AsOf(SimInstant::from_nanos(1_000_000));
        assert!(!snap.visible(hdr(ab.0, 0), &log));
        assert!(!snap.visible(hdr(run.0, 0), &log));
        // Delete by an aborted transaction never takes effect.
        assert!(snap.visible(hdr(1, ab.0), &log));
    }

    #[test]
    fn dirty_sees_everything() {
        let (log, _) = fresh();
        assert!(Snapshot::Dirty.visible(hdr(424242, 999), &log));
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
