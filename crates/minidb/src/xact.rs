//! Transactions: the status file, snapshots, and tuple visibility.
//!
//! POSTGRES's no-overwrite storage manager needs no write-ahead log: "only
//! the start time and commit state of a transaction must be recorded in the
//! status file, no special log processing is required at crash recovery
//! time". This module is that status file plus the visibility rules that
//! make both ordinary reads and *time travel* work.
//!
//! A transaction that crashes before committing simply never gets a
//! `Committed` entry; its tuples are invisible to everyone forever. That is
//! the whole recovery story, and why the paper calls recovery "essentially
//! instantaneous".

use std::collections::HashSet;

use parking_lot::Mutex;
use simdev::SimInstant;

use crate::error::{DbError, DbResult};
use crate::ids::XactId;
use crate::smgr::SharedDevice;

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
/// eight bytes hold the durable xid-allocation ceiling.
const ST_CEILING: u8 = 1;
const ST_COMMITTED: u8 = 2;
const ST_ABORTED: u8 = 3;

/// How many xids one durable ceiling bump covers. Allocation crosses the
/// ceiling only after persisting a higher one, so at most this many ids are
/// skipped after a crash.
const CEILING_STEP: usize = 1024;

struct LogInner {
    /// Entry `i` describes `XactId(i)`; index 0 is the invalid xid.
    entries: Vec<XactState>,
    /// First xid NOT covered by the durably persisted allocation ceiling.
    /// `start` never hands out `entries.len() >= ceiling` without first
    /// persisting a higher ceiling, so a crash can never lead to an already
    /// used xid being allocated again — even when every trace of the old
    /// transaction (WAL records, status entry) is gone but its tuples
    /// reached disk through a checkpoint or an eviction.
    ceiling: usize,
    /// Status blocks whose in-memory state is ahead of the device. The
    /// log force is the commit point and status entries are only marked in
    /// memory; checkpoints drain this set via [`XactLog::persist_dirty`].
    dirty: HashSet<u64>,
}

impl LogInner {
    fn mark_dirty(&mut self, xid: XactId) {
        self.dirty.insert((xid.0 as usize / ENTRIES_PER_BLOCK) as u64);
    }
}

/// The transaction status file.
///
/// Persistent entries live on a dedicated device (`pg_log` in POSTGRES).
/// Outcomes are *marked* here in memory — the commit point is the log
/// force that made the `Commit` record durable, which the caller performs
/// first — and reach the device at the next checkpoint
/// ([`XactLog::persist_dirty`]); restart overlays the outcomes logged
/// since then ([`XactLog::apply_recovered`]). In-progress state is
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
        let log = XactLog {
            dev,
            inner: Mutex::new(LogInner {
                entries: vec![XactState::Unknown, XactState::Committed(SimInstant::EPOCH)],
                dirty: HashSet::new(),
                ceiling: CEILING_STEP,
            }),
        };
        // Writes block 0, which carries both FROZEN and the initial ceiling.
        log.persist_blocks(&[0])?;
        Ok(log)
    }

    /// Reloads the log from `dev` after a crash or restart.
    ///
    /// Any transaction that was in progress at the crash has no persistent
    /// entry and is reported [`XactState::Unknown`], making its updates
    /// permanently invisible — this is the entirety of crash recovery.
    pub fn recover(dev: SharedDevice) -> DbResult<XactLog> {
        let mut entries = vec![XactState::Unknown];
        let mut blk = vec![0u8; simdev::BLOCK_SIZE];
        let mut blkno = 0u64;
        let mut ceiling = 0usize;
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
                        ceiling = crate::bytes::le_u64(&blk, 1)? as usize;
                    }
                    continue;
                }
                let off = i * ENTRY_SIZE;
                let status = blk[off];
                match status {
                    ST_COMMITTED => {
                        let t = crate::bytes::le_u64(&blk, off + 1)?;
                        while entries.len() <= xid {
                            entries.push(XactState::Unknown);
                        }
                        entries[xid] = XactState::Committed(SimInstant::from_nanos(t));
                    }
                    ST_ABORTED => {
                        while entries.len() <= xid {
                            entries.push(XactState::Unknown);
                        }
                        entries[xid] = XactState::Aborted;
                    }
                    ST_UNKNOWN => {
                        // An all-unknown tail past the allocation ceiling
                        // ends the log. Below the ceiling it proves nothing:
                        // a restart skips to the ceiling, so entries may sit
                        // beyond an arbitrarily long run of never-used ids.
                        if entries.len() <= xid && xid >= ceiling {
                            break 'outer;
                        }
                    }
                    other => {
                        return Err(DbError::Corrupt(format!(
                            "bad status byte {other} for xid {xid}"
                        )))
                    }
                }
            }
            blkno += 1;
        }
        if entries.len() < 2 {
            entries.resize(2, XactState::Unknown);
        }
        entries[1] = XactState::Committed(SimInstant::EPOCH);
        // Skip to the durable ceiling: ids below it may have been handed out
        // and left traces on disk even though no status entry survived.
        if entries.len() < ceiling {
            entries.resize(ceiling, XactState::Unknown);
        }
        let ceiling = ceiling.max(entries.len());
        Ok(XactLog {
            dev,
            inner: Mutex::new(LogInner {
                entries,
                dirty: HashSet::new(),
                ceiling,
            }),
        })
    }

    /// Overlays one recovered outcome from the write-ahead log onto the
    /// status file: commit and abort records newer than the last persisted
    /// checkpoint exist only in the WAL, and restart replays them here. The
    /// entry vector is extended as needed so the xids are never reallocated;
    /// the touched block is marked dirty for the next checkpoint.
    pub fn apply_recovered(&self, xid: XactId, state: XactState) {
        let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
        let mut g = self.inner.lock();
        let idx = xid.0 as usize;
        while g.entries.len() <= idx {
            g.entries.push(XactState::Unknown);
        }
        g.entries[idx] = state;
        g.mark_dirty(xid);
    }

    /// Allocates a new transaction id, marked in-progress (volatile).
    ///
    /// Ids are only handed out below the durable allocation ceiling; when
    /// the next id would reach it, a higher ceiling is persisted first. The
    /// occasional status-block write is what makes xid allocation itself
    /// crash-safe: without it, a restart could reissue an id whose tuples a
    /// checkpoint already pushed to disk, and the new transaction would see
    /// the orphaned rows as its own.
    pub fn start(&self) -> DbResult<XactId> {
        loop {
            {
                let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
                let mut g = self.inner.lock();
                if g.entries.len() < g.ceiling {
                    let xid = XactId(g.entries.len() as u32);
                    g.entries.push(XactState::InProgress);
                    return Ok(xid);
                }
            }
            self.extend_ceiling()?;
        }
    }

    /// Durably raises the allocation ceiling by [`CEILING_STEP`]. The new
    /// value is installed in memory only after the status block carrying it
    /// has synced; on failure the old ceiling stands and no id past it is
    /// ever allocated. A durable ceiling higher than the in-memory one (a
    /// torn bump) is harmless: it only wastes ids.
    fn extend_ceiling(&self) -> DbResult<()> {
        let target = {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let mut g = self.inner.lock();
            let target = g.entries.len() + CEILING_STEP;
            g.ceiling = g.ceiling.max(target);
            target
        };
        if let Err(e) = self.persist_blocks(&[0]) {
            // Retreat to what is certainly covered by a durable ceiling (a
            // concurrent successful bump may re-raise it; worst case some
            // ids are skipped, which is always safe).
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let mut g = self.inner.lock();
            if g.ceiling == target {
                g.ceiling = g.entries.len();
            }
            return Err(e);
        }
        Ok(())
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

    /// Rewrites every status block whose in-memory state is ahead of the
    /// device and syncs the log device once. Called by checkpoints; after a
    /// clean return the status file alone reconstructs every outcome up to
    /// the checkpoint.
    pub fn persist_dirty(&self) -> DbResult<()> {
        let blknos: Vec<u64> = {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let g = self.inner.lock();
            let mut v: Vec<u64> = g.dirty.iter().copied().collect();
            v.sort_unstable();
            v
        };
        if blknos.is_empty() {
            return Ok(());
        }
        self.persist_blocks(&blknos)?;
        {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let mut g = self.inner.lock();
            for b in &blknos {
                g.dirty.remove(b);
            }
        }
        Ok(())
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

    /// The commit time of `xid`, if committed.
    pub fn commit_time(&self, xid: XactId) -> Option<SimInstant> {
        match self.state(xid) {
            XactState::Committed(t) => Some(t),
            _ => None,
        }
    }

    /// Rewrites the listed status blocks (sorted, deduplicated by the
    /// caller) on the log device and syncs it once.
    fn persist_blocks(&self, blknos: &[u64]) -> DbResult<()> {
        let mut blocks = Vec::with_capacity(blknos.len());
        {
            let _order = crate::lock::order::token(crate::lock::order::XACT_LOG);
            let g = self.inner.lock();
            for &blkno in blknos {
                let first = blkno as usize * ENTRIES_PER_BLOCK;
                let mut blk = vec![0u8; simdev::BLOCK_SIZE];
                for i in 0..ENTRIES_PER_BLOCK {
                    let x = first + i;
                    let off = i * ENTRY_SIZE;
                    if x == 0 {
                        // The invalid xid's slot carries the allocation
                        // ceiling instead of a status.
                        blk[off] = ST_CEILING;
                        blk[off + 1..off + 9]
                            .copy_from_slice(&(g.ceiling as u64).to_le_bytes());
                        continue;
                    }
                    match g.entries.get(x).copied().unwrap_or(XactState::Unknown) {
                        XactState::Committed(t) => {
                            blk[off] = ST_COMMITTED;
                            blk[off + 1..off + 9].copy_from_slice(&t.as_nanos().to_le_bytes());
                        }
                        XactState::Aborted => blk[off] = ST_ABORTED,
                        // In-progress is deliberately not persisted.
                        XactState::InProgress | XactState::Unknown => blk[off] = ST_UNKNOWN,
                    }
                }
                blocks.push((blkno, blk));
            }
        }
        let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        for (blkno, blk) in &blocks {
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

    fn log_device() -> SharedDevice {
        let clock = SimClock::new();
        shared_device(MagneticDisk::new(
            "log",
            clock,
            DiskProfile::tiny_for_tests(1024),
        ))
    }

    #[test]
    fn frozen_is_committed_at_epoch() {
        let log = XactLog::create(log_device()).unwrap();
        assert_eq!(
            log.state(XactId::FROZEN),
            XactState::Committed(SimInstant::EPOCH)
        );
    }

    #[test]
    fn lifecycle_start_commit() {
        let log = XactLog::create(log_device()).unwrap();
        let x = log.start().unwrap();
        assert_eq!(log.state(x), XactState::InProgress);
        assert!(log.active_set().contains(&x));
        log.mark_committed(x, SimInstant::from_nanos(100)).unwrap();
        assert_eq!(
            log.state(x),
            XactState::Committed(SimInstant::from_nanos(100))
        );
        assert!(!log.active_set().contains(&x));
        assert_eq!(log.commit_time(x), Some(SimInstant::from_nanos(100)));
    }

    #[test]
    fn lifecycle_start_abort() {
        let log = XactLog::create(log_device()).unwrap();
        let x = log.start().unwrap();
        log.mark_aborted(x).unwrap();
        assert_eq!(log.state(x), XactState::Aborted);
        assert!(log.commit_time(x).is_none());
    }

    #[test]
    fn double_commit_rejected() {
        let log = XactLog::create(log_device()).unwrap();
        let x = log.start().unwrap();
        log.mark_committed(x, SimInstant::EPOCH).unwrap();
        assert!(log.mark_committed(x, SimInstant::EPOCH).is_err());
        assert!(log.mark_aborted(x).is_err());
    }

    #[test]
    fn recovery_loses_in_progress_keeps_committed() {
        let dev = log_device();
        let committed;
        let aborted;
        let in_progress;
        {
            let log = XactLog::create(dev.clone()).unwrap();
            committed = log.start().unwrap();
            aborted = log.start().unwrap();
            in_progress = log.start().unwrap();
            log.mark_committed(committed, SimInstant::from_nanos(7)).unwrap();
            log.mark_aborted(aborted).unwrap();
            log.persist_dirty().unwrap();
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
        let dev = log_device();
        let old;
        {
            let log = XactLog::create(dev.clone()).unwrap();
            old = log.start().unwrap();
            log.mark_committed(old, SimInstant::from_nanos(1)).unwrap();
            log.persist_dirty().unwrap();
        }
        let log = XactLog::recover(dev).unwrap();
        let new = log.start().unwrap();
        assert!(new.0 > old.0, "new xid {new} must not reuse {old}");
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
        let log = XactLog::create(log_device()).unwrap();
        let committed = log.start().unwrap();
        log.mark_committed(committed, SimInstant::from_nanos(5)).unwrap();
        let other_active = log.start().unwrap();
        let me = log.start().unwrap();
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
        let log = XactLog::create(log_device()).unwrap();
        let other = log.start().unwrap();
        let me = log.start().unwrap();
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
        let log = XactLog::create(log_device()).unwrap();
        let early = log.start().unwrap();
        log.mark_committed(early, SimInstant::from_nanos(10)).unwrap();
        let late = log.start().unwrap();
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
        let log = XactLog::create(log_device()).unwrap();
        let ab = log.start().unwrap();
        log.mark_aborted(ab).unwrap();
        let run = log.start().unwrap();
        let snap = Snapshot::AsOf(SimInstant::from_nanos(1_000_000));
        assert!(!snap.visible(hdr(ab.0, 0), &log));
        assert!(!snap.visible(hdr(run.0, 0), &log));
        // Delete by an aborted transaction never takes effect.
        assert!(snap.visible(hdr(1, ab.0), &log));
    }

    #[test]
    fn dirty_sees_everything() {
        let log = XactLog::create(log_device()).unwrap();
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
