//! Single-pass REDO with instant recovery.
//!
//! Restart does not replay the log into the data files before opening for
//! business. Instead, [`crate::wal::Wal::recover`] scans the log once and
//! this module indexes its records into a [`Redo`] map keyed by page
//! address. The storage manager consults the map on every page read: the
//! first touch of a stale page replays exactly the records that page is
//! missing (the per-page LSN gate makes this idempotent), while new
//! sessions run concurrently — the paper's "essentially instantaneous"
//! recovery, upgraded to survive unflushed data pages.
//!
//! Replay changes the *in-memory* copy only; the map keeps its entries so
//! a re-read after eviction replays again. The first checkpoint after
//! recovery sweeps every still-pending page through the buffer pool,
//! flushes them, and empties the map — the "fall back to a full sweep"
//! half of instant recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::DbResult;
use crate::ids::{DeviceId, RelId};
use crate::page;
use crate::stats::StatsRegistry;
use crate::wal::WalRecord;

/// The address of one page in the cluster.
pub type PageAddr = (DeviceId, RelId, u64);

/// The pending-REDO map: for each page with unreplayed records, the records
/// in log order with their end LSNs.
///
/// Its mutex is a leaf: `replay_into` runs while the storage manager is
/// mid-read (arbitrary ranks held) and acquires nothing else inside, so it
/// carries no rank of its own.
pub struct Redo {
    map: Mutex<HashMap<PageAddr, Vec<(u64, WalRecord)>>>,
    /// Pages still pending; the fast path on every read checks this.
    pending: AtomicUsize,
    stats: Arc<StatsRegistry>,
}

impl Redo {
    /// An empty map (fresh database, nothing to replay).
    pub fn empty(stats: Arc<StatsRegistry>) -> Redo {
        Redo {
            map: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(0),
            stats,
        }
    }

    /// Indexes the records of a recovered log by the page each changes.
    pub fn from_records(records: &[(u64, WalRecord)], stats: Arc<StatsRegistry>) -> Redo {
        let mut map: HashMap<PageAddr, Vec<(u64, WalRecord)>> = HashMap::new();
        for (end, rec) in records {
            map.entry(rec.page_addr()).or_default().push((*end, rec.clone()));
        }
        let pending = map.len();
        Redo {
            map: Mutex::new(map),
            pending: AtomicUsize::new(pending),
            stats,
        }
    }

    /// Whether every page has been swept (the fast path on reads).
    pub fn is_empty(&self) -> bool {
        self.pending.load(SeqCst) == 0
    }

    /// Number of pages with pending records.
    pub fn pending_pages(&self) -> usize {
        self.pending.load(SeqCst)
    }

    /// The addresses of every page with pending records (checkpoint sweep
    /// and allocation fixup iterate these).
    pub fn pages(&self) -> Vec<PageAddr> {
        self.map.lock().keys().copied().collect()
    }

    /// Replays onto `buf` (just read from `addr`) every pending record the
    /// page has not seen, gated by the page LSN; stamps the LSN of the last
    /// record applied. Entries stay mapped — replay mutates only the
    /// caller's in-memory copy, so a later re-read of the same device page
    /// must replay again; [`Redo::clear`] retires them once a checkpoint
    /// has made the replayed pages durable.
    pub fn replay_into(&self, addr: PageAddr, buf: &mut [u8]) -> DbResult<()> {
        let map = self.map.lock();
        let Some(records) = map.get(&addr) else {
            return Ok(());
        };
        let mut applied = 0u64;
        for (end, rec) in records {
            if *end > page::lsn(buf) {
                rec.redo(buf)?;
                page::set_lsn(buf, *end);
                applied += 1;
            }
        }
        if applied > 0 {
            self.stats.wal.replayed_pages.bump();
            self.stats.wal.replayed_records.add(applied);
        }
        Ok(())
    }

    /// Drops one page's pending records — recovery's allocation fixup calls
    /// this for pages of relations that were dropped after their records
    /// were logged (the records are unreachable, not missing).
    pub fn forget(&self, addr: PageAddr) {
        if self.map.lock().remove(&addr).is_some() {
            self.pending.fetch_sub(1, SeqCst);
        }
    }

    /// Empties the map once a checkpoint has flushed every pending page.
    pub fn clear(&self) {
        self.map.lock().clear();
        self.pending.store(0, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Oid, XactId};

    fn stats() -> Arc<StatsRegistry> {
        Arc::new(StatsRegistry::new())
    }

    fn addr(blkno: u64) -> PageAddr {
        (DeviceId::DEFAULT, Oid(5), blkno)
    }

    fn insert_at(blkno: u64, slot: u16, byte: u8) -> WalRecord {
        WalRecord::Insert {
            dev: DeviceId::DEFAULT,
            rel: Oid(5),
            blkno,
            slot,
            tuple: vec![byte; 32],
        }
    }

    #[test]
    fn indexes_records_by_page() {
        let recs = vec![
            (10, insert_at(0, 0, 1)),
            (
                20,
                WalRecord::Commit {
                    xid: XactId(2),
                    time_ns: 1,
                },
            ),
            (30, insert_at(1, 0, 2)),
            (40, insert_at(0, 1, 3)),
        ];
        let redo = Redo::from_records(&recs, stats());
        assert_eq!(redo.pending_pages(), 3);
        let mut pages = redo.pages();
        pages.sort();
        let status = (DeviceId::CATALOG, crate::catalog::PG_LOG, 0);
        assert_eq!(pages, vec![addr(0), addr(1), status]);
    }

    #[test]
    fn replay_is_lsn_gated_and_idempotent() {
        let reg = stats();
        let recs = vec![
            (
                10,
                WalRecord::PageInit {
                    dev: DeviceId::DEFAULT,
                    rel: Oid(5),
                    blkno: 0,
                    special_size: 0,
                },
            ),
            (20, insert_at(0, 0, 7)),
            (30, insert_at(0, 1, 8)),
        ];
        let redo = Redo::from_records(&recs, reg.clone());

        // A stale page that saw only the first two records.
        let mut buf = vec![0u8; page::PAGE_SIZE];
        page::init(&mut buf, 0);
        page::insert(&mut buf, &[7u8; 32]).unwrap();
        page::set_lsn(&mut buf, 20);

        redo.replay_into(addr(0), &mut buf).unwrap();
        assert_eq!(page::nslots(&buf), 2);
        assert_eq!(page::lsn(&buf), 30);
        assert_eq!(reg.wal.replayed_records.get(), 1);

        // Replaying again applies nothing (the LSN gate holds).
        redo.replay_into(addr(0), &mut buf).unwrap();
        assert_eq!(page::nslots(&buf), 2);
        assert_eq!(reg.wal.replayed_records.get(), 1);

        // A page with no pending records is untouched.
        let before = buf.clone();
        redo.replay_into(addr(9), &mut buf).unwrap();
        assert_eq!(buf, before);

        redo.clear();
        assert!(redo.is_empty());
        // From-scratch replay after clear: nothing happens any more.
        let mut blank = vec![0u8; page::PAGE_SIZE];
        redo.replay_into(addr(0), &mut blank).unwrap();
        assert_eq!(blank, vec![0u8; page::PAGE_SIZE]);
    }
}
