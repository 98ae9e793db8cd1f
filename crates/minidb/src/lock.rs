//! Two-phase locking.
//!
//! "A standard database two-phase locking protocol \[GRAY76\] allows
//! concurrent access to files while preventing simultaneous changes from
//! interfering with one another." Locks are relation-granularity, shared or
//! exclusive, held until commit or abort (strict 2PL). Waiters are parked on
//! a condition variable; a wait-for graph is checked on every block so
//! deadlocks fail fast with [`DbError::Deadlock`] instead of hanging.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{DbError, DbResult};
use crate::ids::{RelId, XactId};
use crate::stats::StatsRegistry;

/// Lock modes. Shared locks are compatible with each other; exclusive locks
/// are compatible with nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Read lock.
    Shared,
    /// Write lock.
    Exclusive,
}

#[derive(Debug, Default)]
struct Inner {
    /// Current holders per relation.
    holders: HashMap<RelId, HashMap<XactId, LockMode>>,
    /// Who each blocked transaction is waiting on.
    waits_for: HashMap<XactId, HashSet<XactId>>,
}

impl Inner {
    /// The holders that prevent `xid` from taking `mode` on `rel`.
    fn conflicts(&self, rel: RelId, xid: XactId, mode: LockMode) -> HashSet<XactId> {
        let Some(held) = self.holders.get(&rel) else {
            return HashSet::new();
        };
        held.iter()
            .filter(|(&h, &m)| {
                h != xid
                    && match mode {
                        LockMode::Shared => m == LockMode::Exclusive,
                        LockMode::Exclusive => true,
                    }
            })
            .map(|(&h, _)| h)
            .collect()
    }

    /// Whether `from` can reach `to` in the wait-for graph.
    fn reaches(&self, from: XactId, to: XactId) -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = self.waits_for.get(&x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

/// The lock manager.
pub struct LockManager {
    inner: Mutex<Inner>,
    cv: Condvar,
    timeout: Duration,
    /// Where acquisition/wait/deadlock/timeout counts go. A standalone
    /// manager gets a private registry; [`crate::Db::open`] swaps in the
    /// database-wide one via [`LockManager::share_stats`].
    stats: Arc<StatsRegistry>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new()
    }
}

/// How long a lock request waits before giving up: a backstop behind
/// deadlock detection, which refuses a cycle-closing request at once.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

impl LockManager {
    /// Creates a lock manager with the [`LOCK_TIMEOUT`] wait backstop.
    pub fn new() -> LockManager {
        LockManager::with_timeout(LOCK_TIMEOUT)
    }

    /// Creates a lock manager with a custom wait timeout (tests).
    pub fn with_timeout(timeout: Duration) -> LockManager {
        LockManager {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            timeout,
            stats: Arc::new(StatsRegistry::new()),
        }
    }

    /// Redirects this manager's counters into `stats`.
    pub fn share_stats(&mut self, stats: Arc<StatsRegistry>) {
        self.stats = stats;
    }

    /// The registry this manager's counters land in.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Acquires `mode` on `rel` for `xid`, blocking until compatible.
    ///
    /// Re-acquiring an already-held lock is a no-op; a shared holder that is
    /// the only holder upgrades to exclusive in place. Detected deadlocks
    /// return [`DbError::Deadlock`] (the caller should abort); pathological
    /// waits return [`DbError::LockTimeout`].
    pub fn acquire(&self, xid: XactId, rel: RelId, mode: LockMode) -> DbResult<()> {
        let _order = order::token(order::LOCK_MANAGER);
        let mut inner = self.inner.lock();
        let mut waited = false;
        loop {
            let already = inner.holders.get(&rel).and_then(|h| h.get(&xid)).copied();
            match (already, mode) {
                (Some(LockMode::Exclusive), _) | (Some(LockMode::Shared), LockMode::Shared) => {
                    return Ok(())
                }
                _ => {}
            }
            let conflicts = inner.conflicts(rel, xid, mode);
            if conflicts.is_empty() {
                inner.holders.entry(rel).or_default().insert(xid, mode);
                inner.waits_for.remove(&xid);
                self.stats.lock.acquisitions.bump();
                return Ok(());
            }
            // Would waiting close a cycle? If any conflicting holder
            // (transitively) waits on us, abort this request instead.
            for &other in &conflicts {
                if inner.reaches(other, xid) {
                    inner.waits_for.remove(&xid);
                    self.stats.lock.deadlocks.bump();
                    return Err(DbError::Deadlock);
                }
            }
            inner.waits_for.insert(xid, conflicts);
            if !waited {
                waited = true;
                self.stats.lock.waits.bump();
            }
            let timed_out = self.cv.wait_for(&mut inner, self.timeout).timed_out();
            if timed_out {
                inner.waits_for.remove(&xid);
                self.stats.lock.timeouts.bump();
                return Err(DbError::LockTimeout);
            }
        }
    }

    /// Releases every lock held by `xid` (end of transaction).
    pub fn release_all(&self, xid: XactId) {
        let _order = order::token(order::LOCK_MANAGER);
        let mut inner = self.inner.lock();
        inner.holders.retain(|_, held| {
            held.remove(&xid);
            !held.is_empty()
        });
        inner.waits_for.remove(&xid);
        self.cv.notify_all();
    }

    /// The mode `xid` holds on `rel`, if any.
    pub fn held(&self, xid: XactId, rel: RelId) -> Option<LockMode> {
        let _order = order::token(order::LOCK_MANAGER);
        self.inner
            .lock()
            .holders
            .get(&rel)
            .and_then(|h| h.get(&xid))
            .copied()
    }

    /// Total locks currently held across all transactions. Zero once every
    /// session has committed, aborted, or been disconnected — the invariant
    /// the server's teardown tests assert.
    pub fn held_lock_count(&self) -> usize {
        let _order = order::token(order::LOCK_MANAGER);
        self.inner
            .lock()
            .holders
            .values()
            .map(|held| held.len())
            .sum()
    }
}

/// The declared lock hierarchy, shared between the static `xtask lint`
/// audit and the debug-build runtime assertions below.
///
/// Acquisition order runs outermost to innermost; a thread may only acquire
/// a lock whose level is **>=** every level it already holds (equal levels
/// are allowed: a b-tree split legitimately latches several index pages at
/// once).
///
/// The order differs from a naive reading of the module layering because it
/// is derived from the code's actual nesting, which the audit verified:
///
/// * a b-tree split holds a page latch while asking the buffer pool for a
///   fresh page, so page latches are *outside* the shard latches (page
///   *pins* are counts, not locks, and have no rank: whoever may block on
///   a latch must not be sitting on pins the latch holder's `new_page`
///   needs freed — the pool's flush therefore holds one pin at a time);
/// * the pool locks a frame (to load it or to write a victim back) while
///   holding a shard latch, so shard latches are *outside* frame locks —
///   and it always releases the shard latch before any device I/O, so no
///   device lock is ever taken under a shard latch (a debug assertion in
///   the smgr read/write/extend paths enforces this);
/// * the heap consults the transaction log while holding a page latch, so
///   page latches are *outside* the log mutex.
///
/// `heap-page`/`btree-page` and `buffer-frame` name the *same* physical
/// `RwLock` (a frame's page lock) in two acquisition contexts: access
/// methods latch pages they have already pinned (outside the pool, low
/// rank), while the pool itself locks frames under a shard latch during
/// loads, writebacks, and flushes (high rank). The pool never acquires a
/// shard latch while holding a frame lock, which keeps both contexts
/// cycle-free.
pub mod order {
    /// Lock families, outermost first. Index = rank.
    pub const HIERARCHY: [&str; 12] = [
        "catalog",
        "lock-manager",
        "heap-page",
        "btree-page",
        "checkpointer",
        "xact-log",
        "buffer-shard",
        "buffer-frame",
        "wal-flush",
        "wal",
        "io-queue",
        "smgr-device",
    ];

    /// Rank of the catalog `RwLock`.
    pub const CATALOG: usize = 0;
    /// Rank of the two-phase lock manager's internal mutex.
    pub const LOCK_MANAGER: usize = 1;
    /// Rank of heap page latches.
    pub const HEAP_PAGE: usize = 2;
    /// Rank of b-tree page latches (meta, internal, and leaf pages).
    pub const BTREE_PAGE: usize = 3;
    /// Rank of the checkpointer's cycle mutex. A checkpoint drains the
    /// status log, the buffer pool, the WAL, and the devices, so it sits
    /// outside all of those.
    pub const CHECKPOINTER: usize = 4;
    /// Rank of the transaction status log mutex. An id ceiling's raise
    /// appends its log record under it, so it ranks outside `wal`.
    pub const XACT_LOG: usize = 5;
    /// Rank of the buffer pool's per-shard latches.
    pub const BUFFER_SHARD: usize = 6;
    /// Rank of frame locks taken *by the pool itself* (load, writeback,
    /// flush) — access methods lock the same frames as `heap-page` /
    /// `btree-page`.
    pub const BUFFER_FRAME: usize = 7;
    /// Rank of the write-ahead log's flush lock, which serialises forces
    /// and truncation. Forces happen at commit (no ranked lock held),
    /// during frame writeback and from an append that finds the buffer
    /// over its cap (under a page latch), so it ranks inside all of those;
    /// it ranks just outside `wal` because a force takes the append mutex
    /// to snapshot the tail, releases it for the device I/O, and takes it
    /// again to publish the new durable horizon.
    pub const WAL_FLUSH: usize = 8;
    /// Rank of the write-ahead log's append mutex. Record emission happens
    /// under page latches, so it ranks inside them; it ranks outside the
    /// devices because truncation reads and writes the log device under
    /// it. An appender never holds it across a force.
    pub const WAL: usize = 9;
    /// Rank of the per-device I/O scheduler's queue mutex. Submissions
    /// happen during frame writeback (under `buffer-frame`) and after a
    /// WAL force, so the queue ranks inside both; the worker thread takes
    /// the queue lock and the device lock strictly alternately (never
    /// nested), but submission-side code may peek the queue right before
    /// falling back to a synchronous device call, so the queue ranks
    /// outside `smgr-device`. The queue lock is never held across a wait:
    /// waits (barriers, backpressure throttles) assert that no shard or
    /// frame latch is held.
    pub const IO_QUEUE: usize = 10;
    /// Rank of per-device locks (the smgr switch and `SharedDevice`s).
    pub const SMGR_DEVICE: usize = 11;

    #[cfg(debug_assertions)]
    thread_local! {
        static HELD: std::cell::RefCell<Vec<usize>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// RAII witness that the current thread holds a lock of some rank.
    ///
    /// Bind one right after taking the guard it describes and keep it for
    /// exactly the guard's critical section. Zero-sized no-op in release
    /// builds.
    #[must_use = "bind the token for the critical section it describes"]
    pub struct LevelToken {
        #[cfg(debug_assertions)]
        level: usize,
    }

    /// Records that the current thread acquired a lock of rank `level`,
    /// asserting (debug builds only) that it respects [`HIERARCHY`].
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn token(level: usize) -> LevelToken {
        #[cfg(debug_assertions)]
        {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(&max) = h.iter().max() {
                    assert!(
                        level >= max,
                        "lock-order violation: acquiring {} while holding {}",
                        HIERARCHY[level.min(HIERARCHY.len() - 1)],
                        HIERARCHY[max.min(HIERARCHY.len() - 1)],
                    );
                }
                h.push(level);
            });
            LevelToken { level }
        }
        #[cfg(not(debug_assertions))]
        LevelToken {}
    }

    #[cfg(debug_assertions)]
    impl Drop for LevelToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(pos) = h.iter().rposition(|&l| l == self.level) {
                    h.remove(pos);
                }
            });
        }
    }

    /// Whether the current thread holds a lock of rank `level` (debug
    /// builds only; always `false` in release). The smgr uses this to
    /// assert that no device I/O happens under a buffer-shard latch.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn is_held(level: usize) -> bool {
        #[cfg(debug_assertions)]
        {
            HELD.with(|h| h.borrow().contains(&level))
        }
        #[cfg(not(debug_assertions))]
        false
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn increasing_and_equal_ranks_pass() {
            let _a = token(CATALOG);
            let _b = token(HEAP_PAGE);
            let _c = token(HEAP_PAGE);
            let _d = token(SMGR_DEVICE);
        }

        #[test]
        fn release_unwinds_the_stack() {
            {
                let _a = token(BUFFER_SHARD);
            }
            let _b = token(CATALOG); // Fine again once the shard rank is gone.
        }

        #[test]
        #[cfg(debug_assertions)]
        fn is_held_tracks_live_tokens() {
            assert!(!is_held(BUFFER_SHARD));
            {
                let _a = token(BUFFER_SHARD);
                assert!(is_held(BUFFER_SHARD));
                assert!(!is_held(BUFFER_FRAME));
            }
            assert!(!is_held(BUFFER_SHARD));
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "lock-order violation")]
        fn decreasing_rank_panics_in_debug() {
            let _a = token(BUFFER_SHARD);
            let _b = token(HEAP_PAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.acquire(XactId(1), Oid(5), LockMode::Shared).unwrap();
        lm.acquire(XactId(2), Oid(5), LockMode::Shared).unwrap();
        assert_eq!(lm.held(XactId(1), Oid(5)), Some(LockMode::Shared));
        assert_eq!(lm.held(XactId(2), Oid(5)), Some(LockMode::Shared));
    }

    #[test]
    fn reacquire_is_noop_and_upgrade_works_when_sole_holder() {
        let lm = LockManager::new();
        lm.acquire(XactId(1), Oid(5), LockMode::Shared).unwrap();
        lm.acquire(XactId(1), Oid(5), LockMode::Shared).unwrap();
        lm.acquire(XactId(1), Oid(5), LockMode::Exclusive).unwrap();
        assert_eq!(lm.held(XactId(1), Oid(5)), Some(LockMode::Exclusive));
        // Exclusive holder re-requesting shared keeps exclusive.
        lm.acquire(XactId(1), Oid(5), LockMode::Shared).unwrap();
        assert_eq!(lm.held(XactId(1), Oid(5)), Some(LockMode::Exclusive));
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(XactId(1), Oid(5), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || {
            lm2.acquire(XactId(2), Oid(5), LockMode::Shared).unwrap();
            lm2.held(XactId(2), Oid(5))
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(lm.held(XactId(2), Oid(5)), None, "waiter must be blocked");
        lm.release_all(XactId(1));
        assert_eq!(t.join().unwrap(), Some(LockMode::Shared));
    }

    #[test]
    fn deadlock_detected_not_hung() {
        let lm = Arc::new(LockManager::new());
        lm.acquire(XactId(1), Oid(1), LockMode::Exclusive).unwrap();
        lm.acquire(XactId(2), Oid(2), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let t = std::thread::spawn(move || {
            // X2 waits for rel 1 (held by X1).
            lm2.acquire(XactId(2), Oid(1), LockMode::Exclusive)
        });
        std::thread::sleep(Duration::from_millis(50));
        // X1 requesting rel 2 closes the cycle: one side must get Deadlock.
        let r1 = lm.acquire(XactId(1), Oid(2), LockMode::Exclusive);
        assert_eq!(r1, Err(DbError::Deadlock));
        // Aborting X1 unblocks X2.
        lm.release_all(XactId(1));
        assert_eq!(t.join().unwrap(), Ok(()));
    }

    #[test]
    fn timeout_backstop_fires() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(XactId(1), Oid(5), LockMode::Exclusive).unwrap();
        let r = lm.acquire(XactId(2), Oid(5), LockMode::Shared);
        assert_eq!(r, Err(DbError::LockTimeout));
    }

    #[test]
    fn release_all_frees_every_relation() {
        let lm = LockManager::new();
        lm.acquire(XactId(1), Oid(1), LockMode::Exclusive).unwrap();
        lm.acquire(XactId(1), Oid(2), LockMode::Shared).unwrap();
        lm.release_all(XactId(1));
        assert_eq!(lm.held(XactId(1), Oid(1)), None);
        assert_eq!(lm.held(XactId(1), Oid(2)), None);
        // Another transaction can take both immediately.
        lm.acquire(XactId(2), Oid(1), LockMode::Exclusive).unwrap();
        lm.acquire(XactId(2), Oid(2), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn counters_track_grants_waits_and_timeouts() {
        let lm = LockManager::with_timeout(Duration::from_millis(50));
        lm.acquire(XactId(1), Oid(5), LockMode::Exclusive).unwrap();
        assert_eq!(lm.stats().lock.acquisitions.get(), 1);
        // Re-acquire is a no-op, not a fresh grant.
        lm.acquire(XactId(1), Oid(5), LockMode::Exclusive).unwrap();
        assert_eq!(lm.stats().lock.acquisitions.get(), 1);
        let r = lm.acquire(XactId(2), Oid(5), LockMode::Shared);
        assert_eq!(r, Err(DbError::LockTimeout));
        assert_eq!(lm.stats().lock.waits.get(), 1);
        assert_eq!(lm.stats().lock.timeouts.get(), 1);
        assert_eq!(lm.stats().lock.deadlocks.get(), 0);
    }

    #[test]
    fn writers_serialize_under_contention() {
        let lm = Arc::new(LockManager::new());
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let lm = Arc::clone(&lm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let xid = XactId(10 + i);
                lm.acquire(xid, Oid(7), LockMode::Exclusive).unwrap();
                {
                    let mut g = counter.lock();
                    *g += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
                lm.release_all(xid);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8);
    }
}
