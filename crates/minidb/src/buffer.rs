//! The shared buffer cache.
//!
//! "POSTGRES maintains an in-memory shared cache of recently used 8 KByte
//! data pages. The size of this cache is tunable when the file system is
//! installed; as shipped, the system uses 64 buffers, but the version in use
//! locally uses 300. Data pages are kicked out of this cache in LRU order,
//! regardless of the device from which they came. Dirty pages are written to
//! backing store before being deleted from the cache."
//!
//! This implementation shards the cache by `hash(rel, blkno)` so concurrent
//! scans contend on different latches, replaces strict LRU with a per-shard
//! clock sweep (second chance), and keeps **all device I/O outside the
//! shard latches**:
//!
//! * a miss inserts a "loading" frame and reads the device with only that
//!   frame's lock held, so concurrent requesters of the same block wait on
//!   the frame, not the shard;
//! * a dirty eviction victim is written back after the shard latch is
//!   dropped, while the frame stays mapped and pinned so concurrent lookups
//!   keep hitting the cached (newest) bytes; it is unmapped only once the
//!   writeback succeeded and nobody re-pinned or re-dirtied it.
//!
//! Pages are pinned by explicit counts carried by the [`PinnedPage`] guard;
//! a frame with `pins > 0` is never evicted. Sequential misses trigger
//! read-ahead of the next few blocks of the relation (see
//! [`BufferPool::set_prefetch_window`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::catalog::Catalog;

use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId};
use crate::lock::order;
use crate::page::PAGE_SIZE;
use crate::smgr::Smgr;
use crate::stats::Counter;

/// The number of buffers POSTGRES shipped with.
pub const DEFAULT_BUFFERS: usize = 64;
/// The number of buffers the Berkeley installation used.
pub const BERKELEY_BUFFERS: usize = 300;
/// Default read-ahead window: blocks prefetched past a sequential run.
pub const DEFAULT_PREFETCH_WINDOW: usize = 8;
/// Sequential accesses (last blkno + 1) required before read-ahead starts.
const RUN_THRESHOLD: u32 = 3;
/// Frames in the shard a database's pool reserves for system-relation
/// pages (see [`BufferPool::with_system_shard`]).
const SYSTEM_SHARD_FRAMES: usize = 16;
/// How long a sweep that found every frame of its shard pinned waits for an
/// unpin before reporting the pool exhausted. Foreground pins are short, so
/// only a pin held forever — a leak, or genuinely more concurrent pins than
/// frames — runs this out.
const PIN_WAIT_LIMIT: Duration = Duration::from_millis(250);

/// Where a sweep that found its whole shard pinned parks until a frame of
/// that shard is unpinned: an eventcount. The sweeper registers, notes the
/// epoch, sweeps once more, and only then sleeps until the epoch moves — so
/// an unpin between its sweep and its sleep is never missed.
#[derive(Default)]
struct PinWait {
    /// Sweeps registered. An unpin that finds zero here does nothing more,
    /// which is all the hit path pays.
    waiters: AtomicU32,
    /// Bumped by every unpin that took a pin count to zero while a sweep
    /// was registered. A leaf mutex: nothing is acquired while it is held.
    epoch: Mutex<u64>,
    cv: Condvar,
}

/// A sweep's registration with its shard's [`PinWait`], withdrawn on drop.
struct PinWaiter<'a> {
    spot: &'a PinWait,
    seen: u64,
    deadline: Instant,
}

impl<'a> PinWaiter<'a> {
    fn register(wait: &'a PinWait) -> PinWaiter<'a> {
        wait.waiters.fetch_add(1, Ordering::SeqCst);
        let seen = *wait.epoch.lock();
        PinWaiter {
            spot: wait,
            seen,
            deadline: Instant::now() + PIN_WAIT_LIMIT,
        }
    }

    /// Sleeps until some frame was unpinned since the last look; `false`
    /// once the deadline has passed without one.
    fn wait(&mut self) -> bool {
        let mut epoch = self.spot.epoch.lock();
        while *epoch == self.seen {
            let Some(left) = self.deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            self.spot.cv.wait_for(&mut epoch, left);
        }
        self.seen = *epoch;
        true
    }
}

impl Drop for PinWaiter<'_> {
    fn drop(&mut self) {
        self.spot.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A cached page and its identity.
pub struct PageBuf {
    data: Box<[u8]>,
    dirty: bool,
    dev: DeviceId,
    rel: RelId,
    blkno: u64,
}

impl PageBuf {
    /// Read access to the page bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Write access to the page bytes; marks the page dirty.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.dirty = true;
        &mut self.data
    }

    /// Whether the page has unflushed modifications.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The relation this page belongs to.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The logical block number within the relation.
    pub fn blkno(&self) -> u64 {
        self.blkno
    }
}

/// Frame load states (`Frame::state`).
const LOADING: u8 = 0;
const READY: u8 = 1;
const FAILED: u8 = 2;

/// One buffer frame: a page slot plus the replacement metadata the clock
/// sweep consults without locking the page itself.
struct Frame {
    /// Explicit pin count. Non-zero means the frame may not be evicted.
    /// Every holder of the page lock (`buf`) holds a pin, so `pins == 0`
    /// observed under the shard latch implies the page lock is free.
    pins: AtomicU32,
    /// Second-chance bit: set on load and on every hit, cleared by the
    /// sweep. A frame is born referenced because its loader is about to use
    /// it: born cold, at the ring's end — where the hand is left whenever
    /// the last victim was the last entry — it was the next miss's victim,
    /// and two pages each touched once per operation evicted each other
    /// forever while the rest of the shard sat cold.
    refbit: AtomicBool,
    /// Set when the frame was loaded by read-ahead and not yet demanded.
    from_prefetch: AtomicBool,
    /// I/O-in-progress state: `LOADING` until the filling read completes.
    /// The loader holds `buf`'s write lock for the whole load, so waiters
    /// block on the frame — never on the shard latch.
    state: AtomicU8,
    /// The frame's shard's parking spot for all-pinned sweeps.
    wait: Arc<PinWait>,
    buf: RwLock<PageBuf>,
}

impl Frame {
    fn new(
        wait: &Arc<PinWait>,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
        state: u8,
        dirty: bool,
    ) -> Frame {
        Frame {
            wait: Arc::clone(wait),
            pins: AtomicU32::new(1), // Born pinned by its creator.
            refbit: AtomicBool::new(true),
            from_prefetch: AtomicBool::new(false),
            state: AtomicU8::new(state),
            buf: RwLock::new(PageBuf {
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                dirty,
                dev,
                rel,
                blkno,
            }),
        }
    }

    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::SeqCst);
    }

    /// Drops one pin. The last pin off a frame makes it evictable, which
    /// is what a sweep parked on the shard is waiting for. (`SeqCst` on
    /// both sides: an unpin that reads no waiter precedes the waiter's
    /// registration, hence its sweep, which then sees the zero count.)
    fn unpin(&self) {
        if self.pins.fetch_sub(1, Ordering::SeqCst) == 1
            && self.wait.waiters.load(Ordering::SeqCst) > 0
        {
            *self.wait.epoch.lock() += 1;
            self.wait.cv.notify_all();
        }
    }
}

/// A pinned reference to a cached page. The page cannot be evicted while
/// any `PinnedPage` for it is alive; dropping the guard releases the pin.
pub struct PinnedPage {
    frame: Arc<Frame>,
}

impl PinnedPage {
    /// Latches the page for reading. Callers declare their own
    /// `lock::order` rank (`HEAP_PAGE` / `BTREE_PAGE`) for this latch.
    pub fn read(&self) -> RwLockReadGuard<'_, PageBuf> {
        self.frame.buf.read()
    }

    /// Latches the page for writing.
    pub fn write(&self) -> RwLockWriteGuard<'_, PageBuf> {
        self.frame.buf.write()
    }

    /// Whether two pins reference the same buffer frame.
    pub fn same_frame(a: &PinnedPage, b: &PinnedPage) -> bool {
        Arc::ptr_eq(&a.frame, &b.frame)
    }
}

impl Clone for PinnedPage {
    fn clone(&self) -> PinnedPage {
        // 1 -> 2, never 0 -> 1: a frame seen unpinned under the shard
        // latch cannot be resurrected by a clone.
        self.frame.pins.fetch_add(1, Ordering::SeqCst);
        PinnedPage {
            frame: Arc::clone(&self.frame),
        }
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.unpin();
    }
}

crate::stat_table! {
    /// Cache effectiveness counters. Each shard keeps its own tally as plain
    /// integers under the shard latch; [`BufferPool::stats`] merges them.
    #[derive(Copy)]
    frozen BufferStats;
    /// Lookups satisfied from the cache.
    hits: Counter,
    /// Lookups that had to read from a device.
    misses: Counter,
    /// Pages evicted to make room.
    evictions: Counter,
    /// Dirty pages written back (at eviction or flush).
    writebacks: Counter,
    /// Blocks loaded by sequential read-ahead.
    prefetches: Counter,
    /// Hits on pages that were resident only because of read-ahead.
    prefetch_hits: Counter,
}

/// One shard: a map from `(rel, blkno)` to frames plus the clock ring.
/// Invariant (audited by [`BufferPool::check_consistency`]): `ring` lists
/// exactly the keys of `map`, each once.
struct ShardInner {
    map: HashMap<(RelId, u64), Arc<Frame>>,
    ring: Vec<(RelId, u64)>,
    hand: usize,
    stats: BufferStats,
}

impl ShardInner {
    fn new() -> ShardInner {
        ShardInner {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            stats: BufferStats::default(),
        }
    }

    fn insert(&mut self, key: (RelId, u64), frame: Arc<Frame>) {
        self.map.insert(key, frame);
        self.ring.push(key);
    }

    fn remove(&mut self, key: (RelId, u64)) {
        self.map.remove(&key);
        if let Some(pos) = self.ring.iter().position(|&k| k == key) {
            self.ring.remove(pos);
            if pos < self.hand {
                self.hand -= 1;
            }
        }
    }
}

/// The shared buffer cache: sharded, clock-swept, pin-counted.
pub struct BufferPool {
    capacity: usize,
    shard_capacity: usize,
    /// The data shards; then, in a database's pool, the system shard.
    shards: Vec<Mutex<ShardInner>>,
    /// Per shard, where all-pinned sweeps wait.
    waits: Vec<Arc<PinWait>>,
    system_shard: bool,
    /// Blocks of read-ahead past a detected run; 0 disables it. Atomic so
    /// the hot (hit) path never touches the run-detector lock.
    prefetch_window: AtomicUsize,
    /// Sequential-run detector: per-relation (last block, run length).
    /// Consulted only on misses and prefetch hits — cache hits need no
    /// read-ahead, so they skip this lock entirely.
    runs: Mutex<HashMap<RelId, (u64, u32)>>,
    /// The write-ahead log, when one governs this pool: every writeback
    /// forces the log up to the page's stamped LSN first (the
    /// LSN-before-write rule). Read-mostly and unranked — the ranked WAL
    /// mutex is taken inside [`crate::wal::Wal::force_up_to`].
    wal: RwLock<Option<Arc<crate::wal::Wal>>>,
}

impl BufferPool {
    /// Creates a pool of `capacity` page frames, sharded adaptively: small
    /// pools (tests) stay single-sharded so capacity bounds stay exact;
    /// production-sized pools get up to 16 shards.
    pub fn new(capacity: usize) -> BufferPool {
        let capacity = capacity.max(4);
        Self::with_shards(capacity, (capacity / 16).clamp(1, 16))
    }

    /// Creates a pool with an explicit shard count (tests and benchmarks).
    pub fn with_shards(capacity: usize, nshards: usize) -> BufferPool {
        let capacity = capacity.max(4);
        let nshards = nshards.clamp(1, 64);
        BufferPool {
            capacity,
            shard_capacity: capacity.div_ceil(nshards),
            shards: (0..nshards).map(|_| Mutex::new(ShardInner::new())).collect(),
            waits: (0..nshards).map(|_| Arc::default()).collect(),
            system_shard: false,
            prefetch_window: AtomicUsize::new(DEFAULT_PREFETCH_WINDOW),
            runs: Mutex::new(HashMap::new()),
            wal: RwLock::new(None),
        }
    }

    /// Adds a shard of `SYSTEM_SHARD_FRAMES` frames, beyond `capacity`,
    /// that caches the system relations' pages and nothing else. Catalog
    /// pages are few and written only at their tails; kept apart, a DDL
    /// never evicts a data page and a scan of user data never evicts the
    /// `pg_class` page the next DDL appends to — the data shards behave
    /// exactly as if the catalog were not paged at all.
    pub fn with_system_shard(mut self) -> BufferPool {
        self.shards.push(Mutex::new(ShardInner::new()));
        self.waits.push(Arc::default());
        self.system_shard = true;
        self
    }

    /// Attaches the write-ahead log: from here on, no dirty page reaches a
    /// device before the log covering its last change is durable. Pools
    /// without a WAL (standalone tests) skip the rule.
    pub fn attach_wal(&self, wal: Arc<crate::wal::Wal>) {
        *self.wal.write() = Some(wal);
    }

    /// The LSN-before-write rule: force the log up to `buf`'s stamped LSN.
    /// Unlogged pages (LSN 0) need no force.
    fn force_wal_for(&self, buf: &[u8]) -> DbResult<()> {
        let lsn = crate::page::lsn(buf);
        if lsn == 0 {
            return Ok(());
        }
        if let Some(wal) = self.wal.read().as_ref() {
            if wal.force_up_to(lsn)? {
                wal.stats().wal.forces_writeback.bump();
            }
        }
        Ok(())
    }

    /// The configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sets the read-ahead window (0 disables read-ahead).
    pub fn set_prefetch_window(&self, window: usize) {
        self.prefetch_window.store(window, Ordering::SeqCst);
    }

    /// Snapshot of the counters, summed across shards.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            let _order = order::token(order::BUFFER_SHARD);
            total.merge(&shard.lock().stats);
        }
        total
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _order = order::token(order::BUFFER_SHARD);
                s.lock().map.len()
            })
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, rel: RelId, blkno: u64) -> usize {
        let data_shards = self.shards.len() - usize::from(self.system_shard);
        if self.system_shard && Catalog::is_system(rel) {
            return data_shards;
        }
        if data_shards == 1 {
            return 0;
        }
        // splitmix64-style finisher over the packed key.
        let mut h = ((rel.0 as u64) << 32) ^ blkno;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (h ^ (h >> 31)) as usize % data_shards
    }

    /// How many frames shard `si` may hold.
    fn frames_in(&self, si: usize) -> usize {
        if self.system_shard && si + 1 == self.shards.len() {
            SYSTEM_SHARD_FRAMES
        } else {
            self.shard_capacity
        }
    }

    /// Fetches block `blkno` of `rel` (which lives on `dev`), reading it
    /// from the device on a miss. May kick off sequential read-ahead.
    pub fn get_page(
        &self,
        smgr: &Smgr,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
    ) -> DbResult<PinnedPage> {
        let (pin, sequential_io) = self.pin_block(smgr, dev, rel, blkno)?;
        if sequential_io {
            self.note_access(smgr, dev, rel, blkno);
        }
        Ok(pin)
    }

    /// The demand-fetch path. Returns the pin plus whether this access
    /// touched a block that was not demand-resident (a miss, or a hit on a
    /// read-ahead page) — the signal the run detector extends prefetch on.
    fn pin_block(
        &self,
        smgr: &Smgr,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
    ) -> DbResult<(PinnedPage, bool)> {
        let si = self.shard_index(rel, blkno);
        let key = (rel, blkno);
        loop {
            if let Some(hit) = self.pin_cached(rel, blkno) {
                return Ok(hit);
            }
            // Miss: make room, then load with the latch released.
            let (tok, mut shard) = self.lock_with_room(si, smgr)?;
            if shard.map.contains_key(&key) {
                // Raced with another loader while evicting; retry lookup.
                continue;
            }
            shard.stats.misses += 1;
            let frame = self.load_frame(tok, shard, smgr, dev, rel, blkno)?;
            return Ok((PinnedPage { frame }, true));
        }
    }

    /// The hit path, which never reads a device: pin under the shard latch,
    /// then wait (if at all) on the frame with the latch released. Also
    /// returns whether the frame came from read-ahead. `None` on a miss, or
    /// when the frame's load failed and its loader unmapped it.
    pub(crate) fn pin_cached(&self, rel: RelId, blkno: u64) -> Option<(PinnedPage, bool)> {
        let si = self.shard_index(rel, blkno);
        let (frame, was_prefetch) = {
            let _order = order::token(order::BUFFER_SHARD);
            let mut shard = self.shards[si].lock();
            let frame = Arc::clone(shard.map.get(&(rel, blkno))?);
            frame.pins.fetch_add(1, Ordering::SeqCst);
            frame.refbit.store(true, Ordering::SeqCst);
            let was_prefetch = frame.from_prefetch.swap(false, Ordering::SeqCst);
            shard.stats.hits += 1;
            if was_prefetch {
                shard.stats.prefetch_hits += 1;
            }
            (frame, was_prefetch)
        };
        loop {
            match frame.state() {
                READY => return Some((PinnedPage { frame }, was_prefetch)),
                LOADING => {
                    // Block on the frame until the loader drops its write
                    // lock, then re-check.
                    let _fl = order::token(order::BUFFER_FRAME);
                    drop(frame.buf.read());
                }
                _ => break, // FAILED
            }
        }
        // Undo the hit we recorded.
        {
            let _order = order::token(order::BUFFER_SHARD);
            self.shards[si].lock().stats.hits -= 1;
        }
        frame.unpin();
        None
    }

    /// Inserts a `LOADING` frame for the block into the locked shard, then
    /// releases the latch and fills it from the device. The device read
    /// happens with only the frame's lock held; waiters block there.
    fn load_frame(
        &self,
        tok: order::LevelToken,
        mut shard: MutexGuard<'_, ShardInner>,
        smgr: &Smgr,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
    ) -> DbResult<Arc<Frame>> {
        let si = self.shard_index(rel, blkno);
        let key = (rel, blkno);
        let frame = Arc::new(Frame::new(&self.waits[si], dev, rel, blkno, LOADING, false));
        let ftok = order::token(order::BUFFER_FRAME);
        // Uncontended: the frame is not published yet.
        let mut fbuf = frame.buf.write();
        shard.insert(key, Arc::clone(&frame));
        drop(shard);
        drop(tok);
        match smgr.read_page(dev, rel, blkno, &mut fbuf.data) {
            Ok(replayed) => {
                // A replayed page is newer than the device's copy: eviction
                // must write it back, or the next miss replays it again.
                fbuf.dirty = replayed;
                frame.set_state(READY);
                drop(fbuf);
                drop(ftok);
                Ok(frame)
            }
            Err(e) => {
                frame.set_state(FAILED);
                drop(fbuf);
                drop(ftok);
                // Unmap the failed frame so retries reload it. Waiters
                // that already pinned it will observe FAILED and retry.
                let _order = order::token(order::BUFFER_SHARD);
                let mut shard = self.shards[si].lock();
                if shard.map.get(&key).is_some_and(|f| Arc::ptr_eq(f, &frame)) {
                    shard.remove(key);
                }
                frame.unpin();
                Err(e)
            }
        }
    }

    /// Locks shard `si` with room for one more frame, running the clock
    /// sweep as needed. Dirty victims are written back with the latch
    /// *released* and stay mapped (and pinned) throughout, so concurrent
    /// lookups hit the cached bytes instead of re-reading stale ones.
    fn lock_with_room(
        &self,
        si: usize,
        smgr: &Smgr,
    ) -> DbResult<(order::LevelToken, MutexGuard<'_, ShardInner>)> {
        // A sweep that finds every frame pinned parks until one is unpinned:
        // foreground pins are short, so an all-pinned shard is usually
        // transient. (A checkpoint is not a cause: its flush holds one pin
        // at a time.)
        let capacity = self.frames_in(si);
        let mut parked: Option<PinWaiter<'_>> = None;
        // Victims whose write-back failed in this call, and the first
        // failure: the sweep passes over them, and the error is returned
        // only when nothing else can be evicted. Each stays cached and
        // dirty, so the next checkpoint meets the failure again.
        let mut failed: Vec<(RelId, u64)> = Vec::new();
        let mut first_err: Option<DbError> = None;
        'retry: loop {
            let tok = order::token(order::BUFFER_SHARD);
            let mut shard = self.shards[si].lock();
            if shard.map.len() < capacity {
                return Ok((tok, shard));
            }
            // Two full passes: the first clears reference bits, the second
            // takes the first frame that stayed cold. Only pins block
            // eviction beyond that.
            let mut steps = 0;
            let max_steps = 2 * shard.ring.len() + 1;
            loop {
                if steps > max_steps {
                    if let Some(e) = first_err {
                        return Err(e);
                    }
                    drop(shard);
                    drop(tok);
                    // Register first and sweep once more; sleep only if
                    // that sweep, too, finds everything pinned.
                    match &mut parked {
                        None => parked = Some(PinWaiter::register(&self.waits[si])),
                        Some(waiter) => {
                            if !waiter.wait() {
                                return Err(DbError::Invalid(
                                    "buffer pool exhausted: every page is pinned".into(),
                                ));
                            }
                        }
                    }
                    continue 'retry;
                }
                steps += 1;
                if shard.ring.is_empty() {
                    return Ok((tok, shard));
                }
                let pos = shard.hand % shard.ring.len();
                let key = shard.ring[pos];
                let Some(frame) = shard.map.get(&key).map(Arc::clone) else {
                    // Ring/map drift (should not happen; the consistency
                    // check reports it). Self-heal by dropping the entry.
                    shard.ring.remove(pos);
                    continue;
                };
                if frame.pins.load(Ordering::SeqCst) > 0
                    || frame.refbit.swap(false, Ordering::SeqCst)
                    || failed.contains(&key)
                {
                    shard.hand = pos + 1;
                    continue;
                }
                // Victim. `pins == 0` under the latch means nobody holds
                // its page lock, so try_write cannot fail; skip it like a
                // pinned frame if it somehow does.
                let ftok = order::token(order::BUFFER_FRAME);
                let Some(mut vbuf) = frame.buf.try_write() else {
                    drop(ftok);
                    shard.hand = pos + 1;
                    continue;
                };
                if !vbuf.dirty {
                    drop(vbuf);
                    drop(ftok);
                    shard.remove(key);
                    shard.stats.evictions += 1;
                    if shard.map.len() < capacity {
                        return Ok((tok, shard));
                    }
                    continue;
                }
                // Dirty: pin (so no concurrent sweep picks it), release
                // the latch, write back under the frame lock only.
                frame.pins.fetch_add(1, Ordering::SeqCst);
                drop(shard);
                drop(tok);
                let io = {
                    let (d, r, b) = (vbuf.dev, vbuf.rel, vbuf.blkno);
                    // WAL-before-data: the log is forced up to the page's
                    // LSN *before* the page is written, here, on this thread.
                    let res = self
                        .force_wal_for(&vbuf.data)
                        .and_then(|()| smgr.write_page_back(d, r, b, &vbuf.data));
                    if res.is_ok() {
                        vbuf.dirty = false;
                    }
                    res
                };
                drop(vbuf);
                drop(ftok);
                let _order = order::token(order::BUFFER_SHARD);
                let mut shard = self.shards[si].lock();
                frame.unpin();
                shard.stats.writebacks += 1;
                if let Err(e) = io {
                    // Sweep on past it.
                    if let Some(at) = shard.ring.iter().position(|k| *k == key) {
                        shard.hand = at + 1;
                    }
                    failed.push(key);
                    first_err.get_or_insert(e);
                    continue 'retry;
                }
                // Unmap only if still ours, unpinned, and still clean —
                // a re-pin or re-dirty in the writeback window wins.
                if frame.pins.load(Ordering::SeqCst) == 0
                    && shard.map.get(&key).is_some_and(|f| Arc::ptr_eq(f, &frame))
                {
                    let clean = {
                        let _fl = order::token(order::BUFFER_FRAME);
                        frame.buf.try_read().map(|b| !b.dirty).unwrap_or(false)
                    };
                    if clean {
                        shard.remove(key);
                        shard.stats.evictions += 1;
                    }
                }
                drop(shard);
                continue 'retry;
            }
        }
    }

    /// Appends a fresh block to `rel`, returning its number and a pinned,
    /// dirty, zero-filled page for it. The extend happens *before* any
    /// latch is taken (the block number decides the shard).
    pub fn new_page(&self, smgr: &Smgr, dev: DeviceId, rel: RelId) -> DbResult<(u64, PinnedPage)> {
        let blkno = smgr.extend_page(dev, rel)?;
        let si = self.shard_index(rel, blkno);
        let frame = Arc::new(Frame::new(&self.waits[si], dev, rel, blkno, READY, true));
        let (_tok, mut shard) = self.lock_with_room(si, smgr)?;
        shard.insert((rel, blkno), Arc::clone(&frame));
        Ok((blkno, PinnedPage { frame }))
    }

    /// Records a non-resident access (miss or prefetch hit) for the
    /// sequential-run detector and prefetches ahead of an established run.
    /// Called only on the cold path — which does device I/O anyway — so the
    /// run-detector lock never slows a cache hit. Runs with no pool locks
    /// held.
    fn note_access(&self, smgr: &Smgr, dev: DeviceId, rel: RelId, blkno: u64) {
        let window = self.prefetch_window.load(Ordering::SeqCst);
        if window == 0 {
            return;
        }
        let fetch = {
            let _order = order::token(order::BUFFER_SHARD);
            let mut runs = self.runs.lock();
            let run = match runs.get(&rel) {
                Some(&(last, run)) if blkno == last + 1 => run.saturating_add(1),
                Some(&(last, run)) if blkno == last => run,
                _ => 1,
            };
            runs.insert(rel, (blkno, run));
            run >= RUN_THRESHOLD
        };
        if fetch {
            self.prefetch(smgr, dev, rel, blkno + 1, window);
        }
    }

    /// Loads up to `count` blocks of `rel` starting at `start` that are not
    /// already resident, without counting them as demand misses. A hint:
    /// errors (including pool exhaustion) end the prefetch silently, and
    /// read-ahead never claims more than half the pool in one call.
    pub fn prefetch(&self, smgr: &Smgr, dev: DeviceId, rel: RelId, start: u64, count: usize) {
        let count = count.min((self.capacity / 2).max(1));
        if count == 0 {
            return;
        }
        let Ok(nblocks) = smgr.with(dev, |m| m.nblocks(rel)) else {
            return;
        };
        for blkno in start..nblocks.min(start.saturating_add(count as u64)) {
            if self.prefetch_block(smgr, dev, rel, blkno).is_err() {
                break;
            }
        }
    }

    fn prefetch_block(&self, smgr: &Smgr, dev: DeviceId, rel: RelId, blkno: u64) -> DbResult<()> {
        let si = self.shard_index(rel, blkno);
        let key = (rel, blkno);
        {
            let _order = order::token(order::BUFFER_SHARD);
            if self.shards[si].lock().map.contains_key(&key) {
                return Ok(());
            }
        }
        let (tok, shard) = self.lock_with_room(si, smgr)?;
        if shard.map.contains_key(&key) {
            return Ok(());
        }
        let frame = self.load_frame(tok, shard, smgr, dev, rel, blkno)?;
        frame.from_prefetch.store(true, Ordering::SeqCst);
        {
            let _order = order::token(order::BUFFER_SHARD);
            self.shards[si].lock().stats.prefetches += 1;
        }
        frame.unpin(); // Read-ahead holds no pin once loaded.
        Ok(())
    }

    /// Writes back every dirty cached page (optionally only `rel`'s)
    /// without evicting, in (relation, block) order, so each relation's
    /// blocks reach its device ascending and a drain streams rather than
    /// seeks. Returns the number of pages written.
    ///
    /// The sweep snapshots *keys* and then holds **one pin at a time**.
    /// Pins are not in the lock hierarchy, and a B-tree split holds its
    /// node's latch while it asks [`BufferPool::new_page`] for a frame: a
    /// flush that parked on that latch with every other frame pinned would
    /// leave the split no victim, and neither could move. A key that is no
    /// longer mapped when its turn comes was written back by its eviction.
    fn flush_matching(&self, smgr: &Smgr, rel: Option<RelId>) -> DbResult<usize> {
        let mut keys: Vec<(RelId, u64)> = Vec::new();
        for shard in &self.shards {
            let _order = order::token(order::BUFFER_SHARD);
            let shard = shard.lock();
            keys.extend(shard.map.keys().filter(|(r, _)| rel.is_none_or(|want| want == *r)));
        }
        keys.sort_unstable();
        let mut result = Ok(());
        let mut written = vec![0u64; self.shards.len()];
        for key in keys {
            let si = self.shard_index(key.0, key.1);
            let frame = {
                let _order = order::token(order::BUFFER_SHARD);
                let shard = self.shards[si].lock();
                let Some(frame) = shard.map.get(&key) else {
                    continue;
                };
                frame.pins.fetch_add(1, Ordering::SeqCst);
                Arc::clone(frame)
            };
            {
                let _fl = order::token(order::BUFFER_FRAME);
                let mut buf = frame.buf.write();
                if buf.dirty {
                    result = self
                        .force_wal_for(&buf.data)
                        .and_then(|()| smgr.write_page_back(buf.dev, key.0, key.1, &buf.data));
                    if result.is_ok() {
                        buf.dirty = false;
                        written[si] += 1;
                    }
                }
            }
            frame.unpin();
            if result.is_err() {
                break;
            }
        }
        let total = written.iter().sum::<u64>() as usize;
        for (si, w) in written.into_iter().enumerate() {
            if w > 0 {
                let _order = order::token(order::BUFFER_SHARD);
                self.shards[si].lock().stats.writebacks += w;
            }
        }
        result.map(|()| total)
    }

    /// Writes every dirty page back through `smgr` (a checkpoint's drain;
    /// the count is its drain count).
    pub fn flush_all(&self, smgr: &Smgr) -> DbResult<usize> {
        self.flush_matching(smgr, None)
    }

    /// Writes back every dirty cached page belonging to `rel`, forcing the
    /// log first for each page whose last change is not yet durable — so
    /// not for an insert path: `xtask lint` (`wal-force-site`) confines it
    /// to `db.rs`'s POSTGRES 4.0.1 write-through emulation. Returns the
    /// number of pages written.
    pub fn flush_rel(&self, smgr: &Smgr, rel: RelId) -> DbResult<usize> {
        self.flush_matching(smgr, Some(rel))
    }

    /// Flushes dirty pages and then empties the cache entirely — the
    /// "all caches were flushed before each test" step of the benchmark.
    pub fn flush_and_clear(&self, smgr: &Smgr) -> DbResult<()> {
        self.flush_all(smgr)?;
        for shard in &self.shards {
            let _order = order::token(order::BUFFER_SHARD);
            let shard = shard.lock();
            if shard
                .map
                .values()
                .any(|f| f.pins.load(Ordering::SeqCst) > 0)
            {
                return Err(DbError::Invalid("cannot clear cache: pages pinned".into()));
            }
        }
        for shard in &self.shards {
            let _order = order::token(order::BUFFER_SHARD);
            let mut shard = shard.lock();
            shard.map.clear();
            shard.ring.clear();
            shard.hand = 0;
        }
        let _order = order::token(order::BUFFER_SHARD);
        self.runs.lock().clear();
        Ok(())
    }

    /// Discards every cached page for `rel` *without* writing them back
    /// (used when dropping a relation). Map and clock ring shed the
    /// relation's keys together, so neither drifts.
    pub fn discard_rel(&self, rel: RelId) {
        for shard in &self.shards {
            let _order = order::token(order::BUFFER_SHARD);
            let mut shard = shard.lock();
            shard.map.retain(|&(r, _), _| r != rel);
            shard.ring.retain(|&(r, _)| r != rel);
            shard.hand = 0;
        }
        let _order = order::token(order::BUFFER_SHARD);
        self.runs.lock().remove(&rel);
    }

    /// Structural self-audit: the map and clock ring of every shard must
    /// list exactly the same keys (each once), every frame must agree with
    /// its key, and every key must hash to the shard holding it. Returns
    /// human-readable violations (empty = consistent).
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let _order = order::token(order::BUFFER_SHARD);
            let shard = shard.lock();
            if shard.ring.len() != shard.map.len() {
                problems.push(format!(
                    "shard {si}: clock ring has {} entries but map has {}",
                    shard.ring.len(),
                    shard.map.len()
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for &key in &shard.ring {
                if !seen.insert(key) {
                    problems.push(format!("shard {si}: {key:?} appears twice in the ring"));
                }
                if !shard.map.contains_key(&key) {
                    problems.push(format!("shard {si}: ring entry {key:?} not in the map"));
                }
            }
            for (&(rel, blkno), frame) in &shard.map {
                if self.shard_index(rel, blkno) != si {
                    problems.push(format!(
                        "shard {si}: key ({rel}, {blkno}) hashes to shard {}",
                        self.shard_index(rel, blkno)
                    ));
                }
                if let Some(buf) = frame.buf.try_read() {
                    if (buf.rel, buf.blkno) != (rel, blkno) {
                        problems.push(format!(
                            "shard {si}: frame keyed ({rel}, {blkno}) says ({}, {})",
                            buf.rel, buf.blkno
                        ));
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;
    use crate::smgr::{shared_device, DeviceManager, GenericManager};
    use simdev::{DiskProfile, MagneticDisk, SimClock};

    fn setup(capacity: usize) -> (Smgr, BufferPool, RelId) {
        setup_sharded(capacity, 1)
    }

    fn setup_sharded(capacity: usize, nshards: usize) -> (Smgr, BufferPool, RelId) {
        let clock = SimClock::new();
        let dev = shared_device(MagneticDisk::new(
            "d",
            clock,
            DiskProfile::tiny_for_tests(4096),
        ));
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId::DEFAULT,
            Box::new(GenericManager::format(dev).unwrap()),
        )
        .unwrap();
        let rel = Oid(10);
        smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel)).unwrap();
        (smgr, BufferPool::with_shards(capacity, nshards), rel)
    }

    /// A disk manager that records the (relation, block) of every write.
    struct Recording {
        inner: GenericManager,
        writes: Arc<Mutex<Vec<(RelId, u64)>>>,
    }

    impl DeviceManager for Recording {
        fn device_name(&self) -> String {
            self.inner.device_name()
        }
        fn create_rel(&mut self, rel: RelId) -> DbResult<()> {
            self.inner.create_rel(rel)
        }
        fn drop_rel(&mut self, rel: RelId) -> DbResult<()> {
            self.inner.drop_rel(rel)
        }
        fn has_rel(&self, rel: RelId) -> bool {
            self.inner.has_rel(rel)
        }
        fn nblocks(&self, rel: RelId) -> DbResult<u64> {
            self.inner.nblocks(rel)
        }
        fn extend_blank(&mut self, rel: RelId) -> DbResult<u64> {
            self.inner.extend_blank(rel)
        }
        fn read(&mut self, rel: RelId, blkno: u64, buf: &mut [u8]) -> DbResult<()> {
            self.inner.read(rel, blkno, buf)
        }
        fn write(&mut self, rel: RelId, blkno: u64, buf: &[u8]) -> DbResult<()> {
            self.writes.lock().push((rel, blkno));
            self.inner.write(rel, blkno, buf)
        }
        fn sync(&mut self) -> DbResult<()> {
            self.inner.sync()
        }
        fn relations(&self) -> Vec<RelId> {
            self.inner.relations()
        }
    }

    #[test]
    fn a_checkpoint_drains_in_relation_block_order() {
        let dev = shared_device(MagneticDisk::new("d", SimClock::new(), DiskProfile::tiny_for_tests(4096)));
        let writes = Arc::new(Mutex::new(Vec::new()));
        let recording = Recording { inner: GenericManager::format(dev).unwrap(), writes: Arc::clone(&writes) };
        let mut smgr = Smgr::new();
        smgr.register(DeviceId::DEFAULT, Box::new(recording)).unwrap();
        let (a, b) = (Oid(10), Oid(11));
        for rel in [b, a] {
            smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel)).unwrap();
        }
        // Four shards, pages of the two relations born interleaved, then
        // redirtied newest first: no order the pool keeps is the drain's.
        let pool = BufferPool::with_shards(64, 4);
        for _ in 0..8 {
            for rel in [b, a] {
                pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
            }
        }
        pool.flush_all(&smgr).unwrap();
        writes.lock().clear();
        for blkno in (0..8).rev() {
            for rel in [b, a] {
                pool.get_page(&smgr, DeviceId::DEFAULT, rel, blkno).unwrap().write().data_mut()[0] = 1;
            }
        }
        assert_eq!(pool.flush_all(&smgr).unwrap(), 16);
        let want: Vec<(RelId, u64)> = [a, b].iter().flat_map(|&rel| (0..8).map(move |blk| (rel, blk))).collect();
        assert_eq!(*writes.lock(), want, "each relation's blocks, ascending");
    }

    #[test]
    fn new_page_then_get_hits_cache() {
        let (smgr, pool, rel) = setup(8);
        let (blkno, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        page.write().data_mut()[0] = 0xAB;
        drop(page);
        let page = pool.get_page(&smgr, DeviceId::DEFAULT, rel, blkno).unwrap();
        assert_eq!(page.read().data()[0], 0xAB);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (smgr, pool, rel) = setup(4);
        // Create more pages than capacity.
        for i in 0..10u8 {
            let (_, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
            page.write().data_mut()[0] = i;
        }
        assert!(pool.len() <= 4);
        assert!(pool.stats().evictions >= 6);
        // All pages readable with correct content after eviction.
        for i in 0..10u8 {
            let page = pool
                .get_page(&smgr, DeviceId::DEFAULT, rel, i as u64)
                .unwrap();
            assert_eq!(page.read().data()[0], i, "block {i}");
        }
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let (smgr, pool, rel) = setup(4);
        let (blkno, pinned) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        pinned.write().data_mut()[0] = 0x77;
        for _ in 0..10 {
            pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        }
        // The pinned page must still be the same frame in cache.
        let again = pool.get_page(&smgr, DeviceId::DEFAULT, rel, blkno).unwrap();
        assert!(PinnedPage::same_frame(&pinned, &again));
        assert_eq!(again.read().data()[0], 0x77);
    }

    #[test]
    fn pool_of_all_pinned_pages_errors() {
        let (smgr, pool, rel) = setup(4);
        let mut pins = Vec::new();
        for _ in 0..4 {
            pins.push(pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap());
        }
        assert!(pool.new_page(&smgr, DeviceId::DEFAULT, rel).is_err());
        pins.clear();
        assert!(pool.new_page(&smgr, DeviceId::DEFAULT, rel).is_ok());
    }

    /// A victim whose write-back fails does not wedge its shard: the sweep
    /// passes it by and evicts another frame, and the page stays cached and
    /// dirty, so a flush still reports the failure.
    #[test]
    fn a_failed_write_back_leaves_the_rest_of_its_shard_usable() {
        let clock = SimClock::new();
        let disk = |name| MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(4096));
        let (d0, d1) = (disk("d0"), disk("d1"));
        let faults = d1.fault_plan();
        let mut smgr = Smgr::new();
        for (id, d) in [(DeviceId(0), d0), (DeviceId(1), d1)] {
            let mgr = GenericManager::format(shared_device(d)).unwrap();
            smgr.register(id, Box::new(mgr)).unwrap();
        }
        // Two shards of two frames. Every page below is block 0 of a
        // relation of its own, picked to land in shard 0.
        let pool = BufferPool::with_shards(4, 2);
        let mut rels = (100..).map(Oid).filter(|&r| pool.shard_index(r, 0) == 0);
        let mut new_page = |dev: DeviceId| {
            let rel = rels.next().unwrap();
            smgr.with(dev, |m| m.create_rel(rel)).unwrap();
            pool.new_page(&smgr, dev, rel).map(drop)
        };
        new_page(DeviceId(1)).unwrap();
        new_page(DeviceId(0)).unwrap();
        faults.set_offline(true);
        for i in 1..=5 {
            if let Err(e) = new_page(DeviceId(0)) {
                panic!("new_page {i} on the healthy device: {e}");
            }
        }
        let err = pool.flush_all(&smgr).unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
    }

    #[test]
    fn flush_and_clear_empties_cache_and_persists() {
        let (smgr, pool, rel) = setup(8);
        let (blkno, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        page.write().data_mut()[100] = 42;
        drop(page);
        pool.flush_and_clear(&smgr).unwrap();
        assert!(pool.is_empty());
        // Re-read goes to the device and sees the flushed bytes.
        let page = pool.get_page(&smgr, DeviceId::DEFAULT, rel, blkno).unwrap();
        assert_eq!(page.read().data()[100], 42);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn flush_all_clears_dirty_bits() {
        let (smgr, pool, rel) = setup(8);
        let (_, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        assert!(page.read().is_dirty());
        pool.flush_all(&smgr).unwrap();
        assert!(!page.read().is_dirty());
        let before = pool.stats().writebacks;
        pool.flush_all(&smgr).unwrap(); // Nothing dirty: no extra writebacks.
        assert_eq!(pool.stats().writebacks, before);
    }

    #[test]
    fn discard_rel_drops_pages_without_writeback() {
        let (smgr, pool, rel) = setup(8);
        pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        let wb_before = pool.stats().writebacks;
        pool.discard_rel(rel);
        assert!(pool.is_empty());
        assert_eq!(pool.stats().writebacks, wb_before);
    }

    #[test]
    fn clock_sweep_evicts_cold_page_not_recent_nor_the_newcomer() {
        let (smgr, pool, rel) = setup(4);
        let mut blknos = Vec::new();
        for _ in 0..4 {
            let (b, _) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
            blknos.push(b);
        }
        // All four were born referenced: the sweep clears every bit, takes
        // the oldest (block 0), and is left pointing at the newcomer.
        let (newcomer, _) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        // Touch block 1 so block 2 is the first cold frame the hand reaches.
        pool.get_page(&smgr, DeviceId::DEFAULT, rel, blknos[1])
            .unwrap();
        pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap(); // Evicts one.
        let misses_before = pool.stats().misses;
        for (blk, why) in [
            (blknos[1], "block 1 was touched"),
            (newcomer, "a page is born referenced, even under the hand"),
        ] {
            pool.get_page(&smgr, DeviceId::DEFAULT, rel, blk).unwrap();
            assert_eq!(pool.stats().misses, misses_before, "{why}: still cached");
        }
        pool.get_page(&smgr, DeviceId::DEFAULT, rel, blknos[2])
            .unwrap();
        assert_eq!(
            pool.stats().misses,
            misses_before + 1,
            "block 2 was the victim"
        );
    }

    #[test]
    fn discard_rel_keeps_map_and_ring_consistent() {
        let (smgr, pool, rel) = setup(8);
        let other = Oid(11);
        smgr.with(DeviceId::DEFAULT, |m| m.create_rel(other))
            .unwrap();
        for _ in 0..3 {
            pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
            pool.new_page(&smgr, DeviceId::DEFAULT, other).unwrap();
        }
        pool.discard_rel(rel);
        assert_eq!(pool.check_consistency(), Vec::<String>::new());
        assert_eq!(pool.len(), 3);
        // The survivor relation keeps working under pressure: the ring
        // holds no stale keys for the discarded one.
        for _ in 0..10 {
            pool.new_page(&smgr, DeviceId::DEFAULT, other).unwrap();
        }
        assert_eq!(pool.check_consistency(), Vec::<String>::new());
    }

    #[test]
    fn sequential_misses_trigger_prefetch() {
        let (smgr, pool, rel) = setup(16);
        for _ in 0..12 {
            pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        }
        pool.flush_and_clear(&smgr).unwrap();
        // A cold sequential scan: after RUN_THRESHOLD misses the pool
        // reads ahead, so later blocks hit.
        for b in 0..12u64 {
            pool.get_page(&smgr, DeviceId::DEFAULT, rel, b).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 12, "every access counted once: {s:?}");
        assert!(s.prefetches > 0, "{s:?}");
        assert!(s.prefetch_hits > 0, "{s:?}");
        assert!(s.misses < 12, "read-ahead must absorb some misses: {s:?}");
    }

    #[test]
    fn prefetch_window_zero_disables_readahead() {
        let (smgr, pool, rel) = setup(16);
        pool.set_prefetch_window(0);
        for _ in 0..12 {
            pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        }
        pool.flush_and_clear(&smgr).unwrap();
        for b in 0..12u64 {
            pool.get_page(&smgr, DeviceId::DEFAULT, rel, b).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.prefetches, 0);
        assert_eq!(s.prefetch_hits, 0);
        assert_eq!(s.misses, 12);
    }

    #[test]
    fn sharded_pool_spreads_and_stays_consistent() {
        let (smgr, pool, rel) = setup_sharded(64, 4);
        assert_eq!(pool.shard_count(), 4);
        for _ in 0..40 {
            pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        }
        assert_eq!(pool.check_consistency(), Vec::<String>::new());
        let populated = (0..pool.shard_count())
            .filter(|&si| {
                let _order = order::token(order::BUFFER_SHARD);
                !pool.shards[si].lock().map.is_empty()
            })
            .count();
        assert!(populated >= 2, "keys must spread across shards");
        pool.flush_and_clear(&smgr).unwrap();
        assert!(pool.is_empty());
    }

    #[test]
    fn concurrent_requests_for_one_cold_block_read_device_once() {
        let (smgr, pool, rel) = setup_sharded(16, 4);
        let (blkno, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        page.write().data_mut()[7] = 0x5A;
        drop(page);
        pool.flush_and_clear(&smgr).unwrap();
        pool.set_prefetch_window(0);
        let smgr = std::sync::Arc::new(smgr);
        let pool = std::sync::Arc::new(pool);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (smgr, pool) = (std::sync::Arc::clone(&smgr), std::sync::Arc::clone(&pool));
            handles.push(std::thread::spawn(move || {
                let pin = pool.get_page(&smgr, DeviceId::DEFAULT, rel, blkno).unwrap();
                assert_eq!(pin.read().data()[7], 0x5A);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 1, "one loader, everyone else waits: {s:?}");
        assert_eq!(s.hits, 7, "{s:?}");
    }
}
