//! The shared buffer cache.
//!
//! "POSTGRES maintains an in-memory shared cache of recently used 8 KByte
//! data pages. The size of this cache is tunable when the file system is
//! installed; as shipped, the system uses 64 buffers, but the version in use
//! locally uses 300. Data pages are kicked out of this cache in LRU order,
//! regardless of the device from which they came. Dirty pages are written to
//! backing store before being deleted from the cache."
//!
//! This implementation is that one list, with a clock sweep (second
//! chance) standing in for strict LRU: a fixed set of at most `capacity`
//! frames, one map from `(rel, blkno)` to a frame's slot and one clock ring
//! of slots, behind one latch. Frames are made as the pool fills and never
//! after: a miss refills its victim's frame and page buffer in place, so a
//! cold read allocates nothing. A page is read only when it is asked for,
//! and **all device I/O happens outside the latch**:
//!
//! * a miss maps a slot as "loading" and reads the device with only that
//!   frame's lock held, so concurrent requesters of the same block wait on
//!   the frame, not the pool;
//! * a dirty eviction victim is written back after the latch is dropped,
//!   while the frame stays mapped and pinned so concurrent lookups keep
//!   hitting the cached (newest) bytes; it is unmapped only once the
//!   writeback succeeded and nobody re-pinned or re-dirtied it.
//!
//! Pages are pinned by explicit counts carried by the [`PinnedPage`] guard;
//! a frame with `pins > 0` is never evicted, and never refilled. A slot
//! changes identity only under the latch, unmapped and unpinned, with its
//! frame's write lock held until the new page is in: a pin is taken only
//! under the latch through the map, so no guard can see the change.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId};
use crate::lock::order;
use crate::page::PAGE_SIZE;
use crate::smgr::Smgr;
use crate::stats::Counter;

/// The number of buffers POSTGRES shipped with.
pub const DEFAULT_BUFFERS: usize = 64;
/// The number of buffers the Berkeley installation used.
pub const BERKELEY_BUFFERS: usize = 300;
/// How long a sweep that found every frame pinned waits for an
/// unpin before reporting the pool exhausted. Foreground pins are short, so
/// only a pin held forever — a leak, or genuinely more concurrent pins than
/// frames — runs this out.
const PIN_WAIT_LIMIT: Duration = Duration::from_millis(250);

/// Where a sweep that found every frame pinned parks until one is
/// unpinned: an eventcount. The sweeper registers, notes the
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

/// A sweep's registration with the pool's [`PinWait`], withdrawn on drop.
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
    /// observed under the pool latch implies the page lock is free.
    pins: AtomicU32,
    /// Second-chance bit: set on load and on every hit, cleared by the
    /// sweep. A frame is born referenced because its loader is about to use
    /// it: born cold, at the ring's end — where the hand is left whenever
    /// the last victim was the last entry — it was the next miss's victim,
    /// and two pages each touched once per operation evicted each other
    /// forever while the rest of the ring sat cold.
    refbit: AtomicBool,
    /// I/O-in-progress state: `LOADING` until the filling read completes.
    /// The loader holds `buf`'s write lock for the whole load, so waiters
    /// block on the frame — never on the pool latch.
    state: AtomicU8,
    /// The pool's parking spot for all-pinned sweeps.
    wait: Arc<PinWait>,
    buf: RwLock<PageBuf>,
}

impl Frame {
    /// A frame no page is in yet: its slot's first load names one.
    fn blank(wait: &Arc<PinWait>) -> Frame {
        Frame {
            wait: Arc::clone(wait),
            pins: AtomicU32::new(0),
            refbit: AtomicBool::new(false),
            state: AtomicU8::new(FAILED),
            buf: RwLock::new(PageBuf {
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                dirty: false,
                dev: DeviceId::DEFAULT,
                rel: Oid(0),
                blkno: 0,
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
    /// is what a parked sweep is waiting for. (`SeqCst` on
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
        // 1 -> 2, never 0 -> 1: a frame seen unpinned under the pool
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
    /// Cache effectiveness counters, kept as plain integers under the pool
    /// latch.
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
    /// Blocks loaded ahead of demand. The pool reads a page only when it
    /// is asked for, so this reads 0; it stays for the readers that name it.
    prefetches: Counter,
    /// Hits on pages loaded ahead of demand: 0, like `prefetches`.
    prefetch_hits: Counter,
}

/// The map's hasher: one multiply-xor step per word. Its keys are
/// `(rel, blkno)` pairs of the database's own ids, never input from
/// outside the program, so it needs none of SipHash's resistance to
/// crafted collisions, and costs a few cycles where SipHash costs tens of
/// nanoseconds.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cached page's key.
type Key = (RelId, u64);

/// The pool's latched state: the frames, a map from keys to their slots
/// and the clock ring of slots. Invariant (audited by
/// [`BufferPool::check_consistency`]): every slot is either mapped by one
/// key or on `free`, never both, and `ring` lists exactly the mapped slots,
/// each once.
#[derive(Default)]
struct PoolInner {
    /// Every frame the pool has made, by slot: made as the pool fills, at
    /// most `capacity`, then refilled in place.
    frames: Vec<Arc<Frame>>,
    map: HashMap<Key, usize, BuildHasherDefault<KeyHasher>>,
    ring: Vec<usize>,
    hand: usize,
    /// Slots no key maps to: left by a failed load, a discard or a clear.
    free: Vec<usize>,
    stats: BufferStats,
}

impl PoolInner {
    /// The position in `free` of a slot nobody pins. A pin on a free slot
    /// is a waiter of a failed load on its way out: the slot is refilled
    /// only after it has gone.
    fn unpinned_free(&self) -> Option<usize> {
        self.free
            .iter()
            .position(|&slot| self.frames[slot].pins.load(Ordering::SeqCst) == 0)
    }

    /// Whether a slot can take a page without an eviction.
    fn has_room(&self, capacity: usize) -> bool {
        self.frames.len() < capacity || self.unpinned_free().is_some()
    }

    /// An unpinned slot no key maps to: a free one, else a new frame. The
    /// caller has checked [`PoolInner::has_room`].
    fn take_slot(&mut self, wait: &Arc<PinWait>) -> usize {
        match self.unpinned_free() {
            Some(at) => self.free.swap_remove(at),
            None => {
                self.frames.push(Arc::new(Frame::blank(wait)));
                self.frames.len() - 1
            }
        }
    }

    /// Unmaps `key`, whose slot is at ring position `pos`, and frees the
    /// slot. The hand stays on the entry it was on, or on the one after it
    /// when that entry is the one unlinked.
    fn unlink_at(&mut self, pos: usize, key: Key) {
        let slot = self.ring.remove(pos);
        self.map.remove(&key);
        self.free.push(slot);
        if pos < self.hand {
            self.hand -= 1;
        }
    }

    /// Unmaps `key` if it still names `slot`.
    fn unmap(&mut self, key: Key, slot: usize) {
        if self.map.get(&key) != Some(&slot) {
            return;
        }
        if let Some(pos) = self.ring.iter().position(|&s| s == slot) {
            self.unlink_at(pos, key);
        }
    }
}

/// The shared buffer cache: one clock over every frame, pin-counted.
pub struct BufferPool {
    capacity: usize,
    /// The frames, the map, the clock ring and the counters. Rank:
    /// `buffer-shard`.
    inner: Mutex<PoolInner>,
    /// Where all-pinned sweeps wait.
    wait: Arc<PinWait>,
    /// The write-ahead log, when one governs this pool: every writeback
    /// forces the log up to the page's stamped LSN first (the
    /// LSN-before-write rule). Read-mostly and unranked — the ranked WAL
    /// mutex is taken inside [`crate::wal::Wal::force_up_to`].
    wal: RwLock<Option<Arc<crate::wal::Wal>>>,
}

impl BufferPool {
    /// Creates a pool of `capacity` page frames (at least 4).
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            capacity: capacity.max(4),
            inner: Mutex::default(),
            wait: Arc::default(),
            wal: RwLock::new(None),
        }
    }

    /// Takes the pool latch, with its lock-order token. Bind both
    /// (`let (_order, inner) = …`): the guard drops first.
    fn latch(&self) -> (order::LevelToken, MutexGuard<'_, PoolInner>) {
        let tok = order::token(order::BUFFER_SHARD);
        (tok, self.inner.lock())
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

    /// Snapshot of the counters.
    pub fn stats(&self) -> BufferStats {
        let (_order, inner) = self.latch();
        inner.stats
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        let (_order, inner) = self.latch();
        inner.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches block `blkno` of `rel` (which lives on `dev`), reading it
    /// from the device on a miss.
    pub fn get_page(
        &self,
        smgr: &Smgr,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
    ) -> DbResult<PinnedPage> {
        loop {
            if let Some(hit) = self.pin_cached(rel, blkno) {
                return Ok(hit);
            }
            // Miss: make room, then load with the latch released.
            let (tok, mut inner) = self.lock_with_room(smgr)?;
            if inner.map.contains_key(&(rel, blkno)) {
                // Raced with another loader while evicting; retry lookup.
                continue;
            }
            inner.stats.misses += 1;
            // The read overwrites the whole page: a refilled frame needs
            // no zero-fill first.
            return self.fill_slot(tok, inner, dev, (rel, blkno), |data| {
                smgr.read_page(dev, rel, blkno, data)
            });
        }
    }

    /// The hit path, which never reads a device: pin under the latch, then
    /// wait (if at all) on the frame with the latch released. `None` on a
    /// miss, or when the frame's load failed and its loader unmapped it.
    pub(crate) fn pin_cached(&self, rel: RelId, blkno: u64) -> Option<PinnedPage> {
        let frame = {
            let (_order, mut inner) = self.latch();
            let slot = *inner.map.get(&(rel, blkno))?;
            let frame = Arc::clone(&inner.frames[slot]);
            frame.pins.fetch_add(1, Ordering::SeqCst);
            frame.refbit.store(true, Ordering::SeqCst);
            inner.stats.hits += 1;
            frame
        };
        loop {
            match frame.state() {
                READY => return Some(PinnedPage { frame }),
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
        self.latch().1.stats.hits -= 1;
        frame.unpin();
        None
    }

    /// Gives `key` (a block of `dev`) a slot under the held latch, then
    /// releases the latch and runs `fill` over its page with only the
    /// frame's write lock held: the device read of a miss, or the blank of
    /// a new block. `fill` returns whether the page is dirty. The slot is
    /// mapped `LOADING` with its new identity, pinned once for the caller
    /// and born referenced; waiters for the block block on its frame. A
    /// failed fill unmaps the slot again, so a retry reloads the block.
    fn fill_slot(
        &self,
        tok: order::LevelToken,
        mut inner: MutexGuard<'_, PoolInner>,
        dev: DeviceId,
        key: Key,
        fill: impl FnOnce(&mut [u8]) -> DbResult<bool>,
    ) -> DbResult<PinnedPage> {
        let slot = inner.take_slot(&self.wait);
        let frame = Arc::clone(&inner.frames[slot]);
        let ftok = order::token(order::BUFFER_FRAME);
        // Uncontended: the slot is unmapped and unpinned, and every holder
        // of a page lock holds a pin.
        let mut fbuf = frame.buf.write();
        (fbuf.dev, fbuf.rel, fbuf.blkno, fbuf.dirty) = (dev, key.0, key.1, false);
        frame.set_state(LOADING);
        frame.pins.store(1, Ordering::SeqCst);
        frame.refbit.store(true, Ordering::SeqCst);
        let stale = inner.map.insert(key, slot);
        debug_assert!(stale.is_none(), "{key:?} was cached twice");
        inner.ring.push(slot);
        drop(inner);
        drop(tok);
        match fill(&mut fbuf.data) {
            Ok(dirty) => {
                // A replayed page is newer than the device's copy: eviction
                // must write it back, or the next miss replays it again.
                fbuf.dirty = dirty;
                frame.set_state(READY);
                drop(fbuf);
                drop(ftok);
                Ok(PinnedPage { frame })
            }
            Err(e) => {
                frame.set_state(FAILED);
                drop(fbuf);
                drop(ftok);
                // Waiters that already pinned it observe FAILED and retry;
                // their pins keep the slot from a refill until they have.
                let (_order, mut inner) = self.latch();
                inner.unmap(key, slot);
                frame.unpin();
                Err(e)
            }
        }
    }

    /// Takes the latch with a slot free for one more page, running the
    /// clock sweep as needed. Dirty victims are written back with the latch
    /// *released* and stay mapped (and pinned) throughout, so concurrent
    /// lookups hit the cached bytes instead of re-reading stale ones.
    fn lock_with_room(&self, smgr: &Smgr) -> DbResult<(order::LevelToken, MutexGuard<'_, PoolInner>)> {
        // A sweep that finds every frame pinned parks until one is unpinned:
        // foreground pins are short, so an all-pinned pool is usually
        // transient. (A checkpoint is not a cause: its flush holds one pin
        // at a time.)
        let mut parked: Option<PinWaiter<'_>> = None;
        // Slots whose write-back failed in this call, and the first
        // failure: the sweep passes over them, and the error is returned
        // only when nothing else can be evicted. Each stays cached and
        // dirty, so the next checkpoint meets the failure again.
        let mut failed: Vec<usize> = Vec::new();
        let mut first_err: Option<DbError> = None;
        'retry: loop {
            let (tok, mut inner) = self.latch();
            if inner.has_room(self.capacity) {
                return Ok((tok, inner));
            }
            // Two full passes: the first clears reference bits, the second
            // takes the first frame that stayed cold. Only pins block
            // eviction beyond that.
            let mut steps = 0;
            let max_steps = 2 * inner.ring.len() + 1;
            loop {
                if steps > max_steps || inner.ring.is_empty() {
                    if let Some(e) = first_err {
                        return Err(e);
                    }
                    drop(inner);
                    drop(tok);
                    // Register first and sweep once more; sleep only if
                    // that sweep, too, finds everything pinned.
                    match &mut parked {
                        None => parked = Some(PinWaiter::register(&self.wait)),
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
                let pos = inner.hand % inner.ring.len();
                let slot = inner.ring[pos];
                let cold = {
                    let f = &inner.frames[slot];
                    f.pins.load(Ordering::SeqCst) == 0 && !f.refbit.swap(false, Ordering::SeqCst)
                };
                if !cold || failed.contains(&slot) {
                    inner.hand = pos + 1;
                    continue;
                }
                // Victim. `pins == 0` under the latch means nobody holds
                // its page lock, so try_write cannot fail; skip it like a
                // pinned frame if it somehow does.
                let frame = Arc::clone(&inner.frames[slot]);
                let ftok = order::token(order::BUFFER_FRAME);
                let Some(mut vbuf) = frame.buf.try_write() else {
                    drop(ftok);
                    inner.hand = pos + 1;
                    continue;
                };
                let key = (vbuf.rel, vbuf.blkno);
                if !vbuf.dirty {
                    drop(vbuf);
                    drop(ftok);
                    // The sweep stands on the victim: unlink it there.
                    inner.unlink_at(pos, key);
                    inner.stats.evictions += 1;
                    return Ok((tok, inner));
                }
                // Dirty: pin (so no concurrent sweep picks it), release
                // the latch, write back under the frame lock only.
                frame.pins.fetch_add(1, Ordering::SeqCst);
                drop(inner);
                drop(tok);
                let io = {
                    // WAL-before-data: the log is forced up to the page's
                    // LSN *before* the page is written, here, on this thread.
                    let res = self
                        .force_wal_for(&vbuf.data)
                        .and_then(|()| smgr.write_page_back(vbuf.dev, key.0, key.1, &vbuf.data));
                    if res.is_ok() {
                        vbuf.dirty = false;
                    }
                    res
                };
                drop(vbuf);
                drop(ftok);
                let (_order, mut inner) = self.latch();
                frame.unpin();
                inner.stats.writebacks += 1;
                if let Err(e) = io {
                    // Sweep on past it.
                    if let Some(at) = inner.ring.iter().position(|&s| s == slot) {
                        inner.hand = at + 1;
                    }
                    failed.push(slot);
                    first_err.get_or_insert(e);
                    continue 'retry;
                }
                // Unmap only if still ours, unpinned, and still clean —
                // a re-pin or re-dirty in the writeback window wins.
                if frame.pins.load(Ordering::SeqCst) == 0 && inner.map.get(&key) == Some(&slot) {
                    let clean = {
                        let _fl = order::token(order::BUFFER_FRAME);
                        frame.buf.try_read().map(|b| !b.dirty).unwrap_or(false)
                    };
                    if clean {
                        inner.unmap(key, slot);
                        inner.stats.evictions += 1;
                    }
                }
                continue 'retry;
            }
        }
    }

    /// Appends a fresh block to `rel`, returning its number and a pinned,
    /// dirty, zero-filled page for it. The extend happens *before* the
    /// latch is taken, and the blank after it is dropped: no device I/O
    /// runs under it.
    pub fn new_page(&self, smgr: &Smgr, dev: DeviceId, rel: RelId) -> DbResult<(u64, PinnedPage)> {
        let blkno = smgr.extend_page(dev, rel)?;
        let (tok, inner) = self.lock_with_room(smgr)?;
        let page = self.fill_slot(tok, inner, dev, (rel, blkno), |data| {
            data.fill(0);
            Ok(true)
        })?;
        Ok((blkno, page))
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
        let mut keys: Vec<Key> = {
            let (_order, inner) = self.latch();
            inner.map.keys().filter(|(r, _)| rel.is_none_or(|want| want == *r)).copied().collect()
        };
        keys.sort_unstable();
        let mut result = Ok(());
        let mut written = 0;
        for key in keys {
            let frame = {
                let (_order, inner) = self.latch();
                let Some(&slot) = inner.map.get(&key) else {
                    continue;
                };
                let frame = &inner.frames[slot];
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
                        written += 1;
                    }
                }
            }
            frame.unpin();
            if result.is_err() {
                break;
            }
        }
        self.latch().1.stats.writebacks += written as u64;
        result.map(|()| written)
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
    /// The clear checks, in the same hold of the latch, that no frame is
    /// pinned and none is dirty: a page dirtied after its flush sends the
    /// call back to flush, instead of being dropped with its change. The
    /// frames stay, every slot free.
    pub fn flush_and_clear(&self, smgr: &Smgr) -> DbResult<()> {
        loop {
            self.flush_all(smgr)?;
            let (_order, mut inner) = self.latch();
            let inner = &mut *inner;
            let mapped = || inner.map.values().map(|&slot| &inner.frames[slot]);
            if mapped().any(|f| f.pins.load(Ordering::SeqCst) > 0) {
                return Err(DbError::Invalid("cannot clear cache: pages pinned".into()));
            }
            // No pins under the latch, so no page lock is held either.
            let _fl = order::token(order::BUFFER_FRAME);
            if mapped().any(|f| f.buf.try_read().is_none_or(|b| b.dirty)) {
                continue;
            }
            inner.free.extend(inner.map.drain().map(|(_, slot)| slot));
            inner.ring.clear();
            inner.hand = 0;
            return Ok(());
        }
    }

    /// Discards every cached page for `rel` *without* writing them back
    /// (used when dropping a relation). Map and clock ring shed the
    /// relation's slots together, so neither drifts.
    pub fn discard_rel(&self, rel: RelId) {
        let (_order, mut inner) = self.latch();
        let PoolInner {
            map,
            ring,
            free,
            hand,
            ..
        } = &mut *inner;
        let kept = free.len();
        map.retain(|&(r, _), &mut slot| {
            if r == rel {
                free.push(slot);
            }
            r != rel
        });
        ring.retain(|slot| !free[kept..].contains(slot));
        *hand = 0;
    }

    /// Structural self-audit: the pool holds at most `capacity` frames;
    /// every slot is mapped by one key or free, never both; the clock ring
    /// lists exactly the mapped slots, each once; and every mapped frame
    /// agrees with its key. Returns human-readable violations (empty =
    /// consistent).
    pub fn check_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let (_order, inner) = self.latch();
        let n = inner.frames.len();
        if n > self.capacity {
            problems.push(format!("{n} frames in a pool of {}", self.capacity));
        }
        let sorted = |mut slots: Vec<usize>| {
            slots.sort_unstable();
            slots
        };
        let mapped = sorted(inner.map.values().copied().collect());
        let owned = sorted(mapped.iter().chain(&inner.free).copied().collect());
        if owned != (0..n).collect::<Vec<_>>() {
            problems.push(format!(
                "the map and the free list hold slots {owned:?} of {n}"
            ));
        }
        let ring = sorted(inner.ring.clone());
        if ring != mapped {
            problems.push(format!(
                "the clock ring holds slots {ring:?}, the map {mapped:?}"
            ));
        }
        for (&(rel, blkno), &slot) in &inner.map {
            let Some(buf) = inner.frames.get(slot).and_then(|f| f.buf.try_read()) else {
                continue;
            };
            if (buf.rel, buf.blkno) != (rel, blkno) {
                problems.push(format!(
                    "frame keyed ({rel}, {blkno}) says ({}, {})",
                    buf.rel, buf.blkno
                ));
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
        (smgr, BufferPool::new(capacity), rel)
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
        // Pages of the two relations born interleaved, then redirtied
        // newest first: no order the pool keeps is the drain's.
        let pool = BufferPool::new(64);
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

    /// A victim whose write-back fails does not wedge the pool: the sweep
    /// passes it by and evicts another frame, and the page stays cached and
    /// dirty, so a flush still reports the failure.
    #[test]
    fn a_failed_write_back_leaves_the_rest_of_the_pool_usable() {
        let clock = SimClock::new();
        let disk = |name| MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(4096));
        let (d1, faults) = simdev::Faulty::new(disk("d1"));
        let mut smgr = Smgr::new();
        for (id, d) in [(DeviceId(0), shared_device(disk("d0"))), (DeviceId(1), shared_device(d1))] {
            let mgr = GenericManager::format(d).unwrap();
            smgr.register(id, Box::new(mgr)).unwrap();
        }
        // Four frames. Every page below is block 0 of a relation of its
        // own; the first, on the failing device, is the sweep's first victim.
        let pool = BufferPool::new(4);
        let mut rels = (100..).map(Oid);
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

    /// A miss stream over ten times the pool refills the same frames: the
    /// pool never holds more than `capacity` of them, each read lands whole
    /// over its frame's previous page, and a new block on a refilled frame
    /// is blank.
    #[test]
    fn frames_are_refilled_in_place_not_allocated() {
        const CAPACITY: usize = 8;
        let (smgr, pool, rel) = setup(CAPACITY);
        let frames = |pool: &BufferPool| pool.latch().1.frames.len();
        let blocks = 10 * CAPACITY as u64;
        for b in 0..blocks {
            let (blkno, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
            let blank = page.read().data().iter().all(|&byte| byte == 0);
            assert!(blank, "block {blkno} is blank");
            page.write().data_mut().fill(b as u8 + 1);
            assert!(frames(&pool) <= CAPACITY);
        }
        pool.flush_all(&smgr).unwrap();
        let misses = pool.stats().misses;
        for round in 0..2 {
            for b in 0..blocks {
                let page = pool.get_page(&smgr, DeviceId::DEFAULT, rel, b).unwrap();
                let want = b as u8 + 1;
                let whole = page.read().data().iter().all(|&byte| byte == want);
                assert!(whole, "block {b}, round {round}");
                drop(page);
                assert!(frames(&pool) <= CAPACITY, "block {b}");
                assert_eq!(pool.check_consistency(), Vec::<String>::new());
            }
        }
        assert_eq!(frames(&pool), CAPACITY);
        let missed = pool.stats().misses - misses;
        assert_eq!(missed, 2 * blocks, "a cyclic scan of 10x the pool misses");
    }

    #[test]
    fn concurrent_requests_for_one_cold_block_read_device_once() {
        let (smgr, pool, rel) = setup(16);
        let (blkno, page) = pool.new_page(&smgr, DeviceId::DEFAULT, rel).unwrap();
        page.write().data_mut()[7] = 0x5A;
        drop(page);
        pool.flush_and_clear(&smgr).unwrap();
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
