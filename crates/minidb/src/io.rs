//! The asynchronous per-device write-behind scheduler.
//!
//! Every registered device gets a write queue and one worker thread that
//! drains it in **C-SCAN (elevator) order** over a per-relation block key:
//! the worker sweeps the key space upward, services the nearest request at
//! or above its hand, and wraps to the smallest key when the sweep runs
//! dry. Neighboring blocks of one relation therefore reach the device
//! back-to-back, and the simdev seek model charges track-to-track
//! sequential transfers instead of full random strokes.
//!
//! The queue carries **writes only**: dirty clock-sweep victims,
//! checkpointer drains, and vacuum rewrites submit a page copy and continue.
//! The WAL-before-data rule is enforced at the *submission site* (the buffer
//! pool forces the log up to the page's LSN before it calls
//! [`crate::smgr::Smgr::write_page_back`]), so a queued page is always
//! covered by a durable log record. Reads — demand misses and read-ahead
//! alike — run on the caller's thread and land in a buffer frame; the one
//! thing a read asks the queue is whether a write for its page is still
//! queued ([`DevQueue::claim`]), because those bytes are newer than the
//! device's.
//!
//! `sync` is a **queue barrier**: it waits until every request submitted
//! before it has left the queue, then syncs the device. A failed write is
//! *parked* (it stays queued, preserving eventual durability) and its error
//! surfaces at the next barrier; each barrier un-parks failures for one
//! retry. Writes whose relation vanished underneath them (dropped or
//! truncated) complete as benign no-ops.
//!
//! Fairness: plain C-SCAN already bounds waiting, but a hostile submit
//! stream could keep landing just above the hand. Each time the worker
//! services a request while an older one is eligible, the oldest request's
//! bypass count rises; once it reaches [`STARVE_LIMIT`] the oldest request
//! is served next regardless of elevator position.
//!
//! Locking: the queue mutex ranks `io-queue` — inside `buffer-frame` (so a
//! writeback can submit while holding its frame lock) and outside
//! `smgr-device`. It is never held across a wait for I/O: the worker
//! alternates queue lock and device lock strictly, and every *waiting*
//! entry point (barrier, throttle) asserts that the caller holds no buffer
//! shard or frame latch.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, RelId};
use crate::lock::order;
use crate::smgr::DeviceManager;
use crate::stats::{PageIo, StatsRegistry};
use simdev::DevError;

/// How many later-submitted requests may be serviced ahead of an older
/// eligible one before the elevator is overridden and the older request is
/// served next (the starvation bound).
pub const STARVE_LIMIT: u64 = 16;

/// Write-behind backpressure: how many writes may be pending on one device
/// before [`DevQueue::throttle`] holds evicting submitters back.
pub const IO_QUEUE_DEPTH: usize = 64;

/// Scheduling policy: C-SCAN by default, FIFO as a test baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// C-SCAN elevator over the block key.
    Elevator,
    /// Strict submission order (used to measure the elevator's benefit).
    Fifo,
}

struct Request {
    key: u64,
    rel: RelId,
    blkno: u64,
    bypassed: u64,
    in_flight: bool,
    parked: bool,
    /// Generation at which this request last failed; a barrier bumps the
    /// queue generation to grant every parked request one retry.
    retry_gen: u64,
    error: Option<DbError>,
    /// The page image to write.
    data: Arc<[u8]>,
}

/// The elevator key: relation-major, block-minor, so neighboring blocks of
/// one relation are neighbors in the sweep. With extent allocation the
/// logical order within a relation matches the physical order, which is
/// what lets the worker compute the key without the device manager's lock.
fn sort_key(rel: RelId, blkno: u64) -> u64 {
    (u64::from(rel.0) << 40) | (blkno & ((1u64 << 40) - 1))
}

struct QState {
    reqs: BTreeMap<u64, Request>,
    /// Latest queued (not yet completed) write per page.
    writes_by_page: HashMap<(RelId, u64), u64>,
    next_seq: u64,
    /// The elevator hand: next sweep position in key space.
    hand: u64,
    /// Last serviced key (neighbor-batching stat).
    last_key: Option<u64>,
    retry_gen: u64,
    paused: bool,
    shutdown: bool,
    aborted: bool,
    policy: Policy,
}

impl QState {
    fn pending_writes(&self) -> usize {
        self.reqs.values().filter(|r| !r.parked).count()
    }
}

/// One device's request queue plus the handles its worker needs.
pub struct DevQueue {
    dev: DeviceId,
    state: Mutex<QState>,
    /// Wakes the worker (new request, un-pause, shutdown).
    cv_worker: Condvar,
    /// Wakes waiters (request completed or parked, abort).
    cv_done: Condvar,
    mgr: Arc<Mutex<Box<dyn DeviceManager>>>,
    clock: simdev::SimClock,
    stats: Arc<StatsRegistry>,
}

impl DevQueue {
    fn new(
        dev: DeviceId,
        mgr: Arc<Mutex<Box<dyn DeviceManager>>>,
        clock: simdev::SimClock,
        stats: Arc<StatsRegistry>,
    ) -> Arc<DevQueue> {
        Arc::new(DevQueue {
            dev,
            state: Mutex::new(QState {
                reqs: BTreeMap::new(),
                writes_by_page: HashMap::new(),
                next_seq: 0,
                hand: 0,
                last_key: None,
                retry_gen: 0,
                paused: false,
                shutdown: false,
                aborted: false,
                policy: Policy::Elevator,
            }),
            cv_worker: Condvar::new(),
            cv_done: Condvar::new(),
            mgr,
            clock,
            stats,
        })
    }

    /// Queues an asynchronous write of `buf` to `(rel, blkno)` and returns
    /// immediately. Returns `false` once the queue is shut down or aborted
    /// (the caller falls back to a synchronous write). Never blocks, so it
    /// is safe under a frame latch; backpressure is [`DevQueue::throttle`].
    pub fn submit_write(&self, rel: RelId, blkno: u64, buf: &[u8]) -> bool {
        let _order = order::token(order::IO_QUEUE);
        let mut st = self.state.lock();
        if st.shutdown || st.aborted {
            return false;
        }
        let key = (rel, blkno);
        // A still-queued, not-in-flight write for the same page is
        // *combined*: its payload is replaced in place (same seq, so any
        // barrier already covering it still covers the new bytes).
        if let Some(&seq) = st.writes_by_page.get(&key) {
            if let Some(req) = st.reqs.get_mut(&seq) {
                if !req.in_flight {
                    req.data = Arc::from(buf);
                    self.note_depth(&st);
                    self.stats.device(self.dev).io_submitted.bump();
                    self.cv_worker.notify_one();
                    return true;
                }
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.reqs.insert(
            seq,
            Request {
                key: sort_key(rel, blkno),
                rel,
                blkno,
                bypassed: 0,
                in_flight: false,
                parked: false,
                retry_gen: 0,
                error: None,
                data: Arc::from(buf),
            },
        );
        st.writes_by_page.insert(key, seq);
        self.note_depth(&st);
        self.stats.device(self.dev).io_submitted.bump();
        self.cv_worker.notify_one();
        true
    }

    /// The bytes of the newest write still queued (or in flight) for
    /// `(rel, blkno)`, if any. A demand read must take them: until the
    /// worker drains the request the device's copy is older.
    pub fn claim(&self, rel: RelId, blkno: u64) -> Option<Arc<[u8]>> {
        let _order = order::token(order::IO_QUEUE);
        let st = self.state.lock();
        let seq = st.writes_by_page.get(&(rel, blkno))?;
        st.reqs.get(seq).map(|req| Arc::clone(&req.data))
    }

    /// Blocks while more than [`IO_QUEUE_DEPTH`] writes are pending — the
    /// eviction path's backpressure, called with every latch dropped.
    pub fn throttle(&self) {
        debug_assert!(
            !order::is_held(order::BUFFER_SHARD) && !order::is_held(order::BUFFER_FRAME),
            "throttling on the io queue while holding a buffer latch"
        );
        let _order = order::token(order::IO_QUEUE);
        let mut st = self.state.lock();
        while !st.aborted && !st.shutdown && st.pending_writes() > IO_QUEUE_DEPTH {
            self.cv_done.wait(&mut st);
        }
    }

    /// The queue barrier: waits until every request submitted before the
    /// call has left the queue. Parked (failed) writes get one retry per
    /// barrier; if they fail again the barrier returns their error (they
    /// stay parked, so durability is still eventually reachable once the
    /// fault clears and a later barrier retries).
    pub fn barrier(&self) -> DbResult<()> {
        debug_assert!(
            !order::is_held(order::BUFFER_SHARD) && !order::is_held(order::BUFFER_FRAME),
            "io barrier while holding a buffer latch"
        );
        let _order = order::token(order::IO_QUEUE);
        let mut st = self.state.lock();
        let target = st.next_seq;
        st.retry_gen += 1;
        let gen = st.retry_gen;
        self.stats.device(self.dev).io_barrier_waits.bump();
        self.cv_worker.notify_one();
        loop {
            if st.aborted {
                return Err(DbError::Invalid("io scheduler aborted (crash)".into()));
            }
            let mut covered = st.reqs.range(..target).map(|(_, r)| r).peekable();
            if covered.peek().is_none() {
                return Ok(());
            }
            // Only requests parked in *this* generation have exhausted
            // their retry; anything else is still in motion.
            if covered.all(|r| r.parked && r.retry_gen == gen) {
                let seq = st
                    .reqs
                    .range(..target)
                    .find(|(_, r)| r.error.is_some())
                    .map(|(&s, _)| s);
                return Err(match seq.and_then(|s| {
                    st.reqs.get_mut(&s).and_then(|r| r.error.take())
                }) {
                    Some(e) => e,
                    None => DbError::Invalid("asynchronous write failed".into()),
                });
            }
            self.cv_done.wait(&mut st);
        }
    }

    /// Pauses or resumes the worker (requests keep queueing while paused;
    /// the torture battery uses this to crash with requests in flight).
    pub fn pause(&self, paused: bool) {
        let _order = order::token(order::IO_QUEUE);
        self.state.lock().paused = paused;
        self.cv_worker.notify_all();
    }

    /// Crash: discards every queued request, errors current and future
    /// barriers, and stops the worker.
    pub fn abort(&self) {
        let _order = order::token(order::IO_QUEUE);
        let mut st = self.state.lock();
        st.aborted = true;
        st.shutdown = true;
        st.paused = false;
        st.reqs.clear();
        st.writes_by_page.clear();
        self.cv_worker.notify_all();
        self.cv_done.notify_all();
    }

    /// Requests currently queued (including in flight and parked).
    pub fn depth(&self) -> usize {
        let _order = order::token(order::IO_QUEUE);
        self.state.lock().reqs.len()
    }

    /// Switches the scheduling policy (tests measure Elevator vs Fifo).
    pub fn set_policy(&self, policy: Policy) {
        let _order = order::token(order::IO_QUEUE);
        self.state.lock().policy = policy;
    }

    fn note_depth(&self, st: &QState) {
        self.stats
            .device(self.dev)
            .io_queue_depth_hw
            .observe(st.reqs.len() as u64);
    }

    /// Picks the next request per policy and starvation bound, marks it in
    /// flight, and returns its seq, its target, and the bytes to write.
    fn pick(&self, st: &mut QState) -> Option<(u64, RelId, u64, Arc<[u8]>)> {
        let gen = st.retry_gen;
        let eligible: Vec<(u64, u64)> = st
            .reqs
            .iter()
            .filter(|(_, r)| !r.in_flight && (!r.parked || r.retry_gen < gen))
            .map(|(&s, r)| (s, r.key))
            .collect();
        let &(oldest_seq, _) = eligible.first()?;
        let io_stats = self.stats.device(self.dev);
        let starved = st
            .reqs
            .get(&oldest_seq)
            .is_some_and(|r| r.bypassed >= STARVE_LIMIT);
        let chosen = if starved || st.policy == Policy::Fifo {
            oldest_seq
        } else {
            match eligible.iter().filter(|&&(_, k)| k >= st.hand).min_by_key(|&&(_, k)| k) {
                Some(&(s, _)) => s,
                None => {
                    // Sweep ran dry above the hand: wrap to the smallest key.
                    io_stats.io_elevator_passes.bump();
                    let &(s, _) = eligible.iter().min_by_key(|&&(_, k)| k)?;
                    s
                }
            }
        };
        if chosen != oldest_seq {
            if let Some(o) = st.reqs.get_mut(&oldest_seq) {
                o.bypassed += 1;
            }
        }
        let req = st.reqs.get_mut(&chosen)?;
        req.in_flight = true;
        req.parked = false;
        if st
            .last_key
            .is_some_and(|lk| req.key == lk || req.key == lk + 1)
        {
            io_stats.io_batched_neighbors.bump();
        }
        st.last_key = Some(req.key);
        st.hand = req.key + 1;
        Some((chosen, req.rel, req.blkno, Arc::clone(&req.data)))
    }

    /// Applies a write's outcome back to the queue. Failures against a
    /// vanished relation (dropped/truncated under the queued request) are
    /// benign completions; other failures park the request.
    fn finish(&self, st: &mut QState, seq: u64, outcome: DbResult<()>) {
        let Some(req) = st.reqs.get_mut(&seq) else {
            return; // Aborted while in flight.
        };
        let benign = |e: &DbError| {
            matches!(
                e,
                DbError::NotFound(_) | DbError::Device(DevError::OutOfRange { .. })
            )
        };
        match outcome {
            Err(e) if !benign(&e) => {
                req.in_flight = false;
                req.parked = true;
                req.retry_gen = st.retry_gen;
                req.error = Some(e);
            }
            _ => {
                let key = (req.rel, req.blkno);
                st.reqs.remove(&seq);
                if st.writes_by_page.get(&key) == Some(&seq) {
                    st.writes_by_page.remove(&key);
                }
                self.stats.device(self.dev).io_completed.bump();
            }
        }
        self.cv_done.notify_all();
    }

    /// The worker loop: pick under the queue lock, write under the device
    /// lock, report back under the queue lock — never both at once.
    fn run(self: &Arc<DevQueue>) {
        loop {
            let (seq, rel, blkno, data) = {
                let _order = order::token(order::IO_QUEUE);
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.paused {
                        if let Some(job) = self.pick(&mut st) {
                            break job;
                        }
                    }
                    self.cv_worker.wait(&mut st);
                }
            };
            let outcome = self.stats.device(self.dev).timed(&self.clock, PageIo::Write, || {
                let _dev = order::token(order::SMGR_DEVICE);
                self.mgr.lock().write(rel, blkno, &data)
            });
            let _order = order::token(order::IO_QUEUE);
            let mut st = self.state.lock();
            self.finish(&mut st, seq, outcome);
        }
    }
}

/// The per-device queues plus their worker threads; owned by the smgr.
#[derive(Default)]
pub struct IoLayer {
    queues: HashMap<DeviceId, Arc<DevQueue>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IoLayer {
    /// Creates an empty layer.
    pub fn new() -> IoLayer {
        IoLayer::default()
    }

    /// Adds a queue + worker for `dev`, draining through `mgr`.
    pub fn add_device(
        &mut self,
        dev: DeviceId,
        mgr: Arc<Mutex<Box<dyn DeviceManager>>>,
        clock: simdev::SimClock,
        stats: Arc<StatsRegistry>,
    ) {
        let q = DevQueue::new(dev, mgr, clock, stats);
        let worker = Arc::clone(&q);
        self.queues.insert(dev, q);
        self.workers.push(std::thread::spawn(move || worker.run()));
    }

    /// The queue for `dev`, if one was added.
    pub fn queue(&self, dev: DeviceId) -> Option<&Arc<DevQueue>> {
        self.queues.get(&dev)
    }

    /// Pauses/resumes every worker.
    pub fn pause(&self, paused: bool) {
        for q in self.queues.values() {
            q.pause(paused);
        }
    }

    /// Crash-aborts every queue (see [`DevQueue::abort`]).
    pub fn abort(&self) {
        for q in self.queues.values() {
            q.abort();
        }
    }

    /// Total requests queued across devices.
    pub fn depth(&self) -> usize {
        self.queues.values().map(|q| q.depth()).sum()
    }
}

impl Drop for IoLayer {
    fn drop(&mut self) {
        for q in self.queues.values() {
            let _order = order::token(order::IO_QUEUE);
            let mut st = q.state.lock();
            st.shutdown = true;
            q.cv_worker.notify_all();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RelId;
    use crate::smgr::{shared_device, GenericManager};
    use simdev::{DiskProfile, MagneticDisk, SimClock};

    const DEV: DeviceId = DeviceId(0);

    /// A formatted disk manager with `nblocks` pre-extended blocks of one
    /// relation, wrapped for the scheduler.
    fn rig(
        profile: DiskProfile,
        extent: u64,
        nblocks: u64,
    ) -> (
        SimClock,
        Arc<Mutex<Box<dyn DeviceManager>>>,
        Arc<StatsRegistry>,
        RelId,
    ) {
        let clock = SimClock::new();
        let dev = shared_device(MagneticDisk::new("d", clock.clone(), profile));
        let mut m = GenericManager::format(dev).expect("format");
        m.set_extent_size(extent);
        let rel = crate::ids::Oid(3);
        m.create_rel(rel).expect("create");
        let page = vec![0u8; simdev::BLOCK_SIZE];
        for _ in 0..nblocks {
            m.extend(rel, &page).expect("extend");
        }
        let mgr: Arc<Mutex<Box<dyn DeviceManager>>> = Arc::new(Mutex::new(Box::new(m)));
        (clock, mgr, Arc::new(StatsRegistry::new()), rel)
    }

    /// Simulated cost of draining 64 writes submitted in a hostile
    /// interleaved order (0, 32, 1, 33, ...) under the given policy.
    fn drain_cost(policy: Policy) -> (u64, Arc<StatsRegistry>) {
        let (clock, mgr, stats, rel) = rig(DiskProfile::rz58(), 32, 64);
        let mut io = IoLayer::new();
        io.add_device(DEV, mgr, clock.clone(), Arc::clone(&stats));
        let q = Arc::clone(io.queue(DEV).expect("queue"));
        q.set_policy(policy);
        q.pause(true); // Build the whole queue before the sweep starts.
        let page = vec![0u8; simdev::BLOCK_SIZE];
        for i in 0..32 {
            assert!(q.submit_write(rel, i, &page));
            assert!(q.submit_write(rel, 32 + i, &page));
        }
        let start = clock.now();
        q.pause(false);
        q.barrier().expect("barrier");
        (clock.now().since(start).as_nanos(), stats)
    }

    #[test]
    fn elevator_beats_fifo_on_interleaved_writes() {
        let (fifo, _) = drain_cost(Policy::Fifo);
        let (elevator, stats) = drain_cost(Policy::Elevator);
        // The C-SCAN sweep turns the interleaved stream into one sequential
        // pass; FIFO pays a seek + rotation per request. The rz58 model
        // prices that at roughly 3x — demand well over the paper's 1.3x.
        assert!(
            elevator * 13 / 10 < fifo,
            "elevator ({elevator} ns) should beat FIFO ({fifo} ns) by >= 1.3x"
        );
        let io = stats.device(DEV);
        assert!(io.io_batched_neighbors.get() > 0, "no neighbors batched");
        assert_eq!(io.io_submitted.get(), 64);
        assert_eq!(io.io_completed.get(), 64);
        assert!(io.io_queue_depth_hw.get() >= 64);
    }

    #[test]
    fn starvation_bound_overrides_the_elevator() {
        let (_clock, mgr, stats, rel) = rig(DiskProfile::tiny_for_tests(4096), 1, 256);
        // No worker thread: the test drives `pick` by hand.
        let q = DevQueue::new(DEV, mgr, SimClock::new(), stats);
        let page = vec![0u8; simdev::BLOCK_SIZE];
        // The victim: oldest request, parked high in the key space.
        assert!(q.submit_write(rel, 200, &page));
        let mut served = Vec::new();
        // Hostile pattern: each round submits a fresh request exactly at
        // the elevator hand, so plain C-SCAN would bypass block 200
        // forever.
        for i in 0..=STARVE_LIMIT {
            assert!(q.submit_write(rel, i, &page));
            let _order = order::token(order::IO_QUEUE);
            let mut st = q.state.lock();
            let (seq, _, blkno, _) = q.pick(&mut st).expect("pick");
            served.push(blkno);
            q.finish(&mut st, seq, Ok(()));
        }
        // Exactly STARVE_LIMIT bypasses, then the bound forces the victim.
        let limit = STARVE_LIMIT as usize;
        assert_eq!(served.len(), limit + 1);
        assert!(served[..limit].iter().copied().eq(0..STARVE_LIMIT));
        assert_eq!(served[limit], 200, "starved request was not forced");
    }

    #[test]
    fn claim_returns_the_newest_queued_or_in_flight_write() {
        let (_clock, mgr, stats, rel) = rig(DiskProfile::tiny_for_tests(4096), 1, 8);
        // No worker thread: the test drives `pick`/`finish` by hand.
        let q = DevQueue::new(DEV, mgr, SimClock::new(), stats);
        let page = |b: u8| vec![b; simdev::BLOCK_SIZE];
        let claimed = |blkno| q.claim(rel, blkno).map(|bytes| bytes[0]);
        assert_eq!(claimed(6), None, "nothing queued: the caller reads the device");
        assert!(q.submit_write(rel, 6, &page(0xAB)));
        assert_eq!(claimed(6), Some(0xAB));
        assert_eq!(claimed(5), None);
        // Combined in place: one request, the newest payload.
        assert!(q.submit_write(rel, 6, &page(0xAC)));
        assert_eq!(q.depth(), 1);
        assert_eq!(claimed(6), Some(0xAC));
        // In flight: still claimable (the device may not have it yet), and
        // a write submitted meanwhile is a second request that supersedes it.
        let seq = {
            let _order = order::token(order::IO_QUEUE);
            q.pick(&mut q.state.lock()).expect("pick").0
        };
        assert_eq!(claimed(6), Some(0xAC));
        assert!(q.submit_write(rel, 6, &page(0xAD)));
        assert_eq!(q.depth(), 2);
        assert_eq!(claimed(6), Some(0xAD));
        {
            let _order = order::token(order::IO_QUEUE);
            q.finish(&mut q.state.lock(), seq, Ok(()));
        }
        assert_eq!(claimed(6), Some(0xAD), "the older write's completion unmapped the newer");
        // Aborted queues drop their work, refuse more and error the barrier.
        q.abort();
        assert_eq!(claimed(6), None);
        assert!(!q.submit_write(rel, 1, &page(1)));
        assert!(q.barrier().is_err());
    }
}
