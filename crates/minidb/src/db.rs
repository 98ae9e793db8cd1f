//! The database facade: devices, catalogs, transactions, sessions.
//!
//! [`Db`] wires together the buffer cache, device manager switch,
//! transaction status file, lock manager, catalog, and function registry.
//! [`Session`] is one client's view: it carries a transaction (or a
//! historical snapshot) and exposes tuple-level operations; the query
//! language (see [`crate::query`]) executes against a session.
//!
//! # Commit protocol
//!
//! Commit is *no-force*: no data page is written at commit. Every page
//! mutation already appended a physiological REDO record to the
//! [`crate::wal`], so commit appends a `Commit` record and forces the log
//! up to that record ([`Wal::force_up_to`]) — that force is the commit
//! point. A committer whose record a concurrent force already covered
//! returns without a sync of its own, which is all there is to group
//! commit. The `Commit` record is a page record of the status relation
//! ([`crate::xact`]), applied to its status page as it is appended; the
//! transaction leaves the running set, and so shows other snapshots that
//! page's outcome, only after the force succeeds. Abort is leaving the
//! running set alone. Dirty pages, status pages
//! among them, drain through the background checkpointer, which then
//! truncates the log. Crash recovery is reopening the database
//! ([`Db::recover`]): the log is scanned once, and its records replay *on
//! first touch* of each stale page while new sessions run — the paper's
//! "essentially instantaneous" recovery.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard};
use simdev::{DiskProfile, MagneticDisk, SimClock, SimDuration, SimInstant};

use crate::btree::BTree;
use crate::buffer::{BufferPool, DEFAULT_BUFFERS};
use crate::catalog::{
    Catalog, IndexInfo, ProcEntry, RelKind, RelationEntry, RuleEntry, TypeEntry, PG_CLASS,
    PG_LOG, PG_PROC, PG_RULE, PG_TYPE,
};
use crate::datum::{decode_row, Datum, Row, Schema, TypeId};
use crate::error::{DbError, DbResult};
use crate::funcs::{FuncDef, FunctionRegistry};
use crate::heap::Heap;
use crate::ids::{DeviceId, RelId, Tid, XactId};
use crate::lock::{LockManager, LockMode};
use crate::recovery::Redo;
use crate::smgr::{shared_device, DeviceManager, GenericManager, SharedDevice, Smgr};
use crate::stats::{StatsRegistry, StatsSnapshot, VirtualTable, VirtualTables};
use crate::wal::{Wal, WalRecord};
use crate::xact::{Snapshot, StatusIo, XactLog};

/// Tunables for a [`Db`].
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer cache size in 8 KB frames (POSTGRES shipped with 64).
    pub buffers: usize,
    /// A model of POSTGRES 4.0.1's buffer manager, for reproducing the
    /// paper's Figure 3 and nothing else: when the pool is under
    /// replacement pressure, every insert writes the relation's B-tree
    /// pages through to the device. This is the behaviour behind the
    /// paper's create-time result: "Btree writes are interleaved with data
    /// file writes, penalizing Inversion by forcing the disk head to move
    /// frequently." POSTGRES 4.0.1 had no log; here each of those pages
    /// was dirtied a moment earlier, so the LSN-before-write rule makes
    /// every such insert pay a log write and sync on top of the page
    /// write. Off by default — a commit then forces the log once and
    /// index pages drain by checkpoint and eviction like any other; the
    /// paper testbed (`bench::InversionTestbed::paper`) turns it on.
    pub eager_index_writes: bool,
    /// Blocks of sequential read-ahead past a detected scan run
    /// (0 disables prefetching).
    pub prefetch_window: usize,
    /// How often (virtual time) the background checkpointer drains dirty
    /// pages and truncates the log, absent log-space pressure. Pressure
    /// (the log epoch passing half its region) wakes it regardless.
    pub checkpoint_interval: SimDuration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffers: DEFAULT_BUFFERS,
            eager_index_writes: false,
            prefetch_window: crate::buffer::DEFAULT_PREFETCH_WINDOW,
            checkpoint_interval: SimDuration::from_millis(100),
        }
    }
}

/// Blocks allocated per relation extent on the generic disk manager: > 1
/// lays relations out in sequential runs so the simulated disk's seek model
/// rewards scans (1 would be a block-at-a-time bump allocator).
const EXTENT_SIZE: u64 = 16;

/// Shared state between a database and its background checkpointer thread.
/// Lives in its own `Arc` so the thread can park on the condvar holding
/// only a [`Weak`] reference to the database itself.
struct CheckpointState {
    /// Serializes checkpoint cycles (the thread vs. explicit
    /// [`Db::checkpoint`] calls). Rank: `checkpointer`.
    cycle: Mutex<()>,
    /// The background thread's handle, joined on shutdown.
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Wake flag the thread sleeps on (leaf mutex: nothing is acquired
    /// while it is held).
    wake: Mutex<bool>,
    cv: Condvar,
    /// Tells the thread to exit.
    stop: AtomicBool,
    /// Set by [`Db::simulate_crash`], while recovery reconciles the
    /// devices with the catalog, by a failed device sync
    /// ([`DbInner::sync_devices`]) and by a failed commit force whose
    /// `Abort` the log refused: shutdown must not write anything, and no
    /// checkpoint may truncate the log.
    crashed: AtomicBool,
    /// Virtual time of the last completed checkpoint.
    last: Mutex<SimInstant>,
}

impl CheckpointState {
    fn new(now: SimInstant) -> Arc<CheckpointState> {
        Arc::new(CheckpointState {
            cycle: Mutex::new(()),
            thread: Mutex::new(None),
            wake: Mutex::new(false),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            last: Mutex::new(now),
        })
    }

    fn signal(&self) {
        let mut wake = self.wake.lock();
        *wake = true;
        self.cv.notify_all();
    }
}

pub(crate) struct DbInner {
    pub(crate) config: DbConfig,
    pub(crate) clock: SimClock,
    pub(crate) pool: BufferPool,
    pub(crate) smgr: Smgr,
    pub(crate) xlog: XactLog,
    pub(crate) locks: LockManager,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) funcs: FunctionRegistry,
    pub(crate) stats: Arc<StatsRegistry>,
    pub(crate) virtuals: VirtualTables,
    pub(crate) wal: Arc<Wal>,
    pub(crate) redo: Arc<Redo>,
    ckpt: Arc<CheckpointState>,
}

impl DbInner {
    /// Whether a checkpoint is wanted now: the log is under space pressure
    /// or the checkpoint interval has elapsed since the last one finished.
    fn checkpoint_wanted(&self) -> bool {
        let interval = self.config.checkpoint_interval;
        self.wal.over_pressure()
            || (interval.as_nanos() > 0
                && self.clock.now().since(*self.ckpt.last.lock()) >= interval)
    }

    /// What the status relation is read and written through.
    pub(crate) fn status_io(&self) -> StatusIo<'_> {
        StatusIo {
            pool: &self.pool,
            smgr: &self.smgr,
            wal: &self.wal,
        }
    }

    /// Syncs every device. A failed sync may have dropped writes the pool
    /// already counts as done — a device's write cache empties before it
    /// destages, and a queued write-back reports its failure here — so
    /// their records must stay in the log: the database goes down as a
    /// crash does. No checkpoint runs again and shutdown writes nothing;
    /// reopening replays the log.
    pub(crate) fn sync_devices(&self) -> DbResult<()> {
        let synced = self.smgr.sync_all();
        if synced.is_err() {
            self.ckpt.crashed.store(true, SeqCst);
        }
        synced
    }

    /// Wakes the checkpointer when a checkpoint is wanted — called from the
    /// write paths, so a long transaction's log appetite triggers draining
    /// mid-transaction.
    pub(crate) fn maybe_signal_checkpoint(&self) {
        if self.checkpoint_wanted() {
            self.ckpt.signal();
        }
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.ckpt.stop.store(true, SeqCst);
        self.ckpt.signal();
        let handle = self.ckpt.thread.lock().take();
        if let Some(h) = handle {
            // The last reference can die on the checkpointer thread itself
            // (it upgrades its Weak during a cycle); never self-join.
            if h.thread().id() != std::thread::current().id() {
                h.join().ok();
            }
        }
        if !self.ckpt.crashed.load(SeqCst) {
            // Clean shutdown: one final drain leaves every page durable and
            // the log empty. Best effort — recovery replays whatever this
            // misses.
            Db::checkpoint_cycle(self).ok();
        }
    }
}

/// A database instance. Cheap to clone; clones share everything.
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl Db {
    /// Opens a *fresh* database over an already-populated device switch.
    ///
    /// `log_dev` holds the write-ahead log; `catalog_dev` is the device the
    /// catalogs live on. It is formatted here and joins `smgr` as
    /// [`DeviceId::CATALOG`], holding the (empty) system relations and the
    /// transaction status relation. Both must be dedicated: they are
    /// overwritten.
    pub fn open(
        clock: SimClock,
        mut smgr: Smgr,
        log_dev: SharedDevice,
        catalog_dev: SharedDevice,
        config: DbConfig,
    ) -> DbResult<Db> {
        let mut catalog_mgr = GenericManager::format(catalog_dev)?;
        for rel in [PG_CLASS, PG_TYPE, PG_PROC, PG_RULE, PG_LOG] {
            catalog_mgr.create_rel(rel)?;
        }
        catalog_mgr.sync()?;
        smgr.register(DeviceId::CATALOG, Box::new(catalog_mgr))?;
        let stats = Arc::new(StatsRegistry::new());
        let wal = Wal::create(log_dev, Arc::clone(&stats))?;
        let redo = Redo::empty(Arc::clone(&stats));
        let db = Db::assemble(clock, smgr, stats, (wal, redo), config)?;
        db.spawn_checkpointer();
        Ok(db)
    }

    /// Reopens a database after a shutdown or crash.
    ///
    /// This *is* crash recovery: "no special boot-time file system check
    /// program needs to be run". The caller re-attaches device managers
    /// (e.g. [`GenericManager::attach`]) into `smgr` and passes the same log
    /// and catalog devices.
    ///
    /// Transaction outcomes and catalog changes are logged page changes, so
    /// they recover the way user data does: once the database is assembled
    /// the status relation is loaded, then the catalog cache is filled by
    /// scanning the system relations, first-touch REDO bringing each page
    /// up to date as the reads reach it. Then
    /// [`Db::reconcile_storage`] gives the devices what the rows name, and
    /// only then may the checkpointer run.
    pub fn recover(
        clock: SimClock,
        mut smgr: Smgr,
        log_dev: SharedDevice,
        catalog_dev: SharedDevice,
        config: DbConfig,
    ) -> DbResult<Db> {
        smgr.register(
            DeviceId::CATALOG,
            Box::new(GenericManager::attach(catalog_dev)?),
        )?;
        let stats = Arc::new(StatsRegistry::new());
        let (wal, records) = Wal::recover(log_dev, Arc::clone(&stats))?;
        let redo = Redo::from_records(&records, Arc::clone(&stats));
        // The status and catalog reads below read only the catalog device.
        cover_logged_pages(&smgr, &redo, &[DeviceId::CATALOG])?;
        let db = Db::assemble(clock, smgr, stats, (wal, redo), config)?;
        // Until the devices hold what the catalog names, the log holds
        // pages no device has: a failure here must go down as a crash
        // does, writing nothing, so the next attempt still has them.
        db.inner.ckpt.crashed.store(true, SeqCst);
        db.inner.xlog.load(db.inner.status_io())?;
        let rows = db.scan_catalog()?;
        db.inner.catalog.write().load(rows)?;
        db.reconcile_storage()?;
        db.inner.ckpt.crashed.store(false, SeqCst);
        db.spawn_checkpointer();
        Ok(db)
    }

    /// The visible rows of the four system relations: what reopening the
    /// database would load the catalog cache from.
    pub(crate) fn scan_catalog(&self) -> DbResult<[Vec<(Tid, Row)>; 4]> {
        let mut s = self.begin()?;
        let rows = [
            s.seq_scan(PG_CLASS)?,
            s.seq_scan(PG_TYPE)?,
            s.seq_scan(PG_PROC)?,
            s.seq_scan(PG_RULE)?,
        ];
        s.commit()?;
        Ok(rows)
    }

    /// Makes each device hold exactly the relations the catalog names on
    /// it. Its map reaches it only at checkpoints, so after a crash it may
    /// lack a relation a committed row names (one created since), which is
    /// created, or list storage no row names (a create that never
    /// committed, a drop that did), which is released and its logged pages
    /// forgotten. Nothing the catalog does not name comes back, and the
    /// status relation, which no row names, stays.
    fn reconcile_storage(&self) -> DbResult<()> {
        let inner = &self.inner;
        let named: HashSet<(DeviceId, RelId)> = inner.catalog.read().storage().collect();
        for dev in inner.smgr.devices() {
            inner.smgr.with(dev, |m| {
                // Release first, so creating never needs more metadata room
                // than the map had before the crash.
                for rel in m.relations() {
                    if !named.contains(&(dev, rel)) {
                        m.drop_rel(rel)?;
                    }
                }
                for &(_, rel) in named.iter().filter(|&&(d, _)| d == dev) {
                    if !m.has_rel(rel) {
                        m.create_rel(rel)?;
                    }
                }
                Ok(())
            })?;
        }
        for (dev, rel, blkno) in inner.redo.pages() {
            if !named.contains(&(dev, rel)) {
                inner.redo.forget((dev, rel, blkno));
            }
        }
        cover_logged_pages(&inner.smgr, &inner.redo, &inner.smgr.devices())
    }

    /// The tail [`Db::open`] and [`Db::recover`] share: wires the storage
    /// manager, lock manager and buffer pool to the shared counters and
    /// the log and registers the engine's virtual relations. The caller
    /// starts the checkpointer.
    fn assemble(
        clock: SimClock,
        mut smgr: Smgr,
        stats: Arc<StatsRegistry>,
        (wal, redo): (Wal, Redo),
        config: DbConfig,
    ) -> DbResult<Db> {
        let (wal, redo) = (Arc::new(wal), Arc::new(redo));
        smgr.attach_stats(clock.clone(), Arc::clone(&stats));
        smgr.attach_redo(Arc::clone(&redo));
        for dev in smgr.devices() {
            smgr.with(dev, |m| {
                m.set_extent_size(EXTENT_SIZE);
                Ok(())
            })?;
        }
        smgr.start_io();
        let mut locks = LockManager::new();
        locks.share_stats(Arc::clone(&stats));
        let pool = BufferPool::new(config.buffers).with_system_shard();
        pool.set_prefetch_window(config.prefetch_window);
        pool.attach_wal(Arc::clone(&wal));
        let ckpt = CheckpointState::new(clock.now());
        let db = Db {
            inner: Arc::new(DbInner {
                clock,
                pool,
                smgr,
                xlog: XactLog::default(),
                locks,
                catalog: RwLock::new(Catalog::new()),
                funcs: FunctionRegistry::with_builtins(),
                stats,
                virtuals: VirtualTables::with_engine_relations(),
                wal,
                redo,
                ckpt,
                config,
            }),
        };
        Ok(db)
    }

    /// Opens a small self-contained database on fast in-memory disks —
    /// the zero-ceremony constructor for tests, examples and doctests.
    pub fn open_in_memory() -> DbResult<Db> {
        Db::open_in_memory_with(DbConfig::default())
    }

    /// [`Db::open_in_memory`] with explicit tunables (pool size, prefetch
    /// window, …) — for tests that need a specific cache configuration.
    pub fn open_in_memory_with(config: DbConfig) -> DbResult<Db> {
        let clock = SimClock::new();
        let data = shared_device(MagneticDisk::new(
            "data",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 17),
        ));
        let log = shared_device(MagneticDisk::new(
            "log",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let cat = shared_device(MagneticDisk::new(
            "catalog",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let mut smgr = Smgr::new();
        smgr.register(DeviceId::DEFAULT, Box::new(GenericManager::format(data)?))?;
        Db::open(clock, smgr, log, cat, config)
    }

    /// Hints the buffer cache to read `count` blocks of `rel` ahead,
    /// starting at `start`. Used by large-object readers that know they are
    /// about to walk a relation sequentially; errors are swallowed (it is
    /// only a hint).
    pub fn prefetch_relation(&self, rel: RelId, start: u64, count: usize) {
        let dev = match self.inner.catalog.read().relation(rel) {
            Ok(entry) => entry.device,
            Err(_) => return,
        };
        self.inner.pool.prefetch(&self.inner.smgr, dev, rel, start, count);
    }

    /// The simulated clock shared with the devices.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.inner.clock.now()
    }

    /// The function implementation registry (register Rust callables here).
    pub fn functions(&self) -> &FunctionRegistry {
        &self.inner.funcs
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.inner.catalog.read()
    }

    /// Runs every structural-integrity check (catalog, status log, heaps,
    /// B-trees, and both index ↔ heap cross-references) and returns the
    /// findings. An intact database returns an empty vector; the same rows
    /// are visible through the `pg_check` virtual relation.
    pub fn check_all(&self) -> Vec<crate::check::Finding> {
        crate::check::check_all(self)
    }

    /// Buffer cache statistics.
    pub fn buffer_stats(&self) -> crate::buffer::BufferStats {
        self.inner.pool.stats()
    }

    /// Total relation locks currently held across all transactions — zero
    /// once every session has ended (the no-leaked-locks invariant the
    /// server disconnect tests assert).
    pub fn held_lock_count(&self) -> usize {
        self.inner.locks.held_lock_count()
    }

    /// The live counter registry every layer reports into.
    pub fn stats_registry(&self) -> &StatsRegistry {
        &self.inner.stats
    }

    /// A frozen, consistent-enough copy of every counter the engine keeps:
    /// buffer cache, locks, transactions, access methods, and per-device
    /// I/O with simulated-latency histograms. Cheap (relaxed atomic loads);
    /// safe to call from any thread at any time.
    pub fn stats(&self) -> StatsSnapshot {
        let inner = &self.inner;
        let devices = inner.smgr.devices().into_iter().map(|dev| {
            let name = inner
                .smgr
                .with(dev, |m| Ok(m.device_name()))
                .unwrap_or_else(|_| dev.to_string());
            inner.stats.device(dev).freeze(dev.0, name)
        });
        inner.stats.freeze(inner.pool.stats(), devices.collect())
    }

    /// Registers a *virtual relation*: a read-only, query-visible relation
    /// whose rows are produced by `rows` when a scan of it opens instead of
    /// being stored. The POSTQUEL binder consults these before the catalog,
    /// so `retrieve (x.col) from x in <name>` works without any heap
    /// backing. The engine's own `pg_stat_*` relations are registered the
    /// same way at construction; Inversion adds `inv_stat`.
    pub fn register_virtual(
        &self,
        name: &str,
        schema: Schema,
        rows: impl Fn(&Db) -> Vec<Row> + Send + Sync + 'static,
    ) {
        self.inner.virtuals.register(name, schema, rows);
    }

    /// Looks up a registered virtual relation by name.
    pub fn virtual_table(&self, name: &str) -> Option<VirtualTable> {
        self.inner.virtuals.get(name)
    }

    /// The names of every registered virtual relation, sorted.
    pub fn virtual_names(&self) -> Vec<String> {
        self.inner.virtuals.names()
    }

    /// Allocates a fresh object identifier: [`XactLog::alloc_oid`], the xid
    /// counter's twin under the same unforced `Ceiling` log record, so it
    /// costs no I/O. After a crash no oid that a committed row or a device
    /// names is handed out again; one that nothing durable names may be.
    pub fn alloc_oid(&self) -> DbResult<crate::ids::Oid> {
        self.inner.xlog.alloc_oid(self.inner.status_io())
    }

    /// Runs `f` as one short internal transaction allowed to write the
    /// system relations, and commits it: the one way a catalog change
    /// becomes durable. It is a transaction of its own even when the caller
    /// is inside one — a relation created by a `p_creat` that later aborts
    /// still exists (hence `maintenance::collect_orphans`). Never called
    /// with the catalog lock held: `f` waits for relation locks.
    pub(crate) fn catalog_txn<T>(
        &self,
        f: impl FnOnce(&mut Session) -> DbResult<T>,
    ) -> DbResult<T> {
        let mut s = self.begin()?;
        s.system = true;
        let out = f(&mut s)?;
        s.commit()?;
        Ok(out)
    }

    /// Makes the cache's current entries for `ids` durable as `pg_class`
    /// rows, in one transaction. An entry that already has a row gets it
    /// replaced; the row is found by its remembered tid, so the cost does
    /// not grow with the catalog.
    pub(crate) fn store_class_rows(&self, ids: &[RelId]) -> DbResult<()> {
        let rows: Vec<(RelId, Option<Tid>, Row)> = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.inner.catalog.read();
            ids.iter()
                .map(|&id| Ok((id, cat.class_tid(id), cat.relation(id)?.to_row())))
                .collect::<DbResult<_>>()?
        };
        let stored = self.catalog_txn(|s| {
            rows.into_iter()
                .map(|(id, old, row)| {
                    if let Some(tid) = old {
                        s.delete(PG_CLASS, tid)?;
                    }
                    Ok((id, s.insert(PG_CLASS, row)?))
                })
                .collect::<DbResult<Vec<_>>>()
        })?;
        let mut cat = self.inner.catalog.write();
        for (id, tid) in stored {
            cat.set_class_tid(id, tid);
        }
        Ok(())
    }

    /// Flushes and empties every cache (buffer pool, device managers) —
    /// the benchmark's "all caches were flushed before each test". Runs a
    /// checkpoint first so the cleared pages' log records are not needed,
    /// and holds the cycle lock throughout: a background cycle starting
    /// between the checkpoint and the clear would pin the frames it flushes,
    /// and the clear refuses a pool with pins.
    pub fn flush_caches(&self) -> DbResult<()> {
        let _order = crate::lock::order::token(crate::lock::order::CHECKPOINTER);
        let _cycle = self.inner.ckpt.cycle.lock();
        Self::checkpoint_locked(&self.inner)?;
        self.inner.pool.flush_and_clear(&self.inner.smgr)?;
        self.inner.sync_devices()
    }

    /// Runs one checkpoint cycle now, on the calling thread: drain every
    /// dirty page, truncate the log.
    pub fn checkpoint(&self) -> DbResult<()> {
        Self::checkpoint_cycle(&self.inner)
    }

    /// Drops the database abruptly, as a crash would: the background
    /// checkpointer stops and the shutdown path is forbidden from writing
    /// anything (no final checkpoint). Crash tests call this before
    /// dropping the [`Db`] and discarding the devices' volatile caches.
    pub fn simulate_crash(&self) {
        self.inner.ckpt.crashed.store(true, SeqCst);
        self.inner.ckpt.stop.store(true, SeqCst);
        // Abort the I/O scheduler *before* joining the checkpointer: it may
        // be blocked in a queue barrier, and the abort is what unblocks it
        // (with an error). Queued-but-unwritten pages die here, exactly as
        // a crash with requests in flight would lose them.
        self.inner.smgr.io_abort();
        self.inner.ckpt.signal();
        let handle = self.inner.ckpt.thread.lock().take();
        if let Some(h) = handle {
            h.join().ok();
        }
    }

    /// Pauses or resumes the device workers — torture tests use this to
    /// pin requests in the queue while they arrange a crash.
    pub fn pause_io(&self, paused: bool) {
        self.inner.smgr.io_pause(paused);
    }

    /// Writes currently queued in the I/O scheduler across all devices.
    pub fn io_queue_depth(&self) -> usize {
        self.inner.smgr.io_depth()
    }

    /// Runs one checkpoint cycle under the cycle lock.
    fn checkpoint_cycle(inner: &DbInner) -> DbResult<()> {
        let _order = crate::lock::order::token(crate::lock::order::CHECKPOINTER);
        let _cycle = inner.ckpt.cycle.lock();
        Self::checkpoint_locked(inner)
    }

    /// One checkpoint cycle; the caller holds `ckpt.cycle`. The ordering is
    /// the whole correctness argument:
    ///
    /// 1. Capture the truncation cut — the log's append horizon *now*.
    ///    Every record below the cut stamped its page and marked it dirty
    ///    before this instant.
    /// 2. Sweep the pending-REDO map: touching each page runs first-touch
    ///    replay, and dirty-marking it puts it in the flush set.
    /// 3. Flush every dirty page (LSN-before-write forces the log first)
    ///    and sync the devices — now every record below the cut, outcomes
    ///    and id ceilings on status pages included, is reflected in durable
    ///    pages.
    /// 4. Truncate `[epoch, cut)`. Records at or above the cut (appended
    ///    while we flushed) survive in the log.
    ///
    /// After a failed device sync none runs: the log is all that holds
    /// what that sync may have dropped. Nor after a commit left a `Commit`
    /// on its status page that no `Abort` could take back.
    fn checkpoint_locked(inner: &DbInner) -> DbResult<()> {
        if inner.ckpt.crashed.load(SeqCst) {
            return Err(DbError::Invalid(
                "no checkpoint after a failed device sync or commit: reopen the database".into(),
            ));
        }
        let cut = inner.wal.mark_cut();
        for (dev, rel, blkno) in inner.redo.pages() {
            let present = inner.smgr.devices().contains(&dev)
                && inner.smgr.with(dev, |m| Ok(m.has_rel(rel)))?;
            if !present {
                // Dropped since recovery indexed it; nothing to sweep.
                inner.redo.forget((dev, rel, blkno));
                continue;
            }
            let frame = inner.pool.get_page(&inner.smgr, dev, rel, blkno)?;
            let _fl = crate::lock::order::token(crate::lock::order::BUFFER_FRAME);
            let mut guard = frame.write();
            // Replay ran inside the read; dirty-mark so the flush below
            // writes the replayed image out.
            guard.data_mut();
        }
        let drained = inner.pool.flush_all(&inner.smgr)?;
        inner.stats.wal.ckpt_pages_drained.add(drained as u64);
        inner.sync_devices()?;
        inner.wal.truncate_to(cut)?;
        inner.redo.clear();
        inner.stats.wal.checkpoints.bump();
        *inner.ckpt.last.lock() = inner.clock.now();
        Ok(())
    }

    /// Starts the background checkpointer. It parks on a condvar; the
    /// write paths signal it on log-space pressure or when the checkpoint
    /// interval has elapsed ([`DbInner::maybe_signal_checkpoint`]).
    fn spawn_checkpointer(&self) {
        let weak = Arc::downgrade(&self.inner);
        let ckpt = Arc::clone(&self.inner.ckpt);
        let spawned = std::thread::Builder::new()
            .name("checkpointer".into())
            .spawn(move || Self::checkpointer_loop(weak, ckpt));
        // A spawn failure (OS thread exhaustion) degrades gracefully: pages
        // drain through explicit checkpoints and eviction instead, and
        // recovery replays whatever never drained.
        if let Ok(handle) = spawned {
            *self.inner.ckpt.thread.lock() = Some(handle);
        }
    }

    fn checkpointer_loop(weak: Weak<DbInner>, ckpt: Arc<CheckpointState>) {
        loop {
            {
                let mut wake = ckpt.wake.lock();
                while !*wake && !ckpt.stop.load(SeqCst) {
                    ckpt.cv.wait(&mut wake);
                }
                *wake = false;
            }
            if ckpt.stop.load(SeqCst) {
                return;
            }
            // Holding only a Weak while parked lets the database die while
            // the thread sleeps; holding an Arc only inside a cycle means
            // the final drop (and its join) can land on this thread — the
            // shutdown path self-join-guards for exactly that.
            let Some(inner) = weak.upgrade() else { return };
            // Every write during a cycle raises the flag again, for the
            // crossing that cycle is already serving: ask again now, so one
            // crossing is one cycle and not a second, nearly empty one.
            if inner.checkpoint_wanted() {
                Self::checkpoint_cycle(&inner).ok();
            }
        }
    }

    /// Creates a heap table on the default device.
    pub fn create_table(&self, name: &str, schema: Schema) -> DbResult<RelId> {
        self.create_table_on(name, schema, DeviceId::DEFAULT, false)
    }

    /// Creates a heap table on a chosen device; `no_history` asks the vacuum
    /// cleaner to discard (not archive) dead versions.
    pub fn create_table_on(
        &self,
        name: &str,
        schema: Schema,
        dev: DeviceId,
        no_history: bool,
    ) -> DbResult<RelId> {
        let entry = RelationEntry {
            id: self.alloc_oid()?,
            name: name.to_string(),
            kind: RelKind::Heap,
            device: dev,
            schema,
            index: None,
            indexes: vec![],
            archive: None,
            no_history,
        };
        self.create_relation(entry, || Ok(()))
    }

    /// The one sequence that creates a relation: cache entry (which claims
    /// the name), storage registered on its device, `build` (an index's
    /// bulk load, logged like any insert), committed `pg_class` row. Nothing
    /// here syncs a device: the row's commit force makes the relation
    /// durable, and recovery gives a committed row its storage back (see
    /// [`Db::reconcile_storage`]). On failure the entry and its storage are
    /// taken back.
    fn create_relation(
        &self,
        entry: RelationEntry,
        build: impl FnOnce() -> DbResult<()>,
    ) -> DbResult<RelId> {
        let (id, dev) = (entry.id, entry.device);
        {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            self.inner.catalog.write().add_relation(entry)?;
        }
        let created = self
            .inner
            .smgr
            .with(dev, |m| m.create_rel(id))
            .and_then(|()| build())
            .and_then(|()| self.store_class_rows(&[id]));
        if created.is_err() {
            self.inner.catalog.write().remove_relation(id).ok();
            self.inner.pool.discard_rel(id);
            self.inner.smgr.with(dev, |m| m.drop_rel(id)).ok();
        }
        created.map(|()| id)
    }

    /// Creates a B-tree index named `name` on `table(columns...)`, on the
    /// same device as the table, backfilling entries for every existing
    /// tuple version (historical versions stay reachable through it).
    pub fn create_index(&self, name: &str, table: RelId, columns: &[&str]) -> DbResult<RelId> {
        self.build_index(name, table, columns, false)
    }

    /// [`Db::create_index`] for a *versioned-unique* key: the caller
    /// declares that under any one snapshot at most one version per key is
    /// visible (see [`IndexInfo::unique`]), and keeps it so — nothing here
    /// probes on insert. In return a probe stops at the first visible
    /// version instead of fetching every version the key ever had.
    pub fn create_unique_index(
        &self,
        name: &str,
        table: RelId,
        columns: &[&str],
    ) -> DbResult<RelId> {
        self.build_index(name, table, columns, true)
    }

    fn build_index(
        &self,
        name: &str,
        table: RelId,
        columns: &[&str],
        unique: bool,
    ) -> DbResult<RelId> {
        let (dev, key_columns) = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.inner.catalog.read();
            let t = cat.relation(table)?;
            if t.kind != RelKind::Heap {
                return Err(DbError::Invalid(format!("{name}: {table} is not a heap")));
            }
            let mut key_columns = Vec::with_capacity(columns.len());
            for c in columns {
                key_columns.push(t.schema.column_index(c).ok_or_else(|| {
                    DbError::NotFound(format!("column \"{c}\" of \"{}\"", t.name))
                })?);
            }
            (t.device, key_columns)
        };
        let id = self.alloc_oid()?;
        let entry = RelationEntry {
            id,
            name: name.to_string(),
            kind: RelKind::BTreeIndex,
            device: dev,
            schema: Schema::default(),
            index: Some(IndexInfo {
                table,
                key_columns: key_columns.clone(),
                unique,
            }),
            indexes: vec![],
            archive: None,
            no_history: false,
        };
        self.create_relation(entry, || {
            let wal = Some(&*self.inner.wal);
            let bt = BTree {
                pool: &self.inner.pool,
                smgr: &self.inner.smgr,
                stats: &self.inner.stats,
                dev,
                rel: id,
                wal,
            };
            bt.create()?;
            // Backfill from every tuple version in the heap.
            let heap = Heap {
                pool: &self.inner.pool,
                smgr: &self.inner.smgr,
                xlog: &self.inner.xlog,
                stats: &self.inner.stats,
                dev,
                rel: table,
                wal,
            };
            heap.scan_all_raw(|tid, _hdr, row_bytes| {
                let row = decode_row(row_bytes)?;
                let key: Vec<Datum> = key_columns.iter().map(|&i| row[i].clone()).collect();
                bt.insert(&key, tid)
            })
        })
    }

    /// Drops a table (and its indices and archive) or a single index.
    pub fn drop_relation(&self, name: &str) -> DbResult<()> {
        let victims: Vec<(RelationEntry, Option<Tid>)> = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.inner.catalog.read();
            let entry = cat.relation_by_name(name)?;
            if Catalog::is_system(entry.id) {
                return Err(DbError::Invalid(format!(
                    "\"{name}\" is a system relation"
                )));
            }
            let mut ids = vec![entry.id];
            if entry.kind == RelKind::Heap {
                ids.extend(entry.indexes.iter().chain(&entry.archive));
            }
            ids.into_iter()
                .map(|id| Ok((cat.relation(id)?.clone(), cat.class_tid(id))))
                .collect::<DbResult<_>>()?
        };
        // Mirror image of the create ordering: the rows go first, in one
        // transaction, then the storage. A crash in between leaves storage
        // that no row names (released on reopening) instead of rows that
        // point at nothing; a failed commit leaves everything as it was.
        self.catalog_txn(|s| {
            for tid in victims.iter().filter_map(|(_, tid)| *tid) {
                s.delete(PG_CLASS, tid)?;
            }
            Ok(())
        })?;
        {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let mut cat = self.inner.catalog.write();
            for (v, _) in &victims {
                cat.remove_relation(v.id)?;
            }
        }
        for (v, _) in &victims {
            self.inner.pool.discard_rel(v.id);
            self.inner.smgr.with(v.device, |m| m.drop_rel(v.id))?;
        }
        Ok(())
    }

    /// Registers a new file/database type (`define type` in the paper).
    pub fn define_type(&self, name: &str) -> DbResult<TypeId> {
        let entry = TypeEntry {
            id: TypeId(self.alloc_oid()?.0),
            name: name.to_string(),
        };
        let (id, row) = (entry.id, entry.to_row());
        self.inner.catalog.write().define_type(entry)?;
        self.catalog_txn(|s| s.insert(PG_TYPE, row))?;
        Ok(id)
    }

    /// Registers a function definition; its implementation must be (or
    /// become) available in [`Db::functions`] under `impl_key`.
    pub fn define_function(
        &self,
        name: &str,
        nargs: usize,
        ret: TypeId,
        impl_key: &str,
        operates_on: Option<TypeId>,
    ) -> DbResult<()> {
        let entry = ProcEntry {
            name: name.to_string(),
            nargs,
            ret,
            impl_key: impl_key.to_string(),
            operates_on,
        };
        let row = entry.to_row();
        self.inner.catalog.write().define_proc(entry)?;
        self.catalog_txn(|s| s.insert(PG_PROC, row)).map(drop)
    }

    /// Registers a predicate rule (see [`crate::rules`]).
    pub fn define_rule(&self, rule: RuleEntry) -> DbResult<()> {
        let row = rule.to_row();
        self.inner.catalog.write().define_rule(rule)?;
        self.catalog_txn(|s| s.insert(PG_RULE, row)).map(drop)
    }

    /// Resolves a function by query-language name to a callable.
    pub fn resolve_function(&self, name: &str) -> DbResult<FuncDef> {
        let (nargs, key) = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.inner.catalog.read();
            let p = cat.proc(name)?;
            (p.nargs, p.impl_key.clone())
        };
        Ok(FuncDef {
            name: name.to_string(),
            nargs,
            imp: self.inner.funcs.resolve(&key)?,
        })
    }

    /// Begins a read/write transaction.
    pub fn begin(&self) -> DbResult<Session> {
        let xid = self.inner.xlog.start(self.inner.status_io())?;
        let mut active = self.inner.xlog.active_set();
        active.remove(&xid);
        Ok(Session {
            db: self.clone(),
            xid: Some(xid),
            snapshot: Snapshot::Current { xid, active },
            done: false,
            wrote: false,
            system: false,
        })
    }

    /// Opens a read-only session onto the database as it was at `t` —
    /// fine-grained time travel.
    pub fn snapshot_at(&self, t: SimInstant) -> Session {
        Session {
            db: self.clone(),
            xid: None,
            snapshot: Snapshot::AsOf(t),
            done: false,
            wrote: false,
            system: false,
        }
    }

    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> DbResult<RelId> {
        Ok(self.inner.catalog.read().relation_by_name(name)?.id)
    }

    /// The schema of a heap relation.
    pub fn schema_of(&self, rel: RelId) -> DbResult<Schema> {
        Ok(self.inner.catalog.read().relation(rel)?.schema.clone())
    }

    /// Finds an index of `table` whose key columns are exactly `cols`.
    pub fn find_index(&self, table: RelId, cols: &[usize]) -> Option<RelId> {
        let _order = crate::lock::order::token(crate::lock::order::CATALOG);
        let cat = self.inner.catalog.read();
        let t = cat.relation(table).ok()?;
        for &idx in &t.indexes {
            if let Ok(e) = cat.relation(idx) {
                if let Some(info) = &e.index {
                    if info.key_columns == cols {
                        return Some(idx);
                    }
                }
            }
        }
        None
    }

    /// Number of pages allocated to a relation, heap or index. The count
    /// comes from the storage manager's in-memory block map, so reading it
    /// costs no device I/O — the planner uses it as its cardinality input.
    pub fn relation_pages(&self, rel: RelId) -> DbResult<u64> {
        let dev = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            self.inner.catalog.read().relation(rel)?.device
        };
        self.inner.smgr.with(dev, |m| m.nblocks(rel))
    }

    pub(crate) fn heap_parts(&self, rel: RelId) -> DbResult<HeapParts> {
        let _order = crate::lock::order::token(crate::lock::order::CATALOG);
        let cat = self.inner.catalog.read();
        let e = cat.relation(rel)?;
        if e.kind != RelKind::Heap {
            return Err(DbError::Invalid(format!("{rel} is not a heap")));
        }
        let mut indexes = Vec::new();
        for &idx in &e.indexes {
            let ie = cat.relation(idx)?;
            let info = ie
                .index
                .as_ref()
                .ok_or_else(|| DbError::Corrupt(format!("index {idx} without index info")))?;
            indexes.push((idx, info.key_columns.clone()));
        }
        Ok((e.device, indexes))
    }
}

/// Recovery's allocation fixup: every logged page on `devices` past its
/// relation's end gets a block, so first-touch replay finds a page to read
/// — zero-filled, because open extents are not persisted: the block may be
/// one an eviction before the crash filled with another relation's newer
/// page, whose LSN would gate out every record of this one. Address order
/// makes each relation's new blocks one run of the map.
pub(crate) fn cover_logged_pages(smgr: &Smgr, redo: &Redo, devices: &[DeviceId]) -> DbResult<()> {
    let zeros = vec![0u8; simdev::BLOCK_SIZE];
    let mut pages = redo.pages();
    pages.retain(|(dev, _, _)| devices.contains(dev));
    pages.sort_unstable();
    for (dev, rel, blkno) in pages {
        smgr.with(dev, |m| {
            if m.has_rel(rel) {
                for _ in m.nblocks(rel)?..=blkno {
                    m.extend(rel, &zeros)?;
                }
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// A heap's device plus its indices with their key columns.
pub(crate) type HeapParts = (DeviceId, Vec<(RelId, Vec<usize>)>);

/// What an index probe needs to know of its index.
struct IndexMeta {
    index: RelId,
    table: RelId,
    dev: DeviceId,
    key_columns: Vec<usize>,
    unique: bool,
}

/// The keys an index probe covers.
#[derive(Clone, Copy)]
enum Keys<'a> {
    /// Exactly this key.
    Eq(&'a [Datum]),
    /// Every key in `lo..=hi` (`None` = unbounded).
    Between(Option<&'a [Datum]>, Option<&'a [Datum]>),
}

/// One client's transactional (or historical) view of a [`Db`].
pub struct Session {
    pub(crate) db: Db,
    xid: Option<XactId>,
    snapshot: Snapshot,
    done: bool,
    wrote: bool,
    /// Set only by [`Db::catalog_txn`]: this session may write the system
    /// relations.
    system: bool,
}

impl Session {
    /// The owning database.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The session's transaction id, if it is a writing session.
    pub fn xid(&self) -> Option<XactId> {
        self.xid
    }

    /// The session's snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Whether this session can write.
    pub fn is_writable(&self) -> bool {
        !self.done && self.snapshot.is_writable()
    }

    fn writable_xid(&self) -> DbResult<XactId> {
        if self.done {
            return Err(DbError::NoTransaction);
        }
        self.xid.ok_or(DbError::ReadOnly)
    }

    /// [`Session::writable_xid`] for a write to `rel`. The system
    /// relations change only through the DDL entry points, which keep the
    /// catalog cache and the devices in step with the rows.
    fn writable_xid_on(&self, rel: RelId) -> DbResult<XactId> {
        if Catalog::is_system(rel) && !self.system {
            return Err(DbError::Invalid(format!(
                "{rel} is a system relation: it changes only through DDL"
            )));
        }
        self.writable_xid()
    }

    fn lock(&self, rel: RelId, mode: LockMode) -> DbResult<()> {
        // Purely historical sessions read immutable versions: no locks.
        let Some(xid) = self.xid else { return Ok(()) };
        // Catalog reads are plain snapshot reads. A shared lock held to
        // commit would block the DDL transaction that the reader's own
        // `create_table` runs — a wait no deadlock detector can see.
        if mode == LockMode::Shared && Catalog::is_system(rel) {
            return Ok(());
        }
        self.db.inner.locks.acquire(xid, rel, mode)
    }

    /// Takes `rel`'s exclusive lock ahead of a write, without touching any
    /// page. Write paths take this lock implicitly; taking it *before* an
    /// existence check lets the check run under [`Session::fresh_snapshot`]
    /// with no conflicting writer still in flight.
    pub fn lock_exclusive(&self, rel: RelId) -> DbResult<()> {
        self.writable_xid()?;
        self.lock(rel, LockMode::Exclusive)
    }

    /// A snapshot refreshed to the present: this transaction's own writes
    /// plus everything committed *by now*, not just by transaction start.
    /// Uniqueness-style checks ahead of a write must re-read under this
    /// (holding the relation's exclusive lock): the begin-time snapshot
    /// cannot see a conflicting row committed after this transaction
    /// began, so checking against it lets two sessions both conclude a
    /// key is free and both claim it (write skew on the check).
    pub fn fresh_snapshot(&self) -> Snapshot {
        match self.xid {
            Some(xid) => {
                let mut active = self.db.inner.xlog.active_set();
                active.remove(&xid);
                Snapshot::Current { xid, active }
            }
            None => self.snapshot.clone(),
        }
    }

    /// Like [`Session::lock`], but skipped entirely when the operation runs
    /// under an explicit historical snapshot — old committed versions are
    /// immutable, so readers of the past need no 2PL and never block.
    fn lock_for(&self, rel: RelId, mode: LockMode, snap: &Snapshot) -> DbResult<()> {
        match snap {
            Snapshot::Current { .. } => self.lock(rel, mode),
            Snapshot::AsOf(_) | Snapshot::Dirty => Ok(()),
        }
    }

    fn heap<'a>(&'a self, rel: RelId, dev: DeviceId) -> Heap<'a> {
        Heap {
            pool: &self.db.inner.pool,
            smgr: &self.db.inner.smgr,
            xlog: &self.db.inner.xlog,
            stats: &self.db.inner.stats,
            dev,
            rel,
            wal: Some(&self.db.inner.wal),
        }
    }

    fn btree<'a>(&'a self, rel: RelId, dev: DeviceId) -> BTree<'a> {
        BTree {
            pool: &self.db.inner.pool,
            smgr: &self.db.inner.smgr,
            stats: &self.db.inner.stats,
            dev,
            rel,
            wal: Some(&self.db.inner.wal),
        }
    }

    /// Inserts `row` into `rel`, maintaining its indices.
    pub fn insert(&mut self, rel: RelId, row: Row) -> DbResult<Tid> {
        let xid = self.writable_xid_on(rel)?;
        let (dev, indexes) = self.db.heap_parts(rel)?;
        {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.db.inner.catalog.read();
            let schema = &cat.relation(rel)?.schema;
            if row.len() != schema.len() {
                return Err(DbError::Bind(format!(
                    "relation \"{}\" has {} columns, row has {}",
                    cat.relation(rel)?.name,
                    schema.len(),
                    row.len()
                )));
            }
        }
        self.lock(rel, LockMode::Exclusive)?;
        self.wrote = true;
        let tid = self.heap(rel, dev).insert(xid, &row)?;
        for (idx, cols) in &indexes {
            let key: Vec<Datum> = cols.iter().map(|&i| row[i].clone()).collect();
            self.btree(*idx, dev).insert(&key, tid)?;
        }
        // The POSTGRES 4.0.1 emulation (see `DbConfig`): under replacement
        // pressure (pool full), index pages go out interleaved with data
        // pages — the effect behind the paper's slow 25 MB create.
        if self.db.inner.config.eager_index_writes
            && self.db.inner.pool.len() + 1 >= self.db.inner.pool.capacity()
        {
            for (idx, _) in &indexes {
                let written = self.db.inner.pool.flush_rel(&self.db.inner.smgr, *idx)?;
                self.db.inner.stats.btree.page_writes.add(written as u64);
            }
        }
        self.db.inner.maybe_signal_checkpoint();
        Ok(tid)
    }

    /// Deletes the tuple at `tid`. Returns `false` if already deleted.
    pub fn delete(&mut self, rel: RelId, tid: Tid) -> DbResult<bool> {
        let xid = self.writable_xid_on(rel)?;
        let (dev, _) = self.db.heap_parts(rel)?;
        self.lock(rel, LockMode::Exclusive)?;
        self.wrote = true;
        let deleted = self.heap(rel, dev).delete(xid, tid)?;
        self.db.inner.maybe_signal_checkpoint();
        Ok(deleted)
    }

    /// Replaces the tuple at `tid` with `row` (no-overwrite: old version
    /// stays), maintaining indices for the new version.
    pub fn update(&mut self, rel: RelId, tid: Tid, row: Row) -> DbResult<Tid> {
        if !self.delete(rel, tid)? {
            return Err(DbError::Invalid(format!(
                "tuple {tid} concurrently deleted"
            )));
        }
        self.insert(rel, row)
    }

    /// Fetches the row at `tid` if visible to this session.
    pub fn fetch(&mut self, rel: RelId, tid: Tid) -> DbResult<Option<Row>> {
        let (dev, _) = self.db.heap_parts(rel)?;
        self.lock(rel, LockMode::Shared)?;
        let snap = self.snapshot.clone();
        self.heap(rel, dev).fetch(&snap, tid)
    }

    /// Scans `rel`, returning every visible row (with its tuple id).
    pub fn seq_scan(&mut self, rel: RelId) -> DbResult<Vec<(Tid, Row)>> {
        let snap = self.snapshot.clone();
        self.scan_with_snapshot(rel, &snap)
    }

    /// Scans `rel` under an explicit snapshot (time-travel queries inside a
    /// current session use this). Historical scans also search the archive
    /// relation the vacuum cleaner may have moved old versions to.
    pub fn scan_with_snapshot(&mut self, rel: RelId, snap: &Snapshot) -> DbResult<Vec<(Tid, Row)>> {
        let (dev, _) = self.db.heap_parts(rel)?;
        self.lock_for(rel, LockMode::Shared, snap)?;
        let mut out = self.heap(rel, dev).scan_collect(snap)?;
        if let Snapshot::AsOf(t) = snap {
            self.for_each_archived(rel, |amin, amax, tid, row| {
                if amin <= *t && *t < amax {
                    out.push((tid, decode_row(row)?));
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Scans every tuple version whose inserting transaction *committed*,
    /// regardless of later deletion — "everything that was ever real".
    /// Garbage collectors use this to distinguish historical references
    /// from the debris of aborted transactions.
    pub fn scan_committed_versions(&mut self, rel: RelId) -> DbResult<Vec<Row>> {
        let (dev, _) = self.db.heap_parts(rel)?;
        self.lock(rel, LockMode::Shared)?;
        let heap = self.heap(rel, dev);
        let mut out = Vec::new();
        heap.scan_all_raw(|_tid, hdr, bytes| {
            if matches!(heap.state(hdr.xmin)?, crate::xact::XactState::Committed(_)) {
                out.push(decode_row(bytes)?);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Scans every committed tuple version of `rel` with its lifetime:
    /// `(created_at, deleted_at, row)` where `deleted_at` is `None` for
    /// live versions. Includes versions the vacuum cleaner moved to the
    /// archive. This is the raw material for version-history listings.
    pub fn scan_version_history(
        &mut self,
        rel: RelId,
    ) -> DbResult<Vec<(SimInstant, Option<SimInstant>, Row)>> {
        let (dev, _) = self.db.heap_parts(rel)?;
        self.lock(rel, LockMode::Shared)?;
        let mut out = Vec::new();
        {
            let heap = self.heap(rel, dev);
            heap.scan_all_raw(|_tid, hdr, bytes| {
                let crate::xact::XactState::Committed(t0) = heap.state(hdr.xmin)? else {
                    return Ok(());
                };
                let t1 = match heap.state(hdr.xmax)? {
                    crate::xact::XactState::Committed(t) => Some(t),
                    _ => None,
                };
                out.push((t0, t1, decode_row(bytes)?));
                Ok(())
            })?;
        }
        // Archived versions carry explicit lifetimes.
        self.for_each_archived(rel, |t0, t1, _tid, row| {
            out.push((t0, Some(t1), decode_row(row)?));
            Ok(())
        })?;
        out.sort_by_key(|(t0, _, _)| *t0);
        Ok(out)
    }

    /// Calls `f(amin, amax, tid, row bytes)` for every version the vacuum
    /// cleaner moved to `rel`'s archive, whose tuples are `(amin time, amax
    /// time, original row bytes)`: the version was current from `amin` up
    /// to `amax`. A relation without an archive has none.
    fn for_each_archived(
        &self,
        rel: RelId,
        mut f: impl FnMut(SimInstant, SimInstant, Tid, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        let (arch, arch_dev) = {
            let _order = crate::lock::order::token(crate::lock::order::CATALOG);
            let cat = self.db.inner.catalog.read();
            match cat.relation(rel)?.archive {
                Some(a) => (a, cat.relation(a)?.device),
                None => return Ok(()),
            }
        };
        self.heap(arch, arch_dev).scan_visible(&Snapshot::Dirty, |tid, row| {
            let amin = SimInstant::from_nanos(row[0].as_int()? as u64);
            let amax = SimInstant::from_nanos(row[1].as_int()? as u64);
            f(amin, amax, tid, row[2].as_bytes()?)?;
            Ok(true)
        })
    }

    /// Point lookup through an index: rows of `rel` where the indexed
    /// columns equal `key`, filtered by visibility, newest version first.
    pub fn index_scan_eq(&mut self, index: RelId, key: &[Datum]) -> DbResult<Vec<(Tid, Row)>> {
        let snap = self.snapshot.clone();
        self.index_scan_eq_with(index, key, &snap)
    }

    /// [`Session::index_scan_eq`] under an explicit snapshot.
    ///
    /// Historical snapshots also search the table's archive relation: the
    /// vacuum cleaner may have moved the versions visible at that instant
    /// out of the heap (and rebuilt the index without them).
    pub fn index_scan_eq_with(
        &mut self,
        index: RelId,
        key: &[Datum],
        snap: &Snapshot,
    ) -> DbResult<Vec<(Tid, Row)>> {
        let ix = self.index_meta(index)?;
        let mut out = Vec::new();
        self.index_probe(ix, Keys::Eq(key), snap, decode_row, |tid, row| {
            out.push((tid, row));
            Ok(true)
        })?;
        Ok(out)
    }

    /// The one row `key` names in a unique index under `snap` (`None` = the
    /// session's own snapshot), or `None` if no version is visible. Costs
    /// one heap fetch per version newer than the visible one, plus one.
    pub fn index_lookup_unique(
        &mut self,
        index: RelId,
        key: &[Datum],
        snap: Option<&Snapshot>,
    ) -> DbResult<Option<(Tid, Row)>> {
        self.lookup_unique(index, key, snap, decode_row)
    }

    /// [`Session::index_lookup_unique`] for a caller about to replace or
    /// delete the row: its tuple id alone. The heap page is still read
    /// (visibility lives in the tuple header) but the row is not decoded.
    pub fn index_lookup_unique_tid(&mut self, index: RelId, key: &[Datum]) -> DbResult<Option<Tid>> {
        let hit = self.lookup_unique(index, key, None, |_| Ok(()))?;
        Ok(hit.map(|(tid, ())| tid))
    }

    fn lookup_unique<T>(
        &self,
        index: RelId,
        key: &[Datum],
        snap: Option<&Snapshot>,
        read: impl Fn(&[u8]) -> DbResult<T>,
    ) -> DbResult<Option<(Tid, T)>> {
        let ix = self.index_meta(index)?;
        if !ix.unique {
            return Err(DbError::Invalid(format!(
                "{index} is not a unique index: a key may have several visible rows"
            )));
        }
        let snap = snap.unwrap_or(&self.snapshot);
        let mut hit = None;
        self.index_probe(ix, Keys::Eq(key), snap, read, |tid, v| {
            hit = Some((tid, v));
            Ok(false)
        })?;
        Ok(hit)
    }

    /// Range scan through an index (`lo..=hi`, `None` = unbounded), calling
    /// `f(tid, row)` for each visible row in key order; `f` returns `false`
    /// to stop early.
    pub fn index_scan_range(
        &mut self,
        index: RelId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        f: impl FnMut(Tid, Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let ix = self.index_meta(index)?;
        self.index_probe(ix, Keys::Between(lo, hi), &self.snapshot, decode_row, f)
    }

    /// The tuple ids [`Session::index_scan_range`] would visit, without
    /// decoding a row — what a truncate needs of the chunks it drops.
    pub fn index_range_tids(
        &mut self,
        index: RelId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
    ) -> DbResult<Vec<Tid>> {
        let ix = self.index_meta(index)?;
        let mut out = Vec::new();
        let tid_only = |_: &[u8]| Ok(());
        self.index_probe(ix, Keys::Between(lo, hi), &self.snapshot, tid_only, |tid, ()| {
            out.push(tid);
            Ok(true)
        })?;
        Ok(out)
    }

    fn index_meta(&self, index: RelId) -> DbResult<IndexMeta> {
        let _order = crate::lock::order::token(crate::lock::order::CATALOG);
        let cat = self.db.inner.catalog.read();
        let ie = cat.relation(index)?;
        let info = ie
            .index
            .as_ref()
            .ok_or_else(|| DbError::Invalid(format!("{index} is not an index")))?;
        Ok(IndexMeta {
            index,
            table: info.table,
            dev: ie.device,
            key_columns: info.key_columns.clone(),
            unique: info.unique,
        })
    }

    /// The one index probe: every index read of a session comes through
    /// here. For each key in `keys`, in key order, it visits the versions
    /// filed under that key newest first, fetches each from the heap
    /// through `read` (see [`Heap::fetch_with`]) and hands the ones visible
    /// under `snap` to `emit`, which returns `false` to end the probe.
    ///
    /// On a unique index at most one version per key is visible to a
    /// `Current` or `AsOf` snapshot, so a key is done at its first visible
    /// version: one heap fetch for a current reader however long the
    /// version chain, (versions newer than *t*) + 1 for `AsOf(t)`.
    /// `Snapshot::Dirty` sees every version, and a non-unique index may
    /// hold several visible rows per key; for those no key ends early.
    ///
    /// A historical point probe also searches the table's archive — the
    /// vacuum cleaner may have moved the version visible at that instant
    /// out of the heap and rebuilt the index without it — unless the index
    /// is unique and the heap already answered.
    fn index_probe<T>(
        &self,
        ix: IndexMeta,
        keys: Keys<'_>,
        snap: &Snapshot,
        read: impl Fn(&[u8]) -> DbResult<T>,
        mut emit: impl FnMut(Tid, T) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.lock_for(ix.table, LockMode::Shared, snap)?;
        let one_per_key = ix.unique && !matches!(snap, Snapshot::Dirty);
        let bt = self.btree(ix.index, ix.dev);
        let heap = self.heap(ix.table, ix.dev);
        let found = Cell::new(false);
        let go_on = Cell::new(true);
        // One version; says whether to go on to the key's next older one.
        let mut visit = |tid: Tid| -> DbResult<bool> {
            let Some(v) = heap.fetch_with(snap, tid, &read)? else {
                return Ok(true);
            };
            found.set(true);
            go_on.set(emit(tid, v)?);
            Ok(go_on.get() && !one_per_key)
        };
        match keys {
            Keys::Eq(key) => bt.scan_key_newest_first(key, &mut visit)?,
            Keys::Between(lo, hi) => {
                // Leaf order is (key, tid) ascending: collect each key's
                // run, then visit it from its newest end.
                let mut run: Vec<Tid> = Vec::new();
                let mut run_key: Vec<Datum> = Vec::new();
                let mut flush = |run: &mut Vec<Tid>| -> DbResult<bool> {
                    for tid in run.drain(..).rev() {
                        if !visit(tid)? {
                            break;
                        }
                    }
                    Ok(go_on.get())
                };
                bt.scan(lo, hi, |k, tid| {
                    if run_key != k {
                        if !flush(&mut run)? {
                            return Ok(false);
                        }
                        run_key = k.to_vec();
                    }
                    run.push(tid);
                    Ok(true)
                })?;
                flush(&mut run)?;
            }
        }
        let (Snapshot::AsOf(t), Keys::Eq(key)) = (snap, keys) else {
            return Ok(());
        };
        if !go_on.get() || (one_per_key && found.get()) {
            return Ok(());
        }
        let matches = |row: &Row| {
            ix.key_columns.len() == key.len()
                && ix
                    .key_columns
                    .iter()
                    .zip(key)
                    .all(|(&c, k)| row[c].cmp_total(k) == std::cmp::Ordering::Equal)
        };
        self.for_each_archived(ix.table, |amin, amax, tid, row| {
            if go_on.get() && amin <= *t && *t < amax && matches(&decode_row(row)?) {
                go_on.set(emit(tid, read(row)?)?);
            }
            Ok(())
        })
    }

    /// Commits the transaction. No-force: no data page is written. The
    /// transaction's REDO records are already in the log, so commit is one
    /// `Commit` record and a log force up to it. The transaction leaves the
    /// running set only after the force succeeds; the durable commit point
    /// is the force itself.
    pub fn commit(&mut self) -> DbResult<()> {
        if self.done {
            return Err(DbError::NoTransaction);
        }
        self.done = true;
        let Some(xid) = self.xid else {
            return Ok(()); // Historical sessions end trivially.
        };
        let inner = &self.db.inner;
        let t0 = inner.clock.now();
        // A hair of commit processing keeps commit timestamps strictly
        // monotone even if no device advanced the clock.
        inner.clock.advance(SimDuration::from_micros(1));
        let result = if self.wrote {
            // Aborts the transaction itself if it fails.
            Self::commit_written(inner, xid)
        } else {
            // Read-only: nothing to log, no force, no status page touched.
            inner.xlog.finish(xid)
        };
        if result.is_ok() {
            inner.stats.xact.commits.bump();
        }
        inner.locks.release_all(xid);
        inner
            .stats
            .xact
            .commit_latency
            .record(inner.clock.now().since(t0).as_nanos());
        inner.maybe_signal_checkpoint();
        result
    }

    /// The one sequence that commits a write transaction: log the `Commit`
    /// record onto its status page, make the log durable up to it, take the
    /// transaction out of the running set. That follows the force, never
    /// precedes it: no
    /// snapshot may see a transaction whose commit record could still be
    /// lost. `forced` is false when a concurrent committer's force already
    /// covered this record — the commit is just as durable, and cost no
    /// sync of its own. A commit whose record never became durable is
    /// aborted by definition; the abort takes back a `Commit` only if one
    /// reached the status page.
    fn commit_written(inner: &DbInner, xid: XactId) -> DbResult<()> {
        let now = inner.clock.now();
        let commit = WalRecord::Commit {
            xid,
            time_ns: now.as_nanos(),
        };
        let aborted = |after_commit| drop(Self::end_aborted(inner, xid, after_commit));
        let lsn = inner.xlog.log_outcome(inner.status_io(), &commit).inspect_err(|_| aborted(false))?;
        let forced = inner.wal.force_up_to(lsn).inspect_err(|_| aborted(true))?;
        inner.xlog.finish(xid)?;
        let stats = &inner.stats.xact;
        stats.batched_records.bump();
        if forced {
            stats.sync_calls.bump();
            inner.stats.wal.forces_commit.bump();
        } else {
            stats.group_commits.bump();
        }
        Ok(())
    }

    /// The one sequence that aborts any transaction — an explicit
    /// [`Session::abort`], a dropped session, a commit that failed: take it
    /// out of the running set and release the locks. Nothing is written or
    /// synced, because after a crash the absence of a durable `Commit`
    /// record already means aborted. An unforced `Abort` record is logged
    /// in one case only, `after_commit`: behind the `Commit` record of a
    /// commit whose *force* failed, so that if a later force carries both
    /// to the device, restart reads the outcome the client was told. If
    /// that append fails, the database goes down as after a failed sync:
    /// the transaction stays running, so no snapshot reads the `Commit` its
    /// status page holds, and it blocks vacuum and writes to the rows it
    /// deleted until the reopen that the refused checkpoints demand.
    fn end_aborted(inner: &DbInner, xid: XactId, after_commit: bool) -> DbResult<()> {
        let logged = match after_commit {
            true => inner.xlog.log_outcome(inner.status_io(), &WalRecord::Abort { xid }).map(drop),
            false => Ok(()),
        };
        if logged.is_err() {
            inner.ckpt.crashed.store(true, SeqCst);
        }
        let result = logged.and_then(|()| inner.xlog.finish(xid));
        inner.stats.xact.aborts.bump();
        inner.locks.release_all(xid);
        result
    }

    /// Aborts the transaction; all its updates become permanently invisible.
    pub fn abort(&mut self) -> DbResult<()> {
        if self.done {
            return Err(DbError::NoTransaction);
        }
        self.done = true;
        match self.xid {
            Some(xid) => Self::end_aborted(&self.db.inner, xid, false),
            None => Ok(()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.done {
            if let Some(xid) = self.xid {
                Self::end_aborted(&self.db.inner, xid, false).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_table() -> (Db, RelId) {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table(
                "emp",
                Schema::new([("name", TypeId::TEXT), ("age", TypeId::INT4)]),
            )
            .unwrap();
        (db, rel)
    }

    fn emp(name: &str, age: i32) -> Row {
        vec![Datum::Text(name.into()), Datum::Int4(age)]
    }

    #[test]
    fn insert_commit_read() {
        let (db, rel) = db_with_table();
        let mut s = db.begin().unwrap();
        s.insert(rel, emp("mao", 29)).unwrap();
        s.insert(rel, emp("mike", 45)).unwrap();
        s.commit().unwrap();

        let mut r = db.begin().unwrap();
        let rows = r.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), 2);
        r.commit().unwrap();
    }

    #[test]
    fn abort_discards_updates() {
        let (db, rel) = db_with_table();
        let mut s = db.begin().unwrap();
        s.insert(rel, emp("ghost", 0)).unwrap();
        s.abort().unwrap();
        let mut r = db.begin().unwrap();
        assert!(r.seq_scan(rel).unwrap().is_empty());
        r.commit().unwrap();
    }

    #[test]
    fn dropped_session_aborts() {
        let (db, rel) = db_with_table();
        {
            let mut s = db.begin().unwrap();
            s.insert(rel, emp("ghost", 0)).unwrap();
            // Dropped without commit.
        }
        let mut r = db.begin().unwrap();
        assert!(r.seq_scan(rel).unwrap().is_empty());
        r.commit().unwrap();
    }

    #[test]
    fn wrong_arity_rejected() {
        let (db, rel) = db_with_table();
        let mut s = db.begin().unwrap();
        assert!(matches!(
            s.insert(rel, vec![Datum::Int4(1)]),
            Err(DbError::Bind(_))
        ));
        s.abort().unwrap();
    }

    #[test]
    fn update_and_time_travel() {
        let (db, rel) = db_with_table();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, emp("mao", 29)).unwrap();
        s.commit().unwrap();
        let t_young = db.now();

        let mut s = db.begin().unwrap();
        s.update(rel, tid, emp("mao", 30)).unwrap();
        s.commit().unwrap();

        // Present: one row, age 30.
        let mut r = db.begin().unwrap();
        let rows = r.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Datum::Int4(30));
        r.commit().unwrap();

        // The past: age 29.
        let mut h = db.snapshot_at(t_young);
        let rows = h.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Datum::Int4(29));
        assert!(!h.is_writable());
        assert!(matches!(h.insert(rel, emp("x", 1)), Err(DbError::ReadOnly)));
    }

    #[test]
    fn index_scan_finds_visible_versions_only() {
        let (db, rel) = db_with_table();
        let idx = db.create_index("emp_age", rel, &["age"]).unwrap();
        let mut s = db.begin().unwrap();
        let tid = s.insert(rel, emp("mao", 29)).unwrap();
        s.insert(rel, emp("mike", 29)).unwrap();
        s.insert(rel, emp("margo", 31)).unwrap();
        s.commit().unwrap();

        let mut r = db.begin().unwrap();
        let rows = r.index_scan_eq(idx, &[Datum::Int4(29)]).unwrap();
        assert_eq!(rows.len(), 2);
        r.commit().unwrap();

        // Delete one and re-check.
        let mut s = db.begin().unwrap();
        s.delete(rel, tid).unwrap();
        s.commit().unwrap();
        let mut r = db.begin().unwrap();
        let rows = r.index_scan_eq(idx, &[Datum::Int4(29)]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Datum::Text("mike".into()));
        r.commit().unwrap();
    }

    #[test]
    fn index_backfill_covers_preexisting_rows() {
        let (db, rel) = db_with_table();
        let mut s = db.begin().unwrap();
        s.insert(rel, emp("early", 10)).unwrap();
        s.commit().unwrap();
        let idx = db.create_index("emp_age", rel, &["age"]).unwrap();
        let mut r = db.begin().unwrap();
        assert_eq!(r.index_scan_eq(idx, &[Datum::Int4(10)]).unwrap().len(), 1);
        r.commit().unwrap();
    }

    #[test]
    fn index_range_scan_in_order() {
        let (db, rel) = db_with_table();
        let idx = db.create_index("emp_age", rel, &["age"]).unwrap();
        let mut s = db.begin().unwrap();
        for age in [40, 10, 30, 20, 50] {
            s.insert(rel, emp(&format!("p{age}"), age)).unwrap();
        }
        s.commit().unwrap();
        let mut r = db.begin().unwrap();
        let mut seen = Vec::new();
        r.index_scan_range(
            idx,
            Some(&[Datum::Int4(15)]),
            Some(&[Datum::Int4(45)]),
            |_, row| {
                seen.push(row[1].as_int().unwrap());
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(seen, vec![20, 30, 40]);
        r.commit().unwrap();
    }

    #[test]
    fn two_sessions_serialize_on_write_lock() {
        let (db, rel) = db_with_table();
        let db2 = db.clone();
        let mut s1 = db.begin().unwrap();
        s1.insert(rel, emp("a", 1)).unwrap();
        let t = std::thread::spawn(move || {
            let mut s2 = db2.begin().unwrap();
            // Blocks until s1 commits.
            s2.insert(rel, emp("b", 2)).unwrap();
            s2.commit().unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        s1.commit().unwrap();
        t.join().unwrap();
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(rel).unwrap().len(), 2);
        r.commit().unwrap();
    }

    #[test]
    fn crash_recovery_keeps_committed_loses_uncommitted() {
        let clock = SimClock::new();
        let data = shared_device(MagneticDisk::new(
            "data",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 16),
        ));
        let log = shared_device(MagneticDisk::new(
            "log",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let cat = shared_device(MagneticDisk::new(
            "cat",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let rel;
        {
            let mut smgr = Smgr::new();
            smgr.register(
                DeviceId::DEFAULT,
                Box::new(GenericManager::format(data.clone()).unwrap()),
            )
            .unwrap();
            let db = Db::open(
                clock.clone(),
                smgr,
                log.clone(),
                cat.clone(),
                DbConfig::default(),
            )
            .unwrap();
            rel = db
                .create_table("t", Schema::new([("v", TypeId::INT4)]))
                .unwrap();
            let mut s = db.begin().unwrap();
            s.insert(rel, vec![Datum::Int4(1)]).unwrap();
            s.commit().unwrap();
            let mut s = db.begin().unwrap();
            s.insert(rel, vec![Datum::Int4(2)]).unwrap();
            // CRASH: no commit, Db dropped with dirty buffers discarded.
            std::mem::forget(s); // Not even an abort record.
        }
        // Recovery = reopen. Instantaneous: no scan, no fsck.
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId::DEFAULT,
            Box::new(GenericManager::attach(data).unwrap()),
        )
        .unwrap();
        let db = Db::recover(clock, smgr, log, cat, DbConfig::default()).unwrap();
        let mut r = db.begin().unwrap();
        let rows = r.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Datum::Int4(1));
        r.commit().unwrap();
    }

    /// A commit whose force fails, on a log with room for its `Commit` and
    /// none for the `Abort` behind it, leaves an outcome on its status page
    /// that nothing takes back. The transaction stays running, so no
    /// snapshot reads it committed, and the database goes down.
    #[test]
    fn a_commit_whose_abort_the_log_refuses_takes_the_database_down() {
        let clock = SimClock::new();
        let disk = |name, blocks| {
            MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(blocks))
        };
        let log = disk("log", 64);
        let log_faults = log.fault_plan();
        let mut smgr = Smgr::new();
        let data = GenericManager::format(shared_device(disk("data", 1 << 16))).unwrap();
        smgr.register(DeviceId::DEFAULT, Box::new(data)).unwrap();
        let config = DbConfig {
            checkpoint_interval: SimDuration::from_nanos(0),
            ..DbConfig::default()
        };
        let cat = shared_device(disk("cat", 1 << 12));
        let db = Db::open(clock.clone(), smgr, shared_device(log), cat, config).unwrap();
        let rel = db.create_table("t", Schema::new([("v", TypeId::INT4)])).unwrap();
        db.checkpoint().unwrap();
        let mut s = db.begin().unwrap();
        let xid = s.xid().unwrap();
        s.insert(rel, vec![Datum::Int4(1)]).unwrap();

        // Fill the log to 20 bytes short of its reserve: a `Commit` takes
        // 17, an `Abort` 9.
        let wal = &db.inner.wal;
        let room = || wal.capacity() - wal.epoch_bytes() - crate::wal::CEILING_RESERVE;
        let filler = |len: u64| WalRecord::Insert {
            dev: DeviceId::DEFAULT,
            rel: crate::ids::Oid(999_999),
            blkno: 0,
            slot: 0,
            tuple: vec![0; len as usize],
        };
        let before = room();
        wal.append(&filler(0)).unwrap();
        let header = before - room();
        while room() > 8000 + header {
            wal.append(&filler(4000)).unwrap();
        }
        wal.append(&filler(room() - 20 - header)).unwrap();
        assert_eq!(room(), 20);

        log_faults.fail_after_writes(0);
        assert!(s.commit().is_err());
        log_faults.clear_write_fault();
        assert!(db.inner.xlog.active_set().contains(&xid));
        let mut r = db.begin().unwrap();
        assert!(r.seq_scan(rel).unwrap().is_empty(), "a refused commit is visible");
        r.commit().unwrap();
        let refused = db.checkpoint().unwrap_err();
        assert!(refused.to_string().contains("reopen the database"), "{refused}");
    }

    #[test]
    fn catalog_survives_recovery() {
        let clock = SimClock::new();
        let data = shared_device(MagneticDisk::new(
            "data",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 16),
        ));
        let log = shared_device(MagneticDisk::new(
            "log",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let cat = shared_device(MagneticDisk::new(
            "cat",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        {
            let mut smgr = Smgr::new();
            smgr.register(
                DeviceId::DEFAULT,
                Box::new(GenericManager::format(data.clone()).unwrap()),
            )
            .unwrap();
            let db = Db::open(
                clock.clone(),
                smgr,
                log.clone(),
                cat.clone(),
                DbConfig::default(),
            )
            .unwrap();
            db.create_table("naming", Schema::new([("filename", TypeId::TEXT)]))
                .unwrap();
            db.define_type("tm").unwrap();
        }
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId::DEFAULT,
            Box::new(GenericManager::attach(data).unwrap()),
        )
        .unwrap();
        let db = Db::recover(clock, smgr, log, cat, DbConfig::default()).unwrap();
        assert!(db.relation_id("naming").is_ok());
        assert!(db.catalog().type_by_name("tm").is_ok());
    }

    #[test]
    fn drop_relation_removes_table_and_indices() {
        let (db, rel) = db_with_table();
        db.create_index("emp_age", rel, &["age"]).unwrap();
        db.drop_relation("emp").unwrap();
        assert!(db.relation_id("emp").is_err());
        assert!(db.relation_id("emp_age").is_err());
        // Name can be reused.
        db.create_table("emp", Schema::new([("x", TypeId::INT4)]))
            .unwrap();
    }

    #[test]
    fn functions_registered_and_resolved() {
        let db = Db::open_in_memory().unwrap();
        db.functions().register("test.twice", |_s, args| {
            Ok(Datum::Int8(args[0].as_int()? * 2))
        });
        db.define_function("twice", 1, TypeId::INT8, "test.twice", None)
            .unwrap();
        let f = db.resolve_function("twice").unwrap();
        let mut s = db.begin().unwrap();
        assert_eq!(f.call(&mut s, &[Datum::Int4(21)]).unwrap(), Datum::Int8(42));
        s.abort().unwrap();
        assert!(db.resolve_function("thrice").is_err());
    }

    #[test]
    fn snapshot_before_creation_sees_nothing() {
        let (db, rel) = db_with_table();
        let t0 = db.now();
        let mut s = db.begin().unwrap();
        s.insert(rel, emp("later", 1)).unwrap();
        s.commit().unwrap();
        let mut h = db.snapshot_at(t0);
        assert!(h.seq_scan(rel).unwrap().is_empty());
    }

    #[test]
    fn commit_twice_is_an_error() {
        let (db, _) = db_with_table();
        let mut s = db.begin().unwrap();
        s.commit().unwrap();
        assert!(matches!(s.commit(), Err(DbError::NoTransaction)));
        assert!(matches!(s.abort(), Err(DbError::NoTransaction)));
    }
}

#[cfg(test)]
mod readonly_commit_tests {
    use super::*;

    #[test]
    fn readonly_commit_writes_no_status_record() {
        let db = Db::open_in_memory().unwrap();
        let rel = db
            .create_table("t", Schema::new([("v", TypeId::INT4)]))
            .unwrap();
        let mut w = db.begin().unwrap();
        w.insert(rel, vec![Datum::Int4(1)]).unwrap();
        w.commit().unwrap();

        // A read-only transaction: no flush, no log write; stays committed
        // in memory so later snapshots behave.
        let t0 = db.now();
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(rel).unwrap().len(), 1);
        r.commit().unwrap();
        // Commit advanced the clock only by the commit-processing hair,
        // not by device writes.
        let elapsed = db.now().since(t0);
        assert!(
            elapsed < simdev::SimDuration::from_millis(1),
            "took {elapsed}"
        );
    }

    /// Every write while a checkpoint runs signals the checkpointer again,
    /// for the pressure that checkpoint is already relieving. The wake-up
    /// those signals leave behind must find nothing wanted and go back to
    /// sleep: one pressure crossing, one cycle.
    #[test]
    fn signals_during_a_checkpoint_do_not_buy_a_second_one() {
        let db = Db::open_in_memory_with(DbConfig {
            checkpoint_interval: SimDuration::ZERO, // pressure only
            ..DbConfig::default()
        })
        .unwrap();
        let (inner, ckpt) = (&db.inner, &db.inner.ckpt);
        let before = inner.stats.wal.checkpoints.get();
        // Hold the cycle: the thread will take the wake-up and block here.
        let cycle = ckpt.cycle.lock();
        let filler = WalRecord::PageImage {
            dev: DeviceId::DEFAULT,
            rel: crate::ids::Oid(u32::MAX),
            blkno: 0,
            image: vec![0; crate::page::PAGE_SIZE],
        };
        while !inner.wal.over_pressure() {
            inner.wal.append(&filler).unwrap();
        }
        let consumed = || {
            while *ckpt.wake.lock() {
                std::thread::yield_now();
            }
        };
        inner.maybe_signal_checkpoint();
        consumed();
        // The cycle is "running" (the thread is at its door): signal on.
        for _ in 0..100 {
            inner.maybe_signal_checkpoint();
        }
        assert!(*ckpt.wake.lock());
        drop(cycle);
        while inner.stats.wal.checkpoints.get() == before {
            std::thread::yield_now();
        }
        assert!(!inner.wal.over_pressure(), "the checkpoint relieved the pressure");
        // The thread takes the stale wake-up; whatever it makes of it is
        // over once the cycle lock has been ours and the thread is joined.
        consumed();
        drop(ckpt.cycle.lock());
        ckpt.stop.store(true, SeqCst);
        ckpt.signal();
        let thread = ckpt.thread.lock().take().expect("the checkpointer was spawned");
        thread.join().unwrap();
        assert_eq!(inner.stats.wal.checkpoints.get(), before + 1);
    }

    #[test]
    fn flush_rel_persists_only_that_relation() {
        let db = Db::open_in_memory().unwrap();
        let a = db
            .create_table("a", Schema::new([("v", TypeId::INT4)]))
            .unwrap();
        let b = db
            .create_table("b", Schema::new([("v", TypeId::INT4)]))
            .unwrap();
        let mut s = db.begin().unwrap();
        s.insert(a, vec![Datum::Int4(1)]).unwrap();
        s.insert(b, vec![Datum::Int4(2)]).unwrap();
        let before = db.buffer_stats().writebacks;
        db.inner.pool.flush_rel(&db.inner.smgr, a).unwrap();
        let after = db.buffer_stats().writebacks;
        assert!(after > before, "a's dirty page written");
        // b's page is still dirty in cache; its insert is durable through the log.
        s.commit().unwrap();
        let mut r = db.begin().unwrap();
        assert_eq!(r.seq_scan(b).unwrap().len(), 1);
        r.commit().unwrap();
    }
}
