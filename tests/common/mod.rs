//! Shared fixtures for the cross-crate integration tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use minidb::{
    shared_device, Db, DbConfig, DeviceId, GenericManager, SharedDevice, Smgr, StatsSnapshot,
};
use simdev::{BlockDevice, DevError, DevResult, DiskProfile, MagneticDisk, SimClock};

/// A persistent set of devices a database can be opened on, crashed, and
/// recovered from.
pub struct Devices {
    pub clock: SimClock,
    pub data: SharedDevice,
    pub log: SharedDevice,
    pub catalog: SharedDevice,
}

#[allow(dead_code)] // Each integration test uses the subset it needs.
impl Devices {
    pub fn new() -> Devices {
        let clock = SimClock::new();
        Devices {
            data: shared_device(MagneticDisk::new(
                "data",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 16),
            )),
            log: shared_device(MagneticDisk::new(
                "log",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 12),
            )),
            catalog: shared_device(MagneticDisk::new(
                "catalog",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 12),
            )),
            clock,
        }
    }

    /// Formats a fresh database on these devices.
    pub fn format(&self) -> Db {
        self.format_with(DbConfig::default())
    }

    /// [`Devices::format`] with explicit tunables.
    pub fn format_with(&self, config: DbConfig) -> Db {
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId::DEFAULT,
            Box::new(GenericManager::format(self.data.clone()).unwrap()),
        )
        .unwrap();
        Db::open(
            self.clock.clone(),
            smgr,
            self.log.clone(),
            self.catalog.clone(),
            config,
        )
        .unwrap()
    }

    /// Recovers the database after a crash or shutdown — the paper's
    /// "essentially instantaneous" recovery: just re-attach.
    pub fn recover(&self) -> Db {
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId::DEFAULT,
            Box::new(GenericManager::attach(self.data.clone()).unwrap()),
        )
        .unwrap();
        Db::recover(
            self.clock.clone(),
            smgr,
            self.log.clone(),
            self.catalog.clone(),
            DbConfig::default(),
        )
        .unwrap()
    }
}

/// Write-cached devices over faultable disks: a power cut loses exactly
/// what was never synced, and an armed fault plan tears a destage partway
/// (the cache is drained by the `sync` that trips it, so the blocks after
/// the fault are gone even before the cut).
#[allow(dead_code)]
pub struct CrashRig {
    pub clock: SimClock,
    pub data: SharedDevice,
    pub log: SharedDevice,
    pub catalog: SharedDevice,
    /// A second data device, registered as device 1, when the rig was
    /// made [`CrashRig::with_two_data_devices`]: somewhere to migrate to.
    pub data1: Option<SharedDevice>,
    /// Holds the writes that reach `data1`, when a test asks it to.
    pub data1_hold: Arc<Hold>,
    handles: Vec<simdev::CacheCrashHandle>,
    pub data_faults: simdev::FaultPlan,
    pub log_faults: simdev::FaultPlan,
    pub catalog_faults: simdev::FaultPlan,
    /// The blocks that reached the log's disk from under its write cache:
    /// the unit `log_faults.fail_after_writes` counts in.
    pub log_probe: Arc<Probe>,
}

#[allow(dead_code)]
impl CrashRig {
    pub fn new() -> CrashRig {
        CrashRig::with_log_blocks(1 << 12)
    }

    /// A rig whose log device has `nblocks` blocks: one control block, and
    /// a ring of the rest that holds a log epoch one block shorter.
    pub fn with_log_blocks(nblocks: u64) -> CrashRig {
        CrashRig::build(nblocks, false)
    }

    /// A rig with a second data device, of the first one's size.
    pub fn with_two_data_devices() -> CrashRig {
        CrashRig::build(1 << 12, true)
    }

    /// A rig whose log device has `nblocks` blocks, with a second data
    /// device when `two_data_devices`.
    pub fn build(nblocks: u64, two_data_devices: bool) -> CrashRig {
        let clock = SimClock::new();
        let mut handles = Vec::new();
        let log_probe = Arc::new(Probe::default());
        let mut cached = |name: &str, nblocks: u64| {
            let disk = MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(nblocks));
            let plan = disk.fault_plan();
            let disk: Box<dyn BlockDevice> = match name {
                "log" => Box::new(ProbedDisk {
                    inner: disk,
                    probe: Arc::clone(&log_probe),
                    sync_delay: Duration::ZERO,
                }),
                _ => Box::new(disk),
            };
            let (dev, handle) = simdev::WriteCacheDisk::new(disk);
            handles.push(handle);
            (shared_device(dev), plan)
        };
        let (data, data_faults) = cached("data", 1 << 16);
        let (log, log_faults) = cached("log", nblocks);
        let (catalog, catalog_faults) = cached("catalog", 1 << 12);
        let data1_hold = Arc::new(Hold::default());
        let data1 = two_data_devices.then(|| {
            let (dev, handle) = HeldDisk::shared("data1", &clock, &data1_hold);
            handles.push(handle);
            dev
        });
        CrashRig { clock, data, log, catalog, data1, data1_hold, handles, data_faults, log_faults, catalog_faults, log_probe }
    }

    /// Formats (`fresh`) or recovers the database on these devices.
    pub fn try_open(&self, fresh: bool, config: DbConfig) -> minidb::DbResult<Db> {
        let mut smgr = Smgr::new();
        for (dev, disk) in [Some(&self.data), self.data1.as_ref()].into_iter().enumerate() {
            let Some(disk) = disk else { continue };
            let mgr = if fresh {
                GenericManager::format(disk.clone())?
            } else {
                GenericManager::attach(disk.clone())?
            };
            smgr.register(DeviceId(dev as u8), Box::new(mgr))?;
        }
        let open = if fresh { Db::open } else { Db::recover };
        open(self.clock.clone(), smgr, self.log.clone(), self.catalog.clone(), config)
    }

    pub fn open(&self, fresh: bool) -> Db {
        self.try_open(fresh, DbConfig::default()).unwrap()
    }

    /// Power failure: every unsynced write on every device vanishes.
    pub fn power_cut(&self) {
        for h in &self.handles {
            h.drop_unsynced();
        }
    }

    /// Stops `db` without letting it write anything, then cuts the power.
    pub fn crash(&self, db: Db) {
        db.simulate_crash();
        self.power_cut();
    }
}

/// Data-page writes in the counter delta `d`, summed over every registered
/// device — the no-force gate: across a `commit()` this must be 0 while
/// `d.wal.log_forces` accounts for the durability. Refuses a window the
/// checkpoint ran in, so a write can never be excused as "the drain".
#[allow(dead_code)]
pub fn data_page_writes(d: &StatsSnapshot) -> u64 {
    assert_eq!(
        d.wal.checkpoints, 0,
        "a checkpoint ran inside the measured window"
    );
    d.devices.iter().map(|dev| dev.writes).sum()
}

/// Syncs the probed log device has carried out — the other half of the
/// no-force gate: inside a transaction this must stand still (an insert
/// forces nothing), and across its `commit()` move by one. The log device
/// is also synced by a checkpoint's truncation (the control block), so
/// measure it in a window [`data_page_writes`] has accepted.
#[allow(dead_code)]
pub fn log_syncs(probe: &Probe) -> u64 {
    probe.syncs.load(SeqCst)
}

/// What a test sees of, and does to, a [`ProbedDisk`].
#[derive(Default)]
#[allow(dead_code)]
pub struct Probe {
    /// Block writes carried out.
    pub writes: AtomicU64,
    /// Syncs carried out.
    pub syncs: AtomicU64,
    /// Set to make the next write fail, once.
    pub fail_next_write: AtomicBool,
    /// While set, `sync` does not return: the test decides how long a
    /// force stays on the device.
    pub hold_sync: AtomicBool,
}

/// A disk that counts its writes and syncs and whose `sync` blocks the
/// caller for `sync_delay` of *wall* time, as a real fsync does: a log
/// device, or a data device seen below its manager's metadata writes. The
/// log device is not behind the storage manager, so
/// `pg_stat_device` does not see it; and the simulated disks only advance
/// the virtual clock, which gives concurrent committers no interval to
/// pile up in.
pub struct ProbedDisk {
    inner: MagneticDisk,
    probe: Arc<Probe>,
    sync_delay: Duration,
}

#[allow(dead_code)]
impl ProbedDisk {
    pub fn log(clock: &SimClock, sync_delay: Duration) -> (SharedDevice, Arc<Probe>) {
        Self::probed("log", clock, 1 << 12, sync_delay)
    }

    /// A data-sized probed disk whose `sync` costs no wall time.
    pub fn data(clock: &SimClock) -> (SharedDevice, Arc<Probe>) {
        Self::probed("data", clock, 1 << 16, Duration::ZERO)
    }

    /// A catalog-sized probed disk whose `sync` costs no wall time.
    pub fn catalog(clock: &SimClock) -> (SharedDevice, Arc<Probe>) {
        Self::probed("catalog", clock, 1 << 12, Duration::ZERO)
    }

    fn probed(name: &str, clock: &SimClock, nblocks: u64, sync_delay: Duration) -> (SharedDevice, Arc<Probe>) {
        let probe = Arc::new(Probe::default());
        let disk = ProbedDisk {
            inner: MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(nblocks)),
            probe: Arc::clone(&probe),
            sync_delay,
        };
        (shared_device(disk), probe)
    }
}

impl BlockDevice for ProbedDisk {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn nblocks(&self) -> u64 {
        self.inner.nblocks()
    }
    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        self.inner.read_block(blkno, buf)
    }
    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        if self.probe.fail_next_write.swap(false, SeqCst) {
            return Err(DevError::InjectedFault {
                what: "one-shot write failure".into(),
            });
        }
        self.inner.write_block(blkno, buf)?;
        self.probe.writes.fetch_add(1, SeqCst);
        Ok(())
    }
    fn sync(&mut self) -> DevResult<()> {
        std::thread::sleep(self.sync_delay);
        while self.probe.hold_sync.load(SeqCst) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.inner.sync()?;
        self.probe.syncs.fetch_add(1, SeqCst);
        Ok(())
    }
}

/// What a test does to a [`HeldDisk`].
#[derive(Default)]
#[allow(dead_code)]
pub struct Hold {
    /// While set, a write waits inside the device — so under its storage
    /// manager's device lock, which blocks every other access to it.
    held: AtomicBool,
    /// Writes waiting inside the device now.
    pub waiting: AtomicU64,
    /// Set to make the writes waiting now fail, as a power cut would.
    cut: AtomicBool,
}

#[allow(dead_code)]
impl Hold {
    /// Writes from now on wait until [`Hold::release`] or [`Hold::cut`].
    pub fn hold(&self) {
        self.cut.store(false, SeqCst);
        self.held.store(true, SeqCst);
    }

    /// The waiting writes go through.
    pub fn release(&self) {
        self.held.store(false, SeqCst);
    }

    /// The waiting writes fail.
    pub fn cut(&self) {
        self.cut.store(true, SeqCst);
        self.held.store(false, SeqCst);
    }
}

/// A write-cached disk whose writes a test can hold in place: somewhere to
/// park a thread that is writing a page back.
pub struct HeldDisk {
    inner: simdev::WriteCacheDisk,
    hold: Arc<Hold>,
}

#[allow(dead_code)]
impl HeldDisk {
    /// A write-cached disk of 65 536 blocks named `name`, whose writes
    /// `hold` holds, and the handle that drops its unsynced writes.
    pub fn shared(name: &str, clock: &SimClock, hold: &Arc<Hold>) -> (SharedDevice, simdev::CacheCrashHandle) {
        let disk = MagneticDisk::new(name, clock.clone(), DiskProfile::tiny_for_tests(1 << 16));
        let (inner, handle) = simdev::WriteCacheDisk::new(Box::new(disk));
        (shared_device(HeldDisk { inner, hold: Arc::clone(hold) }), handle)
    }
}

impl BlockDevice for HeldDisk {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn nblocks(&self) -> u64 {
        self.inner.nblocks()
    }
    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        self.inner.read_block(blkno, buf)
    }
    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        if self.hold.held.load(SeqCst) {
            self.hold.waiting.fetch_add(1, SeqCst);
            while self.hold.held.load(SeqCst) {
                std::thread::sleep(Duration::from_micros(50));
            }
            self.hold.waiting.fetch_sub(1, SeqCst);
            if self.hold.cut.load(SeqCst) {
                return Err(DevError::InjectedFault { what: "power cut under a held write".into() });
            }
        }
        self.inner.write_block(blkno, buf)
    }
    fn sync(&mut self) -> DevResult<()> {
        self.inner.sync()
    }
    fn is_stable(&self) -> bool {
        self.inner.is_stable()
    }
}

/// Polls `cond` until it holds, for at most ten seconds; returns whether it
/// came to hold. For waiting on another thread to *reach* an observable
/// state, where no channel can be threaded through the code under test.
#[allow(dead_code)]
pub fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    true
}

/// The relations the map of `disk`, a data device, lists as last synced.
#[allow(dead_code)]
pub fn relations_on(disk: &SharedDevice) -> Vec<minidb::RelId> {
    use minidb::smgr::DeviceManager;
    let mut rels = GenericManager::attach(disk.clone()).unwrap().relations();
    rels.sort();
    rels
}

/// What a migration leaves as it was of a file: its bytes now and as of
/// each of some instants before it, and its revision log (when each
/// version committed, and its size).
#[derive(Debug, PartialEq)]
pub struct FileView {
    pub now: Vec<u8>,
    pub past: Vec<Vec<u8>>,
    pub history: Vec<(simdev::SimInstant, u64)>,
}

#[allow(dead_code)]
impl FileView {
    pub fn of(fs: &inversion::InversionFs, path: &str, times: &[simdev::SimInstant]) -> FileView {
        let mut c = fs.client();
        FileView {
            now: c.read_to_vec(path, None).unwrap(),
            past: times.iter().map(|&t| c.read_to_vec(path, Some(t)).unwrap()).collect(),
            history: c.p_history(path).unwrap().iter().map(|v| (v.committed_at, v.size)).collect(),
        }
    }

    /// Asserts that `path` reads as this view, on device 1 if `moved` and
    /// on device 0 if not, and that both verifiers are clean. A committed
    /// migration adds one version to the history, of the same size: the
    /// one that names the new device.
    pub fn assert_moved_or_not(&self, fs: &inversion::InversionFs, path: &str, times: &[simdev::SimInstant], moved: bool) {
        let now = FileView::of(fs, path, times);
        assert_eq!((&now.now, &now.past), (&self.now, &self.past), "{path} reads as it did");
        let (kept, added) = now.history.split_at(self.history.len().min(now.history.len()));
        assert_eq!(kept, self.history, "{path}'s history before the migration");
        let size = self.history.last().map(|v| v.1);
        assert_eq!(added.iter().map(|v| Some(v.1)).collect::<Vec<_>>(), [size].repeat(moved as usize));
        assert_eq!(fs.client().p_stat(path, None).unwrap().device, DeviceId(moved as u8));
        assert_eq!(fs.check(), []);
        assert_eq!(fs.db().check_all(), []);
    }
}
