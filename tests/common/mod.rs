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
    /// a log epoch of half the rest.
    pub fn with_log_blocks(nblocks: u64) -> CrashRig {
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
        CrashRig { clock, data, log, catalog, handles, data_faults, log_faults, catalog_faults, log_probe }
    }

    /// Formats (`fresh`) or recovers the database on these devices.
    pub fn try_open(&self, fresh: bool, config: DbConfig) -> minidb::DbResult<Db> {
        let mut smgr = Smgr::new();
        let mgr = if fresh {
            GenericManager::format(self.data.clone())?
        } else {
            GenericManager::attach(self.data.clone())?
        };
        smgr.register(DeviceId::DEFAULT, Box::new(mgr))?;
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
/// checkpointer ran in, so a write can never be excused as "the drain".
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
/// is also synced by a checkpoint's truncation (the surviving tail, the
/// control block), so measure it in a window [`data_page_writes`] has
/// accepted.
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
