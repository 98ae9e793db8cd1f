//! Shared fixtures for the cross-crate integration tests.

use minidb::{
    shared_device, Db, DbConfig, DeviceId, GenericManager, SharedDevice, Smgr, StatsSnapshot,
};
use simdev::{DiskProfile, MagneticDisk, SimClock};

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
            DbConfig::default(),
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
