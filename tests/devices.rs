//! Device-hierarchy integration: files on the WORM jukebox, staging-cache
//! behaviour, crash recovery across device managers, and NVRAM-backed
//! databases.

use minidb::{
    shared_device, Db, DbConfig, DeviceId, GenericManager, JukeboxConfig, JukeboxManager,
    SharedDevice, Smgr,
};
use simdev::{DiskProfile, JukeboxProfile, MagneticDisk, Nvram, OpticalJukebox, SimClock};

use inversion::{CreateMode, InversionFs};

struct Rig {
    clock: SimClock,
    disk: SharedDevice,
    jukebox: SharedDevice,
    staging: SharedDevice,
    log: SharedDevice,
    catalog: SharedDevice,
}

impl Rig {
    fn new() -> Rig {
        let clock = SimClock::new();
        Rig {
            disk: shared_device(MagneticDisk::new(
                "disk",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 15),
            )),
            jukebox: shared_device(OpticalJukebox::new(
                "sony",
                clock.clone(),
                JukeboxProfile::tiny_for_tests(),
            )),
            staging: shared_device(MagneticDisk::new(
                "staging",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 12),
            )),
            log: shared_device(MagneticDisk::new(
                "log",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 11),
            )),
            catalog: shared_device(MagneticDisk::new(
                "cat",
                clock.clone(),
                DiskProfile::tiny_for_tests(1 << 11),
            )),
            clock,
        }
    }

    fn jb_config() -> JukeboxConfig {
        JukeboxConfig {
            extent_pages: 4,
            cache_blocks: 16,
        }
    }

    fn format(&self) -> Db {
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId(0),
            Box::new(GenericManager::format(self.disk.clone()).unwrap()),
        )
        .unwrap();
        smgr.register(
            DeviceId(1),
            Box::new(
                JukeboxManager::format(
                    self.jukebox.clone(),
                    self.staging.clone(),
                    Self::jb_config(),
                )
                .unwrap(),
            ),
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

    fn recover(&self) -> Db {
        let mut smgr = Smgr::new();
        smgr.register(
            DeviceId(0),
            Box::new(GenericManager::attach(self.disk.clone()).unwrap()),
        )
        .unwrap();
        smgr.register(
            DeviceId(1),
            Box::new(
                JukeboxManager::attach(
                    self.jukebox.clone(),
                    self.staging.clone(),
                    Self::jb_config(),
                )
                .unwrap(),
            ),
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

#[test]
fn jukebox_files_survive_crash_recovery() {
    let rig = Rig::new();
    let payload: Vec<u8> = (0..40_000).map(|i| (i % 241) as u8).collect();
    {
        let fs = InversionFs::format(rig.format()).unwrap();
        let mut c = fs.client();
        c.write_all(
            "/archive.dat",
            CreateMode::default().on_device(DeviceId(1)),
            &payload,
        )
        .unwrap();
        // Crash without clean shutdown: the JukeboxManager burned its dirty
        // staged blocks at commit, so committed data is on the platters.
    }
    let fs = InversionFs::attach(rig.recover()).unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/archive.dat", None).unwrap(), payload);
    let stat = c.p_stat("/archive.dat", None).unwrap();
    assert_eq!(stat.device, DeviceId(1));
}

#[test]
fn worm_history_is_literally_immutable() {
    // Updating a jukebox-resident file appends new chunk versions; the old
    // version stays readable forever — the no-overwrite manager and the
    // write-once medium agree by design.
    let rig = Rig::new();
    let fs = InversionFs::format(rig.format()).unwrap();
    let mut c = fs.client();
    c.write_all(
        "/w",
        CreateMode::default().on_device(DeviceId(1)),
        b"first cut",
    )
    .unwrap();
    let t1 = fs.db().now();
    c.p_begin().unwrap();
    let fd = c
        .p_open("/w", inversion::OpenMode::ReadWrite, None)
        .unwrap();
    c.p_write(fd, b"SECOND!!!").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();

    assert_eq!(c.read_to_vec("/w", None).unwrap(), b"SECOND!!!");
    assert_eq!(c.read_to_vec("/w", Some(t1)).unwrap(), b"first cut");
}

#[test]
fn staging_cache_makes_rereads_cheap() {
    let rig = Rig::new();
    let fs = InversionFs::format(rig.format()).unwrap();
    let mut c = fs.client();
    let data = vec![5u8; 30_000];
    c.write_all(
        "/staged",
        CreateMode::default().on_device(DeviceId(1)),
        &data,
    )
    .unwrap();
    fs.db().flush_caches().unwrap();

    let t0 = rig.clock.now();
    assert_eq!(c.read_to_vec("/staged", None).unwrap(), data);
    let cold = rig.clock.now().since(t0);
    fs.db().flush_caches().unwrap(); // Buffer pool empty; staging cache warm.
    let t0 = rig.clock.now();
    assert_eq!(c.read_to_vec("/staged", None).unwrap(), data);
    let warm = rig.clock.now().since(t0);
    assert!(
        warm.as_nanos() <= cold.as_nanos(),
        "staged reread ({warm}) should not exceed the cold read ({cold})"
    );
}

#[test]
fn files_span_devices_transparently_within_one_transaction() {
    let rig = Rig::new();
    let fs = InversionFs::format(rig.format()).unwrap();
    let mut c = fs.client();
    // One transaction touching files on both devices commits atomically.
    c.p_begin().unwrap();
    let f0 = c
        .p_creat("/on0", CreateMode::default().on_device(DeviceId(0)))
        .unwrap();
    let f1 = c
        .p_creat("/on1", CreateMode::default().on_device(DeviceId(1)))
        .unwrap();
    c.p_write(f0, b"disk data").unwrap();
    c.p_write(f1, b"worm data").unwrap();
    c.p_close(f0).unwrap();
    c.p_close(f1).unwrap();
    c.p_commit().unwrap();
    assert_eq!(c.read_to_vec("/on0", None).unwrap(), b"disk data");
    assert_eq!(c.read_to_vec("/on1", None).unwrap(), b"worm data");

    // And an aborted cross-device transaction leaves neither.
    c.p_begin().unwrap();
    let g0 = c
        .p_creat("/gone0", CreateMode::default().on_device(DeviceId(0)))
        .unwrap();
    let g1 = c
        .p_creat("/gone1", CreateMode::default().on_device(DeviceId(1)))
        .unwrap();
    c.p_write(g0, b"x").unwrap();
    c.p_write(g1, b"y").unwrap();
    c.p_close(g0).unwrap();
    c.p_close(g1).unwrap();
    c.p_abort().unwrap();
    assert!(c.p_stat("/gone0", None).is_err());
    assert!(c.p_stat("/gone1", None).is_err());
}

#[test]
fn database_runs_on_nvram_device() {
    // The paper: "Version 4.0.1 of POSTGRES supports storage on non-volatile
    // RAM, magnetic disk, and a ... jukebox." Run a whole file system on an
    // NVRAM-backed default device.
    let clock = SimClock::new();
    let nvram = shared_device(Nvram::new("nvram", clock.clone(), 2048));
    let log = shared_device(MagneticDisk::new(
        "log",
        clock.clone(),
        DiskProfile::tiny_for_tests(1 << 10),
    ));
    let cat = shared_device(MagneticDisk::new(
        "cat",
        clock.clone(),
        DiskProfile::tiny_for_tests(1 << 10),
    ));
    let mut smgr = Smgr::new();
    smgr.register(
        DeviceId::DEFAULT,
        Box::new(GenericManager::format(nvram).unwrap()),
    )
    .unwrap();
    let db = Db::open(clock.clone(), smgr, log, cat, DbConfig::default()).unwrap();
    let fs = InversionFs::format(db).unwrap();
    let mut c = fs.client();
    let t0 = clock.now();
    c.write_all("/fast", CreateMode::default(), &vec![1u8; 100_000])
        .unwrap();
    let nvram_time = clock.now().since(t0);
    assert_eq!(c.read_to_vec("/fast", None).unwrap(), vec![1u8; 100_000]);
    // NVRAM writes are orders of magnitude faster than disk would be.
    assert!(nvram_time.as_secs_f64() < 0.5, "took {nvram_time}");
}

#[test]
fn tape_jukebox_works_as_a_database_device() {
    // The paper: "In the near future, a 9 TByte Metrum VHS-form factor tape
    // jukebox will also be supported." The generic device manager runs on
    // it unchanged — location transparency includes tape.
    let clock = SimClock::new();
    // The real Metrum profile: its capacity is sparse in memory, and the
    // generic manager's metadata region needs more than the tiny test
    // profile's 64 blocks.
    let tape = shared_device(simdev::TapeJukebox::new(
        "metrum",
        clock.clone(),
        simdev::TapeProfile::metrum(),
    ));
    let log = shared_device(MagneticDisk::new(
        "log",
        clock.clone(),
        DiskProfile::tiny_for_tests(1 << 10),
    ));
    let cat = shared_device(MagneticDisk::new(
        "cat",
        clock.clone(),
        DiskProfile::tiny_for_tests(1 << 10),
    ));
    let disk = shared_device(MagneticDisk::new(
        "disk",
        clock.clone(),
        DiskProfile::tiny_for_tests(1 << 12),
    ));
    let mut smgr = Smgr::new();
    smgr.register(DeviceId(0), Box::new(GenericManager::format(disk).unwrap()))
        .unwrap();
    smgr.register(DeviceId(2), Box::new(GenericManager::format(tape).unwrap()))
        .unwrap();
    let db = Db::open(clock, smgr, log, cat, DbConfig::default()).unwrap();
    let fs = InversionFs::format(db).unwrap();
    let mut c = fs.client();
    c.write_all(
        "/on_tape",
        CreateMode::default().on_device(DeviceId(2)),
        &vec![9u8; 20_000],
    )
    .unwrap();
    assert_eq!(c.read_to_vec("/on_tape", None).unwrap(), vec![9u8; 20_000]);
    assert_eq!(c.p_stat("/on_tape", None).unwrap().device, DeviceId(2));
}
