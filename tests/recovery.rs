//! Crash matrices and fault injection: the paper's "fast recovery" claims
//! under hostile conditions.

mod common;

use common::Devices;
use inversion::{CreateMode, InversionFs, OpenMode};
use minidb::vacuum::vacuum;
use minidb::{Datum, DeviceId, Schema, TypeId};

#[test]
fn repeated_crash_recover_cycles_are_stable() {
    let devices = Devices::new();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/gen0", CreateMode::default(), b"0").unwrap();
    }
    for generation in 1..=5u8 {
        let db = devices.recover();
        let fs = InversionFs::attach(db).unwrap();
        let mut c = fs.client();
        // Everything from previous generations is intact.
        for g in 0..generation {
            assert_eq!(
                c.read_to_vec(&format!("/gen{g}"), None).unwrap(),
                format!("{g}").as_bytes(),
                "generation {g} lost after {generation} crashes"
            );
        }
        // Write one more committed file and one uncommitted one, then crash.
        c.write_all(
            &format!("/gen{generation}"),
            CreateMode::default(),
            format!("{generation}").as_bytes(),
        )
        .unwrap();
        c.p_begin().unwrap();
        let fd = c
            .p_creat(&format!("/doomed{generation}"), CreateMode::default())
            .unwrap();
        c.p_write(fd, b"never").unwrap();
        std::mem::forget(c);
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    for g in 1..=5u8 {
        assert!(c.p_stat(&format!("/doomed{g}"), None).is_err());
    }
    assert_eq!(c.p_readdir("/", None).unwrap().len(), 6);
}

#[test]
fn recovery_needs_no_scan_of_data() {
    // "File system recovery is essentially instantaneous": recovery reads
    // device metadata, the catalog, and the status file — not the data.
    // Write a large file, then compare recovery cost to a data scan.
    let devices = Devices::new();
    let data_len = 2 << 20; // 2 MB.

    // Held by a relation producer, so it lives exactly as long as the
    // database's virtual-relation registry.
    let registry_alive = std::sync::Arc::new(());
    {
        let db = devices.format();
        let held = std::sync::Arc::clone(&registry_alive);
        db.register_virtual("v_held", Schema::default(), move |_| {
            let _ = &held;
            Vec::new()
        });
        let fs = InversionFs::format(db).unwrap();
        // Functions Inversion stores in the database's registry are handed
        // the mount they run against; none may hold one.
        inversion::types::register_standard(&fs).unwrap();
        inversion::migrate::register_migration(&fs).unwrap();
        let mut c = fs.client();
        c.write_all("/big", CreateMode::default(), &vec![7u8; data_len])
            .unwrap();
    }
    // Dropping the last handle frees the database there and then: no
    // built-in relation producer or function keeps it alive through the
    // registry it is stored in, and no thread of its own holds a handle.
    assert_eq!(
        std::sync::Arc::strong_count(&registry_alive),
        1,
        "the database outlived its last handle"
    );
    let t0 = devices.clock.now();
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let recovery_cost = devices.clock.now().since(t0);

    let t0 = devices.clock.now();
    let mut c = fs.client();
    c.read_to_vec("/big", None).unwrap();
    let scan_cost = devices.clock.now().since(t0);
    assert!(
        recovery_cost.as_nanos() * 4 < scan_cost.as_nanos(),
        "recovery ({recovery_cost}) should be far cheaper than reading the data ({scan_cost})"
    );
}

#[test]
fn abort_after_failed_commit_write() {
    // Inject a device failure so the commit's log force fails (under
    // no-force commit the data device is not even touched at commit); the
    // transaction must abort cleanly and the system stay usable once the
    // device heals.
    let clock = simdev::SimClock::new();
    let data = minidb::shared_device(simdev::MagneticDisk::new(
        "d",
        clock.clone(),
        simdev::DiskProfile::tiny_for_tests(1 << 14),
    ));
    let (log_disk, faults) = simdev::Faulty::new(simdev::MagneticDisk::new(
        "log",
        clock.clone(),
        simdev::DiskProfile::tiny_for_tests(1 << 10),
    ));
    let log = minidb::shared_device(log_disk);
    let cat = minidb::shared_device(simdev::MagneticDisk::new(
        "cat",
        clock.clone(),
        simdev::DiskProfile::tiny_for_tests(1 << 10),
    ));
    let mut smgr = minidb::Smgr::new();
    smgr.register(
        minidb::DeviceId::DEFAULT,
        Box::new(minidb::GenericManager::format(data).unwrap()),
    )
    .unwrap();
    let db = minidb::Db::open(clock, smgr, log, cat, minidb::DbConfig::default()).unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::INT4)]))
        .unwrap();

    // Healthy transaction first.
    let mut s = db.begin().unwrap();
    s.insert(rel, vec![Datum::Int4(1)]).unwrap();
    s.commit().unwrap();

    // Take the log device offline mid-transaction: the commit's log
    // force fails.
    let mut s = db.begin().unwrap();
    s.insert(rel, vec![Datum::Int4(2)]).unwrap();
    faults.set_offline(true);
    assert!(s.commit().is_err());
    faults.set_offline(false);

    // The failed transaction never committed; new work proceeds.
    let mut s = db.begin().unwrap();
    let rows = s.seq_scan(rel).unwrap();
    assert_eq!(rows.len(), 1, "failed commit must not be visible");
    s.insert(rel, vec![Datum::Int4(3)]).unwrap();
    s.commit().unwrap();
}

#[test]
fn instant_recovery_replays_pages_on_first_touch() {
    // No-force commit with a crash before any checkpoint: every committed
    // page image is lost from the data device and exists only as WAL
    // records. Restart must come up instantly — new transactions run right
    // away — while each stale page is replayed the first time someone
    // touches it, and a checkpoint finishes the sweep so a second crash
    // needs no replay at all.
    // The log stays far below pressure, so nothing drains the dirty pages
    // before we pull the plug.
    let rig = common::CrashRig::new();

    let db = rig.open(true);
    let rel = db.create_table("t", Schema::new([("v", TypeId::INT8)])).unwrap();
    db.flush_caches().unwrap(); // The empty table survives the crash.
    let mut want = Vec::new();
    for batch in 0..6i64 {
        let mut s = db.begin().unwrap();
        for i in 0..100i64 {
            let v = batch * 100 + i;
            s.insert(rel, vec![Datum::Int8(v)]).unwrap();
            want.push(v);
        }
        s.commit().unwrap();
    }
    rig.crash(db);

    let db = rig.open(false);
    let after_recover = db.stats();
    // A brand-new transaction commits before any old page was replayed:
    // restart did not wait for a REDO sweep.
    let mut s = db.begin().unwrap();
    s.insert(rel, vec![Datum::Int8(600)]).unwrap();
    s.commit().unwrap();
    want.push(600);

    // First touch of the stale heap pages replays them from the log.
    let mut s = db.begin().unwrap();
    let mut got: Vec<i64> = s
        .seq_scan(rel)
        .unwrap()
        .into_iter()
        .map(|(_, row)| match row[0] {
            Datum::Int8(v) => v,
            ref other => panic!("bad datum {other:?}"),
        })
        .collect();
    s.commit().unwrap();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "all acknowledged commits visible after restart");
    let d = db.stats().delta(&after_recover);
    assert!(
        d.wal.replayed_pages > 0,
        "the scan must have replayed stale pages (got {})",
        d.wal.replayed_pages
    );
    assert!(
        d.wal.replayed_records > d.wal.replayed_pages,
        "each replayed page carries many records ({} records / {} pages)",
        d.wal.replayed_records,
        d.wal.replayed_pages
    );
    assert!(db.check_all().is_empty(), "verifier: {:?}", db.check_all());

    // A checkpoint completes the sweep and truncates the log: after a
    // second crash there is nothing left to replay.
    db.checkpoint().unwrap();
    rig.crash(db);
    let db = rig.open(false);
    let before_scan = db.stats();
    let mut s = db.begin().unwrap();
    assert_eq!(s.seq_scan(rel).unwrap().len(), want.len());
    s.commit().unwrap();
    let d = db.stats().delta(&before_scan);
    assert_eq!(
        d.wal.replayed_pages, 0,
        "a checkpointed database recovers with zero replay work"
    );
    assert!(db.check_all().is_empty(), "verifier: {:?}", db.check_all());
}

#[test]
fn catalog_metadata_and_functions_recover() {
    let devices = Devices::new();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        inversion::types::register_standard(&fs).unwrap();
        let troff = fs.db().catalog().type_by_name("troff").unwrap();
        let mut c = fs.client();
        c.write_all(
            "/doc.t",
            CreateMode::default().with_type(troff),
            inversion::types::make_troff_document(9, &["RISC"], 8).as_bytes(),
        )
        .unwrap();
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    // Function *definitions* recovered from the catalog; implementations
    // must be re-registered (like reinstalling dynamically loaded objects).
    assert!(fs.db().catalog().proc("keywords").is_ok());
    inversion::types::register_standard(&fs).unwrap();
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query(r#"retrieve (k = keywords(n.file)) from n in naming where n.filename = "doc.t""#)
        .unwrap();
    assert_eq!(r.rows[0][0], Datum::Text("RISC".into()));
    s.commit().unwrap();
}

#[test]
fn open_descriptors_do_not_survive_crashes_but_files_do() {
    let devices = Devices::new();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/f", CreateMode::default(), b"before").unwrap();
        // Open (read-only, no transaction) and crash with the fd "open".
        let _fd = c.p_open("/f", OpenMode::Read, None).unwrap();
        std::mem::forget(c);
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/f", None).unwrap(), b"before");
}

#[test]
fn a_read_only_restart_replays_each_stale_page_once() {
    // Nothing checkpoints a server that only reads after a restart, so a
    // replayed page must reach the device through eviction: replay marks
    // its frame dirty, and its write-back retires its records. A 16-frame
    // pool evicts most of the table on every pass.
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let rel = db.create_table("t", Schema::new([("v", TypeId::INT8)])).unwrap();
    db.flush_caches().unwrap();
    for batch in 0..40i64 {
        let mut s = db.begin().unwrap();
        for i in 0..200i64 {
            s.insert(rel, vec![Datum::Int8(batch * 200 + i)]).unwrap();
        }
        s.commit().unwrap();
    }
    rig.crash(db);

    let db = rig.try_open(false, minidb::DbConfig { buffers: 16, ..minidb::DbConfig::default() }).unwrap();
    for pass in 0..4 {
        let before = db.stats();
        let mut s = db.begin().unwrap();
        assert_eq!(s.seq_scan(rel).unwrap().len(), 8_000, "pass {pass}");
        s.commit().unwrap();
        let d = db.stats().delta(&before);
        if pass == 0 {
            assert!(d.wal.replayed_pages > 0, "the first pass replays the stale pages");
        } else {
            assert_eq!(
                (d.wal.replayed_pages, d.wal.replayed_records),
                (0, 0),
                "pass {pass} replays again what an earlier pass replayed"
            );
        }
    }
    assert_eq!(db.stats().wal.checkpoints, 0, "no checkpoint did the work");
    assert_clean(&db);
}

fn int_table() -> Schema {
    Schema::new([("v", TypeId::INT4)])
}

fn insert_ints(db: &minidb::Db, rel: minidb::RelId, vals: std::ops::Range<i32>) {
    let mut s = db.begin().unwrap();
    for v in vals {
        s.insert(rel, vec![Datum::Int4(v)]).unwrap();
    }
    s.commit().unwrap();
}

/// Parks a checkpoint where a filling log cannot reach it: a row goes into
/// `rel`, which lives on device 1; that device starts holding its writes,
/// and a checkpoint on another thread takes the cycle lock and blocks in
/// its drain, writing the row's page under device 1's lock. A writer on
/// device 0 that puts the log under pressure then finds a cycle running and
/// goes on, so commits fill the log. The parked checkpoint ends when the
/// hold is released, or cut.
fn park_a_checkpoint(
    rig: &common::CrashRig,
    db: &minidb::Db,
    rel: minidb::RelId,
) -> std::thread::JoinHandle<minidb::DbResult<()>> {
    insert_ints(db, rel, 0..1);
    rig.data1_hold.hold();
    let parked = db.clone();
    let thread = std::thread::spawn(move || parked.checkpoint());
    assert!(
        common::wait_until(|| rig.data1_hold.waiting.load(std::sync::atomic::Ordering::SeqCst) > 0),
        "the checkpoint wrote nothing to device 1"
    );
    thread
}

/// A table on device 1, where [`park_a_checkpoint`] holds the writes.
fn parked_table(db: &minidb::Db, name: &str) -> minidb::RelId {
    db.create_table_on(name, int_table(), minidb::DeviceId(1), false).unwrap()
}

fn ints_of(db: &minidb::Db, rel: minidb::RelId) -> Vec<i64> {
    let mut s = db.begin().unwrap();
    let mut got: Vec<i64> =
        s.seq_scan(rel).unwrap().iter().map(|(_, row)| row[0].as_int().unwrap()).collect();
    s.commit().unwrap();
    got.sort_unstable();
    got
}

fn assert_clean(db: &minidb::Db) {
    let findings = db.check_all();
    assert!(findings.is_empty(), "verifier: {findings:?}");
}

#[test]
fn a_catalog_of_many_blocks_survives_a_crash() {
    // 600 relations with 1 KB names: ~85 pages of `pg_class`. As one blob
    // the catalog stopped at 63 blocks — create number 501 failed with
    // `device error: device full` on a disk of any size.
    let rig = common::CrashRig::new();
    let name = |i: usize| format!("{i:0>1024}");
    let db = rig.open(true);
    for i in 0..600 {
        db.create_table(&name(i), int_table()).unwrap_or_else(|e| panic!("create #{i}: {e}"));
    }
    rig.crash(db);
    let db = rig.open(false);
    for i in 0..600 {
        assert!(db.relation_id(&name(i)).is_ok(), "relation #{i} lost");
    }
    let pages = db.relation_pages(minidb::catalog::PG_CLASS).unwrap();
    assert!(pages > 63, "pg_class spans {pages} pages");
    assert_clean(&db);
}

/// A database with 400 small tables (a catalog of several blocks), one
/// indexed table `keep` whose first rows are on disk and whose later rows
/// exist only in the log, and everything so far durable.
fn rig_with_a_wide_catalog() -> (common::CrashRig, minidb::Db, minidb::RelId) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    for i in 0..400 {
        db.create_table(&format!("t{i}"), int_table()).unwrap();
    }
    let keep = db.create_table("keep", int_table()).unwrap();
    insert_ints(&db, keep, 0..50);
    db.flush_caches().unwrap();
    insert_ints(&db, keep, 50..100);
    (rig, db, keep)
}

/// Tears the catalog device's next destage after two blocks, runs `ddl`,
/// lets a checkpoint trip the fault, cuts the power and recovers.
fn recover_from_a_torn_catalog_destage<T>(
    rig: &common::CrashRig,
    db: minidb::Db,
    ddl: impl FnOnce(&minidb::Db) -> minidb::DbResult<T>,
) -> (minidb::Db, minidb::DbResult<T>) {
    rig.catalog_faults.fail_after_writes(2);
    let outcome = ddl(&db);
    let _ = db.checkpoint();
    rig.catalog_faults.clear_write_fault();
    rig.crash(db);
    // The blob catalog, rewritten whole and in place, did not survive this:
    // recovery failed with `corrupt data: truncated catalog` and every
    // committed transaction was gone with it.
    let db = rig
        .try_open(false, minidb::DbConfig::default())
        .expect("recovery after a torn catalog destage");
    (db, outcome)
}

#[test]
fn a_torn_catalog_destage_under_drop_relation_loses_nothing() {
    let (rig, db, keep) = rig_with_a_wide_catalog();
    let (db, dropped) = recover_from_a_torn_catalog_destage(&rig, db, |db| db.drop_relation("t200"));
    // Wholly present or wholly absent — and absent if it was acknowledged.
    let present = db.relation_id("t200").is_ok();
    assert!(!(dropped.is_ok() && present), "an acknowledged drop came back");
    for i in (0..400).filter(|&i| i != 200) {
        assert!(db.relation_id(&format!("t{i}")).is_ok(), "t{i} lost");
    }
    assert_eq!(ints_of(&db, keep), (0..100).collect::<Vec<i64>>());
    assert_clean(&db); // In particular: no device relation lacks a row.
    if !present {
        db.create_table("t200", int_table()).expect("the name is free again");
    }
    assert_clean(&db);
}

#[test]
fn a_torn_catalog_destage_under_create_index_loses_nothing() {
    let (rig, db, keep) = rig_with_a_wide_catalog();
    let (db, created) =
        recover_from_a_torn_catalog_destage(&rig, db, |db| db.create_index("keep_v", keep, &["v"]));
    assert_eq!(ints_of(&db, keep), (0..100).collect::<Vec<i64>>());
    assert_clean(&db);
    match db.relation_id("keep_v") {
        Ok(idx) => {
            // Wholly present: catalogued, attached to its heap, and built.
            assert_eq!(db.find_index(keep, &[0]), Some(idx));
            let mut s = db.begin().unwrap();
            assert_eq!(s.index_scan_eq(idx, &[Datum::Int4(77)]).unwrap().len(), 1);
            s.commit().unwrap();
        }
        Err(_) => {
            assert!(created.is_err(), "an acknowledged index is gone");
            db.create_index("keep_v", keep, &["v"]).expect("the name is free again");
        }
    }
    insert_ints(&db, keep, 100..110);
    assert_clean(&db);
}

/// Commit A (one row) is acknowledged. Commit B (300 rows) forces the log,
/// and its rewrite of A's partly filled block tears: only the block's first
/// 4 KB land, and every later write and sync fails. A comes back.
#[test]
fn a_torn_tail_rewrite_keeps_the_commits_acknowledged_before_it() {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    db.checkpoint().unwrap();
    insert_ints(&db, t, 0..1);
    let mut s = db.begin().unwrap();
    for v in 1..301 {
        s.insert(t, vec![Datum::Int4(v)]).unwrap();
    }
    rig.log_faults.tear_after_writes(0, 0..simdev::fault::TORN_BYTES);
    assert!(s.commit().is_err(), "B's force tears");
    assert_eq!(rig.log_faults.write_trips(), 1, "the tear was the force's first write");
    rig.log_faults.clear_write_fault();
    rig.crash(db);

    let db = rig.open(false);
    assert_eq!(ints_of(&db, t), [0], "the acknowledged commit A is lost");
    assert_clean(&db);
}

/// The relations the data device's map lists, as last synced.
fn on_device(rig: &common::CrashRig) -> Vec<minidb::RelId> {
    common::relations_on(&rig.data)
}

#[test]
fn storage_a_crash_left_without_a_row_is_released_on_reopening() {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let keep = db.create_table("keep", int_table()).unwrap();
    insert_ints(&db, keep, 0..10);
    let gone = db.create_table("gone", int_table()).unwrap();
    insert_ints(&db, gone, 0..10);
    db.flush_caches().unwrap();
    // A create whose row never commits: the log force fails, after the
    // index's storage was registered and its build logged. The next commit
    // carries those records to the device, with the abort behind them.
    rig.log_faults.fail_after_writes(0);
    assert!(db.create_index("half_made", keep, &["v"]).is_err());
    rig.log_faults.clear_write_fault();
    assert!(db.relation_id("half_made").is_err(), "a failed create is taken back");
    // A drop caught between its commit and the next checkpoint: the row is
    // gone for good, the device's map still lists the relation.
    db.drop_relation("gone").unwrap();
    rig.crash(db);
    assert_eq!(on_device(&rig), [keep, gone]);

    let db = rig.open(false);
    assert!(db.relation_id("half_made").is_err() && db.relation_id("gone").is_err());
    assert_clean(&db);
    assert_eq!(ints_of(&db, keep), (0..10).collect::<Vec<i64>>());
    assert_eq!(db.find_index(keep, &[0]), None);
    db.checkpoint().unwrap();
    assert_eq!(on_device(&rig), [keep], "neither leftover is on the device");
    for name in ["half_made", "gone"] {
        db.create_table(name, int_table()).expect("the name is free");
    }
    assert_clean(&db);
}

/// Pages born since the last checkpoint have no block on the device's
/// synced map, and open extents are not persisted: reopening hands them
/// blocks from the checkpointed `next_free` on, where evictions before the
/// crash may have written other relations' newer pages. Four tables grow
/// in turns through a 32-frame pool with nothing cached in front of the
/// data device, so those evictions survive the crash. The parent gave each
/// such page a blank block, read another table's page there, and its LSN
/// gate skipped every record of the page being rebuilt (`t0` came back
/// without rows 0–55, among others).
#[test]
fn pages_born_after_the_checkpoint_replay_onto_blocks_of_their_own() {
    let devices = Devices::new();
    let db = devices.format_with(minidb::DbConfig {
        buffers: 32,
        ..minidb::DbConfig::default()
    });
    let schema = || Schema::new([("k", TypeId::INT4), ("pad", TypeId::TEXT)]);
    let tables: Vec<minidb::RelId> =
        (0..4).map(|t| db.create_table(&format!("t{t}"), schema()).unwrap()).collect();
    db.flush_caches().unwrap();
    let pad = "p".repeat(1000);
    for round in 0..40 {
        for &t in &tables {
            let mut s = db.begin().unwrap();
            for k in round * 8..(round + 1) * 8 {
                s.insert(t, vec![Datum::Int4(k), Datum::Text(pad.clone())]).unwrap();
            }
            s.commit().unwrap();
        }
    }
    db.simulate_crash();
    drop(db);

    let db = devices.recover();
    for (i, &t) in tables.iter().enumerate() {
        assert_eq!(ints_of(&db, t), (0..320).collect::<Vec<i64>>(), "t{i}");
    }
    assert_clean(&db);
}

/// A committed empty table and a committed index over rows, with no
/// checkpoint since: the device's map has never heard of either, and the
/// log is all there is of them. With `torn_tail`, a further transaction's
/// commit force dies after its first block.
fn ddl_since_the_last_checkpoint_survives_a_crash(torn_tail: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    insert_ints(&db, t, 0..300);
    db.flush_caches().unwrap();
    let empty = db.create_table("empty", int_table()).unwrap();
    let idx = db.create_index("t_v", t, &["v"]).unwrap();
    if torn_tail {
        let mut s = db.begin().unwrap();
        for v in 300..600 {
            s.insert(t, vec![Datum::Int4(v)]).unwrap();
        }
        rig.log_faults.fail_after_writes(1);
        assert!(s.commit().is_err(), "the commit force is torn");
        rig.log_faults.clear_write_fault();
    }
    rig.crash(db);
    assert_eq!(on_device(&rig), [t], "only the log knows the new relations");

    let db = rig.open(false);
    assert_clean(&db);
    assert_eq!(db.relation_id("empty").unwrap(), empty);
    assert!(ints_of(&db, empty).is_empty());
    assert_eq!(db.find_index(t, &[0]), Some(idx));
    let mut s = db.begin().unwrap();
    for v in 0..600 {
        let hits = s.index_scan_eq(idx, &[Datum::Int4(v)]).unwrap().len();
        assert_eq!(hits, usize::from(v < 300), "key {v}");
    }
    s.commit().unwrap();
    insert_ints(&db, empty, 0..10);
    insert_ints(&db, t, 1000..1010);
    db.checkpoint().unwrap();
    assert_eq!(on_device(&rig), [t, empty, idx]);
    assert_clean(&db);
}

#[test]
fn ddl_since_the_last_checkpoint_is_recovered_from_the_log() {
    ddl_since_the_last_checkpoint_survives_a_crash(false);
}

#[test]
fn ddl_since_the_last_checkpoint_is_recovered_under_a_torn_log_tail() {
    ddl_since_the_last_checkpoint_survives_a_crash(true);
}

/// An index built over rows whose `pg_class` row never commits: its log
/// force fails outright and a later commit carries the build's records to
/// the device (`torn: false`), or the force dies partway (`torn: true`),
/// among the build's page records. Either way the crash finds logged pages
/// of a relation no row names; reopening must not bring it back.
fn an_index_whose_row_never_committed_leaves_no_storage(torn: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    insert_ints(&db, t, 0..3000);
    db.flush_caches().unwrap();
    let before = db.stats();
    rig.log_faults.fail_after_writes(if torn { 2 } else { 0 });
    assert!(db.create_index("t_v", t, &["v"]).is_err());
    rig.log_faults.clear_write_fault();
    assert!(db.stats().delta(&before).wal.records_appended > 100, "the build was logged");
    if !torn {
        insert_ints(&db, t, 3000..3001);
    }
    rig.crash(db);

    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let stray = records
        .iter()
        .map(|(_, rec)| rec.page_addr())
        .filter(|&(_, rel, _)| rel != t && !minidb::catalog::Catalog::is_system(rel))
        .count();
    assert!(stray > 0, "the log holds pages of the index");
    let db = rig.open(false);
    assert!(db.relation_id("t_v").is_err());
    assert_eq!(db.find_index(t, &[0]), None);
    assert_clean(&db);
    db.checkpoint().unwrap();
    assert_eq!(on_device(&rig), [t], "no storage came back for it");
    let idx = db.create_index("t_v", t, &["v"]).expect("the name is free");
    let mut s = db.begin().unwrap();
    assert_eq!(s.index_scan_eq(idx, &[Datum::Int4(2999)]).unwrap().len(), 1);
    s.commit().unwrap();
    assert_clean(&db);
}

#[test]
fn an_index_whose_row_never_committed_is_released_on_reopening() {
    an_index_whose_row_never_committed_leaves_no_storage(false);
}

#[test]
fn an_index_whose_row_never_committed_is_released_under_a_torn_log_tail() {
    an_index_whose_row_never_committed_leaves_no_storage(true);
}

/// A `creat` whose records reached the log but whose transaction did not
/// commit: another session's commit forces the log past them (`commit:
/// false`), or it commits itself (`commit: true`). A file's relations are
/// created in its transaction, so reopening brings back both with their
/// data, or neither — no relation in the cache, none on the device.
fn a_creat_meets_a_crash(commit: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let fs = InversionFs::format(db.clone()).unwrap();
    let other = db.create_table("other", int_table()).unwrap();
    db.flush_caches().unwrap();
    let data = vec![0x5Au8; inversion::CHUNK_SIZE + 300];
    let mut c = fs.client();
    c.p_begin().unwrap();
    let fd = c.p_creat("/f", CreateMode::default()).unwrap();
    c.p_write(fd, &data).unwrap();
    c.p_close(fd).unwrap();
    let stat = c.p_stat("/f", None).unwrap();
    let rels = [stat.datarel, stat.chunkidx];
    if commit {
        c.p_commit().unwrap();
    } else {
        insert_ints(&db, other, 0..1); // Its force carries the creat's records.
    }
    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let logged = records.iter().filter(|(_, rec)| rels.contains(&rec.page_addr().1)).count();
    assert!(logged > 0, "the log device holds the new relations' pages");
    db.simulate_crash();
    rig.power_cut();
    drop((c, fs, db));

    let db = rig.open(false);
    let fs = InversionFs::attach(db.clone()).unwrap();
    assert_clean(&db);
    assert_eq!(fs.check(), []);
    db.checkpoint().unwrap();
    let stored = on_device(&rig);
    for rel in rels {
        assert_eq!(db.catalog().relation(rel).is_ok(), commit, "{rel} in the catalog");
        assert_eq!(stored.contains(&rel), commit, "{rel} on the device");
    }
    let mut c = fs.client();
    match commit {
        true => assert_eq!(c.read_to_vec("/f", None).unwrap(), data),
        false => assert!(c.p_stat("/f", None).is_err()),
    }
    assert_eq!(ints_of(&db, other), if commit { vec![] } else { vec![0] });
    assert_clean(&db);
}

#[test]
fn a_creat_that_never_committed_leaves_no_relation_after_a_crash() {
    a_creat_meets_a_crash(false);
}

#[test]
fn a_committed_creat_comes_back_with_its_data_after_a_crash() {
    a_creat_meets_a_crash(true);
}

/// Two hundred small files after a checkpoint, each a `creat` and a 1 KB
/// write in a transaction of its own: a one-block heap and an index root
/// logged without its hole, on blocks the device's map has never heard of.
/// A crash brings back every committed file. With `torn_last`, every
/// commit from the 200th on is armed to fail after one log block, so the
/// first whose force needs two is torn, and that file is absent.
fn small_files_since_the_checkpoint_meet_a_crash(torn_last: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let fs = InversionFs::format(db.clone()).unwrap();
    db.checkpoint().unwrap();
    let name = |i: usize| format!("/f{i}");
    let body = |i: usize| vec![i as u8; 1024];
    let mut c = fs.client();
    let mut files = 0;
    while torn_last || files < 200 {
        assert!(files < 240, "no commit force of a creat needed two blocks");
        c.p_begin().unwrap();
        let fd = c.p_creat(&name(files), CreateMode::default()).unwrap();
        c.p_write(fd, &body(files)).unwrap();
        c.p_close(fd).unwrap();
        let armed = torn_last && files >= 199;
        if armed {
            rig.log_faults.fail_after_writes(1);
        }
        let outcome = c.p_commit();
        rig.log_faults.clear_write_fault();
        match outcome {
            Ok(()) => files += 1,
            Err(e) => {
                assert!(armed, "{e}");
                break;
            }
        }
    }
    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let images = records.iter().filter(|(_, rec)| matches!(rec, minidb::WalRecord::PageImage { .. }));
    assert!(images.count() >= files, "a root image per file");
    db.simulate_crash();
    rig.power_cut();
    drop((c, fs, db));

    let db = rig.open(false);
    let fs = InversionFs::attach(db.clone()).unwrap();
    let mut c = fs.client();
    for i in 0..files {
        assert_eq!(c.read_to_vec(&name(i), None).unwrap(), body(i), "file {i}");
    }
    if torn_last {
        assert!(c.p_stat(&name(files), None).is_err(), "the torn creat is absent");
    }
    assert!(db.stats().wal.replayed_pages >= files as u64);
    assert_clean(&db);
    assert_eq!(fs.check(), []);
    db.checkpoint().unwrap();
    assert_clean(&db);
}

#[test]
fn small_files_since_the_checkpoint_come_back_after_a_crash() {
    small_files_since_the_checkpoint_meet_a_crash(false);
}

#[test]
fn small_files_since_the_checkpoint_come_back_under_a_torn_last_force() {
    small_files_since_the_checkpoint_meet_a_crash(true);
}

/// Read-only transactions: each takes an xid, writes nothing and forces
/// nothing.
fn burn_xids(db: &minidb::Db, n: usize) {
    for _ in 0..n {
        db.begin().unwrap().commit().unwrap();
    }
}

/// Reopening reads status page 0, for the id ceilings, and no other status
/// page: each waits for the first visibility check that needs it. A
/// database of 1 000 xids and one of 60 000 each commit a row with their
/// first and with their last xid, then crash. Reopening either reads the
/// same catalog-device blocks, and both rows read back. (Restart used to
/// read every status page: 3 blocks against 97.)
#[test]
fn reopening_reads_no_more_status_pages_after_60_000_xids_than_after_1_000() {
    let reads = [1_000, 60_000].map(|xids| {
        let rig = common::CrashRig::new();
        let db = rig.open(true);
        let t = db.create_table("t", int_table()).unwrap();
        insert_ints(&db, t, 0..1);
        burn_xids(&db, xids);
        insert_ints(&db, t, 1..2);
        rig.crash(db);
        let db = rig.open(false);
        let stats = db.stats();
        let catalog = stats.devices.iter().find(|d| d.device == minidb::DeviceId::CATALOG.0).unwrap();
        let reads = catalog.reads;
        assert_eq!(ints_of(&db, t), [0, 1], "after {xids} xids");
        assert_clean(&db);
        reads
    });
    assert_eq!(reads[0], reads[1], "catalog-device reads while reopening after 1 000 and 60 000 xids");
}

/// A transaction `x` whose rows reach the data device while the one xid
/// ceiling covering it exists only in the log: the xid counter has passed a
/// raise since the last checkpoint, and the checkpoint that drains `x`'s
/// page fails writing status page 0 to the catalog device. With
/// `torn_tail`, a later commit's force dies after its first block. Every
/// xid handed out after the crash must be above `x`: one equal to it would
/// own `x`'s rows.
fn a_page_carries_an_xid_the_status_file_never_covered(torn_tail: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    let u = db.create_table("u", int_table()).unwrap();
    insert_ints(&db, t, 0..10);
    db.flush_caches().unwrap();
    // Past the raise at the 1 024th xid; status page 0 on the device still
    // holds the ceiling of the checkpoint above.
    burn_xids(&db, 1100);
    // `y` is older than `x`, so its commit record says nothing of `x`'s
    // id, but its force makes the log durable past `x`'s rows.
    let mut y = db.begin().unwrap();
    let mut x = db.begin().unwrap();
    let xid = x.xid().unwrap();
    for v in 100..110 {
        x.insert(t, vec![Datum::Int4(v)]).unwrap();
    }
    y.insert(u, vec![Datum::Int4(1)]).unwrap();
    y.commit().unwrap();
    let before = db.stats();
    rig.catalog_faults.fail_after_writes(0);
    assert!(db.checkpoint().is_err(), "the status page write fails");
    rig.catalog_faults.clear_write_fault();
    assert!(db.stats().delta(&before).wal.ckpt_pages_drained > 0, "x's page went out");
    if torn_tail {
        let mut z = db.begin().unwrap();
        for v in 0..300 {
            z.insert(u, vec![Datum::Int4(v)]).unwrap();
        }
        rig.log_faults.fail_after_writes(1);
        assert!(z.commit().is_err(), "the commit force is torn");
        rig.log_faults.clear_write_fault();
    }
    std::mem::forget(x);
    rig.crash(db);

    let db = rig.open(false);
    assert_clean(&db);
    for _ in 0..2100 {
        let mut s = db.begin().unwrap();
        let new = s.xid().unwrap();
        assert!(new > xid, "{new} handed out again after {xid}");
        assert_eq!(s.seq_scan(t).unwrap().len(), 10, "{new} sees {xid}'s rows");
        s.commit().unwrap();
    }
    assert_eq!(ints_of(&db, t), (0..10).collect::<Vec<i64>>());
    assert_eq!(ints_of(&db, u), [1]);
    assert_clean(&db);
}

#[test]
fn an_xid_carried_by_a_page_on_the_device_is_never_handed_out_again() {
    a_page_carries_an_xid_the_status_file_never_covered(false);
}

#[test]
fn an_xid_carried_by_a_page_on_the_device_is_never_handed_out_again_under_a_torn_log_tail() {
    a_page_carries_an_xid_the_status_file_never_covered(true);
}

/// A crash that leaves the log as full as anything but a `Ceiling` record
/// can make it: one-row transactions commit until the log refuses one (a
/// checkpoint is parked on a held data device, so none truncates), then
/// aborts of the refused transaction fill what is left, forced, as a later
/// commit would have carried them out. Reopening takes an xid — a raise of
/// the id ceilings, one more record — before a checkpoint may truncate
/// anything. When the log could be filled to the last byte, every
/// reopening of such a database failed with `WAL full`.
#[test]
fn a_crash_that_leaves_the_log_full_recovers() {
    // 32 blocks: a log epoch of 15 blocks, about 120 KB.
    let rig = common::CrashRig::build(32, true);
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    let parked = parked_table(&db, "parked");
    db.flush_caches().unwrap();
    let parked = park_a_checkpoint(&rig, &db, parked);
    let mut committed = 0;
    let (refused, last) = loop {
        let mut s = db.begin().unwrap();
        let xid = s.xid().unwrap();
        match s.insert(t, vec![Datum::Int4(committed)]).and_then(|_| s.commit()) {
            Ok(()) => committed += 1,
            Err(e) => break (e, xid),
        }
    };
    assert!(refused.to_string().contains("WAL full"), "{refused}");
    assert!(committed > 1000, "{committed} commits filled the log");
    // The power goes under the held write: the parked checkpoint fails
    // before it syncs anything or truncates the log.
    rig.data1_hold.cut();
    assert!(parked.join().unwrap().is_err(), "the parked checkpoint outlived the cut");
    rig.crash(db);
    {
        let (wal, _) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
        while wal.append(&minidb::WalRecord::Abort { xid: last }).is_ok() {}
        wal.force_up_to(wal.next_lsn()).unwrap();
    }
    let db = rig.try_open(false, minidb::DbConfig::default()).expect("reopening a full log");
    let mut s = db.begin().unwrap();
    assert!(s.xid().unwrap() > last, "{:?} handed out again", s.xid());
    s.commit().unwrap();
    assert_eq!(ints_of(&db, t), (0..committed as i64).collect::<Vec<i64>>());
    assert_clean(&db);
    db.checkpoint().expect("the checkpoint truncates the full log");
    insert_ints(&db, t, committed..committed + 10);
    assert_eq!(ints_of(&db, t).len(), committed as usize + 10);
    assert_clean(&db);
}

/// A commit the full log refuses puts no `Commit` on its status page, so
/// it is a plain abort: once a checkpoint frees the log, nothing is left
/// running. It used to log an `Abort` behind the `Commit` that never was;
/// when the full log refused that too, the xid stayed running until a
/// restart, vacuum refused to run and the row it deleted read
/// "concurrently deleted" to every update.
#[test]
fn a_commit_the_full_log_refuses_leaves_nothing_running() {
    let rig = common::CrashRig::build(32, true);
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    let fill = db.create_table("fill", int_table()).unwrap();
    let parked = parked_table(&db, "parked");
    let held: Vec<minidb::RelId> =
        (0..8).map(|i| db.create_table(&format!("h{i}"), int_table()).unwrap()).collect();
    insert_ints(&db, t, 0..1);
    db.flush_caches().unwrap();
    // Writers that only have their `Commit` left to log, one per relation:
    // the deleter of `t`'s row and eight inserters.
    let mut deleter = db.begin().unwrap();
    let tid = deleter.seq_scan(t).unwrap()[0].0;
    assert!(deleter.delete(t, tid).unwrap());
    let waiting: Vec<minidb::Session> = held
        .iter()
        .map(|&h| {
            let mut s = db.begin().unwrap();
            s.insert(h, vec![Datum::Int4(0)]).unwrap();
            s
        })
        .collect();
    let parked = park_a_checkpoint(&rig, &db, parked);
    loop {
        let mut s = db.begin().unwrap();
        if s.insert(fill, vec![Datum::Int4(0)]).and_then(|_| s.commit()).is_err() {
            break;
        }
    }
    // The log refused a row or a `Commit`; eight more `Commit` records, of
    // 17 bytes each, leave no room for one.
    let full = waiting.into_iter().map(|mut s| s.commit()).find(Result::is_err);
    assert!(full.is_some(), "eight commits did not fill the log");
    let refused = deleter.commit().unwrap_err();
    assert!(refused.to_string().contains("WAL full"), "{refused}");
    rig.data1_hold.release();
    parked.join().unwrap().expect("the parked checkpoint, resumed");
    db.checkpoint().unwrap();
    let mut s = db.begin().unwrap();
    let (tid, _) = s.seq_scan(t).unwrap()[0].clone();
    s.update(t, tid, vec![Datum::Int4(1)]).unwrap();
    s.commit().unwrap();
    minidb::vacuum::vacuum(&db, t, minidb::DeviceId::DEFAULT).unwrap();
    assert_eq!(ints_of(&db, t), vec![1]);
    assert_clean(&db);
}

/// Rows committed one per transaction, so each has an outcome on a status
/// page, then a checkpoint whose sync of `faulty`'s device fails after the
/// pages were written to its cache, which that sync drops. The pool counts
/// those writes as done; a later checkpoint that found nothing dirty and
/// truncated the log lost the rows, or their outcomes, for good. The
/// database goes down instead: every later checkpoint is refused, commits
/// still go to the log, and reopening replays all of it.
fn a_failed_sync_loses_nothing(faulty: impl Fn(&common::CrashRig) -> &simdev::FaultPlan) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    insert_ints(&db, t, 0..10);
    db.flush_caches().unwrap();
    for v in 10..20 {
        insert_ints(&db, t, v..v + 1);
    }
    faulty(&rig).fail_after_writes(0);
    assert!(db.checkpoint().is_err(), "the sync fails");
    faulty(&rig).clear_write_fault();
    let refused = db.checkpoint().expect_err("no checkpoint truncates after a failed sync");
    assert!(refused.to_string().contains("reopen"), "{refused}");
    for v in 20..30 {
        insert_ints(&db, t, v..v + 1);
    }
    rig.crash(db);

    let db = rig.open(false);
    assert_eq!(ints_of(&db, t), (0..30).collect::<Vec<i64>>());
    assert_clean(&db);
    db.checkpoint().expect("a reopened database checkpoints again");
    assert_eq!(ints_of(&db, t), (0..30).collect::<Vec<i64>>());
}

#[test]
fn a_failed_catalog_sync_loses_no_commit_outcome() {
    a_failed_sync_loses_nothing(|rig| &rig.catalog_faults);
}

#[test]
fn a_failed_data_sync_loses_no_committed_row() {
    a_failed_sync_loses_nothing(|rig| &rig.data_faults);
}

/// The oids a crash left something carrying: each `pg_class` row's
/// relation, and each relation the data device's synced map lists.
fn surviving_oids(rig: &common::CrashRig, db: &minidb::Db) -> Vec<minidb::Oid> {
    let mut oids: Vec<minidb::Oid> = db.catalog().relations().map(|e| e.id).collect();
    oids.extend(on_device(rig));
    oids
}

/// Four crash rounds of 700 oids each, some of them naming committed
/// tables, one round with a checkpoint in the middle and one ending in a
/// torn commit force. After each crash no oid that a surviving `pg_class`
/// row or device relation names is handed out again. (One that nothing
/// durable names may be: its `Ceiling` record was never forced.)
#[test]
fn an_oid_is_never_handed_out_twice_across_crashes() {
    let rig = common::CrashRig::new();
    let mut survivors = std::collections::HashSet::new();
    let mut db = rig.open(true);
    let mut created = Vec::new();
    for round in 0..4 {
        // Enough to cross a ceiling, few enough to stop short of the next.
        for i in 0..700 {
            let oid = db.alloc_oid().unwrap();
            assert!(!survivors.contains(&oid), "round {round}: oid {oid} handed out again");
            if i % 100 == 50 {
                let name = format!("r{round}_{i}");
                created.push((db.create_table(&name, int_table()).unwrap(), name));
            }
            if round == 1 && i == 350 {
                db.checkpoint().unwrap();
            }
        }
        if round == 2 {
            let (rel, _) = created[0];
            let mut s = db.begin().unwrap();
            for v in 0..2000 {
                s.insert(rel, vec![Datum::Int4(v)]).unwrap();
            }
            rig.log_faults.fail_after_writes(1);
            assert!(s.commit().is_err(), "the commit force is torn");
            rig.log_faults.clear_write_fault();
        }
        rig.crash(db);
        db = rig.open(false);
        for (rel, name) in &created {
            assert_eq!(db.relation_id(name).unwrap(), *rel, "round {round}: {name} lost");
        }
        survivors.extend(surviving_oids(&rig, &db));
    }
    for _ in 0..2100 {
        let oid = db.alloc_oid().unwrap();
        assert!(!survivors.contains(&oid), "oid {oid} handed out again");
    }
    assert_clean(&db);
}

/// 200 committed index inserts that each go in *front* of the leaf's other
/// entries, existing only in the log when the power goes — and, for
/// `torn_tail`, a further transaction whose commit force is torn after one
/// block. Such an insert is logged as slot + item, not as an image of the
/// page it shifted: replay must rebuild the leaf from 200 of them, in
/// order, on top of whatever the torn tail left.
fn mid_leaf_index_inserts_survive(torn_tail: bool) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let schema = Schema::new([("v", TypeId::INT4), ("pad", TypeId::TEXT)]);
    let rel = db.create_table("t", schema).unwrap();
    let idx = db.create_index("t_v", rel, &["v"]).unwrap();
    db.flush_caches().unwrap();
    // Descending: every key goes in front of all the others.
    let insert = |db: &minidb::Db, vals: std::ops::Range<i32>, pad: &str| {
        let mut s = db.begin().unwrap();
        for v in vals.rev() {
            s.insert(rel, vec![Datum::Int4(v), Datum::Text(pad.into())]).unwrap();
        }
        s.commit()
    };
    for batch in 0..4 {
        insert(&db, 1000 - 50 * (batch + 1)..1000 - 50 * batch, "").unwrap();
    }
    if torn_tail {
        // Ten more entries in front, behind 30 KB of heap log: the force
        // dies after its first block.
        rig.log_faults.fail_after_writes(1);
        assert!(insert(&db, 0..10, &"p".repeat(3000)).is_err(), "the commit force is torn");
        rig.log_faults.clear_write_fault();
    }
    rig.crash(db);

    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let of_index: Vec<&minidb::WalRecord> = records
        .iter()
        .map(|(_, rec)| rec)
        .filter(|rec| rec.page_addr().1 == idx)
        .collect();
    assert!(of_index.len() >= 200, "{} index records survive", of_index.len());
    for rec in of_index {
        assert!(
            matches!(rec, minidb::WalRecord::Insert { slot: 0, .. }),
            "a non-split insert was not logged as slot 0 + item (as a page image: {})",
            matches!(rec, minidb::WalRecord::PageImage { .. })
        );
    }

    let db = rig.open(false);
    assert_clean(&db);
    let mut s = db.begin().unwrap();
    for v in 800..1000 {
        assert_eq!(s.index_scan_eq(idx, &[Datum::Int4(v)]).unwrap().len(), 1, "key {v}");
    }
    for v in 0..10 {
        assert!(s.index_scan_eq(idx, &[Datum::Int4(v)]).unwrap().is_empty(), "torn key {v}");
    }
    s.commit().unwrap();
    assert!(db.stats().wal.replayed_records >= 200);
    insert(&db, 700..800, "").unwrap();
    assert_clean(&db);
}

#[test]
fn mid_leaf_index_inserts_replay_from_slot_and_item_records() {
    mid_leaf_index_inserts_survive(false);
}

#[test]
fn mid_leaf_index_inserts_replay_under_a_torn_log_tail() {
    mid_leaf_index_inserts_survive(true);
}

/// A B-tree's root is block 0 for life: a full root moves its halves to two
/// new pages and is rewritten in place as the node over them — three page
/// images, the root's last. The root of `t_k` is on the device unsplit and
/// the split exists only in the log when the power goes: whole, behind a
/// commit that succeeded (`torn_after: None`), or cut short by a commit
/// force that died after that many blocks, somewhere among the images.
/// Returns how many of the three images outlived the crash.
fn a_root_split_meets_a_crash(torn_after: Option<u64>) -> usize {
    a_root_split_and_its_force(torn_after).0
}

/// [`a_root_split_meets_a_crash`], also returning how many log blocks the
/// split's commit force wrote before it finished or was torn.
fn a_root_split_and_its_force(torn_after: Option<u64>) -> (usize, u64) {
    let rig = common::CrashRig::new();
    let db = rig.open(true);
    let rel = db.create_table("t", Schema::new([("k", TypeId::TEXT)])).unwrap();
    let idx = db.create_index("t_k", rel, &["k"]).unwrap();
    // Seven or so to a node.
    let key = |k: usize| Datum::Text(format!("{k:0>1000}"));
    let mut s = db.begin().unwrap();
    for k in 0..5 {
        s.insert(rel, vec![key(k)]).unwrap();
    }
    s.commit().unwrap();
    db.flush_caches().unwrap();
    assert_eq!(db.relation_pages(idx).unwrap(), 1, "the root is still a leaf");

    // One more transaction: it fills the root and splits it.
    let mut s = db.begin().unwrap();
    let mut last = 5;
    while db.relation_pages(idx).unwrap() == 1 {
        s.insert(rel, vec![key(last)]).unwrap();
        last += 1;
    }
    assert_eq!(db.relation_pages(idx).unwrap(), 3, "both halves moved out");
    let log_writes = || rig.log_probe.writes.load(std::sync::atomic::Ordering::SeqCst);
    let before = log_writes();
    match torn_after {
        None => s.commit().unwrap(),
        Some(blocks) => {
            rig.log_faults.fail_after_writes(blocks);
            assert!(s.commit().is_err(), "the commit force is torn");
            rig.log_faults.clear_write_fault();
        }
    }
    let force_blocks = log_writes() - before;
    drop(s);
    rig.crash(db);

    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let images = records
        .iter()
        .filter(|(_, rec)| matches!(rec, minidb::WalRecord::PageImage { rel, .. } if *rel == idx))
        .count();

    let db = rig.open(false);
    assert_clean(&db);
    let committed = if torn_after.is_some() { 5 } else { last };
    let mut s = db.begin().unwrap();
    for k in 0..last {
        let hits = s.index_scan_eq(idx, &[key(k)]).unwrap().len();
        assert_eq!(hits, usize::from(k < committed), "key {k} of {committed} committed");
    }
    // The tree goes on growing from whichever root it recovered to.
    for k in last..last + 40 {
        s.insert(rel, vec![key(k)]).unwrap();
    }
    s.commit().unwrap();
    assert_clean(&db);
    (images, force_blocks)
}

#[test]
fn a_root_split_that_exists_only_in_the_log_replays_over_the_unsplit_root() {
    assert_eq!(a_root_split_meets_a_crash(None), 3);
}

#[test]
fn a_force_torn_among_a_root_splits_images_recovers_to_the_unsplit_root() {
    // Tear the force after every block but its last.
    let (_, force_blocks) = a_root_split_and_its_force(None);
    let survived: Vec<usize> = (1..force_blocks).map(|blocks| a_root_split_meets_a_crash(Some(blocks))).collect();
    assert!(
        survived.iter().any(|n| (1..3).contains(n)),
        "no tear fell between the images: {survived:?} survived"
    );
}

// ---------------------------------------------------------------------------
// The vacuum cleaner is one logged transaction: it builds new storage and
// swaps it in at its commit, so every way it can end leaves one state.

/// The ints of `rel` as of `t`, sorted.
fn ints_at(db: &minidb::Db, rel: minidb::RelId, t: simdev::SimInstant) -> Vec<i64> {
    let mut h = db.snapshot_at(t);
    let mut got: Vec<i64> =
        h.seq_scan(rel).unwrap().iter().map(|(_, row)| row[0].as_int().unwrap()).collect();
    got.sort_unstable();
    got
}

/// A fresh database on `rig` whose table `t` holds 1 and 2 at the instant
/// returned; then 1 became 10, and a checkpoint drained everything.
fn history_to_vacuum(rig: &common::CrashRig) -> (minidb::Db, minidb::RelId, simdev::SimInstant) {
    let db = rig.open(true);
    let t = db.create_table("t", int_table()).unwrap();
    insert_ints(&db, t, 1..3);
    let cp1 = db.now();
    let mut s = db.begin().unwrap();
    let (tid, _) = s.seq_scan(t).unwrap().into_iter().find(|(_, row)| row[0] == Datum::Int4(1)).unwrap();
    s.update(t, tid, vec![Datum::Int4(10)]).unwrap();
    s.commit().unwrap();
    db.checkpoint().unwrap();
    (db, t, cp1)
}

/// What every test below ends on: the present once, the past whole, and
/// nothing the verifier objects to.
fn assert_vacuumed_or_not(db: &minidb::Db, t: minidb::RelId, cp1: simdev::SimInstant) {
    assert_eq!(ints_of(db, t), [2, 10]);
    assert_eq!(ints_at(db, t, cp1), [1, 2]);
    assert_clean(db);
}

/// A vacuum whose commit cannot reach the log is aborted whole, and so is
/// what it wrote when the power goes.
#[test]
fn history_survives_a_failed_vacuum_and_a_crash() {
    let rig = common::CrashRig::new();
    let (db, t, cp1) = history_to_vacuum(&rig);
    rig.log_faults.fail_after_writes(0);
    assert!(vacuum(&db, t, DeviceId::DEFAULT).is_err(), "its commit cannot reach the log");
    assert_vacuumed_or_not(&db, t, cp1);
    rig.crash(db);
    rig.log_faults.clear_write_fault();
    let db = rig.open(false);
    assert_vacuumed_or_not(&db, t, cp1);
}

/// The vacuum writes nothing to the data device itself, so a write fault
/// armed there while it fills the archive does not fail it: it commits,
/// and the fault trips at the next checkpoint's sync, which takes the
/// database down. The catalog is consistent at every step, and the reopen
/// replays the vacuum from the log.
#[test]
fn a_data_device_write_fault_under_a_vacuum_leaves_the_catalog_consistent() {
    let rig = common::CrashRig::new();
    let (db, t, cp1) = history_to_vacuum(&rig);
    rig.data_faults.fail_after_writes(0);
    assert_eq!(vacuum(&db, t, DeviceId::DEFAULT).unwrap().archived, 1);
    assert_vacuumed_or_not(&db, t, cp1);
    assert!(db.checkpoint().is_err(), "the fault trips at the sync");
    assert_vacuumed_or_not(&db, t, cp1);
    rig.crash(db);
    rig.data_faults.clear_write_fault();
    let db = rig.open(false);
    assert_vacuumed_or_not(&db, t, cp1);
    assert!(db.catalog().relation(t).unwrap().archive.is_some(), "the vacuum committed");
}

/// A vacuum that fails part-way through filling its archive: with a pool
/// of 16 frames the archive's pages evict one another, and each eviction
/// must force the log first, which fails. Everything it built goes.
#[test]
fn a_vacuum_that_fails_while_it_fills_the_archive_takes_everything_back() {
    let rig = common::CrashRig::new();
    let db = rig.try_open(true, minidb::DbConfig { buffers: 16, ..minidb::DbConfig::default() }).unwrap();
    let t = db.create_table("t", Schema::new([("v", TypeId::INT4), ("pad", TypeId::TEXT)])).unwrap();
    let mut s = db.begin().unwrap();
    let pad = "p".repeat(1000);
    let tids: Vec<_> =
        (0..200).map(|v| s.insert(t, vec![Datum::Int4(v), Datum::Text(pad.clone())]).unwrap()).collect();
    s.commit().unwrap();
    let mut s = db.begin().unwrap();
    for &tid in &tids[10..] {
        s.delete(t, tid).unwrap();
    }
    s.commit().unwrap();
    db.checkpoint().unwrap();
    let before = on_device(&rig);
    rig.log_faults.fail_after_writes(0);
    assert!(vacuum(&db, t, DeviceId::DEFAULT).is_err());
    rig.log_faults.clear_write_fault();
    assert!(db.relation_id("t,arch").is_err(), "the archive it created is taken back");
    assert_eq!(ints_of(&db, t), (0..10).collect::<Vec<i64>>());
    assert_clean(&db);
    db.checkpoint().unwrap();
    assert_eq!(on_device(&rig), before, "the storage it built is released");
    let stats = vacuum(&db, t, DeviceId::DEFAULT).unwrap();
    assert_eq!((stats.kept, stats.archived), (10, 190));
    assert_clean(&db);
}

/// A vacuum's commit is durable once its force returns; the old storage
/// goes later, at the last unpin of a read in flight, and leaves the
/// device's map at the checkpoint after that. A crash in between finds
/// both storages on the device and one row in `pg_class` naming the new:
/// reopening reads every row once and releases the old storage.
#[test]
fn a_crash_after_a_vacuum_commits_but_before_its_old_storage_goes_recovers_once() {
    let rig = common::CrashRig::new();
    let (db, t, cp1) = history_to_vacuum(&rig);
    let idx = db.create_index("t_v", t, &["v"]).unwrap();
    let old = db.catalog().relation(t).unwrap().storage;
    let mut new = old;
    let mut h = db.snapshot_at(cp1);
    let mut seen = Vec::new();
    h.index_scan_range(idx, None, None, |_, row| {
        if seen.is_empty() {
            std::thread::scope(|s| {
                s.spawn(|| {
                    vacuum(&db, t, DeviceId::DEFAULT).unwrap();
                    new = db.catalog().relation(t).unwrap().storage;
                    db.checkpoint().unwrap();
                });
            });
            db.simulate_crash();
        }
        seen.push(row[0].as_int().unwrap());
        Ok(true)
    })
    .unwrap();
    assert_eq!(seen, [1, 2], "the read in flight kept its storage");
    drop(h);
    rig.crash(db);
    assert!(old != new && on_device(&rig).contains(&old) && on_device(&rig).contains(&new));

    let db = rig.open(false);
    assert_eq!(db.catalog().relation(t).unwrap().storage, new);
    assert_vacuumed_or_not(&db, t, cp1);
    let mut s = db.begin().unwrap();
    assert_eq!(s.index_scan_eq(idx, &[Datum::Int4(10)]).unwrap().len(), 1);
    s.commit().unwrap();
    db.checkpoint().unwrap();
    assert!(!on_device(&rig).contains(&old), "reopening released the old storage");
}

/// A crash in the middle of a vacuum, after a checkpoint put the storage it
/// built on the device: a transaction holding `pg_class`'s lock parks the
/// vacuum at its archive's create, once the new heap is built. Nothing
/// names that storage, so reopening releases it and reads the heap as it
/// was.
#[test]
fn a_crash_in_the_middle_of_a_vacuum_recovers_the_heap_as_it_was() {
    let rig = common::CrashRig::new();
    let (db, t, cp1) = history_to_vacuum(&rig);
    let before = on_device(&rig);
    let mut ddl = db.begin().unwrap();
    ddl.create_table_on("other", int_table(), DeviceId::DEFAULT, false).unwrap();
    let waits = db.stats().lock.waits;
    std::thread::scope(|s| {
        let vacuumer = s.spawn(|| vacuum(&db, t, DeviceId::DEFAULT));
        assert!(common::wait_until(|| db.stats().lock.waits > waits), "the vacuum parks");
        db.checkpoint().unwrap();
        // The new heap and the archive, and `other`.
        assert_eq!(on_device(&rig).len(), before.len() + 3, "the build is on the device");
        assert_clean(&db); // Storage and rows in flight are not findings.
        // Nothing from here on reaches the log: the vacuum never commits.
        rig.log_faults.fail_after_writes(0);
        ddl.abort().unwrap();
        assert!(vacuumer.join().unwrap().is_err());
    });
    rig.crash(db);
    rig.log_faults.clear_write_fault();

    let db = rig.open(false);
    assert_vacuumed_or_not(&db, t, cp1);
    assert!(db.relation_id("t,arch").is_err() && db.relation_id("other").is_err());
    db.checkpoint().unwrap();
    assert_eq!(on_device(&rig), before, "reopening released what the vacuum built");
}

// ---------------------------------------------------------------------------
// A migration is a vacuum pass onto another device: the same one swap, so
// every way it can end leaves the file on one device, its past whole.

/// A fresh database on `rig`'s two data devices whose file `/f`, on device
/// 0, was two chunks at the first instant returned; then its head was
/// overwritten, at the second, and a checkpoint drained everything. With
/// the file as it reads then.
fn file_to_migrate(
    rig: &common::CrashRig,
) -> (minidb::Db, InversionFs, [simdev::SimInstant; 2], common::FileView) {
    let db = rig.open(true);
    let fs = InversionFs::format(db.clone()).unwrap();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), &vec![7u8; inversion::CHUNK_SIZE + 300]).unwrap();
    let first = db.now();
    c.p_begin().unwrap();
    let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"HEAD").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let times = [first, db.now()];
    db.checkpoint().unwrap();
    let view = common::FileView::of(&fs, "/f", &times);
    (db, fs, times, view)
}

/// Migrates `/f` to device 1 in a transaction of its own.
fn migrate(fs: &InversionFs) -> inversion::InvResult<()> {
    let mut s = fs.db().begin()?;
    let oid = fs.resolve(&mut s, "/f")?;
    inversion::migrate::migrate_file(fs, &mut s, oid, DeviceId(1))?;
    Ok(s.commit()?)
}

fn reopen_fs(rig: &common::CrashRig) -> (minidb::Db, InversionFs) {
    let db = rig.open(false);
    (db.clone(), InversionFs::attach(db).unwrap())
}

/// A crash in the middle of a migration, after a checkpoint put what it
/// built on device 1: a transaction holding `pg_class`'s lock parks it at
/// its archive's create, once the new heap and index are built. Nothing
/// names that storage, so reopening releases it and reads the file as it
/// was, on device 0.
#[test]
fn a_crash_in_the_middle_of_a_migration_recovers_the_file_as_it_was() {
    let rig = common::CrashRig::with_two_data_devices();
    let data1 = rig.data1.clone().unwrap();
    let (db, fs, times, before) = file_to_migrate(&rig);
    let stored = [on_device(&rig), common::relations_on(&data1)];
    let mut ddl = db.begin().unwrap();
    ddl.create_table_on("other", int_table(), DeviceId::DEFAULT, false).unwrap();
    let waits = db.stats().lock.waits;
    std::thread::scope(|s| {
        let migrator = s.spawn(|| migrate(&fs));
        assert!(common::wait_until(|| db.stats().lock.waits > waits), "the migration parks");
        db.checkpoint().unwrap();
        // The new heap, index and archive on device 1; `other` on device 0.
        assert_eq!(on_device(&rig).len(), stored[0].len() + 1);
        assert_eq!(common::relations_on(&data1).len(), stored[1].len() + 3, "the build is on device 1");
        assert_clean(&db);
        // Nothing from here on reaches the log: the migration never commits.
        rig.log_faults.fail_after_writes(0);
        ddl.abort().unwrap();
        assert!(migrator.join().unwrap().is_err());
    });
    db.simulate_crash();
    rig.power_cut();
    drop((fs, db));
    rig.log_faults.clear_write_fault();

    let (db, fs) = reopen_fs(&rig);
    before.assert_moved_or_not(&fs, "/f", &times, false);
    assert!(db.relation_id("other").is_err());
    db.checkpoint().unwrap();
    assert_eq!([on_device(&rig), common::relations_on(&data1)], stored, "reopening released the build");
}

/// A migration's commit is durable once its force returns; the old storage
/// on device 0 goes at the last unpin of a read in flight, and leaves the
/// device's map at the checkpoint after that. A crash in between finds the
/// old storage on device 0 and the new on device 1: reopening reads the
/// file once, from device 1, and releases the old storage.
#[test]
fn a_crash_after_a_migration_commits_but_before_its_old_storage_goes_recovers_once() {
    let rig = common::CrashRig::with_two_data_devices();
    let data1 = rig.data1.clone().unwrap();
    let (db, fs, times, before) = file_to_migrate(&rig);
    let stat = fs.client().p_stat("/f", None).unwrap();
    let rels = [stat.datarel, stat.chunkidx];
    let storage = |db: &minidb::Db| rels.map(|rel| db.catalog().relation(rel).unwrap().storage);
    let old = storage(&db);
    let mut new = old;
    let mut h = db.snapshot_at(times[1]);
    let mut seen = 0;
    h.index_scan_range(stat.chunkidx, None, None, |_, _| {
        if seen == 0 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    migrate(&fs).unwrap();
                    new = storage(&db);
                    db.checkpoint().unwrap();
                });
            });
            db.simulate_crash();
        }
        seen += 1;
        Ok(true)
    })
    .unwrap();
    assert_eq!(seen, 2, "the read in flight kept its storage");
    drop(h);
    rig.power_cut();
    drop((fs, db));
    assert!(old.iter().all(|s| on_device(&rig).contains(s)), "the old storage is on device 0");
    assert!(new.iter().all(|s| common::relations_on(&data1).contains(s)), "the new on device 1");

    let (db, fs) = reopen_fs(&rig);
    assert_eq!(storage(&db), new);
    assert!(rels.iter().all(|&rel| db.catalog().relation(rel).unwrap().device == DeviceId(1)));
    before.assert_moved_or_not(&fs, "/f", &times, true);
    db.checkpoint().unwrap();
    assert!(!old.iter().any(|s| on_device(&rig).contains(s)), "reopening released the old storage");
}
