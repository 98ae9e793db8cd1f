//! Crash matrices and fault injection: the paper's "fast recovery" claims
//! under hostile conditions.

mod common;

use common::Devices;
use inversion::{CreateMode, InversionFs, OpenMode};
use minidb::{Datum, Schema, TypeId};

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
    // Dropping the last handle frees the database (and so stops its
    // checkpointer): no built-in relation producer or function keeps it
    // alive through the registry it is stored in. The last reference may die a moment
    // later on the checkpointer thread, if it was mid-cycle; a reference
    // cycle never would.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::sync::Arc::strong_count(&registry_alive) > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the database outlived its last handle"
        );
        std::thread::yield_now();
    }
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
    let log_disk = simdev::MagneticDisk::new(
        "log",
        clock.clone(),
        simdev::DiskProfile::tiny_for_tests(1 << 10),
    );
    let faults = log_disk.fault_plan();
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
    // Timed checkpoints are off so nothing drains the dirty pages before
    // we pull the plug.
    let rig = common::CrashRig::new();
    let open = |fresh: bool| rig.try_open(fresh, no_timed_checkpoints()).unwrap();

    let db = open(true);
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

    let db = open(false);
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
    let db = open(false);
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

/// Timed checkpoints off: nothing drains a dirty page or syncs a device
/// map behind the test's back.
fn no_timed_checkpoints() -> minidb::DbConfig {
    minidb::DbConfig {
        checkpoint_interval: simdev::SimDuration::from_nanos(0),
        ..minidb::DbConfig::default()
    }
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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
        .try_open(false, no_timed_checkpoints())
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

/// The relations the data device's map lists, as last synced.
fn on_device(rig: &common::CrashRig) -> Vec<minidb::RelId> {
    use minidb::smgr::DeviceManager;
    let mut rels = minidb::GenericManager::attach(rig.data.clone()).unwrap().relations();
    rels.sort();
    rels
}

#[test]
fn storage_a_crash_left_without_a_row_is_released_on_reopening() {
    let rig = common::CrashRig::new();
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
        ..no_timed_checkpoints()
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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
    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
        let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
        let t = db.create_table("t", int_table()).unwrap();
        insert_ints(&db, t, 0..1);
        burn_xids(&db, xids);
        insert_ints(&db, t, 1..2);
        rig.crash(db);
        let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
/// can make it: one-row transactions commit until the log refuses one (the
/// data device's I/O is paused, so no checkpoint truncates), then aborts
/// of the refused transaction fill what is left, forced, as a later commit
/// would have carried them out. Reopening takes an xid — a raise of the id
/// ceilings, one more record — before its checkpointer may truncate
/// anything. When the log could be filled to the last byte, every
/// reopening of such a database failed with `WAL full`.
#[test]
fn a_crash_that_leaves_the_log_full_recovers() {
    // 32 blocks: a log epoch of 15 blocks, about 120 KB.
    let rig = common::CrashRig::with_log_blocks(32);
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
    let t = db.create_table("t", int_table()).unwrap();
    db.flush_caches().unwrap();
    // The first checkpoint the log's filling wakes waits on the data device
    // until the crash; the log device is written directly, and commits go on.
    db.pause_io(true);
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
    rig.crash(db);
    {
        let (wal, _) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
        while wal.append(&minidb::WalRecord::Abort { xid: last }).is_ok() {}
        wal.force_up_to(wal.next_lsn()).unwrap();
    }
    let db = rig.try_open(false, no_timed_checkpoints()).expect("reopening a full log");
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
    let rig = common::CrashRig::with_log_blocks(32);
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
    let t = db.create_table("t", int_table()).unwrap();
    let fill = db.create_table("fill", int_table()).unwrap();
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
    db.pause_io(true);
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
    db.pause_io(false);
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    let mut db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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
        db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    let rig = common::CrashRig::new();
    let db = rig.try_open(true, no_timed_checkpoints()).unwrap();
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
    match torn_after {
        None => s.commit().unwrap(),
        Some(blocks) => {
            rig.log_faults.fail_after_writes(blocks);
            assert!(s.commit().is_err(), "the commit force is torn");
            rig.log_faults.clear_write_fault();
        }
    }
    drop(s);
    rig.crash(db);

    let (_, records) = minidb::Wal::recover(rig.log.clone(), Default::default()).unwrap();
    let images = records
        .iter()
        .filter(|(_, rec)| matches!(rec, minidb::WalRecord::PageImage { rel, .. } if *rel == idx))
        .count();

    let db = rig.try_open(false, no_timed_checkpoints()).unwrap();
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
    images
}

#[test]
fn a_root_split_that_exists_only_in_the_log_replays_over_the_unsplit_root() {
    assert_eq!(a_root_split_meets_a_crash(None), 3);
}

#[test]
fn a_force_torn_among_a_root_splits_images_recovers_to_the_unsplit_root() {
    let survived: Vec<usize> = (1..=3).map(|blocks| a_root_split_meets_a_crash(Some(blocks))).collect();
    assert!(
        survived.iter().any(|n| (1..3).contains(n)),
        "no tear fell between the images: {survived:?} survived"
    );
}
