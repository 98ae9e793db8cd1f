//! Who forces the log, and when.
//!
//! The paper's commit is one force: "when the status file is forced, the
//! transaction is durable". Here that force is of the write-ahead log, and
//! exactly three things may ask for it — a commit, the buffer manager
//! writing back a page whose last change is not yet durable, and a
//! checkpoint's truncation. An insert is none of them: however many index
//! entries a transaction adds and however much log it appends, the log
//! device sees nothing until the commit, and then one write-and-sync.

mod common;

use std::sync::atomic::Ordering::SeqCst;
use std::time::Duration;

use common::{data_page_writes, log_syncs, Devices, Probe, ProbedDisk};
use inversion::{CreateMode, InversionFs};
use minidb::{Datum, Db, DbConfig, RelId, Schema, TypeId, Wal};
use simdev::SimDuration;

/// A database on a probed log device whose pool is full of clean pages and
/// whose log is empty, with an indexed relation `t(k)` that has its first
/// heap page. A page enters the pool referenced, so the inserts that follow
/// find `t`'s pages where the one insert here left them — no warm-up.
fn full_pool(config: DbConfig) -> (Devices, std::sync::Arc<Probe>, Db, RelId) {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    devices.log = log;
    let frames = config.buffers;
    let db = devices.format_with(config);
    let t = db
        .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)]))
        .unwrap();
    db.create_index("t_k", t, &["k"]).unwrap();
    let filler = db
        .create_table("filler", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
    let mut s = db.begin().unwrap();
    for i in 0..2 * frames {
        // One row per page.
        s.insert(filler, vec![Datum::Text(format!("{i:0>7000}"))]).unwrap();
    }
    assert!(db.buffer_stats().evictions > 0, "the pool must be under replacement");
    s.insert(t, row(1000)).unwrap();
    s.commit().unwrap();
    db.checkpoint().unwrap();
    (devices, probe, db, t)
}

fn row(k: i32) -> Vec<Datum> {
    vec![Datum::Int4(k), Datum::Text("v".into())]
}

/// Sixteen inserts into `t`, each adding an index entry; returns the
/// session, uncommitted.
fn sixteen_indexed_inserts(db: &Db, t: RelId) -> minidb::Session {
    let mut s = db.begin().unwrap();
    for k in 0..16 {
        // Descending keys: every entry goes in front of the last one, not
        // at the end of the leaf.
        s.insert(t, row(100 - k)).unwrap();
    }
    s
}

/// The default configuration: the inserts of a transaction cost the log
/// device nothing, its commit costs one sync, and no index page is written
/// through on the way.
#[test]
fn inserts_force_nothing_and_the_commit_forces_once() {
    let (_devices, probe, db, t) = full_pool(DbConfig::default());
    let before = db.stats();
    let syncs = log_syncs(&probe);

    let mut s = sixteen_indexed_inserts(&db, t);
    let d = db.stats().delta(&before);
    assert_eq!(data_page_writes(&d), 0, "no index page is written through");
    assert_eq!(d.btree.page_writes, 0);
    assert_eq!(log_syncs(&probe), syncs, "an insert must not force the log");
    assert_eq!(d.wal.log_forces, 0);

    s.commit().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(data_page_writes(&d), 0, "no-force commit");
    assert_eq!(log_syncs(&probe), syncs + 1, "the commit is the one force");
    assert_eq!(
        (d.wal.log_forces, d.wal.forces_commit, d.wal.forces_writeback, d.wal.forces_checkpoint),
        (1, 1, 0, 0),
        "and pg_stat_wal says the committer asked for it"
    );
}

/// The paper configuration stays what it was: with the POSTGRES 4.0.1
/// emulation on and the pool under replacement, every insert writes the
/// index through — and, under a WAL, pays a log force for the privilege.
#[test]
fn the_write_through_emulation_writes_the_index_on_every_insert() {
    let (_devices, probe, db, t) = full_pool(DbConfig {
        eager_index_writes: true,
        ..DbConfig::default()
    });
    let before = db.stats();
    let syncs = log_syncs(&probe);
    let mut s = sixteen_indexed_inserts(&db, t);
    let d = db.stats().delta(&before);
    assert!(d.btree.page_writes >= 16, "got {}", d.btree.page_writes);
    assert_eq!(d.wal.forces_writeback, 16, "one force per written-through page");
    assert_eq!(log_syncs(&probe), syncs + 16);
    assert_eq!(d.buffer.misses, 0, "and none of them was an eviction's");
    s.commit().unwrap();
}

/// A new relation is made durable by its row's commit force and nothing
/// else. With no checkpoint in the window, creating a table and building an
/// index over rows writes and syncs nothing on the data device, and the log
/// device syncs once per DDL commit. (The parent rewrote and synced the
/// device's relation map at every create, and flushed and synced the index
/// after its unlogged build.)
#[test]
fn ddl_is_log_appends_and_one_force_per_commit() {
    let mut devices = Devices::new();
    let (log, log_probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    let (data, data_probe) = ProbedDisk::data(&devices.clock);
    (devices.log, devices.data) = (log, data);
    let db = devices.format_with(DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let t = db
        .create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)]))
        .unwrap();
    let mut s = db.begin().unwrap();
    for k in 0..500 {
        s.insert(t, row(k)).unwrap();
    }
    s.commit().unwrap();
    db.checkpoint().unwrap();

    let before = db.stats();
    let data_io = || (data_probe.writes.load(SeqCst), data_probe.syncs.load(SeqCst));
    let (data_before, syncs) = (data_io(), log_syncs(&log_probe));
    db.create_table("u", Schema::new([("k", TypeId::INT4)])).unwrap();
    let idx = db.create_index("t_k", t, &["k"]).unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(d.wal.checkpoints, 0, "a checkpoint ran inside the window");
    assert_eq!(data_io(), data_before, "the data device saw a write or a sync");
    assert_eq!(d.xact.commits, 2, "one commit per DDL");
    assert_eq!(log_syncs(&log_probe), syncs + 2, "and one log force per commit");
    assert_eq!(d.wal.forces_commit, 2);
    assert!(db.relation_pages(idx).unwrap() > 1, "the build split its root");
}

/// A `creat` is one transaction. Its data relation and chunk index are
/// created in the client's transaction, so `begin` / `p_creat` / a 1 KB
/// write / `commit` costs one xid, one commit and one log force, and an
/// auto-commit `p_creat` is one commit too.
#[test]
fn a_creat_is_one_commit_and_one_log_force() {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    devices.log = log;
    let db = devices.format_with(DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let fs = InversionFs::format(db.clone()).unwrap();
    let mut c = fs.client();
    c.write_all("/warm", CreateMode::default(), b"first file").unwrap();
    let next_xid = || {
        let mut s = db.begin().unwrap();
        let xid = s.xid().unwrap();
        s.commit().unwrap();
        xid.0
    };

    let xid = next_xid();
    let (before, syncs) = (db.stats(), log_syncs(&probe));
    c.p_begin().unwrap();
    let fd = c.p_creat("/one", CreateMode::default()).unwrap();
    c.p_write(fd, &[7u8; 1024]).unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(d.wal.checkpoints, 0, "a checkpoint ran inside the window");
    assert_eq!((d.xact.commits, d.xact.aborts), (1, 0), "one transaction");
    assert_eq!((d.wal.log_forces, d.wal.forces_commit), (1, 1), "one log force");
    assert_eq!(log_syncs(&probe), syncs + 1);
    assert_eq!(next_xid(), xid + 2, "one xid between the two probes");

    let before = db.stats();
    c.p_creat("/two", CreateMode::default()).unwrap();
    let d = db.stats().delta(&before);
    assert_eq!((d.xact.commits, d.xact.aborts, d.wal.forces_commit), (1, 0, 1));
    assert_eq!(c.read_to_vec("/one", None).unwrap(), [7u8; 1024]);
    assert_eq!(fs.check(), []);
}

/// A `creat` logs about what it writes. `begin` / `p_creat` / a 1 KB
/// write / `commit` appends at most 3 KB of log (`pg_stat_wal`'s
/// `bytes_appended`): the new chunk index's empty root is logged without
/// its free hole, not as an 8 KB page image.
#[test]
fn a_creat_logs_about_what_it_writes() {
    let db = Devices::new().format_with(DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let fs = InversionFs::format(db.clone()).unwrap();
    let mut c = fs.client();
    c.write_all("/warm", CreateMode::default(), b"first file").unwrap();

    let before = db.stats();
    c.p_begin().unwrap();
    let fd = c.p_creat("/one", CreateMode::default()).unwrap();
    c.p_write(fd, &[7u8; 1024]).unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(d.wal.checkpoints, 0, "a checkpoint ran inside the window");
    assert!(d.wal.bytes_appended <= 3 * 1024, "a 1 KB creat logged {} bytes", d.wal.bytes_appended);
    assert_eq!(c.read_to_vec("/one", None).unwrap(), [7u8; 1024]);
}

/// Handing out ids costs no I/O. On a warmed database, with no checkpoint
/// in the window, 3 000 read-only transactions and 3 000 oids write and
/// sync nothing on any device and add no catalog row: every 1 024th id of
/// either kind appends one `Ceiling` record to the log, unforced. (It
/// used to write and sync the status file's block 0 inline at every
/// 1 024th `begin`, and commit a transaction inserting a `pg_class` row at
/// every 1 024th oid.)
#[test]
fn ids_are_handed_out_without_io() {
    let mut devices = Devices::new();
    let (log, log_probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    let (data, data_probe) = ProbedDisk::data(&devices.clock);
    (devices.log, devices.data) = (log, data);
    let db = devices.format_with(DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let t = db.create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)])).unwrap();
    db.create_index("t_k", t, &["k"]).unwrap();
    let mut s = db.begin().unwrap();
    for k in 0..100 {
        s.insert(t, row(k)).unwrap();
    }
    s.commit().unwrap();
    db.checkpoint().unwrap();
    let class_rows = |db: &Db| {
        let mut s = db.begin().unwrap();
        let n = s.seq_scan(minidb::catalog::PG_CLASS).unwrap().len();
        s.commit().unwrap();
        n
    };
    let rows = class_rows(&db);

    let before = db.stats();
    let io = || {
        let probes = [&log_probe, &data_probe];
        probes.map(|p| (p.writes.load(SeqCst), p.syncs.load(SeqCst)))
    };
    let io_before = io();
    for _ in 0..3000 {
        let mut s = db.begin().unwrap();
        s.commit().unwrap();
    }
    for _ in 0..3000 {
        db.alloc_oid().unwrap();
    }
    let d = db.stats().delta(&before);
    assert_eq!(d.wal.checkpoints, 0, "a checkpoint ran inside the window");
    assert_eq!(io(), io_before, "the log or data device saw a write or a sync");
    for dev in &d.devices {
        assert_eq!((dev.reads, dev.writes), (0, 0), "{} saw I/O", dev.name);
    }
    assert_eq!(d.wal.log_forces, 0);
    assert_eq!(d.xact.commits, 3000, "the begins' own commits and nothing else");
    assert_eq!(class_rows(&db), rows, "a new pg_class row");
}

/// The log device holds only the log. A thousand one-row commits fill two
/// status pages; the checkpoint after them writes those pages to the
/// catalog device like any other page, and syncs the log device only to
/// truncate it: the surviving tail's half, then the control block. The log
/// then holds nothing, and a crash recovers every row from the devices.
/// (The status file used to live on the log device, which each such
/// checkpoint synced once more for it.)
#[test]
fn a_checkpoint_writes_outcomes_to_the_catalog_device_and_syncs_the_log_only_to_truncate() {
    let mut devices = Devices::new();
    let (log, log_probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    let (catalog, catalog_probe) = ProbedDisk::catalog(&devices.clock);
    (devices.log, devices.catalog) = (log, catalog);
    let db = devices.format_with(DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let t = db.create_table("t", Schema::new([("k", TypeId::INT4), ("v", TypeId::TEXT)])).unwrap();
    db.checkpoint().unwrap();
    for k in 0..1000 {
        let mut s = db.begin().unwrap();
        s.insert(t, row(k)).unwrap();
        s.commit().unwrap();
    }
    let (syncs, catalog_writes) = (log_syncs(&log_probe), catalog_probe.writes.load(SeqCst));
    let before = db.stats();
    db.checkpoint().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(log_syncs(&log_probe), syncs + 2, "the truncation's two syncs and no other");
    assert_eq!(d.wal.log_forces, 0, "every status page's outcomes were durable");
    assert!(
        catalog_probe.writes.load(SeqCst) >= catalog_writes + 2,
        "the two status pages went to the catalog device"
    );
    let (_, records) = Wal::recover(devices.log.clone(), Default::default()).unwrap();
    assert!(records.is_empty(), "the log still holds {} records", records.len());

    db.simulate_crash();
    drop(db);
    let db = devices.recover();
    let mut s = db.begin().unwrap();
    assert_eq!(s.seq_scan(t).unwrap().len(), 1000);
    s.commit().unwrap();
    assert_eq!(db.check_all(), []);
}

/// A megabyte of log appended by one transaction stays in memory — no
/// inline force however large the tail grows — until the commit writes it
/// in one force; and all of it is there after a crash.
#[test]
fn a_megabyte_of_log_waits_in_memory_for_its_commit() {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    devices.log = log;
    // Room for every page the transaction dirties, and no checkpoint timer:
    // neither an eviction nor a checkpoint forces the log in the window.
    let db = devices.format_with(DbConfig {
        buffers: 256,
        checkpoint_interval: SimDuration::ZERO,
        ..DbConfig::default()
    });
    let rel = db
        .create_table("blob", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
    db.checkpoint().unwrap();

    let before = db.stats();
    let (writes, syncs) = (probe.writes.load(SeqCst), log_syncs(&probe));
    let mut s = db.begin().unwrap();
    for i in 0..132 {
        s.insert(rel, vec![Datum::Text(format!("{i:0>8000}"))]).unwrap();
    }
    let d = db.stats().delta(&before);
    assert!(d.wal.bytes_appended >= 1 << 20, "{} bytes", d.wal.bytes_appended);
    assert_eq!(d.wal.log_forces, 0, "appending never forces");
    assert_eq!(d.wal.checkpoints, 0);
    assert_eq!(
        (probe.writes.load(SeqCst), log_syncs(&probe)),
        (writes, syncs),
        "the log device is untouched until the commit"
    );

    s.commit().unwrap();
    let d = db.stats().delta(&before);
    assert_eq!(d.wal.log_forces, 1, "one force carries the megabyte");
    assert_eq!(log_syncs(&probe), syncs + 1);

    db.simulate_crash();
    drop(db);
    let (_, records) = Wal::recover(devices.log.clone(), Default::default()).unwrap();
    assert_eq!(records.len() as u64, d.wal.records_appended, "every record survives");
}
