//! Access times are written back lazily.
//!
//! Closing a descriptor that was only read records the file's access time
//! in the mount and touches nothing else: no write transaction, no `fileatt`
//! lock, no log record, no new `fileatt` version. A current `p_stat` shows
//! the pending time; the row catches up when a real metadata write of the
//! file carries it along or when `InversionFs::flush_atimes` writes every
//! pending time back in one transaction. A crash loses pending access
//! times and nothing that was committed.

mod common;

use std::sync::atomic::Ordering::SeqCst;
use std::time::Duration;

use common::{data_page_writes, log_syncs, CrashRig, Devices, ProbedDisk};
use inversion::{CreateMode, InvClient, InversionFs, LargeObject, OpenMode};
use minidb::{Datum, Oid};
use simdev::{SimDuration, SimInstant};

/// A file system on a probed log device, with no checkpoint timer: the
/// tests move the clock by seconds, and every log sync they count must be
/// one the code under test asked for.
fn probed_fs() -> (InversionFs, std::sync::Arc<common::Probe>) {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    devices.log = log;
    let db = devices.format_with(minidb::DbConfig {
        checkpoint_interval: SimDuration::ZERO,
        ..minidb::DbConfig::default()
    });
    (InversionFs::format(db).unwrap(), probe)
}

/// Moves the clock on, then reads one byte of `path` through a descriptor
/// and closes it, auto-commit. Returns the time of the close.
fn read_and_close(fs: &InversionFs, c: &mut InvClient, path: &str) -> SimInstant {
    fs.db().clock().advance(SimDuration::from_secs(1));
    let fd = c.p_open(path, OpenMode::Read, None).unwrap();
    assert_eq!(c.p_read(fd, &mut [0u8; 1]).unwrap(), 1);
    c.p_close(fd).unwrap();
    fs.db().now()
}

/// The access time of every committed `fileatt` version of `oid`.
fn fileatt_atimes(fs: &InversionFs, oid: Oid) -> Vec<SimInstant> {
    let fileatt = fs.db().relation_id("fileatt").unwrap();
    let mut s = fs.db().begin().unwrap();
    let rows = s.scan_committed_versions(fileatt).unwrap();
    s.commit().unwrap();
    rows.iter()
        .filter(|row| row[0] == Datum::Oid(oid.0))
        .map(|row| SimInstant::from_nanos(row[6].as_int().unwrap() as u64))
        .collect()
}

#[test]
fn an_atime_only_close_waits_for_nobody_and_writes_nothing() {
    let (fs, probe) = probed_fs();
    let (mut a, mut b) = (fs.client(), fs.client());
    a.write_all("/b", CreateMode::default(), b"b").unwrap();
    let oid = a.p_stat("/b", None).unwrap().oid;
    let versions = fileatt_atimes(&fs, oid).len();

    // B has read; A's transaction then takes `fileatt` exclusive.
    fs.db().clock().advance(SimDuration::from_secs(1));
    let fd = b.p_open("/b", OpenMode::Read, None).unwrap();
    assert_eq!(b.p_read(fd, &mut [0u8; 1]).unwrap(), 1);
    a.p_begin().unwrap();
    a.p_creat("/a", CreateMode::default()).unwrap();

    let before = fs.db().stats();
    let (syncs, log_writes) = (log_syncs(&probe), probe.writes.load(SeqCst));
    b.p_close(fd).unwrap();
    let d = fs.db().stats().delta(&before);
    assert_eq!(d.lock.waits, 0, "the close queues behind no writer");
    assert_eq!(d.lock.acquisitions, 0, "it takes no lock at all");
    assert_eq!(d.xact.commits + d.xact.aborts, 0, "and starts no transaction");
    assert_eq!(d.wal.records_appended, 0);
    assert_eq!(log_syncs(&probe), syncs, "no log force");
    assert_eq!(probe.writes.load(SeqCst), log_writes, "no log write");
    assert_eq!(data_page_writes(&d), 0, "no data write");

    a.p_commit().unwrap();
    assert_eq!(fileatt_atimes(&fs, oid).len(), versions, "no new fileatt version");
    assert_eq!(fs.stats().atimes_deferred.get(), 1);
}

#[test]
fn the_pending_atime_shows_in_any_clients_current_stat_and_in_no_past_one() {
    let (fs, _) = probed_fs();
    let (mut reader, mut other) = (fs.client(), fs.client());
    reader.write_all("/f", CreateMode::default(), b"x").unwrap();
    let created = other.p_stat("/f", None).unwrap();
    let before_read = fs.db().now();
    let read_at = read_and_close(&fs, &mut reader, "/f");
    assert!(read_at > created.atime);

    assert_eq!(other.p_stat("/f", None).unwrap().atime, read_at);
    // History is what `fileatt` held: the past has no pending state, and
    // neither has the present seen as history.
    for t in [before_read, fs.db().now()] {
        assert_eq!(other.p_stat("/f", Some(t)).unwrap().atime, created.atime);
    }
    // Nor has the relation itself: a query shows the last write-back.
    let query = format!("retrieve (a.atime) from a in fileatt where a.file = {}", created.oid.0);
    let stored = |fs: &InversionFs| {
        let mut s = fs.db().begin().unwrap();
        let res = s.query(&query).unwrap();
        s.commit().unwrap();
        res.rows
    };
    assert_eq!(stored(&fs), [[Datum::Time(created.atime.as_nanos())]]);
    assert_eq!(fs.flush_atimes().unwrap(), 1);
    assert_eq!(stored(&fs), [[Datum::Time(read_at.as_nanos())]]);
    assert_eq!(other.p_stat("/f", None).unwrap().atime, read_at);
}

#[test]
fn a_real_metadata_write_carries_the_pending_atime_in_its_one_row() {
    let (fs, _) = probed_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), b"x").unwrap();
    c.write_all("/g", CreateMode::default(), b"x").unwrap();
    let (f, g) = (c.p_stat("/f", None).unwrap().oid, c.p_stat("/g", None).unwrap().oid);
    let versions = fileatt_atimes(&fs, f).len();

    // A one-byte append through a descriptor.
    let read_at = read_and_close(&fs, &mut c, "/f");
    c.p_begin().unwrap();
    let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
    c.p_lseek(fd, 0, inversion::SeekWhence::End).unwrap();
    c.p_write(fd, b"y").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let atimes = fileatt_atimes(&fs, f);
    assert_eq!(atimes.len(), versions + 1, "one row for size, mtime and atime");
    assert!(*atimes.iter().max().unwrap() >= read_at);

    // A large-object write sets size and mtime only: the access time in
    // its row is the pending one, not the stale one it read.
    let read_at = read_and_close(&fs, &mut c, "/g");
    let mut s = fs.db().begin().unwrap();
    LargeObject::open(&fs, &mut s, g).unwrap().write_at(&mut s, 1, b"y").unwrap();
    s.commit().unwrap();
    assert_eq!(fileatt_atimes(&fs, g).iter().max(), Some(&read_at));

    // Both rows have caught up: the write-back step finds nothing to do.
    let before = fs.db().stats();
    assert_eq!(fs.flush_atimes().unwrap(), 0);
    assert_eq!(fs.db().stats().delta(&before).wal.records_appended, 0);
    assert_eq!(fs.stats().atime_flushes.get(), 0);
}

#[test]
fn flush_atimes_writes_every_pending_file_in_one_commit_and_then_nothing() {
    let (fs, probe) = probed_fs();
    let mut c = fs.client();
    let paths: Vec<String> = (0..5).map(|i| format!("/f{i}")).collect();
    for p in &paths {
        c.write_all(p, CreateMode::default(), b"x").unwrap();
    }
    let mut read_at = Vec::new();
    for p in &paths {
        read_at.push(read_and_close(&fs, &mut c, p));
        read_at.push(read_and_close(&fs, &mut c, p));
    }

    let before = fs.db().stats();
    let syncs = log_syncs(&probe);
    assert_eq!(fs.flush_atimes().unwrap(), 5, "one row per file, not per read");
    let d = fs.db().stats().delta(&before);
    assert_eq!((d.xact.commits, d.heap.appends), (1, 5));
    assert_eq!(log_syncs(&probe), syncs + 1, "one force for all five");
    for (i, p) in paths.iter().enumerate() {
        let stat = c.p_stat(p, Some(fs.db().now())).unwrap();
        assert_eq!(stat.atime, read_at[2 * i + 1], "{p}: the later read, durably");
    }

    let before = fs.db().stats();
    assert_eq!(fs.flush_atimes().unwrap(), 0);
    let d = fs.db().stats().delta(&before);
    assert_eq!((d.xact.commits, d.wal.records_appended), (0, 0), "nothing pending, nothing begun");
    assert_eq!(log_syncs(&probe), syncs + 1);

    // "How many are waiting and who wrote them back" is a query.
    let mut s = fs.db().begin().unwrap();
    let res = s
        .query("retrieve (i.op, i.count) from i in inv_stat where i.count > 0")
        .unwrap();
    s.commit().unwrap();
    let count = |op: &str| {
        res.rows
            .iter()
            .find(|r| r[0] == Datum::Text(op.into()))
            .map(|r| r[1].clone())
    };
    assert_eq!(count("atimes_deferred"), Some(Datum::Int8(10)));
    assert_eq!(count("atime_flushes"), Some(Datum::Int8(1)));
    assert_eq!(count("atimes_written"), Some(Datum::Int8(5)));
}

#[test]
fn a_write_back_that_fails_and_a_write_that_aborts_lose_no_pending_atime() {
    let (fs, probe) = probed_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), b"x").unwrap();
    let f = c.p_stat("/f", None).unwrap().oid;
    let versions = fileatt_atimes(&fs, f).len();
    let read_at = read_and_close(&fs, &mut c, "/f");

    // A real write of the file carries the access time — and aborts.
    c.p_begin().unwrap();
    let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"zz").unwrap();
    c.p_close(fd).unwrap();
    c.p_abort().unwrap();
    assert_eq!(c.p_stat("/f", None).unwrap().atime, read_at);

    // The write-back's own commit fails at the log device.
    probe.fail_next_write.store(true, SeqCst);
    fs.flush_atimes().expect_err("the log write was refused");
    assert_eq!(fileatt_atimes(&fs, f).len(), versions);
    assert_eq!(c.p_stat("/f", None).unwrap().atime, read_at);

    assert_eq!(fs.flush_atimes().unwrap(), 1);
    assert_eq!(fileatt_atimes(&fs, f).iter().max(), Some(&read_at));
}

#[test]
fn an_unlinked_file_is_passed_over_and_forgotten() {
    let (fs, _) = probed_fs();
    let mut c = fs.client();
    c.write_all("/gone", CreateMode::default(), b"x").unwrap();
    c.write_all("/kept", CreateMode::default(), b"x").unwrap();
    read_and_close(&fs, &mut c, "/gone");
    let read_at = read_and_close(&fs, &mut c, "/kept");
    c.p_unlink("/gone").unwrap();

    assert_eq!(fs.flush_atimes().unwrap(), 1, "only the file that still has a row");
    assert_eq!(c.p_stat("/kept", Some(fs.db().now())).unwrap().atime, read_at);
    let before = fs.db().stats();
    assert_eq!(fs.flush_atimes().unwrap(), 0);
    assert_eq!(fs.db().stats().delta(&before).xact.commits, 0, "neither entry is left");
    assert!(fs.db().check_all().is_empty() && fs.check().is_empty());
}

#[test]
fn a_crash_loses_pending_access_times_and_no_committed_one() {
    let rig = CrashRig::new();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), b"x").unwrap();
    let committed = read_and_close(&fs, &mut c, "/f");
    assert_eq!(fs.flush_atimes().unwrap(), 1);
    let pending = read_and_close(&fs, &mut c, "/f");
    assert_eq!(c.p_stat("/f", None).unwrap().atime, pending);
    drop(c);
    let db = fs.db().clone();
    drop(fs);
    rig.crash(db);

    let fs = InversionFs::attach(rig.open(false)).unwrap();
    assert_eq!(fs.client().p_stat("/f", None).unwrap().atime, committed);
    assert_eq!(fs.client().read_to_vec("/f", None).unwrap(), b"x");
    assert_eq!(fs.db().check_all(), []);
    assert_eq!(fs.check(), []);
}
