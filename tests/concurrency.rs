//! Concurrency across the whole stack: multiple clients, two-phase locking,
//! transaction isolation, and shared devices.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use common::{wait_until, Devices};
use inversion::{CreateMode, InversionFs, OpenMode, SeekWhence};
use minidb::{Datum, Schema, TypeId};

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

#[test]
fn concurrent_clients_create_disjoint_files() {
    let fs = fresh_fs();
    let mut handles = Vec::new();
    for w in 0..4u32 {
        let fs = fs.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = fs.client();
            for i in 0..5 {
                let path = format!("/w{w}_{i}");
                // 2PL lock-upgrade conflicts between concurrent creators
                // surface as Deadlock; aborted transactions retry, exactly
                // as a database client would.
                loop {
                    match c.write_all(&path, CreateMode::default(), format!("{w}:{i}").as_bytes()) {
                        Ok(()) => break,
                        Err(inversion::InvError::Exists(_)) => break,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut c = fs.client();
    let entries = c.p_readdir("/", None).unwrap();
    assert_eq!(entries.len(), 20);
    for w in 0..4 {
        for i in 0..5 {
            assert_eq!(
                c.read_to_vec(&format!("/w{w}_{i}"), None).unwrap(),
                format!("{w}:{i}").as_bytes()
            );
        }
    }
}

#[test]
fn writers_to_one_file_serialize() {
    // Each transaction reads the counter file, increments, writes back.
    // 2PL (exclusive table locks) must serialize them: no lost updates.
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/counter", CreateMode::default(), b"0000")
        .unwrap();

    let retries = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let fs = fs.clone();
        let retries = retries.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = fs.client();
            for _ in 0..5 {
                loop {
                    c.p_begin().unwrap();
                    let attempt = (|| -> Result<(), inversion::InvError> {
                        let fd = c.p_open("/counter", OpenMode::ReadWrite, None)?;
                        let mut buf = [0u8; 4];
                        c.p_read(fd, &mut buf)?;
                        let v: u32 = std::str::from_utf8(&buf).unwrap().parse().unwrap();
                        c.p_lseek(fd, 0, SeekWhence::Set)?;
                        c.p_write(fd, format!("{:04}", v + 1).as_bytes())?;
                        c.p_close(fd)?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => match c.p_commit() {
                            Ok(()) => break,
                            Err(_) => retries.fetch_add(1, Ordering::SeqCst),
                        },
                        Err(_) => {
                            let _ = c.p_abort();
                            retries.fetch_add(1, Ordering::SeqCst)
                        }
                    };
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut c = fs.client();
    let v = c.read_to_vec("/counter", None).unwrap();
    assert_eq!(v, b"0020", "lost update detected (retries: {:?})", retries);
}

#[test]
fn readers_of_history_never_block() {
    // A long-running writer holds exclusive locks; historical readers go
    // around 2PL entirely because old versions are immutable.
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/report", CreateMode::default(), b"published")
        .unwrap();
    let t_pub = fs.db().now();

    c.p_begin().unwrap();
    let fd = c.p_open("/report", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"UNPUBLISHED DRAFT").unwrap();
    c.p_close(fd).unwrap();
    // Transaction still open: locks held.

    let fs2 = fs.clone();
    let reader = std::thread::spawn(move || {
        let mut rc = fs2.client();
        rc.read_to_vec("/report", Some(t_pub)).unwrap()
    });
    let seen = reader.join().unwrap();
    assert_eq!(seen, b"published");
    c.p_commit().unwrap();
}

#[test]
fn deadlocks_are_detected_and_recoverable() {
    let db = Devices::new().format();
    let a = db
        .create_table("a", Schema::new([("v", TypeId::INT4)]))
        .unwrap();
    let b = db
        .create_table("b", Schema::new([("v", TypeId::INT4)]))
        .unwrap();

    let db2 = db.clone();
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let barrier2 = barrier.clone();
    let t = std::thread::spawn(move || {
        let mut s = db2.begin().unwrap();
        s.insert(b, vec![Datum::Int4(1)]).unwrap(); // lock b
        barrier2.wait();
        let r = s.insert(a, vec![Datum::Int4(1)]); // wait for a
        match r {
            Ok(_) => s.commit().map(|_| true).unwrap_or(false),
            Err(_) => {
                let _ = s.abort();
                false
            }
        }
    });
    let mut s = db.begin().unwrap();
    s.insert(a, vec![Datum::Int4(2)]).unwrap(); // lock a
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let r = s.insert(b, vec![Datum::Int4(2)]); // closes the cycle
    let mine_ok = match r {
        Ok(_) => s.commit().map(|_| true).unwrap_or(false),
        Err(e) => {
            assert!(matches!(
                e,
                minidb::DbError::Deadlock | minidb::DbError::LockTimeout
            ));
            let _ = s.abort();
            false
        }
    };
    let theirs_ok = t.join().unwrap();
    assert!(
        mine_ok || theirs_ok,
        "at least one transaction must have survived the deadlock"
    );
    // The system is healthy afterwards.
    let mut s = db.begin().unwrap();
    s.insert(a, vec![Datum::Int4(3)]).unwrap();
    s.insert(b, vec![Datum::Int4(3)]).unwrap();
    s.commit().unwrap();
}

#[test]
fn isolation_no_dirty_reads_through_time_travel() {
    let fs = fresh_fs();
    let mut writer = fs.client();
    writer
        .write_all("/x", CreateMode::default(), b"clean")
        .unwrap();

    writer.p_begin().unwrap();
    let fd = writer.p_open("/x", OpenMode::ReadWrite, None).unwrap();
    writer.p_write(fd, b"dirty").unwrap();
    writer.p_close(fd).unwrap();

    // Snapshot readers at "now" see only committed state.
    let mut h = fs.db().snapshot_at(fs.db().now());
    let rel = fs.db().relation_id("naming").unwrap();
    let rows = h.seq_scan(rel).unwrap();
    assert_eq!(rows.len(), 2); // "/" and "x", nothing half-done.

    writer.p_abort().unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/x", None).unwrap(), b"clean");
}

/// A `p_close` that owes a size or mtime change rewrites the file's
/// `fileatt` row. It must take the relation's exclusive lock *before* it
/// reads the row: reading first takes the shared
/// lock, and two sessions that each hold it and each want the upgrade wait
/// on one another until one is refused with `Deadlock`.
#[test]
fn close_declares_its_fileatt_write_before_reading() {
    let fs = fresh_fs();
    let (mut a, mut b) = (fs.client(), fs.client());
    a.write_all("/a", CreateMode::default(), b"a").unwrap();
    a.write_all("/b", CreateMode::default(), b"b").unwrap();

    // B owes a size change at close: a write buffered in a transaction
    // begun after its open, so B holds no `fileatt` lock yet. (An access
    // time alone would not do: it is written back lazily and queues behind
    // nobody — `tests/lazytime.rs`.)
    let fd_b = b.p_open("/b", OpenMode::ReadWrite, None).unwrap();
    b.p_begin().unwrap();
    b.p_write(fd_b, b"grown").unwrap();
    // A's transaction holds `fileatt` shared from its open.
    a.p_begin().unwrap();
    let fd_a = a.p_open("/a", OpenMode::ReadWrite, None).unwrap();
    a.p_write(fd_a, b"A").unwrap();

    let before = fs.db().stats();
    let closer = std::thread::spawn(move || b.p_close(fd_b).and_then(|()| b.p_commit()));
    assert!(
        wait_until(|| fs.db().stats().delta(&before).lock.waits > 0),
        "B's close must queue behind A's transaction"
    );
    a.p_close(fd_a)
        .expect("B waits holding nothing, so A's upgrade must go through");
    assert!(!closer.is_finished(), "B cannot pass A before A commits");
    a.p_commit().unwrap();
    closer.join().unwrap().unwrap();
    assert_eq!(fs.db().stats().delta(&before).lock.deadlocks, 0);
    assert_eq!(a.read_to_vec("/a", None).unwrap(), b"A");
    assert_eq!(a.p_stat("/b", None).unwrap().size, 5);
}

/// `flush_caches` checkpoints and then empties the pool, which refuses while
/// any frame is pinned — and a checkpoint cycle on another thread pins the
/// frame it is flushing. With cycles running back to back beside it the two
/// must still never collide: the whole of `flush_caches` runs under the
/// cycle lock.
#[test]
fn flush_caches_never_collides_with_a_concurrent_checkpoint() {
    let db = minidb::Db::open_in_memory().unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let checkpointer = {
        let (db, stop) = (db.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                db.checkpoint().unwrap();
            }
        })
    };
    for round in 0..1500 {
        let mut s = db.begin().unwrap();
        // A few pages' worth, so a racing cycle has frames to hold.
        for i in 0..40 {
            s.insert(rel, vec![Datum::Text(format!("{round}/{i:0>400}"))]).unwrap();
        }
        s.commit().unwrap();
        if let Err(e) = db.flush_caches() {
            panic!("round {round}: {e}");
        }
    }
    stop.store(true, Ordering::SeqCst);
    checkpointer.join().unwrap();
}

/// A table `name` of one `v` column holding one row, 0, committed.
fn one_row_table(db: &minidb::Db, name: &str) -> minidb::RelId {
    let rel = db.create_table(name, Schema::new([("v", TypeId::INT4)])).unwrap();
    let mut s = db.begin().unwrap();
    s.insert(rel, vec![Datum::Int4(0)]).unwrap();
    s.commit().unwrap();
    rel
}

/// The values of `rel`'s visible rows, as `s` reads them now.
fn values(s: &mut minidb::Session, rel: minidb::RelId) -> Vec<i32> {
    let rows = s.seq_scan(rel).unwrap();
    rows.iter().map(|(_, row)| row[0].as_int().unwrap() as i32).collect()
}

/// Read skew, the schedule strict 2PL rules out. s1 begins while s0 has r
/// updated; s0 commits; s2 reads r's new version, writes S from it and
/// commits; then s1 reads S and R. In every serial order that gives s1
/// s2's write to S, s1 comes after s0 too, so it must read r's new value.
/// Nothing here waits on a lock, so one thread runs it.
#[test]
fn a_read_sees_the_present_not_its_transactions_start() {
    let db = Devices::new().format();
    let (r, s) = (one_row_table(&db, "r"), one_row_table(&db, "s"));
    let mut s0 = db.begin().unwrap();
    let (tid, _) = s0.seq_scan(r).unwrap().pop().unwrap();
    s0.update(r, tid, vec![Datum::Int4(1)]).unwrap();
    let mut s1 = db.begin().unwrap();
    s0.commit().unwrap();

    let mut s2 = db.begin().unwrap();
    assert_eq!(values(&mut s2, r), [1]);
    let (tid, _) = s2.seq_scan(s).unwrap().pop().unwrap();
    s2.update(s, tid, vec![Datum::Int4(1)]).unwrap();
    s2.commit().unwrap();

    let seen = (values(&mut s1, s), values(&mut s1, r));
    assert_eq!(seen, (vec![1], vec![1]), "s1 saw s2's write but not s0's, which s2 read");
    s1.commit().unwrap();
}

/// A writer that began while another transaction held its row updates the
/// version that transaction committed: under 2PL a conflict is a wait,
/// never "concurrently deleted". One thread runs it: the lookup comes after
/// the other commit, so nothing waits.
#[test]
fn an_update_after_a_conflicting_commit_updates_the_committed_version() {
    let db = Devices::new().format();
    let r = one_row_table(&db, "r");
    let mut s0 = db.begin().unwrap();
    let mut s1 = db.begin().unwrap();
    let (tid, _) = s0.seq_scan(r).unwrap().pop().unwrap();
    s0.update(r, tid, vec![Datum::Int4(1)]).unwrap();
    s0.commit().unwrap();

    let (tid, _) = s1.seq_scan(r).unwrap().pop().unwrap();
    s1.update(r, tid, vec![Datum::Int4(2)]).unwrap();
    s1.commit().unwrap();
    assert_eq!(values(&mut db.begin().unwrap(), r), [2]);
}

/// A relation another transaction is creating is in the catalog cache from
/// the start, under its creator's exclusive lock. A reader that finds it
/// waits for that transaction to end, then sees the relation and the row
/// its creator inserted meanwhile (commit) or finds nothing there (abort).
#[test]
fn a_reader_waits_on_an_uncommitted_create() {
    let db = Devices::new().format();
    for commit in [true, false] {
        let name = if commit { "kept" } else { "dropped" };
        let mut creator = db.begin().unwrap();
        let schema = Schema::new([("v", TypeId::INT4)]);
        let rel = creator.create_table_on(name, schema, minidb::DeviceId::DEFAULT, false).unwrap();
        let before = db.stats();
        let reader_db = db.clone();
        let reader = std::thread::spawn(move || {
            let rel = reader_db.relation_id(name)?;
            let mut s = reader_db.begin()?;
            let rows = s.seq_scan(rel)?;
            s.commit()?;
            Ok::<_, minidb::DbError>(rows.len())
        });
        assert!(
            wait_until(|| db.stats().delta(&before).lock.waits > 0),
            "the reader must queue behind the creator"
        );
        assert!(!reader.is_finished(), "the reader cannot pass the creator");
        if commit {
            creator.insert(rel, vec![Datum::Int4(7)]).unwrap();
            creator.commit().unwrap();
            assert_eq!(reader.join().unwrap(), Ok(1));
        } else {
            creator.abort().unwrap();
            assert!(matches!(reader.join().unwrap(), Err(minidb::DbError::NotFound(_))));
            assert!(db.relation_id(name).is_err());
        }
    }
    assert_eq!(db.check_all(), []);
}

/// Two clients each commit 200 `creat` transactions in directories of
/// their own. Every creator takes `naming` exclusively before it creates a
/// relation, so its `pg_class` insert never waits behind another creator's:
/// no wait runs into the lock timeout, the backstop for a wait no deadlock
/// detector sees. Each commit is the one log force that makes the file
/// durable, so after a crash every file is back with its data.
#[test]
fn two_clients_creating_files_never_time_out() {
    let rig = common::CrashRig::new();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let before = fs.db().stats();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let fs = fs.clone();
            std::thread::spawn(move || {
                let mut c = fs.client();
                c.p_mkdir(&format!("/w{w}")).unwrap();
                for i in 0..200 {
                    let path = format!("/w{w}/f{i}");
                    retry_deadlocks(&mut c, &path, |c| {
                        let fd = c.p_creat(&path, CreateMode::default())?;
                        c.p_write(fd, format!("{w}:{i}").as_bytes())?;
                        c.p_close(fd)?;
                        c.p_commit()
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(fs.db().stats().delta(&before).lock.timeouts, 0);
    rig.crash(fs.db().clone());
    drop(fs);

    let fs = InversionFs::attach(rig.open(false)).unwrap();
    let mut c = fs.client();
    for w in 0..2 {
        assert_eq!(c.p_readdir(&format!("/w{w}"), None).unwrap().len(), 200);
        for i in 0..200 {
            let data = c.read_to_vec(&format!("/w{w}/f{i}"), None).unwrap();
            assert_eq!(data, format!("{w}:{i}").as_bytes());
        }
    }
    assert_eq!(fs.check(), []);
    assert_eq!(fs.db().check_all(), []);
}

/// Runs `op` in a transaction of its own, again after each deadlock.
fn retry_deadlocks(
    c: &mut inversion::InvClient,
    what: &str,
    mut op: impl FnMut(&mut inversion::InvClient) -> inversion::InvResult<()>,
) {
    loop {
        c.p_begin().unwrap();
        match op(c) {
            Ok(()) => return,
            Err(inversion::InvError::Db(minidb::DbError::Deadlock)) => {
                c.p_abort().ok();
            }
            Err(e) => panic!("{what}: {e}"),
        }
    }
}

/// An abort takes its relations back — cache entry, cached pages, storage —
/// while eviction and a checkpoint may be writing their dirty pages.
/// Two clients run 300 `creat` transactions each through a 32-frame pool,
/// every one writing 16 KB and only every 8th committing, while a third
/// thread checkpoints in a loop. Every checkpoint succeeds, every committed
/// file reads back, and nothing of an aborted one is left.
#[test]
fn aborted_creates_race_eviction_and_checkpoints() {
    let db = Devices::new().format_with(minidb::DbConfig { buffers: 32, ..Default::default() });
    let fs = InversionFs::format(db.clone()).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let checkpointer = {
        let (db, stop) = (db.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut n = 0;
            while !stop.load(Ordering::SeqCst) {
                db.checkpoint().unwrap();
                n += 1;
            }
            n
        })
    };
    let kept = |i: usize| i % 8 == 7;
    let body = |w: usize, i: usize| vec![(w * 31 + i) as u8; 16 << 10];
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let fs = fs.clone();
            std::thread::spawn(move || {
                let mut c = fs.client();
                c.p_mkdir(&format!("/w{w}")).unwrap();
                for i in 0..300 {
                    let path = format!("/w{w}/f{i}");
                    retry_deadlocks(&mut c, &path, |c| {
                        let fd = c.p_creat(&path, CreateMode::default())?;
                        c.p_write(fd, &body(w, i))?;
                        c.p_close(fd)?;
                        match kept(i) {
                            true => c.p_commit(),
                            false => c.p_abort(),
                        }
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    assert!(checkpointer.join().unwrap() > 0, "no checkpoint ran");

    let mut c = fs.client();
    for w in 0..2 {
        assert_eq!(c.p_readdir(&format!("/w{w}"), None).unwrap().len(), 300 / 8);
        for i in 0..300 {
            let path = format!("/w{w}/f{i}");
            match kept(i) {
                true => assert_eq!(c.read_to_vec(&path, None).unwrap(), body(w, i)),
                false => assert!(c.p_stat(&path, None).is_err(), "{path} survived its abort"),
            }
        }
    }
    let files = db.catalog().relations().filter(|r| r.name.starts_with("inv")).count();
    assert_eq!(files, 2 * 2 * (300 / 8), "a heap and an index per committed file");
    assert_eq!(fs.check(), []);
    assert_eq!(db.check_all(), []);
}

/// `migrate_file` moves the file's relation onto new storage in the
/// caller's transaction. Inside a transaction that has already created a
/// file — and so holds that file's relations and `fileatt` — it neither
/// waits nor times out, and everything commits together.
#[test]
fn a_migration_inside_a_creating_transaction_does_not_wait_on_itself() {
    let clock = simdev::SimClock::new();
    let disk = |name: &str, blocks: u64| {
        let profile = simdev::DiskProfile::tiny_for_tests(blocks);
        minidb::shared_device(simdev::MagneticDisk::new(name, clock.clone(), profile))
    };
    let mut smgr = minidb::Smgr::new();
    for dev in [0, 1] {
        let mgr = minidb::GenericManager::format(disk(&format!("d{dev}"), 1 << 14)).unwrap();
        smgr.register(minidb::DeviceId(dev), Box::new(mgr)).unwrap();
    }
    let (log, cat) = (disk("log", 1 << 12), disk("cat", 1 << 12));
    let db = minidb::Db::open(clock.clone(), smgr, log, cat, minidb::DbConfig::default()).unwrap();
    let fs = InversionFs::format(db).unwrap();

    let before = fs.db().stats();
    let mut s = fs.db().begin().unwrap();
    let lo = inversion::LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
    lo.write_at(&mut s, 0, b"moves before it commits").unwrap();
    inversion::migrate::migrate_file(&fs, &mut s, lo.oid(), minidb::DeviceId(1)).unwrap();
    s.commit().unwrap();
    let d = fs.db().stats().delta(&before);
    assert_eq!((d.lock.waits, d.lock.timeouts), (0, 0));
    assert_eq!(d.xact.commits, 1, "one transaction");

    let mut s = fs.db().begin().unwrap();
    assert_eq!(lo.stat(&mut s).unwrap().device, minidb::DeviceId(1));
    assert_eq!(lo.read_all(&mut s).unwrap(), b"moves before it commits");
    s.commit().unwrap();
    assert_eq!(fs.check(), []);
    assert_eq!(fs.db().check_all(), []);
}
