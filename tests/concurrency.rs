//! Concurrency across the whole stack: multiple clients, two-phase locking,
//! transaction isolation, and shared devices.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
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
/// any frame is pinned — and a background checkpoint cycle pins the frame it
/// is flushing. With a cycle due on every write the two must still never
/// collide: the whole of `flush_caches` runs under the cycle lock.
#[test]
fn flush_caches_never_collides_with_the_background_checkpointer() {
    let db = minidb::Db::open_in_memory_with(minidb::DbConfig {
        checkpoint_interval: simdev::SimDuration::from_nanos(1),
        ..minidb::DbConfig::default()
    })
    .unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
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
}
