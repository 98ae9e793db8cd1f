//! Multi-session stress for `InvServerPool`: real client threads over real
//! byte streams, a mixed file workload, a contended read-modify-write
//! counter, descriptor-table isolation, and a client that vanishes with a
//! transaction open. After the dust settles, the database must pass the
//! structural verifier with no held locks and the session accounting must
//! balance. The last tests pin what a bulk read costs over loopback TCP:
//! one request frame and one transaction per window, and no delayed-ACK
//! stall.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use inversion::server::Request;
use inversion::{
    CreateMode, InvError, InvServerPool, InversionFs, OpenMode, PoolConfig, SeekWhence, WireClient,
};
use simdev::{duplex_pair, DuplexStream};

const THREADS: usize = 4;
const FILES_PER_THREAD: usize = 8;
const INCREMENTS_PER_THREAD: usize = 6;

fn connect(pool: &InvServerPool) -> WireClient<DuplexStream> {
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    WireClient::new(client_end)
}

/// Runs `f` as one transaction, retrying the whole unit on deadlock or
/// lock timeout — the client-side idiom relation-level two-phase locking
/// demands of every multi-session workload.
fn txn_retry<T>(
    c: &mut WireClient<DuplexStream>,
    mut f: impl FnMut(&mut WireClient<DuplexStream>) -> Result<T, InvError>,
) -> T {
    for attempt in 0u64..500 {
        c.begin().unwrap();
        let r = f(c).and_then(|v| c.commit().map(|_| v));
        match r {
            Ok(v) => return v,
            Err(InvError::Db(minidb::DbError::Deadlock | minidb::DbError::LockTimeout)) => {
                let _abort_best_effort = c.abort();
                // Staggered backoff so colliding sessions fall out of
                // lockstep instead of re-deadlocking forever.
                thread::sleep(Duration::from_millis(1 + attempt % 7));
            }
            Err(other) => panic!("non-retryable error: {other:?}"),
        }
    }
    panic!("starved after 500 retries");
}

/// One attempt at an atomic counter increment through the wire; any error
/// (deadlock, lock timeout, ...) aborts and reports failure so the caller
/// can retry.
fn try_increment(c: &mut WireClient<DuplexStream>) -> Result<(), InvError> {
    c.begin()?;
    let r = (|| {
        let fd = c.open("/counter", OpenMode::ReadWrite, None)?;
        let bytes = c.read_bulk(fd, 8)?;
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(&bytes);
        let v = u64::from_le_bytes(buf);
        c.call(&Request::Lseek(fd, 0, SeekWhence::Set))?;
        c.call(&Request::Write(fd, (v + 1).to_le_bytes().to_vec()))?;
        c.close(fd)?;
        c.commit()
    })();
    if r.is_err() {
        let _abort_best_effort = c.abort();
    }
    r
}

#[test]
fn concurrent_sessions_mixed_workload_no_lost_updates() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());

    // Seed the shared counter.
    {
        let mut c = connect(&pool);
        let fd = c.creat("/counter", CreateMode::default()).unwrap();
        c.call(&Request::Write(fd, 0u64.to_le_bytes().to_vec()))
            .unwrap();
        c.close(fd).unwrap();
    }

    let committed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let mut c = connect(&pool);
        let committed = Arc::clone(&committed);
        handles.push(thread::spawn(move || {
            txn_retry(&mut c, |c| c.mkdir(&format!("/t{t}")));
            for j in 0..FILES_PER_THREAD {
                let path = format!("/t{t}/f{j}");
                let data: Vec<u8> = (0..700 + 13 * j).map(|i| (i * (t + 2)) as u8).collect();
                let back = txn_retry(&mut c, |c| {
                    let fd = c.creat(&path, CreateMode::default())?;
                    assert_eq!(c.write_bulk(fd, &data)?, data.len());
                    c.call(&Request::Lseek(fd, 0, SeekWhence::Set))?;
                    let back = c.read_bulk(fd, data.len())?;
                    c.close(fd)?;
                    Ok(back)
                });
                assert_eq!(back, data, "readback {path}");
            }
            let listed = txn_retry(&mut c, |c| c.readdir(&format!("/t{t}")));
            assert_eq!(listed.len(), FILES_PER_THREAD, "thread {t} directory");
            // Drop every other file; the survivors are re-checked below.
            for j in (0..FILES_PER_THREAD).step_by(2) {
                txn_retry(&mut c, |c| c.unlink(&format!("/t{t}/f{j}")));
            }
            // Contended increments: retry on deadlock/lock-timeout.
            let mut done = 0;
            let mut attempts: u64 = 0;
            while done < INCREMENTS_PER_THREAD {
                attempts += 1;
                assert!(attempts < 500, "thread {t} starved after {attempts} tries");
                if try_increment(&mut c).is_ok() {
                    done += 1;
                    committed.fetch_add(1, Ordering::SeqCst);
                } else {
                    thread::sleep(Duration::from_millis(1 + (attempts + t as u64) % 9));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every committed increment is present: no lost updates.
    let mut c = connect(&pool);
    let fd = c.open("/counter", OpenMode::Read, None).unwrap();
    let bytes = c.read_bulk(fd, 8).unwrap();
    let final_count = u64::from_le_bytes(bytes.try_into().unwrap());
    assert_eq!(final_count, committed.load(Ordering::SeqCst));
    assert_eq!(final_count, (THREADS * INCREMENTS_PER_THREAD) as u64);

    // The per-thread survivors and deletions both stuck.
    for t in 0..THREADS {
        for j in 0..FILES_PER_THREAD {
            let stat = c.stat(&format!("/t{t}/f{j}"));
            if j % 2 == 0 {
                assert!(stat.is_err(), "/t{t}/f{j} should be unlinked");
            } else {
                assert_eq!(stat.unwrap().size, (700 + 13 * j) as u64);
            }
        }
    }
    drop(c);
    pool.shutdown();

    let st = fs.stats();
    assert_eq!(st.sessions_opened.get(), st.sessions_closed.get());
    assert_eq!(fs.db().held_lock_count(), 0, "locks leaked");
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "verifier findings: {findings:?}");
}

/// File descriptors are session-scoped server state: a descriptor minted
/// for one connection means nothing on another, even while both sessions
/// are live on real threads.
#[test]
fn descriptor_tables_are_isolated_between_live_sessions() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (fd_tx, fd_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();

    let mut a = connect(&pool);
    let holder = thread::spawn(move || {
        let fd = a.creat("/iso", CreateMode::default()).unwrap();
        a.call(&Request::Write(fd, b"mine".to_vec())).unwrap();
        fd_tx.send(fd).unwrap();
        // Keep the session (and its fd) alive until the probe finishes.
        done_rx.recv().unwrap();
        a.close(fd).unwrap();
    });

    let stolen_fd = fd_rx.recv().unwrap();
    let mut b = connect(&pool);
    for req in [
        Request::Read(stolen_fd, 4),
        Request::Write(stolen_fd, b"not mine".to_vec()),
        Request::Close(stolen_fd),
    ] {
        match b.call(&req) {
            Err(InvError::BadFd(fd)) => assert_eq!(fd, stolen_fd),
            other => panic!("foreign fd must be rejected, got {other:?}"),
        }
    }
    done_tx.send(()).unwrap();
    holder.join().unwrap();
    pool.shutdown();
}

/// A client that disappears mid-transaction must leave nothing behind: the
/// transaction aborts, its rows never become visible, its locks are
/// released (a new writer can take the same path immediately), and its
/// descriptors die with the session.
#[test]
fn vanished_client_leaves_no_rows_no_locks_no_fds() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());

    let mut doomed = connect(&pool);
    doomed.begin().unwrap();
    let fd = doomed.creat("/contested", CreateMode::default()).unwrap();
    doomed
        .call(&Request::Write(fd, vec![0xAB; 4096]))
        .unwrap();
    drop(doomed); // The wire goes dead with the transaction open.

    let deadline = Instant::now() + Duration::from_secs(10);
    while fs.stats().net_disconnect_aborts.get() == 0 {
        assert!(Instant::now() < deadline, "disconnect abort never observed");
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fs.db().held_lock_count(), 0, "disconnect left locks behind");

    // The path is free: a new session can claim it without waiting.
    let mut successor = connect(&pool);
    assert!(successor.stat("/contested").is_err(), "rows leaked");
    let fd = successor.creat("/contested", CreateMode::default()).unwrap();
    successor
        .call(&Request::Write(fd, b"second owner".to_vec()))
        .unwrap();
    successor.close(fd).unwrap();
    assert_eq!(
        successor.stat("/contested").unwrap().size,
        "second owner".len() as u64
    );
    drop(successor);
    pool.shutdown();

    let st = fs.stats();
    assert_eq!(st.sessions_opened.get(), st.sessions_closed.get());
    assert!(st.net_disconnect_aborts.get() >= 1);
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "verifier findings: {findings:?}");
}

/// The same protocol over a real TCP socket on loopback: connect, run a
/// transaction, disconnect a second client mid-transaction, and confirm
/// the teardown path works for sockets exactly as for in-memory streams.
#[test]
fn tcp_loopback_sessions_work_end_to_end() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let addr = pool.listen_tcp("127.0.0.1:0").unwrap();

    let mut c = WireClient::new(std::net::TcpStream::connect(addr).unwrap());
    c.begin().unwrap();
    let fd = c.creat("/tcp", CreateMode::default()).unwrap();
    let data = vec![0x5A; 20_000];
    assert_eq!(c.write_bulk(fd, &data).unwrap(), data.len());
    c.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
    assert_eq!(c.read_bulk(fd, data.len()).unwrap(), data);
    c.close(fd).unwrap();
    c.commit().unwrap();

    // A second socket that dies mid-transaction aborts like any other.
    let mut doomed = WireClient::new(std::net::TcpStream::connect(addr).unwrap());
    doomed.begin().unwrap();
    doomed.creat("/tcp-doomed", CreateMode::default()).unwrap();
    drop(doomed);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fs.stats().net_disconnect_aborts.get() == 0 {
        assert!(Instant::now() < deadline, "TCP disconnect abort never observed");
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(c.stat("/tcp").unwrap().size, data.len() as u64);
    assert!(c.stat("/tcp-doomed").is_err());
    drop(c);
    pool.shutdown();
    assert!(fs.db().check_all().is_empty());
}

/// `WireClient`'s bulk window (a private constant of `inversion::pool`;
/// DESIGN.md §7): the bytes one `read_bulk`/`write_bulk` frame carries.
const WINDOW: usize = 256 << 10;
const MB: usize = 1 << 20;

/// A pool listening on loopback TCP with `/bulk` — `data`, committed —
/// open for reading on a connected client.
fn tcp_bulk_rig(
    data: &[u8],
) -> (
    InversionFs,
    InvServerPool,
    WireClient<std::net::TcpStream>,
    i32,
) {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let addr = pool.listen_tcp("127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut c = WireClient::new(stream);
    c.begin().unwrap();
    let fd = c.creat("/bulk", CreateMode::default()).unwrap();
    assert_eq!(c.write_bulk(fd, data).unwrap(), data.len());
    c.close(fd).unwrap();
    c.commit().unwrap();
    let fd = c.open("/bulk", OpenMode::Read, None).unwrap();
    (fs, pool, c, fd)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// A bulk read is one request frame, one transaction and one pass over its
/// chunks per window — not one of each per 8 KB — and reads that reach or
/// start past end of file come back short and correct.
#[test]
fn tcp_bulk_read_costs_one_frame_and_one_transaction_per_window() {
    let data = pattern(MB);
    let (fs, pool, mut c, fd) = tcp_bulk_rig(&data);
    let windows = MB.div_ceil(WINDOW) as u64;
    let chunks = MB.div_ceil(inversion::CHUNK_SIZE) as u64;

    let frames = c.stats().frames_out.get();
    let commits = fs.db().stats().xact.commits;
    let chunk_reads = fs.stats().chunk_reads.get();
    assert_eq!(c.read_bulk(fd, MB).unwrap(), data);
    assert_eq!(c.stats().frames_out.get() - frames, windows);
    assert_eq!(fs.db().stats().xact.commits - commits, windows);
    // A window boundary inside a chunk makes both neighbours fetch it.
    assert!(fs.stats().chunk_reads.get() - chunk_reads <= chunks + windows);

    // One byte more than the file holds: a fifth window, answered empty.
    c.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
    let frames = c.stats().frames_out.get();
    assert_eq!(c.read_bulk(fd, MB + 1).unwrap(), data);
    assert_eq!(c.stats().frames_out.get() - frames, windows + 1);

    // Starting near the end, and starting past it.
    c.call(&Request::Lseek(fd, (MB - 1000) as i64, SeekWhence::Set))
        .unwrap();
    assert_eq!(c.read_bulk(fd, 3 * WINDOW).unwrap(), data[MB - 1000..]);
    c.call(&Request::Lseek(fd, (MB + 5) as i64, SeekWhence::Set))
        .unwrap();
    assert_eq!(c.read_bulk(fd, 10).unwrap(), Vec::<u8>::new());

    c.close(fd).unwrap();
    drop(c);
    pool.shutdown();
    assert!(fs.db().check_all().is_empty());
}

/// Wall-clock guard, with a wide margin, against the stall `TCP_NODELAY` on
/// the accepted socket removes: under Nagle the server's second pipelined
/// response waits out the client's delayed ACK, 40 ms or more per read; the
/// whole megabyte takes a few milliseconds without it. An unoptimized build
/// spends the margin on checksums and B-tree descents, so the guard runs
/// where `scripts/ci.sh` runs this file: `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock guard: optimized builds only")]
fn tcp_bulk_read_does_not_wait_out_a_delayed_ack() {
    let data = pattern(MB);
    let (_fs, pool, mut c, fd) = tcp_bulk_rig(&data);
    let mut took: Vec<Duration> = (0..9)
        .map(|_| {
            c.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
            let t = Instant::now();
            assert_eq!(c.read_bulk(fd, MB).unwrap().len(), MB);
            t.elapsed()
        })
        .collect();
    took.sort();
    assert!(
        took[4] < Duration::from_millis(20),
        "median 1 MB read_bulk took {:?} (all nine: {took:?})",
        took[4]
    );
    drop(c);
    pool.shutdown();
}
