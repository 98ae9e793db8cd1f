//! The torture battery: seed-driven scenario schedules drive concurrent
//! wire sessions through transactional multi-file workloads — create/write
//! fan-out, rename trees, slice compositions, unlink/undelete churn —
//! layered with simdev fault schedules: severed links (duplex and TCP),
//! armed device read/write faults, and power cuts mid-commit and
//! mid-checkpoint. Every session keeps an append-only model of the
//! transactions the server acknowledged; after the crash the battery
//! asserts the FITO oracle: recovery completes, `Db::check_all` and
//! `InversionFs::check` report nothing, and the visible namespace and
//! bytes equal the acknowledged models exactly.
//!
//! Plans come from `bench::torture` and are pure functions of their seed;
//! `torture-corpus.txt` pins known seeds against generator drift. To
//! reproduce one schedule, feed its seed to `Schedule::new` — the plan,
//! and the serial event trace, are bit-identical on every run.

mod common;

use std::io::{Read, Write};
use std::thread;
use std::time::{Duration, Instant};

use bench::torture::{
    buried_paths, exec_local, fill, fnv64, standard_battery, FaultKind, Model, Plan, Schedule,
    SessionPlan, TortureOp, UndeleteTimes,
};
use inversion::server::Request;
use inversion::{
    CreateMode, InvError, InvServerPool, InversionFs, OpenMode, PoolConfig, SeekWhence,
    WireClient, CHUNK_SIZE,
};
use common::CrashRig;
use simdev::duplex_pair;

fn retryable(e: &InvError) -> bool {
    matches!(
        e,
        InvError::Db(minidb::DbError::Deadlock | minidb::DbError::LockTimeout)
    )
}

/// Executes one op over the wire and cross-checks read results against the
/// in-transaction scratch model.
fn exec_wire<S: Read + Write>(
    c: &mut WireClient<S>,
    op: &TortureOp,
    times: &UndeleteTimes,
    scratch: &mut Model,
) -> Result<(), InvError> {
    match op {
        TortureOp::Mkdir { path } => c.mkdir(path)?,
        TortureOp::Creat { path, len, salt, compressed } => {
            let mode = if *compressed {
                CreateMode::default().compressed()
            } else {
                CreateMode::default()
            };
            let fd = c.creat(path, mode)?;
            let data = fill(*len, *salt);
            if !data.is_empty() {
                assert_eq!(c.write_bulk(fd, &data)?, data.len());
            }
            c.close(fd)?;
        }
        TortureOp::Rewrite { path, offset, len, salt } => {
            let fd = c.open(path, OpenMode::ReadWrite, None)?;
            c.call(&Request::Lseek(fd, *offset as i64, SeekWhence::Set))?;
            assert_eq!(c.write_bulk(fd, &fill(*len, *salt))?, *len);
            c.close(fd)?;
        }
        TortureOp::Rename { from, to } => c.rename(from, to)?,
        TortureOp::Unlink { path } => c.unlink(path)?,
        TortureOp::Undelete { path } => {
            let t = *times.get(path).expect("undelete without a time anchor");
            c.undelete(path, t)?;
        }
        TortureOp::Slice { dest, ranges, compressed } => {
            let mode = if *compressed {
                CreateMode::default().compressed()
            } else {
                CreateMode::default()
            };
            let rs: Vec<inversion::SliceRange> = ranges
                .iter()
                .map(|(p, o, l)| inversion::SliceRange::new(p.clone(), *o, *l))
                .collect();
            let st = c.slice(dest, mode, &rs)?;
            let want: u64 = ranges.iter().map(|(_, _, l)| *l).sum();
            assert_eq!(st.size, want, "slice {dest} size");
        }
        TortureOp::Readdir { dir } => {
            let mut names: Vec<String> =
                c.readdir(dir)?.into_iter().map(|(n, _)| n).collect();
            names.sort();
            assert_eq!(names, scratch.expect_listing(dir), "mid-txn listing of {dir}");
        }
        TortureOp::Stat { path } => {
            let st = c.stat(path)?;
            let want = scratch.files.get(path).expect("stat target").len() as u64;
            assert_eq!(st.size, want, "mid-txn stat of {path}");
        }
        TortureOp::ReadBack { path } => {
            let want = scratch.files.get(path).expect("readback target").clone();
            let st = c.stat(path)?;
            let fd = c.open(path, OpenMode::Read, None)?;
            let got = if st.size > 0 { c.read_bulk(fd, st.size as usize)? } else { Vec::new() };
            c.close(fd)?;
            assert!(
                got == want,
                "mid-txn readback of {path}: got len {} fnv {:016x}, want len {} fnv {:016x}",
                got.len(),
                fnv64(&got),
                want.len(),
                fnv64(&want)
            );
        }
    }
    scratch.apply(op);
    Ok(())
}

/// One transaction over the wire, retried whole on deadlock/lock-timeout.
fn run_txn<S: Read + Write>(
    c: &mut WireClient<S>,
    txn: &[TortureOp],
    times: &UndeleteTimes,
    base: &Model,
) {
    for attempt in 0u64..500 {
        let mut scratch = base.clone();
        c.begin().unwrap();
        let r = (|| -> Result<(), InvError> {
            for op in txn {
                exec_wire(c, op, times, &mut scratch)?;
            }
            c.commit()
        })();
        match r {
            Ok(()) => return,
            Err(ref e) if retryable(e) => {
                let _ = c.abort();
                thread::sleep(Duration::from_millis(1 + attempt % 7));
            }
            Err(other) => panic!("non-retryable error in {txn:?}: {other:?}"),
        }
    }
    panic!("transaction starved after 500 retries");
}

/// Opens one more transaction, makes unacknowledged changes, and severs the
/// link with the transaction still open. The pool's disconnect path must
/// abort it; the model never learns of it.
fn orphan_and_sever<S: Read + Write>(mut c: WireClient<S>, dir: &str) {
    for attempt in 0u64..500 {
        c.begin().unwrap();
        let r = (|| -> Result<(), InvError> {
            let fd = c.creat(&format!("{dir}/orphan"), CreateMode::default())?;
            c.write_bulk(fd, &fill(900, 0x55))?;
            Ok(())
        })();
        match r {
            Ok(()) => break, // Leave the transaction open; drop severs the link.
            Err(ref e) if retryable(e) => {
                let _ = c.abort();
                thread::sleep(Duration::from_millis(1 + attempt % 7));
            }
            Err(other) => panic!("orphan setup failed: {other:?}"),
        }
    }
    drop(c);
}

/// One session's wire work: run every planned transaction, applying each to
/// the model only after the server acknowledged its commit.
fn session_thread<S: Read + Write>(
    mut c: WireClient<S>,
    sp: SessionPlan,
    fs: InversionFs,
    fault: FaultKind,
) -> Model {
    let mut model = Model::rooted(&sp.dir);
    let mut times = UndeleteTimes::new();
    for txn in &sp.txns {
        // Anchor a time-travel target for every file this transaction will
        // bury: a point after the last acknowledged commit, before the
        // unlink, at which the file is visible with the model's bytes.
        for path in buried_paths(txn) {
            times.insert(path, fs.db().now());
        }
        run_txn(&mut c, txn, &times, &model);
        model.apply_txn(txn);
    }
    if matches!(fault, FaultKind::LinkDropDuplex | FaultKind::LinkDropTcp) {
        orphan_and_sever(c, &sp.dir);
    }
    model
}

/// The FITO oracle: structural verifiers find nothing, and the visible
/// namespace and contents equal the acknowledged models exactly.
fn oracle(
    fs: &InversionFs,
    sessions: &[(String, Model)],
    pads: &[(String, Vec<u8>)],
    torn: &Option<(Vec<u8>, bool)>,
) {
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "Db::check_all after recovery: {findings:?}");
    let findings = fs.check();
    assert!(findings.is_empty(), "InversionFs::check after recovery: {findings:?}");
    let mut c = fs.client();
    for (_, model) in sessions {
        for dir in &model.dirs {
            let mut names: Vec<String> =
                c.p_readdir(dir, None).unwrap().into_iter().map(|(n, _)| n).collect();
            names.sort();
            assert_eq!(names, model.expect_listing(dir), "recovered listing of {dir}");
        }
        for (path, want) in &model.files {
            let got = c.read_to_vec(path, None).unwrap();
            assert!(
                got == *want,
                "recovered {path}: got len {} fnv {:016x}, want len {} fnv {:016x}",
                got.len(),
                fnv64(&got),
                want.len(),
                fnv64(want)
            );
        }
    }
    for (path, want) in pads {
        let got = c.read_to_vec(path, None).unwrap();
        assert!(got == *want, "recovered pad {path} diverged");
    }
    if let Some((want, acked)) = torn {
        match c.read_to_vec("/crash/torn", None) {
            Ok(got) => assert!(
                got == *want,
                "torn commit resurrected partially: len {} of {}",
                got.len(),
                want.len()
            ),
            Err(InvError::NoSuchPath(_)) if !acked => {} // Resolved to "never happened".
            Err(e) => panic!("torn file unreadable after recovery: {e:?}"),
        }
    }
}

/// Runs one schedule end to end: concurrent wire phase, fault layering,
/// power cut, instant recovery, oracle.
fn run_schedule(sched: Schedule) {
    let rig = CrashRig::new();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let plan: Plan = sched.generate();
    {
        let mut c = fs.client();
        for sp in &plan.sessions {
            c.p_mkdir(&sp.dir).unwrap();
        }
        c.p_mkdir("/crash").unwrap();
    }
    fs.db().flush_caches().unwrap(); // The stage must survive the first crash.

    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let tcp_addr = if sched.fault == FaultKind::LinkDropTcp {
        Some(pool.listen_tcp("127.0.0.1:0").unwrap())
    } else {
        None
    };
    let aborts0 = fs.stats().net_disconnect_aborts.get();

    // Concurrent wire phase: one real thread per session, each over its own
    // byte stream, each on its own directory tree.
    let mut joins = Vec::new();
    for sp in plan.sessions.clone() {
        let fs_t = fs.clone();
        let fault = sched.fault;
        let dir = sp.dir.clone();
        let join = match tcp_addr {
            Some(addr) => thread::spawn(move || {
                let c = WireClient::new(std::net::TcpStream::connect(addr).unwrap());
                (dir, session_thread(c, sp, fs_t, fault))
            }),
            None => {
                let (client_end, server_end) = duplex_pair();
                pool.serve_duplex(server_end);
                thread::spawn(move || {
                    (dir, session_thread(WireClient::new(client_end), sp, fs_t, fault))
                })
            }
        };
        joins.push(join);
    }
    let results: Vec<(String, Model)> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    if matches!(sched.fault, FaultKind::LinkDropDuplex | FaultKind::LinkDropTcp) {
        // Every severed session left a transaction open; the pool must
        // abort each one (releasing its locks) without being asked.
        let want = aborts0 + plan.sessions.len() as u64;
        let deadline = Instant::now() + Duration::from_secs(30);
        while fs.stats().net_disconnect_aborts.get() < want {
            assert!(
                Instant::now() < deadline,
                "severed links did not abort their transactions: {} of {want}",
                fs.stats().net_disconnect_aborts.get()
            );
            thread::sleep(Duration::from_millis(5));
        }
    }
    pool.shutdown();

    // Fault layering before the power cut.
    let mut pads: Vec<(String, Vec<u8>)> = Vec::new();
    let mut torn: Option<(Vec<u8>, bool)> = None;
    match sched.fault {
        FaultKind::None | FaultKind::LinkDropDuplex | FaultKind::LinkDropTcp => {}
        FaultKind::DeviceWriteFault => {
            // Dirty a page, arm the data device's write path, and flush:
            // the destage must trip the fault and surface the error. The
            // loop tolerates a pressure checkpoint having drained
            // between the commit and the arming.
            let mut c = fs.client();
            let before = rig.data_faults.write_trips();
            for i in 0..5u8 {
                let bytes = fill(CHUNK_SIZE + 77, 0xC0 + i);
                let path = format!("/crash/pad{i}");
                c.write_all(&path, CreateMode::default(), &bytes).unwrap();
                pads.push((path, bytes));
                rig.data_faults.fail_after_writes(0);
                let flush = fs.db().flush_caches();
                rig.data_faults.clear_write_fault();
                if rig.data_faults.write_trips() > before {
                    assert!(flush.is_err(), "an armed write fault must surface an error");
                    break;
                }
            }
            assert!(
                rig.data_faults.write_trips() > before,
                "the armed write fault never tripped"
            );
        }
        FaultKind::DeviceReadFault => {
            // Truncate the log so recovery replays nothing and the cache
            // comes back truly cold; the read-fault arming happens after
            // recovery, below.
            fs.db().checkpoint().unwrap();
        }
        FaultKind::CrashMidCommit => {
            let bytes = fill(CHUNK_SIZE + 123, 0xAB);
            let mut c = fs.client();
            c.p_begin().unwrap();
            let fd = c.p_creat("/crash/torn", CreateMode::default()).unwrap();
            c.p_write(fd, &bytes).unwrap();
            c.p_close(fd).unwrap();
            rig.log_faults.fail_after_writes(sched.seed % 3);
            let acked = match c.p_commit() {
                Ok(()) => {
                    drop(c);
                    true
                }
                Err(_) => {
                    // The log force tore partway; whether the commit record
                    // became durable is unknown until recovery looks.
                    std::mem::forget(c);
                    false
                }
            };
            rig.log_faults.clear_write_fault();
            torn = Some((bytes, acked));
        }
        FaultKind::CrashMidCheckpoint => {
            // Guarantee dirty pages, then tear the checkpoint's drain.
            let mut c = fs.client();
            let bytes = fill(2 * CHUNK_SIZE, 0x5C);
            c.write_all("/crash/ckpt", CreateMode::default(), &bytes).unwrap();
            pads.push(("/crash/ckpt".into(), bytes));
            rig.data_faults.fail_after_writes(sched.seed % 4);
            let _ = fs.db().checkpoint();
            rig.data_faults.clear_write_fault();
        }
        FaultKind::CrashInFlight => {
            // Cut the power while eviction write-backs sit unsynced in the
            // data device's write cache. A checkpoint makes the last device
            // sync; then a pad commits (WAL-durable, its pages dirty in the
            // pool) and a read of a file larger than the pool evicts it.
            // Each eviction forces the log and writes the page on this
            // thread, and nothing syncs it: the cut drops those writes, and
            // recovery must replay the pages from the log.
            let mut c = fs.client();
            let filler = fill(96 * CHUNK_SIZE, 0x2E);
            c.write_all("/crash/filler", CreateMode::default(), &filler).unwrap();
            fs.db().checkpoint().unwrap();
            let before = fs.db().stats();
            let bytes = fill(2 * CHUNK_SIZE + 31, 0x1F);
            c.write_all("/crash/inflight", CreateMode::default(), &bytes).unwrap();
            pads.push(("/crash/inflight".into(), bytes));
            assert!(c.read_to_vec("/crash/filler", None).unwrap() == filler, "filler diverged");
            pads.push(("/crash/filler".into(), filler));
            let d = fs.db().stats().delta(&before);
            let syncs: u64 = d.devices.iter().map(|dev| dev.io_barrier_waits).sum();
            assert_eq!((d.wal.checkpoints, syncs), (0, 0), "a device sync covered the write-backs");
            assert!(d.buffer.writebacks > 0, "reading past the pool wrote nothing back");
        }
        FaultKind::CatalogDeviceFault => {
            // The fault is armed first: DDL itself writes only the log, so
            // whichever checkpoint next drains the dirtied `pg_class` and
            // `pg_type` pages — the background one or ours — tears. Each
            // DDL runs inside a client session's transaction.
            let db = fs.db();
            let before = rig.catalog_faults.write_trips();
            let schema = minidb::Schema::new([("v", minidb::TypeId::INT4)]);
            let dev = minidb::DeviceId::DEFAULT;
            let mut s = db.begin().unwrap();
            let doomed = s.create_table_on("torture_doomed", schema.clone(), dev, false).unwrap();
            let gone = s.create_table_on("torture_gone", schema.clone(), dev, false).unwrap();
            s.commit().unwrap();
            rig.catalog_faults.fail_after_writes(sched.seed % 2);
            let mut s = db.begin().unwrap();
            let t = s.create_table_on("torture_ddl", schema.clone(), dev, false).unwrap();
            for v in 0..40 {
                for rel in [t, doomed, gone] {
                    s.insert(rel, vec![minidb::Datum::Int4(v)]).unwrap();
                }
            }
            s.commit().unwrap();
            // Creates, defines and drops, then aborts: none of it happened.
            let mut s = db.begin().unwrap();
            s.create_table_on("torture_aborted", schema, dev, false).unwrap();
            s.define_type("torture_aborted_type").unwrap();
            s.drop_relation("torture_doomed").unwrap();
            s.abort().unwrap();
            let mut s = db.begin().unwrap();
            s.create_index("torture_ddl_v", t, &["v"]).unwrap();
            s.drop_relation("torture_gone").unwrap();
            s.define_type("torture_type").unwrap();
            s.commit().unwrap();
            let _ = db.checkpoint();
            rig.catalog_faults.clear_write_fault();
            assert!(
                rig.catalog_faults.write_trips() > before,
                "the armed catalog-device fault never tripped"
            );
        }
    }

    // Power cut, then the paper's instant recovery: just reattach.
    fs.db().simulate_crash();
    rig.power_cut();
    drop(pool);
    drop(fs);
    let fs = InversionFs::attach(rig.open(false)).unwrap();

    if sched.fault == FaultKind::DeviceReadFault {
        // Cold cache: the first file reads must touch the device, and an
        // armed read fault must trip (and be survivable once cleared).
        let before = rig.data_faults.read_trips();
        rig.data_faults.fail_after_reads(0);
        let mut c = fs.client();
        let mut attempted = 0usize;
        'reads: for (_, model) in &results {
            for path in model.files.keys() {
                let _ = c.read_to_vec(path, None); // Err expected; the trip counter is the oracle.
                attempted += 1;
                if rig.data_faults.read_trips() > before {
                    break 'reads;
                }
            }
        }
        rig.data_faults.clear_read_fault();
        if attempted > 0 {
            assert!(
                rig.data_faults.read_trips() > before,
                "cold-cache reads never touched the device"
            );
        }
    }

    oracle(&fs, &results, &pads, &torn);

    if sched.fault == FaultKind::CatalogDeviceFault {
        // Every acknowledged DDL is wholly there: the index is catalogued,
        // attached and built; the dropped table is gone and its name free.
        // The aborted transaction left nothing: its names are free and the
        // table it dropped still holds its rows.
        let db = fs.db();
        let t = db.relation_id("torture_ddl").unwrap();
        let idx = db.relation_id("torture_ddl_v").unwrap();
        assert_eq!(db.find_index(t, &[0]), Some(idx));
        let doomed = db.relation_id("torture_doomed").unwrap();
        let mut s = db.begin().unwrap();
        assert_eq!(s.index_scan_eq(idx, &[minidb::Datum::Int4(17)]).unwrap().len(), 1);
        assert_eq!(s.seq_scan(doomed).unwrap().len(), 40);
        s.commit().unwrap();
        assert!(db.catalog().type_by_name("torture_type").is_ok());
        assert!(db.catalog().type_by_name("torture_aborted_type").is_err());
        assert!(db.relation_id("torture_gone").is_err());
        assert!(db.relation_id("torture_aborted").is_err());
        let mut s = db.begin().unwrap();
        for name in ["torture_gone", "torture_aborted"] {
            let (schema, dev) = (minidb::Schema::default(), minidb::DeviceId::DEFAULT);
            s.create_table_on(name, schema, dev, false).unwrap();
        }
        s.define_type("torture_aborted_type").unwrap();
        s.commit().unwrap();
        let findings = db.check_all();
        assert!(findings.is_empty(), "verifier: {findings:?}");
        let findings = fs.check();
        assert!(findings.is_empty(), "fs.check: {findings:?}");
    }
}

fn run_kind(kind: FaultKind) {
    let battery: Vec<Schedule> =
        standard_battery().into_iter().filter(|s| s.fault == kind).collect();
    assert!(battery.len() >= 3, "battery must carry several seeds per fault kind");
    for sched in battery {
        run_schedule(sched);
    }
}

#[test]
fn battery_clean_schedules() {
    run_kind(FaultKind::None);
}

#[test]
fn battery_link_drop_duplex() {
    run_kind(FaultKind::LinkDropDuplex);
}

#[test]
fn battery_link_drop_tcp() {
    run_kind(FaultKind::LinkDropTcp);
}

#[test]
fn battery_device_write_fault() {
    run_kind(FaultKind::DeviceWriteFault);
}

#[test]
fn battery_device_read_fault() {
    run_kind(FaultKind::DeviceReadFault);
}

#[test]
fn battery_crash_mid_commit() {
    run_kind(FaultKind::CrashMidCommit);
}

#[test]
fn battery_crash_mid_checkpoint() {
    run_kind(FaultKind::CrashMidCheckpoint);
}

#[test]
fn battery_crash_in_flight() {
    run_kind(FaultKind::CrashInFlight);
}

#[test]
fn battery_catalog_device_fault() {
    run_kind(FaultKind::CatalogDeviceFault);
}

// ---------------------------------------------------------------------------
// Seed determinism and the pinned corpus.

/// Runs a whole plan serially (round-robin across sessions) through a local
/// client and returns the full event trace: every op with its observed
/// result (listings, sizes, content hashes).
fn serial_event_trace(seed: u64) -> String {
    let plan = Schedule::new(seed, FaultKind::None).generate();
    let fs = InversionFs::open_in_memory().unwrap();
    let mut c = fs.client();
    for sp in &plan.sessions {
        c.p_mkdir(&sp.dir).unwrap();
    }
    let mut times = UndeleteTimes::new();
    let mut out = String::new();
    let rounds = plan.sessions.iter().map(|s| s.txns.len()).max().unwrap_or(0);
    for t in 0..rounds {
        for (k, sp) in plan.sessions.iter().enumerate() {
            let Some(txn) = sp.txns.get(t) else { continue };
            for path in buried_paths(txn) {
                times.insert(path, fs.db().now());
            }
            c.p_begin().unwrap();
            for op in txn {
                let ev = exec_local(&mut c, op, &times).unwrap();
                out.push_str(&format!("s{k}.t{t}: {ev}\n"));
            }
            c.p_commit().unwrap();
        }
    }
    out
}

#[test]
fn reruns_produce_identical_event_traces() {
    let a = serial_event_trace(0xDEAD_BEEF);
    let b = serial_event_trace(0xDEAD_BEEF);
    assert!(!a.is_empty());
    assert_eq!(a, b, "the same seed must replay to an identical event trace");
    let c = serial_event_trace(0xDEAD_BEF0);
    assert_ne!(a, c, "different seeds must diverge");
}

const CORPUS_SEEDS: [u64; 3] = [4919, 7001, 9973];

fn corpus_text() -> String {
    let mut out = String::from(
        "# Pinned torture plans. A diff here means the generator drifted:\n\
         # old seeds no longer reproduce old schedules. Regenerate with\n\
         #   cargo test --test torture regenerate_corpus -- --ignored\n\
         # only when the drift is intentional.\n",
    );
    for seed in CORPUS_SEEDS {
        out.push_str(&format!("## seed {seed}\n"));
        out.push_str(&Schedule::new(seed, FaultKind::None).generate().trace());
    }
    out
}

#[test]
fn corpus_pins_known_seed_plans() {
    assert_eq!(
        corpus_text(),
        include_str!("torture-corpus.txt"),
        "generator drift: known seeds no longer expand to their pinned plans"
    );
}

#[test]
#[ignore = "rewrites tests/torture-corpus.txt"]
fn regenerate_corpus() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/torture-corpus.txt");
    std::fs::write(path, corpus_text()).unwrap();
}

// ---------------------------------------------------------------------------
// The rename/undelete race: two sessions fight over one directory entry.

fn connect(pool: &InvServerPool) -> WireClient<simdev::DuplexStream> {
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    WireClient::new(client_end)
}

/// Attempts `f` as one transaction until it commits or fails for a
/// non-retryable reason; returns the terminal result.
fn race_txn<T>(
    c: &mut WireClient<simdev::DuplexStream>,
    mut f: impl FnMut(&mut WireClient<simdev::DuplexStream>) -> Result<T, InvError>,
) -> Result<T, InvError> {
    for attempt in 0u64..500 {
        c.begin().unwrap();
        let r = f(c).and_then(|v| c.commit().map(|_| v));
        match r {
            Ok(v) => return Ok(v),
            Err(ref e) if retryable(e) => {
                let _ = c.abort();
                thread::sleep(Duration::from_millis(1 + attempt % 7));
            }
            Err(other) => {
                let _ = c.abort();
                return Err(other);
            }
        }
    }
    panic!("race transaction starved");
}

#[test]
fn rename_undelete_race_serializes_to_one_legal_outcome() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let old_bytes = fill(1500, 1);
    let new_bytes = fill(900, 2);

    // Stage: /race/t exists with old_bytes, gets unlinked; /race/a holds
    // new_bytes. Two sessions then race to claim the name /race/t — one by
    // renaming /race/a onto it, one by undeleting the buried file.
    let t_alive;
    {
        let mut c = fs.client();
        c.p_mkdir("/race").unwrap();
        c.write_all("/race/t", CreateMode::default(), &old_bytes).unwrap();
        t_alive = fs.db().now();
        c.p_unlink("/race/t").unwrap();
        c.write_all("/race/a", CreateMode::default(), &new_bytes).unwrap();
    }

    let mut rename_side = connect(&pool);
    let mut undelete_side = connect(&pool);
    let renamer = thread::spawn(move || {
        race_txn(&mut rename_side, |c| c.rename("/race/a", "/race/t"))
    });
    let undeleter = thread::spawn(move || {
        race_txn(&mut undelete_side, |c| c.undelete("/race/t", t_alive))
    });
    let rename_result = renamer.join().unwrap();
    let undelete_result = undeleter.join().unwrap();

    // Exactly one side claims the entry; the loser must see Exists.
    let rename_won = rename_result.is_ok();
    let undelete_won = undelete_result.is_ok();
    assert!(
        rename_won ^ undelete_won,
        "exactly one contender may win: rename {rename_result:?}, undelete {undelete_result:?}"
    );
    for r in [&rename_result, &undelete_result] {
        if let Err(e) = r {
            assert!(matches!(e, InvError::Exists(_)), "loser must fail with Exists: {e:?}");
        }
    }

    let mut c = fs.client();
    let got = c.read_to_vec("/race/t", None).unwrap();
    if rename_won {
        assert_eq!(got, new_bytes, "rename won: /race/t must hold the renamed bytes");
        assert!(matches!(
            c.p_stat("/race/a", None),
            Err(InvError::NoSuchPath(_))
        ));
    } else {
        assert_eq!(got, old_bytes, "undelete won: /race/t must hold the resurrected bytes");
        assert_eq!(c.read_to_vec("/race/a", None).unwrap(), new_bytes);
    }
    pool.shutdown();
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "check_all: {findings:?}");
    let findings = fs.check();
    assert!(findings.is_empty(), "fs.check: {findings:?}");
}
