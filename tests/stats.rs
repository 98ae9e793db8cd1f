//! Integration tests for the queryable statistics subsystem: the
//! `minidb::stats` registry, the `pg_stat_*` virtual relations, and the file
//! system's `inv_stat` counters, exercised through the full stack.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{data_page_writes, Devices, ProbedDisk};
use inversion::{CreateMode, InversionFs, CHUNK_SIZE};
use minidb::{Datum, Db, Schema, TypeId};

fn int8(d: &Datum) -> i64 {
    match d {
        Datum::Int8(n) => *n,
        other => panic!("expected int8, got {other:?}"),
    }
}

/// Re-reading a file's chunks must come from the buffer cache: the hit
/// ratio rises on the second pass, and the acceptance query
/// `retrieve (s.hits) from s in pg_stat_buffer` sees it live.
#[test]
fn buffer_hit_ratio_rises_on_reread() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    let data: Vec<u8> = (0..3 * CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
    c.write_all("/warm", CreateMode::default(), &data).unwrap();

    let cold = fs.db().stats();
    assert_eq!(c.read_to_vec("/warm", None).unwrap(), data);
    let first = fs.db().stats().delta(&cold);
    assert_eq!(c.read_to_vec("/warm", None).unwrap(), data);
    let second = fs.db().stats().delta(&cold).delta(&first);

    let ratio = |b: &minidb::BufferStats| b.hits as f64 / (b.hits + b.misses).max(1) as f64;
    assert!(second.buffer.misses <= first.buffer.misses);
    assert!(
        ratio(&second.buffer) >= ratio(&first.buffer),
        "re-read hit ratio {} must not drop below first-read {}",
        ratio(&second.buffer),
        ratio(&first.buffer)
    );
    assert!(second.buffer.hits > 0, "re-read must hit the cache");

    // The same counters through the query language.
    let mut s = fs.db().begin().unwrap();
    let res = s.query("retrieve (s.hits) from s in pg_stat_buffer").unwrap();
    s.commit().unwrap();
    assert_eq!(res.rows.len(), 1);
    assert!(int8(&res.rows[0][0]) > 0, "pg_stat_buffer.hits live value");
}

/// Runs a cold sequential scan over a multi-page relation on a database
/// configured with the given read-ahead window, returning the counter
/// growth across the scan.
fn cold_scan_delta(prefetch_window: usize) -> minidb::StatsSnapshot {
    let db = Db::open_in_memory_with(minidb::DbConfig {
        prefetch_window,
        ..minidb::DbConfig::default()
    })
    .unwrap();
    let rel = db
        .create_table("big", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
    let mut s = db.begin().unwrap();
    // ~260 rows of ~400 bytes: a couple dozen heap pages, several extents.
    for i in 0..260 {
        s.insert(rel, vec![Datum::Text(format!("{i:0>400}"))]).unwrap();
    }
    s.commit().unwrap();
    db.flush_caches().unwrap(); // The scan starts stone cold.

    let before = db.stats();
    let mut s = db.begin().unwrap();
    let scanned = s.query("retrieve (t.v) from t in big").unwrap();
    s.commit().unwrap();
    assert_eq!(scanned.rows.len(), 260);
    db.stats().delta(&before)
}

/// Counter growth across a cold whole-file read of 1 MB on a formatted file
/// system (the reader hints the whole chunk relation to the cache up front).
fn cold_file_read_delta() -> minidb::StatsSnapshot {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    c.write_all("/big", CreateMode::default(), &data).unwrap();
    fs.db().flush_caches().unwrap();
    let before = fs.db().stats();
    assert_eq!(c.read_to_vec("/big", None).unwrap(), data);
    fs.db().stats().delta(&before)
}

/// Read-ahead efficacy and accounting: a cold sequential heap scan with
/// prefetching on must record prefetch hits and a strictly higher hit rate
/// than the same scan with prefetching disabled — and every device read is
/// one the pool counted, made on the reader's own thread.
#[test]
fn readahead_raises_cold_scan_hit_rate() {
    let with = cold_scan_delta(8);
    let without = cold_scan_delta(0);

    for run in [&with, &without, &cold_file_read_delta()] {
        let sum = |f: fn(&minidb::DeviceIoStats) -> u64| run.devices.iter().map(f).sum::<u64>();
        // Read-ahead fills buffer frames; the device queue carries writes.
        assert_eq!(sum(|d| d.io_submitted), 0, "a read went through the device queue: {run:?}");
        // One meaning per counter: a page is read from the device exactly
        // when it is loaded, as a demand miss or as read-ahead.
        assert_eq!(
            sum(|d| d.reads),
            run.buffer.misses + run.buffer.prefetches,
            "device reads must equal misses + prefetches: {run:?}"
        );
        assert!(run.buffer.prefetch_hits <= run.buffer.prefetches, "{run:?}");
    }
    let (with, without) = (with.buffer, without.buffer);
    assert_eq!(without.prefetches, 0);
    assert_eq!(without.prefetch_hits, 0);
    assert!(with.prefetches > 0, "scan must trigger read-ahead: {with:?}");
    assert!(with.prefetch_hits > 0, "read-ahead pages must be used: {with:?}");
    assert!(
        with.misses < without.misses,
        "prefetch must absorb demand misses: {with:?} vs {without:?}"
    );
    let rate = |b: &minidb::BufferStats| b.hits as f64 / (b.hits + b.misses).max(1) as f64;
    assert!(
        rate(&with) > rate(&without),
        "hit rate with prefetch ({:.3}) must beat without ({:.3})",
        rate(&with),
        rate(&without)
    );
}

/// Two transactions inserting into the same relation contend on its write
/// lock; the loser's wait shows up in the lock counters and in
/// `pg_stat_lock`.
#[test]
fn lock_waits_counted_under_contention() {
    let db = Db::open_in_memory().unwrap();
    let rel = db
        .create_table("contended", Schema::new([("v", TypeId::INT4)]))
        .unwrap();

    let mut holder = db.begin().unwrap();
    holder.insert(rel, vec![Datum::Int4(1)]).unwrap();

    let entered = Arc::new(AtomicBool::new(false));
    let db2 = db.clone();
    let flag = Arc::clone(&entered);
    let waiter = std::thread::spawn(move || {
        let mut s = db2.begin().unwrap();
        flag.store(true, Ordering::SeqCst);
        s.insert(rel, vec![Datum::Int4(2)]).unwrap();
        s.commit().unwrap();
    });

    // Let the second transaction reach the lock queue before releasing.
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    holder.commit().unwrap();
    waiter.join().unwrap();

    let lock = db.stats().lock;
    assert!(lock.acquisitions >= 2);
    assert!(lock.waits >= 1, "blocked transaction must count as a wait");
    assert_eq!(lock.deadlocks, 0);
    assert_eq!(lock.timeouts, 0);

    let mut s = db.begin().unwrap();
    let res = s
        .query("retrieve (l.acquisitions, l.waits) from l in pg_stat_lock")
        .unwrap();
    s.commit().unwrap();
    assert!(int8(&res.rows[0][0]) >= 2);
    assert!(int8(&res.rows[0][1]) >= 1);
}

/// Transaction outcomes land in `pg_stat_xact`, heap/btree traffic in
/// `pg_stat_relation`, and per-device I/O in `pg_stat_device`.
#[test]
fn xact_relation_and_device_stats_queryable() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    c.write_all("/a", CreateMode::default(), b"aaaa").unwrap();
    c.p_begin().unwrap();
    let fd = c.p_creat("/b", CreateMode::default()).unwrap();
    c.p_write(fd, b"bbbb").unwrap();
    c.p_close(fd).unwrap();
    c.p_abort().unwrap();

    let snap = fs.db().stats();
    assert!(snap.xact.commits >= 1);
    assert!(snap.xact.aborts >= 1);
    assert!(snap.heap.appends >= 1);
    assert!(snap.btree.inserts >= 1);
    assert!(!snap.devices.is_empty());
    assert!(snap.devices.iter().any(|d| d.writes > 0));

    let mut s = fs.db().begin().unwrap();
    let xact = s
        .query("retrieve (x.commits, x.aborts) from x in pg_stat_xact")
        .unwrap();
    let rel = s
        .query("retrieve (r.heap_appends, r.btree_inserts) from r in pg_stat_relation")
        .unwrap();
    let dev = s
        .query("retrieve (d.name, d.writes) from d in pg_stat_device")
        .unwrap();
    s.commit().unwrap();
    assert!(int8(&xact.rows[0][0]) >= 1);
    assert!(int8(&xact.rows[0][1]) >= 1);
    assert!(int8(&rel.rows[0][0]) >= 1);
    assert!(int8(&rel.rows[0][1]) >= 1);
    assert!(!dev.rows.is_empty());
    assert!(dev.rows.iter().any(|r| int8(&r[1]) > 0));
}

/// The file system's own counters surface in `inv_stat` with live values.
#[test]
fn inv_stat_reflects_file_operations() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    let data: Vec<u8> = vec![7u8; 2 * CHUNK_SIZE];
    c.write_all("/f", CreateMode::default(), &data).unwrap();
    assert_eq!(c.read_to_vec("/f", None).unwrap().len(), data.len());

    let mut s = fs.db().begin().unwrap();
    let res = s.query("retrieve (i.op, i.count) from i in inv_stat").unwrap();
    s.commit().unwrap();
    let count = |op: &str| {
        res.rows
            .iter()
            .find(|r| r[0] == Datum::Text(op.into()))
            .map(|r| int8(&r[1]))
            .unwrap_or_else(|| panic!("no inv_stat row for {op}"))
    };
    assert_eq!(count("creat"), 1);
    assert!(count("write") >= 1);
    assert!(count("chunk_writes") >= 2, "two chunks stored");
    assert!(count("chunk_reads") >= 2, "two chunks fetched");
    assert_eq!(count("bytes_written"), data.len() as i64);
}

/// Snapshots must be safe to take while other threads are mutating the
/// database — the registry is read with relaxed atomics, never locked.
#[test]
fn snapshots_safe_under_concurrent_workload() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for w in 0..3u32 {
        let fs = fs.clone();
        writers.push(std::thread::spawn(move || {
            let mut c = fs.client();
            for i in 0..8 {
                let path = format!("/w{w}_{i}");
                loop {
                    match c.write_all(&path, CreateMode::default(), &[w as u8; 64]) {
                        Ok(()) | Err(inversion::InvError::Exists(_)) => break,
                        Err(_) => std::thread::yield_now(), // 2PL conflict: retry.
                    }
                }
            }
        }));
    }

    let reader = {
        let fs = fs.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snaps = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let snap = fs.db().stats();
                let _ = snap.to_json();
                let _ = fs.stats().rows();
                snaps += 1;
            }
            snaps
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let snaps = reader.join().unwrap();
    assert!(snaps > 0);

    let snap = fs.db().stats();
    assert!(snap.xact.commits >= 24, "all writer transactions counted");
    // Counters count calls: 2PL conflicts retry write_all, so creats can
    // exceed the 24 files but never undercount them.
    assert!(fs.stats().creats.get() >= 24);
}

/// No-force commit: a write transaction pays exactly one log force and
/// zero data-page writes at commit, no matter how much dirty data (its
/// own or a bystander's) is resident in the buffer cache.
#[test]
fn single_table_commit_costs_one_log_force() {
    let db = Db::open_in_memory().unwrap();
    let big = db
        .create_table("big", Schema::new([("v", TypeId::TEXT)]))
        .unwrap();
    let small = db
        .create_table("small", Schema::new([("v", TypeId::INT4)]))
        .unwrap();

    // Populate `big` across many heap pages so the cache is full of it.
    let mut s = db.begin().unwrap();
    for i in 0..260 {
        s.insert(big, vec![Datum::Text(format!("{i:0>400}"))]).unwrap();
    }
    s.commit().unwrap();

    // Re-dirty a pile of big's pages in a transaction that stays open, so
    // the pool holds dirty pages a whole-pool flush would have written.
    let mut bystander = db.begin().unwrap();
    for i in 0..40 {
        bystander
            .insert(big, vec![Datum::Text(format!("x{i:0>400}"))])
            .unwrap();
    }

    let mut s = db.begin().unwrap();
    s.insert(small, vec![Datum::Int4(7)]).unwrap();
    let before = db.stats();
    s.commit().unwrap();
    let d = db.stats().delta(&before);

    assert_eq!(d.xact.commits, 1);
    assert_eq!(
        d.xact.sync_calls, 1,
        "a commit must cost exactly one log force"
    );
    assert_eq!(d.xact.batched_records, 1);
    assert_eq!(
        data_page_writes(&d),
        0,
        "no-force commit: the bystander's dirty pages (and our own) stay \
         cached for the checkpointer"
    );
    assert_eq!(d.wal.log_forces, 1, "and the log sees exactly one force");
    bystander.abort().unwrap();
}

/// Every way of ending a transaction other than a successful commit is a
/// mark in memory: an explicit abort, a dropped session and a commit whose
/// force failed each cost the log device no write and no sync — after a
/// crash, the absence of a durable `Commit` record already means aborted.
/// The failed commit is the hard case: its `Commit` record stays in the
/// log buffer and the next committer's force carries it to the device, so
/// restart must still read it as aborted.
#[test]
fn abort_drop_and_failed_commit_cost_no_log_io() {
    use std::sync::atomic::Ordering::SeqCst;
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, std::time::Duration::ZERO);
    devices.log = log;
    let db = devices.format();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::INT4)]))
        .unwrap();
    // (log writes, log syncs, checkpoints): a checkpoint writes the status
    // file, so a window one ran in fails here rather than being excused.
    let io = |db: &Db| {
        let (w, s) = (probe.writes.load(SeqCst), probe.syncs.load(SeqCst));
        (w, s, db.stats().wal.checkpoints)
    };
    let writer = |db: &Db, v: i32| {
        let mut s = db.begin().unwrap();
        s.insert(rel, vec![Datum::Int4(v)]).unwrap();
        s
    };

    let mut s = writer(&db, 1);
    let before = io(&db);
    s.abort().unwrap();
    assert_eq!(io(&db), before, "explicit abort");

    let s = writer(&db, 2);
    let before = io(&db);
    drop(s);
    assert_eq!(io(&db), before, "dropped session");

    let mut s = writer(&db, 3);
    let before = io(&db);
    probe.fail_next_write.store(true, SeqCst);
    assert!(s.commit().is_err(), "the force's first write fails");
    assert_eq!(io(&db), before, "failed commit");

    writer(&db, 4).commit().unwrap();
    db.simulate_crash();
    drop(db);
    let db = devices.recover();
    let mut s = db.begin().unwrap();
    let rows = s.seq_scan(db.relation_id("t").unwrap()).unwrap();
    s.commit().unwrap();
    let seen: Vec<&Datum> = rows.iter().map(|(_, row)| &row[0]).collect();
    assert_eq!(seen, [&Datum::Int4(4)], "only the acknowledged commit");
    assert!(db.check_all().is_empty(), "check_all: {:?}", db.check_all());
}

/// The read-only fast path through the POSTQUEL executor: a retrieve-only
/// transaction flushes nothing and syncs nothing at commit.
#[test]
fn retrieve_only_transaction_commits_without_io() {
    let db = Db::open_in_memory().unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::INT4)]))
        .unwrap();
    let mut s = db.begin().unwrap();
    for i in 0..10 {
        s.insert(rel, vec![Datum::Int4(i)]).unwrap();
    }
    s.commit().unwrap();

    let before = db.stats();
    let mut s = db.begin().unwrap();
    let res = s.query("retrieve (t.v) from t in t").unwrap();
    s.commit().unwrap();
    let d = db.stats().delta(&before);

    assert_eq!(res.rows.len(), 10);
    assert_eq!(d.xact.commits, 1);
    assert_eq!(data_page_writes(&d), 0, "read-only: nothing to flush");
    assert_eq!(d.wal.log_forces, 0, "read-only: no log force");
    assert_eq!(d.xact.sync_calls, 0, "read-only: no device sync");
    assert_eq!(d.xact.batched_records, 0, "read-only: no commit record");
}

/// The same fast path end-to-end through the file system: a transaction
/// that only reads commits via `p_commit` with zero flushes and syncs.
#[test]
fn readonly_file_transaction_commits_without_io() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut c = fs.client();
    let data = vec![3u8; CHUNK_SIZE];
    c.write_all("/ro", CreateMode::default(), &data).unwrap();

    let before = fs.db().stats();
    c.p_begin().unwrap();
    let fd = c.p_open("/ro", inversion::OpenMode::Read, None).unwrap();
    let mut buf = vec![0u8; data.len()];
    let n = c.p_read(fd, &mut buf).unwrap();
    // The close owes an access time and nothing else, and an access time
    // is written back lazily: the transaction stays read-only end to end.
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let d = fs.db().stats().delta(&before);

    assert_eq!(n, data.len());
    assert_eq!(d.xact.commits, 1);
    assert_eq!(data_page_writes(&d), 0, "p_commit of a read: no flush");
    assert_eq!(d.wal.log_forces, 0, "p_commit of a read: no log force");
    assert_eq!(d.xact.sync_calls, 0, "p_commit of a read: no sync");
    assert_eq!(d.xact.batched_records, 0, "p_commit of a read: no record");
}

/// The commit-path counters are queryable through `pg_stat_xact`, and the
/// no-force gate reads the same relationally: across a commit
/// `pg_stat_device.writes` stands still while `pg_stat_wal.log_forces`
/// moves by one.
#[test]
fn commit_counters_queryable_through_pg_stat_xact() {
    let db = Db::open_in_memory().unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::INT4)]))
        .unwrap();
    // (data-page writes, log forces, checkpoints), via a read-only
    // transaction that itself forces and writes nothing.
    let io = || {
        let mut s = db.begin().unwrap();
        let dev = s
            .query("retrieve (d.writes) from d in pg_stat_device")
            .unwrap();
        let wal = s
            .query("retrieve (w.log_forces, w.checkpoints) from w in pg_stat_wal")
            .unwrap();
        s.commit().unwrap();
        let writes: i64 = dev.rows.iter().map(|r| int8(&r[0])).sum();
        (writes, int8(&wal.rows[0][0]), int8(&wal.rows[0][1]))
    };
    let mut s = db.begin().unwrap();
    s.insert(rel, vec![Datum::Int4(1)]).unwrap();
    let (writes, forces, checkpoints) = io();
    s.commit().unwrap();
    let after = io();
    assert_eq!(after.2, checkpoints, "no checkpoint in the window");
    assert_eq!(after.0, writes, "no-force commit writes no data page");
    assert_eq!(after.1, forces + 1, "one log force makes it durable");

    let mut s = db.begin().unwrap();
    let res = s
        .query(
            "retrieve (x.commits, x.group_commits, x.batched_records, \
             x.sync_calls) from x in pg_stat_xact",
        )
        .unwrap();
    s.commit().unwrap();
    let row = &res.rows[0];
    assert!(int8(&row[0]) >= 1, "commits");
    assert!(int8(&row[2]) >= 1, "batched_records");
    assert!(int8(&row[3]) >= 1, "sync_calls");
}

/// Virtual relations have no history: time-travel brackets are rejected
/// instead of silently returning current counters.
#[test]
fn virtual_relations_reject_time_travel() {
    let fs = InversionFs::format(Devices::new().format()).unwrap();
    let mut s = fs.db().begin().unwrap();
    let err = s
        .query("retrieve (b.hits) from b in pg_stat_buffer[123456]")
        .unwrap_err();
    s.commit().unwrap();
    assert!(
        err.to_string().contains("no history"),
        "got unexpected error: {err}"
    );
}

/// Every registered virtual relation — the engine's and Inversion's —
/// produces rows of exactly its schema's shape, and every column can be
/// retrieved by name. Nothing here names a relation's columns: a relation
/// or counter added later is covered without an edit.
#[test]
fn every_virtual_relation_matches_its_schema() {
    use inversion::{InvServerPool, PoolConfig, WireClient};
    use simdev::duplex_pair;

    let fs = InversionFs::open_in_memory().unwrap();
    // One server session and some file traffic, so the per-session and
    // per-device relations have rows to check.
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let mut c = WireClient::new(client_end);
    c.stat("/").unwrap();

    let db = fs.db();
    let names = db.virtual_names();
    for expected in [
        "inv_stat",
        "pg_check",
        "pg_stat_buffer",
        "pg_stat_device",
        "pg_stat_io",
        "pg_stat_lock",
        "pg_stat_net",
        "pg_stat_planner",
        "pg_stat_relation",
        "pg_stat_wal",
        "pg_stat_xact",
    ] {
        assert!(names.iter().any(|n| n == expected), "{expected} missing");
    }
    for name in &names {
        let table = db.virtual_table(name).unwrap();
        let columns = &table.schema.columns;
        let rows = (table.rows)(db);
        assert!(name == "pg_check" || !rows.is_empty(), "{name} has no rows");
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "{name} row arity");
            for (d, col) in row.iter().zip(columns) {
                assert!(
                    d.type_id().is_none_or(|t| t == col.ty),
                    "{name}.{}: {d:?} is not a {:?}",
                    col.name,
                    col.ty
                );
            }
        }
        let targets: Vec<String> = columns.iter().map(|c| format!("v.{}", c.name)).collect();
        let mut s = db.begin().unwrap();
        let query = format!("retrieve ({}) from v in {name}", targets.join(", "));
        let res = s.query(&query).unwrap_or_else(|e| panic!("{name}: {e}"));
        s.commit().unwrap();
        assert_eq!(res.columns.len(), columns.len());
        assert_eq!(res.rows.len(), rows.len(), "{name} row count");
    }
    drop(c);
    pool.shutdown();
}

/// The statistics table in README.md lists every registered virtual
/// relation with exactly its schema's columns, in order.
#[test]
fn readme_stats_table_matches_the_registered_schemas() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let fs = InversionFs::open_in_memory().unwrap();
    let mut listed = Vec::new();
    for line in readme.lines() {
        // | `relation` | optional prose: `col, col, …` optional prose |
        let ticks: Vec<&str> = line.split('`').collect();
        if ticks.len() < 4 || ticks[0] != "| " || !ticks[2].starts_with(" | ") {
            continue;
        }
        let (name, cols) = (ticks[1], ticks[3]);
        if !(name.starts_with("pg_") || name == "inv_stat") {
            continue;
        }
        let schema = match fs.db().virtual_table(name) {
            Some(table) => {
                listed.push(name.to_string());
                table.schema
            }
            // The catalog's own relations are real heaps, not virtual.
            None => fs
                .db()
                .relation_id(name)
                .and_then(|rel| fs.db().schema_of(rel))
                .unwrap_or_else(|_| panic!("README lists {name}: not registered, not catalogued")),
        };
        let schema: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        let listed_cols: Vec<&str> = cols.split(", ").collect();
        assert_eq!(listed_cols, schema, "README row for {name}");
    }
    listed.sort();
    let registered = fs.db().virtual_names();
    assert_eq!(listed, registered, "relations the README lists");
}

// ---------------------------------------------------------------------------
// Planner counters (`pg_stat_planner`) and the cost of access-method choice.

/// The planner's access-method choice is not just cosmetic: an equality
/// pin on an indexed column must both bump `index_scans_chosen` and touch
/// fewer buffer pages than the unbounded sequential scan of the same
/// multi-page table.
#[test]
fn index_choice_reads_fewer_pages_than_seq_scan() {
    let db = Db::open_in_memory().unwrap();
    let rel = db
        .create_table(
            "big",
            Schema::new([("k", TypeId::INT4), ("pad", TypeId::TEXT)]),
        )
        .unwrap();
    db.create_index("big_k", rel, &["k"]).unwrap();
    let mut s = db.begin().unwrap();
    for k in 0..1000 {
        s.insert(rel, vec![Datum::Int4(k), Datum::Text(format!("{k:0>200}"))])
            .unwrap();
    }
    s.commit().unwrap();

    let before = db.stats();
    let mut s = db.begin().unwrap();
    let res = s
        .query("retrieve (b.pad) from b in big where b.k = 617")
        .unwrap();
    s.commit().unwrap();
    let probe = db.stats().delta(&before);
    assert_eq!(res.rows.len(), 1);
    assert_eq!(probe.planner.plans_built, 1);
    assert_eq!(probe.planner.index_scans_chosen, 1, "pin must use big_k");
    assert_eq!(probe.planner.seq_scans_chosen, 0);

    let before = db.stats();
    let mut s = db.begin().unwrap();
    let res = s.query("retrieve (b.pad) from b in big").unwrap();
    s.commit().unwrap();
    let seq = db.stats().delta(&before);
    assert_eq!(res.rows.len(), 1000);
    assert_eq!(seq.planner.seq_scans_chosen, 1, "no bound, no index");
    assert_eq!(seq.planner.index_scans_chosen, 0);

    let probe_pages = probe.buffer.hits + probe.buffer.misses;
    let seq_pages = seq.buffer.hits + seq.buffer.misses;
    assert!(
        probe_pages < seq_pages,
        "index probe touched {probe_pages} pages, seq scan {seq_pages}: \
         the chosen plan must be cheaper, not just differently labelled"
    );
}

/// Planning without executing (`explain`) stays on the read-only commit
/// fast path: no heap scan runs, nothing flushes, nothing syncs.
#[test]
fn explain_only_transaction_commits_without_io() {
    let db = Db::open_in_memory().unwrap();
    let rel = db
        .create_table("t", Schema::new([("v", TypeId::INT4)]))
        .unwrap();
    let mut s = db.begin().unwrap();
    for i in 0..10 {
        s.insert(rel, vec![Datum::Int4(i)]).unwrap();
    }
    s.commit().unwrap();

    let before = db.stats();
    let mut s = db.begin().unwrap();
    let res = s
        .query("explain retrieve (t.v) from t in t where t.v = 3")
        .unwrap();
    s.commit().unwrap();
    let d = db.stats().delta(&before);

    assert!(!res.rows.is_empty(), "explain returns the plan tree");
    assert_eq!(d.planner.plans_built, 1);
    assert_eq!(d.heap.scans, 0, "explain plans the scan but never runs it");
    assert_eq!(d.xact.commits, 1);
    assert_eq!(data_page_writes(&d), 0, "plan-only: nothing to flush");
    assert_eq!(d.wal.log_forces, 0, "plan-only: no log force");
    assert_eq!(d.xact.sync_calls, 0, "plan-only: no device sync");
    assert_eq!(d.xact.batched_records, 0, "plan-only: no commit record");
}

// ---------------------------------------------------------------------------
// Wire/session-pool network counters (`pg_stat_net`).

/// Every frame the client sends is a frame the server counts in, and vice
/// versa — the aggregate counters and the per-session `pg_stat_net` row
/// must both agree exactly with the client's own accounting.
#[test]
fn net_counters_match_the_client_exactly() {
    use inversion::{InvServerPool, PoolConfig, WireClient};
    use simdev::duplex_pair;

    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let mut c = WireClient::new(client_end);

    let fd = c.creat("/net", CreateMode::default()).unwrap();
    // Four bulk windows of 256 KB: three full ones and a tail.
    let payload = vec![7u8; 3 * (256 << 10) + 100];
    assert_eq!(c.write_bulk(fd, &payload).unwrap(), payload.len());
    c.close(fd).unwrap();
    c.stat("/net").unwrap();
    assert!(c.stat("/does-not-exist").is_err()); // Errors are frames too.

    let st = fs.stats();
    let cs = c.stats();
    assert!(cs.frames_out.get() >= 8, "bulk write must pipeline frames");
    assert_eq!(st.net_frames_in.get(), cs.frames_out.get());
    assert_eq!(st.net_frames_out.get(), cs.frames_in.get());
    assert_eq!(st.net_bytes_in.get(), cs.bytes_out.get());
    assert_eq!(st.net_bytes_out.get(), cs.bytes_in.get());

    // The same numbers through the query language, per session.
    let mut s = fs.db().begin().unwrap();
    let res = s
        .query(
            "retrieve (n.session, n.state, n.frames_in, n.frames_out, \
             n.bytes_in, n.bytes_out) from n in pg_stat_net",
        )
        .unwrap();
    s.commit().unwrap();
    assert_eq!(res.rows.len(), 1, "one live session");
    let row = &res.rows[0];
    assert_eq!(int8(&row[2]) as u64, cs.frames_out.get());
    assert_eq!(int8(&row[3]) as u64, cs.frames_in.get());
    assert_eq!(int8(&row[4]) as u64, cs.bytes_out.get());
    assert_eq!(int8(&row[5]) as u64, cs.bytes_in.get());

    drop(c);
    pool.shutdown();
}

/// With a one-slot queue and the workers paused, a burst of pipelined
/// requests must block the connection's reader and count `queue_full`
/// events; once the gate opens, every queued request is still answered.
#[test]
fn tiny_queue_bound_counts_queue_full_events() {
    use inversion::pool::ServiceGate;
    use inversion::server::Request;
    use inversion::{InvServerPool, PoolConfig, WireClient};
    use simdev::duplex_pair;
    use std::time::{Duration, Instant};

    let gate = Arc::new(ServiceGate::new());
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(
        &fs,
        PoolConfig {
            workers: 1,
            queue_bound: 1,
            service_gate: Some(Arc::clone(&gate)),
        },
    );
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let mut c = WireClient::new(client_end);

    gate.pause();
    const BURST: usize = 6;
    for _ in 0..BURST {
        c.send(&Request::Stat("/".into())).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while fs.stats().net_queue_full.get() == 0 {
        assert!(Instant::now() < deadline, "queue_full never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    gate.resume();
    for _ in 0..BURST {
        c.recv().unwrap();
    }
    drop(c);
    pool.shutdown();
    assert!(fs.stats().net_queue_full.get() >= 1);
}

/// Malformed frames are counted per session and in the aggregate, and the
/// session keeps serving; the `pg_stat_net` row carries the tally.
#[test]
fn decode_errors_counted_and_session_survives() {
    use inversion::server::Request;
    use inversion::wire;
    use inversion::{InvServerPool, PoolConfig, WireClient};
    use simdev::duplex_pair;
    use std::io::Write;

    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let raw = client_end.clone();
    let mut c = WireClient::new(client_end);

    for _ in 0..3 {
        let mut bad = wire::encode_request(&Request::Readdir("/".into()));
        let last = bad.len() - 1;
        bad[last] ^= 0x01; // Checksum no longer matches.
        (&raw).write_all(&bad).unwrap();
        assert!(c.recv().is_err(), "corrupt frame must answer with an error");
    }
    c.stat("/").unwrap(); // Still in business.

    assert_eq!(fs.stats().net_decode_errors.get(), 3);
    let mut s = fs.db().begin().unwrap();
    let res = s
        .query("retrieve (n.decode_errors) from n in pg_stat_net")
        .unwrap();
    s.commit().unwrap();
    assert_eq!(int8(&res.rows[0][0]), 3);
    drop(c);
    pool.shutdown();
}
