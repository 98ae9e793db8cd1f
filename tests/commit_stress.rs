//! Concurrency stress for the commit path: many threads commit small write
//! transactions in lockstep rounds. The suite proves the accounting
//! invariants (every commit produces exactly one durable record;
//! concurrent committers share log forces), the absence of deadlock
//! between appenders and forcers, and that no committed row is lost.

mod common;

use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use common::{data_page_writes, wait_until, Devices, ProbedDisk};
use minidb::{Datum, Db, Schema, TypeId};

const THREADS: usize = 8;
const ROUNDS: usize = 25;

/// Creates one private table per thread so the workload contends only on
/// the commit path, never on 2PL row locks.
fn tables(db: &Db) -> Vec<minidb::RelId> {
    (0..THREADS)
        .map(|t| {
            db.create_table(&format!("t{t}"), Schema::new([("v", TypeId::INT8)]))
                .unwrap()
        })
        .collect()
}

fn run(db: &Db) -> minidb::StatsSnapshot {
    let rels = tables(db);
    let before = db.stats();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            let rel = rels[t];
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mut s = db.begin().unwrap();
                    s.insert(rel, vec![Datum::Int8((t * ROUNDS + round) as i64)])
                        .unwrap();
                    // Arrive at the commit point together, so commit
                    // records pile up behind whichever force is running.
                    barrier.wait();
                    s.commit().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked (commit deadlock or assert)");
    }

    // No lost updates: every thread's table holds exactly its rows.
    let mut s = db.begin().unwrap();
    for (t, &rel) in rels.iter().enumerate() {
        let rows = s.seq_scan(rel).unwrap();
        assert_eq!(rows.len(), ROUNDS, "table t{t} lost committed rows");
        let mut vals: Vec<i64> = rows
            .iter()
            .map(|(_, r)| match r[0] {
                Datum::Int8(v) => v,
                ref other => panic!("bad datum {other:?}"),
            })
            .collect();
        vals.sort_unstable();
        let want: Vec<i64> = (0..ROUNDS).map(|i| (t * ROUNDS + i) as i64).collect();
        assert_eq!(vals, want, "table t{t} content");
    }
    s.commit().unwrap();
    assert!(db.check_all().is_empty(), "check_all: {:?}", db.check_all());
    db.stats().delta(&before)
}

/// Group commit is a property of the log, not a subsystem: while one
/// committer's force is on the device the others append behind it, the
/// next force covers all of them, and every committer it covered returns
/// without a sync of its own. On a log device whose `sync` really blocks,
/// N×M lockstep commits must all be durably recorded exactly once, each
/// either by its own force or by someone else's, and the log must have
/// been forced strictly fewer times than there were commits.
#[test]
fn group_commit_batches_without_losing_updates() {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::from_micros(200));
    devices.log = log;
    let db = devices.format();
    let syncs_before = probe.syncs.load(SeqCst);
    let d = run(&db);
    let committed = (THREADS * ROUNDS) as u64;
    // The verification scan and the verifier's scan of the system
    // relations commit read-only and record nothing.
    assert_eq!(d.xact.commits, committed + 2);
    assert_eq!(
        d.xact.batched_records, committed,
        "every write commit must be durably recorded exactly once"
    );
    assert_eq!(
        d.xact.sync_calls + d.xact.group_commits,
        committed,
        "every write commit is made durable by its own force or by another's"
    );
    assert!(
        d.xact.group_commits > 0,
        "lockstep committers must share forces"
    );
    assert!(
        d.wal.log_forces < committed,
        "concurrent committers must share log forces: {} forces for {} commits",
        d.wal.log_forces,
        committed
    );
    let device_syncs = probe.syncs.load(SeqCst) - syncs_before;
    assert!(
        device_syncs < committed,
        "the log device itself must see fewer syncs than commits, got {device_syncs}"
    );
    assert_eq!(
        data_page_writes(&d),
        THREADS as u64,
        "no-force commit must not write data pages: the only writes are \
         the first-page extend of each thread's table"
    );
}

/// The mechanism behind the numbers above, with the interleaving forced:
/// while A's force is held on the device, B and C run whole transactions —
/// the append mutex is free during a force's I/O — and queue behind it;
/// whichever forces next covers both, and the other returns without a
/// sync. (A log that did its I/O under the append mutex would leave B and
/// C unable to append until A was done, and force three times.)
#[test]
fn commits_appended_behind_a_running_force_share_the_next_one() {
    let mut devices = Devices::new();
    let (log, probe) = ProbedDisk::log(&devices.clock, Duration::ZERO);
    devices.log = log;
    let db = devices.format();
    let rels = tables(&db);
    let before = db.stats();
    let appended = || db.stats().delta(&before).wal.records_appended;
    let commit_one = |t: usize| {
        let (db, rel) = (db.clone(), rels[t]);
        std::thread::spawn(move || {
            let mut s = db.begin().unwrap();
            s.insert(rel, vec![Datum::Int8(t as i64)]).unwrap();
            s.commit().unwrap();
        })
    };

    probe.hold_sync.store(true, SeqCst);
    let writes = probe.writes.load(SeqCst);
    let a = commit_one(0);
    // A has snapshotted the log tail and is writing it out.
    let a_forcing = wait_until(|| probe.writes.load(SeqCst) > writes);
    let per_xact = appended();
    let (b, c) = (commit_one(1), commit_one(2));
    // B and C are the same shape as A: all their records, `Commit` included.
    let all_appended = wait_until(|| appended() == 3 * per_xact);
    probe.hold_sync.store(false, SeqCst);
    assert!(a_forcing, "A's commit never reached the log device");
    assert!(
        all_appended,
        "appends must not wait for a force that is on the device"
    );
    for h in [a, b, c] {
        h.join().expect("committer panicked");
    }

    let d = db.stats().delta(&before);
    assert_eq!(d.xact.batched_records, 3);
    assert_eq!(data_page_writes(&d), 3, "one first-page extend per table");
    assert_eq!(d.wal.log_forces, 2, "A's force, then one for B and C together");
    assert_eq!(d.xact.sync_calls, 2);
    assert_eq!(d.xact.group_commits, 1, "B or C was covered by the other's force");
}
