//! Concurrency stress for the group-commit path: many threads commit small
//! write transactions in lockstep rounds, so the coordinator's batching is
//! exercised hard. The suite proves the accounting invariants (every commit
//! produces exactly one durable record; batching strictly reduces device
//! syncs), the absence of deadlock in the commit coordinator, and that no
//! committed row is lost.

mod common;

use std::sync::{Arc, Barrier};

use common::{data_page_writes, Devices};
use minidb::{Datum, Db, DbConfig, Schema, TypeId};
use simdev::SimDuration;

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
                    // Arrive at the commit point together so the group
                    // commit coordinator sees real batches.
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

/// With the group-commit window open, N×M concurrent commits must all be
/// durably recorded (commits == batched_records), batches must actually
/// form (group_commits > 0), and batching must pay off: strictly fewer
/// data-device syncs than commits.
#[test]
fn group_commit_batches_without_losing_updates() {
    let db = Devices::new().format(); // Default config: window open.
    let d = run(&db);
    let committed = (THREADS * ROUNDS) as u64;
    // The verification scan commits read-only and records nothing.
    assert_eq!(d.xact.commits, committed + 1);
    assert_eq!(
        d.xact.batched_records, committed,
        "every write commit must be durably recorded exactly once"
    );
    assert!(d.xact.group_commits > 0, "lockstep commits must batch");
    assert!(
        d.xact.sync_calls < committed,
        "batching must amortize syncs: {} syncs for {} commits",
        d.xact.sync_calls,
        committed
    );
    assert!(
        d.wal.log_forces < committed,
        "concurrent committers must share log forces: {} forces for {} commits",
        d.wal.log_forces,
        committed
    );
    assert_eq!(
        data_page_writes(&d),
        THREADS as u64,
        "no-force commit must not write data pages: the only writes are \
         the first-page extend of each thread's table"
    );
}

/// The same workload with the window closed is the degenerate case: still
/// no lost updates, still one record per commit, but every commit pays its
/// own sync.
#[test]
fn disabled_window_still_commits_every_record() {
    let devices = Devices::new();
    let db = {
        let mut smgr = minidb::Smgr::new();
        smgr.register(
            minidb::DeviceId::DEFAULT,
            Box::new(minidb::GenericManager::format(devices.data.clone()).unwrap()),
        )
        .unwrap();
        Db::open(
            devices.clock.clone(),
            smgr,
            devices.log.clone(),
            devices.catalog.clone(),
            DbConfig {
                group_commit_window: SimDuration::ZERO,
                ..DbConfig::default()
            },
        )
        .unwrap()
    };
    let d = run(&db);
    let committed = (THREADS * ROUNDS) as u64;
    assert_eq!(d.xact.commits, committed + 1);
    assert_eq!(d.xact.batched_records, committed);
    assert_eq!(d.xact.group_commits, 0, "window disabled: no batches");
    assert_eq!(
        d.xact.sync_calls, committed,
        "window disabled: one data sync per write commit"
    );
    assert_eq!(
        data_page_writes(&d),
        THREADS as u64,
        "the solo commit path writes no data page either"
    );
}
