//! DDL is a transaction. Creating a table or an index, defining a type, a
//! function or a rule, and dropping a relation all join the caller's
//! transaction: a later statement of that transaction sees the change, and
//! however the transaction ends without a durable commit — an abort, a
//! dropped session, a failed commit force, a crash after its records but
//! before its `Commit` — nothing of it is left: no cache entry, no visible
//! catalog row, no storage, and a dropped relation keeps its rows.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::CrashRig;
use inversion::InversionFs;
use minidb::catalog::{RuleEntry, RuleEvent, PG_CLASS, PG_PROC, PG_RULE, PG_TYPE};
use minidb::rules::run_rules;
use minidb::{Datum, Db, DbError, DbResult, DeviceId, RelId, Schema, Session, TypeId};

/// One kind of DDL statement, run against the fixture's `victim` table.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ddl {
    CreateTable,
    CreateIndex,
    DefineType,
    DefineFunction,
    DefineRule,
    Drop,
}

const EVERY_DDL: [Ddl; 6] = [
    Ddl::CreateTable,
    Ddl::CreateIndex,
    Ddl::DefineType,
    Ddl::DefineFunction,
    Ddl::DefineRule,
    Ddl::Drop,
];

/// The rows the fixture's `victim` table holds.
const VICTIM_ROWS: std::ops::Range<i32> = 0..50;

impl Ddl {
    fn run(self, s: &mut Session, victim: RelId) -> DbResult<()> {
        match self {
            Ddl::CreateTable => s.create_table_on("fresh", int_table(), DeviceId::DEFAULT, false).map(drop),
            Ddl::CreateIndex => s.create_index("fresh_idx", victim, &["v"]).map(drop),
            Ddl::DefineType => s.define_type("snowimg").map(drop),
            Ddl::DefineFunction => s.define_function("seven", 0, TypeId::INT8, "t.seven", None),
            Ddl::DefineRule => s.define_rule(RuleEntry {
                name: "cold".into(),
                on_rel: victim,
                event: RuleEvent::Periodic,
                qual: "v > 40".into(),
                action: "seven()".into(),
            }),
            Ddl::Drop => s.drop_relation("victim"),
        }
    }

    /// The name the statement defines (`None` for the drop).
    fn name(self) -> Option<&'static str> {
        match self {
            Ddl::CreateTable => Some("fresh"),
            Ddl::CreateIndex => Some("fresh_idx"),
            Ddl::DefineType => Some("snowimg"),
            Ddl::DefineFunction => Some("seven"),
            Ddl::DefineRule => Some("cold"),
            Ddl::Drop => None,
        }
    }

    /// Whether the catalog cache holds what the statement defines.
    fn cached(self, db: &Db) -> bool {
        let cat = db.catalog();
        match self {
            Ddl::CreateTable | Ddl::CreateIndex => cat.relation_by_name(self.name().unwrap()).is_ok(),
            Ddl::DefineType => cat.type_by_name("snowimg").is_ok(),
            Ddl::DefineFunction => cat.proc("seven").is_ok(),
            Ddl::DefineRule => cat.rules().iter().any(|r| r.name == "cold"),
            Ddl::Drop => cat.relation_by_name("victim").is_err(),
        }
    }
}

/// How a transaction ends without a durable commit.
#[derive(Clone, Copy, Debug)]
enum End {
    Abort,
    DroppedSession,
    FailedForce,
}

fn int_table() -> Schema {
    Schema::new([("v", TypeId::INT4)])
}

/// A formatted file system on crashable devices, with a table `victim`
/// (index `victim_v`) holding [`VICTIM_ROWS`].
fn fixture() -> (CrashRig, InversionFs, RelId) {
    let rig = CrashRig::new();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let db = fs.db();
    db.functions().register("t.seven", |_s, _a| Ok(Datum::Int8(7)));
    let victim = db.create_table("victim", int_table()).unwrap();
    db.create_index("victim_v", victim, &["v"]).unwrap();
    let mut s = db.begin().unwrap();
    for v in VICTIM_ROWS {
        s.insert(victim, vec![Datum::Int4(v)]).unwrap();
    }
    s.commit().unwrap();
    (rig, fs, victim)
}

/// Every text datum in a visible row of the four system relations: each
/// relation, type, function and rule name the catalog rows hold.
fn catalog_texts(db: &Db) -> Vec<String> {
    let mut s = db.begin().unwrap();
    let mut out = Vec::new();
    for rel in [PG_CLASS, PG_TYPE, PG_PROC, PG_RULE] {
        for (_, row) in s.seq_scan(rel).unwrap() {
            out.extend(row.into_iter().filter_map(|d| match d {
                Datum::Text(t) => Some(t),
                _ => None,
            }));
        }
    }
    s.commit().unwrap();
    out
}

fn victim_rows(db: &Db, victim: RelId) -> Vec<i64> {
    let mut s = db.begin().unwrap();
    let mut got: Vec<i64> =
        s.seq_scan(victim).unwrap().iter().map(|(_, row)| row[0].as_int().unwrap()).collect();
    s.commit().unwrap();
    got.sort_unstable();
    got
}

/// Both verifiers are clean. `check_all`'s `device-orphan-rel` rule is the
/// storage half: it reports any relation a device holds that the catalog
/// does not name.
fn assert_clean(fs: &InversionFs) {
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "check_all: {findings:?}");
    let findings = fs.check();
    assert!(findings.is_empty(), "fs.check: {findings:?}");
}

/// Nothing of an unfinished `ddl` is left, the victim is whole, and the
/// same statement now commits: its name is free.
fn assert_nothing_left(fs: &InversionFs, ddl: Ddl) {
    let db = fs.db();
    let victim = db.relation_id("victim").expect("the victim is still there");
    assert!(db.find_index(victim, &[0]).is_some(), "{ddl:?}: the victim lost its index");
    assert_eq!(victim_rows(db, victim), VICTIM_ROWS.map(i64::from).collect::<Vec<_>>());
    let texts = catalog_texts(db);
    assert!(texts.iter().any(|t| t == "victim"), "{ddl:?}: the victim's row is gone");
    assert!(!ddl.cached(db), "{ddl:?}: the cache still holds it");
    if let Some(name) = ddl.name() {
        assert!(!texts.iter().any(|t| t == name), "{ddl:?}: a visible row names {name}");
    }
    assert_clean(fs);
    let mut s = db.begin().unwrap();
    ddl.run(&mut s, victim).unwrap();
    s.commit().unwrap();
    assert!(ddl.cached(db), "{ddl:?}: committed, yet not in the cache");
    assert_clean(fs);
}

/// A POSTQUEL `define type` joins the caller's transaction: after its
/// abort nothing is left, and defining the name again succeeds.
#[test]
fn an_aborted_define_type_leaves_its_name_free() {
    let db = Db::open_in_memory().unwrap();
    let mut s = db.begin().unwrap();
    s.query("define type snowimg").unwrap();
    s.abort().unwrap();
    assert_eq!(db.check_all(), []);
    assert!(db.catalog().type_by_name("snowimg").is_err());
    let mut s = db.begin().unwrap();
    s.query("define type snowimg").unwrap();
    s.commit().unwrap();
    assert!(db.catalog().type_by_name("snowimg").is_ok());
    assert_eq!(db.check_all(), []);
}

#[test]
fn every_ddl_ended_without_a_commit_leaves_nothing() {
    for ddl in EVERY_DDL {
        for end in [End::Abort, End::DroppedSession, End::FailedForce] {
            let (rig, fs, victim) = fixture();
            let db = fs.db();
            let mut s = db.begin().unwrap();
            ddl.run(&mut s, victim).unwrap();
            assert!(ddl.cached(db) || ddl == Ddl::Drop, "{ddl:?}: its transaction sees it");
            match end {
                End::Abort => s.abort().unwrap(),
                End::DroppedSession => drop(s),
                End::FailedForce => {
                    rig.log_faults.fail_after_writes(0);
                    assert!(s.commit().is_err(), "{ddl:?}: the commit force did not fail");
                    rig.log_faults.clear_write_fault();
                }
            }
            assert_nothing_left(&fs, ddl);
        }
    }
}

/// A DDL whose records another commit forced to the log, but whose own
/// `Commit` never came, is aborted by the crash: recovery brings back none
/// of it and releases its storage.
#[test]
fn a_ddl_forced_without_its_commit_leaves_nothing_after_a_crash() {
    for ddl in EVERY_DDL {
        let (rig, fs, victim) = fixture();
        let db = fs.db().clone();
        let other = db.create_table("other", int_table()).unwrap();
        let mut s = db.begin().unwrap();
        ddl.run(&mut s, victim).unwrap();
        let mut forcer = db.begin().unwrap();
        forcer.insert(other, vec![Datum::Int4(1)]).unwrap();
        forcer.commit().unwrap();
        // The power goes before the DDL's transaction ends: no abort runs.
        std::mem::forget(s);
        db.simulate_crash();
        rig.power_cut();
        drop((fs, db));
        let fs = InversionFs::attach(rig.open(false)).unwrap();
        assert_nothing_left(&fs, ddl);
    }
}

/// A drop takes the victim's exclusive lock, so it waits for a reader's
/// shared one; once it commits, the relation is gone for every statement
/// after it.
#[test]
fn a_drop_waits_for_the_victims_reader_then_takes_it_away() {
    let (_rig, fs, victim) = fixture();
    let db = fs.db().clone();
    let mut reader = db.begin().unwrap();
    assert_eq!(reader.seq_scan(victim).unwrap().len(), VICTIM_ROWS.len());
    let dropped = Arc::new(AtomicBool::new(false));
    let dropper = thread::spawn({
        let (db, dropped) = (db.clone(), Arc::clone(&dropped));
        move || {
            let mut s = db.begin().unwrap();
            s.drop_relation("victim").unwrap();
            dropped.store(true, SeqCst);
            s.commit().unwrap();
        }
    });
    thread::sleep(Duration::from_millis(100));
    assert!(!dropped.load(SeqCst), "the drop did not wait for the reader's lock");
    assert_eq!(reader.seq_scan(victim).unwrap().len(), VICTIM_ROWS.len());
    reader.commit().unwrap();
    dropper.join().unwrap();
    let mut next = db.begin().unwrap();
    assert!(matches!(next.seq_scan(victim), Err(DbError::NotFound(_))));
    assert!(matches!(next.query("retrieve (x.v) from x in victim"), Err(DbError::NotFound(_))));
    next.commit().unwrap();
    assert_clean(&fs);
    db.create_table("victim", int_table()).expect("the name is free");
    assert_clean(&fs);
}

/// A relation created and dropped by one transaction is gone whether that
/// transaction commits or aborts, and its name can be used again.
#[test]
fn a_relation_created_and_dropped_in_one_transaction_leaves_nothing() {
    let (_rig, fs, _) = fixture();
    let db = fs.db();
    for commit in [true, false] {
        let mut s = db.begin().unwrap();
        let t = s.create_table_on("brief", int_table(), DeviceId::DEFAULT, false).unwrap();
        s.create_index("brief_v", t, &["v"]).unwrap();
        s.insert(t, vec![Datum::Int4(1)]).unwrap();
        s.drop_relation("brief").unwrap();
        assert!(matches!(s.drop_relation("brief"), Err(DbError::NotFound(_))));
        // Nothing attaches to a relation this transaction dropped.
        assert!(matches!(s.create_index("brief_w", t, &["v"]), Err(DbError::NotFound(_))));
        let rule = "define rule late on periodic to brief where v > 0 do seven()";
        assert!(matches!(s.query(rule), Err(DbError::NotFound(m)) if m == format!("relation {t}")));
        if commit {
            s.commit().unwrap();
        } else {
            s.abort().unwrap();
        }
        assert!(["brief", "brief_v", "brief_w"].iter().all(|n| db.relation_id(n).is_err()));
        assert!(db.catalog().rules().is_empty());
        assert!(!catalog_texts(db).iter().any(|t| t.starts_with("brief")));
        assert_clean(&fs);
    }
    let t = db.create_table("brief", int_table()).expect("the name is free");
    db.create_index("brief_v", t, &["v"]).expect("so is the index's");
    assert_clean(&fs);
}

/// A rule on a relation being dropped waits for the drop's lock, and once
/// the drop commits finds the relation gone.
#[test]
fn a_define_rule_waits_for_a_drop_then_finds_its_relation_gone() {
    let (_rig, fs, victim) = fixture();
    let db = fs.db().clone();
    let mut dropper = db.begin().unwrap();
    Ddl::Drop.run(&mut dropper, victim).unwrap();
    let definer = thread::spawn({
        let db = db.clone();
        move || Ddl::DefineRule.run(&mut db.begin().unwrap(), victim)
    });
    thread::sleep(Duration::from_millis(100));
    assert!(!definer.is_finished(), "the rule did not wait for the drop");
    dropper.commit().unwrap();
    assert!(matches!(definer.join().unwrap(), Err(DbError::NotFound(_))));
    assert!(db.catalog().rules().is_empty());
    assert_clean(&fs);
}

/// `define rule` holds the watched relation's exclusive lock, and a rule
/// run takes that relation's shared lock before it reads the rules: it
/// waits for the definer, and after the definer's abort finds no rule.
#[test]
fn a_rule_run_waits_on_an_uncommitted_define_rule_and_fires_nothing_after_its_abort() {
    let (_rig, fs, victim) = fixture();
    let db = fs.db().clone();
    let fired = Arc::new(AtomicU32::new(0));
    db.functions().register("t.note", {
        let fired = Arc::clone(&fired);
        move |_s, _a| {
            fired.fetch_add(1, SeqCst);
            Ok(Datum::Bool(true))
        }
    });
    db.define_function("note", 0, TypeId::BOOL, "t.note", None).unwrap();
    let mut definer = db.begin().unwrap();
    definer.query("define rule cold on periodic to victim where v > 40 do note()").unwrap();
    let ran = Arc::new(AtomicBool::new(false));
    let runner = thread::spawn({
        let (db, ran) = (db.clone(), Arc::clone(&ran));
        move || {
            let mut s = db.begin().unwrap();
            let run = run_rules(&mut s, victim, RuleEvent::Periodic).unwrap();
            ran.store(true, SeqCst);
            s.commit().unwrap();
            run
        }
    });
    thread::sleep(Duration::from_millis(100));
    assert!(!ran.load(SeqCst), "the rule run did not wait for the definer");
    definer.abort().unwrap();
    let run = runner.join().unwrap();
    assert!(run.fired.is_empty() && run.actions.is_empty(), "{run:?}");
    assert_eq!(fired.load(SeqCst), 0);
    assert_clean(&fs);
}

/// A drop takes the rules that watch its relation with it: after the
/// drop's commit, and after a crash behind that commit, neither the cache
/// nor a visible `pg_rule` row holds the rule; an abort leaves it as it was.
#[test]
fn a_drop_takes_the_rules_on_its_relation_with_it() {
    for end in ["commit", "abort", "crash-and-reopen"] {
        let (rig, fs, victim) = fixture();
        let db = fs.db().clone();
        let mut s = db.begin().unwrap();
        Ddl::DefineRule.run(&mut s, victim).unwrap();
        s.commit().unwrap();
        let mut s = db.begin().unwrap();
        Ddl::Drop.run(&mut s, victim).unwrap();
        let fs = match end {
            "abort" => {
                s.abort().unwrap();
                fs
            }
            "commit" => {
                s.commit().unwrap();
                fs
            }
            _ => {
                s.commit().unwrap();
                db.simulate_crash();
                rig.power_cut();
                drop((fs, db));
                InversionFs::attach(rig.open(false)).unwrap()
            }
        };
        let kept = end == "abort";
        assert_eq!(Ddl::DefineRule.cached(fs.db()), kept, "{end}: the cached rule");
        assert_eq!(catalog_texts(fs.db()).iter().any(|t| t == "cold"), kept, "{end}: its row");
        assert_eq!(fs.db().relation_id("victim").is_ok(), kept, "{end}: the victim");
        assert_clean(&fs);
    }
}

/// A migration inside the transaction that created the file puts both a
/// `Created` and a `Swapped` on its DDL list, and one of an older file a
/// `Swapped` alone. A write of a moved file later in that transaction is
/// refused: it would go to the storage the commit frees. The abort takes
/// back the new file and both builds on device 1, and leaves the older
/// file on device 0 as it read.
#[test]
fn a_migration_aborted_in_the_creating_transaction_leaves_nothing_on_either_device() {
    use inversion::migrate::migrate_file;
    let rig = CrashRig::with_two_data_devices();
    let data1 = rig.data1.clone().unwrap();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let db = fs.db();
    let mut c = fs.client();
    c.write_all("/old", inversion::CreateMode::default(), b"first").unwrap();
    let first = db.now();
    c.p_begin().unwrap();
    let fd = c.p_open("/old", inversion::OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"FIRST, then more").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let times = [first, db.now()];
    let before = common::FileView::of(&fs, "/old", &times);
    db.checkpoint().unwrap();
    let stored = [common::relations_on(&rig.data), common::relations_on(&data1)];

    let mut s = db.begin().unwrap();
    let lo = inversion::LargeObject::create(&fs, &mut s, &inversion::CreateMode::default()).unwrap();
    lo.write_at(&mut s, 0, b"never committed").unwrap();
    migrate_file(&fs, &mut s, lo.oid(), DeviceId(1)).unwrap();
    let old = fs.resolve(&mut s, "/old").unwrap();
    migrate_file(&fs, &mut s, old, DeviceId(1)).unwrap();
    assert!(lo.write_at(&mut s, 0, b"lost").is_err(), "a write after the swap is refused");
    db.checkpoint().unwrap();
    assert!(common::relations_on(&data1).len() > stored[1].len(), "the builds are on device 1");
    s.abort().unwrap();

    let name = format!("inv{}", lo.oid().0);
    assert!(db.relation_id(&name).is_err(), "the new file's relation is taken back");
    db.checkpoint().unwrap();
    assert_eq!([common::relations_on(&rig.data), common::relations_on(&data1)], stored);
    before.assert_moved_or_not(&fs, "/old", &times, false);
}
