//! Rule-driven file migration across the storage hierarchy.
//!
//! "Files that meet some selection criteria should be moved from fast,
//! expensive storage like magnetic disk to slower, cheaper storage, such as
//! magnetic tape. We are exploring strategies for using the POSTGRES
//! predicate rules system to allow users and administrators to define
//! migration policies."
//!
//! [`migrate_file`] moves a file's *current* data to a new relation on the
//! target device and repoints `fileatt`. Because `fileatt` itself is a
//! no-overwrite relation, historical snapshots still see the old `fileatt`
//! version — which references the old data relation — so time travel across
//! a migration keeps working without copying history. The old relation is
//! retained (the vacuum cleaner may archive it).
//!
//! [`register_migration`] exposes `migrate(file, device)` to the query
//! language, making the paper's vision concrete:
//!
//! ```text
//! define rule cold on periodic to fileatt
//!   where atime < now() - 1000000000 do migrate(this.file, 1)
//! ```

use minidb::catalog::RuleEvent;
use minidb::rules::{run_rules, RuleRun};
use minidb::{Datum, DbError, DeviceId, Oid, Schema, Session, TypeId};

use crate::fs::{FileKind, InvError, InvResult, InversionFs, A_CHUNKIDX, A_DATAREL, A_DEVICE};

/// Moves the current contents of file `oid` to `target`, transactionally.
pub fn migrate_file(
    fs: &InversionFs,
    s: &mut Session,
    oid: Oid,
    target: DeviceId,
) -> InvResult<()> {
    let stat = fs.stat_oid(s, oid, None)?;
    if stat.kind != FileKind::Regular {
        return Err(InvError::IsADirectory(format!("oid {oid}")));
    }
    if stat.device == target {
        return Ok(());
    }
    // A fresh relation on the target device; the name embeds the current
    // time so repeated migrations never collide.
    let suffix = fs.db().now().as_nanos();
    let new_rel = fs.db().create_table_on(
        &format!("inv{}_m{}", oid.0, suffix),
        Schema::new([("chunkno", TypeId::INT4), ("data", TypeId::BYTES)]),
        target,
        false,
    )?;
    let new_idx = fs.db().create_unique_index(
        &format!("inv{}_m{}_idx", oid.0, suffix),
        new_rel,
        &["chunkno"],
    )?;

    // Copy the *current* chunks.
    let rows = s.seq_scan(stat.datarel)?;
    for (_, row) in rows {
        s.insert(new_rel, row)?;
    }

    // Repoint fileatt (no-overwrite: historical stats keep the old rel).
    fs.update_fileatt(s, oid, |row| {
        row[A_DATAREL] = Datum::Oid(new_rel.0);
        row[A_CHUNKIDX] = Datum::Oid(new_idx.0);
        row[A_DEVICE] = Datum::Int4(target.0 as i32);
    })
}

/// Registers the `migrate(file, device)` function with the database.
pub fn register_migration(fs: &InversionFs) -> InvResult<()> {
    fs.register_function("inversion.migrate", |fs, s, a| {
        let oid = Oid(a[0].as_oid()?);
        let dev = DeviceId(a[1].as_int()? as u8);
        migrate_file(fs, s, oid, dev)
            .map(|_| Datum::Bool(true))
            .map_err(|e| DbError::Eval(e.to_string()))
    });
    match fs
        .db()
        .define_function("migrate", 2, TypeId::BOOL, "inversion.migrate", None)
    {
        Ok(()) | Err(DbError::AlreadyExists(_)) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Runs every periodic migration rule registered against `fileatt` — the
/// migration daemon's sweep. A rule's `where atime < …` reads the relation,
/// so pending access times are written back first: through `s`, the rules'
/// own transaction (which may already hold `fileatt`'s lock), and so with
/// the migrations or not at all. The entries stay pending until a
/// [`InversionFs::flush_atimes`] finds the rows caught up.
pub fn run_migration_rules(fs: &InversionFs, s: &mut Session) -> InvResult<RuleRun> {
    fs.write_atimes(s)?;
    run_rules(s, fs.rels.fileatt, RuleEvent::Periodic).map_err(InvError::Db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;
    use minidb::{
        shared_device, Db, DbConfig, GenericManager, JukeboxConfig, JukeboxManager, Smgr,
    };
    use simdev::{
        DiskProfile, JukeboxProfile, MagneticDisk, OpticalJukebox, SimClock, SimDuration,
    };

    /// A database with a magnetic disk (dev 0) and a WORM jukebox (dev 1).
    fn two_device_fs() -> InversionFs {
        let clock = SimClock::new();
        let disk = shared_device(MagneticDisk::new(
            "disk",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 15),
        ));
        let log = shared_device(MagneticDisk::new(
            "log",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let cat = shared_device(MagneticDisk::new(
            "cat",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let jb = shared_device(OpticalJukebox::new(
            "sony",
            clock.clone(),
            JukeboxProfile::tiny_for_tests(),
        ));
        let staging = shared_device(MagneticDisk::new(
            "staging",
            clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ));
        let mut smgr = Smgr::new();
        smgr.register(DeviceId(0), Box::new(GenericManager::format(disk).unwrap()))
            .unwrap();
        smgr.register(
            DeviceId(1),
            Box::new(
                JukeboxManager::format(
                    jb,
                    staging,
                    JukeboxConfig {
                        extent_pages: 4,
                        cache_blocks: 16,
                    },
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let db = Db::open(clock, smgr, log, cat, DbConfig::default()).unwrap();
        InversionFs::format(db).unwrap()
    }

    #[test]
    fn migrate_moves_data_and_preserves_contents() {
        let fs = two_device_fs();
        let mut c = fs.client();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 201) as u8).collect();
        c.write_all(
            "/dataset",
            CreateMode::default().on_device(DeviceId(0)),
            &data,
        )
        .unwrap();
        assert_eq!(c.p_stat("/dataset", None).unwrap().device, DeviceId(0));

        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/dataset", None).unwrap();
        migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
        s.commit().unwrap();

        let stat = c.p_stat("/dataset", None).unwrap();
        assert_eq!(stat.device, DeviceId(1));
        assert_eq!(c.read_to_vec("/dataset", None).unwrap(), data);
        // Idempotent.
        let mut s = fs.db().begin().unwrap();
        migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
        s.commit().unwrap();
    }

    #[test]
    fn time_travel_across_migration() {
        let fs = two_device_fs();
        let mut c = fs.client();
        c.write_all("/f", CreateMode::default(), b"before migration")
            .unwrap();
        let t_before = fs.db().now();

        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/f", None).unwrap();
        migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
        s.commit().unwrap();

        // Mutate after migration.
        c.p_begin().unwrap();
        let fd = c.p_open("/f", crate::OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"AFTER").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        assert_eq!(&c.read_to_vec("/f", None).unwrap()[..5], b"AFTER");
        // The pre-migration state still reads through the *old* relation.
        assert_eq!(
            c.read_to_vec("/f", Some(t_before)).unwrap(),
            b"before migration"
        );
    }

    #[test]
    fn migration_aborts_atomically() {
        let fs = two_device_fs();
        let mut c = fs.client();
        c.write_all("/f", CreateMode::default(), b"stay put")
            .unwrap();
        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/f", None).unwrap();
        migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
        s.abort().unwrap();
        let stat = c.p_stat("/f", None).unwrap();
        assert_eq!(
            stat.device,
            DeviceId(0),
            "aborted migration must not move the file"
        );
        assert_eq!(c.read_to_vec("/f", None).unwrap(), b"stay put");
    }

    #[test]
    fn periodic_rule_migrates_cold_files() {
        let fs = two_device_fs();
        register_migration(&fs).unwrap();
        let mut c = fs.client();
        c.write_all("/cold", CreateMode::default(), &vec![1u8; 10_000])
            .unwrap();
        c.write_all("/read", CreateMode::default(), &vec![3u8; 10_000])
            .unwrap();
        fs.db().clock().advance(SimDuration::from_secs(100));
        c.write_all("/hot", CreateMode::default(), &vec![2u8; 10_000])
            .unwrap();
        // Only read since: its access time is pending, not in `fileatt`,
        // until the rule run writes it back.
        let fd = c.p_open("/read", crate::OpenMode::Read, None).unwrap();
        c.p_read(fd, &mut [0u8; 16]).unwrap();
        c.p_close(fd).unwrap();

        // Migrate files not accessed in the last 50 simulated seconds.
        let mut s = fs.db().begin().unwrap();
        let cutoff = fs.db().now().as_nanos() - SimDuration::from_secs(50).as_nanos();
        s.query(&format!(
            "define rule cold_to_jukebox on periodic to fileatt \
             where atime < {cutoff} and datarel != 0 do migrate(this.file, 1)"
        ))
        .unwrap();
        let run = run_migration_rules(&fs, &mut s).unwrap();
        s.commit().unwrap();
        assert_eq!(run.fired, vec![("cold_to_jukebox".to_string(), 1)]);

        assert_eq!(c.p_stat("/cold", None).unwrap().device, DeviceId(1));
        assert_eq!(c.p_stat("/hot", None).unwrap().device, DeviceId(0));
        assert_eq!(c.p_stat("/read", None).unwrap().device, DeviceId(0));
        assert_eq!(c.read_to_vec("/cold", None).unwrap(), vec![1u8; 10_000]);
    }
}
