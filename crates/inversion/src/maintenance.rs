//! Administrative maintenance: database-wide vacuuming and orphan
//! collection.
//!
//! Like POSTGRES, relation creation is not transactional. DDL is a logged
//! transaction on the system relations, but one *of its own*, committed
//! before the caller's: a `p_creat` whose transaction aborts leaves
//! invisible `naming`/`fileatt` rows (harmless) and an orphaned `inv<oid>`
//! data relation (leaked storage) with a perfectly good `pg_class` row.
//! [`collect_orphans`] is the garbage collector for the latter, and
//! [`vacuum_all`] runs the vacuum cleaner over every heap in the database —
//! the periodic sweep the paper's vacuum-cleaner process performed.

use std::collections::HashSet;

use minidb::catalog::{Catalog, RelKind};
use minidb::vacuum::{vacuum, VacuumStats};
use minidb::{DeviceId, RelId, Snapshot};

use crate::fs::{InvResult, InversionFs, A_CHUNKIDX, A_DATAREL};

/// Vacuums every user heap relation, archiving dead versions onto
/// `archive_dev`. Returns per-relation statistics. Requires a quiescent
/// system. The system relations are left alone: see [`vacuum`]. The sweep
/// is also a write-back point for pending access times.
pub fn vacuum_all(
    fs: &InversionFs,
    archive_dev: DeviceId,
) -> InvResult<Vec<(String, VacuumStats)>> {
    fs.flush_atimes()?;
    let heaps: Vec<(RelId, String)> = fs
        .db()
        .catalog()
        .relations()
        .filter(|r| r.kind == RelKind::Heap && !r.name.ends_with(",arch"))
        .filter(|r| !Catalog::is_system(r.id))
        .map(|r| (r.id, r.name.clone()))
        .collect();
    let mut out = Vec::with_capacity(heaps.len());
    for (rel, name) in heaps {
        let stats = vacuum(fs.db(), rel, archive_dev)?;
        out.push((name, stats));
    }
    Ok(out)
}

/// Finds and drops `inv*` data relations (and their chunk indices) that no
/// version of any `fileatt` row references — the debris of aborted creates.
///
/// Relations referenced by *historical* `fileatt` versions (e.g. the
/// pre-migration data relation of a migrated file) are kept: time travel
/// still needs them.
pub fn collect_orphans(fs: &InversionFs) -> InvResult<Vec<String>> {
    // Everything any fileatt version has ever referenced, dead or alive.
    let mut referenced: HashSet<u32> = HashSet::new();
    {
        let mut s = fs.db().begin()?;
        // Only versions whose inserter committed count as references; the
        // whole point is to discard what aborted transactions left behind.
        let rows = s.scan_committed_versions(fs.rels.fileatt)?;
        for row in rows {
            referenced.insert(row[A_DATAREL].as_oid()?);
            referenced.insert(row[A_CHUNKIDX].as_oid()?);
        }
        // Archived fileatt versions count too.
        let arch = fs.db().catalog().relation(fs.rels.fileatt)?.archive;
        if let Some(arch) = arch {
            let arows = s.scan_with_snapshot(arch, Some(&Snapshot::Dirty))?;
            for (_, row) in arows {
                let orig = minidb::decode_row(row[2].as_bytes()?)?;
                referenced.insert(orig[A_DATAREL].as_oid()?);
                referenced.insert(orig[A_CHUNKIDX].as_oid()?);
            }
        }
        s.commit()?;
    }

    // Candidate orphans: inv* heaps (their indices go with them).
    let victims: Vec<String> = fs
        .db()
        .catalog()
        .relations()
        .filter(|r| {
            r.kind == RelKind::Heap
                && r.name.starts_with("inv")
                && !r.name.ends_with(",arch")
                && !referenced.contains(&r.id.0)
        })
        .map(|r| r.name.clone())
        .collect();
    for name in &victims {
        fs.db().drop_relation(name)?;
    }
    Ok(victims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;
    use crate::migrate::migrate_file;
    use crate::OpenMode;

    #[test]
    fn aborted_create_leaves_orphan_which_is_collected() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.p_begin().unwrap();
        c.p_creat("/doomed", CreateMode::default()).unwrap();
        c.p_abort().unwrap();
        c.write_all("/kept", CreateMode::default(), b"stay")
            .unwrap();

        let victims = collect_orphans(&fs).unwrap();
        assert_eq!(victims.len(), 1, "exactly the aborted file's relation");
        assert!(victims[0].starts_with("inv"));
        // The live file is untouched.
        assert_eq!(c.read_to_vec("/kept", None).unwrap(), b"stay");
        // Idempotent.
        assert!(collect_orphans(&fs).unwrap().is_empty());
    }

    #[test]
    fn unlinked_files_are_not_orphans() {
        // Unlink hides the fileatt row but the *version* still references
        // the relation; history (and undelete) must keep working.
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/deleted", CreateMode::default(), b"bytes")
            .unwrap();
        let t_alive = fs.db().now();
        c.p_unlink("/deleted").unwrap();
        assert!(collect_orphans(&fs).unwrap().is_empty());
        c.p_undelete("/deleted", t_alive).unwrap();
        assert_eq!(c.read_to_vec("/deleted", None).unwrap(), b"bytes");
    }

    #[test]
    fn migrated_files_keep_their_old_relation() {
        // Two devices so migration has somewhere to go.
        let clock = simdev::SimClock::new();
        let mk = |name: &str, blocks: u64| {
            minidb::shared_device(simdev::MagneticDisk::new(
                name,
                clock.clone(),
                simdev::DiskProfile::tiny_for_tests(blocks),
            ))
        };
        let mut smgr = minidb::Smgr::new();
        smgr.register(
            DeviceId(0),
            Box::new(minidb::GenericManager::format(mk("d0", 1 << 14)).unwrap()),
        )
        .unwrap();
        smgr.register(
            DeviceId(1),
            Box::new(minidb::GenericManager::format(mk("d1", 1 << 14)).unwrap()),
        )
        .unwrap();
        let db = minidb::Db::open(
            clock.clone(),
            smgr,
            mk("log", 1 << 10),
            mk("cat", 1 << 10),
            minidb::DbConfig::default(),
        )
        .unwrap();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/data", CreateMode::default(), b"payload")
            .unwrap();
        let t_before = fs.db().now();
        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/data", None).unwrap();
        migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
        s.commit().unwrap();

        assert!(
            collect_orphans(&fs).unwrap().is_empty(),
            "old relation is history, not garbage"
        );
        assert_eq!(c.read_to_vec("/data", Some(t_before)).unwrap(), b"payload");
    }

    #[test]
    fn vacuum_all_sweeps_every_heap() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/f", CreateMode::default(), b"v1").unwrap();
        c.p_begin().unwrap();
        let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"v2").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
        // naming, fileatt, and the file's data relation were all swept.
        assert!(report.iter().any(|(n, _)| n == "naming"));
        assert!(report.iter().any(|(n, _)| n == "fileatt"));
        let data = report.iter().find(|(n, _)| n.starts_with("inv")).unwrap();
        assert_eq!(data.1.archived, 1, "the dead v1 chunk was archived");
        // fileatt had dead versions too (size/mtime updates).
        let fileatt = report.iter().find(|(n, _)| n == "fileatt").unwrap();
        assert!(fileatt.1.archived >= 1);
        // The file still reads correctly.
        assert_eq!(c.read_to_vec("/f", None).unwrap(), b"v2");
    }
}
