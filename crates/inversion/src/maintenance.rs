//! Administrative maintenance: database-wide vacuuming — the periodic
//! sweep the paper's vacuum-cleaner process performed.
//!
//! There is no orphan collection: a `p_creat` creates its data relation in
//! the client's transaction, so an abort takes the relation back with the
//! rest. [`InversionFs::check`] asserts as much (`orphan-rel`).

use minidb::catalog::{Catalog, RelKind};
use minidb::vacuum::{vacuum, VacuumStats};
use minidb::{DeviceId, RelId};

use crate::fs::{InvResult, InversionFs};

/// Vacuums every user heap relation, one transaction each, archiving dead
/// versions onto `archive_dev`; returns per-relation statistics. Clients
/// keep working; system relations are left alone (see [`vacuum`]). The
/// sweep is also a write-back point for pending access times.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;
    use crate::migrate::migrate_file;
    use crate::OpenMode;

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
        assert_eq!(fs.check(), []);
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

        assert_eq!(fs.check(), [], "the old relation is history, not an orphan");
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
