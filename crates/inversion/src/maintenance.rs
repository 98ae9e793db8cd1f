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
    fn a_migrated_file_keeps_its_relation_and_leaves_the_old_device() {
        use minidb::smgr::DeviceManager;
        // Two devices so migration has somewhere to go.
        let clock = simdev::SimClock::new();
        let mk = |name: &str, blocks: u64| {
            minidb::shared_device(simdev::MagneticDisk::new(
                name,
                clock.clone(),
                simdev::DiskProfile::tiny_for_tests(blocks),
            ))
        };
        let (d0, d1) = (mk("d0", 1 << 14), mk("d1", 1 << 14));
        let mut smgr = minidb::Smgr::new();
        for (dev, disk) in [(0, &d0), (1, &d1)] {
            let mgr = minidb::GenericManager::format(disk.clone()).unwrap();
            smgr.register(DeviceId(dev), Box::new(mgr)).unwrap();
        }
        let (log, cat) = (mk("log", 1 << 10), mk("cat", 1 << 10));
        let db = minidb::Db::open(clock.clone(), smgr, log, cat, minidb::DbConfig::default()).unwrap();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/data", CreateMode::default(), b"payload").unwrap();
        let t_first = fs.db().now();
        c.p_begin().unwrap();
        let fd = c.p_open("/data", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"PAY").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let t_before = fs.db().now();
        let before = c.p_stat("/data", None).unwrap();
        let history = c.p_history("/data").unwrap();
        let storage = |rel| fs.db().catalog().relation(rel).unwrap().storage;
        let old = [storage(before.datarel), storage(before.chunkidx)];

        let mut s = fs.db().begin().unwrap();
        migrate_file(&fs, &mut s, before.oid, DeviceId(1)).unwrap();
        s.commit().unwrap();

        let after = c.p_stat("/data", None).unwrap();
        assert_eq!((after.device, after.datarel, after.chunkidx), (DeviceId(1), before.datarel, before.chunkidx));
        let cat = fs.db().catalog();
        for rel in [before.datarel, before.chunkidx] {
            assert_eq!(cat.relation(rel).unwrap().device, DeviceId(1), "{rel} moved");
        }
        let prefix = format!("inv{}_m", before.oid.0);
        assert!(!cat.relations().any(|r| r.name.starts_with(&prefix)), "no relation of its own");
        drop(cat);
        fs.db().checkpoint().unwrap();
        let on = |disk: &minidb::SharedDevice| minidb::GenericManager::attach(disk.clone()).unwrap().relations();
        assert!(!on(&d0).iter().any(|r| old.contains(r)), "the old storage left device 0");
        assert!(on(&d1).contains(&storage(before.datarel)));

        assert_eq!(c.read_to_vec("/data", None).unwrap(), b"PAYload");
        assert_eq!(c.read_to_vec("/data", Some(t_before)).unwrap(), b"PAYload");
        assert_eq!(c.read_to_vec("/data", Some(t_first)).unwrap(), b"payload", "the archive serves it");
        let sizes = |h: &[crate::api::FileVersion]| h.iter().map(|v| (v.committed_at, v.size)).collect::<Vec<_>>();
        let now = c.p_history("/data").unwrap();
        assert_eq!(sizes(&now[..history.len()]), sizes(&history), "one version more: the device's");
        assert_eq!(fs.check(), []);
        assert_eq!(fs.db().check_all(), []);
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
