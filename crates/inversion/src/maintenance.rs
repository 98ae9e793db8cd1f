//! Administrative maintenance: database-wide vacuuming — the periodic
//! sweep the paper's vacuum-cleaner process performed.
//!
//! There is no orphan collection: a `p_creat` creates its data relation in
//! the client's transaction, so an abort takes the relation back with the
//! rest. [`InversionFs::check`] asserts as much (`orphan-rel`).

use minidb::catalog::{Catalog, RelKind};
use minidb::vacuum::{vacuum, VacuumStats};
use minidb::{DbError, DeviceId, RelId};

use crate::fs::{InvResult, InversionFs};

/// What one [`vacuum_all`] sweep did, per relation by name.
#[derive(Debug, Default)]
pub struct VacuumReport {
    /// The relations vacuumed, with what each pass did.
    pub vacuumed: Vec<(String, VacuumStats)>,
    /// The relations whose pass failed, with the error. Their transaction
    /// aborted, so each is as it was before the sweep.
    pub failed: Vec<(String, DbError)>,
}

/// Vacuums every user heap relation in relation-id order, one transaction
/// each, archiving dead versions onto `archive_dev`. A relation whose pass
/// fails is reported and the sweep goes on. Clients keep working; system
/// relations are left alone (see [`vacuum`]). The sweep is also a
/// write-back point for pending access times.
pub fn vacuum_all(fs: &InversionFs, archive_dev: DeviceId) -> InvResult<VacuumReport> {
    fs.flush_atimes()?;
    let mut heaps: Vec<(RelId, String)> = fs
        .db()
        .catalog()
        .relations()
        .filter(|r| r.kind == RelKind::Heap && !r.name.ends_with(",arch"))
        .filter(|r| !Catalog::is_system(r.id))
        .map(|r| (r.id, r.name.clone()))
        .collect();
    heaps.sort_unstable();
    let mut report = VacuumReport::default();
    for (rel, name) in heaps {
        match vacuum(fs.db(), rel, archive_dev) {
            Ok(stats) => report.vacuumed.push((name, stats)),
            Err(e) => report.failed.push((name, e)),
        }
    }
    Ok(report)
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

    /// A file system on two data devices, the devices, and device 1's
    /// fault plan.
    fn two_device_fs() -> (InversionFs, [minidb::SharedDevice; 2], simdev::FaultPlan) {
        let clock = simdev::SimClock::new();
        let disk = |name: &str, blocks: u64| {
            simdev::MagneticDisk::new(name, clock.clone(), simdev::DiskProfile::tiny_for_tests(blocks))
        };
        let (d1, faults) = simdev::Faulty::new(disk("d1", 1 << 14));
        let (d0, d1) = (minidb::shared_device(disk("d0", 1 << 14)), minidb::shared_device(d1));
        let mut smgr = minidb::Smgr::new();
        for (dev, d) in [(0, &d0), (1, &d1)] {
            let mgr = minidb::GenericManager::format(d.clone()).unwrap();
            smgr.register(DeviceId(dev), Box::new(mgr)).unwrap();
        }
        let (log, cat) = (minidb::shared_device(disk("log", 1 << 10)), minidb::shared_device(disk("cat", 1 << 10)));
        let db = minidb::Db::open(clock.clone(), smgr, log, cat, minidb::DbConfig::default()).unwrap();
        (InversionFs::format(db).unwrap(), [d0, d1], faults)
    }

    /// Writes `path` on `device`, then overwrites it: one dead version.
    fn write_twice(fs: &InversionFs, path: &str, device: DeviceId) {
        let mut c = fs.client();
        c.write_all(path, CreateMode { device, ..CreateMode::default() }, b"v1").unwrap();
        c.p_begin().unwrap();
        let fd = c.p_open(path, OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"v2").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }

    #[test]
    fn vacuum_all_goes_on_past_a_relation_that_fails() {
        let (fs, _, faults) = two_device_fs();
        write_twice(&fs, "/far", DeviceId(1));
        write_twice(&fs, "/near", DeviceId::DEFAULT);
        let mut c = fs.client();
        let mut data = |path| {
            let rel = c.p_stat(path, None).unwrap().datarel;
            (rel, fs.db().catalog().relation(rel).unwrap().name.clone())
        };
        let ((far_rel, far), (near_rel, near)) = (data("/far"), data("/near"));
        assert!(far_rel < near_rel, "/far's relation comes first in the sweep");
        fs.db().flush_caches().unwrap();
        faults.set_offline(true);
        let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
        faults.set_offline(false);
        let failed: Vec<&str> = report.failed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(failed, [far.as_str()], "{:?}", report.failed);
        assert!(matches!(report.failed[0].1, minidb::DbError::Device(_)), "{:?}", report.failed);
        let (_, stats) = report.vacuumed.iter().find(|(n, _)| *n == near).expect("/near vacuumed");
        assert_eq!(stats.archived, 1, "the dead v1 chunk of /near was archived");
        for path in ["/far", "/near"] {
            assert_eq!(c.read_to_vec(path, None).unwrap(), b"v2");
        }
        assert_eq!(fs.check(), []);
        assert_eq!(fs.db().check_all(), []);
    }

    #[test]
    fn a_migrated_file_keeps_its_relation_and_leaves_the_old_device() {
        use minidb::smgr::DeviceManager;
        // Two devices so migration has somewhere to go.
        let (fs, [d0, d1], _) = two_device_fs();
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
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let report = report.vacuumed;
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
