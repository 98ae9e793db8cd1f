//! POSTGRES-style large objects ("BLOBs") backed by Inversion files.
//!
//! "POSTGRES supports large object storage by creating Inversion files to
//! store object data. ... The integration of large database objects with
//! Inversion means that two different clients can share data that they use
//! in different ways. The same Inversion file can be used by a database
//! application and by a file system client simultaneously."
//!
//! A [`LargeObject`] is a file with a `fileatt` row and data relation but no
//! directory entry; [`LargeObject::link`] grafts it into the namespace
//! afterwards, at which point ordinary `p_open`/`p_read` work on the *same*
//! data the query-language client manipulates.

use minidb::{Datum, Oid, Session};

use crate::api::{read_file_bytes, read_range, write_range};
use crate::fs::{file_fileatt_row, CreateMode, FileStat, InvError, InvResult, InversionFs};

/// A handle to a database large object.
#[derive(Clone)]
pub struct LargeObject {
    fs: InversionFs,
    oid: Oid,
}

impl LargeObject {
    /// Creates a new, anonymous large object.
    pub fn create(fs: &InversionFs, s: &mut Session, mode: &CreateMode) -> InvResult<LargeObject> {
        let oid = fs.db().alloc_oid()?;
        let (datarel, chunkidx) = fs.create_data_rel(s, oid, mode.device, mode.no_history)?;
        let now = fs.db().now();
        let row = file_fileatt_row(oid, mode, now, datarel, chunkidx);
        s.insert(fs.rels.fileatt, row)?;
        Ok(LargeObject {
            fs: fs.clone(),
            oid,
        })
    }

    /// Opens an existing large object (or any file) by oid.
    pub fn open(fs: &InversionFs, s: &mut Session, oid: Oid) -> InvResult<LargeObject> {
        fs.stat_oid(s, oid)?;
        Ok(LargeObject {
            fs: fs.clone(),
            oid,
        })
    }

    /// The object identifier.
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// Current attributes.
    pub fn stat(&self, s: &mut Session) -> InvResult<FileStat> {
        self.fs.stat_oid(s, self.oid)
    }

    /// Writes `data` at byte `offset`, growing the object as needed.
    pub fn write_at(&self, s: &mut Session, offset: u64, data: &[u8]) -> InvResult<()> {
        write_range(&self.fs, s, self.oid, offset, data)
    }

    /// Reads up to `len` bytes at `offset` (short at end of object).
    pub fn read_at(&self, s: &mut Session, offset: u64, len: usize) -> InvResult<Vec<u8>> {
        let stat = self.stat(s)?;
        let avail = stat.size.saturating_sub(offset);
        let len = (len as u64).min(avail) as usize;
        let mut out = vec![0u8; len];
        read_range(&self.fs, s, &stat, offset, &mut out)?;
        Ok(out)
    }

    /// The whole object's bytes.
    pub fn read_all(&self, s: &mut Session) -> InvResult<Vec<u8>> {
        let stat = self.stat(s)?;
        read_file_bytes(&self.fs, s, &stat)
    }

    /// Gives the object a pathname, making it visible to file system
    /// clients.
    pub fn link(&self, s: &mut Session, path: &str) -> InvResult<()> {
        let (parent, name) = self.fs.resolve_parent(s, path)?;
        if self.fs.lookup_child(s, parent, &name)?.is_some() {
            return Err(InvError::Exists(path.to_string()));
        }
        s.insert(
            self.fs.rels.naming,
            vec![
                Datum::Text(name),
                Datum::Oid(parent.0),
                Datum::Oid(self.oid.0),
            ],
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::OpenMode;
    use crate::chunk::CHUNK_SIZE;

    #[test]
    fn blob_write_read_roundtrip() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
        let data: Vec<u8> = (0..CHUNK_SIZE * 2 + 77).map(|i| (i % 255) as u8).collect();
        lo.write_at(&mut s, 0, &data).unwrap();
        assert_eq!(lo.read_all(&mut s).unwrap(), data);
        assert_eq!(lo.stat(&mut s).unwrap().size as usize, data.len());
        s.commit().unwrap();
    }

    #[test]
    fn random_access_read_write() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
        lo.write_at(&mut s, 10_000, b"hello").unwrap();
        assert_eq!(lo.read_at(&mut s, 10_000, 5).unwrap(), b"hello");
        assert_eq!(lo.read_at(&mut s, 0, 4).unwrap(), vec![0u8; 4]);
        assert_eq!(lo.read_at(&mut s, 10_003, 100).unwrap(), b"lo");
        assert_eq!(lo.read_at(&mut s, 999_999, 10).unwrap(), Vec::<u8>::new());
        s.commit().unwrap();
    }

    #[test]
    fn shared_between_database_and_file_clients() {
        // The paper's headline integration: one object, two interfaces.
        let fs = InversionFs::open_in_memory().unwrap();
        let oid;
        {
            let mut s = fs.db().begin().unwrap();
            let lo = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
            lo.write_at(&mut s, 0, b"written by the database client")
                .unwrap();
            lo.link(&mut s, "/shared.dat").unwrap();
            oid = lo.oid();
            s.commit().unwrap();
        }
        // File system client reads it by name...
        let mut c = fs.client();
        assert_eq!(
            c.read_to_vec("/shared.dat", None).unwrap(),
            b"written by the database client"
        );
        // ...and writes through p_write; the database client sees the change.
        c.p_begin().unwrap();
        let fd = c.p_open("/shared.dat", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"WRITTEN").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::open(&fs, &mut s, oid).unwrap();
        assert_eq!(&lo.read_at(&mut s, 0, 7).unwrap(), b"WRITTEN");
        s.commit().unwrap();
    }

    #[test]
    fn link_conflicts_rejected() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        let lo = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
        lo.link(&mut s, "/a").unwrap();
        let lo2 = LargeObject::create(&fs, &mut s, &CreateMode::default()).unwrap();
        assert!(matches!(lo2.link(&mut s, "/a"), Err(InvError::Exists(_))));
        s.commit().unwrap();
    }

    #[test]
    fn open_unknown_oid_fails() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        assert!(LargeObject::open(&fs, &mut s, Oid(999_999)).is_err());
        s.abort().unwrap();
    }
}
