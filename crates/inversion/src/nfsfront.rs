//! NFS access to Inversion — the paper's near-term plan, implemented.
//!
//! "In the near term, we plan to provide NFS access to Inversion. ... The
//! NFS protocol makes every operation an atomic transaction ... We are most
//! likely to follow the protocol specification, and to provide no
//! multi-operation transaction protection for Inversion files accessed via
//! NFS. Users who want the richer services may still link with the special
//! library, and users who simply want to list directory or file contents
//! will not need to concern themselves with transaction management."
//!
//! For time travel the paper points at 3DFS: "an NFS server could manage
//! time travel by extending the file system namespace and passing dates
//! along to the database system. This approach has been explored by
//! \[ROOM92\]." Here, suffixing any path's final component with `@<nanos>`
//! resolves it as of that simulated instant, read-only:
//!
//! ```text
//! /etc/passwd            the current file
//! /etc/passwd@150000000  the file as it was at t = 0.15 s
//! /etc@150000000         a directory listing from the past
//! ```
//!
//! File handles are `(oid, optional timestamp)` pairs — stateless, exactly
//! like inode-number NFS handles. Every mutating operation commits before
//! returning.

use minidb::{Oid, Snapshot};
use simdev::SimInstant;

use crate::api::{read_range, write_range};
use crate::fs::{CreateMode, FileKind, FileStat, InvError, InvResult, InversionFs};

/// A stateless NFS-style file handle: the file's oid plus the historical
/// instant it was resolved at (None = current).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NfsHandle {
    /// The file's object identifier.
    pub oid: Oid,
    /// Present for handles resolved through an `@<time>` path.
    pub as_of: Option<SimInstant>,
}

/// Attributes returned by `getattr`.
#[derive(Debug, Clone, PartialEq)]
pub struct NfsFattr {
    /// The handle these attributes describe.
    pub handle: NfsHandle,
    /// Size in bytes.
    pub size: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// Owner login.
    pub owner: String,
    /// Last modification time.
    pub mtime: SimInstant,
}

/// Splits a path's optional `@<nanos>` time-travel suffix.
pub fn split_time_suffix(path: &str) -> InvResult<(&str, Option<SimInstant>)> {
    let Some(at) = path.rfind('@') else {
        return Ok((path, None));
    };
    // Only the final component may carry a suffix.
    if path[at..].contains('/') {
        return Ok((path, None));
    }
    let nanos: u64 = path[at + 1..]
        .parse()
        .map_err(|_| InvError::BadPath(format!("{path}: bad @time suffix")))?;
    Ok((&path[..at], Some(SimInstant::from_nanos(nanos))))
}

/// The NFS-protocol front end over an [`InversionFs`].
pub struct NfsFront {
    fs: InversionFs,
}

impl NfsFront {
    /// Exports `fs` over the (simulated) NFS protocol.
    pub fn new(fs: &InversionFs) -> NfsFront {
        NfsFront { fs: fs.clone() }
    }

    fn attr_of(&self, stat: &FileStat, as_of: Option<SimInstant>) -> NfsFattr {
        NfsFattr {
            handle: NfsHandle {
                oid: stat.oid,
                as_of,
            },
            size: stat.size,
            is_dir: stat.kind == FileKind::Directory,
            owner: stat.owner.clone(),
            mtime: stat.mtime,
        }
    }

    fn stat_handle(&self, h: NfsHandle) -> InvResult<FileStat> {
        let mut s = self.fs.db().begin()?;
        let snap = h.as_of.map(Snapshot::AsOf);
        let stat = self.fs.stat_oid(&mut s, h.oid, snap.as_ref())?;
        s.commit()?;
        Ok(stat)
    }

    /// LOOKUP: resolves `path` (with optional `@<nanos>` suffix) to a handle.
    pub fn lookup(&self, path: &str) -> InvResult<NfsFattr> {
        let (path, as_of) = split_time_suffix(path)?;
        let mut s = self.fs.db().begin()?;
        let snap = as_of.map(Snapshot::AsOf);
        let oid = self.fs.resolve(&mut s, path, snap.as_ref())?;
        let stat = self.fs.stat_oid(&mut s, oid, snap.as_ref())?;
        s.commit()?;
        Ok(self.attr_of(&stat, as_of))
    }

    /// GETATTR.
    pub fn getattr(&self, h: NfsHandle) -> InvResult<NfsFattr> {
        let stat = self.stat_handle(h)?;
        Ok(self.attr_of(&stat, h.as_of))
    }

    /// READ: up to `len` bytes at `offset` (short at end of file).
    pub fn read(&self, h: NfsHandle, offset: u64, len: usize) -> InvResult<Vec<u8>> {
        let mut s = self.fs.db().begin()?;
        let snap = h.as_of.map(Snapshot::AsOf);
        let stat = self.fs.stat_oid(&mut s, h.oid, snap.as_ref())?;
        if stat.kind != FileKind::Regular {
            return Err(InvError::IsADirectory(format!("oid {}", h.oid)));
        }
        let len = (len as u64).min(stat.size.saturating_sub(offset)) as usize;
        let mut out = vec![0u8; len];
        read_range(&self.fs, &mut s, &stat, snap.as_ref(), offset, &mut out)?;
        s.commit()?;
        Ok(out)
    }

    /// WRITE: one atomic transaction per call, committed before returning —
    /// the NFS statelessness guarantee, by construction.
    pub fn write(&self, h: NfsHandle, offset: u64, data: &[u8]) -> InvResult<u32> {
        if h.as_of.is_some() {
            return Err(InvError::Invalid("historical handles are read-only".into()));
        }
        let mut s = self.fs.db().begin()?;
        write_range(&self.fs, &mut s, h.oid, offset, data)?;
        s.commit()?;
        Ok(data.len() as u32)
    }

    /// CREATE.
    pub fn create(&self, path: &str, mode: CreateMode) -> InvResult<NfsFattr> {
        let mut s = self.fs.db().begin()?;
        let stat = self.fs.create_file_at(&mut s, path, &mode)?;
        s.commit()?;
        Ok(self.attr_of(&stat, None))
    }

    /// MKDIR.
    pub fn mkdir(&self, path: &str) -> InvResult<NfsFattr> {
        let mut s = self.fs.db().begin()?;
        let oid = self.fs.mkdir_at(&mut s, path, "nfs")?;
        let stat = self.fs.stat_oid(&mut s, oid, None)?;
        s.commit()?;
        Ok(self.attr_of(&stat, None))
    }

    /// REMOVE / RMDIR.
    pub fn remove(&self, path: &str) -> InvResult<()> {
        let mut s = self.fs.db().begin()?;
        self.fs.unlink_at(&mut s, path)?;
        s.commit()?;
        Ok(())
    }

    /// RENAME.
    pub fn rename(&self, from: &str, to: &str) -> InvResult<()> {
        let mut s = self.fs.db().begin()?;
        self.fs.rename_at(&mut s, from, to)?;
        s.commit()?;
        Ok(())
    }

    /// READDIR: `ls(1)` through NFS works on historical paths too, which is
    /// the paper's whole pitch for the namespace extension.
    pub fn readdir(&self, path: &str) -> InvResult<Vec<(String, NfsHandle)>> {
        let (path, as_of) = split_time_suffix(path)?;
        let mut s = self.fs.db().begin()?;
        let snap = as_of.map(Snapshot::AsOf);
        let dir = self.fs.resolve(&mut s, path, snap.as_ref())?;
        let entries = self.fs.readdir(&mut s, dir, snap.as_ref())?;
        s.commit()?;
        Ok(entries
            .into_iter()
            .map(|(name, oid)| (name, NfsHandle { oid, as_of }))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::SimDuration;

    fn exported() -> (InversionFs, NfsFront) {
        let fs = InversionFs::open_in_memory().unwrap();
        let front = NfsFront::new(&fs);
        (fs, front)
    }

    #[test]
    fn split_time_suffix_parsing() {
        assert_eq!(split_time_suffix("/a/b").unwrap(), ("/a/b", None));
        assert_eq!(
            split_time_suffix("/a/b@123").unwrap(),
            ("/a/b", Some(SimInstant::from_nanos(123)))
        );
        // '@' in a non-final component is left alone.
        assert_eq!(split_time_suffix("/a@b/c").unwrap(), ("/a@b/c", None));
        assert!(split_time_suffix("/a/b@notanumber").is_err());
    }

    #[test]
    fn lookup_read_write_through_nfs() {
        let (_fs, nfs) = exported();
        let attr = nfs.create("/hello", CreateMode::default()).unwrap();
        assert_eq!(nfs.write(attr.handle, 0, b"hello nfs").unwrap(), 9);
        let found = nfs.lookup("/hello").unwrap();
        assert_eq!(found.size, 9);
        assert_eq!(nfs.read(found.handle, 0, 100).unwrap(), b"hello nfs");
        assert_eq!(nfs.read(found.handle, 6, 3).unwrap(), b"nfs");
        assert_eq!(nfs.read(found.handle, 100, 5).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn read_fetches_only_the_chunks_it_returns() {
        let (fs, nfs) = exported();
        let attr = nfs.create("/mb", CreateMode::default()).unwrap();
        let data: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
        nfs.write(attr.handle, 0, &data).unwrap();
        let before = fs.stats().chunk_reads.get();
        let at = 512 << 10;
        let got = nfs.read(attr.handle, at as u64, 8192).unwrap();
        assert_eq!(got, &data[at..at + 8192]);
        // 8 KB straddles at most two 8 128-byte chunks, wherever it starts.
        assert!(fs.stats().chunk_reads.get() - before <= 2);
    }

    #[test]
    fn every_nfs_write_is_atomic_and_durable() {
        // "The NFS protocol makes every operation an atomic transaction."
        let (fs, nfs) = exported();
        let attr = nfs.create("/f", CreateMode::default()).unwrap();
        nfs.write(attr.handle, 0, b"first").unwrap();
        // Visible to a plain library client immediately (already committed).
        let mut c = fs.client();
        assert_eq!(c.read_to_vec("/f", None).unwrap(), b"first");
    }

    #[test]
    fn time_travel_through_the_namespace() {
        let (fs, nfs) = exported();
        let attr = nfs.create("/report", CreateMode::default()).unwrap();
        nfs.write(attr.handle, 0, b"draft").unwrap();
        let t1 = fs.db().now().as_nanos();
        fs.db().clock().advance(SimDuration::from_secs(1));
        nfs.write(attr.handle, 0, b"FINAL").unwrap();

        // cat /report@t1 sees the draft; plain path sees the final copy.
        let old = nfs.lookup(&format!("/report@{t1}")).unwrap();
        assert_eq!(nfs.read(old.handle, 0, 10).unwrap(), b"draft");
        let new = nfs.lookup("/report").unwrap();
        assert_eq!(nfs.read(new.handle, 0, 10).unwrap(), b"FINAL");
        // Historical handles refuse writes.
        assert!(nfs.write(old.handle, 0, b"x").is_err());
    }

    #[test]
    fn historical_ls_through_nfs() {
        let (fs, nfs) = exported();
        nfs.mkdir("/dir").unwrap();
        nfs.create("/dir/ephemeral", CreateMode::default()).unwrap();
        let t_alive = fs.db().now().as_nanos();
        nfs.remove("/dir/ephemeral").unwrap();

        assert!(nfs.readdir("/dir").unwrap().is_empty());
        let then = nfs.readdir(&format!("/dir@{t_alive}")).unwrap();
        assert_eq!(then.len(), 1);
        assert_eq!(then[0].0, "ephemeral");
        // And the historical entry's handle reads the old file.
        assert!(nfs.getattr(then[0].1).is_ok());
    }

    #[test]
    fn rename_and_remove_via_nfs() {
        let (_fs, nfs) = exported();
        nfs.mkdir("/a").unwrap();
        nfs.create("/a/x", CreateMode::default()).unwrap();
        nfs.rename("/a/x", "/a/y").unwrap();
        assert!(nfs.lookup("/a/x").is_err());
        assert!(nfs.lookup("/a/y").is_ok());
        nfs.remove("/a/y").unwrap();
        assert!(nfs.lookup("/a/y").is_err());
    }

    #[test]
    fn nfs_and_library_clients_interleave() {
        // "Users who want the richer services may still link with the
        // special library" — both interfaces over one database.
        let (fs, nfs) = exported();
        let mut lib = fs.client();
        lib.p_begin().unwrap();
        let fd = lib.p_creat("/mixed", CreateMode::default()).unwrap();
        lib.p_write(fd, b"from library").unwrap();
        lib.p_close(fd).unwrap();
        lib.p_commit().unwrap();

        let attr = nfs.lookup("/mixed").unwrap();
        assert_eq!(nfs.read(attr.handle, 5, 7).unwrap(), b"library");
        nfs.write(attr.handle, 0, b"FROM").unwrap();
        assert_eq!(lib.read_to_vec("/mixed", None).unwrap(), b"FROM library");
    }

    #[test]
    fn directories_refuse_data_ops() {
        let (_fs, nfs) = exported();
        let d = nfs.mkdir("/d").unwrap();
        assert!(d.is_dir);
        assert!(nfs.read(d.handle, 0, 1).is_err());
        assert!(nfs.write(d.handle, 0, b"x").is_err());
    }
}
