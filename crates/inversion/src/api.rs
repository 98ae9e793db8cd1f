//! The client interface: the paper's Figure 2 routines.
//!
//! ```text
//! int p_creat(char *path, int mode)
//! int p_open(char *fname, int mode, int timestamp)
//! int p_close(int fd)
//! int p_read(int fd, char *buf, int len)
//! int p_write(int fd, char *buf, int len)
//! int p_lseek(int fd, long offset_high, long offset_low, int whence)
//! p_begin() / p_commit() / p_abort()
//! ```
//!
//! Differences from UNIX, as the paper lists them: `p_open` takes a
//! timestamp ("the user may ask to see any historical state of the file
//! system"; historical files may not be opened for writing), `p_lseek`
//! takes a 64-bit offset (files may be 17.6 TB), and the create mode encodes
//! the device the file should live on. "Neither POSTGRES nor Inversion
//! supports nested transactions, so a single application program may only
//! have one transaction active at any time"; operations issued outside an
//! explicit transaction auto-commit individually.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use minidb::catalog::RelKind;
use minidb::checksum::checksum;
use minidb::{column_in_place, Datum, DatumRef, DbError, DbResult, Oid, RelId, Session, Tid};
use simdev::SimInstant;

use crate::chunk::{self, Coalescer};
use crate::compress;
use crate::fs::{
    stat_to_row, CreateMode, FileKind, FileStat, InvError, InvResult, InversionFs, SliceRange,
    ATIME_PENDING_MAX, A_ATIME, A_DATAREL, A_MTIME, A_SIZE,
};

/// A file descriptor.
pub type Fd = i32;

/// Open modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read only.
    Read,
    /// Read and write.
    ReadWrite,
}

/// `whence` values for [`InvClient::p_lseek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekWhence {
    /// From the start of the file.
    Set,
    /// From the current offset.
    Cur,
    /// From the end of the file.
    End,
}

/// Per-descriptor state.
struct FileState {
    stat: FileStat,
    mode: OpenMode,
    offset: u64,
    /// `Some` for historical opens: every read runs on a session of the
    /// past, as of this instant.
    asof: Option<SimInstant>,
    coalescer: Coalescer,
    meta_dirty: bool,
    accessed: bool,
    /// Set after an abort: the cached stat may reflect rolled-back state.
    stale: bool,
}

/// One application program's connection to an [`InversionFs`].
pub struct InvClient {
    fs: InversionFs,
    session: Option<Session>,
    fds: HashMap<Fd, FileState>,
    next_fd: Fd,
}

impl InvClient {
    pub(crate) fn new(fs: InversionFs) -> InvClient {
        InvClient {
            fs,
            session: None,
            fds: HashMap::new(),
            next_fd: 3,
        }
    }

    /// The file system this client talks to.
    pub fn fs(&self) -> &InversionFs {
        &self.fs
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.session.is_some()
    }

    /// Tears the client down after its connection vanished: any open
    /// transaction is aborted (releasing its locks), buffered writes are
    /// discarded, and every descriptor is reclaimed. Returns `true` when an
    /// in-flight transaction had to be aborted.
    pub fn disconnect(&mut self) -> bool {
        let aborted = match self.session.take() {
            Some(mut s) => {
                s.abort().ok();
                true
            }
            None => false,
        };
        self.fds.clear();
        aborted
    }

    /// Begins a transaction covering subsequent operations.
    pub fn p_begin(&mut self) -> InvResult<()> {
        if self.session.is_some() {
            return Err(InvError::Db(DbError::TransactionActive));
        }
        self.session = Some(self.fs.db().begin()?);
        Ok(())
    }

    /// Commits the open transaction: pending coalesced writes and metadata
    /// updates are flushed, then everything commits atomically.
    pub fn p_commit(&mut self) -> InvResult<()> {
        let Some(mut s) = self.session.take() else {
            return Err(InvError::Db(DbError::NoTransaction));
        };
        match flush_all(&self.fs, &mut s, &mut self.fds) {
            Ok(()) => {
                s.commit()?;
                Ok(())
            }
            Err(e) => {
                s.abort().ok();
                self.fds.values_mut().for_each(FileState::mark_stale);
                Err(e)
            }
        }
    }

    /// Aborts the open transaction; every change since [`InvClient::p_begin`]
    /// — data and metadata — vanishes. Buffered writes are discarded.
    pub fn p_abort(&mut self) -> InvResult<()> {
        let Some(mut s) = self.session.take() else {
            return Err(InvError::Db(DbError::NoTransaction));
        };
        s.abort()?;
        self.fds.values_mut().for_each(FileState::mark_stale);
        Ok(())
    }

    /// Runs `f` inside the open transaction, or inside a fresh auto-commit
    /// transaction when none is open. `fd` is the descriptor `f` works on,
    /// if any. An auto-commit transaction that fails marks only that one
    /// stale: every other descriptor was clean when it began, as the
    /// auto-commit op before it flushed them all.
    fn run<T>(
        &mut self,
        fd: Option<Fd>,
        f: impl FnOnce(&InversionFs, &mut Session, &mut HashMap<Fd, FileState>) -> InvResult<T>,
    ) -> InvResult<T> {
        if let Some(s) = self.session.as_mut() {
            return f(&self.fs, s, &mut self.fds);
        }
        let mut s = self.fs.db().begin()?;
        let out = f(&self.fs, &mut s, &mut self.fds).and_then(|v| {
            flush_all(&self.fs, &mut s, &mut self.fds)?;
            s.commit()?;
            Ok(v)
        });
        if out.is_err() {
            s.abort().ok(); // A failed commit has aborted already.
            if let Some(st) = fd.and_then(|fd| self.fds.get_mut(&fd)) {
                st.mark_stale();
            }
        }
        out
    }

    /// Runs `f` on a session of the past, reading the file system as of
    /// `t`: it starts no transaction and takes no lock, whether or not one
    /// is open. Without `t`, it is [`InvClient::run`].
    fn run_at<T>(
        &mut self,
        t: Option<SimInstant>,
        fd: Option<Fd>,
        f: impl FnOnce(&InversionFs, &mut Session, &mut HashMap<Fd, FileState>) -> InvResult<T>,
    ) -> InvResult<T> {
        match t {
            Some(t) => f(&self.fs, &mut self.fs.db().snapshot_at(t), &mut self.fds),
            None => self.run(fd, f),
        }
    }

    /// Creates a regular file and opens it read/write.
    ///
    /// The mode "encodes the device on which the file should reside", the
    /// owner, an optional registered file type, chunk compression, and the
    /// no-history flag.
    pub fn p_creat(&mut self, path: &str, mode: CreateMode) -> InvResult<Fd> {
        self.fs.stats.creats.bump();
        let fd = self.next_fd;
        self.next_fd += 1;
        let path = path.to_string();
        self.run(Some(fd), move |fs, s, fds| {
            let stat = fs.create_file_at(s, &path, &mode)?;
            let coalescer = Coalescer::new(stat.chunk_size());
            fds.insert(
                fd,
                FileState {
                    stat,
                    mode: OpenMode::ReadWrite,
                    offset: 0,
                    asof: None,
                    coalescer,
                    meta_dirty: false,
                    accessed: false,
                    stale: false,
                },
            );
            Ok(fd)
        })
    }

    /// Opens an existing file. With `timestamp`, opens its state as of that
    /// instant — read-only, per the paper.
    pub fn p_open(
        &mut self,
        path: &str,
        mode: OpenMode,
        timestamp: Option<SimInstant>,
    ) -> InvResult<Fd> {
        self.fs.stats.opens.bump();
        if timestamp.is_some() && mode != OpenMode::Read {
            return Err(InvError::Invalid(
                "historical files may not be opened for writing".into(),
            ));
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        let path = path.to_string();
        self.run_at(timestamp, Some(fd), move |fs, s, fds| {
            let oid = fs.resolve(s, &path)?;
            let stat = fs.stat_oid(s, oid)?;
            if stat.kind == FileKind::Directory {
                return Err(InvError::IsADirectory(path.clone()));
            }
            let coalescer = Coalescer::new(stat.chunk_size());
            fds.insert(
                fd,
                FileState {
                    stat,
                    mode,
                    offset: 0,
                    asof: timestamp,
                    coalescer,
                    meta_dirty: false,
                    accessed: false,
                    stale: false,
                },
            );
            Ok(fd)
        })
    }

    /// Closes a descriptor, flushing buffered writes and metadata. A
    /// descriptor that was only read owes the database nothing — its access
    /// time is written back lazily — so outside a transaction its close
    /// starts none.
    pub fn p_close(&mut self, fd: Fd) -> InvResult<()> {
        self.fs.stats.closes.bump();
        let st = self.fds.get(&fd).ok_or(InvError::BadFd(fd))?;
        let res = if st.coalescer.is_active() || st.meta_dirty {
            self.run(Some(fd), |fs, s, fds| flush_fd(fs, s, fds.get_mut(&fd).expect("checked above")))
        } else {
            Ok(())
        };
        // An access time alone never opens a write transaction: the mount
        // keeps it. (A failed flush marked the descriptor stale, and a
        // historical one never writes back: neither has one to keep.)
        if let Some(st) = self.fds.remove(&fd) {
            if st.accessed && st.asof.is_none() {
                self.fs.defer_atime(st.stat.oid);
            }
        }
        // The map's bound. Not inside an explicit transaction, whose own
        // session may hold the `fileatt` lock the write-back would wait for.
        if self.session.is_none() && self.fs.pending_atime_count() >= ATIME_PENDING_MAX {
            self.fs.flush_atimes()?;
        }
        res
    }

    /// Reads into `buf` at the current offset; returns bytes read (short at
    /// end of file). A historical descriptor reads on a session of the past.
    pub fn p_read(&mut self, fd: Fd, buf: &mut [u8]) -> InvResult<usize> {
        self.fs.stats.reads.bump();
        let asof = self.fds.get(&fd).ok_or(InvError::BadFd(fd))?.asof;
        self.run_at(asof, Some(fd), |fs, s, fds| {
            let st = fds.get_mut(&fd).ok_or(InvError::BadFd(fd))?;
            refresh_if_stale(fs, s, st)?;
            // The reader must see its own buffered writes.
            if st.coalescer.overlaps(st.offset, buf.len()) {
                flush_coalescer(fs, s, st)?;
            }
            let remaining = st.stat.size.saturating_sub(st.offset);
            let len = (buf.len() as u64).min(remaining) as usize;
            read_range(fs, s, &st.stat, st.offset, &mut buf[..len])?;
            st.offset += len as u64;
            st.accessed = true;
            fs.stats.bytes_read.add(len as u64);
            Ok(len)
        })
    }

    /// Writes `data` at the current offset; returns bytes written.
    ///
    /// "Multiple small sequential writes during a single transaction are
    /// coalesced to maximize the size of the chunk stored in each database
    /// record."
    pub fn p_write(&mut self, fd: Fd, data: &[u8]) -> InvResult<usize> {
        self.fs.stats.writes.bump();
        self.run(Some(fd), |fs, s, fds| {
            let st = fds.get_mut(&fd).ok_or(InvError::BadFd(fd))?;
            if st.mode != OpenMode::ReadWrite || st.asof.is_some() {
                return Err(InvError::ReadOnlyFd(fd));
            }
            refresh_if_stale(fs, s, st)?;
            let mut written = 0usize;
            while written < data.len() {
                let was_active = st.coalescer.is_active();
                let n = st
                    .coalescer
                    .absorb(st.offset + written as u64, &data[written..]);
                if n == 0 {
                    flush_coalescer(fs, s, st)?;
                    continue;
                }
                if was_active {
                    fs.stats.chunks_coalesced.bump();
                }
                written += n;
                // Full chunk: flush eagerly so the buffer stays one chunk.
                if let Some((_, start, bytes)) = st.coalescer.pending() {
                    if start + bytes.len() == st.stat.chunk_size() {
                        flush_coalescer(fs, s, st)?;
                    }
                }
            }
            st.offset += data.len() as u64;
            st.stat.size = st.stat.size.max(st.offset);
            st.meta_dirty = true;
            fs.stats.bytes_written.add(data.len() as u64);
            Ok(data.len())
        })
    }

    /// Repositions the file offset. 64-bit offsets replace the paper's
    /// `offset_high`/`offset_low` pair.
    pub fn p_lseek(&mut self, fd: Fd, offset: i64, whence: SeekWhence) -> InvResult<u64> {
        self.fs.stats.seeks.bump();
        let st = self.fds.get_mut(&fd).ok_or(InvError::BadFd(fd))?;
        let base = match whence {
            SeekWhence::Set => 0i64,
            SeekWhence::Cur => st.offset as i64,
            SeekWhence::End => st.stat.size as i64,
        };
        let target = base
            .checked_add(offset)
            .filter(|t| *t >= 0)
            .ok_or_else(|| {
                InvError::Invalid(format!("seek to negative or overflowing offset {offset}"))
            })?;
        st.offset = target as u64;
        Ok(st.offset)
    }

    /// Truncates an open descriptor's file to `len` bytes. Like every other
    /// update this is no-overwrite: removed chunks become dead versions and
    /// remain reachable through time travel.
    pub fn p_ftruncate(&mut self, fd: Fd, len: u64) -> InvResult<()> {
        self.run(Some(fd), |fs, s, fds| {
            let st = fds.get_mut(&fd).ok_or(InvError::BadFd(fd))?;
            if st.mode != OpenMode::ReadWrite || st.asof.is_some() {
                return Err(InvError::ReadOnlyFd(fd));
            }
            refresh_if_stale(fs, s, st)?;
            flush_coalescer(fs, s, st)?;
            if len >= st.stat.size {
                if len > st.stat.size {
                    st.stat.size = len; // Grow: a hole appears at the end.
                    st.meta_dirty = true;
                }
                return Ok(());
            }
            let size = st.stat.chunk_size() as u64;
            let keep_chunks = len.div_ceil(size) as u32;
            // Delete whole chunks beyond the new end.
            let victims = s.index_range_tids(
                st.stat.chunkidx,
                Some(&[Datum::Int4(keep_chunks as i32)]),
                None,
            )?;
            for tid in victims {
                s.delete(st.stat.datarel, tid)?;
            }
            // Trim the final partial chunk, if any.
            let tail = (len % size) as usize;
            if tail > 0 {
                let last = ((len - 1) / size) as u32;
                if let Some(content) = fetch_chunk(fs, s, &st.stat, last)? {
                    if content.len() > tail {
                        write_chunk_exact(fs, s, &st.stat, last, &content[..tail])?;
                    }
                }
            }
            st.stat.size = len;
            st.meta_dirty = true;
            st.offset = st.offset.min(len);
            Ok(())
        })
    }

    /// Stats an open descriptor (reflects buffered writes).
    pub fn p_fstat(&mut self, fd: Fd) -> InvResult<FileStat> {
        self.fs.stats.stat_calls.bump();
        let st = self.fds.get(&fd).ok_or(InvError::BadFd(fd))?;
        Ok(st.stat.clone())
    }

    /// Stats a path, optionally as of a past instant.
    pub fn p_stat(&mut self, path: &str, timestamp: Option<SimInstant>) -> InvResult<FileStat> {
        self.fs.stats.stat_calls.bump();
        let path = path.to_string();
        self.run_at(timestamp, None, move |fs, s, _| {
            let oid = fs.resolve(s, &path)?;
            fs.stat_oid(s, oid)
        })
    }

    /// Creates a directory.
    pub fn p_mkdir(&mut self, path: &str) -> InvResult<Oid> {
        self.fs.stats.mkdirs.bump();
        let path = path.to_string();
        self.run(None, move |fs, s, _| fs.mkdir_at(s, &path, "root"))
    }

    /// Lists a directory, optionally as of a past instant.
    pub fn p_readdir(
        &mut self,
        path: &str,
        timestamp: Option<SimInstant>,
    ) -> InvResult<Vec<(String, Oid)>> {
        self.fs.stats.readdirs.bump();
        let path = path.to_string();
        self.run_at(timestamp, None, move |fs, s, _| {
            let dir = fs.resolve(s, &path)?;
            fs.readdir(s, dir)
        })
    }

    /// Removes a name (directories must be empty). The data remain
    /// reachable through time travel; see [`InvClient::p_undelete`].
    pub fn p_unlink(&mut self, path: &str) -> InvResult<()> {
        self.fs.stats.unlinks.bump();
        let path = path.to_string();
        self.run(None, move |fs, s, _| fs.unlink_at(s, &path))
    }

    /// Renames a file or directory.
    pub fn p_rename(&mut self, from: &str, to: &str) -> InvResult<()> {
        self.fs.stats.renames.bump();
        let from = from.to_string();
        let to = to.to_string();
        self.run(None, move |fs, s, _| fs.rename_at(s, &from, &to))
    }

    /// Resurrects `path` exactly as it was at `t` — name, attributes, and
    /// contents. "The ability to see all of history can be important; for
    /// example, it allows users to undelete files removed accidentally."
    pub fn p_undelete(&mut self, path: &str, t: SimInstant) -> InvResult<()> {
        let path = path.to_string();
        self.run(None, move |fs, s, _| {
            let (parent, name) = fs.resolve_parent(s, &path)?;
            if !fs.name_free_for_write(s, parent, &name)? {
                return Err(InvError::Exists(path.clone()));
            }
            // `naming` is ours exclusively from here on: the entry stays free
            // for the inserts below.
            let mut then = fs.db().snapshot_at(t);
            let oid = fs.resolve(&mut then, &path)?;
            let stat_then = fs.stat_oid(&mut then, oid)?;
            if stat_then.kind == FileKind::Directory {
                // Directories: restore the entry only.
                s.insert(
                    fs.rels.naming,
                    vec![Datum::Text(name), Datum::Oid(parent.0), Datum::Oid(oid.0)],
                )?;
                s.insert(fs.rels.fileatt, stat_to_row(&stat_then))?;
                return Ok(());
            }
            // Restore the content to its state at `t`.
            let bytes_then = read_file_bytes(fs, &mut then, &stat_then)?;
            let size = stat_then.chunk_size();
            let nchunks = bytes_then.len().div_ceil(size) as u32;
            for (chunkno, _, take) in chunk::split_range(size, 0, bytes_then.len()) {
                let startb = chunkno as usize * size;
                write_chunk_exact(
                    fs,
                    s,
                    &stat_then,
                    chunkno,
                    &bytes_then[startb..startb + take],
                )?;
            }
            // Delete any current chunks past the restored length.
            let victims = s.index_range_tids(
                stat_then.chunkidx,
                Some(&[Datum::Int4(nchunks as i32)]),
                None,
            )?;
            for tid in victims {
                s.delete(stat_then.datarel, tid)?;
            }
            // Restore the namespace entries.
            s.insert(
                fs.rels.naming,
                vec![Datum::Text(name), Datum::Oid(parent.0), Datum::Oid(oid.0)],
            )?;
            // A migration since `t` moved the data relation, not renamed it.
            let device = fs.db().catalog().relation(stat_then.datarel)?.device;
            s.insert(fs.rels.fileatt, stat_to_row(&FileStat { device, ..stat_then }))?;
            Ok(())
        })
    }

    /// Composes a new file at `dest` from byte ranges of existing files
    /// (WTF-style slicing). Because file data are ordinary `(chunkno, data)`
    /// rows, a range that covers a whole chunk and lands chunk-aligned in
    /// the destination is *shared*: the stored row is copied between chunk
    /// tables verbatim — no decompression, no re-encoding, no byte copy —
    /// and the `chunks_shared` counter in `inv_stat` proves it. Unaligned
    /// remainders fall back to ordinary read-modify-write copies.
    ///
    /// Rows of self-identifying files embed their file oid and chunk
    /// number, so they can never be shared; such ranges always copy.
    /// Ranges must lie inside their source file (`offset + len <= size`).
    pub fn p_slice(
        &mut self,
        dest: &str,
        mode: CreateMode,
        ranges: &[SliceRange],
    ) -> InvResult<FileStat> {
        self.fs.stats.slices.bump();
        let dest = dest.to_string();
        let ranges = ranges.to_vec();
        self.run(None, move |fs, s, _| {
            // Validate every source up front so a bad range cannot leave a
            // half-composed destination inside an explicit transaction.
            let mut srcs = Vec::with_capacity(ranges.len());
            for r in &ranges {
                let oid = fs.resolve(s, &r.path)?;
                let src = fs.stat_oid(s, oid)?;
                if src.kind != FileKind::Regular {
                    return Err(InvError::IsADirectory(r.path.clone()));
                }
                let end = r.offset.checked_add(r.len).ok_or_else(|| {
                    InvError::Invalid(format!("slice range overflows: {}+{}", r.offset, r.len))
                })?;
                if end > src.size {
                    return Err(InvError::Invalid(format!(
                        "slice range {}..{end} exceeds {} ({} bytes)",
                        r.offset, r.path, src.size
                    )));
                }
                srcs.push(src);
            }
            let dst = fs.create_file_at(s, &dest, &mode)?;
            let mut dest_off: u64 = 0;
            for (r, src) in ranges.iter().zip(&srcs) {
                // Self-identifying rows embed (oid, chunkno): they only
                // verify in their original position. Compression must match
                // or the stored encoding (and the chunk size) differs
                // between the two tables.
                let shareable = !src.self_identifying
                    && !dst.self_identifying
                    && src.compressed == dst.compressed;
                let (size, dsize) = (src.chunk_size(), dst.chunk_size());
                for (chunkno, start, take) in chunk::split_range(size, r.offset, r.len as usize) {
                    let aligned =
                        start == 0 && take == size && dest_off.is_multiple_of(size as u64);
                    if shareable && aligned {
                        // Zero-copy: move the stored row as-is. A missing
                        // source row is a hole, which stays a hole.
                        let key = [Datum::Int4(chunkno as i32)];
                        if let Some((_, row)) = s.index_lookup_unique(src.chunkidx, &key)? {
                            let raw = row[1].as_bytes()?.to_vec();
                            let dchunk = (dest_off / dsize as u64) as u32;
                            s.insert(
                                dst.datarel,
                                vec![Datum::Int4(dchunk as i32), Datum::Bytes(raw)],
                            )?;
                            fs.stats.chunks_shared.bump();
                        }
                    } else {
                        let mut piece = vec![0u8; take];
                        let at = chunkno as u64 * size as u64 + start as u64;
                        read_range(fs, s, src, at, &mut piece)?;
                        let mut done = 0usize;
                        for (dchunk, dstart, dtake) in chunk::split_range(dsize, dest_off, take) {
                            write_chunk(fs, s, &dst, dchunk, dstart, &piece[done..done + dtake])?;
                            done += dtake;
                        }
                    }
                    dest_off += take as u64;
                }
            }
            // Record the composed size.
            let now = fs.db().now();
            fs.update_fileatt(s, dst.oid, |row| {
                row[A_SIZE] = Datum::Int8(dest_off as i64);
                row[A_MTIME] = Datum::Time(now.as_nanos());
            })?;
            let mut out = dst;
            out.size = dest_off;
            out.mtime = now;
            Ok(out)
        })
    }

    /// Reads a whole file into memory (convenience; used by registered file
    /// functions and tests).
    pub fn read_to_vec(&mut self, path: &str, timestamp: Option<SimInstant>) -> InvResult<Vec<u8>> {
        let path = path.to_string();
        self.run_at(timestamp, None, move |fs, s, _| {
            let oid = fs.resolve(s, &path)?;
            let stat = fs.stat_oid(s, oid)?;
            read_file_bytes(fs, s, &stat)
        })
    }

    /// Creates and writes a whole file in one call, atomically: either the
    /// complete file exists or nothing does (convenience).
    pub fn write_all(&mut self, path: &str, mode: CreateMode, data: &[u8]) -> InvResult<()> {
        let explicit = self.in_transaction();
        if !explicit {
            self.p_begin()?;
        }
        let body = (|| {
            let fd = self.p_creat(path, mode)?;
            self.p_write(fd, data)?;
            self.p_close(fd)
        })();
        if !explicit {
            match body {
                Ok(()) => self.p_commit()?,
                Err(e) => {
                    self.p_abort().ok();
                    return Err(e);
                }
            }
        } else {
            body?;
        }
        Ok(())
    }
}

impl Drop for InvClient {
    fn drop(&mut self) {
        if let Some(mut s) = self.session.take() {
            s.abort().ok();
        }
    }
}

impl FileState {
    /// Forgets what an abort took back: buffered writes, dirty metadata and
    /// the access. The stat is read again at the descriptor's next use.
    fn mark_stale(&mut self) {
        self.coalescer.take();
        self.meta_dirty = false;
        self.accessed = false;
        self.stale = true;
    }
}

fn refresh_if_stale(fs: &InversionFs, s: &mut Session, st: &mut FileState) -> InvResult<()> {
    if st.stale {
        st.stat = fs.stat_oid(s, st.stat.oid)?;
        st.stale = false;
    }
    Ok(())
}

/// Flushes one descriptor's buffered chunk and metadata into the session.
/// A pure access-time change is not among them: like contemporary UNIX
/// systems, Inversion defers it to close rather than forcing a metadata
/// write per read, and — like `lazytime` — the close only notes the time.
fn flush_fd(fs: &InversionFs, s: &mut Session, st: &mut FileState) -> InvResult<()> {
    flush_coalescer(fs, s, st)?;
    flush_meta(fs, s, st)
}

/// Flushes every descriptor (transaction boundary).
fn flush_all(fs: &InversionFs, s: &mut Session, fds: &mut HashMap<Fd, FileState>) -> InvResult<()> {
    for st in fds.values_mut() {
        flush_fd(fs, s, st)?;
    }
    Ok(())
}

fn flush_coalescer(fs: &InversionFs, s: &mut Session, st: &mut FileState) -> InvResult<()> {
    if let Some((chunkno, start, bytes)) = st.coalescer.take() {
        fs.stats.coalesce_flushes.bump();
        write_chunk(fs, s, &st.stat, chunkno, start, &bytes)?;
    }
    Ok(())
}

/// Writes metadata (size, mtime, atime) if a write changed it.
fn flush_meta(fs: &InversionFs, s: &mut Session, st: &mut FileState) -> InvResult<()> {
    if !st.meta_dirty {
        return Ok(());
    }
    let now = fs.db().now();
    fs.update_fileatt(s, st.stat.oid, |row| {
        row[A_SIZE] = Datum::Int8(st.stat.size as i64);
        row[A_MTIME] = Datum::Time(now.as_nanos());
        row[A_ATIME] = Datum::Time(now.as_nanos());
    })?;
    st.stat.mtime = now;
    st.stat.atime = now;
    st.meta_dirty = false;
    st.accessed = false;
    Ok(())
}

/// Fetches one chunk's (decompressed) content: one index probe. The
/// per-chunk reference [`read_range`] agrees with.
pub fn fetch_chunk(
    fs: &InversionFs,
    s: &mut Session,
    stat: &FileStat,
    chunkno: u32,
) -> InvResult<Option<Vec<u8>>> {
    fs.stats.chunk_reads.bump();
    let key = [Datum::Int4(chunkno as i32)];
    let hit = s.index_lookup_unique_in_place(stat.chunkidx, &key, |row| {
        Ok(chunk_content(stat, chunkno, row)?.into_owned())
    })?;
    Ok(hit.map(|(_, content)| content))
}

/// Fills `buf` with the file's bytes from `offset` on. The caller clamps
/// the range to the file; holes, and whatever a short stored chunk does not
/// cover (sparse writes produce both), read as zeros.
///
/// Each chunk's bytes are copied once, from its heap page straight into
/// `buf` (a compressed chunk is decompressed from them). For a session of
/// the present one walk of the chunk index covers the whole range, and a
/// chunk it does not visit is a hole. A session of the past probes each
/// chunk's key instead: only a point probe also searches the archive the
/// vacuum cleaner moved old versions to.
pub fn read_range(
    fs: &InversionFs,
    s: &mut Session,
    stat: &FileStat,
    offset: u64,
    buf: &mut [u8],
) -> InvResult<()> {
    if buf.is_empty() {
        return Ok(());
    }
    let size = stat.chunk_size() as u64;
    let end = offset + buf.len() as u64;
    let (first, last) = (offset / size, (end - 1) / size);
    fs.stats.chunk_reads.add(last - first + 1);
    // Where chunk `c`'s bytes go in `buf`, and where in the chunk they start.
    let place = |c: u64| {
        let (lo, hi) = ((c * size).max(offset), ((c + 1) * size).min(end));
        ((lo - offset) as usize..(hi - offset) as usize, (lo - c * size) as usize)
    };
    if s.as_of().is_some() {
        for c in first..=last {
            let (at, start) = place(c);
            let dst = &mut buf[at];
            let key = [Datum::Int4(c as i32)];
            let hit = s.index_lookup_unique_in_place(stat.chunkidx, &key, |row| {
                copy_chunk(stat, c as u32, row, start, dst)
            })?;
            if hit.is_none() {
                dst.fill(0);
            }
        }
        return Ok(());
    }
    // The walk yields each chunk at most once, in chunk order.
    let mut filled = 0;
    let (lo, hi) = ([Datum::Int4(first as i32)], [Datum::Int4(last as i32)]);
    s.index_scan_range_in_place(stat.chunkidx, Some(&lo), Some(&hi), |row| {
        let DatumRef::Int4(c) = column_in_place(row, 0)? else {
            return Err(DbError::Corrupt(format!("file {}: a chunk number is not int4", stat.oid)));
        };
        let c = c as u32;
        let stray = || {
            let what = format!("file {}: the chunk index yielded chunk {c} out of order", stat.oid);
            Err(DbError::Corrupt(what))
        };
        if !(first..=last).contains(&u64::from(c)) {
            return stray();
        }
        let (at, start) = place(u64::from(c));
        if at.start < filled {
            return stray();
        }
        buf[filled..at.start].fill(0);
        copy_chunk(stat, c, row, start, &mut buf[at.clone()])?;
        filled = at.end;
        Ok(true)
    })?;
    buf[filled..].fill(0);
    Ok(())
}

/// Copies chunk `chunkno`'s content from byte `start` on into `dst`,
/// straight from its stored row `row` (in place); what the stored chunk
/// does not cover reads as zeros.
fn copy_chunk(
    stat: &FileStat,
    chunkno: u32,
    row: &[u8],
    start: usize,
    dst: &mut [u8],
) -> DbResult<()> {
    let content = chunk_content(stat, chunkno, row)?;
    let src = content.get(start..).unwrap_or_default();
    let have = src.len().min(dst.len());
    dst[..have].copy_from_slice(&src[..have]);
    dst[have..].fill(0);
    Ok(())
}

/// Self-identifying tag: magic, file oid, chunk number, payload
/// [`checksum`].
const SELF_ID_MAGIC: u32 = 0x1253_4944; // "\x12SID"
pub(crate) const SELF_ID_LEN: usize = 16;

fn tag_chunk(stat: &FileStat, chunkno: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SELF_ID_LEN + payload.len());
    out.extend_from_slice(&SELF_ID_MAGIC.to_le_bytes());
    out.extend_from_slice(&stat.oid.0.to_le_bytes());
    out.extend_from_slice(&chunkno.to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips a self-identifying tag. "Every block could be tagged
/// with its file identifier and block number" — plus a checksum, so garbage
/// written by failing hardware is detected instead of returned.
fn untag_chunk<'a>(stat: &FileStat, chunkno: u32, raw: &'a [u8]) -> DbResult<&'a [u8]> {
    let corrupt = |what: &str| {
        DbError::Corrupt(format!(
            "self-identifying check failed for file {} chunk {chunkno}: {what}",
            stat.oid
        ))
    };
    if raw.len() < SELF_ID_LEN {
        return Err(corrupt("tag truncated"));
    }
    let magic = u32::from_le_bytes(raw[0..4].try_into().unwrap());
    let oid = u32::from_le_bytes(raw[4..8].try_into().unwrap());
    let stored_chunk = u32::from_le_bytes(raw[8..12].try_into().unwrap());
    let sum = u32::from_le_bytes(raw[12..16].try_into().unwrap());
    if magic != SELF_ID_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if oid != stat.oid.0 {
        return Err(corrupt("block belongs to another file"));
    }
    if stored_chunk != chunkno {
        return Err(corrupt("block is a different chunk"));
    }
    let payload = &raw[SELF_ID_LEN..];
    if checksum(payload) != sum {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// A chunk's content from its stored bytes: the tag checked and stripped,
/// a compressed chunk decompressed. Borrowed unless decompressed.
fn unpack_chunk<'a>(stat: &FileStat, chunkno: u32, mut raw: &'a [u8]) -> DbResult<Cow<'a, [u8]>> {
    if stat.self_identifying {
        raw = untag_chunk(stat, chunkno, raw)?;
    }
    if !stat.compressed {
        return Ok(Cow::Borrowed(raw));
    }
    compress::decompress(raw)
        .map(Cow::Owned)
        .ok_or_else(|| DbError::Corrupt("bad compressed chunk".into()))
}

/// [`unpack_chunk`] of a chunk row handed over in place.
fn chunk_content<'a>(stat: &FileStat, chunkno: u32, row: &'a [u8]) -> DbResult<Cow<'a, [u8]>> {
    let DatumRef::Bytes(raw) = column_in_place(row, 1)? else {
        return Err(DbError::Corrupt(format!(
            "file {} chunk {chunkno}: content is not bytes",
            stat.oid
        )));
    };
    unpack_chunk(stat, chunkno, raw)
}

/// Read-modify-writes a byte range within one chunk.
pub(crate) fn write_chunk(
    fs: &InversionFs,
    s: &mut Session,
    stat: &FileStat,
    chunkno: u32,
    start: usize,
    data: &[u8],
) -> InvResult<()> {
    if start == 0 && data.len() == stat.chunk_size() {
        // Nothing of the stored chunk survives: it need not be read.
        return write_chunk_exact(fs, s, stat, chunkno, data);
    }
    let key = [Datum::Int4(chunkno as i32)];
    let hit = s.index_lookup_unique_in_place(stat.chunkidx, &key, |row| {
        Ok(chunk_content(stat, chunkno, row)?.into_owned())
    })?;
    let (tid, mut content) = hit.map_or((None, Vec::new()), |(tid, c)| (Some(tid), c));
    if content.len() < start + data.len() {
        content.resize(start + data.len(), 0);
    }
    content[start..start + data.len()].copy_from_slice(data);
    store_chunk(fs, s, stat, chunkno, tid, content)
}

/// Writes `data` at byte `offset` of regular file `oid` and grows the file
/// to cover it — the whole of a large-object write and of an NFS WRITE,
/// which have no descriptor to buffer in.
pub(crate) fn write_range(
    fs: &InversionFs,
    s: &mut Session,
    oid: Oid,
    offset: u64,
    data: &[u8],
) -> InvResult<()> {
    // Ahead of the stat's shared lock; see `update_fileatt`.
    s.lock_exclusive(fs.rels.fileatt)?;
    let stat = fs.stat_oid(s, oid)?;
    if stat.kind != FileKind::Regular {
        return Err(InvError::IsADirectory(format!("oid {oid}")));
    }
    let mut pos = 0usize;
    for (chunkno, start, take) in chunk::split_range(stat.chunk_size(), offset, data.len()) {
        write_chunk(fs, s, &stat, chunkno, start, &data[pos..pos + take])?;
        pos += take;
    }
    let new_size = stat.size.max(offset + data.len() as u64);
    let now = fs.db().now();
    fs.update_fileatt(s, oid, |row| {
        row[A_SIZE] = Datum::Int8(new_size as i64);
        row[A_MTIME] = Datum::Time(now.as_nanos());
    })
}

/// Replaces one chunk's content exactly (truncating semantics).
pub(crate) fn write_chunk_exact(
    fs: &InversionFs,
    s: &mut Session,
    stat: &FileStat,
    chunkno: u32,
    content: &[u8],
) -> InvResult<()> {
    let key = [Datum::Int4(chunkno as i32)];
    let tid = s.index_lookup_unique_tid(stat.chunkidx, &key)?;
    store_chunk(fs, s, stat, chunkno, tid, content.to_vec())
}

fn store_chunk(
    fs: &InversionFs,
    s: &mut Session,
    stat: &FileStat,
    chunkno: u32,
    tid: Option<Tid>,
    content: Vec<u8>,
) -> InvResult<()> {
    fs.stats.chunk_writes.bump();
    let mut stored = if stat.compressed {
        compress::compress(&content)
    } else {
        content
    };
    if stat.self_identifying {
        stored = tag_chunk(stat, chunkno, &stored);
    }
    let row = vec![Datum::Int4(chunkno as i32), Datum::Bytes(stored)];
    match tid {
        Some(tid) => {
            s.update(stat.datarel, tid, row)?;
        }
        None => {
            s.insert(stat.datarel, row)?;
        }
    }
    Ok(())
}

impl InversionFs {
    /// Reads a whole file's bytes by oid within an existing session — the
    /// path registered file functions use to inspect file contents *inside*
    /// the data manager.
    pub fn read_file(&self, s: &mut Session, oid: Oid) -> InvResult<Vec<u8>> {
        let stat = self.stat_oid(s, oid)?;
        if stat.kind != FileKind::Regular {
            return Err(InvError::IsADirectory(format!("oid {oid}")));
        }
        read_file_bytes(self, s, &stat)
    }
}

/// Reads an entire file's bytes.
pub(crate) fn read_file_bytes(fs: &InversionFs, s: &mut Session, stat: &FileStat) -> InvResult<Vec<u8>> {
    let size = stat.size as usize;
    let mut out = vec![0u8; size];
    read_range(fs, s, stat, 0, &mut out)?;
    Ok(out)
}

impl InversionFs {
    /// Inversion-level structural verification, layered on top of
    /// `minidb`'s `Db::check_all`: audits the chunk-table shape of every
    /// regular file.
    ///
    /// Checked per file: the chunk relation is readable, every chunk row
    /// decodes (self-identifying tag and compression included), chunk
    /// numbers are unique and inside `0..ceil(size / chunk size)`, no chunk
    /// is longer than [`FileStat::chunk_size`], and no chunk extends past the
    /// size recorded in `fileatt`. Sparse files are legal — a seek past EOF
    /// plus a write leaves holes, which readers fill with zeros — so chunk
    /// *density* is deliberately not required. Checked across files:
    /// `orphan-rel`, every `inv*` heap is named by a committed `fileatt`
    /// version.
    pub fn check(&self) -> Vec<minidb::Finding> {
        use minidb::Finding;
        let mut out = Vec::new();
        let mut s = match self.db().begin() {
            Ok(s) => s,
            Err(e) => {
                out.push(Finding::new("inversion", "check-error", e.to_string()));
                return out;
            }
        };
        let files = match s.seq_scan(self.rels.fileatt) {
            Ok(rows) => rows,
            Err(e) => {
                out.push(Finding::new("fileatt", "check-error", e.to_string()));
                s.abort().ok();
                return out;
            }
        };
        for (_, row) in files {
            let stat = match InversionFs::stat_from_row(&row) {
                Ok(st) => st,
                Err(e) => {
                    out.push(Finding::new("fileatt", "fileatt-undecodable", e.to_string()));
                    continue;
                }
            };
            if stat.kind != FileKind::Regular {
                continue;
            }
            let name = format!("inv{}", stat.oid.0);
            let chunks = match s.seq_scan(stat.datarel) {
                Ok(rows) => rows,
                Err(e) => {
                    out.push(Finding::new(
                        &name,
                        "chunk-table-missing",
                        format!("file {}: {e}", stat.oid),
                    ));
                    continue;
                }
            };
            let size = stat.chunk_size();
            let nchunks = stat.size.div_ceil(size as u64);
            let mut seen = HashMap::new();
            for (tid, crow) in chunks {
                let chunkno = match crow.first().map(|d| d.as_int()) {
                    Some(Ok(n)) => n,
                    _ => {
                        out.push(
                            Finding::new(&name, "chunk-row-shape", "chunkno is not an integer")
                                .on_page(tid.blkno as u64)
                                .on_slot(tid.slot),
                        );
                        continue;
                    }
                };
                if chunkno < 0 || chunkno as u64 >= nchunks {
                    out.push(
                        Finding::new(
                            &name,
                            "chunk-out-of-range",
                            format!(
                                "chunk {chunkno} outside 0..{nchunks} for a {}-byte file",
                                stat.size
                            ),
                        )
                        .on_page(tid.blkno as u64)
                        .on_slot(tid.slot),
                    );
                    continue;
                }
                if let Some(prev) = seen.insert(chunkno, tid) {
                    out.push(
                        Finding::new(
                            &name,
                            "chunk-duplicate",
                            format!("chunk {chunkno} stored twice (also at {prev:?})"),
                        )
                        .on_page(tid.blkno as u64)
                        .on_slot(tid.slot),
                    );
                }
                let raw = crow[1].as_bytes();
                match raw.and_then(|raw| unpack_chunk(&stat, chunkno as u32, raw)) {
                    Ok(content) => {
                        if content.len() > size {
                            out.push(
                                Finding::new(
                                    &name,
                                    "chunk-oversize",
                                    format!("chunk {chunkno} is {} bytes", content.len()),
                                )
                                .on_page(tid.blkno as u64)
                                .on_slot(tid.slot),
                            );
                        }
                        let extent = chunkno as u64 * size as u64 + content.len() as u64;
                        if extent > stat.size {
                            out.push(
                                Finding::new(
                                    &name,
                                    "chunk-beyond-eof",
                                    format!(
                                        "chunk {chunkno} ends at byte {extent}, file size is {}",
                                        stat.size
                                    ),
                                )
                                .on_page(tid.blkno as u64)
                                .on_slot(tid.slot),
                            );
                        }
                    }
                    Err(e) => {
                        out.push(
                            Finding::new(&name, "chunk-undecodable", e.to_string())
                                .on_page(tid.blkno as u64)
                                .on_slot(tid.slot),
                        );
                    }
                }
            }
        }
        match self.orphan_rels(&mut s) {
            Ok(found) => out.extend(found),
            Err(e) => out.push(Finding::new("fileatt", "check-error", e.to_string())),
        }
        s.abort().ok();
        out
    }

    /// Rule `orphan-rel`: every `inv*` heap in the catalog is named by a
    /// committed `fileatt` version — live, dead or archived, since history
    /// still reads an unlinked file's data. A relation a running
    /// transaction creates or drops is exempt. Any other is storage that no
    /// file will ever reach. The caller holds `fileatt`'s shared lock, so no
    /// creator commits a row while this runs.
    fn orphan_rels(&self, s: &mut Session) -> InvResult<Vec<minidb::Finding>> {
        let versions = s.scan_version_history(self.rels.fileatt)?;
        let named: HashSet<u32> =
            versions.iter().map(|(_, _, v)| v[A_DATAREL].as_oid()).collect::<Result<_, _>>()?;
        let unnamed: Vec<(RelId, String)> = self
            .db()
            .catalog()
            .relations()
            .filter(|r| r.kind == RelKind::Heap && r.name.starts_with("inv"))
            .filter(|r| !r.name.ends_with(",arch") && !named.contains(&r.id.0))
            .map(|r| (r.id, r.name.clone()))
            .collect();
        let mut out = Vec::new();
        for (id, rel_name) in unnamed {
            // An aborting creator takes the relation out of the catalog
            // before it releases the relation's lock.
            if !self.db().ddl_in_flight(id) && self.db().catalog().relation(id).is_ok() {
                let detail = format!("relation {id} is named by no committed fileatt version");
                out.push(minidb::Finding::new(rel_name, "orphan-rel", detail));
            }
        }
        Ok(out)
    }
}

/// One recorded version of a file's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileVersion {
    /// When this version became visible (its transaction's commit time).
    pub committed_at: SimInstant,
    /// When it was superseded or deleted (`None` = current).
    pub superseded_at: Option<SimInstant>,
    /// The file size this version recorded.
    pub size: u64,
}

impl InvClient {
    /// Lists every committed metadata version of `path`, oldest first — a
    /// revision log recovered purely from the no-overwrite storage manager
    /// ("a superset of the services offered by revision control programs
    /// like rcs(1)"). Pass any `committed_at` to [`InvClient::p_open`] as
    /// the timestamp to check that revision out. Committed history is the
    /// past, so the listing runs on a session of the present moment: it
    /// starts no transaction, takes no lock and waits on no writer.
    pub fn p_history(&mut self, path: &str) -> InvResult<Vec<FileVersion>> {
        let path = path.to_string();
        let now = self.fs.db().now();
        self.run_at(Some(now), None, move |fs, s, _| {
            // Resolve at any time the file existed: current first, else
            // search all committed naming versions for the path.
            let oid = match fs.resolve(s, &path) {
                Ok(oid) => oid,
                Err(_) => {
                    // Walk history: of the files this directory entry
                    // named, the one that held it last.
                    let (parent, name) = fs
                        .resolve_parent(s, &path)
                        .map_err(|_| InvError::NoSuchPath(path.clone()))?;
                    let mut last: Option<(SimInstant, u32)> = None;
                    for (t0, t1, row) in s.scan_version_history(fs.rels.naming)? {
                        // A zero-length lifetime was never visible.
                        if t1 == Some(t0)
                            || !row[crate::fs::N_FILENAME]
                                .as_text()
                                .is_ok_and(|n| n == name)
                            || row[crate::fs::N_PARENTID].as_oid()? != parent.0
                        {
                            continue;
                        }
                        if last.is_none_or(|(at, _)| t0 >= at) {
                            last = Some((t0, row[crate::fs::N_FILE].as_oid()?));
                        }
                    }
                    let (_, file) = last.ok_or_else(|| InvError::NoSuchPath(path.clone()))?;
                    Oid(file)
                }
            };
            let mut out = Vec::new();
            for (t0, t1, row) in s.scan_version_history(fs.rels.fileatt)? {
                if row[crate::fs::A_FILE].as_oid()? != oid.0 {
                    continue;
                }
                // Zero-length lifetimes (inserted and superseded by the
                // same transaction) were never visible to anyone.
                if t1 == Some(t0) {
                    continue;
                }
                out.push(FileVersion {
                    committed_at: t0,
                    superseded_at: t1,
                    size: row[A_SIZE].as_int()?.max(0) as u64,
                });
            }
            out.sort_by_key(|v| v.committed_at);
            Ok(out)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chunk::CHUNK_SIZE;
    use minidb::catalog::PG_CLASS;
    use minidb::DeviceId;

    fn fs_client() -> (InversionFs, InvClient) {
        let fs = InversionFs::open_in_memory().unwrap();
        let c = fs.client();
        (fs, c)
    }

    /// Nothing of a file relation is left: no `inv*` entry in the catalog
    /// cache, no `pg_class` row naming one that is visible or committed,
    /// and — `check_all`'s `device-orphan-rel` — no relation on a device
    /// that the cache lacks.
    pub(crate) fn assert_no_file_relations(fs: &InversionFs) {
        let cat = fs.db().catalog();
        let cached: Vec<&str> =
            cat.relations().map(|r| r.name.as_str()).filter(|n| n.starts_with("inv")).collect();
        assert_eq!(cached, Vec::<&str>::new(), "catalog cache entries");
        drop(cat);
        let mut s = fs.db().begin().unwrap();
        let visible: Vec<_> = s.seq_scan(PG_CLASS).unwrap().into_iter().map(|(_, r)| r).collect();
        let history = s.scan_version_history(PG_CLASS).unwrap();
        let committed: Vec<_> = history.into_iter().map(|(_, _, row)| row).collect();
        s.commit().unwrap();
        for row in visible.iter().chain(&committed) {
            let name = row[1].as_text().unwrap();
            assert!(!name.starts_with("inv"), "a pg_class row names {name}");
        }
        assert_eq!(fs.db().check_all(), []);
        assert_eq!(fs.check(), []);
    }

    #[test]
    fn an_aborted_creat_leaves_no_relation() {
        let (fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/doomed", CreateMode::default()).unwrap();
        c.p_write(fd, &vec![3u8; CHUNK_SIZE + 1]).unwrap();
        c.p_close(fd).unwrap();
        assert!(fs.db().catalog().relations().any(|r| r.name.starts_with("inv")));
        c.p_abort().unwrap();
        assert_no_file_relations(&fs);
        assert!(c.p_stat("/doomed", None).is_err());
        // The path is free again.
        c.write_all("/doomed", CreateMode::default(), b"second try").unwrap();
        assert_eq!(c.read_to_vec("/doomed", None).unwrap(), b"second try");
    }

    #[test]
    fn a_failed_auto_commit_creat_leaves_no_relation() {
        let (fs, mut c) = fs_client();
        // No page holds this `fileatt` row. Its insert fails after the data
        // relation was created, and the auto-commit transaction aborts.
        let mode = CreateMode::default().owned_by("o".repeat(9000));
        assert!(c.p_creat("/too_big", mode).is_err());
        assert_no_file_relations(&fs);
    }

    #[test]
    fn fs_check_finds_a_relation_no_file_names() {
        let (fs, mut c) = fs_client();
        c.write_all("/kept", CreateMode::default(), b"stay").unwrap();
        let schema = minidb::Schema::new([("chunkno", minidb::TypeId::INT4)]);
        // While its creating transaction runs, a relation is exempt.
        let mut s = fs.db().begin().unwrap();
        s.create_table_on("inv998", schema.clone(), DeviceId::DEFAULT, false).unwrap();
        assert_eq!(fs.check(), []);
        s.abort().unwrap();
        fs.db().create_table_on("inv999", schema, DeviceId::DEFAULT, false).unwrap();
        let found: Vec<(String, String)> =
            fs.check().into_iter().map(|f| (f.code, f.relation)).collect();
        assert_eq!(found, [("orphan-rel".into(), "inv999".into())]);
    }

    #[test]
    fn fs_check_clean_after_varied_workload() {
        let (fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/plain", CreateMode::default()).unwrap();
        c.p_write(fd, &vec![7u8; 2 * CHUNK_SIZE + 99]).unwrap();
        c.p_close(fd).unwrap();
        let fd = c
            .p_creat("/tagged", CreateMode::default().self_identifying().compressed())
            .unwrap();
        c.p_write(fd, b"squeezed and tagged").unwrap();
        c.p_close(fd).unwrap();
        // Sparse file: seek far past EOF, then write — holes are legal.
        let fd = c.p_creat("/sparse", CreateMode::default()).unwrap();
        c.p_lseek(fd, (4 * CHUNK_SIZE) as i64, SeekWhence::Set).unwrap();
        c.p_write(fd, b"tail").unwrap();
        // Truncate trims the tail chunk.
        c.p_ftruncate(fd, (4 * CHUNK_SIZE + 2) as u64).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        assert_eq!(fs.check(), vec![]);
        assert_eq!(fs.db().check_all(), vec![]);
    }

    #[test]
    fn fs_check_detects_out_of_range_chunk() {
        let (fs, mut c) = fs_client();
        c.write_all("/f", CreateMode::default(), b"one chunk only").unwrap();
        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/f").unwrap();
        let stat = fs.stat_oid(&mut s, oid).unwrap();
        s.insert(
            stat.datarel,
            vec![Datum::Int4(99), Datum::Bytes(b"stray".to_vec())],
        )
        .unwrap();
        s.commit().unwrap();
        let findings = fs.check();
        assert!(
            findings.iter().any(|f| f.code == "chunk-out-of-range"),
            "{findings:?}"
        );
    }

    #[test]
    fn fs_check_detects_corrupt_self_id_tag() {
        let (fs, mut c) = fs_client();
        c.write_all("/t", CreateMode::default().self_identifying(), b"guarded")
            .unwrap();
        let mut s = fs.db().begin().unwrap();
        let oid = fs.resolve(&mut s, "/t").unwrap();
        let stat = fs.stat_oid(&mut s, oid).unwrap();
        let (tid, row) = s.seq_scan(stat.datarel).unwrap().remove(0);
        let mut raw = row[1].as_bytes().unwrap().to_vec();
        raw[0] ^= 0xFF; // Break the tag magic.
        s.update(stat.datarel, tid, vec![row[0].clone(), Datum::Bytes(raw)])
            .unwrap();
        s.commit().unwrap();
        let findings = fs.check();
        assert!(
            findings.iter().any(|f| f.code == "chunk-undecodable"),
            "{findings:?}"
        );
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i % 251) as u8 ^ salt)
            .collect()
    }

    #[test]
    fn slice_aligned_ranges_share_rows_without_copying() {
        let (fs, mut c) = fs_client();
        let data = pattern(3 * CHUNK_SIZE, 0);
        c.write_all("/a", CreateMode::default(), &data).unwrap();

        let writes_before = fs.stats().chunk_writes.get();
        let shared_before = fs.stats().chunks_shared.get();
        let stat = c
            .p_slice(
                "/b",
                CreateMode::default(),
                &[SliceRange::new("/a", 0, 3 * CHUNK_SIZE as u64)],
            )
            .unwrap();
        assert_eq!(stat.size, 3 * CHUNK_SIZE as u64);
        assert_eq!(c.read_to_vec("/b", None).unwrap(), data);
        // All three chunks were shared; no chunk payload was re-stored.
        assert_eq!(fs.stats().chunks_shared.get(), shared_before + 3);
        assert_eq!(fs.stats().chunk_writes.get(), writes_before);
        assert_eq!(fs.stats().slices.get(), 1);
        assert_eq!(fs.check(), vec![]);
        assert_eq!(fs.db().check_all(), vec![]);
    }

    #[test]
    fn slice_unaligned_ranges_fall_back_to_copies() {
        let (fs, mut c) = fs_client();
        let data = pattern(2 * CHUNK_SIZE, 1);
        c.write_all("/a", CreateMode::default(), &data).unwrap();

        let shared_before = fs.stats().chunks_shared.get();
        let half = CHUNK_SIZE as u64 / 2;
        c.p_slice(
            "/b",
            CreateMode::default(),
            &[SliceRange::new("/a", half, CHUNK_SIZE as u64)],
        )
        .unwrap();
        let want = &data[half as usize..half as usize + CHUNK_SIZE];
        assert_eq!(c.read_to_vec("/b", None).unwrap(), want);
        assert_eq!(fs.stats().chunks_shared.get(), shared_before);
        assert_eq!(fs.check(), vec![]);
    }

    #[test]
    fn slice_composes_from_multiple_sources() {
        let (fs, mut c) = fs_client();
        let a = pattern(2 * CHUNK_SIZE + 100, 2);
        let b = pattern(CHUNK_SIZE + 7, 3);
        c.write_all("/a", CreateMode::default(), &a).unwrap();
        c.write_all("/b", CreateMode::default(), &b).unwrap();

        // Whole /a (aligned head shares, 100-byte tail copies), then an
        // unaligned middle of /b.
        let stat = c
            .p_slice(
                "/cat",
                CreateMode::default(),
                &[
                    SliceRange::new("/a", 0, a.len() as u64),
                    SliceRange::new("/b", 5, 1000),
                ],
            )
            .unwrap();
        let mut want = a.clone();
        want.extend_from_slice(&b[5..1005]);
        assert_eq!(stat.size as usize, want.len());
        assert_eq!(c.read_to_vec("/cat", None).unwrap(), want);
        assert!(fs.stats().chunks_shared.get() >= 2);
        assert_eq!(fs.check(), vec![]);
        assert_eq!(fs.db().check_all(), vec![]);
    }

    #[test]
    fn slice_never_shares_self_identifying_rows() {
        let (fs, mut c) = fs_client();
        let data = pattern(CHUNK_SIZE, 4);
        c.write_all("/tagged", CreateMode::default().self_identifying(), &data)
            .unwrap();
        let shared_before = fs.stats().chunks_shared.get();
        c.p_slice(
            "/copy",
            CreateMode::default(),
            &[SliceRange::new("/tagged", 0, CHUNK_SIZE as u64)],
        )
        .unwrap();
        // Tagged rows embed (oid, chunkno): sharing would fail the tag
        // check in the destination, so the range must copy.
        assert_eq!(fs.stats().chunks_shared.get(), shared_before);
        assert_eq!(c.read_to_vec("/copy", None).unwrap(), data);
        assert_eq!(fs.check(), vec![]);
    }

    #[test]
    fn slice_shares_compressed_rows_between_compressed_files() {
        let (fs, mut c) = fs_client();
        // Highly compressible content so the stored row differs from raw.
        let data = vec![9u8; 2 * CHUNK_SIZE];
        c.write_all("/z", CreateMode::default().compressed(), &data)
            .unwrap();
        let shared_before = fs.stats().chunks_shared.get();
        c.p_slice(
            "/z2",
            CreateMode::default().compressed(),
            &[SliceRange::new("/z", 0, 2 * CHUNK_SIZE as u64)],
        )
        .unwrap();
        assert_eq!(fs.stats().chunks_shared.get(), shared_before + 2);
        assert_eq!(c.read_to_vec("/z2", None).unwrap(), data);
        assert_eq!(fs.check(), vec![]);

        // Mismatched compression must copy, not share.
        c.p_slice(
            "/z3",
            CreateMode::default(),
            &[SliceRange::new("/z", 0, 2 * CHUNK_SIZE as u64)],
        )
        .unwrap();
        assert_eq!(fs.stats().chunks_shared.get(), shared_before + 2);
        assert_eq!(c.read_to_vec("/z3", None).unwrap(), data);
        assert_eq!(fs.check(), vec![]);
    }

    #[test]
    fn slice_preserves_source_holes() {
        let (fs, mut c) = fs_client();
        // Sparse source: chunk 0 is a hole, chunk 1 has data.
        c.p_begin().unwrap();
        let fd = c.p_creat("/sparse", CreateMode::default()).unwrap();
        c.p_lseek(fd, CHUNK_SIZE as i64, SeekWhence::Set).unwrap();
        c.p_write(fd, &vec![5u8; CHUNK_SIZE]).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        c.p_slice(
            "/s2",
            CreateMode::default(),
            &[SliceRange::new("/sparse", 0, 2 * CHUNK_SIZE as u64)],
        )
        .unwrap();
        let mut want = vec![0u8; CHUNK_SIZE];
        want.extend_from_slice(&vec![5u8; CHUNK_SIZE]);
        assert_eq!(c.read_to_vec("/s2", None).unwrap(), want);
        assert_eq!(fs.check(), vec![]);
    }

    #[test]
    fn slice_rejects_out_of_range_and_bad_sources() {
        let (_fs, mut c) = fs_client();
        c.write_all("/a", CreateMode::default(), b"short").unwrap();
        c.p_mkdir("/d").unwrap();
        let err = c
            .p_slice(
                "/b",
                CreateMode::default(),
                &[SliceRange::new("/a", 0, 6)],
            )
            .unwrap_err();
        assert!(matches!(err, InvError::Invalid(_)), "{err}");
        // A failed slice must not leave the destination behind.
        assert!(matches!(
            c.p_stat("/b", None),
            Err(InvError::NoSuchPath(_))
        ));
        let err = c
            .p_slice(
                "/b",
                CreateMode::default(),
                &[SliceRange::new("/d", 0, 0)],
            )
            .unwrap_err();
        assert!(matches!(err, InvError::IsADirectory(_)), "{err}");
        let err = c
            .p_slice(
                "/b",
                CreateMode::default(),
                &[SliceRange::new("/missing", 0, 1)],
            )
            .unwrap_err();
        assert!(matches!(err, InvError::NoSuchPath(_)), "{err}");
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (_fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/hello.txt", CreateMode::default()).unwrap();
        assert_eq!(c.p_write(fd, b"hello, inversion").unwrap(), 16);
        c.p_lseek(fd, 0, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 32];
        let n = c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello, inversion");
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }

    #[test]
    fn multi_chunk_file_roundtrip() {
        let (_fs, mut c) = fs_client();
        let data: Vec<u8> = (0..3 * CHUNK_SIZE + 1234)
            .map(|i| (i % 251) as u8)
            .collect();
        c.p_begin().unwrap();
        let fd = c.p_creat("/big", CreateMode::default()).unwrap();
        c.p_write(fd, &data).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        assert_eq!(c.read_to_vec("/big", None).unwrap(), data);
        let stat = c.p_stat("/big", None).unwrap();
        assert_eq!(stat.size as usize, data.len());
    }

    #[test]
    fn small_writes_coalesce_into_page_sized_chunks() {
        let (fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/coalesced", CreateMode::default()).unwrap();
        // 1024 writes of 16 bytes = 2 chunks worth.
        for i in 0..1024u32 {
            let b = [(i % 251) as u8; 16];
            c.p_write(fd, &b).unwrap();
        }
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        // The file table must hold ~3 records, not 1024.
        let stat = c.p_stat("/coalesced", None).unwrap();
        let mut s = fs.db().begin().unwrap();
        let nrows = s.seq_scan(stat.datarel).unwrap().len();
        s.commit().unwrap();
        assert_eq!(nrows, (16 * 1024usize).div_ceil(CHUNK_SIZE));
    }

    #[test]
    fn overwrite_middle_of_file() {
        let (_fs, mut c) = fs_client();
        let base = vec![b'a'; 2 * CHUNK_SIZE];
        c.write_all("/f", CreateMode::default(), &base).unwrap();
        c.p_begin().unwrap();
        let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
        c.p_lseek(fd, (CHUNK_SIZE - 2) as i64, SeekWhence::Set)
            .unwrap();
        c.p_write(fd, b"XXXX").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        let out = c.read_to_vec("/f", None).unwrap();
        assert_eq!(out.len(), base.len());
        assert_eq!(&out[CHUNK_SIZE - 2..CHUNK_SIZE + 2], b"XXXX");
        assert_eq!(out[CHUNK_SIZE - 3], b'a');
        assert_eq!(out[CHUNK_SIZE + 2], b'a');
    }

    #[test]
    fn sparse_write_reads_zeros_in_gap() {
        let (_fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/sparse", CreateMode::default()).unwrap();
        c.p_lseek(fd, (5 * CHUNK_SIZE + 17) as i64, SeekWhence::Set)
            .unwrap();
        c.p_write(fd, b"end").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        let out = c.read_to_vec("/sparse", None).unwrap();
        assert_eq!(out.len(), 5 * CHUNK_SIZE + 20);
        assert!(out[..5 * CHUNK_SIZE + 17].iter().all(|&b| b == 0));
        assert_eq!(&out[5 * CHUNK_SIZE + 17..], b"end");
    }

    #[test]
    fn read_sees_own_buffered_writes() {
        let (_fs, mut c) = fs_client();
        c.p_begin().unwrap();
        let fd = c.p_creat("/rw", CreateMode::default()).unwrap();
        c.p_write(fd, b"buffered").unwrap();
        // Seek back and read before any flush happened.
        c.p_lseek(fd, 0, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 8];
        c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"buffered");
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }

    #[test]
    fn abort_rolls_back_data_and_metadata() {
        let (_fs, mut c) = fs_client();
        c.write_all("/f", CreateMode::default(), b"v1").unwrap();

        c.p_begin().unwrap();
        let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
        c.p_lseek(fd, 0, SeekWhence::End).unwrap();
        c.p_write(fd, b" plus uncommitted").unwrap();
        c.p_abort().unwrap();

        assert_eq!(c.read_to_vec("/f", None).unwrap(), b"v1");
        assert_eq!(c.p_stat("/f", None).unwrap().size, 2);
        // The fd is stale but usable: size must reflect the rollback.
        c.p_begin().unwrap();
        let mut buf = [0u8; 32];
        c.p_lseek(fd, 0, SeekWhence::Set).unwrap();
        let n = c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"v1");
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }

    #[test]
    fn multi_file_transaction_is_atomic() {
        // "programmers ... may need to check in several fixed source code
        // files at the same time."
        let (_fs, mut c) = fs_client();
        c.write_all("/a.c", CreateMode::default(), b"int a;")
            .unwrap();
        c.write_all("/b.c", CreateMode::default(), b"int b;")
            .unwrap();

        c.p_begin().unwrap();
        let fa = c.p_open("/a.c", OpenMode::ReadWrite, None).unwrap();
        let fb = c.p_open("/b.c", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fa, b"int a2;").unwrap();
        c.p_write(fb, b"int b2;").unwrap();
        c.p_close(fa).unwrap();
        c.p_close(fb).unwrap();
        c.p_abort().unwrap();
        assert_eq!(c.read_to_vec("/a.c", None).unwrap(), b"int a;");
        assert_eq!(c.read_to_vec("/b.c", None).unwrap(), b"int b;");

        c.p_begin().unwrap();
        let fa = c.p_open("/a.c", OpenMode::ReadWrite, None).unwrap();
        let fb = c.p_open("/b.c", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fa, b"int a2;").unwrap();
        c.p_write(fb, b"int b2;").unwrap();
        c.p_close(fa).unwrap();
        c.p_close(fb).unwrap();
        c.p_commit().unwrap();
        assert_eq!(c.read_to_vec("/a.c", None).unwrap(), b"int a2;");
        assert_eq!(c.read_to_vec("/b.c", None).unwrap(), b"int b2;");
    }

    #[test]
    fn time_travel_open_sees_old_contents() {
        let (fs, mut c) = fs_client();
        c.write_all("/history", CreateMode::default(), b"version one")
            .unwrap();
        let t1 = fs.db().now();
        c.p_begin().unwrap();
        let fd = c.p_open("/history", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"VERSION TWO").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();

        assert_eq!(c.read_to_vec("/history", None).unwrap(), b"VERSION TWO");
        assert_eq!(c.read_to_vec("/history", Some(t1)).unwrap(), b"version one");

        // Historical fds refuse writes.
        let fd = c.p_open("/history", OpenMode::Read, Some(t1)).unwrap();
        assert!(c.p_write(fd, b"x").is_err());
        c.p_close(fd).unwrap();
        assert!(c.p_open("/history", OpenMode::ReadWrite, Some(t1)).is_err());
    }

    #[test]
    fn undelete_restores_name_and_contents() {
        let (fs, mut c) = fs_client();
        let data: Vec<u8> = (0..CHUNK_SIZE + 500).map(|i| (i % 13) as u8).collect();
        c.write_all("/precious", CreateMode::default(), &data)
            .unwrap();
        let t_alive = fs.db().now();

        // Mutate, then delete.
        c.p_begin().unwrap();
        let fd = c.p_open("/precious", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"garbage").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        c.p_unlink("/precious").unwrap();
        assert!(c.p_stat("/precious", None).is_err());

        c.p_undelete("/precious", t_alive).unwrap();
        assert_eq!(c.read_to_vec("/precious", None).unwrap(), data);
        let stat = c.p_stat("/precious", None).unwrap();
        assert_eq!(stat.size as usize, data.len());
    }

    #[test]
    fn compressed_file_roundtrip_and_random_access() {
        let (fs, mut c) = fs_client();
        let data = b"abcdefgh".repeat(3 * CHUNK_SIZE / 8);
        c.write_all("/z", CreateMode::default().compressed(), &data)
            .unwrap();
        assert_eq!(c.read_to_vec("/z", None).unwrap(), data);

        // Random access: read 10 bytes from the middle of chunk 2.
        let off = 2 * CHUNK_SIZE + 1001;
        let fd = c.p_open("/z", OpenMode::Read, None).unwrap();
        c.p_lseek(fd, off as i64, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 10];
        c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf, &data[off..off + 10]);
        c.p_close(fd).unwrap();

        // The stored chunks really are smaller than the data.
        let stat = c.p_stat("/z", None).unwrap();
        assert!(stat.compressed);
        let mut s = fs.db().begin().unwrap();
        let stored: usize = s
            .seq_scan(stat.datarel)
            .unwrap()
            .iter()
            .map(|(_, r)| r[1].as_bytes().unwrap().len())
            .sum();
        s.commit().unwrap();
        assert!(stored < data.len() / 4, "stored {stored} of {}", data.len());
    }

    #[test]
    fn auto_commit_ops_work_without_explicit_transaction() {
        let (_fs, mut c) = fs_client();
        let fd = c.p_creat("/auto", CreateMode::default()).unwrap();
        c.p_write(fd, b"one ").unwrap();
        c.p_write(fd, b"two").unwrap();
        c.p_close(fd).unwrap();
        assert_eq!(c.read_to_vec("/auto", None).unwrap(), b"one two");
    }

    #[test]
    fn seek_whence_variants_and_errors() {
        let (_fs, mut c) = fs_client();
        c.write_all("/s", CreateMode::default(), b"0123456789")
            .unwrap();
        let fd = c.p_open("/s", OpenMode::Read, None).unwrap();
        assert_eq!(c.p_lseek(fd, 4, SeekWhence::Set).unwrap(), 4);
        assert_eq!(c.p_lseek(fd, 2, SeekWhence::Cur).unwrap(), 6);
        assert_eq!(c.p_lseek(fd, -1, SeekWhence::End).unwrap(), 9);
        assert!(c.p_lseek(fd, -100, SeekWhence::Cur).is_err());
        assert!(c.p_lseek(999, 0, SeekWhence::Set).is_err());
        c.p_close(fd).unwrap();
        assert!(matches!(c.p_close(fd), Err(InvError::BadFd(_))));
    }

    #[test]
    fn read_past_eof_is_short() {
        let (_fs, mut c) = fs_client();
        c.write_all("/short", CreateMode::default(), b"abc")
            .unwrap();
        let fd = c.p_open("/short", OpenMode::Read, None).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(c.p_read(fd, &mut buf).unwrap(), 3);
        assert_eq!(c.p_read(fd, &mut buf).unwrap(), 0);
        c.p_lseek(fd, 100, SeekWhence::Set).unwrap();
        assert_eq!(c.p_read(fd, &mut buf).unwrap(), 0);
        c.p_close(fd).unwrap();
    }

    #[test]
    fn directories_cannot_be_opened_as_files() {
        let (_fs, mut c) = fs_client();
        c.p_mkdir("/dir").unwrap();
        assert!(matches!(
            c.p_open("/dir", OpenMode::Read, None),
            Err(InvError::IsADirectory(_))
        ));
    }

    #[test]
    fn nested_begin_rejected() {
        let (_fs, mut c) = fs_client();
        c.p_begin().unwrap();
        assert!(c.p_begin().is_err());
        c.p_abort().unwrap();
        assert!(c.p_abort().is_err());
        assert!(c.p_commit().is_err());
    }

    #[test]
    fn mtime_and_atime_update() {
        let (fs, mut c) = fs_client();
        c.write_all("/t", CreateMode::default(), b"x").unwrap();
        let s1 = c.p_stat("/t", None).unwrap();
        fs.db().clock().advance(simdev::SimDuration::from_secs(5));
        c.p_begin().unwrap();
        let fd = c.p_open("/t", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"y").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let s2 = c.p_stat("/t", None).unwrap();
        assert!(s2.mtime > s1.mtime);
        assert!(s2.atime >= s2.mtime);
        assert_eq!(s2.ctime, s1.ctime);
    }

    /// An auto-commit op that fails takes back nothing of another
    /// descriptor: a read that committed before it still counts as an
    /// access at that descriptor's close.
    #[test]
    fn a_failed_auto_commit_op_keeps_the_other_descriptors_access() {
        let (fs, mut c) = fs_client();
        c.write_all("/a", CreateMode::default(), b"hello world").unwrap();
        let created = c.p_stat("/a", None).unwrap().atime;
        fs.db().clock().advance(simdev::SimDuration::from_secs(1));
        let fd = c.p_open("/a", OpenMode::Read, None).unwrap();
        assert_eq!(c.p_read(fd, &mut [0u8; 5]).unwrap(), 5);
        assert!(c.p_stat("/nope", None).is_err());
        c.p_close(fd).unwrap();
        assert!(c.p_stat("/a", None).unwrap().atime > created);
    }

    /// A read of the past runs on a session of the past: it starts no
    /// transaction and takes no lock, even beside a writer that holds
    /// `naming` and `fileatt` exclusively.
    #[test]
    fn a_read_of_the_past_starts_no_transaction_and_takes_no_lock() {
        let (fs, mut c) = fs_client();
        c.p_mkdir("/d").unwrap();
        c.write_all("/d/f", CreateMode::default(), &vec![5u8; CHUNK_SIZE + 9]).unwrap();
        let t = fs.db().now();
        let mut read_the_past = |held: usize| {
            let xact = |fs: &InversionFs| {
                let x = fs.db().stats().xact;
                (x.commits, x.aborts)
            };
            let before = xact(&fs);
            assert_eq!(c.p_stat("/d/f", Some(t)).unwrap().size, CHUNK_SIZE as u64 + 9);
            assert_eq!(c.p_readdir("/d", Some(t)).unwrap().len(), 1);
            assert_eq!(c.read_to_vec("/d/f", Some(t)).unwrap(), vec![5u8; CHUNK_SIZE + 9]);
            let fd = c.p_open("/d/f", OpenMode::Read, Some(t)).unwrap();
            assert_eq!(c.p_read(fd, &mut [0u8; 16]).unwrap(), 16);
            c.p_close(fd).unwrap();
            assert_eq!(xact(&fs), before, "commits and aborts");
            assert_eq!(fs.db().held_lock_count(), held);
        };
        read_the_past(0);
        let mut writer = fs.client();
        writer.p_begin().unwrap();
        writer.p_creat("/d/g", CreateMode::default()).unwrap();
        let held = fs.db().held_lock_count();
        assert!(held > 0);
        read_the_past(held);
        writer.p_abort().unwrap();
        assert_eq!(fs.db().held_lock_count(), 0);
    }

    #[test]
    fn file_on_chosen_device_is_recorded() {
        let (_fs, mut c) = fs_client();
        let fd = c
            .p_creat(
                "/placed",
                CreateMode::default().on_device(minidb::DeviceId(0)),
            )
            .unwrap();
        c.p_close(fd).unwrap();
        let stat = c.p_stat("/placed", None).unwrap();
        assert_eq!(stat.device, minidb::DeviceId(0));
        assert!(stat.datarel.is_valid());
        assert!(stat.chunkidx.is_valid());
    }
}

#[cfg(test)]
mod self_id_tests {
    use super::*;
    use crate::chunk::CHUNK_SIZE;
    use crate::fs::CreateMode;

    #[test]
    fn self_identifying_roundtrip_and_overhead_fits() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        let data: Vec<u8> = (0..2 * CHUNK_SIZE + 7).map(|i| (i % 251) as u8).collect();
        c.write_all("/tagged", CreateMode::default().self_identifying(), &data)
            .unwrap();
        assert_eq!(c.read_to_vec("/tagged", None).unwrap(), data);
        let stat = c.p_stat("/tagged", None).unwrap();
        assert!(stat.self_identifying);
        // A full chunk plus the 16-byte tag must still fit one heap tuple
        // (the paper "reserved space in the tables storing file data").
        let mut s = fs.db().begin().unwrap();
        let rows = s.seq_scan(stat.datarel).unwrap();
        assert_eq!(rows.len(), 3, "one record per chunk even with tags");
        s.commit().unwrap();
    }

    #[test]
    fn wrong_file_tag_detected() {
        // Swap the raw stored bytes of two files' chunks: the tag must
        // catch that the block belongs to another file.
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/one", CreateMode::default().self_identifying(), b"one!")
            .unwrap();
        c.write_all("/two", CreateMode::default().self_identifying(), b"two!")
            .unwrap();
        let s1 = c.p_stat("/one", None).unwrap();
        let s2 = c.p_stat("/two", None).unwrap();
        let mut s = fs.db().begin().unwrap();
        let (tid1, row1) = s.seq_scan(s1.datarel).unwrap().remove(0);
        let (_tid2, row2) = s.seq_scan(s2.datarel).unwrap().remove(0);
        s.update(s1.datarel, tid1, row2.clone()).unwrap();
        let _ = row1;
        s.commit().unwrap();

        let err = c.read_to_vec("/one", None).unwrap_err();
        assert!(err.to_string().contains("another file"), "{err}");
    }

    #[test]
    fn bitrot_detected_by_checksum() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all(
            "/precious",
            CreateMode::default().self_identifying(),
            &vec![7u8; 500],
        )
        .unwrap();
        let stat = c.p_stat("/precious", None).unwrap();
        // Flip one payload byte in the stored record.
        let mut s = fs.db().begin().unwrap();
        let (tid, mut row) = s.seq_scan(stat.datarel).unwrap().remove(0);
        let mut bytes = row[1].as_bytes().unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        row[1] = Datum::Bytes(bytes);
        s.update(stat.datarel, tid, row).unwrap();
        s.commit().unwrap();

        let err = c.read_to_vec("/precious", None).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Untagged files would have silently returned the garbage; tagged
        // ones fail loudly, which is the feature.
    }

    #[test]
    fn self_identifying_composes_with_compression() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        let data = b"abcabcabc".repeat(2000);
        c.write_all(
            "/both",
            CreateMode::default().self_identifying().compressed(),
            &data,
        )
        .unwrap();
        assert_eq!(c.read_to_vec("/both", None).unwrap(), data);
        let stat = c.p_stat("/both", None).unwrap();
        assert!(stat.compressed && stat.self_identifying);
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;
    use crate::fs::CreateMode;

    #[test]
    fn history_lists_every_revision() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/doc", CreateMode::default(), b"a").unwrap();
        for len in [2usize, 3, 4] {
            c.p_begin().unwrap();
            let fd = c.p_open("/doc", OpenMode::ReadWrite, None).unwrap();
            c.p_lseek(fd, 0, SeekWhence::End).unwrap();
            c.p_write(fd, b"x").unwrap();
            c.p_close(fd).unwrap();
            c.p_commit().unwrap();
            let _ = len;
        }
        let hist = c.p_history("/doc").unwrap();
        assert_eq!(hist.len(), 4);
        let sizes: Vec<u64> = hist.iter().map(|v| v.size).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4]);
        // All but the last superseded; times strictly increase.
        assert!(hist[..3].iter().all(|v| v.superseded_at.is_some()));
        assert!(hist[3].superseded_at.is_none());
        assert!(hist
            .windows(2)
            .all(|w| w[0].committed_at < w[1].committed_at));
        // Each committed_at checks out the matching revision.
        for (i, v) in hist.iter().enumerate() {
            let bytes = c.read_to_vec("/doc", Some(v.committed_at)).unwrap();
            assert_eq!(bytes.len(), i + 1, "revision {i}");
        }
    }

    #[test]
    fn history_of_deleted_file_still_listable() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/gone", CreateMode::default(), b"12345")
            .unwrap();
        c.p_unlink("/gone").unwrap();
        let hist = c.p_history("/gone").unwrap();
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].size, 5);
        assert!(hist[0].superseded_at.is_some(), "deleted: lifetime closed");
    }

    #[test]
    fn history_waits_on_no_writer_and_starts_no_transaction() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/f", CreateMode::default(), b"abc").unwrap();
        // Another client holds `naming` and `fileatt` for an uncommitted
        // create.
        let mut writer = fs.client();
        writer.p_begin().unwrap();
        writer.p_creat("/g", CreateMode::default()).unwrap();
        let counts = |fs: &InversionFs| {
            let st = fs.db().stats();
            (st.xact.commits, st.xact.aborts, st.lock.acquisitions)
        };
        let before = counts(&fs);
        let hist = c.p_history("/f").unwrap();
        assert_eq!(counts(&fs), before, "commits, aborts and lock acquisitions");
        assert_eq!(hist.iter().map(|v| v.size).collect::<Vec<_>>(), [3]);
        writer.p_abort().unwrap();
    }

    #[test]
    fn history_of_removed_path_is_that_directory_entrys() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.p_mkdir("/a").unwrap();
        c.p_mkdir("/b").unwrap();
        c.write_all("/b/x", CreateMode::default(), b"bbb").unwrap();
        c.write_all("/a/x", CreateMode::default(), b"aaaaa")
            .unwrap();
        c.p_unlink("/a/x").unwrap();
        let hist = c.p_history("/a/x").unwrap();
        let sizes: Vec<u64> = hist.iter().map(|v| v.size).collect();
        assert_eq!(sizes, [5], "/a/x, not /b/x");
        assert!(hist[0].superseded_at.is_some(), "removed: lifetime closed");
        // A second file at the same path, removed in turn: the history is
        // the last holder's.
        c.write_all("/a/x", CreateMode::default(), b"aaaaaaa")
            .unwrap();
        c.p_unlink("/a/x").unwrap();
        let sizes: Vec<u64> = c
            .p_history("/a/x")
            .unwrap()
            .iter()
            .map(|v| v.size)
            .collect();
        assert_eq!(sizes, [7]);
    }

    #[test]
    fn history_of_missing_path_errors() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        assert!(matches!(
            c.p_history("/never"),
            Err(InvError::NoSuchPath(_))
        ));
    }

    #[test]
    fn history_survives_vacuum() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/v", CreateMode::default(), b"one").unwrap();
        c.p_begin().unwrap();
        let fd = c.p_open("/v", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"two++").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let report = crate::maintenance::vacuum_all(&fs, minidb::DeviceId::DEFAULT).unwrap();
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let hist = c.p_history("/v").unwrap();
        assert_eq!(hist.len(), 2, "archived versions included");
        assert_eq!(hist[0].size, 3);
        assert_eq!(hist[1].size, 5);
    }
}

#[cfg(test)]
mod truncate_tests {
    use super::*;
    use crate::chunk::CHUNK_SIZE;
    use crate::fs::CreateMode;

    fn setup(data: &[u8]) -> (InversionFs, InvClient) {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/t", CreateMode::default(), data).unwrap();
        (fs, c)
    }

    #[test]
    fn shrink_within_chunk() {
        let (_fs, mut c) = setup(b"0123456789");
        c.p_begin().unwrap();
        let fd = c.p_open("/t", OpenMode::ReadWrite, None).unwrap();
        c.p_ftruncate(fd, 4).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        assert_eq!(c.read_to_vec("/t", None).unwrap(), b"0123");
        assert_eq!(c.p_stat("/t", None).unwrap().size, 4);
    }

    #[test]
    fn shrink_across_chunks_and_time_travel_keeps_old() {
        let data: Vec<u8> = (0..3 * CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
        let (fs, mut c) = setup(&data);
        let t_full = fs.db().now();
        c.p_begin().unwrap();
        let fd = c.p_open("/t", OpenMode::ReadWrite, None).unwrap();
        let new_len = CHUNK_SIZE as u64 + 100;
        c.p_ftruncate(fd, new_len).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        let now = c.read_to_vec("/t", None).unwrap();
        assert_eq!(now.len() as u64, new_len);
        assert_eq!(&now[..], &data[..new_len as usize]);
        // History intact.
        assert_eq!(c.read_to_vec("/t", Some(t_full)).unwrap(), data);
    }

    #[test]
    fn truncate_to_zero_and_rewrite() {
        let (_fs, mut c) = setup(b"old contents");
        c.p_begin().unwrap();
        let fd = c.p_open("/t", OpenMode::ReadWrite, None).unwrap();
        c.p_ftruncate(fd, 0).unwrap();
        c.p_write(fd, b"new").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        assert_eq!(c.read_to_vec("/t", None).unwrap(), b"new");
    }

    #[test]
    fn grow_creates_zero_hole() {
        let (_fs, mut c) = setup(b"abc");
        c.p_begin().unwrap();
        let fd = c.p_open("/t", OpenMode::ReadWrite, None).unwrap();
        c.p_ftruncate(fd, 10).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        assert_eq!(c.read_to_vec("/t", None).unwrap(), b"abc\0\0\0\0\0\0\0");
    }

    #[test]
    fn truncate_readonly_fd_rejected() {
        let (fs, mut c) = setup(b"abc");
        let t = fs.db().now();
        let fd = c.p_open("/t", OpenMode::Read, None).unwrap();
        assert!(c.p_ftruncate(fd, 0).is_err());
        c.p_close(fd).unwrap();
        let fd = c.p_open("/t", OpenMode::Read, Some(t)).unwrap();
        assert!(c.p_ftruncate(fd, 0).is_err());
        c.p_close(fd).unwrap();
    }
}
