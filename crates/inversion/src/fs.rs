//! The file system proper: schemas, formatting, attachment, per-file state.
//!
//! Two ordinary database tables carry all file system metadata, exactly as
//! in the paper:
//!
//! ```text
//! naming(filename = char[], parentid = object_id, file = object_id)
//! fileatt(file = object_id, owner, type, size, ctime, mtime, atime, ...)
//! ```
//!
//! File *data* live in one table per file, named `inv<oid>`, with schema
//! `(chunkno int4, data bytes)` and a B-tree index on `chunkno`. Because
//! file migration can move a file's data to a new relation on another
//! device, `fileatt` additionally records the current data relation and
//! chunk index oids (the paper computes `inv<oid>` from the file id; we keep
//! that name at creation and use the catalog for indirection afterwards).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use minidb::{Datum, Db, DbError, DeviceId, Oid, RelId, Schema, Session, Snapshot, Tid, TypeId};
use parking_lot::Mutex;
use simdev::SimInstant;

use crate::stats::{register_inv_stat, InvStats};

/// Errors surfaced by the file system layer.
#[derive(Debug, Clone, PartialEq)]
pub enum InvError {
    /// The underlying database failed.
    Db(DbError),
    /// A path (or path component) does not exist.
    NoSuchPath(String),
    /// A path component that must be a directory is not.
    NotADirectory(String),
    /// The operation needs a regular file but found a directory.
    IsADirectory(String),
    /// The path already exists.
    Exists(String),
    /// A directory being removed still has entries.
    NotEmpty(String),
    /// An unknown file descriptor.
    BadFd(i32),
    /// A write was attempted on a read-only (historical) descriptor.
    ReadOnlyFd(i32),
    /// Malformed path syntax.
    BadPath(String),
    /// Anything else.
    Invalid(String),
}

impl fmt::Display for InvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvError::Db(e) => write!(f, "database error: {e}"),
            InvError::NoSuchPath(p) => write!(f, "no such file or directory: {p}"),
            InvError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            InvError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            InvError::Exists(p) => write!(f, "file exists: {p}"),
            InvError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            InvError::BadFd(fd) => write!(f, "bad file descriptor: {fd}"),
            InvError::ReadOnlyFd(fd) => write!(f, "file descriptor {fd} is read-only"),
            InvError::BadPath(p) => write!(f, "bad path: {p}"),
            InvError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for InvError {}

impl From<DbError> for InvError {
    fn from(e: DbError) -> Self {
        InvError::Db(e)
    }
}

/// Convenience alias for file system results.
pub type InvResult<T> = Result<T, InvError>;

/// Regular file or directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A byte-stream file backed by an `inv<oid>` table.
    Regular,
    /// A directory (purely a namespace object).
    Directory,
}

/// Everything `fileatt` knows about one file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStat {
    /// The file's object identifier.
    pub oid: Oid,
    /// Regular file or directory.
    pub kind: FileKind,
    /// Owner login.
    pub owner: String,
    /// Registered file type, if typed.
    pub ftype: Option<TypeId>,
    /// Size in bytes.
    pub size: u64,
    /// Creation time.
    pub ctime: SimInstant,
    /// Last modification time.
    pub mtime: SimInstant,
    /// Last access time.
    pub atime: SimInstant,
    /// Whether chunks are stored compressed.
    pub compressed: bool,
    /// Whether chunks carry self-identifying tags (corruption detection).
    pub self_identifying: bool,
    /// The relation holding the file's chunks (regular files).
    pub datarel: RelId,
    /// The B-tree index on chunk number.
    pub chunkidx: RelId,
    /// The device the data relation lives on.
    pub device: DeviceId,
}

const FLAG_COMPRESSED: i32 = 1;
const FLAG_DIRECTORY: i32 = 2;
const FLAG_SELF_ID: i32 = 4;

/// Options for [`crate::InvClient::p_creat`].
///
/// "The mode flag to p_open and p_creat encodes the device on which the
/// file should reside at creation time."
#[derive(Debug, Clone)]
pub struct CreateMode {
    /// Device for the file's data relation.
    pub device: DeviceId,
    /// Owner login recorded in `fileatt`.
    pub owner: String,
    /// File type (`define type` first; see [`crate::types`]).
    pub ftype: Option<TypeId>,
    /// Store chunks compressed (see [`crate::compress`]).
    pub compressed: bool,
    /// Tag every stored chunk with its file identifier, chunk number, and a
    /// checksum, so media corruption is detected at read time. "Inversion
    /// could detect these cases by making all blocks self-identifying ...
    /// space has been reserved in the tables storing file data for this
    /// purpose."
    pub self_identifying: bool,
    /// Ask the vacuum cleaner to discard, not archive, old versions.
    pub no_history: bool,
}

impl Default for CreateMode {
    fn default() -> Self {
        CreateMode {
            device: DeviceId::DEFAULT,
            owner: "root".into(),
            ftype: None,
            compressed: false,
            self_identifying: false,
            no_history: false,
        }
    }
}

impl CreateMode {
    /// Places the file on `device`.
    pub fn on_device(mut self, device: DeviceId) -> Self {
        self.device = device;
        self
    }

    /// Sets the owner.
    pub fn owned_by(mut self, owner: impl Into<String>) -> Self {
        self.owner = owner.into();
        self
    }

    /// Sets the file type.
    pub fn with_type(mut self, t: TypeId) -> Self {
        self.ftype = Some(t);
        self
    }

    /// Stores chunks compressed.
    pub fn compressed(mut self) -> Self {
        self.compressed = true;
        self
    }

    /// Tags chunks with self-identifying headers for corruption detection.
    pub fn self_identifying(mut self) -> Self {
        self.self_identifying = true;
        self
    }

    /// Skips history retention for this file's data.
    pub fn without_history(mut self) -> Self {
        self.no_history = true;
        self
    }
}

/// One source byte range for [`crate::InvClient::p_slice`]: `len` bytes of
/// `path` starting at `offset`.
///
/// Slicing composes a new file from ranges of existing files. Chunk-aligned
/// ranges are *shared* — the stored chunk rows are copied between chunk
/// tables without decoding the payload — while unaligned remainders fall
/// back to byte copies (see DESIGN.md §8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceRange {
    /// Path of the source file.
    pub path: String,
    /// Starting byte offset in the source.
    pub offset: u64,
    /// Number of bytes to take.
    pub len: u64,
}

impl SliceRange {
    /// Convenience constructor.
    pub fn new(path: impl Into<String>, offset: u64, len: u64) -> Self {
        SliceRange {
            path: path.into(),
            offset,
            len,
        }
    }
}

/// Relation ids the file system needs constantly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FsRels {
    pub naming: RelId,
    pub fileatt: RelId,
    /// Index on naming(parentid, filename).
    pub naming_dir_idx: RelId,
    /// Index on naming(file).
    pub naming_file_idx: RelId,
    /// Index on fileatt(file).
    pub fileatt_file_idx: RelId,
}

/// A mounted Inversion file system. Cheap to clone; clones share the
/// database. One `InversionFs` corresponds to one database — "a single
/// database corresponds to a mount point in conventional file system
/// architectures".
#[derive(Clone)]
pub struct InversionFs {
    db: Db,
    pub(crate) rels: FsRels,
    pub(crate) root: Oid,
    /// Operation counters shared by every client of this mount; queryable
    /// as the `inv_stat` virtual relation.
    pub(crate) stats: Arc<InvStats>,
    /// Access times not yet in `fileatt` (lazytime): file → the latest
    /// time a reader closed it. Shared by every clone of the mount.
    atimes: Arc<Mutex<BTreeMap<Oid, SimInstant>>>,
}

/// Pending access times at which an auto-commit `p_close` writes them back
/// itself ([`InversionFs::flush_atimes`]) instead of waiting for one of the
/// other write-back points: bounds the map, and what a crash can lose.
pub(crate) const ATIME_PENDING_MAX: usize = 1024;

// Column positions in `naming`.
pub(crate) const N_FILENAME: usize = 0;
pub(crate) const N_PARENTID: usize = 1;
pub(crate) const N_FILE: usize = 2;

// Column positions in `fileatt`.
pub(crate) const A_FILE: usize = 0;
pub(crate) const A_OWNER: usize = 1;
pub(crate) const A_TYPE: usize = 2;
pub(crate) const A_SIZE: usize = 3;
pub(crate) const A_CTIME: usize = 4;
pub(crate) const A_MTIME: usize = 5;
pub(crate) const A_ATIME: usize = 6;
pub(crate) const A_FLAGS: usize = 7;
pub(crate) const A_DATAREL: usize = 8;
pub(crate) const A_CHUNKIDX: usize = 9;
pub(crate) const A_DEVICE: usize = 10;

impl InversionFs {
    /// Formats a fresh Inversion file system in `db`: creates the metadata
    /// tables, their indices, and the root directory `/`.
    ///
    /// "The root directory, named '/', appears in every POSTGRES database as
    /// shipped from Berkeley."
    pub fn format(db: Db) -> InvResult<InversionFs> {
        let naming = db.create_table(
            "naming",
            Schema::new([
                ("filename", TypeId::TEXT),
                ("parentid", TypeId::OID),
                ("file", TypeId::OID),
            ]),
        )?;
        let fileatt = db.create_table(
            "fileatt",
            Schema::new([
                ("file", TypeId::OID),
                ("owner", TypeId::TEXT),
                ("type", TypeId::OID),
                ("size", TypeId::INT8),
                ("ctime", TypeId::TIME),
                ("mtime", TypeId::TIME),
                ("atime", TypeId::TIME),
                ("flags", TypeId::INT4),
                ("datarel", TypeId::OID),
                ("chunkidx", TypeId::OID),
                ("device", TypeId::INT4),
            ]),
        )?;
        // "Various Btree indices on the naming table speed up these
        // operations."
        // A name in a directory and a file's attributes are unique among
        // the versions alive at one instant (their writers probe under the
        // relation's exclusive lock before inserting), so lookups stop at
        // the first visible version. `naming_file_idx` is not declared so:
        // nothing checks that a file has one name.
        let naming_dir_idx =
            db.create_unique_index("naming_dir_idx", naming, &["parentid", "filename"])?;
        let naming_file_idx = db.create_index("naming_file_idx", naming, &["file"])?;
        let fileatt_file_idx = db.create_unique_index("fileatt_file_idx", fileatt, &["file"])?;

        let rels = FsRels {
            naming,
            fileatt,
            naming_dir_idx,
            naming_file_idx,
            fileatt_file_idx,
        };

        // Create the root directory.
        let root = db.alloc_oid()?;
        let now = db.now();
        let mut s = db.begin()?;
        s.insert(
            naming,
            vec![Datum::Text("/".into()), Datum::Oid(0), Datum::Oid(root.0)],
        )?;
        s.insert(fileatt, dir_fileatt_row(root, "root", now))?;
        s.commit()?;

        let stats = Arc::new(InvStats::new());
        register_inv_stat(&db, &stats);
        Ok(InversionFs {
            db,
            rels,
            root,
            stats,
            atimes: Arc::default(),
        })
    }

    /// Attaches to an already-formatted file system (e.g. after recovery).
    pub fn attach(db: Db) -> InvResult<InversionFs> {
        let naming = db.relation_id("naming")?;
        let fileatt = db.relation_id("fileatt")?;
        let naming_dir_idx = db.relation_id("naming_dir_idx")?;
        let naming_file_idx = db.relation_id("naming_file_idx")?;
        let fileatt_file_idx = db.relation_id("fileatt_file_idx")?;
        let rels = FsRels {
            naming,
            fileatt,
            naming_dir_idx,
            naming_file_idx,
            fileatt_file_idx,
        };
        // Find the root: naming row with parentid 0.
        let mut s = db.begin()?;
        let hit = s.index_lookup_unique(
            naming_dir_idx,
            &[Datum::Oid(0), Datum::Text("/".into())],
            None,
        )?;
        s.commit()?;
        let (_, row) = hit.ok_or_else(|| InvError::Invalid("no root directory found".into()))?;
        let root = Oid(row[N_FILE].as_oid()?);
        let stats = Arc::new(InvStats::new());
        register_inv_stat(&db, &stats);
        Ok(InversionFs {
            db,
            rels,
            root,
            stats,
            atimes: Arc::default(),
        })
    }

    /// A self-contained in-memory file system for tests and examples.
    pub fn open_in_memory() -> InvResult<InversionFs> {
        let db = Db::open_in_memory()?;
        InversionFs::format(db)
    }

    /// The underlying database.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The root directory's oid.
    pub fn root(&self) -> Oid {
        self.root
    }

    /// The file system's operation counters (also queryable as `inv_stat`).
    pub fn stats(&self) -> &InvStats {
        &self.stats
    }

    /// Registers `f` as the implementation behind `key` in the database's
    /// function registry. The stored closure keeps only the parts of this
    /// handle that do not own the database: a [`Db`] held inside its own
    /// registry is a reference cycle, and a database in one is never freed
    /// and never stops its checkpointer. `f` is handed a mount rebuilt
    /// around the database of the session it runs in.
    pub(crate) fn register_function(
        &self,
        key: &str,
        f: impl Fn(&InversionFs, &mut Session, &[Datum]) -> Result<Datum, DbError>
            + Send
            + Sync
            + 'static,
    ) {
        let (rels, root) = (self.rels, self.root);
        let (stats, atimes) = (Arc::clone(&self.stats), Arc::clone(&self.atimes));
        self.db.functions().register(key, move |s, args| {
            let fs = InversionFs {
                db: s.db().clone(),
                rels,
                root,
                stats: Arc::clone(&stats),
                atimes: Arc::clone(&atimes),
            };
            f(&fs, s, args)
        });
    }

    /// Opens a new client (one application program's connection).
    pub fn client(&self) -> crate::api::InvClient {
        crate::api::InvClient::new(self.clone())
    }

    /// Creates the data relation and chunk index for a new regular file.
    pub(crate) fn create_data_rel(
        &self,
        oid: Oid,
        device: DeviceId,
        no_history: bool,
    ) -> InvResult<(RelId, RelId)> {
        let table_name = format!("inv{}", oid.0);
        let datarel = self.db.create_table_on(
            &table_name,
            Schema::new([("chunkno", TypeId::INT4), ("data", TypeId::BYTES)]),
            device,
            no_history,
        )?;
        // One version of a chunk is current at a time: `store_chunk`
        // replaces the version its caller looked up.
        let chunkidx =
            self.db
                .create_unique_index(&format!("inv{}_idx", oid.0), datarel, &["chunkno"])?;
        Ok((datarel, chunkidx))
    }

    /// Decodes a `fileatt` row into a [`FileStat`].
    pub(crate) fn stat_from_row(row: &[Datum]) -> InvResult<FileStat> {
        let flags = row[A_FLAGS].as_int()? as i32;
        let ftype_raw = row[A_TYPE].as_oid()?;
        Ok(FileStat {
            oid: Oid(row[A_FILE].as_oid()?),
            kind: if flags & FLAG_DIRECTORY != 0 {
                FileKind::Directory
            } else {
                FileKind::Regular
            },
            owner: row[A_OWNER].as_text()?.to_string(),
            ftype: if ftype_raw == 0 {
                None
            } else {
                Some(TypeId(ftype_raw))
            },
            size: row[A_SIZE].as_int()?.max(0) as u64,
            ctime: SimInstant::from_nanos(row[A_CTIME].as_int()? as u64),
            mtime: SimInstant::from_nanos(row[A_MTIME].as_int()? as u64),
            atime: row_atime(row)?,
            compressed: flags & FLAG_COMPRESSED != 0,
            self_identifying: flags & FLAG_SELF_ID != 0,
            datarel: Oid(row[A_DATAREL].as_oid()?),
            chunkidx: Oid(row[A_CHUNKIDX].as_oid()?),
            device: DeviceId(row[A_DEVICE].as_int()? as u8),
        })
    }

    /// Fetches the `fileatt` row for `oid` under `snap`, with its tuple id.
    pub(crate) fn fileatt_row(
        &self,
        session: &mut Session,
        oid: Oid,
        snap: Option<&Snapshot>,
    ) -> InvResult<Option<(Tid, Vec<Datum>)>> {
        let key = [Datum::Oid(oid.0)];
        Ok(session.index_lookup_unique(self.rels.fileatt_file_idx, &key, snap)?)
    }

    /// Rewrites `oid`'s current `fileatt` row through `edit`. The write is
    /// declared *before* the read: fetching the row first would take the
    /// relation's shared lock and then upgrade it, and two sessions that
    /// both do that close a wait cycle one of them is refused for.
    ///
    /// Any real metadata write carries the file's pending access time with
    /// it. The pending entry stays: this transaction may yet abort, and
    /// [`InversionFs::flush_atimes`] drops entries the row has caught up
    /// with.
    pub(crate) fn update_fileatt(
        &self,
        session: &mut Session,
        oid: Oid,
        edit: impl FnOnce(&mut Vec<Datum>),
    ) -> InvResult<()> {
        session.lock_exclusive(self.rels.fileatt)?;
        let (tid, mut row) = self
            .fileatt_row(session, oid, None)?
            .ok_or_else(|| InvError::NoSuchPath(format!("oid {oid}")))?;
        edit(&mut row);
        if let Some(pending) = self.pending_atime(oid) {
            row[A_ATIME] = Datum::Time(row_atime(&row)?.max(pending).as_nanos());
        }
        session.update(self.rels.fileatt, tid, row)?;
        Ok(())
    }

    /// Stats a file by oid. A current stat shows the pending access time;
    /// a historical one shows what `fileatt` held.
    pub(crate) fn stat_oid(
        &self,
        session: &mut Session,
        oid: Oid,
        snap: Option<&Snapshot>,
    ) -> InvResult<FileStat> {
        let (_, row) = self
            .fileatt_row(session, oid, snap)?
            .ok_or_else(|| InvError::NoSuchPath(format!("oid {oid}")))?;
        let mut stat = Self::stat_from_row(&row)?;
        if snap.is_none() {
            if let Some(pending) = self.pending_atime(oid) {
                stat.atime = stat.atime.max(pending);
            }
        }
        Ok(stat)
    }

    fn pending_atime(&self, oid: Oid) -> Option<SimInstant> {
        self.atimes.lock().get(&oid).copied()
    }

    /// Records that `oid` was read, now. Touches no relation: a read stays
    /// a read.
    pub(crate) fn defer_atime(&self, oid: Oid) {
        self.stats.atimes_deferred.bump();
        let now = self.db.now();
        let mut atimes = self.atimes.lock();
        let at = atimes.entry(oid).or_insert(now);
        *at = (*at).max(now);
    }

    /// How many files have an access time waiting for write-back.
    pub(crate) fn pending_atime_count(&self) -> usize {
        self.atimes.lock().len()
    }

    /// Writes every pending access time that is ahead of its file's
    /// `fileatt` row into that row, through `s`, in oid order; files with no
    /// current row (unlinked since) are passed over. Returns the entries it
    /// looked at and how many rows it wrote. Nothing leaves the map here.
    pub(crate) fn write_atimes(&self, s: &mut Session) -> InvResult<(Vec<(Oid, SimInstant)>, u64)> {
        let batch: Vec<(Oid, SimInstant)> =
            self.atimes.lock().iter().map(|(&oid, &at)| (oid, at)).collect();
        let mut written = 0;
        if !batch.is_empty() {
            // Ahead of the reads' shared lock; see `update_fileatt`.
            s.lock_exclusive(self.rels.fileatt)?;
        }
        for &(oid, at) in &batch {
            let Some((tid, mut row)) = self.fileatt_row(s, oid, None)? else {
                continue;
            };
            if row_atime(&row)? < at {
                row[A_ATIME] = Datum::Time(at.as_nanos());
                s.update(self.rels.fileatt, tid, row)?;
                written += 1;
            }
        }
        Ok((batch, written))
    }

    /// The write-back step of lazytime: one transaction that brings
    /// `fileatt` up to every pending access time, then forgets the entries
    /// it covered — after its commit, so a failure loses nothing, and only
    /// where no later read has moved the entry on. Returns the number of
    /// rows written; with nothing pending, or nothing behind, it writes and
    /// forces nothing.
    ///
    /// Called before a migration rule reads `atime`, by the maintenance
    /// sweep, at server shutdown, and by an auto-commit `p_close` that finds
    /// [`ATIME_PENDING_MAX`] entries waiting. A crash loses the access times
    /// still pending and nothing else.
    pub fn flush_atimes(&self) -> InvResult<u64> {
        if self.pending_atime_count() == 0 {
            return Ok(0);
        }
        let mut s = self.db.begin()?;
        let (batch, written) = match self.write_atimes(&mut s) {
            Ok(done) => done,
            Err(e) => {
                s.abort().ok();
                return Err(e);
            }
        };
        s.commit()?;
        let mut atimes = self.atimes.lock();
        for (oid, at) in batch {
            if atimes.get(&oid) == Some(&at) {
                atimes.remove(&oid);
            }
        }
        if written > 0 {
            self.stats.atime_flushes.bump();
            self.stats.atimes_written.add(written);
        }
        Ok(written)
    }
}

/// The access time a `fileatt` row records.
fn row_atime(row: &[Datum]) -> InvResult<SimInstant> {
    Ok(SimInstant::from_nanos(row[A_ATIME].as_int()? as u64))
}

/// Builds a `fileatt` row for a fresh regular file.
pub(crate) fn file_fileatt_row(
    oid: Oid,
    mode: &CreateMode,
    now: SimInstant,
    datarel: RelId,
    chunkidx: RelId,
) -> Vec<Datum> {
    let mut flags = 0;
    if mode.compressed {
        flags |= FLAG_COMPRESSED;
    }
    if mode.self_identifying {
        flags |= FLAG_SELF_ID;
    }
    vec![
        Datum::Oid(oid.0),
        Datum::Text(mode.owner.clone()),
        Datum::Oid(mode.ftype.map(|t| t.0).unwrap_or(0)),
        Datum::Int8(0),
        Datum::Time(now.as_nanos()),
        Datum::Time(now.as_nanos()),
        Datum::Time(now.as_nanos()),
        Datum::Int4(flags),
        Datum::Oid(datarel.0),
        Datum::Oid(chunkidx.0),
        Datum::Int4(mode.device.0 as i32),
    ]
}

/// Rebuilds a `fileatt` row from a [`FileStat`] (used by undelete).
pub(crate) fn stat_to_row(stat: &FileStat) -> Vec<Datum> {
    let mut flags = 0;
    if stat.compressed {
        flags |= FLAG_COMPRESSED;
    }
    if stat.self_identifying {
        flags |= FLAG_SELF_ID;
    }
    if stat.kind == FileKind::Directory {
        flags |= FLAG_DIRECTORY;
    }
    vec![
        Datum::Oid(stat.oid.0),
        Datum::Text(stat.owner.clone()),
        Datum::Oid(stat.ftype.map(|t| t.0).unwrap_or(0)),
        Datum::Int8(stat.size as i64),
        Datum::Time(stat.ctime.as_nanos()),
        Datum::Time(stat.mtime.as_nanos()),
        Datum::Time(stat.atime.as_nanos()),
        Datum::Int4(flags),
        Datum::Oid(stat.datarel.0),
        Datum::Oid(stat.chunkidx.0),
        Datum::Int4(stat.device.0 as i32),
    ]
}

/// Builds a `fileatt` row for a directory.
pub(crate) fn dir_fileatt_row(oid: Oid, owner: &str, now: SimInstant) -> Vec<Datum> {
    vec![
        Datum::Oid(oid.0),
        Datum::Text(owner.into()),
        Datum::Oid(0),
        Datum::Int8(0),
        Datum::Time(now.as_nanos()),
        Datum::Time(now.as_nanos()),
        Datum::Time(now.as_nanos()),
        Datum::Int4(FLAG_DIRECTORY),
        Datum::Oid(0),
        Datum::Oid(0),
        Datum::Int4(0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_creates_root_and_tables() {
        let fs = InversionFs::open_in_memory().unwrap();
        assert!(fs.root().is_valid());
        let db = fs.db();
        assert!(db.relation_id("naming").is_ok());
        assert!(db.relation_id("fileatt").is_ok());
        assert!(db.relation_id("naming_dir_idx").is_ok());
        let mut s = db.begin().unwrap();
        let stat = fs.stat_oid(&mut s, fs.root(), None).unwrap();
        assert_eq!(stat.kind, FileKind::Directory);
        assert_eq!(stat.owner, "root");
        s.commit().unwrap();
    }

    #[test]
    fn attach_finds_existing_root() {
        let fs = InversionFs::open_in_memory().unwrap();
        let db = fs.db().clone();
        let fs2 = InversionFs::attach(db).unwrap();
        assert_eq!(fs2.root(), fs.root());
    }

    #[test]
    fn create_mode_builder() {
        let m = CreateMode::default()
            .on_device(DeviceId(3))
            .owned_by("mao")
            .compressed()
            .without_history();
        assert_eq!(m.device, DeviceId(3));
        assert_eq!(m.owner, "mao");
        assert!(m.compressed);
        assert!(m.no_history);
        assert!(m.ftype.is_none());
    }

    #[test]
    fn stat_roundtrips_through_row() {
        let mode = CreateMode::default().owned_by("mao").with_type(TypeId(200));
        let now = SimInstant::from_nanos(42);
        let row = file_fileatt_row(Oid(7), &mode, now, Oid(100), Oid(101));
        let stat = InversionFs::stat_from_row(&row).unwrap();
        assert_eq!(stat.oid, Oid(7));
        assert_eq!(stat.kind, FileKind::Regular);
        assert_eq!(stat.owner, "mao");
        assert_eq!(stat.ftype, Some(TypeId(200)));
        assert_eq!(stat.size, 0);
        assert_eq!(stat.ctime, now);
        assert!(!stat.compressed);
        assert_eq!(stat.datarel, Oid(100));
        assert_eq!(stat.chunkidx, Oid(101));
    }

    #[test]
    fn error_display() {
        assert!(InvError::NoSuchPath("/x".into()).to_string().contains("/x"));
        assert!(InvError::BadFd(7).to_string().contains('7'));
        let e: InvError = DbError::Deadlock.into();
        assert!(e.to_string().contains("deadlock"));
    }
}
