//! The wire protocol: real binary framing for client/server Inversion.
//!
//! The paper ran Inversion client/server "via TCP/IP over a 10 Mbit/sec
//! Ethernet" and found the protocol "much too heavy-weight". Reproducing
//! that verdict honestly requires a *real* protocol, not a size estimate:
//! this module defines the byte-exact encoding of every [`Request`] and
//! every response, and everything that talks about message sizes —
//! [`Request::wire_size`], the simulated network charges, the `pg_stat_net`
//! byte counters — derives them from this one encoder, so the simulation and
//! the real framing can never disagree. A size is the encoder run over a
//! byte counter instead of a buffer: no frame is built, no payload copied
//! or checksummed, just to learn how long it would have been.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic      0x494E5646 ("INVF"), little-endian
//! 4       1     version    PROTOCOL_VERSION (currently 2)
//! 5       1     reserved   must be 0
//! 6       2     opcode     message kind (request or response), LE
//! 8       4     length     payload bytes that follow the header, LE
//! 12      4     checksum   [`checksum`] of the payload, LE
//! 16      N     payload    opcode-specific body
//! ```
//!
//! Integers are little-endian; strings and byte arrays are a `u32` length
//! followed by the bytes. The decoder enforces [`MAX_PAYLOAD`] against the
//! length prefix *before* allocating, rejects unknown opcodes and trailing
//! garbage, and classifies every failure as either *recoverable* (the frame
//! was fully consumed, the stream is still in sync — e.g. a checksum
//! mismatch) or *fatal* (framing itself is untrustworthy — bad magic, a
//! truncated header, an oversized length prefix).

use std::io::{self, Read, Write};

use minidb::{DbError, Oid, TypeId};
use simdev::SimInstant;

use crate::api::{OpenMode, SeekWhence};
use crate::fs::{CreateMode, FileKind, FileStat, InvError, InvResult, SliceRange};
use crate::server::{Request, Response};

/// Frame magic: "INVF".
pub const MAGIC: u32 = 0x494E_5646;
/// Current protocol version. Version 2 changed the payload checksum (see
/// [`checksum`]); a version 1 frame is refused as [`WireError::BadVersion`].
pub const PROTOCOL_VERSION: u8 = 2;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Largest payload the decoder accepts. [`crate::WireClient`] moves bulk
/// data in windows a quarter of this; the cap exists so a corrupt or hostile
/// length prefix cannot drive allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;

// Request opcodes.
const OP_BEGIN: u16 = 1;
const OP_COMMIT: u16 = 2;
const OP_ABORT: u16 = 3;
const OP_CREAT: u16 = 4;
const OP_OPEN: u16 = 5;
const OP_CLOSE: u16 = 6;
const OP_READ: u16 = 7;
const OP_WRITE: u16 = 8;
const OP_LSEEK: u16 = 9;
const OP_STAT: u16 = 10;
const OP_MKDIR: u16 = 11;
const OP_UNLINK: u16 = 12;
const OP_READDIR: u16 = 13;
const OP_RENAME: u16 = 14;
const OP_UNDELETE: u16 = 15;
const OP_SLICE: u16 = 16;

// Response opcodes.
const OP_R_OK: u16 = 100;
const OP_R_FD: u16 = 101;
const OP_R_DATA: u16 = 102;
const OP_R_COUNT: u16 = 103;
const OP_R_STAT: u16 = 104;
const OP_R_ENTRIES: u16 = 105;
const OP_R_ERR: u16 = 106;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying stream failed (message carries the io error text).
    Io(String),
    /// The magic number did not match — this is not an Inversion frame.
    BadMagic(u32),
    /// The peer speaks a protocol version we do not.
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The payload checksum did not match (frame consumed; stream in sync).
    Checksum,
    /// The opcode is not one we know.
    BadOpcode(u16),
    /// The payload did not parse under its opcode's schema.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversize(n) => write!(f, "length prefix {n} exceeds {MAX_PAYLOAD}"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Checksum => write!(f, "payload checksum mismatch"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

impl From<WireError> for InvError {
    fn from(e: WireError) -> InvError {
        InvError::Invalid(format!("wire: {e}"))
    }
}

const CHECKSUM_LANES: usize = 4;
/// Payload bytes per checksum step: one little-endian `u32` for each lane.
const CHECKSUM_BLOCK: usize = 4 * CHECKSUM_LANES;
const CHECKSUM_PRIME: u32 = 16_777_619;

/// One mixing step. For a fixed `w` it is a bijection of `h`, and for a
/// fixed `h` a bijection of `w` (xor, multiplication by an odd constant and
/// rotation each are) — the property [`checksum`]'s guarantee rests on.
#[inline(always)]
fn mix(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(CHECKSUM_PRIME).rotate_left(15)
}

fn mix_block(lanes: &mut [u32; CHECKSUM_LANES], block: &[u8; CHECKSUM_BLOCK]) {
    let (words, _) = block.as_chunks::<4>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = mix(*lane, u32::from_le_bytes(*word));
    }
}

/// The frame checksum: the payload is cut into 16-byte blocks (the last one
/// zero-padded), word `i` of each block is [`mix`]ed into lane `i`, and the
/// four lanes are then mixed, in order, into the payload length.
///
/// The lanes carry no dependency on one another, so the four multiplies of
/// a block overlap; byte-serial FNV-1a, which this replaces, spent a full
/// multiply latency on every byte.
///
/// **Every single-byte substitution changes the result.** Changing one byte
/// changes exactly one word; that lane's state differs after the step that
/// takes the word in, every later step maps distinct states to distinct
/// states, so the lane ends different while the other three and the length
/// end the same; the final fold takes the lanes in through the same
/// bijective step, so its result differs too. Transport garbage beyond
/// that is caught with the usual 2⁻³² odds; a wrong length is the length
/// prefix's business.
pub fn checksum(data: &[u8]) -> u32 {
    let mut lanes = [0x811C_9DC5, 0x0100_0193, 0x9E37_79B9, 0x85EB_CA6B];
    let (blocks, tail) = data.as_chunks::<CHECKSUM_BLOCK>();
    for block in blocks {
        mix_block(&mut lanes, block);
    }
    if !tail.is_empty() {
        let mut last = [0u8; CHECKSUM_BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        mix_block(&mut lanes, &last);
    }
    // Only the low 32 bits of the length take part; a payload is at most
    // MAX_PAYLOAD bytes.
    lanes
        .iter()
        .fold(data.len() as u32, |h, &lane| mix(h, lane))
}

// ---------------------------------------------------------------------------
// Primitive payload encoding.

/// Where an encoder's bytes go: a frame under construction, or a count of
/// them. Sizes are the encoders run over [`ByteCount`], so a reported size
/// and the frame it describes cannot drift apart.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_u8(out: &mut impl Sink, v: u8) {
    out.put(&[v]);
}

fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_le_bytes());
}

fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_le_bytes());
}

fn put_i32(out: &mut impl Sink, v: i32) {
    out.put(&v.to_le_bytes());
}

fn put_i64(out: &mut impl Sink, v: i64) {
    out.put(&v.to_le_bytes());
}

fn put_bytes(out: &mut impl Sink, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.put(b);
}

fn put_str(out: &mut impl Sink, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed(format!("need {n} bytes past {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_PAYLOAD {
            return Err(WireError::Malformed(format!("inner length {n} too large")));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Domain type encodings.

const CM_COMPRESSED: u8 = 1;
const CM_SELF_ID: u8 = 2;
const CM_NO_HISTORY: u8 = 4;

fn put_create_mode(out: &mut impl Sink, m: &CreateMode) {
    put_u8(out, m.device.0);
    let mut flags = 0u8;
    if m.compressed {
        flags |= CM_COMPRESSED;
    }
    if m.self_identifying {
        flags |= CM_SELF_ID;
    }
    if m.no_history {
        flags |= CM_NO_HISTORY;
    }
    put_u8(out, flags);
    put_u32(out, m.ftype.map(|t| t.0).unwrap_or(0));
    put_str(out, &m.owner);
}

fn get_create_mode(c: &mut Cursor<'_>) -> Result<CreateMode, WireError> {
    let device = minidb::DeviceId(c.u8()?);
    let flags = c.u8()?;
    let ftype = c.u32()?;
    let owner = c.str()?;
    Ok(CreateMode {
        device,
        owner,
        ftype: if ftype == 0 { None } else { Some(TypeId(ftype)) },
        compressed: flags & CM_COMPRESSED != 0,
        self_identifying: flags & CM_SELF_ID != 0,
        no_history: flags & CM_NO_HISTORY != 0,
    })
}

fn put_open_mode(out: &mut impl Sink, m: OpenMode) {
    put_u8(out, if m == OpenMode::ReadWrite { 1 } else { 0 });
}

fn get_open_mode(c: &mut Cursor<'_>) -> Result<OpenMode, WireError> {
    match c.u8()? {
        0 => Ok(OpenMode::Read),
        1 => Ok(OpenMode::ReadWrite),
        other => Err(WireError::Malformed(format!("open mode {other}"))),
    }
}

fn put_whence(out: &mut impl Sink, w: SeekWhence) {
    put_u8(
        out,
        match w {
            SeekWhence::Set => 0,
            SeekWhence::Cur => 1,
            SeekWhence::End => 2,
        },
    );
}

fn get_whence(c: &mut Cursor<'_>) -> Result<SeekWhence, WireError> {
    match c.u8()? {
        0 => Ok(SeekWhence::Set),
        1 => Ok(SeekWhence::Cur),
        2 => Ok(SeekWhence::End),
        other => Err(WireError::Malformed(format!("whence {other}"))),
    }
}

fn put_timestamp(out: &mut impl Sink, t: &Option<SimInstant>) {
    match t {
        None => put_u8(out, 0),
        Some(t) => {
            put_u8(out, 1);
            put_u64(out, t.as_nanos());
        }
    }
}

fn get_timestamp(c: &mut Cursor<'_>) -> Result<Option<SimInstant>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(SimInstant::from_nanos(c.u64()?))),
        other => Err(WireError::Malformed(format!("timestamp tag {other}"))),
    }
}

const FS_COMPRESSED: u8 = 1;
const FS_SELF_ID: u8 = 2;
const FS_DIRECTORY: u8 = 4;

fn put_stat(out: &mut impl Sink, s: &FileStat) {
    put_u32(out, s.oid.0);
    let mut flags = 0u8;
    if s.compressed {
        flags |= FS_COMPRESSED;
    }
    if s.self_identifying {
        flags |= FS_SELF_ID;
    }
    if s.kind == FileKind::Directory {
        flags |= FS_DIRECTORY;
    }
    put_u8(out, flags);
    put_str(out, &s.owner);
    put_u32(out, s.ftype.map(|t| t.0).unwrap_or(0));
    put_u64(out, s.size);
    put_u64(out, s.ctime.as_nanos());
    put_u64(out, s.mtime.as_nanos());
    put_u64(out, s.atime.as_nanos());
    put_u32(out, s.datarel.0);
    put_u32(out, s.chunkidx.0);
    put_u8(out, s.device.0);
}

fn get_stat(c: &mut Cursor<'_>) -> Result<FileStat, WireError> {
    let oid = Oid(c.u32()?);
    let flags = c.u8()?;
    let owner = c.str()?;
    let ftype = c.u32()?;
    let size = c.u64()?;
    let ctime = SimInstant::from_nanos(c.u64()?);
    let mtime = SimInstant::from_nanos(c.u64()?);
    let atime = SimInstant::from_nanos(c.u64()?);
    let datarel = Oid(c.u32()?);
    let chunkidx = Oid(c.u32()?);
    let device = minidb::DeviceId(c.u8()?);
    Ok(FileStat {
        oid,
        kind: if flags & FS_DIRECTORY != 0 {
            FileKind::Directory
        } else {
            FileKind::Regular
        },
        owner,
        ftype: if ftype == 0 { None } else { Some(TypeId(ftype)) },
        size,
        ctime,
        mtime,
        atime,
        compressed: flags & FS_COMPRESSED != 0,
        self_identifying: flags & FS_SELF_ID != 0,
        datarel,
        chunkidx,
        device,
    })
}

// Error tags. DbError variants that retry loops care about keep their
// identity across the wire; the rest degrade to their display text.
const E_NO_SUCH_PATH: u8 = 0;
const E_NOT_A_DIR: u8 = 1;
const E_IS_A_DIR: u8 = 2;
const E_EXISTS: u8 = 3;
const E_NOT_EMPTY: u8 = 4;
const E_BAD_FD: u8 = 5;
const E_READ_ONLY_FD: u8 = 6;
const E_BAD_PATH: u8 = 7;
const E_INVALID: u8 = 8;
const E_DB_DEADLOCK: u8 = 20;
const E_DB_LOCK_TIMEOUT: u8 = 21;
const E_DB_NO_TXN: u8 = 22;
const E_DB_TXN_ACTIVE: u8 = 23;
const E_DB_READ_ONLY: u8 = 24;
const E_DB_CORRUPT: u8 = 25;
const E_DB_OTHER: u8 = 26;

fn put_error(out: &mut impl Sink, e: &InvError) {
    match e {
        InvError::NoSuchPath(p) => {
            put_u8(out, E_NO_SUCH_PATH);
            put_str(out, p);
        }
        InvError::NotADirectory(p) => {
            put_u8(out, E_NOT_A_DIR);
            put_str(out, p);
        }
        InvError::IsADirectory(p) => {
            put_u8(out, E_IS_A_DIR);
            put_str(out, p);
        }
        InvError::Exists(p) => {
            put_u8(out, E_EXISTS);
            put_str(out, p);
        }
        InvError::NotEmpty(p) => {
            put_u8(out, E_NOT_EMPTY);
            put_str(out, p);
        }
        InvError::BadFd(fd) => {
            put_u8(out, E_BAD_FD);
            put_i32(out, *fd);
        }
        InvError::ReadOnlyFd(fd) => {
            put_u8(out, E_READ_ONLY_FD);
            put_i32(out, *fd);
        }
        InvError::BadPath(p) => {
            put_u8(out, E_BAD_PATH);
            put_str(out, p);
        }
        InvError::Invalid(m) => {
            put_u8(out, E_INVALID);
            put_str(out, m);
        }
        InvError::Db(db) => match db {
            DbError::Deadlock => put_u8(out, E_DB_DEADLOCK),
            DbError::LockTimeout => put_u8(out, E_DB_LOCK_TIMEOUT),
            DbError::NoTransaction => put_u8(out, E_DB_NO_TXN),
            DbError::TransactionActive => put_u8(out, E_DB_TXN_ACTIVE),
            DbError::ReadOnly => put_u8(out, E_DB_READ_ONLY),
            DbError::Corrupt(m) => {
                put_u8(out, E_DB_CORRUPT);
                put_str(out, m);
            }
            // `Invalid` is also what the catch-all decodes to; carrying its
            // text verbatim keeps re-encoding idempotent.
            DbError::Invalid(m) => {
                put_u8(out, E_DB_OTHER);
                put_str(out, m);
            }
            other => {
                put_u8(out, E_DB_OTHER);
                put_str(out, &other.to_string());
            }
        },
    }
}

fn get_error(c: &mut Cursor<'_>) -> Result<InvError, WireError> {
    Ok(match c.u8()? {
        E_NO_SUCH_PATH => InvError::NoSuchPath(c.str()?),
        E_NOT_A_DIR => InvError::NotADirectory(c.str()?),
        E_IS_A_DIR => InvError::IsADirectory(c.str()?),
        E_EXISTS => InvError::Exists(c.str()?),
        E_NOT_EMPTY => InvError::NotEmpty(c.str()?),
        E_BAD_FD => InvError::BadFd(c.i32()?),
        E_READ_ONLY_FD => InvError::ReadOnlyFd(c.i32()?),
        E_BAD_PATH => InvError::BadPath(c.str()?),
        E_INVALID => InvError::Invalid(c.str()?),
        E_DB_DEADLOCK => InvError::Db(DbError::Deadlock),
        E_DB_LOCK_TIMEOUT => InvError::Db(DbError::LockTimeout),
        E_DB_NO_TXN => InvError::Db(DbError::NoTransaction),
        E_DB_TXN_ACTIVE => InvError::Db(DbError::TransactionActive),
        E_DB_READ_ONLY => InvError::Db(DbError::ReadOnly),
        E_DB_CORRUPT => InvError::Db(DbError::Corrupt(c.str()?)),
        E_DB_OTHER => InvError::Db(DbError::Invalid(c.str()?)),
        other => return Err(WireError::Malformed(format!("error tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Frame assembly.

/// Starts a frame: room for the header, then the payload is appended.
fn begin_frame(wire_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(wire_size);
    out.resize(HEADER_LEN, 0);
    out
}

/// Writes the header of a frame whose payload is in place behind it.
fn seal_frame(mut out: Vec<u8>, opcode: u16) -> Vec<u8> {
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = PROTOCOL_VERSION;
    header[5] = 0;
    header[6..8].copy_from_slice(&opcode.to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..16].copy_from_slice(&checksum(payload).to_le_bytes());
    out
}

/// Builds a complete frame (header + payload) for `opcode`.
pub fn frame(opcode: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = begin_frame(HEADER_LEN + payload.len());
    out.put(payload);
    seal_frame(out, opcode)
}

/// Encodes a request's payload into `out`; returns its opcode.
fn put_request(out: &mut impl Sink, req: &Request) -> u16 {
    match req {
        Request::Begin => OP_BEGIN,
        Request::Commit => OP_COMMIT,
        Request::Abort => OP_ABORT,
        Request::Creat(path, mode) => {
            put_str(out, path);
            put_create_mode(out, mode);
            OP_CREAT
        }
        Request::Open(path, mode, ts) => {
            put_str(out, path);
            put_open_mode(out, *mode);
            put_timestamp(out, ts);
            OP_OPEN
        }
        Request::Close(fd) => {
            put_i32(out, *fd);
            OP_CLOSE
        }
        Request::Read(fd, len) => {
            put_i32(out, *fd);
            put_u64(out, *len as u64);
            OP_READ
        }
        Request::Write(fd, data) => {
            put_i32(out, *fd);
            put_bytes(out, data);
            OP_WRITE
        }
        Request::Lseek(fd, off, whence) => {
            put_i32(out, *fd);
            put_i64(out, *off);
            put_whence(out, *whence);
            OP_LSEEK
        }
        Request::Stat(path) => {
            put_str(out, path);
            OP_STAT
        }
        Request::Mkdir(path) => {
            put_str(out, path);
            OP_MKDIR
        }
        Request::Unlink(path) => {
            put_str(out, path);
            OP_UNLINK
        }
        Request::Readdir(path) => {
            put_str(out, path);
            OP_READDIR
        }
        Request::Rename(from, to) => {
            put_str(out, from);
            put_str(out, to);
            OP_RENAME
        }
        Request::Undelete(path, t) => {
            put_str(out, path);
            put_u64(out, t.as_nanos());
            OP_UNDELETE
        }
        Request::Slice(dest, mode, ranges) => {
            put_str(out, dest);
            put_create_mode(out, mode);
            put_u32(out, ranges.len() as u32);
            for r in ranges {
                put_str(out, &r.path);
                put_u64(out, r.offset);
                put_u64(out, r.len);
            }
            OP_SLICE
        }
    }
}

/// Encodes a server result's payload into `out`; returns its opcode.
fn put_response(out: &mut impl Sink, res: Result<&Response, &InvError>) -> u16 {
    match res {
        Ok(Response::Ok) => OP_R_OK,
        Ok(Response::Fd(fd)) => {
            put_i32(out, *fd);
            OP_R_FD
        }
        Ok(Response::Data(d)) => {
            put_bytes(out, d);
            OP_R_DATA
        }
        Ok(Response::Count(n)) => {
            put_u64(out, *n);
            OP_R_COUNT
        }
        Ok(Response::Stat(s)) => {
            put_stat(out, s);
            OP_R_STAT
        }
        Ok(Response::Entries(es)) => {
            put_u32(out, es.len() as u32);
            for (name, oid) in es {
                put_str(out, name);
                put_u32(out, oid.0);
            }
            OP_R_ENTRIES
        }
        Err(e) => {
            put_error(out, e);
            OP_R_ERR
        }
    }
}

/// The encoded size of a request (header + payload) — what
/// [`Request::wire_size`] and the network charges are derived from.
pub fn request_wire_size(req: &Request) -> usize {
    let mut n = ByteCount(HEADER_LEN);
    put_request(&mut n, req);
    n.0
}

/// The encoded size of a server result — what [`Response::wire_size`] and
/// the network charges are derived from.
pub fn response_wire_size(res: Result<&Response, &InvError>) -> usize {
    let mut n = ByteCount(HEADER_LEN);
    put_response(&mut n, res);
    n.0
}

/// Encodes a request as a complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = begin_frame(request_wire_size(req));
    let op = put_request(&mut out, req);
    seal_frame(out, op)
}

/// Encodes a server result (success or error) as a complete frame.
pub fn encode_response(res: &InvResult<Response>) -> Vec<u8> {
    let mut out = begin_frame(response_wire_size(res.as_ref()));
    let op = put_response(&mut out, res.as_ref());
    seal_frame(out, op)
}

/// Decodes a request payload under its opcode.
pub fn decode_request_frame(opcode: u16, payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let req = match opcode {
        OP_BEGIN => Request::Begin,
        OP_COMMIT => Request::Commit,
        OP_ABORT => Request::Abort,
        OP_CREAT => {
            let path = c.str()?;
            let mode = get_create_mode(&mut c)?;
            Request::Creat(path, mode)
        }
        OP_OPEN => {
            let path = c.str()?;
            let mode = get_open_mode(&mut c)?;
            let ts = get_timestamp(&mut c)?;
            Request::Open(path, mode, ts)
        }
        OP_CLOSE => Request::Close(c.i32()?),
        OP_READ => {
            let fd = c.i32()?;
            let len = c.u64()?;
            // The answer is the bytes behind a `u32` count, in one frame.
            if len > (MAX_PAYLOAD - 4) as u64 {
                return Err(WireError::Malformed(format!("read of {len} bytes")));
            }
            Request::Read(fd, len as usize)
        }
        OP_WRITE => {
            let fd = c.i32()?;
            let data = c.bytes()?;
            Request::Write(fd, data)
        }
        OP_LSEEK => {
            let fd = c.i32()?;
            let off = c.i64()?;
            let whence = get_whence(&mut c)?;
            Request::Lseek(fd, off, whence)
        }
        OP_STAT => Request::Stat(c.str()?),
        OP_MKDIR => Request::Mkdir(c.str()?),
        OP_UNLINK => Request::Unlink(c.str()?),
        OP_READDIR => Request::Readdir(c.str()?),
        OP_RENAME => {
            let from = c.str()?;
            let to = c.str()?;
            Request::Rename(from, to)
        }
        OP_UNDELETE => {
            let path = c.str()?;
            let t = SimInstant::from_nanos(c.u64()?);
            Request::Undelete(path, t)
        }
        OP_SLICE => {
            let dest = c.str()?;
            let mode = get_create_mode(&mut c)?;
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD / 20 {
                return Err(WireError::Malformed(format!("{n} slice ranges")));
            }
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                let path = c.str()?;
                let offset = c.u64()?;
                let len = c.u64()?;
                ranges.push(SliceRange { path, offset, len });
            }
            Request::Slice(dest, mode, ranges)
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes a response payload under its opcode.
pub fn decode_response_frame(opcode: u16, payload: &[u8]) -> Result<InvResult<Response>, WireError> {
    let mut c = Cursor::new(payload);
    let res = match opcode {
        OP_R_OK => Ok(Response::Ok),
        OP_R_FD => Ok(Response::Fd(c.i32()?)),
        OP_R_DATA => Ok(Response::Data(c.bytes()?)),
        OP_R_COUNT => Ok(Response::Count(c.u64()?)),
        OP_R_STAT => Ok(Response::Stat(Box::new(get_stat(&mut c)?))),
        OP_R_ENTRIES => {
            let n = c.u32()? as usize;
            if n > MAX_PAYLOAD / 5 {
                return Err(WireError::Malformed(format!("{n} directory entries")));
            }
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?;
                let oid = Oid(c.u32()?);
                es.push((name, oid));
            }
            Ok(Response::Entries(es))
        }
        OP_R_ERR => Err(get_error(&mut c)?),
        other => return Err(WireError::BadOpcode(other)),
    };
    c.finish()?;
    Ok(res)
}

/// Decodes a complete request frame from a byte slice (tests, simulation).
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = bytes;
    match read_frame(&mut r)? {
        FrameEvent::Frame { opcode, payload } if r.is_empty() => {
            decode_request_frame(opcode, &payload)
        }
        FrameEvent::Frame { .. } => Err(WireError::Malformed("trailing bytes after frame".into())),
        FrameEvent::Eof => Err(WireError::Truncated),
        FrameEvent::Corrupt(e) => Err(e),
    }
}

/// Decodes a complete response frame from a byte slice (tests, simulation).
pub fn decode_response(bytes: &[u8]) -> Result<InvResult<Response>, WireError> {
    let mut r = bytes;
    match read_frame(&mut r)? {
        FrameEvent::Frame { opcode, payload } if r.is_empty() => {
            decode_response_frame(opcode, &payload)
        }
        FrameEvent::Frame { .. } => Err(WireError::Malformed("trailing bytes after frame".into())),
        FrameEvent::Eof => Err(WireError::Truncated),
        FrameEvent::Corrupt(e) => Err(e),
    }
}

/// One event from the framing layer of a byte stream.
#[derive(Debug)]
pub enum FrameEvent {
    /// Clean end of stream at a frame boundary.
    Eof,
    /// A well-framed message (checksum verified); decode the payload with
    /// [`decode_request_frame`] / [`decode_response_frame`].
    Frame {
        /// The frame's opcode.
        opcode: u16,
        /// The frame's payload bytes.
        payload: Vec<u8>,
    },
    /// The frame was fully consumed but its payload is untrustworthy
    /// (checksum mismatch). The stream is still in sync; the session can
    /// report the error and continue.
    Corrupt(WireError),
}

/// Reads one frame from `r`. `Err` means the *stream* is no longer
/// trustworthy (bad magic, truncated frame, oversized length, i/o failure)
/// and the connection should be torn down.
pub fn read_frame<R: Read>(r: &mut R) -> Result<FrameEvent, WireError> {
    let mut hdr = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => return Ok(FrameEvent::Eof),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if hdr[4] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(hdr[4]));
    }
    let opcode = u16::from_le_bytes([hdr[6], hdr[7]]);
    let len = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
    let sum = u32::from_le_bytes([hdr[12], hdr[13], hdr[14], hdr[15]]);
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if checksum(&payload) != sum {
        return Ok(FrameEvent::Corrupt(WireError::Checksum));
    }
    Ok(FrameEvent::Frame { opcode, payload })
}

/// Writes a pre-encoded frame to `w`, flushing it onto the wire.
pub fn write_frame<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::Creat(
                "/a/file".into(),
                CreateMode::default()
                    .on_device(minidb::DeviceId(2))
                    .owned_by("mao")
                    .with_type(TypeId(7))
                    .compressed()
                    .self_identifying()
                    .without_history(),
            ),
            Request::Open("/x".into(), OpenMode::Read, Some(SimInstant::from_nanos(99))),
            Request::Open("/y".into(), OpenMode::ReadWrite, None),
            Request::Close(3),
            Request::Read(4, 8192),
            Request::Write(5, vec![1, 2, 3, 255]),
            Request::Lseek(6, -42, SeekWhence::End),
            Request::Stat("/s".into()),
            Request::Mkdir("/d".into()),
            Request::Unlink("/u".into()),
            Request::Readdir("/".into()),
            Request::Rename("/old".into(), "/new".into()),
            Request::Undelete("/lost".into(), SimInstant::from_nanos(4242)),
            Request::Slice(
                "/composed".into(),
                CreateMode::default().compressed(),
                vec![
                    SliceRange::new("/a", 0, 8128),
                    SliceRange::new("/b", 4096, 100),
                ],
            ),
        ]
    }

    fn sample_responses() -> Vec<InvResult<Response>> {
        let stat = FileStat {
            oid: Oid(9),
            kind: FileKind::Regular,
            owner: "root".into(),
            ftype: Some(TypeId(3)),
            size: 123456789,
            ctime: SimInstant::from_nanos(1),
            mtime: SimInstant::from_nanos(2),
            atime: SimInstant::from_nanos(3),
            compressed: true,
            self_identifying: false,
            datarel: Oid(100),
            chunkidx: Oid(101),
            device: minidb::DeviceId(1),
        };
        vec![
            Ok(Response::Ok),
            Ok(Response::Fd(77)),
            Ok(Response::Data(vec![0u8; 300])),
            Ok(Response::Count(1 << 40)),
            Ok(Response::Stat(Box::new(stat))),
            Ok(Response::Entries(vec![
                ("a".into(), Oid(1)),
                ("b".into(), Oid(2)),
            ])),
            Err(InvError::NoSuchPath("/gone".into())),
            Err(InvError::BadFd(12)),
            Err(InvError::Db(DbError::Deadlock)),
            Err(InvError::Db(DbError::Corrupt("page 9".into()))),
        ]
    }

    #[test]
    fn request_roundtrip_every_variant() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn response_roundtrip_every_variant() {
        for res in sample_responses() {
            let bytes = encode_response(&res);
            let back = decode_response(&bytes).unwrap();
            assert_eq!(format!("{res:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn corrupted_checksum_is_recoverable() {
        let mut bytes = encode_request(&Request::Stat("/x".into()));
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let mut r = &bytes[..];
        match read_frame(&mut r).unwrap() {
            FrameEvent::Corrupt(WireError::Checksum) => {}
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        assert!(r.is_empty(), "corrupt frame must still be fully consumed");
    }

    #[test]
    fn bad_magic_and_truncation_are_fatal() {
        let good = encode_request(&Request::Begin);
        let mut bad = good.clone();
        bad[0] = 0;
        let mut r = &bad[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::BadMagic(_))));

        for cut in 1..good.len() {
            let mut r = &good[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }

        let mut r = &good[..0];
        assert!(matches!(read_frame(&mut r).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocation() {
        let mut bytes = frame(OP_STAT, b"xx");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &bytes[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::Oversize(_))));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let bytes = frame(0xEEE, b"");
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::BadOpcode(0xEEE))
        ));
        assert!(matches!(
            decode_response(&bytes),
            Err(WireError::BadOpcode(0xEEE))
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        let mut p = Vec::new();
        put_i32(&mut p, 3);
        put_u8(&mut p, 99); // One byte too many for OP_CLOSE.
        let bytes = frame(OP_CLOSE, &p);
        assert!(matches!(
            decode_request(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
