//! The REDO-only write-ahead log.
//!
//! The paper's commit story — "when the status file is forced, the
//! transaction is durable" — forced every dirty data page before the status
//! write. This module replaces that with a no-force commit in the
//! Sauer/Härder single-pass-REDO style: writers append *physiological* REDO
//! records (logical within a page, physical across pages), commit becomes
//! one sequential force of the log's tail, and dirty data pages drain
//! lazily through checkpoints, run by the writer whose append puts the log
//! under pressure ([`Wal::over_pressure`]). The commit point is the
//! force that makes a transaction's `Commit` record stable.
//!
//! ## On-device layout
//!
//! The log device holds the log alone. Block 0 is the *control block*: the
//! epoch LSN, where the on-device log begins, and its checksum. The other
//! `N` blocks are one ring with no block header: stream offset `lsn` lives
//! in block `1 + (lsn / P) mod N` at byte `lsn mod P`, `P` the block size.
//! A record is `kind (1), body length (2), check (4), body`, and may span
//! blocks.
//!
//! LSNs are byte offsets into the virtual record stream and are *never*
//! reset — truncation advances the epoch LSN instead, so a page's stamped
//! LSN stays meaningful across checkpoints. A record's *end* LSN (always
//! nonzero) is what gets stamped into pages, so a never-logged page
//! (LSN 0) sorts before every record.
//!
//! ## The record check
//!
//! The check is the lane sum of [`crate::checksum`] over the body, with the
//! record's start LSN (two words) and its header word (kind and length)
//! mixed into the lane seeds first. Every single-byte substitution in kind,
//! length or body changes it, and so does a start LSN that differs in just
//! one of its two 32-bit words; one that differs in both passes with 2⁻³²
//! odds. The control block carries the same kernel's sum of its first 12
//! bytes, and its magic (`WLC3`) names the record check: a `WLC2` log,
//! checked with FNV-1a, is refused as corrupt rather than read as never
//! formatted.
//!
//! The check alone decides validity: recovery reads from the epoch LSN and
//! stops at the first record that fails it — zeros, a record cut short, or
//! one an earlier lap left at the same place, written at another LSN. A
//! record that passes but does not decode is corruption. An epoch holds at
//! most `(N - 1) * P` bytes, so the stream never laps the block it begins
//! in, and truncation ([`Wal::truncate_to`]) writes the control block and
//! syncs: one block, since the records past the cut already sit in place.
//!
//! ## The torn-force rule
//!
//! The log device may sit behind a volatile write cache that loses pending
//! blocks on a failed sync. The log therefore keeps every byte from the
//! durable horizon's block forward in memory and rewrites *all* non-durable
//! blocks on every force, the partly filled last one included. Block
//! contents are a deterministic function of the stream, so the rewrite is
//! idempotent: acknowledged bytes are the same in a block's old and new
//! image, and a write torn anywhere keeps them. A failed force followed by
//! a successful one can never leave a hole in the middle of acknowledged
//! records. A force writes its blocks in LSN order and syncs before it
//! wraps from the ring's last block to its first, so whatever prefix of it
//! a cache destages (in block order) is an LSN prefix of the stream.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;
use simdev::BLOCK_SIZE;

use crate::checksum::{checksum, seeded_checksum};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId, XactId};
use crate::page;
use crate::smgr::SharedDevice;
use crate::stats::StatsRegistry;

/// Record-stream bytes per ring block.
const BLOCK: u64 = BLOCK_SIZE as u64;

const CTRL_MAGIC: u32 = 0x574C_4333; // "WLC3"
/// The control block of a log whose record checks are FNV-1a: recovery
/// refuses it, as it cannot tell that log's records from garbage.
const CTRL_MAGIC_FNV: u32 = 0x574C_4332; // "WLC2"

/// Record kind tags on the wire.
const K_PAGE_INIT: u8 = 1;
const K_INSERT: u8 = 2;
const K_OVERWRITE: u8 = 3;
const K_PAGE_IMAGE: u8 = 4;
const K_COMMIT: u8 = 5;
const K_ABORT: u8 = 6;
const K_CEILING: u8 = 7;

/// Record header: kind (1) + body length (2) + check (4).
const REC_HDR: usize = 7;
/// Largest legal record body: a page image with no hole — its page
/// address, the hole's place and length, and the whole page.
const MAX_BODY: usize = 13 + 4 + crate::page::PAGE_SIZE;
const _: () = assert!(MAX_BODY <= u16::MAX as usize);
/// The end of every epoch, kept for 64 `Ceiling` records: reopening takes
/// an xid before a checkpoint may truncate a log a crash left full.
pub(crate) const CEILING_RESERVE: u64 = 64 * (REC_HDR as u64 + 8);

/// One physiological REDO record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// `page::init(buf, special_size)` on a fresh or reformatted page.
    PageInit {
        /// Device holding the page.
        dev: DeviceId,
        /// Relation holding the page.
        rel: RelId,
        /// Logical block number within the relation.
        blkno: u64,
        /// Bytes reserved for the special area.
        special_size: u16,
    },
    /// `page::insert_at(buf, slot, tuple)`. A heap appends, so its `slot`
    /// is the page's slot count at the time; a B-tree node inserts wherever
    /// key order puts the item.
    Insert {
        /// Device holding the page.
        dev: DeviceId,
        /// Relation holding the page.
        rel: RelId,
        /// Logical block number within the relation.
        blkno: u64,
        /// Slot the item went into (replay refuses a page too short for it).
        slot: u16,
        /// The full item bytes.
        tuple: Vec<u8>,
    },
    /// An in-place overwrite of part of one item (xmax stamping).
    Overwrite {
        /// Device holding the page.
        dev: DeviceId,
        /// Relation holding the page.
        rel: RelId,
        /// Logical block number within the relation.
        blkno: u64,
        /// Slot whose item is edited.
        slot: u16,
        /// Byte offset within the item.
        offset: u16,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// A full after-image of one page (B-tree structure changes). The log
    /// stores it without its hole ([`page::zero_hole`]): the page address,
    /// the hole's start and length (`u16` each), then the bytes outside
    /// it. An empty index root costs tens of bytes, not 8 KB.
    PageImage {
        /// Device holding the page.
        dev: DeviceId,
        /// Relation holding the page.
        rel: RelId,
        /// Logical block number within the relation.
        blkno: u64,
        /// The complete [`page::PAGE_SIZE`] image, hole and all: decoding
        /// puts the hole back as zeros.
        image: Vec<u8>,
    },
    /// Transaction commit; forcing this record *is* the commit point. Like
    /// the two records below it changes one page of the status relation
    /// ([`crate::xact`]).
    Commit {
        /// The committing transaction.
        xid: XactId,
        /// Commit time in simulated nanoseconds.
        time_ns: u64,
    },
    /// Transaction abort (advisory: a missing record means the same).
    Abort {
        /// The aborted transaction.
        xid: XactId,
    },
    /// The id allocation ceilings, raised: no xid or oid at or above these
    /// has been handed out. Appended, never forced — anything durable that
    /// carries an id was logged after the record that covers it. Status page
    /// 0 keeps the highest.
    Ceiling {
        /// First xid not yet covered.
        xid: XactId,
        /// First oid not yet covered.
        oid: Oid,
    },
}

impl WalRecord {
    /// The page this record modifies. Every record modifies one: an
    /// outcome its xid's status page, a `Ceiling` status page 0.
    pub fn page_addr(&self) -> (DeviceId, RelId, u64) {
        let status = |blkno| (DeviceId::CATALOG, crate::catalog::PG_LOG, blkno);
        match *self {
            WalRecord::PageInit { dev, rel, blkno, .. }
            | WalRecord::Insert { dev, rel, blkno, .. }
            | WalRecord::Overwrite { dev, rel, blkno, .. }
            | WalRecord::PageImage { dev, rel, blkno, .. } => (dev, rel, blkno),
            WalRecord::Commit { xid, .. } | WalRecord::Abort { xid } => {
                status(crate::xact::status_page(xid))
            }
            WalRecord::Ceiling { .. } => status(0),
        }
    }

    /// Encodes the record (header + body) onto `out`: the header with a
    /// placeholder length, the body in place, then the length back-patched.
    /// The check stays zero: only [`Wal::append`] knows the start LSN.
    fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0; REC_HDR]);
        out[start] = match self {
            WalRecord::PageInit {
                dev,
                rel,
                blkno,
                special_size,
            } => {
                put_addr(out, *dev, *rel, *blkno);
                out.extend_from_slice(&special_size.to_le_bytes());
                K_PAGE_INIT
            }
            WalRecord::Insert {
                dev,
                rel,
                blkno,
                slot,
                tuple,
            } => {
                put_addr(out, *dev, *rel, *blkno);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(tuple);
                K_INSERT
            }
            WalRecord::Overwrite {
                dev,
                rel,
                blkno,
                slot,
                offset,
                bytes,
            } => {
                put_addr(out, *dev, *rel, *blkno);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(bytes);
                K_OVERWRITE
            }
            WalRecord::PageImage {
                dev,
                rel,
                blkno,
                image,
            } => {
                put_addr(out, *dev, *rel, *blkno);
                let (start, len) = page::zero_hole(image);
                out.extend_from_slice(&(start as u16).to_le_bytes());
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&image[..start]);
                out.extend_from_slice(&image[start + len..]);
                K_PAGE_IMAGE
            }
            WalRecord::Commit { xid, time_ns } => {
                out.extend_from_slice(&xid.0.to_le_bytes());
                out.extend_from_slice(&time_ns.to_le_bytes());
                K_COMMIT
            }
            WalRecord::Abort { xid } => {
                out.extend_from_slice(&xid.0.to_le_bytes());
                K_ABORT
            }
            WalRecord::Ceiling { xid, oid } => {
                out.extend_from_slice(&xid.0.to_le_bytes());
                out.extend_from_slice(&oid.0.to_le_bytes());
                K_CEILING
            }
        };
        let body = (out.len() - start - REC_HDR) as u16;
        out[start + 1..start + 3].copy_from_slice(&body.to_le_bytes());
    }

    /// Decodes one record from `buf`, returning it and the bytes consumed.
    /// `None` means `buf` ends mid-record. The check is the caller's.
    fn decode(buf: &[u8]) -> DbResult<Option<(WalRecord, usize)>> {
        if buf.len() < REC_HDR {
            return Ok(None);
        }
        let kind = buf[0];
        let len = crate::bytes::le_u16(buf, 1)? as usize;
        if len > MAX_BODY {
            return Err(DbError::Corrupt(format!("bad WAL record length {len} (kind {kind})")));
        }
        if buf.len() < REC_HDR + len {
            return Ok(None);
        }
        let body = &buf[REC_HDR..REC_HDR + len];
        let rec = match kind {
            K_PAGE_INIT => {
                let (dev, rel, blkno) = get_addr(body)?;
                WalRecord::PageInit {
                    dev,
                    rel,
                    blkno,
                    special_size: crate::bytes::le_u16(body, 13)?,
                }
            }
            K_INSERT => {
                let (dev, rel, blkno) = get_addr(body)?;
                WalRecord::Insert {
                    dev,
                    rel,
                    blkno,
                    slot: crate::bytes::le_u16(body, 13)?,
                    tuple: body
                        .get(15..)
                        .ok_or_else(|| DbError::Corrupt("short insert record".into()))?
                        .to_vec(),
                }
            }
            K_OVERWRITE => {
                let (dev, rel, blkno) = get_addr(body)?;
                WalRecord::Overwrite {
                    dev,
                    rel,
                    blkno,
                    slot: crate::bytes::le_u16(body, 13)?,
                    offset: crate::bytes::le_u16(body, 15)?,
                    bytes: body
                        .get(17..)
                        .ok_or_else(|| DbError::Corrupt("short overwrite record".into()))?
                        .to_vec(),
                }
            }
            K_PAGE_IMAGE => {
                let (dev, rel, blkno) = get_addr(body)?;
                let start = crate::bytes::le_u16(body, 13)? as usize;
                let len = crate::bytes::le_u16(body, 15)? as usize;
                let rest = &body[17..];
                let head = rest
                    .get(..start)
                    .ok_or_else(|| DbError::Corrupt("page image hole runs past its record".into()))?;
                let mut image = head.to_vec();
                image.resize(start + len, 0);
                image.extend_from_slice(&rest[start..]);
                if image.len() != page::PAGE_SIZE {
                    return Err(DbError::Corrupt(format!(
                        "page image of {} bytes",
                        image.len()
                    )));
                }
                WalRecord::PageImage {
                    dev,
                    rel,
                    blkno,
                    image,
                }
            }
            K_COMMIT => WalRecord::Commit {
                xid: XactId(crate::bytes::le_u32(body, 0)?),
                time_ns: crate::bytes::le_u64(body, 4)?,
            },
            K_ABORT => WalRecord::Abort {
                xid: XactId(crate::bytes::le_u32(body, 0)?),
            },
            K_CEILING => WalRecord::Ceiling {
                xid: XactId(crate::bytes::le_u32(body, 0)?),
                oid: Oid(crate::bytes::le_u32(body, 4)?),
            },
            other => return Err(DbError::Corrupt(format!("bad WAL record kind {other}"))),
        };
        Ok(Some((rec, REC_HDR + len)))
    }

    /// Replays this record against the page buffer it addresses. The caller
    /// checks the LSN gate and stamps the page LSN afterwards.
    pub fn redo(&self, buf: &mut [u8]) -> DbResult<()> {
        match self {
            WalRecord::PageInit { special_size, .. } => {
                page::init(buf, *special_size as usize);
                Ok(())
            }
            WalRecord::Insert { slot, tuple, .. } => {
                // A page with no special area is a heap page, whose slot
                // numbers are tuple ids: only an append may replay there.
                let n = page::nslots(buf);
                if page::special(buf).is_empty() && *slot != n {
                    return Err(DbError::Corrupt(format!(
                        "REDO insert landed in slot {n}, logged {slot}"
                    )));
                }
                page::insert_at(buf, *slot, tuple)
            }
            WalRecord::Overwrite {
                slot,
                offset,
                bytes,
                ..
            } => {
                let item = page::item_mut(buf, *slot)
                    .ok_or_else(|| DbError::Corrupt(format!("REDO overwrite of slot {slot}")))?;
                let at = *offset as usize;
                let end = at
                    .checked_add(bytes.len())
                    .filter(|&e| e <= item.len())
                    .ok_or_else(|| DbError::Corrupt("REDO overwrite out of item".into()))?;
                item[at..end].copy_from_slice(bytes);
                Ok(())
            }
            WalRecord::PageImage { image, .. } => {
                buf.copy_from_slice(image);
                Ok(())
            }
            WalRecord::Commit { .. } | WalRecord::Abort { .. } | WalRecord::Ceiling { .. } => {
                crate::xact::redo(self, buf)
            }
        }
    }
}

fn put_addr(body: &mut Vec<u8>, dev: DeviceId, rel: RelId, blkno: u64) {
    body.push(dev.0);
    body.extend_from_slice(&rel.0.to_le_bytes());
    body.extend_from_slice(&blkno.to_le_bytes());
}

fn get_addr(body: &[u8]) -> DbResult<(DeviceId, RelId, u64)> {
    if body.len() < 13 {
        return Err(DbError::Corrupt("short WAL page address".into()));
    }
    Ok((
        DeviceId(body[0]),
        Oid(crate::bytes::le_u32(body, 1)?),
        crate::bytes::le_u64(body, 5)?,
    ))
}

/// The check of the encoded record `rec` that starts at stream offset
/// `lsn`: the body's [`checksum`] with the LSN's two words and the header
/// word (kind and length) mixed into the lane seeds first.
fn check(lsn: u64, rec: &[u8]) -> u32 {
    let head = u32::from_le_bytes([rec[0], rec[1], rec[2], 0]);
    seeded_checksum([lsn as u32, (lsn >> 32) as u32, head, 0], &rec[REC_HDR..])
}

struct WalInner {
    /// Stream offset where the on-device epoch begins.
    epoch_lsn: u64,
    /// Next byte to append.
    next_lsn: u64,
    /// Everything below this is on stable storage.
    durable_lsn: u64,
    /// Stream offset of `buf[0]`; always a multiple of the block size.
    buf_base: u64,
    /// Bytes `[buf_base, next_lsn)` — retained until a sync *succeeds*.
    buf: Vec<u8>,
}

/// The write-ahead log: an append buffer over a ring of blocks on the log
/// device. Appends are cheap memory copies under the `wal` rank; forces
/// rewrite every non-durable block and sync once, serialised by the
/// `wal-flush` rank and with the `wal` mutex *released* during the I/O —
/// so records appended while one force is on the device are all covered
/// by the next, and a committer whose record someone else's force
/// already covered returns without a sync. That is the whole of group
/// commit.
pub struct Wal {
    dev: SharedDevice,
    /// Blocks in the ring: every block of the device but the control block.
    ring: u64,
    stats: Arc<StatsRegistry>,
    /// Serialises forces and truncation. While it is held, `buf_base` and
    /// `durable_lsn` do not change and `buf` only grows, so a tail
    /// snapshotted under `inner` stays a valid image of the device blocks
    /// it maps to.
    flush: Mutex<()>,
    inner: Mutex<WalInner>,
    /// Set when the epoch has grown past half the capacity (checkpoint cue).
    pressure: AtomicBool,
}

impl Wal {
    /// Formats a fresh, empty log on `dev` and syncs the control block so
    /// recovery always finds a valid epoch.
    pub fn create(dev: SharedDevice, stats: Arc<StatsRegistry>) -> DbResult<Wal> {
        let wal = Wal::on_device(dev, stats, 0)?;
        wal.write_control(0)?;
        Ok(wal)
    }

    /// Re-attaches to an existing log, scanning the record stream
    /// from the stored epoch. Returns the log (positioned to keep
    /// appending after the last whole record) and every decoded record
    /// with its end LSN, in order.
    pub fn recover(
        dev: SharedDevice,
        stats: Arc<StatsRegistry>,
    ) -> DbResult<(Wal, Vec<(u64, WalRecord)>)> {
        let epoch = {
            let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            let mut blk = vec![0u8; BLOCK_SIZE];
            dev.lock().read_block(0, &mut blk)?;
            match crate::bytes::le_u32(&blk, 0)? {
                CTRL_MAGIC => {
                    if crate::bytes::le_u32(&blk, 12)? != checksum(&blk[0..12]) {
                        return Err(DbError::Corrupt("WAL control block checksum".into()));
                    }
                    crate::bytes::le_u64(&blk, 4)?
                }
                CTRL_MAGIC_FNV => {
                    return Err(DbError::Corrupt(
                        "WAL control block is format WLC2, whose records carry FNV-1a \
                         checks; this log format (WLC3) cannot read them"
                            .into(),
                    ))
                }
                // Never formatted (crash before the first control sync):
                // nothing was acknowledged, so an empty epoch-0 log is right.
                _ => 0,
            }
        };
        let wal = Wal::on_device(dev, stats, epoch)?;
        let records = wal.scan()?;
        Ok((wal, records))
    }

    fn on_device(dev: SharedDevice, stats: Arc<StatsRegistry>, epoch: u64) -> DbResult<Wal> {
        let nblocks = {
            let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            dev.lock().nblocks()
        };
        let ring = nblocks.saturating_sub(1);
        if ring < 2 {
            return Err(DbError::Invalid(format!(
                "log device of {nblocks} blocks has no room for a log"
            )));
        }
        Ok(Wal {
            dev,
            ring,
            stats,
            flush: Mutex::new(()),
            inner: Mutex::new(WalInner {
                epoch_lsn: epoch,
                next_lsn: epoch,
                durable_lsn: epoch,
                buf_base: epoch - epoch % BLOCK,
                buf: Vec::new(),
            }),
            pressure: AtomicBool::new(false),
        })
    }

    /// Device block holding stream offset `lsn`.
    fn block_of(&self, lsn: u64) -> u64 {
        1 + (lsn / BLOCK) % self.ring
    }

    /// The registry this log counts into; a caller whose
    /// [`Wal::force_up_to`] forced counts it there under its own name.
    pub(crate) fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Record-stream capacity of one epoch, in bytes: the ring less one
    /// block, so the stream never laps the block its epoch begins in.
    pub fn capacity(&self) -> u64 {
        (self.ring - 1) * BLOCK
    }

    /// Appends `rec`, returning its end LSN. The record is volatile until
    /// a force covers it; appending never touches the device. The record
    /// is encoded straight into the append buffer — one copy of its bytes.
    /// Only a `Ceiling` record may use the epoch's last `CEILING_RESERVE`.
    pub fn append(&self, rec: &WalRecord) -> DbResult<u64> {
        let reserve = if matches!(rec, WalRecord::Ceiling { .. }) { 0 } else { CEILING_RESERVE };
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        let start = g.buf.len();
        rec.encode(&mut g.buf);
        let len = (g.buf.len() - start) as u64;
        let used = g.next_lsn - g.epoch_lsn;
        if used + len + reserve > self.capacity() {
            g.buf.truncate(start);
            return Err(DbError::Invalid(format!(
                "WAL full: epoch holds {used} of {} bytes and the record needs {len}",
                self.capacity() - reserve,
            )));
        }
        let ck = check(g.next_lsn, &g.buf[start..]);
        g.buf[start + 3..start + REC_HDR].copy_from_slice(&ck.to_le_bytes());
        g.next_lsn += len;
        if used + len > self.capacity() / 2 {
            self.pressure.store(true, SeqCst);
        }
        self.stats.wal.records_appended.bump();
        self.stats.wal.bytes_appended.add(len);
        Ok(g.next_lsn)
    }

    /// Makes the stream durable up to `lsn` — the one durability
    /// primitive: commit calls it with its `Commit` record's end LSN, and
    /// the buffer manager with a page's stamped LSN before writing the page
    /// (the LSN-before-write rule). Those are the only things that force
    /// the log, and `xtask lint` (`wal-force-site`) keeps it so. Returns
    /// whether *this call* wrote and synced — the caller then counts the
    /// force under its own name in `pg_stat_wal`; `false` means an earlier
    /// force had already covered `lsn`.
    pub fn force_up_to(&self, lsn: u64) -> DbResult<bool> {
        let _order = crate::lock::order::token(crate::lock::order::WAL_FLUSH);
        let _flush = self.flush.lock();
        let (base, tail) = {
            let _order = crate::lock::order::token(crate::lock::order::WAL);
            let g = self.inner.lock();
            if lsn <= g.durable_lsn {
                return Ok(false);
            }
            (g.buf_base, g.buf.clone())
        };
        // The device I/O runs with `inner` released: appenders keep going.
        // A failure leaves `durable_lsn` (and the buffer) untouched, so a
        // later force retries the whole tail.
        self.write_blocks(base, &tail)?;
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        g.durable_lsn = base + tail.len() as u64;
        // Complete blocks are never rewritten again; only the partly filled
        // last block's bytes stay for the next force.
        let whole = tail.len() - tail.len() % BLOCK_SIZE;
        g.buf.drain(..whole);
        g.buf_base += whole as u64;
        self.stats.wal.log_forces.bump();
        Ok(true)
    }

    /// Writes stream bytes `[base, base + bytes.len())` into the ring,
    /// block by block in LSN order, and syncs. `base` is a multiple of the
    /// block size. Every call rewrites every block it is given — see the
    /// torn-force rule above.
    fn write_blocks(&self, base: u64, bytes: &[u8]) -> DbResult<()> {
        let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        let mut blk = vec![0u8; BLOCK_SIZE];
        for (i, chunk) in bytes.chunks(BLOCK_SIZE).enumerate() {
            let blkno = self.block_of(base + (i * BLOCK_SIZE) as u64);
            if blkno == 1 && i > 0 {
                d.sync()?; // The wrap: see the torn-force rule.
            }
            blk[..chunk.len()].copy_from_slice(chunk);
            blk[chunk.len()..].fill(0);
            d.write_block(blkno, &blk)?;
        }
        d.sync()?;
        Ok(())
    }

    /// Advances the epoch to `cut` — an earlier [`Wal::next_lsn`] —
    /// discarding `[epoch, cut)` and keeping `[cut, next)`. Legal only when
    /// every page change below `cut` — outcomes and ceilings on status pages
    /// included — is durably on its device (i.e. at the end of a checkpoint
    /// whose flush began after the cut was taken). Writes and syncs the
    /// control block, and nothing else.
    pub fn truncate_to(&self, cut: u64) -> DbResult<()> {
        // Held throughout: no force may publish a tail taken before the
        // buffer below the cut is let go.
        let _order = crate::lock::order::token(crate::lock::order::WAL_FLUSH);
        let _flush = self.flush.lock();
        let cut = {
            let _order = crate::lock::order::token(crate::lock::order::WAL);
            let g = self.inner.lock();
            if cut <= g.epoch_lsn {
                return Ok(()); // Nothing to discard.
            }
            cut.min(g.next_lsn)
        };
        self.write_control(cut)?;
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        g.epoch_lsn = cut;
        if g.durable_lsn < cut {
            // What lies below the cut is in durable pages: it need never
            // reach the log.
            let from = cut - cut % BLOCK;
            let drop = (from - g.buf_base) as usize;
            g.buf.drain(..drop);
            g.buf_base = from;
            g.durable_lsn = cut;
        }
        if g.next_lsn - cut <= self.capacity() / 2 {
            self.pressure.store(false, SeqCst);
        }
        Ok(())
    }

    fn write_control(&self, epoch: u64) -> DbResult<()> {
        let mut blk = vec![0u8; BLOCK_SIZE];
        blk[0..4].copy_from_slice(&CTRL_MAGIC.to_le_bytes());
        blk[4..12].copy_from_slice(&epoch.to_le_bytes());
        let ck = checksum(&blk[0..12]);
        blk[12..16].copy_from_slice(&ck.to_le_bytes());
        let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        d.write_block(0, &blk)?;
        d.sync()?;
        Ok(())
    }

    /// Whether the epoch has outgrown half the capacity since the last
    /// truncation — the cue for the writer that sees it to checkpoint.
    pub fn over_pressure(&self) -> bool {
        self.pressure.load(SeqCst)
    }

    /// Bytes appended in the current epoch (durable or not).
    pub fn epoch_bytes(&self) -> u64 {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let g = self.inner.lock();
        g.next_lsn - g.epoch_lsn
    }

    /// The durable horizon.
    pub fn durable_lsn(&self) -> u64 {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        self.inner.lock().durable_lsn
    }

    /// The end of the stream — the next record's start LSN, and the cut a
    /// checkpoint takes before it flushes: every record below it describes
    /// a page already dirty in the pool.
    pub fn next_lsn(&self) -> u64 {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        self.inner.lock().next_lsn
    }

    /// Reads the on-device epoch back as `(end_lsn, record)` pairs, and
    /// repositions the in-memory stream to continue after the last one.
    /// The scan stops, without error, at the first record whose check
    /// fails (see the module docs); a record past that point was never
    /// acknowledged, since a successful force destages every block, in
    /// LSN order, before it returns.
    fn scan(&self) -> DbResult<Vec<(u64, WalRecord)>> {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        let (epoch, base) = (g.epoch_lsn, g.buf_base);
        let end = epoch + self.capacity();
        // The stream's bytes from `base`, read a block at a time as needed.
        let mut stream = Vec::new();
        let mut records = Vec::new();
        let mut at = epoch;
        {
            let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            let mut d = self.dev.lock();
            let mut blk = vec![0u8; BLOCK_SIZE];
            // Whether the stream now covers `[base, upto)`: false past the
            // end of the epoch, where no record reaches.
            let mut cover = |stream: &mut Vec<u8>, upto: u64| -> DbResult<bool> {
                while upto <= end && base + (stream.len() as u64) < upto {
                    d.read_block(self.block_of(base + stream.len() as u64), &mut blk)?;
                    stream.extend_from_slice(&blk);
                }
                Ok(upto <= end)
            };
            while cover(&mut stream, at + REC_HDR as u64)? {
                let from = (at - base) as usize;
                let len = REC_HDR + crate::bytes::le_u16(&stream, from + 1)? as usize;
                if len > REC_HDR + MAX_BODY || !cover(&mut stream, at + len as u64)? {
                    break;
                }
                let rec = &stream[from..from + len];
                if crate::bytes::le_u32(rec, 3)? != check(at, rec) {
                    break;
                }
                let (rec, _) = WalRecord::decode(rec)?
                    .ok_or_else(|| DbError::Corrupt("WAL record cut short".into()))?;
                at += len as u64;
                records.push((at, rec));
            }
        }
        g.next_lsn = at;
        g.durable_lsn = at;
        // Keep the partly filled last block in memory so the next force
        // can rewrite that block in full.
        g.buf_base = at - at % BLOCK;
        g.buf = stream[(g.buf_base - base) as usize..(at - base) as usize].to_vec();
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smgr::shared_device;
    use simdev::{DiskProfile, MagneticDisk, SimClock};
    use std::sync::atomic::AtomicU64;

    fn log_device(nblocks: u64) -> SharedDevice {
        shared_device(MagneticDisk::new(
            "log",
            SimClock::new(),
            DiskProfile::tiny_for_tests(nblocks),
        ))
    }

    fn reg() -> Arc<StatsRegistry> {
        Arc::new(StatsRegistry::new())
    }

    fn insert_rec(blkno: u64, slot: u16, n: usize) -> WalRecord {
        WalRecord::Insert {
            dev: DeviceId::DEFAULT,
            rel: Oid(7),
            blkno,
            slot,
            tuple: vec![slot as u8; n],
        }
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        let recs = [
            WalRecord::PageInit {
                dev: DeviceId(3),
                rel: Oid(9),
                blkno: 12,
                special_size: 16,
            },
            insert_rec(5, 2, 40),
            WalRecord::Overwrite {
                dev: DeviceId::DEFAULT,
                rel: Oid(7),
                blkno: 5,
                slot: 2,
                offset: 4,
                bytes: vec![1, 2, 3],
            },
            WalRecord::PageImage {
                dev: DeviceId::DEFAULT,
                rel: Oid(8),
                blkno: 0,
                image: vec![9u8; page::PAGE_SIZE],
            },
            WalRecord::Commit {
                xid: XactId(42),
                time_ns: 123_456,
            },
            WalRecord::Abort { xid: XactId(43) },
            WalRecord::Ceiling {
                xid: XactId(2048),
                oid: Oid(3048),
            },
        ];
        for rec in &recs {
            let mut bytes = Vec::new();
            rec.encode(&mut bytes);
            let (back, n) = WalRecord::decode(&bytes).unwrap().unwrap();
            assert_eq!(&back, rec);
            assert_eq!(n, bytes.len());
            // A truncated prefix is a torn tail, not an error.
            assert!(WalRecord::decode(&bytes[..n - 1]).unwrap().is_none());
        }
    }

    #[test]
    fn append_force_recover_roundtrip() {
        let dev = log_device(4096);
        let end;
        {
            let wal = Wal::create(dev.clone(), reg()).unwrap();
            wal.append(&insert_rec(0, 0, 100)).unwrap();
            end = wal
                .append(&WalRecord::Commit {
                    xid: XactId(2),
                    time_ns: 5,
                })
                .unwrap();
            assert!(wal.force_up_to(end).unwrap());
            assert_eq!(wal.durable_lsn(), end);
            // Already covered: no second force, and the call says so.
            assert!(!wal.force_up_to(end).unwrap());
            // Appended but never forced: lost on "crash", and that is fine.
            wal.append(&insert_rec(1, 0, 50)).unwrap();
        }
        let (wal, recs) = Wal::recover(dev, reg()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].0, end);
        assert!(matches!(recs[1].1, WalRecord::Commit { xid: XactId(2), .. }));
        assert_eq!(wal.durable_lsn(), end);
        // The recovered log keeps appending where the stream left off.
        wal.append(&insert_rec(2, 0, 10)).unwrap();
        wal.force_up_to(wal.next_lsn()).unwrap();
    }

    #[test]
    fn records_span_blocks() {
        let dev = log_device(4096);
        let n = 40;
        {
            let wal = Wal::create(dev.clone(), reg()).unwrap();
            for i in 0..n {
                // ~1 KB each: the stream crosses several block boundaries.
                wal.append(&insert_rec(i, 0, 1000)).unwrap();
            }
            wal.force_up_to(wal.next_lsn()).unwrap();
        }
        let (_, recs) = Wal::recover(dev, reg()).unwrap();
        assert_eq!(recs.len() as u64, n);
        for (i, (_, rec)) in recs.iter().enumerate() {
            assert_eq!(*rec, insert_rec(i as u64, 0, 1000));
        }
    }

    #[test]
    fn failed_force_leaves_no_hole() {
        // A force that dies mid-destage must not let a later force strand
        // earlier records: everything non-durable is rewritten every time.
        let clock = SimClock::new();
        let disk = MagneticDisk::new("log", clock.clone(), DiskProfile::tiny_for_tests(4096));
        let (disk, faults) = simdev::Faulty::new(disk);
        let (cache, _handle) = simdev::WriteCacheDisk::new(Box::new(disk));
        let dev = shared_device(cache);
        let wal = Wal::create(dev.clone(), reg()).unwrap();

        for i in 0..4 {
            wal.append(&insert_rec(i, 0, 3000)).unwrap();
        }
        faults.fail_after_writes(1);
        assert!(wal.force_up_to(wal.next_lsn()).is_err());
        faults.clear_write_fault();

        wal.append(&insert_rec(9, 0, 100)).unwrap();
        wal.force_up_to(wal.next_lsn()).unwrap();

        let (_, recs) = Wal::recover(dev, reg()).unwrap();
        assert_eq!(recs.len(), 5, "all five records must survive the retry");
        assert_eq!(recs[4].1, insert_rec(9, 0, 100));
    }

    #[test]
    fn truncate_empties_the_epoch() {
        let dev = log_device(4096);
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        for i in 0..10 {
            wal.append(&insert_rec(i, 0, 2000)).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        let before = wal.epoch_bytes();
        assert!(before > 0);
        wal.truncate_to(wal.next_lsn()).unwrap();
        assert_eq!(wal.epoch_bytes(), 0);
        let (wal, recs) = Wal::recover(dev.clone(), reg()).unwrap();
        assert!(recs.is_empty(), "truncated log must scan empty");
        // LSNs keep growing across the truncation.
        let end = wal.append(&insert_rec(0, 1, 10)).unwrap();
        assert!(end > before);
        wal.force_up_to(wal.next_lsn()).unwrap();
        let (_, recs) = Wal::recover(dev, reg()).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn truncate_preserves_the_tail_past_the_cut() {
        // Records appended while a checkpoint flushes land after the cut
        // and must survive the truncation — across repeated truncations,
        // which move the epoch along the ring.
        let dev = log_device(4096);
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        for round in 0..3u64 {
            for i in 0..6 {
                wal.append(&insert_rec(round * 100 + i, 0, 2500)).unwrap();
            }
            let cut = wal.next_lsn();
            wal.append(&insert_rec(round * 100 + 90, 0, 2500)).unwrap();
            wal.append(&WalRecord::Commit {
                xid: XactId(round as u32 + 2),
                time_ns: round,
            })
            .unwrap();
            wal.force_up_to(wal.next_lsn()).unwrap();
            wal.truncate_to(cut).unwrap();
            assert!(wal.epoch_bytes() > 0, "the tail must survive");

            let (wal2, recs) = Wal::recover(dev.clone(), reg()).unwrap();
            assert_eq!(recs.len(), 2, "round {round}: exactly the tail survives");
            assert_eq!(recs[0].1, insert_rec(round * 100 + 90, 0, 2500));
            assert!(matches!(recs[1].1, WalRecord::Commit { .. }));
            assert_eq!(wal2.next_lsn(), wal.next_lsn());
            drop(wal2);
        }
    }

    /// A device that counts the blocks read and written, and the syncs.
    struct CountIo(MagneticDisk, Arc<[AtomicU64; 3]>);

    impl simdev::BlockDevice for CountIo {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn nblocks(&self) -> u64 {
            self.0.nblocks()
        }
        fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> simdev::DevResult<()> {
            self.1[0].fetch_add(1, SeqCst);
            self.0.read_block(blkno, buf)
        }
        fn write_block(&mut self, blkno: u64, buf: &[u8]) -> simdev::DevResult<()> {
            self.1[1].fetch_add(1, SeqCst);
            self.0.write_block(blkno, buf)
        }
        fn sync(&mut self) -> simdev::DevResult<()> {
            self.1[2].fetch_add(1, SeqCst);
            self.0.sync()
        }
    }

    #[test]
    fn truncation_keeps_a_long_forced_tail_without_reading_the_device() {
        // A checkpoint that flushes for a while lets writers append — and
        // force — many blocks past its cut. They survive the truncation,
        // which reads nothing and writes and syncs the control block alone.
        let io = Arc::new([0, 0, 0].map(AtomicU64::new));
        let count = |i: usize| io[i].load(SeqCst);
        let disk = MagneticDisk::new("log", SimClock::new(), DiskProfile::tiny_for_tests(4096));
        let dev = shared_device(CountIo(disk, Arc::clone(&io)));
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        for round in 0..3u64 {
            for i in 0..5 {
                wal.append(&insert_rec(round * 100 + i, 0, 3000)).unwrap();
            }
            let cut = wal.next_lsn();
            for i in 0..12 {
                wal.append(&insert_rec(round * 100 + 50 + i, 0, 3000)).unwrap();
                if i % 4 == 3 {
                    wal.force_up_to(wal.next_lsn()).unwrap();
                }
            }
            let (writes, syncs) = (count(1), count(2));
            wal.truncate_to(cut).unwrap();
            assert_eq!(count(0), 0, "round {round}: truncation read the device");
            assert_eq!((count(1), count(2)), (writes + 1, syncs + 1), "round {round}");

            let (wal2, recs) = Wal::recover(dev.clone(), reg()).unwrap();
            io[0].store(0, SeqCst);
            let want: Vec<WalRecord> =
                (0..12).map(|i| insert_rec(round * 100 + 50 + i, 0, 3000)).collect();
            let got: Vec<WalRecord> = recs.into_iter().map(|(_, r)| r).collect();
            assert_eq!(got, want, "round {round}: exactly the tail survives");
            assert_eq!(wal2.next_lsn(), wal.next_lsn());
        }
        // Any record boundary is a cut: nothing is kept in memory for one.
        wal.append(&insert_rec(7, 0, 3000)).unwrap();
        let cut = wal.next_lsn();
        for i in 0..8 {
            wal.append(&insert_rec(i, 0, 3000)).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        wal.truncate_to(cut).unwrap();
        assert_eq!(Wal::recover(dev, reg()).unwrap().1.len(), 8);
    }

    fn records(recs: Vec<(u64, WalRecord)>) -> Vec<WalRecord> {
        recs.into_iter().map(|(_, r)| r).collect()
    }

    /// Round the ring four times, one checkpoint's worth at a time: each
    /// truncation is followed by a crash, and the log goes on from what
    /// recovery found.
    #[test]
    fn records_survive_laps_round_the_ring_with_a_crash_after_each_truncation() {
        let dev = log_device(8); // 7 ring blocks: an epoch of 6.
        let mut wal = Wal::create(dev.clone(), reg()).unwrap();
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            insert_rec(n, 0, 3000 + (n % 7) as usize * 100)
        };
        let mut truncations = 0;
        while wal.next_lsn() < 4 * 7 * BLOCK {
            for _ in 0..6 {
                wal.append(&next()).unwrap();
            }
            let cut = wal.next_lsn();
            let tail: Vec<WalRecord> = (0..3).map(|_| next()).collect();
            for rec in &tail {
                wal.append(rec).unwrap();
            }
            wal.force_up_to(wal.next_lsn()).unwrap();
            wal.truncate_to(cut).unwrap();
            truncations += 1;
            let (back, recs) = Wal::recover(dev.clone(), reg()).unwrap();
            assert_eq!(records(recs), tail, "after truncation {truncations}");
            assert_eq!(back.next_lsn(), wal.next_lsn());
            wal = back;
        }
        assert!(truncations >= 7, "{truncations} truncations");
    }

    /// A lap of ten records over five blocks, then — one lap on — a lap of
    /// four over the first two of them. Every record is half a block, so
    /// the first lap's fifth record starts exactly where the second lap
    /// ends, in a block the second lap never wrote. Its LSN gives it away.
    #[test]
    fn a_shorter_lap_over_a_longer_one_recovers_only_its_own_records() {
        let dev = log_device(8); // 7 ring blocks.
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        let record = |i: u64| insert_rec(i, 0, BLOCK_SIZE / 2 - REC_HDR - 15);
        for i in 0..10 {
            wal.append(&record(i)).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        // Four unforced fillers carry the stream round to the ring's start.
        wal.truncate_to(wal.next_lsn()).unwrap();
        for i in 10..14 {
            wal.append(&record(i)).unwrap();
        }
        let lap = wal.next_lsn();
        assert_eq!(lap, 7 * BLOCK);
        wal.truncate_to(lap).unwrap();
        let second: Vec<WalRecord> = (100..104).map(record).collect();
        for rec in &second {
            wal.append(rec).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();

        let (back, recs) = Wal::recover(dev, reg()).unwrap();
        assert_eq!(recs.last().map(|r| r.0), Some(lap + 2 * BLOCK));
        assert_eq!(records(recs), second, "the first lap's records were replayed");
        assert_eq!(back.next_lsn(), lap + 2 * BLOCK);
    }

    /// A force that wraps from the ring's last block to its first, behind a
    /// write cache that destages in block order and fails after two
    /// blocks. Whatever lands is a prefix of the stream: the force syncs
    /// before it wraps, so the first blocks never land ahead of the last.
    /// A later stream that reaches the wrap then finds nothing of the
    /// failed force past it.
    #[test]
    fn a_force_that_wraps_the_ring_lands_in_stream_order() {
        let disk = MagneticDisk::new("log", SimClock::new(), DiskProfile::tiny_for_tests(8));
        let (disk, faults) = simdev::Faulty::new(disk);
        let (cache, power) = simdev::WriteCacheDisk::new(Box::new(disk));
        let dev = shared_device(cache);
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        let record = |i: u64| insert_rec(i, 0, BLOCK_SIZE / 2 - REC_HDR - 15);
        for i in 0..10 {
            wal.append(&record(i)).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        wal.truncate_to(wal.next_lsn()).unwrap();
        // Five blocks in, eight half-block records run round the wrap.
        let stream: Vec<WalRecord> = (10..18).map(record).collect();
        for rec in &stream {
            wal.append(rec).unwrap();
        }
        faults.fail_after_writes(2);
        assert!(wal.force_up_to(wal.next_lsn()).is_err());
        faults.clear_write_fault();
        power.drop_unsynced();

        let (wal, recs) = Wal::recover(dev.clone(), reg()).unwrap();
        let mut want = records(recs);
        assert!(stream.starts_with(&want), "not a prefix of the stream");
        let mut i = 100;
        while wal.next_lsn() < 7 * BLOCK {
            want.push(record(i));
            wal.append(&record(i)).unwrap();
            i += 1;
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        assert_eq!(records(Wal::recover(dev, reg()).unwrap().1), want);
    }

    /// A record whose check passes is the log's: if it does not decode,
    /// recovery fails. The same bytes with a wrong check end the log.
    #[test]
    fn a_record_that_passes_its_check_but_does_not_decode_is_corruption() {
        for check_passes in [true, false] {
            let dev = log_device(16);
            Wal::create(dev.clone(), reg()).unwrap();
            let mut rec = Vec::new();
            WalRecord::Abort { xid: XactId(9) }.encode(&mut rec);
            rec[0] = 99; // No such kind.
            let ck = check(0, &rec) ^ u32::from(!check_passes);
            rec[3..REC_HDR].copy_from_slice(&ck.to_le_bytes());
            let mut blk = vec![0u8; BLOCK_SIZE];
            blk[..rec.len()].copy_from_slice(&rec);
            dev.lock().write_block(1, &blk).unwrap();
            match Wal::recover(dev, reg()) {
                Err(DbError::Corrupt(_)) => assert!(check_passes),
                Ok((_, recs)) => assert!(!check_passes && recs.is_empty()),
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// The record check's guarantee, exhaustively on short records: every
    /// single-byte substitution in kind, length or body changes it, at every
    /// body length from an empty tail block to past two full ones, and so
    /// does every other start LSN tried, a lap of the ring among them.
    #[test]
    fn record_checks_change_for_every_substitution_and_every_other_lsn() {
        let lsn = 3 * BLOCK + 5;
        for len in 0..=40usize {
            let mut rec = vec![K_INSERT, len as u8, 0, 0, 0, 0, 0];
            rec.extend((0..len).map(|i| (i * 37 + len) as u8));
            let ck = check(lsn, &rec);
            for idx in (0..3).chain(REC_HDR..rec.len()) {
                let original = rec[idx];
                for other in (0..=255u8).filter(|&b| b != original) {
                    rec[idx] = other;
                    assert_ne!(check(lsn, &rec), ck, "len {len}, byte {idx} -> {other:#04x}");
                }
                rec[idx] = original;
            }
            for at in [0, lsn - 1, lsn + 1, lsn + 14 * BLOCK, lsn + (1 << 32)] {
                assert_ne!(check(at, &rec), ck, "len {len}, at {at}");
            }
        }
    }

    /// A control block of the FNV-1a format (`WLC2`), written by hand with
    /// a valid check of its own, is refused as corrupt: read as "never
    /// formatted" it would drop every acknowledged commit.
    #[test]
    fn a_wlc2_control_block_is_refused() {
        let dev = log_device(16);
        let mut blk = vec![0u8; BLOCK_SIZE];
        blk[0..4].copy_from_slice(&0x574C_4332u32.to_le_bytes());
        blk[4..12].copy_from_slice(&(2 * BLOCK).to_le_bytes());
        let fnv = blk[0..12]
            .iter()
            .fold(0x811c_9dc5u32, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193));
        blk[12..16].copy_from_slice(&fnv.to_le_bytes());
        dev.lock().write_block(0, &blk).unwrap();
        match Wal::recover(dev, reg()) {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("WLC2"), "{msg}"),
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("a WLC2 log was read"),
        }
    }

    /// An acknowledged record in the second half of a block, then a force
    /// of 300 more whose rewrite of that block tears: first with only its
    /// first 4 KB new, then with only its second. Either way the
    /// acknowledged records come back, and nothing that is not a prefix of
    /// the stream does.
    #[test]
    fn a_torn_rewrite_of_either_half_keeps_the_acknowledged_records() {
        let torn = simdev::fault::TORN_BYTES;
        for keep in [0..torn, torn..BLOCK_SIZE] {
            let disk = MagneticDisk::new("log", SimClock::new(), DiskProfile::tiny_for_tests(64));
            let (disk, faults) = simdev::Faulty::new(disk);
            let dev = shared_device(disk);
            let wal = Wal::create(dev.clone(), reg()).unwrap();
            let mut stream = vec![
                insert_rec(0, 0, 5000),
                WalRecord::Commit { xid: XactId(2), time_ns: 1 },
            ];
            for rec in &stream {
                wal.append(rec).unwrap();
            }
            wal.force_up_to(wal.next_lsn()).unwrap();
            assert!(wal.durable_lsn() > torn as u64, "the commit lies in the second half");
            stream.extend((1..=300).map(|i| insert_rec(i, 0, 40)));
            for rec in &stream[2..] {
                wal.append(rec).unwrap();
            }
            faults.tear_after_writes(0, keep.clone());
            assert!(wal.force_up_to(wal.next_lsn()).is_err());
            faults.clear_write_fault();

            let got = records(Wal::recover(dev, reg()).unwrap().1);
            assert!(got.len() >= 2, "{keep:?}: {} records back", got.len());
            assert!(stream.starts_with(&got), "{keep:?}: records not of the stream");
        }
    }

    #[test]
    fn full_epoch_rejects_appends() {
        let dev = log_device(16); // 15 ring blocks.
        let wal = Wal::create(dev, reg()).unwrap();
        let mut appended = 0u64;
        let err = loop {
            match wal.append(&insert_rec(0, 0, 4000)) {
                Ok(_) => appended += 1,
                Err(e) => break e,
            }
        };
        assert!(appended >= 8, "a few appends fit, got {appended}");
        assert!(err.to_string().contains("WAL full"), "{err}");
        assert!(wal.over_pressure());
    }

    #[test]
    fn the_end_of_an_epoch_is_kept_for_ceiling_records() {
        let wal = Wal::create(log_device(16), reg()).unwrap();
        for filler in [insert_rec(0, 0, 4000), WalRecord::Abort { xid: XactId(2) }] {
            while wal.append(&filler).is_ok() {}
        }
        let free = wal.capacity() - wal.epoch_bytes();
        assert!((CEILING_RESERVE..CEILING_RESERVE + 9).contains(&free), "{free} bytes free");
        let ceiling = WalRecord::Ceiling { xid: XactId(2048), oid: Oid(3048) };
        let mut raises = 0;
        while wal.append(&ceiling).is_ok() {
            raises += 1;
        }
        assert_eq!(raises, 64);
        assert!(wal.capacity() - wal.epoch_bytes() < 13);
    }

    /// A page image is logged without its zero hole: an empty B-tree root
    /// costs tens of bytes. A page with anything in its hole is logged
    /// whole, and either way decoding restores it byte for byte; a hole
    /// the record cannot hold is corruption, not a panic.
    #[test]
    fn page_images_leave_out_their_zero_hole() {
        let image_rec = |image: &[u8]| WalRecord::PageImage {
            dev: DeviceId::DEFAULT,
            rel: Oid(8),
            blkno: 0,
            image: image.to_vec(),
        };
        let roundtrip = |rec: &WalRecord| {
            let mut bytes = Vec::new();
            rec.encode(&mut bytes);
            let (back, n) = WalRecord::decode(&bytes).unwrap().unwrap();
            assert_eq!((&back, n), (rec, bytes.len()));
            bytes
        };
        let mut root = vec![0u8; page::PAGE_SIZE];
        page::init(&mut root, crate::btree::SPECIAL_SIZE);
        let empty_root = roundtrip(&image_rec(&root));
        assert!(empty_root.len() < 100, "an empty root logs {} bytes", empty_root.len());

        page::insert(&mut root, &[5u8; 300]).unwrap();
        assert!(roundtrip(&image_rec(&root)).len() < 500);
        root[page::PAGE_SIZE / 2] = 1; // Inside the hole.
        let whole = roundtrip(&image_rec(&root));
        assert_eq!(whole.len(), REC_HDR + MAX_BODY);

        // The hole's start (body offset 13) past the bytes that follow it,
        // then its length one byte too long.
        let mut past = empty_root.clone();
        past[REC_HDR + 13..REC_HDR + 15].copy_from_slice(&1000u16.to_le_bytes());
        let mut long = empty_root;
        let hole_len = crate::bytes::le_u16(&long, REC_HDR + 15).unwrap() + 1;
        long[REC_HDR + 15..REC_HDR + 17].copy_from_slice(&hole_len.to_le_bytes());
        for bad in [past, long] {
            assert!(matches!(WalRecord::decode(&bad), Err(DbError::Corrupt(_))));
        }
    }

    #[test]
    fn redo_reproduces_page_mutations() {
        let mut live = vec![0u8; page::PAGE_SIZE];
        page::init(&mut live, 0);
        let mut log = Vec::new();

        let slot = page::insert(&mut live, &[7u8; 64]).unwrap();
        log.push(WalRecord::Insert {
            dev: DeviceId::DEFAULT,
            rel: Oid(7),
            blkno: 0,
            slot,
            tuple: vec![7u8; 64],
        });
        let slot2 = page::insert(&mut live, &[8u8; 32]).unwrap();
        log.push(WalRecord::Insert {
            dev: DeviceId::DEFAULT,
            rel: Oid(7),
            blkno: 0,
            slot: slot2,
            tuple: vec![8u8; 32],
        });
        page::item_mut(&mut live, slot).unwrap()[..4].copy_from_slice(&[1, 2, 3, 4]);
        log.push(WalRecord::Overwrite {
            dev: DeviceId::DEFAULT,
            rel: Oid(7),
            blkno: 0,
            slot,
            offset: 0,
            bytes: vec![1, 2, 3, 4],
        });

        let mut replayed = vec![0u8; page::PAGE_SIZE];
        page::init(&mut replayed, 0);
        for rec in &log {
            rec.redo(&mut replayed).unwrap();
        }
        assert_eq!(live, replayed);

        // Replay against the wrong slot state is corruption, not silence.
        let mut bad = vec![0u8; page::PAGE_SIZE];
        page::init(&mut bad, 0);
        page::insert(&mut bad, b"stray").unwrap();
        assert!(log[0].redo(&mut bad).is_err());
    }
}
