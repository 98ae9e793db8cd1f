//! The REDO-only write-ahead log.
//!
//! The paper's commit story — "when the status file is forced, the
//! transaction is durable" — forced every dirty data page before the status
//! write. This module replaces that with a no-force commit in the
//! Sauer/Härder single-pass-REDO style: writers append *physiological* REDO
//! records (logical within a page, physical across pages), commit becomes
//! one sequential force of the log's tail, and dirty data pages drain
//! lazily through the background checkpointer. The commit point is the
//! force that makes a transaction's `Commit` record stable.
//!
//! ## On-device layout
//!
//! The log device holds the log and nothing else. Block 0 is the *control
//! block*, holding the epoch LSN (where the current on-device log begins)
//! and which *half* of the data area holds it; the rest of the device is the
//! data area, split into two equal halves.
//!
//! ```text
//! block:   [ctrl]  [half A: data 0..n)  [half B: data 0..n)
//! header:  16 bytes per data block: magic, used, start LSN, checksum
//! payload: 8176 bytes of the record stream; records span blocks freely
//! ```
//!
//! LSNs are byte offsets into the virtual record stream and are *never*
//! reset — truncation advances the epoch LSN instead, so a page's stamped
//! LSN stays meaningful across checkpoints. A record's *end* LSN (always
//! nonzero) is what gets stamped into pages, so a never-logged page
//! (LSN 0) sorts before every record.
//!
//! Truncation ([`Wal::truncate_to`]) discards `[epoch, cut)` but must keep
//! `[cut, next)` — records appended while the checkpoint was flushing. It
//! copies the surviving tail into the *inactive* half, syncs it, and only
//! then flips the control block: a crash on either side of the flip finds
//! one half that is a complete, self-consistent epoch. (Rewriting the tail
//! in place would scribble over the old epoch's blocks before the control
//! write made the new epoch authoritative.) The tail is copied from memory:
//! from the moment a checkpoint takes its cut ([`Wal::mark_cut`]) the log
//! keeps every byte at or above it, forced or not, so truncation never
//! reads the log device — how much a checkpoint's flush let the writers
//! append is a matter of timing, and the device's read count must not be.
//!
//! ## The torn-force rule
//!
//! The log device may sit behind a volatile write cache that loses pending
//! blocks on a failed sync. The log therefore keeps every byte from the
//! durable horizon forward in memory and rewrites *all* non-durable blocks
//! on every force; block contents are a deterministic function of the
//! stream, so the rewrite is idempotent, and a failed force followed by a
//! successful one can never leave a hole in the middle of acknowledged
//! records. Within one epoch, blocks are written in ascending order, so a
//! destaged prefix of a force is always an LSN prefix of the stream.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;
use simdev::BLOCK_SIZE;

use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId, XactId};
use crate::page;
use crate::smgr::SharedDevice;
use crate::stats::StatsRegistry;

/// Per-data-block header: magic (2) + used (2) + start LSN (8) + cksum (4).
const BLOCK_HDR: usize = 16;
/// Record-stream bytes per data block.
pub const BLOCK_PAYLOAD: usize = BLOCK_SIZE - BLOCK_HDR;

const BLOCK_MAGIC: u16 = 0x4C57; // "WL"
const CTRL_MAGIC: u32 = 0x574C_4331; // "WLC1"

/// Record kind tags on the wire.
const K_PAGE_INIT: u8 = 1;
const K_INSERT: u8 = 2;
const K_OVERWRITE: u8 = 3;
const K_PAGE_IMAGE: u8 = 4;
const K_COMMIT: u8 = 5;
const K_ABORT: u8 = 6;
const K_CEILING: u8 = 7;

/// Record header: kind (1) + body length (4).
const REC_HDR: usize = 5;
/// Largest legal record body: a full page image plus its page address.
const MAX_BODY: usize = 13 + crate::page::PAGE_SIZE;
/// The end of every epoch, kept for 64 `Ceiling` records: reopening takes
/// an xid before its checkpointer may truncate a log a crash left full.
pub(crate) const CEILING_RESERVE: u64 =64 * (REC_HDR as u64 + 8);

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
    /// A full after-image of one page (B-tree structure changes).
    PageImage {
        /// Device holding the page.
        dev: DeviceId,
        /// Relation holding the page.
        rel: RelId,
        /// Logical block number within the relation.
        blkno: u64,
        /// The complete [`page::PAGE_SIZE`] image.
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
                out.extend_from_slice(image);
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
        let body = (out.len() - start - REC_HDR) as u32;
        out[start + 1..start + REC_HDR].copy_from_slice(&body.to_le_bytes());
    }

    /// Decodes one record from `buf`, returning it and the bytes consumed.
    /// `None` means `buf` ends mid-record (a torn tail, not corruption).
    fn decode(buf: &[u8]) -> DbResult<Option<(WalRecord, usize)>> {
        if buf.len() < REC_HDR {
            return Ok(None);
        }
        let kind = buf[0];
        let len = crate::bytes::le_u32(buf, 1)? as usize;
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
                let image = body
                    .get(13..)
                    .ok_or_else(|| DbError::Corrupt("short page image".into()))?
                    .to_vec();
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

/// FNV-1a over `data` (same family the wire protocol uses).
fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

struct WalInner {
    /// Stream offset where the on-device epoch begins.
    epoch_lsn: u64,
    /// Which half of the data area holds the current epoch (0 or 1).
    half: u8,
    /// Next byte to append.
    next_lsn: u64,
    /// Everything below this is on stable storage.
    durable_lsn: u64,
    /// Stream offset of `buf[0]`; always block-aligned within the epoch.
    buf_base: u64,
    /// Bytes `[buf_base, next_lsn)` — retained until a sync *succeeds*.
    buf: Vec<u8>,
    /// `Some` from [`Wal::mark_cut`] to the truncation it announces: the
    /// whole blocks forced since, `[buf_base - kept.len(), buf_base)`,
    /// which `buf` alone would have let go. `kept ++ buf` then holds every
    /// byte from the marked cut on.
    kept: Option<Vec<u8>>,
}

/// The write-ahead log: an append buffer over a block region of the log
/// device. Appends are cheap memory copies under the `wal` rank; forces
/// rewrite every non-durable block and sync once, serialised by the
/// `wal-flush` rank and with the `wal` mutex *released* during the I/O —
/// so records appended while one force is on the device are all covered
/// by the next, and a committer whose record someone else's force
/// already covered returns without a sync. That is the whole of group
/// commit.
pub struct Wal {
    dev: SharedDevice,
    /// Number of data blocks in each half of the data area.
    half_blocks: u64,
    stats: Arc<StatsRegistry>,
    /// Serialises forces and truncation. While it is held, `epoch_lsn`,
    /// `half`, `buf_base` and `durable_lsn` do not change and `buf` only
    /// grows, so a tail snapshotted under `inner` stays a valid image of
    /// the device blocks it maps to.
    flush: Mutex<()>,
    inner: Mutex<WalInner>,
    /// Set when the epoch has grown past half the region (checkpoint cue).
    pressure: AtomicBool,
}

impl Wal {
    /// Formats a fresh, empty log on `dev` and syncs the control block so
    /// recovery always finds a valid epoch.
    pub fn create(dev: SharedDevice, stats: Arc<StatsRegistry>) -> DbResult<Wal> {
        let wal = Wal::on_device(dev, stats, 0, 0)?;
        wal.write_control(0, 0)?;
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
        let (epoch, half) = {
            let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            let mut blk = vec![0u8; BLOCK_SIZE];
            dev.lock().read_block(0, &mut blk)?;
            let magic = crate::bytes::le_u32(&blk, 0)?;
            if magic == CTRL_MAGIC {
                let epoch = crate::bytes::le_u64(&blk, 4)?;
                let half = blk[12];
                let ck = crate::bytes::le_u32(&blk, 13)?;
                if ck != fnv1a(&blk[0..13]) || half > 1 {
                    return Err(DbError::Corrupt("WAL control block checksum".into()));
                }
                (epoch, half)
            } else {
                // Never formatted (crash before the first control sync):
                // nothing was acknowledged, so an empty epoch-0 log is right.
                (0, 0)
            }
        };
        let wal = Wal::on_device(dev, stats, epoch, half)?;
        let records = wal.scan()?;
        Ok((wal, records))
    }

    fn on_device(
        dev: SharedDevice,
        stats: Arc<StatsRegistry>,
        epoch: u64,
        half: u8,
    ) -> DbResult<Wal> {
        let nblocks = {
            let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            dev.lock().nblocks()
        };
        let half_blocks = nblocks.saturating_sub(1) / 2;
        if half_blocks == 0 {
            return Err(DbError::Invalid(format!(
                "log device of {nblocks} blocks has no room for a log"
            )));
        }
        Ok(Wal {
            dev,
            half_blocks,
            stats,
            flush: Mutex::new(()),
            inner: Mutex::new(WalInner {
                epoch_lsn: epoch,
                half,
                next_lsn: epoch,
                durable_lsn: epoch,
                buf_base: epoch,
                buf: Vec::new(),
                kept: None,
            }),
            pressure: AtomicBool::new(false),
        })
    }

    /// Device block holding stream offset `start` (block-aligned within the
    /// epoch) for the given half.
    fn data_block(&self, half: u8, epoch: u64, start: u64) -> u64 {
        1 + half as u64 * self.half_blocks + (start - epoch) / BLOCK_PAYLOAD as u64
    }

    /// The registry this log counts into; a caller whose
    /// [`Wal::force_up_to`] forced counts it there under its own name.
    pub(crate) fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Record-stream capacity of one epoch, in bytes.
    pub fn capacity(&self) -> u64 {
        self.half_blocks * BLOCK_PAYLOAD as u64
    }

    /// Appends `rec`, returning its end LSN. The record is volatile until
    /// a force covers it; appending never touches the device. The record
    /// is encoded straight into the append buffer — one copy of its bytes.
    /// Only a `Ceiling` record may use the epoch's last `CEILING_RESERVE`.
    pub fn append(&self, rec: &WalRecord) -> DbResult<u64> {
        let kept = if matches!(rec, WalRecord::Ceiling { .. }) { 0 } else { CEILING_RESERVE };
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        let start = g.buf.len();
        rec.encode(&mut g.buf);
        let len = (g.buf.len() - start) as u64;
        let used = g.next_lsn - g.epoch_lsn;
        if used + len + kept > self.capacity() {
            g.buf.truncate(start);
            return Err(DbError::Invalid(format!(
                "WAL full: epoch holds {used} of {} bytes and the record needs {len}",
                self.capacity() - kept,
            )));
        }
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
    /// (the LSN-before-write rule). Those and the checkpoint's
    /// [`Wal::truncate_to`] are the only things that force the log, and
    /// `xtask lint` (`wal-force-site`) keeps it so. Returns whether *this
    /// call* wrote and synced — the caller then counts the force under its
    /// own name in `pg_stat_wal`; `false` means an earlier force had
    /// already covered `lsn`.
    pub fn force_up_to(&self, lsn: u64) -> DbResult<bool> {
        let _order = crate::lock::order::token(crate::lock::order::WAL_FLUSH);
        let _flush = self.flush.lock();
        let (half, epoch, base, tail) = {
            let _order = crate::lock::order::token(crate::lock::order::WAL);
            let g = self.inner.lock();
            if lsn <= g.durable_lsn {
                return Ok(false);
            }
            (g.half, g.epoch_lsn, g.buf_base, g.buf.clone())
        };
        // The device I/O runs with `inner` released: appenders keep going.
        // A failure leaves `durable_lsn` (and the buffer) untouched, so a
        // later force retries the whole tail.
        self.write_blocks(half, epoch, base, &tail)?;
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        self.publish(&mut self.inner.lock(), tail.len());
        Ok(true)
    }

    /// Writes stream bytes `[base, base + bytes.len())` of the epoch that
    /// starts at `epoch` into `half`, block by block in ascending order,
    /// and syncs. `base` is block-aligned within the epoch. Every call
    /// rewrites every block it is given — see the torn-force rule above.
    fn write_blocks(&self, half: u8, epoch: u64, base: u64, bytes: &[u8]) -> DbResult<()> {
        let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        let mut blk = vec![0u8; BLOCK_SIZE];
        for (i, chunk) in bytes.chunks(BLOCK_PAYLOAD).enumerate() {
            let start = base + (i * BLOCK_PAYLOAD) as u64;
            blk.fill(0);
            blk[0..2].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
            blk[2..4].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            blk[4..12].copy_from_slice(&start.to_le_bytes());
            blk[BLOCK_HDR..BLOCK_HDR + chunk.len()].copy_from_slice(chunk);
            let ck = fnv1a(&blk[0..12]) ^ fnv1a(chunk);
            blk[12..16].copy_from_slice(&ck.to_le_bytes());
            d.write_block(self.data_block(half, epoch, start), &blk)?;
        }
        d.sync()?;
        Ok(())
    }

    /// Records that the first `forced` buffered bytes are on stable
    /// storage. Complete blocks are never rewritten again; only the
    /// partial tail block's bytes stay for the next force.
    fn publish(&self, g: &mut WalInner, forced: usize) {
        g.durable_lsn = g.buf_base + forced as u64;
        let whole = (forced / BLOCK_PAYLOAD) * BLOCK_PAYLOAD;
        let done = g.buf.drain(..whole);
        if let Some(kept) = &mut g.kept {
            kept.extend(done);
        }
        g.buf_base += whole as u64;
        self.stats.wal.log_forces.bump();
    }

    /// Advances the epoch to `cut` — the latest [`Wal::mark_cut`] —
    /// discarding `[epoch, cut)` and keeping `[cut, next)`. Legal only when
    /// every page change below `cut` — outcomes and ceilings on status pages
    /// included — is durably on its device (i.e. at the end of a checkpoint
    /// whose flush began after the cut was marked).
    /// Forces the tail first if the caller has not; see the module docs
    /// for why the survivors move to the other half of the data area.
    pub fn truncate_to(&self, cut: u64) -> DbResult<()> {
        // Both locks for the whole switch: nothing may be appended between
        // taking the survivors and installing the new epoch.
        let _order = crate::lock::order::token(crate::lock::order::WAL_FLUSH);
        let _flush = self.flush.lock();
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        if g.durable_lsn < g.next_lsn {
            self.write_blocks(g.half, g.epoch_lsn, g.buf_base, &g.buf)?;
            let forced = g.buf.len();
            self.publish(&mut g, forced);
            self.stats.wal.forces_checkpoint.bump();
        }
        let kept = g.kept.take().unwrap_or_default();
        let cut = cut.clamp(g.epoch_lsn, g.next_lsn);
        if cut == g.epoch_lsn {
            return Ok(()); // Nothing to discard.
        }
        // The surviving tail: everything kept since the mark, then the
        // partial block still buffered.
        let kept_base = g.buf_base - kept.len() as u64;
        if cut < kept_base {
            return Err(DbError::Invalid(format!(
                "WAL truncation to {cut}, but the log was kept only from {kept_base}: \
                 no cut was marked there"
            )));
        }
        let mut survivors = kept;
        survivors.extend_from_slice(&g.buf);
        survivors.drain(..(cut - kept_base) as usize);
        let other = 1 - g.half;
        self.write_blocks(other, cut, cut, &survivors)?;
        // The survivors are stable in the other half; flipping the control
        // block is the atomic switch between the two complete epochs.
        self.write_control(cut, other)?;
        g.epoch_lsn = cut;
        g.half = other;
        let whole = (survivors.len() / BLOCK_PAYLOAD) * BLOCK_PAYLOAD;
        g.buf_base = cut + whole as u64;
        g.buf = survivors[whole..].to_vec();
        if g.next_lsn - g.epoch_lsn <= self.capacity() / 2 {
            self.pressure.store(false, SeqCst);
        }
        Ok(())
    }

    fn write_control(&self, epoch: u64, half: u8) -> DbResult<()> {
        let mut blk = vec![0u8; BLOCK_SIZE];
        blk[0..4].copy_from_slice(&CTRL_MAGIC.to_le_bytes());
        blk[4..12].copy_from_slice(&epoch.to_le_bytes());
        blk[12] = half;
        let ck = fnv1a(&blk[0..13]);
        blk[13..17].copy_from_slice(&ck.to_le_bytes());
        let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut d = self.dev.lock();
        d.write_block(0, &blk)?;
        d.sync()?;
        Ok(())
    }

    /// Whether the epoch has outgrown half the region since the last
    /// truncation — the checkpointer's wake-up cue.
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

    /// The end of the stream — the next record's start LSN.
    pub fn next_lsn(&self) -> u64 {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        self.inner.lock().next_lsn
    }

    /// Marks the end of the stream as the cut of a checkpoint about to
    /// flush, and returns it: every record below it describes a page
    /// already dirty in the pool, which the flush will write. From here to
    /// [`Wal::truncate_to`] the log keeps every byte at or above the cut
    /// in memory; a later mark replaces this one.
    pub fn mark_cut(&self) -> u64 {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        g.kept = Some(Vec::new());
        g.next_lsn
    }

    /// Reads the on-device epoch back as `(end_lsn, record)` pairs, and
    /// repositions the in-memory stream to continue after the last whole
    /// record. The scan stops — without error — at the first block that is
    /// unformatted, checksum-damaged, or out of sequence, and at a record
    /// that runs past the recovered bytes: all of those are torn tails in
    /// unacknowledged territory (a successful force destages every block,
    /// in order, before acknowledging).
    fn scan(&self) -> DbResult<Vec<(u64, WalRecord)>> {
        let _order = crate::lock::order::token(crate::lock::order::WAL);
        let mut g = self.inner.lock();
        let epoch = g.epoch_lsn;
        let mut stream = Vec::new();
        {
            let _dev = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
            let mut d = self.dev.lock();
            let mut blk = vec![0u8; BLOCK_SIZE];
            for i in 0..self.half_blocks {
                let want = epoch + i * BLOCK_PAYLOAD as u64;
                d.read_block(self.data_block(g.half, epoch, want), &mut blk)?;
                let magic = crate::bytes::le_u16(&blk, 0)?;
                let used = crate::bytes::le_u16(&blk, 2)? as usize;
                let start = crate::bytes::le_u64(&blk, 4)?;
                let ck = crate::bytes::le_u32(&blk, 12)?;
                if magic != BLOCK_MAGIC
                    || used > BLOCK_PAYLOAD
                    || start != want
                    || ck != fnv1a(&blk[0..12]) ^ fnv1a(&blk[BLOCK_HDR..BLOCK_HDR + used])
                {
                    break;
                }
                stream.extend_from_slice(&blk[BLOCK_HDR..BLOCK_HDR + used]);
                if used < BLOCK_PAYLOAD {
                    break;
                }
            }
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < stream.len() {
            match WalRecord::decode(&stream[pos..]) {
                Ok(Some((rec, n))) => {
                    pos += n;
                    records.push((epoch + pos as u64, rec));
                }
                // A record that doesn't finish, or scribbled header bytes
                // past the last force, are both torn tail: stop here.
                Ok(None) | Err(_) => break,
            }
        }
        g.next_lsn = epoch + pos as u64;
        g.durable_lsn = g.next_lsn;
        // Keep the partial tail block in memory so the next force can
        // rewrite that block in full.
        let whole = (pos / BLOCK_PAYLOAD) * BLOCK_PAYLOAD;
        g.buf_base = epoch + whole as u64;
        g.buf = stream[whole..pos].to_vec();
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
        let faults = disk.fault_plan();
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
        wal.truncate_to(wal.mark_cut()).unwrap();
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
        // which alternate data-area halves.
        let dev = log_device(4096);
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        for round in 0..3u64 {
            for i in 0..6 {
                wal.append(&insert_rec(round * 100 + i, 0, 2500)).unwrap();
            }
            let cut = wal.mark_cut();
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

    /// A device that counts the blocks read from it.
    struct CountReads(MagneticDisk, Arc<AtomicU64>);

    impl simdev::BlockDevice for CountReads {
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
            self.1.fetch_add(1, SeqCst);
            self.0.read_block(blkno, buf)
        }
        fn write_block(&mut self, blkno: u64, buf: &[u8]) -> simdev::DevResult<()> {
            self.0.write_block(blkno, buf)
        }
    }

    #[test]
    fn truncation_copies_a_long_forced_tail_without_reading_the_device() {
        // A checkpoint that flushes for a while lets writers append — and
        // force — many blocks past its cut. They survive the truncation,
        // and come from memory: the log device is written, never read.
        let reads = Arc::new(AtomicU64::new(0));
        let disk = MagneticDisk::new("log", SimClock::new(), DiskProfile::tiny_for_tests(4096));
        let dev = shared_device(CountReads(disk, Arc::clone(&reads)));
        let wal = Wal::create(dev.clone(), reg()).unwrap();
        for round in 0..3u64 {
            for i in 0..5 {
                wal.append(&insert_rec(round * 100 + i, 0, 3000)).unwrap();
            }
            let cut = wal.mark_cut();
            for i in 0..12 {
                wal.append(&insert_rec(round * 100 + 50 + i, 0, 3000)).unwrap();
                if i % 4 == 3 {
                    wal.force_up_to(wal.next_lsn()).unwrap();
                }
            }
            wal.truncate_to(cut).unwrap();
            assert_eq!(reads.load(SeqCst), 0, "round {round}: truncation read the device");

            let (wal2, recs) = Wal::recover(dev.clone(), reg()).unwrap();
            reads.store(0, SeqCst);
            let want: Vec<WalRecord> =
                (0..12).map(|i| insert_rec(round * 100 + 50 + i, 0, 3000)).collect();
            let got: Vec<WalRecord> = recs.into_iter().map(|(_, r)| r).collect();
            assert_eq!(got, want, "round {round}: exactly the tail survives");
            assert_eq!(wal2.next_lsn(), wal.next_lsn());
        }
        // A cut nobody marked has no tail in memory to copy.
        wal.append(&insert_rec(7, 0, 3000)).unwrap();
        let unmarked = wal.next_lsn();
        for i in 0..8 {
            wal.append(&insert_rec(i, 0, 3000)).unwrap();
        }
        wal.force_up_to(wal.next_lsn()).unwrap();
        assert!(wal.truncate_to(unmarked).is_err());
    }

    #[test]
    fn full_epoch_rejects_appends() {
        let dev = log_device(16); // 7 data blocks per half.
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
