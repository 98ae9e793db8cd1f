//! The storage manager and its device manager switch.
//!
//! "Based on the bdevsw switch in UNIX, the POSTGRES device manager switch
//! registers the devices that are available to the database system."
//! Relations are created on a device and addressed by *logical* block number
//! thereafter; the per-device manager maps logical blocks to physical ones,
//! so higher layers are completely location-transparent.
//!
//! Two managers are provided:
//!
//! * [`GenericManager`] — magnetic disk, NVRAM, tape: a block map plus a
//!   bump allocator, with its own metadata persisted in a reserved region of
//!   the device.
//! * [`JukeboxManager`] — the Sony WORM autochanger: allocation in *extents*
//!   of physically contiguous pages, a magnetic-disk staging cache in front
//!   of the robot (10 MB by default, like the paper's), and write-once
//!   handling: a logical block whose platter copy was already burned gets
//!   *remapped* to a fresh physical block on rewrite.

use std::collections::HashMap;

use parking_lot::Mutex;
use std::sync::Arc;

use simdev::{BlockDevice, DevError};

use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId};
use crate::stats::PageIo;

/// A device shared between managers, the transaction log, and tests.
pub type SharedDevice = Arc<Mutex<dyn BlockDevice>>;

/// Wraps a concrete device into a [`SharedDevice`].
pub fn shared_device(dev: impl BlockDevice + 'static) -> SharedDevice {
    Arc::new(Mutex::new(dev))
}

/// Per-device relation storage operations, the rows of the switch table.
pub trait DeviceManager: Send {
    /// Human-readable name of the managed device.
    fn device_name(&self) -> String;

    /// Registers a new, empty relation.
    fn create_rel(&mut self, rel: RelId) -> DbResult<()>;

    /// Forgets a relation. Physical blocks are not reclaimed (the vacuum
    /// cleaner handles space, and WORM media cannot reclaim at all).
    fn drop_rel(&mut self, rel: RelId) -> DbResult<()>;

    /// Whether `rel` exists on this device.
    fn has_rel(&self, rel: RelId) -> bool;

    /// Number of logical blocks currently allocated to `rel`.
    fn nblocks(&self, rel: RelId) -> DbResult<u64>;

    /// Appends a new logical block without transferring any data; its
    /// contents are undefined until the first [`DeviceManager::write`]. The
    /// buffer cache uses this so that freshly allocated pages cost one device
    /// write (at flush), not two.
    fn extend_blank(&mut self, rel: RelId) -> DbResult<u64>;

    /// Appends a new logical block containing `page`, returning its number.
    fn extend(&mut self, rel: RelId, page: &[u8]) -> DbResult<u64> {
        let blkno = self.extend_blank(rel)?;
        self.write(rel, blkno, page)?;
        Ok(blkno)
    }

    /// Reads logical block `blkno` of `rel`.
    fn read(&mut self, rel: RelId, blkno: u64, buf: &mut [u8]) -> DbResult<()>;

    /// Writes logical block `blkno` of `rel`.
    fn write(&mut self, rel: RelId, blkno: u64, buf: &[u8]) -> DbResult<()>;

    /// Flushes manager metadata and device caches to stable storage.
    fn sync(&mut self) -> DbResult<()>;

    /// All relations on this device.
    fn relations(&self) -> Vec<RelId>;

    /// Sets the allocation extent size in pages (1 = block-at-a-time).
    /// Managers whose allocator is not extent-based ignore it.
    fn set_extent_size(&mut self, _pages: u64) {}

    /// What is wrong with the manager's own bookkeeping, one line each.
    fn check(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Blocks reserved at the front of a device for manager metadata.
const META_BLOCKS: u64 = 64;
const META_MAGIC: u32 = 0x534D_4752; // "SMGR"

/// What [`RelMap::encode`] spends on its header (magic, `next_free`,
/// relation count), per relation (oid, block count, run count) and per run
/// of contiguous blocks (start, length).
const MAP_HEADER_BYTES: usize = 16;
const REL_BYTES: usize = 20;
const RUN_BYTES: usize = 16;

/// The most metadata bytes [`write_meta`] stores on a device with
/// `block_size`-byte blocks (the first reserved block is its header).
fn meta_capacity(block_size: usize) -> usize {
    (META_BLOCKS as usize - 1) * block_size
}

/// A manager's relation → physical block map: the block lists, the bump
/// allocator that fills them, and the one place either changes.
#[derive(Debug, Clone)]
struct RelMap {
    next_free: u64,
    rels: HashMap<RelId, Vec<u64>>,
    /// Partially filled extent per relation: (first physical block, used).
    /// Only a span of more than one block opens one: a relation's first
    /// block, and the last stretch of a device, are spans of one, so every
    /// open extent is `extent` blocks long. Not persisted — a restart
    /// wastes the tail of each open extent, which the run-length encoding
    /// absorbs for free.
    open_extents: HashMap<RelId, (u64, u64)>,
    /// Whether the map changed since it was last persisted.
    dirty: bool,
    /// `encode().len()`, kept current by every change.
    encoded_len: usize,
    /// The most bytes the encoding may take. Growth past it is refused when
    /// asked for, not at the next sync, which would then fail every time.
    capacity: usize,
    /// The relations grown since the map was persisted, each with whether
    /// one of its new blocks started a run. One that did not owes recovery
    /// a run, and room is kept for it: the persisted map does not know the
    /// open extent the blocks came from, so recovery covers them with a run
    /// of their own.
    grown: HashMap<RelId, bool>,
}

/// `blocks` as maximal `(start, len)` runs of contiguous physical blocks.
fn runs(blocks: &[u64]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &b in blocks {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == b => *len += 1,
            _ => runs.push((b, 1)),
        }
    }
    runs
}

impl RelMap {
    fn new(next_free: u64, capacity: usize) -> RelMap {
        RelMap {
            next_free,
            rels: HashMap::new(),
            open_extents: HashMap::new(),
            dirty: true,
            encoded_len: MAP_HEADER_BYTES,
            capacity,
            grown: HashMap::new(),
        }
    }

    fn room_for(&self, bytes: usize) -> DbResult<()> {
        let owed = self.grown.values().filter(|&&paid| !paid).count();
        if self.encoded_len + RUN_BYTES * owed + bytes > self.capacity {
            return Err(DbError::Device(DevError::NoSpace));
        }
        Ok(())
    }

    fn create(&mut self, rel: RelId) -> DbResult<()> {
        if self.rels.contains_key(&rel) {
            return Err(DbError::AlreadyExists(format!("relation {rel}")));
        }
        self.room_for(REL_BYTES)?;
        self.rels.insert(rel, Vec::new());
        self.encoded_len += REL_BYTES;
        self.dirty = true;
        Ok(())
    }

    fn drop(&mut self, rel: RelId) -> DbResult<()> {
        self.truncate(rel)?;
        self.rels.remove(&rel);
        self.encoded_len -= REL_BYTES;
        Ok(())
    }

    /// Empties `rel`, returning the physical blocks it held.
    fn truncate(&mut self, rel: RelId) -> DbResult<Vec<u64>> {
        let blocks = std::mem::take(self.blocks_mut(rel)?);
        self.encoded_len -= RUN_BYTES * runs(&blocks).len();
        self.open_extents.remove(&rel);
        self.grown.remove(&rel);
        self.dirty = true;
        Ok(blocks)
    }

    fn blocks(&self, rel: RelId) -> DbResult<&[u64]> {
        self.rels
            .get(&rel)
            .map(Vec::as_slice)
            .ok_or_else(|| DbError::NotFound(format!("relation {rel}")))
    }

    fn blocks_mut(&mut self, rel: RelId) -> DbResult<&mut Vec<u64>> {
        self.rels
            .get_mut(&rel)
            .ok_or_else(|| DbError::NotFound(format!("relation {rel}")))
    }

    /// The physical block behind logical block `blkno` of `rel`.
    fn physical(&self, rel: RelId, blkno: u64) -> DbResult<u64> {
        let blocks = self.blocks(rel)?;
        blocks
            .get(blkno as usize)
            .copied()
            .ok_or(DbError::Device(DevError::OutOfRange {
                blkno,
                nblocks: blocks.len() as u64,
            }))
    }

    /// The next physical block for `rel`, and how many blocks taking it
    /// claims from the bump allocator: none while the relation's open
    /// extent has room, else a fresh extent of `extent` blocks. A relation
    /// with no blocks takes a span of one, so a file of one page costs one
    /// block, and a span of one is taken too when a whole extent no longer
    /// fits in `device_blocks`, so the last stretch of a device is usable.
    fn next_block(&self, rel: RelId, extent: u64, device_blocks: u64) -> DbResult<(u64, u64)> {
        if let Some(&(first, used)) = self.open_extents.get(&rel) {
            if used < extent {
                return Ok((first + used, 0));
            }
        }
        let extent = if self.blocks(rel)?.is_empty() { 1 } else { extent };
        let first = self.next_free;
        let span = if first + extent <= device_blocks { extent } else { 1 };
        if first + span > device_blocks {
            return Err(DbError::Device(DevError::NoSpace));
        }
        Ok((first, span))
    }

    /// Takes the block [`RelMap::next_block`] offered `rel`.
    fn take(&mut self, rel: RelId, (phys, span): (u64, u64)) -> u64 {
        if span == 0 {
            if let Some(open) = self.open_extents.get_mut(&rel) {
                open.1 += 1;
            }
        } else {
            self.next_free = phys + span;
            if span > 1 {
                self.open_extents.insert(rel, (phys, 1));
            }
        }
        phys
    }

    /// Appends a fresh block to `rel` and returns its logical number, or
    /// refuses, changing nothing, when the map would outgrow its capacity.
    /// A block that starts a run costs one; a relation's first block since
    /// the map was persisted that starts none costs recovery one (see
    /// `grown`), which a later run of its own pays off.
    fn grow(&mut self, rel: RelId, extent: u64, device_blocks: u64) -> DbResult<u64> {
        let next = self.next_block(rel, extent, device_blocks)?;
        let blocks = self.blocks(rel)?;
        let starts_run = blocks.last().is_none_or(|&b| b + 1 != next.0);
        let paid = self.grown.get(&rel).copied();
        let owes = !starts_run && paid != Some(true);
        let owed = paid == Some(false);
        self.room_for(RUN_BYTES * (usize::from(starts_run) + usize::from(owes) - usize::from(owed)))?;
        self.grown.insert(rel, !owes);
        if starts_run {
            self.encoded_len += RUN_BYTES;
        }
        self.dirty = true;
        let phys = self.take(rel, next);
        let blocks = self.blocks_mut(rel)?;
        blocks.push(phys);
        Ok(blocks.len() as u64 - 1)
    }

    /// Points logical block `blkno` of `rel` at a fresh physical block (a
    /// rewrite on write-once media) and returns it.
    fn remap(&mut self, rel: RelId, blkno: u64, extent: u64, device_blocks: u64) -> DbResult<u64> {
        self.physical(rel, blkno)?;
        let next = self.next_block(rel, extent, device_blocks)?;
        let phys = self.take(rel, next);
        let blocks = self.blocks_mut(rel)?;
        let before = runs(blocks).len();
        blocks[blkno as usize] = phys;
        let after = runs(blocks).len();
        self.encoded_len = self.encoded_len + RUN_BYTES * after - RUN_BYTES * before;
        self.dirty = true;
        Ok(phys)
    }

    /// Records that the map as it stands reached its device.
    fn persisted(&mut self) {
        debug_assert_eq!(
            self.encode().len(),
            self.encoded_len,
            "tracked map length drifted"
        );
        self.dirty = false;
        self.grown = HashMap::new();
    }

    fn relations(&self) -> Vec<RelId> {
        self.rels.keys().copied().collect()
    }
}

/// Bounds-checked little-endian cursor over a metadata byte string.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u32(&mut self) -> DbResult<u32> {
        let v = crate::bytes::le_u32(self.buf, self.pos)?;
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> DbResult<u64> {
        let v = crate::bytes::le_u64(self.buf, self.pos)?;
        self.pos += 8;
        Ok(v)
    }
}

impl RelMap {
    /// Block lists are stored run-length encoded: the bump allocator hands
    /// out mostly-contiguous runs, so a 25 MB relation costs a handful of
    /// `(start, len)` pairs instead of thousands of raw block numbers —
    /// keeping the per-commit metadata write to a block or two.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.next_free.to_le_bytes());
        out.extend_from_slice(&(self.rels.len() as u32).to_le_bytes());
        let mut rels: Vec<_> = self.rels.iter().collect();
        rels.sort_by_key(|(r, _)| r.0);
        for (rel, blocks) in rels {
            out.extend_from_slice(&rel.0.to_le_bytes());
            out.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
            let runs = runs(blocks);
            out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
            for (start, len) in runs {
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        out
    }

    fn decode(buf: &[u8], capacity: usize) -> DbResult<RelMap> {
        let corrupt = || DbError::Corrupt("truncated device metadata".into());
        // A tiny cursor over `buf`; every read is bounds-checked so a
        // truncated or scribbled metadata region decodes to `Corrupt`.
        let mut cur = Cursor { buf, pos: 0 };
        let magic = cur.u32()?;
        if magic != META_MAGIC {
            return Err(DbError::Corrupt("bad device metadata magic".into()));
        }
        let next_free = cur.u64()?;
        let nrels = cur.u32()?;
        let mut rels = HashMap::new();
        for _ in 0..nrels {
            let rel = Oid(cur.u32()?);
            let n = cur.u64()? as usize;
            let nruns = cur.u64()?;
            let mut blocks = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..nruns {
                let start = cur.u64()?;
                let len = cur.u64()?;
                for b in start..start.checked_add(len).ok_or_else(corrupt)? {
                    blocks.push(b);
                }
            }
            if blocks.len() != n {
                return Err(DbError::Corrupt("relmap run lengths disagree".into()));
            }
            rels.insert(rel, blocks);
        }
        let mut map = RelMap {
            rels,
            dirty: false,
            ..RelMap::new(next_free, capacity)
        };
        // Measured, not taken from the stored header: a torn destage can
        // leave a longer header over an older, shorter map.
        map.encoded_len = map.encode().len();
        Ok(map)
    }
}

/// Writes a device manager's block map into its device's reserved region:
/// whole, in place, header block first. Private to this module — the maps
/// are the last structure persisted this way, and nothing else may be.
fn write_meta(dev: &SharedDevice, first_block: u64, meta: &[u8]) -> DbResult<()> {
    let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
    let mut d = dev.lock();
    let bs = d.block_size();
    if meta.len() > meta_capacity(bs) {
        return Err(DbError::Device(DevError::NoSpace));
    }
    let mut hdr = vec![0u8; bs];
    hdr[..8].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    d.write_block(first_block, &hdr)?;
    for (i, chunk) in meta.chunks(bs).enumerate() {
        let mut blk = vec![0u8; bs];
        blk[..chunk.len()].copy_from_slice(chunk);
        d.write_block(first_block + 1 + i as u64, &blk)?;
    }
    Ok(())
}

/// Reads back a metadata byte string written by [`write_meta`], or `None`
/// if never written.
fn read_meta(dev: &SharedDevice, first_block: u64) -> DbResult<Option<Vec<u8>>> {
    let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
    let mut d = dev.lock();
    let bs = d.block_size();
    let mut hdr = vec![0u8; bs];
    d.read_block(first_block, &mut hdr)?;
    let len = crate::bytes::le_u64(&hdr, 0)? as usize;
    if len == 0 {
        return Ok(None);
    }
    if len > meta_capacity(bs) {
        return Err(DbError::Corrupt("metadata length out of range".into()));
    }
    let mut out = vec![0u8; len];
    let mut blk = vec![0u8; bs];
    for (i, chunk) in out.chunks_mut(bs).enumerate() {
        d.read_block(first_block + 1 + i as u64, &mut blk)?;
        chunk.copy_from_slice(&blk[..chunk.len()]);
    }
    Ok(Some(out))
}

/// The standard manager for rewritable random-access media.
pub struct GenericManager {
    dev: SharedDevice,
    map: RelMap,
    /// Whether a block was written since the last sync. A sync with nothing
    /// to make durable is skipped, so an idle device — the catalog device
    /// between DDL — costs a checkpoint nothing.
    unsynced: bool,
    /// Pages claimed per allocation; 1 keeps the legacy bump allocator.
    extent_size: u64,
}

impl GenericManager {
    /// Formats `dev` (reserving the metadata region) and returns a manager.
    pub fn format(dev: SharedDevice) -> DbResult<GenericManager> {
        let map = RelMap::new(META_BLOCKS, meta_capacity(dev.lock().block_size()));
        let mut mgr = GenericManager { dev, map, unsynced: false, extent_size: 1 };
        mgr.sync()?;
        Ok(mgr)
    }

    /// Re-attaches to a previously formatted device, reloading its metadata.
    pub fn attach(dev: SharedDevice) -> DbResult<GenericManager> {
        let meta = read_meta(&dev, 0)?
            .ok_or_else(|| DbError::Corrupt("device was never formatted".into()))?;
        let map = RelMap::decode(&meta, meta_capacity(dev.lock().block_size()))?;
        Ok(GenericManager { dev, map, unsynced: false, extent_size: 1 })
    }
}

impl DeviceManager for GenericManager {
    fn device_name(&self) -> String {
        self.dev.lock().name().to_string()
    }

    fn create_rel(&mut self, rel: RelId) -> DbResult<()> {
        self.map.create(rel)
    }

    fn drop_rel(&mut self, rel: RelId) -> DbResult<()> {
        self.map.drop(rel)
    }

    fn has_rel(&self, rel: RelId) -> bool {
        self.map.rels.contains_key(&rel)
    }

    fn nblocks(&self, rel: RelId) -> DbResult<u64> {
        Ok(self.map.blocks(rel)?.len() as u64)
    }

    fn extend_blank(&mut self, rel: RelId) -> DbResult<u64> {
        self.map.grow(rel, self.extent_size, self.dev.lock().nblocks())
    }

    fn read(&mut self, rel: RelId, blkno: u64, buf: &mut [u8]) -> DbResult<()> {
        let phys = self.map.physical(rel, blkno)?;
        self.dev.lock().read_block(phys, buf)?;
        Ok(())
    }

    fn write(&mut self, rel: RelId, blkno: u64, buf: &[u8]) -> DbResult<()> {
        let phys = self.map.physical(rel, blkno)?;
        self.dev.lock().write_block(phys, buf)?;
        self.unsynced = true;
        Ok(())
    }

    fn sync(&mut self) -> DbResult<()> {
        if !self.map.dirty && !self.unsynced {
            return Ok(());
        }
        if self.map.dirty {
            write_meta(&self.dev, 0, &self.map.encode())?;
            self.map.persisted();
        }
        self.dev.lock().sync()?;
        self.unsynced = false;
        Ok(())
    }

    fn relations(&self) -> Vec<RelId> {
        self.map.relations()
    }

    fn set_extent_size(&mut self, pages: u64) {
        self.extent_size = pages.max(1);
    }
}

/// Configuration for a [`JukeboxManager`].
#[derive(Debug, Clone)]
pub struct JukeboxConfig {
    /// Pages per extent of physically contiguous platter space. "The extent
    /// size is tunable when POSTGRES is installed, but defaults to 16 pages."
    pub extent_pages: u64,
    /// Staging cache capacity in blocks on the magnetic disk. "The size of
    /// this cache is tunable, and defaults to 10 MBytes."
    pub cache_blocks: u64,
}

impl Default for JukeboxConfig {
    fn default() -> Self {
        JukeboxConfig {
            extent_pages: 16,
            cache_blocks: (10 << 20) / simdev::BLOCK_SIZE as u64,
        }
    }
}

/// Cache entry state for one jukebox logical block staged on magnetic disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageState {
    Clean,
    /// Never burned to a platter (or superseding a burned copy).
    Dirty,
}

/// The Sony WORM jukebox manager: extent allocation, staging cache,
/// write-once remapping.
pub struct JukeboxManager {
    jukebox: SharedDevice,
    staging: SharedDevice,
    config: JukeboxConfig,
    map: RelMap,
    /// Physical platter blocks that have been burned (write-once consumed).
    burned: std::collections::HashSet<u64>,
    /// physical jukebox block -> (staging disk block, state), plus LRU order.
    cache: HashMap<u64, (u64, StageState)>,
    lru: std::collections::VecDeque<u64>,
    free_staging: Vec<u64>,
    /// Whether `burned` changed since the metadata was last written.
    meta_dirty: bool,
}

impl JukeboxManager {
    /// Creates a manager over a fresh jukebox with `staging` as its cache
    /// disk. Manager metadata lives on the staging disk (platters are
    /// write-once and unsuitable for mutable metadata).
    pub fn format(
        jukebox: SharedDevice,
        staging: SharedDevice,
        config: JukeboxConfig,
    ) -> DbResult<JukeboxManager> {
        // The metadata region also holds the burned list, which the map
        // does not account: the jukebox's cap is `write_meta`'s, at sync.
        let map = RelMap::new(0, usize::MAX);
        let mut mgr = JukeboxManager::with_meta(jukebox, staging, config, map, Default::default());
        mgr.sync()?;
        Ok(mgr)
    }

    /// Re-attaches after a restart, reloading metadata from the staging disk.
    ///
    /// The staging cache itself is volatile across restarts in this model:
    /// `sync` burns all dirty staged blocks, so a synced manager loses only
    /// clean cached copies.
    pub fn attach(
        jukebox: SharedDevice,
        staging: SharedDevice,
        config: JukeboxConfig,
    ) -> DbResult<JukeboxManager> {
        let meta = read_meta(&staging, 0)?
            .ok_or_else(|| DbError::Corrupt("jukebox staging disk was never formatted".into()))?;
        let (map, burned) = Self::decode_meta(&meta)?;
        Ok(JukeboxManager::with_meta(jukebox, staging, config, map, burned))
    }

    fn with_meta(
        jukebox: SharedDevice,
        staging: SharedDevice,
        config: JukeboxConfig,
        map: RelMap,
        burned: std::collections::HashSet<u64>,
    ) -> JukeboxManager {
        let free_staging = (META_BLOCKS..META_BLOCKS + config.cache_blocks)
            .rev()
            .collect();
        JukeboxManager {
            jukebox,
            staging,
            config,
            map,
            burned,
            cache: HashMap::new(),
            lru: std::collections::VecDeque::new(),
            free_staging,
            meta_dirty: false,
        }
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut out = self.map.encode();
        out.extend_from_slice(&(self.burned.len() as u64).to_le_bytes());
        let mut burned: Vec<_> = self.burned.iter().copied().collect();
        burned.sort_unstable();
        for b in burned {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    fn decode_meta(buf: &[u8]) -> DbResult<(RelMap, std::collections::HashSet<u64>)> {
        let map = RelMap::decode(buf, usize::MAX)?;
        let corrupt = || DbError::Corrupt("truncated jukebox metadata".into());
        let rest = buf.get(map.encoded_len..).ok_or_else(corrupt)?;
        let mut cur = Cursor { buf: rest, pos: 0 };
        let n = cur.u64()? as usize;
        let mut burned = std::collections::HashSet::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            burned.insert(cur.u64()?);
        }
        Ok((map, burned))
    }

    fn touch_lru(&mut self, phys: u64) {
        if let Some(pos) = self.lru.iter().position(|&p| p == phys) {
            self.lru.remove(pos);
        }
        self.lru.push_back(phys);
    }

    /// Ensures there is a free staging slot, evicting (and burning) the LRU
    /// staged block if necessary. Returns a free staging block number.
    fn grab_staging_slot(&mut self) -> DbResult<u64> {
        if let Some(slot) = self.free_staging.pop() {
            return Ok(slot);
        }
        let victim = self
            .lru
            .pop_front()
            .ok_or_else(|| DbError::Invalid("staging cache empty but no free slots".into()))?;
        let (slot, state) = self.cache.remove(&victim).ok_or_else(|| {
            DbError::Corrupt("staging LRU entry missing from cache map".into())
        })?;
        if state == StageState::Dirty {
            self.burn(victim, slot)?;
        }
        Ok(slot)
    }

    /// Writes a staged block to the platter (consuming write-once budget)
    /// and returns where it went. A block already burned was rewritten
    /// since: burning the same spot again would violate write-once, so its
    /// logical block moves to fresh platter space first. A rewritten block
    /// no relation holds any more is not burned.
    fn burn(&mut self, phys: u64, staging_slot: u64) -> DbResult<u64> {
        let target = if self.burned.contains(&phys) {
            let Some((rel, idx)) = self.map.rels.iter().find_map(|(&r, blocks)| {
                blocks.iter().position(|&p| p == phys).map(|i| (r, i as u64))
            }) else {
                return Ok(phys);
            };
            let platter_blocks = self.jukebox.lock().nblocks();
            self.map.remap(rel, idx, self.config.extent_pages, platter_blocks)?
        } else {
            phys
        };
        let mut buf = vec![0u8; self.jukebox.lock().block_size()];
        self.staging.lock().read_block(staging_slot, &mut buf)?;
        self.jukebox.lock().write_block(target, &buf)?;
        self.burned.insert(target);
        self.meta_dirty = true;
        Ok(target)
    }
}

impl DeviceManager for JukeboxManager {
    fn device_name(&self) -> String {
        self.jukebox.lock().name().to_string()
    }

    fn create_rel(&mut self, rel: RelId) -> DbResult<()> {
        self.map.create(rel)
    }

    /// The relation's staged blocks go with it: nothing of theirs is
    /// burned, and their staging slots come back.
    fn drop_rel(&mut self, rel: RelId) -> DbResult<()> {
        for phys in self.map.blocks(rel)? {
            if let Some((slot, _)) = self.cache.remove(phys) {
                self.free_staging.push(slot);
            }
        }
        let cache = &self.cache;
        self.lru.retain(|phys| cache.contains_key(phys));
        self.map.drop(rel)
    }

    fn has_rel(&self, rel: RelId) -> bool {
        self.map.rels.contains_key(&rel)
    }

    fn nblocks(&self, rel: RelId) -> DbResult<u64> {
        Ok(self.map.blocks(rel)?.len() as u64)
    }

    /// The block is staged (dirty) by its first [`DeviceManager::write`];
    /// until then it is platter space only.
    fn extend_blank(&mut self, rel: RelId) -> DbResult<u64> {
        self.map.grow(rel, self.config.extent_pages, self.jukebox.lock().nblocks())
    }

    fn read(&mut self, rel: RelId, blkno: u64, buf: &mut [u8]) -> DbResult<()> {
        let phys = self.map.physical(rel, blkno)?;
        if let Some(&(slot, _)) = self.cache.get(&phys) {
            self.staging.lock().read_block(slot, buf)?;
            self.touch_lru(phys);
            return Ok(());
        }
        // Miss: fetch from the robot, then stage for future accesses.
        self.jukebox.lock().read_block(phys, buf)?;
        let slot = self.grab_staging_slot()?;
        self.staging.lock().write_block(slot, buf)?;
        self.cache.insert(phys, (slot, StageState::Clean));
        self.touch_lru(phys);
        Ok(())
    }

    /// A block already burned is staged like any other: its burn moves it.
    fn write(&mut self, rel: RelId, blkno: u64, buf: &[u8]) -> DbResult<()> {
        let phys = self.map.physical(rel, blkno)?;
        let slot = match self.cache.get(&phys) {
            Some(&(slot, _)) => slot,
            None => self.grab_staging_slot()?,
        };
        self.staging.lock().write_block(slot, buf)?;
        self.cache.insert(phys, (slot, StageState::Dirty));
        self.touch_lru(phys);
        Ok(())
    }

    fn sync(&mut self) -> DbResult<()> {
        // Burn every dirty staged block so committed data reaches stable,
        // robot-managed media.
        let dirty: Vec<(u64, u64)> = self
            .cache
            .iter()
            .filter(|(_, (_, st))| *st == StageState::Dirty)
            .map(|(&phys, &(slot, _))| (phys, slot))
            .collect();
        for (phys, slot) in dirty {
            let target = self.burn(phys, slot)?;
            if target != phys {
                if let Some(e) = self.cache.remove(&phys) {
                    self.cache.insert(target, e);
                }
                for p in &mut self.lru {
                    if *p == phys {
                        *p = target;
                    }
                }
            }
            if let Some(e) = self.cache.get_mut(&target) {
                e.1 = StageState::Clean;
            }
        }
        if self.meta_dirty || self.map.dirty {
            write_meta(&self.staging, 0, &self.encode_meta())?;
            self.meta_dirty = false;
            self.map.persisted();
        }
        self.staging.lock().sync()?;
        self.jukebox.lock().sync()?;
        Ok(())
    }

    fn relations(&self) -> Vec<RelId> {
        self.map.relations()
    }

    /// A staged block that no relation maps would hold its slot and be
    /// burned to write-once space at the next sync or eviction.
    fn check(&self) -> Vec<String> {
        let mapped: std::collections::HashSet<&u64> = self.map.rels.values().flatten().collect();
        let orphans: std::collections::BTreeSet<&u64> =
            self.cache.keys().filter(|p| !mapped.contains(p)).collect();
        orphans
            .into_iter()
            .map(|phys| format!("staged platter block {phys} belongs to no relation"))
            .collect()
    }
}

/// The device manager switch: routes relation I/O to the device's manager.
pub struct Smgr {
    mgrs: HashMap<DeviceId, Arc<Mutex<Box<dyn DeviceManager>>>>,
    /// Set by [`crate::Db::open`]: the simulated clock and the database's
    /// stats registry, used to count and time page I/O per device.
    instr: Option<(simdev::SimClock, Arc<crate::stats::StatsRegistry>)>,
    redo: Option<Arc<crate::recovery::Redo>>,
    /// The per-device write-behind scheduler, once [`Smgr::start_io`] ran.
    io: Option<crate::io::IoLayer>,
}

impl Smgr {
    /// Creates an empty switch.
    pub fn new() -> Smgr {
        Smgr {
            mgrs: HashMap::new(),
            instr: None,
            redo: None,
            io: None,
        }
    }

    /// Attaches a clock and stats registry; from then on the `*_page`
    /// wrappers record per-device read/write counts and simulated-latency
    /// histograms into `stats`.
    pub fn attach_stats(&mut self, clock: simdev::SimClock, stats: Arc<crate::stats::StatsRegistry>) {
        self.instr = Some((clock, stats));
    }

    /// Attaches the pending-REDO map built by crash recovery: every page
    /// read replays its missing records on first touch (instant recovery),
    /// until a checkpoint sweeps the map empty.
    pub fn attach_redo(&mut self, redo: Arc<crate::recovery::Redo>) {
        self.redo = Some(redo);
    }

    /// Registers `mgr` as device `id`.
    pub fn register(&mut self, id: DeviceId, mgr: Box<dyn DeviceManager>) -> DbResult<()> {
        if self.mgrs.contains_key(&id) {
            return Err(DbError::AlreadyExists(format!("{id}")));
        }
        let mgr = Arc::new(Mutex::new(mgr));
        if let (Some(io), Some((clock, stats))) = (&mut self.io, &self.instr) {
            io.add_device(id, Arc::clone(&mgr), clock.clone(), Arc::clone(stats));
        }
        self.mgrs.insert(id, mgr);
        Ok(())
    }

    /// Starts the write-behind scheduler: one elevator worker per
    /// registered device. Requires [`Smgr::attach_stats`] (the workers
    /// account their I/O); without it every write stays synchronous.
    pub fn start_io(&mut self) {
        if self.io.is_some() {
            return;
        }
        let Some((clock, stats)) = &self.instr else {
            return;
        };
        let mut io = crate::io::IoLayer::new();
        for (&dev, mgr) in &self.mgrs {
            io.add_device(dev, Arc::clone(mgr), clock.clone(), Arc::clone(stats));
        }
        self.io = Some(io);
    }

    /// The scheduler queue for `dev`, when the scheduler is running.
    pub fn io_queue(&self, dev: DeviceId) -> Option<&Arc<crate::io::DevQueue>> {
        self.io.as_ref().and_then(|io| io.queue(dev))
    }

    /// Crash: aborts every device queue (in-flight requests are dropped,
    /// waiters get errors). Used by `Db::simulate_crash` *before* joining
    /// background threads that may be blocked in a barrier.
    pub fn io_abort(&self) {
        if let Some(io) = &self.io {
            io.abort();
        }
    }

    /// Pauses or resumes every device worker (torture-test hook).
    pub fn io_pause(&self, paused: bool) {
        if let Some(io) = &self.io {
            io.pause(paused);
        }
    }

    /// Requests currently queued across all devices.
    pub fn io_depth(&self) -> usize {
        self.io.as_ref().map_or(0, |io| io.depth())
    }

    /// Eviction backpressure: waits until `dev`'s queue drains below its
    /// depth bound. Call with no latch held.
    pub fn io_throttle(&self, dev: DeviceId) {
        if let Some(q) = self.io_queue(dev) {
            q.throttle();
        }
    }

    /// The registered device ids.
    pub fn devices(&self) -> Vec<DeviceId> {
        let mut v: Vec<_> = self.mgrs.keys().copied().collect();
        v.sort();
        v
    }

    /// Runs `f` with the manager for `dev`.
    pub fn with<T>(
        &self,
        dev: DeviceId,
        f: impl FnOnce(&mut dyn DeviceManager) -> DbResult<T>,
    ) -> DbResult<T> {
        let mgr = self
            .mgrs
            .get(&dev)
            .ok_or_else(|| DbError::NotFound(format!("{dev}")))?;
        let _order = crate::lock::order::token(crate::lock::order::SMGR_DEVICE);
        let mut g = mgr.lock();
        f(g.as_mut())
    }

    /// Runs the device access `io`, charged to `dev`'s counters and timed
    /// on the simulated clock when stats are attached.
    fn accounted<T>(&self, dev: DeviceId, kind: PageIo, io: impl FnOnce() -> T) -> T {
        match &self.instr {
            Some((clock, stats)) => stats.device(dev).timed(clock, kind, io),
            None => io(),
        }
    }

    /// Reads a page on the caller's thread. A write still queued in the
    /// scheduler carries the *newest* bytes (the device copy is stale until
    /// the worker drains it), so those win; otherwise the device is read.
    /// Returns whether recovery replayed records onto the page: then it is
    /// newer than any copy below and must be written back.
    pub fn read_page(
        &self,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
        buf: &mut [u8],
    ) -> DbResult<bool> {
        debug_assert!(
            !crate::lock::order::is_held(crate::lock::order::BUFFER_SHARD),
            "device read while holding a buffer shard latch"
        );
        match self.io_queue(dev).and_then(|q| q.claim(rel, blkno)) {
            Some(bytes) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
            }
            None => self.accounted(dev, PageIo::Read, || {
                self.with(dev, |m| m.read(rel, blkno, buf))
            })?,
        }
        // Instant recovery: a page read from the device may predate the
        // crash; replay its pending REDO records before anyone sees it.
        // (LSN-gated, so replaying over fresher queued bytes is a no-op.)
        match &self.redo {
            Some(redo) if !redo.is_empty() => redo.replay_into((dev, rel, blkno), buf),
            _ => Ok(false),
        }
    }

    /// Write-behind: queues the page for the device worker and returns
    /// immediately. WAL-before-data is the *caller's* job — force the WAL up
    /// to the page's LSN before calling this. Falls back to a synchronous
    /// [`Smgr::write_page`] when the scheduler is off or shutting down.
    /// Once the write is submitted, the page's pending REDO records are
    /// retired: the bytes carry them, and a read finds the queued write.
    pub fn write_page_back(
        &self,
        dev: DeviceId,
        rel: RelId,
        blkno: u64,
        buf: &[u8],
    ) -> DbResult<()> {
        let queued = self.io_queue(dev).is_some_and(|q| q.submit_write(rel, blkno, buf));
        if !queued {
            self.write_page(dev, rel, blkno, buf)?;
        }
        if let Some(redo) = self.redo.as_ref().filter(|r| !r.is_empty()) {
            redo.forget((dev, rel, blkno));
        }
        Ok(())
    }

    /// Writes a page through the switch, recording per-device counters and
    /// simulated latency when stats are attached.
    pub fn write_page(&self, dev: DeviceId, rel: RelId, blkno: u64, buf: &[u8]) -> DbResult<()> {
        debug_assert!(
            !crate::lock::order::is_held(crate::lock::order::BUFFER_SHARD),
            "device write while holding a buffer shard latch"
        );
        self.accounted(dev, PageIo::Write, || self.with(dev, |m| m.write(rel, blkno, buf)))
    }

    /// Appends a blank page through the switch, counted as a write (the
    /// block's contents reach the device at first flush).
    pub fn extend_page(&self, dev: DeviceId, rel: RelId) -> DbResult<u64> {
        debug_assert!(
            !crate::lock::order::is_held(crate::lock::order::BUFFER_SHARD),
            "device extend while holding a buffer shard latch"
        );
        self.accounted(dev, PageIo::Write, || self.with(dev, |m| m.extend_blank(rel)))
    }

    /// Syncs every registered device (checkpoint, `flush_caches`, shutdown).
    /// With the scheduler on each is a *queue barrier* first: every write
    /// submitted before this call reaches the device before the manager
    /// `sync()` runs.
    pub fn sync_all(&self) -> DbResult<()> {
        for dev in self.devices() {
            if let Some(q) = self.io_queue(dev) {
                q.barrier()?;
            }
            self.with(dev, |m| m.sync())?;
        }
        Ok(())
    }
}

impl Default for Smgr {
    fn default() -> Self {
        Smgr::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdev::{DiskProfile, JukeboxProfile, MagneticDisk, OpticalJukebox, SimClock};

    fn disk_mgr() -> GenericManager {
        let clock = SimClock::new();
        let dev = shared_device(MagneticDisk::new(
            "d",
            clock,
            DiskProfile::tiny_for_tests(4096),
        ));
        GenericManager::format(dev).unwrap()
    }

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; simdev::BLOCK_SIZE]
    }

    #[test]
    fn create_extend_read_write() {
        let mut m = disk_mgr();
        let rel = Oid(100);
        m.create_rel(rel).unwrap();
        assert_eq!(m.nblocks(rel).unwrap(), 0);
        assert_eq!(m.extend(rel, &page_of(1)).unwrap(), 0);
        assert_eq!(m.extend(rel, &page_of(2)).unwrap(), 1);
        assert_eq!(m.nblocks(rel).unwrap(), 2);
        let mut buf = page_of(0);
        m.read(rel, 1, &mut buf).unwrap();
        assert_eq!(buf, page_of(2));
        m.write(rel, 0, &page_of(9)).unwrap();
        m.read(rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(9));
    }

    #[test]
    fn double_create_rejected() {
        let mut m = disk_mgr();
        m.create_rel(Oid(5)).unwrap();
        assert!(matches!(
            m.create_rel(Oid(5)),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn read_beyond_end_rejected() {
        let mut m = disk_mgr();
        m.create_rel(Oid(5)).unwrap();
        let mut buf = page_of(0);
        assert!(m.read(Oid(5), 0, &mut buf).is_err());
    }

    #[test]
    fn unknown_rel_rejected() {
        let mut m = disk_mgr();
        let mut buf = page_of(0);
        assert!(matches!(
            m.read(Oid(77), 0, &mut buf),
            Err(DbError::NotFound(_))
        ));
        assert!(m.nblocks(Oid(77)).is_err());
        assert!(m.drop_rel(Oid(77)).is_err());
    }

    #[test]
    fn metadata_survives_reattach() {
        let clock = SimClock::new();
        let dev = shared_device(MagneticDisk::new(
            "d",
            clock,
            DiskProfile::tiny_for_tests(4096),
        ));
        {
            let mut m = GenericManager::format(dev.clone()).unwrap();
            m.create_rel(Oid(42)).unwrap();
            m.extend(Oid(42), &page_of(7)).unwrap();
            m.sync().unwrap();
        }
        let mut m = GenericManager::attach(dev).unwrap();
        assert!(m.has_rel(Oid(42)));
        assert_eq!(m.nblocks(Oid(42)).unwrap(), 1);
        let mut buf = page_of(0);
        m.read(Oid(42), 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(7));
    }

    #[test]
    fn attach_unformatted_fails() {
        let clock = SimClock::new();
        let dev = shared_device(MagneticDisk::new(
            "d",
            clock,
            DiskProfile::tiny_for_tests(256),
        ));
        assert!(GenericManager::attach(dev).is_err());
    }

    #[test]
    fn two_relations_are_isolated() {
        let mut m = disk_mgr();
        m.create_rel(Oid(1)).unwrap();
        m.create_rel(Oid(2)).unwrap();
        m.extend(Oid(1), &page_of(1)).unwrap();
        m.extend(Oid(2), &page_of(2)).unwrap();
        m.write(Oid(1), 0, &page_of(11)).unwrap();
        let mut buf = page_of(0);
        m.read(Oid(2), 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(2));
    }

    fn jukebox_mgr(cache_blocks: u64) -> JukeboxManager {
        let clock = SimClock::new();
        let jb = shared_device(OpticalJukebox::new(
            "jb",
            clock.clone(),
            JukeboxProfile::tiny_for_tests(),
        ));
        let st = shared_device(MagneticDisk::new(
            "st",
            clock,
            DiskProfile::tiny_for_tests(4096),
        ));
        JukeboxManager::format(
            jb,
            st,
            JukeboxConfig {
                extent_pages: 4,
                cache_blocks,
            },
        )
        .unwrap()
    }

    #[test]
    fn jukebox_roundtrip_through_staging() {
        let mut m = jukebox_mgr(8);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        for i in 0..3 {
            m.extend(rel, &page_of(i)).unwrap();
        }
        let mut buf = page_of(0);
        for i in 0..3u8 {
            m.read(rel, i as u64, &mut buf).unwrap();
            assert_eq!(buf, page_of(i), "block {i}");
        }
    }

    #[test]
    fn jukebox_eviction_burns_and_rereads() {
        // Cache of 2 blocks forces eviction to the platter.
        let mut m = jukebox_mgr(2);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        for i in 0..5 {
            m.extend(rel, &page_of(i)).unwrap();
        }
        let mut buf = page_of(0);
        for i in 0..5u8 {
            m.read(rel, i as u64, &mut buf).unwrap();
            assert_eq!(buf, page_of(i), "block {i}");
        }
    }

    #[test]
    fn jukebox_drop_releases_staged_blocks_unburned() {
        let mut m = jukebox_mgr(4);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        for i in 0..3 {
            m.extend(rel, &page_of(i)).unwrap();
        }
        m.drop_rel(rel).unwrap();
        m.sync().unwrap();
        assert!(m.burned.is_empty(), "burned {:?}", m.burned);
        assert!(m.cache.is_empty(), "still staged: {:?}", m.cache);
        assert!(m.lru.is_empty());
        assert_eq!(m.free_staging.len(), 4, "every staging slot is free again");
    }

    #[test]
    fn jukebox_check_reports_a_staged_block_no_relation_maps() {
        let mut m = jukebox_mgr(4);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        m.extend(rel, &page_of(1)).unwrap();
        assert_eq!(m.check(), Vec::<String>::new());
        let slot = m.free_staging.pop().unwrap();
        m.cache.insert(999, (slot, StageState::Dirty));
        assert_eq!(
            m.check(),
            ["staged platter block 999 belongs to no relation"]
        );
    }

    #[test]
    fn jukebox_rewrite_of_burned_block_remaps() {
        let mut m = jukebox_mgr(2);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        m.extend(rel, &page_of(1)).unwrap();
        m.sync().unwrap(); // burn block 0
                           // Evict it from staging by filling the cache.
        for i in 0..4 {
            m.extend(rel, &page_of(10 + i)).unwrap();
        }
        // Rewrite logical block 0: must remap, not violate write-once.
        m.write(rel, 0, &page_of(99)).unwrap();
        let mut buf = page_of(0);
        m.read(rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(99));
        m.sync().unwrap();
        m.read(rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(99));
    }

    #[test]
    fn jukebox_rewrite_of_a_staged_burned_block_remaps_when_evicted() {
        let mut m = jukebox_mgr(2);
        let rel = Oid(9);
        m.create_rel(rel).unwrap();
        m.extend(rel, &page_of(1)).unwrap();
        m.sync().unwrap(); // Burns block 0, which stays staged, clean.
        m.write(rel, 0, &page_of(2)).unwrap();
        for i in 0..3 {
            // Evicts the rewritten block: burning it in place would violate
            // write-once (the parent failed here).
            m.extend(rel, &page_of(10 + i)).unwrap();
        }
        let mut buf = page_of(0);
        m.read(rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(2));
    }

    #[test]
    fn jukebox_metadata_survives_reattach() {
        let clock = SimClock::new();
        let jb = shared_device(OpticalJukebox::new(
            "jb",
            clock.clone(),
            JukeboxProfile::tiny_for_tests(),
        ));
        let st = shared_device(MagneticDisk::new(
            "st",
            clock,
            DiskProfile::tiny_for_tests(4096),
        ));
        let cfg = JukeboxConfig {
            extent_pages: 4,
            cache_blocks: 8,
        };
        {
            let mut m = JukeboxManager::format(jb.clone(), st.clone(), cfg.clone()).unwrap();
            m.create_rel(Oid(3)).unwrap();
            m.extend(Oid(3), &page_of(5)).unwrap();
            m.sync().unwrap();
        }
        let mut m = JukeboxManager::attach(jb, st, cfg).unwrap();
        assert_eq!(m.nblocks(Oid(3)).unwrap(), 1);
        let mut buf = page_of(0);
        m.read(Oid(3), 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(5));
    }

    #[test]
    fn switch_routes_by_device() {
        let mut smgr = Smgr::new();
        smgr.register(DeviceId(0), Box::new(disk_mgr())).unwrap();
        smgr.register(DeviceId(1), Box::new(jukebox_mgr(8)))
            .unwrap();
        assert_eq!(smgr.devices(), vec![DeviceId(0), DeviceId(1)]);
        smgr.with(DeviceId(0), |m| m.create_rel(Oid(1))).unwrap();
        smgr.with(DeviceId(1), |m| m.create_rel(Oid(1))).unwrap();
        assert!(smgr.with(DeviceId(2), |m| m.create_rel(Oid(1))).is_err());
        assert!(matches!(
            smgr.register(DeviceId(0), Box::new(disk_mgr())),
            Err(DbError::AlreadyExists(_))
        ));
        smgr.sync_all().unwrap();
    }

    #[test]
    fn read_page_takes_a_queued_write_over_the_device_copy() {
        let dev = DeviceId(0);
        let rel = Oid(7);
        let stats = Arc::new(crate::stats::StatsRegistry::new());
        let mut smgr = Smgr::new();
        smgr.register(dev, Box::new(disk_mgr())).unwrap();
        smgr.attach_stats(SimClock::new(), Arc::clone(&stats));
        smgr.start_io();
        smgr.with(dev, |m| {
            m.create_rel(rel)?;
            m.extend(rel, &page_of(1)).map(|_| ())
        })
        .unwrap();
        // Hold the write in the queue: the device keeps the old image.
        smgr.io_pause(true);
        smgr.write_page_back(dev, rel, 0, &page_of(2)).unwrap();
        let mut buf = page_of(0);
        smgr.read_page(dev, rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(2), "the read must see the queued bytes");
        assert_eq!(stats.device(dev).reads.get(), 0, "and never touch the device");
        smgr.with(dev, |m| m.read(rel, 0, &mut buf)).unwrap();
        assert_eq!(buf, page_of(1));
        // Drained: the same read is now an ordinary device read.
        smgr.io_pause(false);
        smgr.sync_all().unwrap();
        smgr.read_page(dev, rel, 0, &mut buf).unwrap();
        assert_eq!(buf, page_of(2));
        assert_eq!(stats.device(dev).reads.get(), 1);
    }

    #[test]
    fn relmap_encoding_roundtrips() {
        let mut map = RelMap::new(64, usize::MAX);
        map.create(Oid(1)).unwrap();
        map.create(Oid(2)).unwrap();
        for rel in [1, 1, 2, 1, 1] {
            map.grow(Oid(rel), 2, 1000).unwrap(); // Extents of two.
        }
        map.remap(Oid(1), 3, 2, 1000).unwrap();
        assert_eq!(map.rels[&Oid(1)], [64, 65, 66, 69]);
        assert_eq!(map.encoded_len, map.encode().len());
        let dec = RelMap::decode(&map.encode(), usize::MAX).unwrap();
        assert_eq!(dec.next_free, 70);
        assert_eq!(dec.rels, map.rels);
        assert_eq!(dec.encoded_len, map.encoded_len);
        map.truncate(Oid(1)).unwrap();
        map.drop(Oid(2)).unwrap();
        assert_eq!(map.encoded_len, map.encode().len());
        assert!(RelMap::decode(&[1, 2, 3], usize::MAX).is_err());
    }

    #[test]
    fn growth_into_an_extent_claimed_before_the_sync_owes_recovery_a_run() {
        let mut map = RelMap::new(64, usize::MAX);
        let owed = |map: &RelMap| map.grown.values().filter(|&&paid| !paid).count();
        map.create(Oid(1)).unwrap();
        map.grow(Oid(1), 16, 1000).unwrap(); // A span of one: a new run.
        map.grow(Oid(1), 16, 1000).unwrap(); // Claims an extent.
        map.persisted();
        let len = map.encoded_len;
        for _ in 0..3 {
            // The same extent: the map does not grow, but recovery, which
            // does not know the extent, would cover these with a run.
            map.grow(Oid(1), 16, 1000).unwrap();
            assert_eq!((map.encoded_len, owed(&map)), (len, 1));
        }
        map.persisted();
        assert_eq!(owed(&map), 0);
    }

    /// Two relations grown in turn, a block at a time: each one's first
    /// block claims one block, every later extent is whole, and no physical
    /// block is handed to both — an open extent is only ever one of
    /// `extent` blocks, never the span of one a first block took.
    #[test]
    fn a_first_block_claims_one_block_and_later_extents_stay_whole() {
        let mut map = RelMap::new(64, usize::MAX);
        let (a, b) = (Oid(1), Oid(2));
        map.create(a).unwrap();
        map.create(b).unwrap();
        for i in 0..40 {
            for rel in [a, b] {
                let before = map.next_free;
                map.grow(rel, 16, 10_000).unwrap();
                if i == 0 {
                    assert_eq!(map.next_free - before, 1, "{rel}'s first block claims one");
                }
            }
        }
        // Two first blocks, then three extents of 16 for each 39 more.
        assert_eq!(map.next_free, 64 + 2 + 2 * 3 * 16);
        let mut all: Vec<u64> = map.rels[&a].iter().chain(&map.rels[&b]).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 80, "a physical block belongs to both relations");
        let dec = RelMap::decode(&map.encode(), usize::MAX).unwrap();
        assert_eq!((dec.next_free, &dec.rels), (map.next_free, &map.rels));
        assert_eq!(dec.encoded_len, map.encoded_len);
    }

    #[test]
    fn a_map_that_would_outgrow_its_region_is_refused_up_front() {
        let mut m = disk_mgr();
        let mut created = 0u32;
        let refused = loop {
            match m.create_rel(Oid(created)) {
                Ok(()) => created += 1,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(refused, DbError::Device(DevError::NoSpace)),
            "{refused}"
        );
        let room = meta_capacity(simdev::BLOCK_SIZE) - MAP_HEADER_BYTES;
        assert_eq!(created as usize, room / REL_BYTES);
        // A block that starts a run is refused too; the map still persists.
        m.drop_rel(Oid(0)).unwrap();
        m.create_rel(Oid(0)).unwrap();
        assert!(matches!(
            m.extend_blank(Oid(0)),
            Err(DbError::Device(DevError::NoSpace))
        ));
        m.sync().unwrap();
        let reattached = GenericManager::attach(m.dev.clone()).unwrap();
        assert_eq!(reattached.relations().len(), created as usize);
    }
}
