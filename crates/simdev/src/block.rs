//! The block device abstraction, its in-memory backing store, and the one
//! simulated device every medium is: a store behind a cost model.

use crate::clock::{SimClock, SimDuration};
use crate::error::{DevError, DevResult};

/// A fixed-block-size random-access storage device.
///
/// This is the interface the storage manager's *device manager switch* (the
/// paper's `bdevsw`-style table) programs against. Implementations charge
/// their modeled access cost to the shared [`crate::SimClock`] on every call,
/// while actually moving the bytes so that higher layers are exercised for
/// real.
pub trait BlockDevice: Send {
    /// A short human-readable device name (e.g. `"rz58"`).
    fn name(&self) -> &str;

    /// The device block size in bytes (8192 throughout this system).
    fn block_size(&self) -> usize;

    /// Device capacity in blocks.
    fn nblocks(&self) -> u64;

    /// Reads block `blkno` into `buf` (`buf.len()` must equal the block size).
    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()>;

    /// Writes `buf` to block `blkno` (`buf.len()` must equal the block size).
    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()>;

    /// Forces all buffered writes to stable storage.
    ///
    /// The in-memory models write through, so the default is a no-op; devices
    /// with internal volatile caches (e.g. [`crate::Nvram`] in write-back
    /// mode) override it.
    fn sync(&mut self) -> DevResult<()> {
        Ok(())
    }

    /// Whether the device contents survive a power failure.
    fn is_stable(&self) -> bool {
        true
    }
}

/// Sparse in-memory block storage shared by all device models.
///
/// Blocks are materialized on first write; reads of never-written blocks
/// return zeroes, like a freshly formatted medium.
#[derive(Debug, Default)]
pub struct MemBlockStore {
    block_size: usize,
    nblocks: u64,
    blocks: std::collections::HashMap<u64, Box<[u8]>>,
}

impl MemBlockStore {
    /// Creates a store of `nblocks` blocks of `block_size` bytes each.
    pub fn new(block_size: usize, nblocks: u64) -> Self {
        MemBlockStore {
            block_size,
            nblocks,
            blocks: std::collections::HashMap::new(),
        }
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configured capacity in blocks.
    pub fn nblocks(&self) -> u64 {
        self.nblocks
    }

    /// Whether `blkno` has ever been written.
    pub fn is_written(&self, blkno: u64) -> bool {
        self.blocks.contains_key(&blkno)
    }

    fn check(&self, blkno: u64, len: usize) -> DevResult<()> {
        if blkno >= self.nblocks {
            return Err(DevError::OutOfRange {
                blkno,
                nblocks: self.nblocks,
            });
        }
        if len != self.block_size {
            return Err(DevError::BadBufferLen {
                got: len,
                want: self.block_size,
            });
        }
        Ok(())
    }

    /// Copies block `blkno` into `buf`.
    pub fn read(&self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        self.check(blkno, buf.len())?;
        match self.blocks.get(&blkno) {
            Some(b) => buf.copy_from_slice(b),
            None => buf.fill(0),
        }
        Ok(())
    }

    /// Stores `buf` as block `blkno`.
    pub fn write(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        self.check(blkno, buf.len())?;
        self.blocks.insert(blkno, buf.into());
        Ok(())
    }
}

/// How a medium's mechanism spends time: the cost model a [`SimDevice`]
/// charges before each access.
pub trait Mechanics: Send {
    /// Whether a written block may be written again (`false` for WORM
    /// platters, which refuse with [`DevError::WriteOnceViolation`]).
    const REWRITABLE: bool = true;

    /// The time to reach and transfer block `blkno`, leaving the mechanism
    /// (head, mounted platter, tape position) there.
    fn cost(&mut self, blkno: u64) -> SimDuration;
}

/// A simulated storage device: a [`MemBlockStore`] whose every access first
/// charges its [`Mechanics`]' cost to the shared clock. Each medium of the
/// paper is one of these (`MagneticDisk`, `Nvram`, `OpticalJukebox`,
/// `TapeJukebox`); faults and caches wrap it ([`crate::Faulty`],
/// [`crate::WriteCacheDisk`]).
pub struct SimDevice<M> {
    name: String,
    clock: SimClock,
    store: MemBlockStore,
    mechanics: M,
}

impl<M: Mechanics> SimDevice<M> {
    /// A blank device of `nblocks` blocks of `block_size` bytes.
    pub fn with_mechanics(
        name: impl Into<String>,
        clock: SimClock,
        block_size: usize,
        nblocks: u64,
        mechanics: M,
    ) -> Self {
        SimDevice {
            name: name.into(),
            clock,
            store: MemBlockStore::new(block_size, nblocks),
            mechanics,
        }
    }
}

impl<M: Mechanics> BlockDevice for SimDevice<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_size(&self) -> usize {
        self.store.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.store.nblocks()
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        self.clock.advance(self.mechanics.cost(blkno));
        self.store.read(blkno, buf)
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        if !M::REWRITABLE && self.store.is_written(blkno) {
            return Err(DevError::WriteOnceViolation { blkno });
        }
        self.clock.advance(self.mechanics.cost(blkno));
        self.store.write(blkno, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let store = MemBlockStore::new(16, 4);
        let mut buf = [0xFFu8; 16];
        store.read(2, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert!(!store.is_written(2));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut store = MemBlockStore::new(4, 4);
        store.write(1, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        store.read(1, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(store.is_written(1));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut store = MemBlockStore::new(4, 4);
        let err = store.write(4, &[0; 4]).unwrap_err();
        assert!(matches!(
            err,
            DevError::OutOfRange {
                blkno: 4,
                nblocks: 4
            }
        ));
        let mut buf = [0u8; 4];
        assert!(store.read(100, &mut buf).is_err());
    }

    #[test]
    fn bad_buffer_len_rejected() {
        let mut store = MemBlockStore::new(4, 4);
        assert!(matches!(
            store.write(0, &[0; 3]),
            Err(DevError::BadBufferLen { got: 3, want: 4 })
        ));
        let mut small = [0u8; 2];
        assert!(store.read(0, &mut small).is_err());
    }
}
