//! A volatile write-back cache wrapper for crash simulation.
//!
//! [`WriteCacheDisk`] wraps any [`BlockDevice`] and holds every write in a
//! volatile in-memory cache until [`BlockDevice::sync`] is called, at which
//! point the cached blocks are applied to the inner device in block order.
//! The paired [`CacheCrashHandle`] lets a test model a power failure by
//! discarding everything that was never synced — exactly the state a real
//! disk's track buffer would lose.
//!
//! This is the device the crash-recovery property tests run on: a commit is
//! only durable if the commit path actually issued a `sync` that covered it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::BlockDevice;
use crate::error::DevResult;

/// Shared volatile cache state: blkno → buffered (unsynced) contents.
type Pending = Arc<Mutex<HashMap<u64, Box<[u8]>>>>;

/// A write-back caching wrapper around another block device.
///
/// Reads see the cache overlay; writes land only in the cache; `sync`
/// destages everything to the inner device and then syncs it. Because the
/// cache is volatile, [`WriteCacheDisk::is_stable`] reports `false`.
pub struct WriteCacheDisk {
    inner: Box<dyn BlockDevice>,
    pending: Pending,
}

/// A handle onto a [`WriteCacheDisk`]'s volatile cache, held by the test
/// harness so it can "pull the plug" while the device itself is owned by
/// the storage manager.
#[derive(Clone)]
pub struct CacheCrashHandle {
    pending: Pending,
}

impl WriteCacheDisk {
    /// Wraps `inner`, returning the device and the crash handle.
    pub fn new(inner: Box<dyn BlockDevice>) -> (Self, CacheCrashHandle) {
        let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
        let handle = CacheCrashHandle {
            pending: pending.clone(),
        };
        (Self { inner, pending }, handle)
    }
}

impl CacheCrashHandle {
    /// Simulates a power failure: every write that was never covered by a
    /// `sync` vanishes. Returns how many blocks were lost.
    pub fn drop_unsynced(&self) -> usize {
        std::mem::take(&mut *self.pending.lock()).len()
    }

    /// Number of blocks currently buffered but not yet durable.
    pub fn unsynced_blocks(&self) -> usize {
        self.pending.lock().len()
    }
}

impl BlockDevice for WriteCacheDisk {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.inner.nblocks()
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        if let Some(data) = self.pending.lock().get(&blkno) {
            buf.copy_from_slice(data);
            return Ok(());
        }
        self.inner.read_block(blkno, buf)
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        // Validate against the inner device's geometry without dirtying it:
        // out-of-range or bad-length writes must still fail loudly.
        if blkno >= self.inner.nblocks() {
            return Err(crate::error::DevError::OutOfRange {
                blkno,
                nblocks: self.inner.nblocks(),
            });
        }
        if buf.len() != self.inner.block_size() {
            return Err(crate::error::DevError::BadBufferLen {
                got: buf.len(),
                want: self.inner.block_size(),
            });
        }
        self.pending.lock().insert(blkno, buf.into());
        Ok(())
    }

    fn sync(&mut self) -> DevResult<()> {
        let mut destage: Vec<(u64, Box<[u8]>)> = self.pending.lock().drain().collect();
        destage.sort_by_key(|(blkno, _)| *blkno);
        for (blkno, data) in destage {
            self.inner.write_block(blkno, &data)?;
        }
        self.inner.sync()
    }

    fn is_stable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::disk::{DiskProfile, MagneticDisk};

    fn cached_disk() -> (WriteCacheDisk, CacheCrashHandle) {
        let clock = SimClock::new();
        let disk = MagneticDisk::new("rz58", clock, DiskProfile::tiny_for_tests(64));
        WriteCacheDisk::new(Box::new(disk))
    }

    #[test]
    fn writes_are_volatile_until_sync() {
        let (mut dev, handle) = cached_disk();
        let bs = dev.block_size();
        let page = vec![7u8; bs];
        dev.write_block(3, &page).unwrap();
        assert_eq!(handle.unsynced_blocks(), 1);

        // Reads see the cached copy.
        let mut buf = vec![0u8; bs];
        dev.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, page);

        // Crash before sync: the write is gone, reads see zeroes.
        assert_eq!(handle.drop_unsynced(), 1);
        dev.read_block(3, &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; bs]);
    }

    #[test]
    fn sync_makes_writes_survive_a_crash() {
        let (mut dev, handle) = cached_disk();
        let bs = dev.block_size();
        let page = vec![9u8; bs];
        dev.write_block(0, &page).unwrap();
        dev.sync().unwrap();
        assert_eq!(handle.unsynced_blocks(), 0);
        assert_eq!(handle.drop_unsynced(), 0);
        let mut buf = vec![0u8; bs];
        dev.read_block(0, &mut buf).unwrap();
        assert_eq!(buf, page);
    }

    #[test]
    fn geometry_errors_pass_through() {
        let (mut dev, _handle) = cached_disk();
        let bs = dev.block_size();
        let n = dev.nblocks();
        assert!(dev.write_block(n, &vec![0u8; bs]).is_err());
        assert!(dev.write_block(0, &[0u8; 3]).is_err());
        assert!(!dev.is_stable());
    }
}
