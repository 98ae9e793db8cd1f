//! The benchmark's own block devices.
//!
//! The library's devices charge a modelled cost to a virtual clock; the
//! benchmark wants wall-clock time for the program alone plus an exact count
//! of what reached the device. [`CountingRamDisk`] therefore costs nothing
//! and counts everything. [`FileDisk`] is the opt-in alternative that meets
//! a real `fsync`; its numbers describe the sandbox, not the program.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use simdev::{BlockDevice, DevError, DevResult, BLOCK_SIZE};

/// What one device saw. Shared between the device (which sits behind the
/// storage manager's mutex) and the harness (which reads it from outside).
#[derive(Debug, Default)]
pub struct DevCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    /// Wall nanoseconds spent inside `read_block`/`write_block`/`sync`.
    pub busy_ns: AtomicU64,
    /// Highest block number ever written, plus one (0 = never written).
    pub high_water: AtomicU64,
}

/// A frozen copy of [`DevCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DevSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub busy_ns: u64,
    pub high_water: u64,
}

impl DevCounters {
    pub fn snapshot(&self) -> DevSnapshot {
        DevSnapshot {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            high_water: self.high_water.load(Relaxed),
        }
    }

    fn charge(&self, op: &AtomicU64, started: Instant) {
        op.fetch_add(1, Relaxed);
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
    }
}

impl DevSnapshot {
    /// Counter deltas since `base`; `high_water` is a level, not a rate, and
    /// is carried over as is.
    pub fn since(&self, base: &DevSnapshot) -> DevSnapshot {
        DevSnapshot {
            reads: self.reads - base.reads,
            writes: self.writes - base.writes,
            syncs: self.syncs - base.syncs,
            busy_ns: self.busy_ns - base.busy_ns,
            high_water: self.high_water,
        }
    }
}

fn check(blkno: u64, nblocks: u64, len: usize) -> DevResult<()> {
    if blkno >= nblocks {
        return Err(DevError::OutOfRange { blkno, nblocks });
    }
    if len != BLOCK_SIZE {
        return Err(DevError::BadBufferLen {
            got: len,
            want: BLOCK_SIZE,
        });
    }
    Ok(())
}

/// RAM-backed, zero modelled cost, sparse: blocks materialise on first
/// write and never-written blocks read as zeros.
pub struct CountingRamDisk {
    name: String,
    nblocks: u64,
    blocks: Vec<Option<Box<[u8]>>>,
    counters: Arc<DevCounters>,
}

impl CountingRamDisk {
    pub fn new(name: &str, nblocks: u64) -> (CountingRamDisk, Arc<DevCounters>) {
        let counters = Arc::new(DevCounters::default());
        let disk = CountingRamDisk {
            name: name.to_string(),
            nblocks,
            blocks: Vec::new(),
            counters: Arc::clone(&counters),
        };
        (disk, counters)
    }
}

impl BlockDevice for CountingRamDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn nblocks(&self) -> u64 {
        self.nblocks
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        let t = Instant::now();
        check(blkno, self.nblocks, buf.len())?;
        match self.blocks.get(blkno as usize) {
            Some(Some(b)) => buf.copy_from_slice(b),
            _ => buf.fill(0),
        }
        self.counters.charge(&self.counters.reads, t);
        Ok(())
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        let t = Instant::now();
        check(blkno, self.nblocks, buf.len())?;
        let i = blkno as usize;
        if i >= self.blocks.len() {
            self.blocks.resize_with(i + 1, || None);
            self.counters.high_water.store(blkno + 1, Relaxed);
        }
        match &mut self.blocks[i] {
            Some(b) => b.copy_from_slice(buf),
            slot => *slot = Some(buf.into()),
        }
        self.counters.charge(&self.counters.writes, t);
        Ok(())
    }

    fn sync(&mut self) -> DevResult<()> {
        let t = Instant::now();
        self.counters.charge(&self.counters.syncs, t);
        Ok(())
    }
}

/// A sparse host file: `pread`/`pwrite` per block, `fdatasync` on `sync`.
pub struct FileDisk {
    name: String,
    nblocks: u64,
    file: File,
    counters: Arc<DevCounters>,
}

impl FileDisk {
    pub fn create(
        name: &str,
        path: &Path,
        nblocks: u64,
    ) -> std::io::Result<(FileDisk, Arc<DevCounters>)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(nblocks * BLOCK_SIZE as u64)?;
        let counters = Arc::new(DevCounters::default());
        let disk = FileDisk {
            name: name.to_string(),
            nblocks,
            file,
            counters: Arc::clone(&counters),
        };
        Ok((disk, counters))
    }
}

fn io_fault(what: &str, e: std::io::Error) -> DevError {
    DevError::InjectedFault {
        what: format!("host file {what}: {e}"),
    }
}

impl BlockDevice for FileDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn nblocks(&self) -> u64 {
        self.nblocks
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        let t = Instant::now();
        check(blkno, self.nblocks, buf.len())?;
        self.file
            .read_exact_at(buf, blkno * BLOCK_SIZE as u64)
            .map_err(|e| io_fault("read", e))?;
        self.counters.charge(&self.counters.reads, t);
        Ok(())
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        let t = Instant::now();
        check(blkno, self.nblocks, buf.len())?;
        self.file
            .write_all_at(buf, blkno * BLOCK_SIZE as u64)
            .map_err(|e| io_fault("write", e))?;
        self.counters.high_water.fetch_max(blkno + 1, Relaxed);
        self.counters.charge(&self.counters.writes, t);
        Ok(())
    }

    fn sync(&mut self) -> DevResult<()> {
        let t = Instant::now();
        self.file.sync_data().map_err(|e| io_fault("sync", e))?;
        self.counters.charge(&self.counters.syncs, t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_disk_counts_and_tracks_high_water() {
        let (mut d, c) = CountingRamDisk::new("t", 100);
        let page = vec![7u8; BLOCK_SIZE];
        let mut back = vec![1u8; BLOCK_SIZE];
        d.read_block(5, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "unwritten blocks read zero");
        d.write_block(9, &page).unwrap();
        d.write_block(3, &page).unwrap();
        d.write_block(9, &page).unwrap();
        d.read_block(9, &mut back).unwrap();
        assert_eq!(back, page);
        d.sync().unwrap();
        let s = c.snapshot();
        assert_eq!((s.reads, s.writes, s.syncs), (2, 3, 1));
        assert_eq!(s.high_water, 10, "highest block written is 9");
    }

    #[test]
    fn ram_disk_rejects_bad_requests_without_counting() {
        let (mut d, c) = CountingRamDisk::new("t", 4);
        let page = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            d.write_block(4, &page),
            Err(DevError::OutOfRange {
                blkno: 4,
                nblocks: 4
            })
        ));
        assert!(matches!(
            d.write_block(0, &page[..10]),
            Err(DevError::BadBufferLen { got: 10, .. })
        ));
        assert_eq!(c.snapshot(), DevSnapshot::default());
    }

    #[test]
    fn snapshot_delta_keeps_the_level() {
        let a = DevSnapshot {
            reads: 10,
            writes: 4,
            syncs: 1,
            busy_ns: 100,
            high_water: 7,
        };
        let b = DevSnapshot {
            reads: 15,
            writes: 4,
            syncs: 3,
            busy_ns: 250,
            high_water: 9,
        };
        let d = b.since(&a);
        assert_eq!((d.reads, d.writes, d.syncs, d.busy_ns), (5, 0, 2, 150));
        assert_eq!(d.high_water, 9);
    }
}
