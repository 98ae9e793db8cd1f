//! Magnetic disk model (the paper's DEC RZ58).
//!
//! The cost of an access is `controller + seek + rotation + transfer`:
//!
//! * accesses sequential with the previous one (next block, same head
//!   position) pay neither seek nor rotational latency;
//! * non-sequential accesses pay a seek scaled between track-to-track and
//!   full-stroke by the head travel distance, plus half a rotation on
//!   average.
//!
//! This captures exactly the effect the paper blames for Inversion's slow
//! file creation: "Btree writes are interleaved with data file writes,
//! penalizing Inversion by forcing the disk head to move frequently", while
//! NFS "writes the data file sequentially, improving throughput".

use crate::block::{BlockDevice, MemBlockStore};
use crate::clock::{SimClock, SimDuration};
use crate::error::{DevError, DevResult};
use crate::fault::{FaultPlan, TORN_BYTES};

/// Timing and geometry parameters for a [`MagneticDisk`].
#[derive(Debug, Clone)]
pub struct DiskProfile {
    /// Capacity in 8 KB blocks.
    pub nblocks: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Fixed per-operation controller/driver overhead.
    pub controller_overhead: SimDuration,
    /// Track-to-track (minimum) seek time.
    pub seek_min: SimDuration,
    /// Full-stroke (maximum) seek time.
    pub seek_max: SimDuration,
    /// Average rotational latency (half a revolution).
    pub rotational_latency: SimDuration,
    /// Media transfer rate in bytes per second.
    pub transfer_rate: f64,
}

impl DiskProfile {
    /// The DEC RZ58: 1.38 GB, 5400 rpm-class SCSI disk of the early 1990s.
    ///
    /// Parameters follow the RZ58 data sheet ballpark: ~2.5 ms track-to-track,
    /// ~24 ms full stroke, 5.56 ms average rotational latency, ~2.5 MB/s
    /// sustained media rate, ~1 ms controller overhead.
    pub fn rz58() -> Self {
        DiskProfile {
            nblocks: 1_380_000_000 / crate::BLOCK_SIZE as u64,
            block_size: crate::BLOCK_SIZE,
            controller_overhead: SimDuration::from_micros(1000),
            seek_min: SimDuration::from_micros(2500),
            seek_max: SimDuration::from_millis(24),
            rotational_latency: SimDuration::from_micros(5560),
            transfer_rate: 2.5e6,
        }
    }

    /// A small, fast test profile (few blocks, microsecond costs).
    pub fn tiny_for_tests(nblocks: u64) -> Self {
        DiskProfile {
            nblocks,
            block_size: crate::BLOCK_SIZE,
            controller_overhead: SimDuration::from_micros(10),
            seek_min: SimDuration::from_micros(20),
            seek_max: SimDuration::from_micros(200),
            rotational_latency: SimDuration::from_micros(50),
            transfer_rate: 100e6,
        }
    }

    /// Transfer time for one block at the media rate.
    pub fn transfer_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.block_size as f64 / self.transfer_rate)
    }
}

/// A seek/rotate/transfer model of a magnetic disk.
pub struct MagneticDisk {
    name: String,
    clock: SimClock,
    profile: DiskProfile,
    store: MemBlockStore,
    faults: FaultPlan,
    head: u64,
    last_was: Option<u64>,
    stats: DiskStats,
}

/// Operation counters for a [`MagneticDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Accesses that required head movement.
    pub seeks: u64,
    /// Accesses that continued sequentially from the previous access.
    pub sequential: u64,
    /// Operations failed by an armed [`FaultPlan`] fault (reads + writes).
    pub fault_trips: u64,
}

impl MagneticDisk {
    /// Creates a disk with the given profile on a fresh zeroed medium.
    pub fn new(name: impl Into<String>, clock: SimClock, profile: DiskProfile) -> Self {
        let store = MemBlockStore::new(profile.block_size, profile.nblocks);
        MagneticDisk {
            name: name.into(),
            clock,
            profile,
            store,
            faults: FaultPlan::none(),
            head: 0,
            last_was: None,
            stats: DiskStats::default(),
        }
    }

    /// The fault-injection plan attached to this disk.
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults.clone()
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The disk's timing profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Charges the positioning + transfer cost of accessing `blkno`.
    fn charge(&mut self, blkno: u64) {
        let mut cost = self.profile.controller_overhead;
        let sequential =
            self.last_was == Some(blkno.wrapping_sub(1)) || self.last_was == Some(blkno);
        if sequential {
            self.stats.sequential += 1;
        } else {
            self.stats.seeks += 1;
            let dist = self.head.abs_diff(blkno) as f64 / self.profile.nblocks.max(1) as f64;
            // Seek time scales between min and max with sqrt of distance, the
            // classic accelerate/decelerate head model.
            let span =
                self.profile.seek_max.as_nanos() as f64 - self.profile.seek_min.as_nanos() as f64;
            let seek_ns = self.profile.seek_min.as_nanos() as f64 + span * dist.sqrt();
            cost += SimDuration::from_nanos(seek_ns as u64);
            cost += self.profile.rotational_latency;
        }
        cost += self.profile.transfer_time();
        self.head = blkno;
        self.last_was = Some(blkno);
        self.clock.advance(cost);
    }
}

impl BlockDevice for MagneticDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_size(&self) -> usize {
        self.profile.block_size
    }

    fn nblocks(&self) -> u64 {
        self.profile.nblocks
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        if let Err(e) = self.faults.check_read() {
            self.stats.fault_trips += 1;
            return Err(e);
        }
        self.charge(blkno);
        self.store.read(blkno, buf)?;
        if self.faults.is_corrupt(blkno) {
            // Media corruption: hand back garbage rather than stored data.
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(251).wrapping_add(13);
            }
        }
        self.stats.reads += 1;
        Ok(())
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        if let Err(e) = self.faults.check_write() {
            self.stats.fault_trips += 1;
            if e == DevError::TornWrite {
                let mut torn = vec![0u8; buf.len()];
                self.store.read(blkno, &mut torn)?;
                torn[..TORN_BYTES].copy_from_slice(&buf[..TORN_BYTES]);
                self.store.write(blkno, &torn)?;
            }
            return Err(e);
        }
        self.charge(blkno);
        self.store.write(blkno, buf)?;
        self.stats.writes += 1;
        Ok(())
    }

    fn sync(&mut self) -> DevResult<()> {
        self.faults.check_sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> (SimClock, MagneticDisk) {
        let clock = SimClock::new();
        let d = MagneticDisk::new("t", clock.clone(), DiskProfile::rz58());
        (clock, d)
    }

    #[test]
    fn sequential_access_cheaper_than_random() {
        let (clock, mut d) = disk();
        let buf = vec![0u8; d.block_size()];
        // Prime head position.
        d.write_block(0, &buf).unwrap();
        let t0 = clock.now();
        for b in 1..65 {
            d.write_block(b, &buf).unwrap();
        }
        let seq = clock.now().since(t0);

        let t1 = clock.now();
        for i in 0..64u64 {
            // Jump around the disk.
            d.write_block((i * 7919 + 100_000) % d.nblocks(), &buf)
                .unwrap();
        }
        let rand = clock.now().since(t1);
        assert!(
            rand.as_nanos() > seq.as_nanos() * 3,
            "random ({rand}) should be much slower than sequential ({seq})"
        );
    }

    #[test]
    fn data_roundtrips() {
        let (_c, mut d) = disk();
        let mut buf = vec![0u8; d.block_size()];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        d.write_block(42, &buf).unwrap();
        let mut out = vec![0u8; d.block_size()];
        d.read_block(42, &mut out).unwrap();
        assert_eq!(buf, out);
    }

    #[test]
    fn stats_count_ops_and_seeks() {
        let (_c, mut d) = disk();
        let buf = vec![0u8; d.block_size()];
        d.write_block(0, &buf).unwrap();
        d.write_block(1, &buf).unwrap();
        d.write_block(10_000, &buf).unwrap();
        let mut out = vec![0u8; d.block_size()];
        d.read_block(10_000, &mut out).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 3);
        assert_eq!(s.reads, 1);
        assert_eq!(s.sequential, 2); // block 1 follows 0; re-read of 10_000.
        assert_eq!(s.seeks, 2); // block 0 (from unknown) and the jump.
    }

    #[test]
    fn rz58_sequential_write_rate_is_about_media_rate() {
        let (clock, mut d) = disk();
        let buf = vec![0u8; d.block_size()];
        let n = 1280u64; // 10 MB
        let t0 = clock.now();
        for b in 0..n {
            d.write_block(b, &buf).unwrap();
        }
        let took = clock.now().since(t0).as_secs_f64();
        let rate = (n as f64 * 8192.0) / took;
        // Controller overhead keeps us below media rate but same order.
        assert!(rate > 1.0e6 && rate < 2.5e6, "rate was {rate}");
    }

    #[test]
    fn corrupt_block_reads_garbage() {
        let (_c, mut d) = disk();
        let buf = vec![7u8; d.block_size()];
        d.write_block(5, &buf).unwrap();
        d.fault_plan().corrupt_block(5);
        let mut out = vec![0u8; d.block_size()];
        d.read_block(5, &mut out).unwrap();
        assert_ne!(out, buf);
    }

    #[test]
    fn offline_disk_fails() {
        let (_c, mut d) = disk();
        d.fault_plan().set_offline(true);
        let mut buf = vec![0u8; d.block_size()];
        assert!(d.read_block(0, &mut buf).is_err());
        assert!(d.write_block(0, &buf).is_err());
    }
}
