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

use crate::block::{Mechanics, SimDevice};
use crate::clock::{SimClock, SimDuration};

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

/// The head of a magnetic disk: the block it touched last, if any.
pub struct Disk {
    profile: DiskProfile,
    head: Option<u64>,
}

impl Mechanics for Disk {
    fn cost(&mut self, blkno: u64) -> SimDuration {
        let mut cost = self.profile.controller_overhead;
        let head = self.head.replace(blkno);
        let sequential = head == Some(blkno.wrapping_sub(1)) || head == Some(blkno);
        if !sequential {
            let dist = head.unwrap_or(0).abs_diff(blkno) as f64 / self.profile.nblocks.max(1) as f64;
            // Seek time scales between min and max with sqrt of distance, the
            // classic accelerate/decelerate head model.
            let span =
                self.profile.seek_max.as_nanos() as f64 - self.profile.seek_min.as_nanos() as f64;
            let seek_ns = self.profile.seek_min.as_nanos() as f64 + span * dist.sqrt();
            cost += SimDuration::from_nanos(seek_ns as u64);
            cost += self.profile.rotational_latency;
        }
        cost + self.profile.transfer_time()
    }
}

/// A seek/rotate/transfer model of a magnetic disk.
pub type MagneticDisk = SimDevice<Disk>;

impl MagneticDisk {
    /// Creates a disk with the given profile on a fresh zeroed medium.
    pub fn new(name: impl Into<String>, clock: SimClock, profile: DiskProfile) -> Self {
        let (block_size, nblocks) = (profile.block_size, profile.nblocks);
        SimDevice::with_mechanics(name, clock, block_size, nblocks, Disk { profile, head: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;

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

    /// The next block and a re-read of the same block pay no positioning:
    /// `controller_overhead + transfer_time()`. A jump pays a seek and a
    /// rotation on top.
    #[test]
    fn a_sequential_access_costs_controller_and_transfer_only() {
        let (clock, mut d) = disk();
        let p = DiskProfile::rz58();
        let streaming = p.controller_overhead + p.transfer_time();
        let mut buf = vec![0u8; d.block_size()];
        let mut since = clock.now();
        let mut elapsed = || {
            let t = since;
            since = clock.now();
            since.since(t)
        };
        d.write_block(0, &buf).unwrap();
        assert!(elapsed() > streaming, "the first access seeks");
        d.write_block(1, &buf).unwrap();
        assert_eq!(elapsed(), streaming, "the next block");
        d.write_block(10_000, &buf).unwrap();
        assert!(elapsed() >= streaming + p.seek_min + p.rotational_latency, "a jump");
        d.read_block(10_000, &mut buf).unwrap();
        assert_eq!(elapsed(), streaming, "a re-read of the same block");
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
}
