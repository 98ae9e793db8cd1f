//! Battery-backed RAM (the PRESTOserve board's medium).
//!
//! PRESTOserve was "a board containing 1 MByte of battery-backed RAM and
//! driver software to cache NFS writes in non-volatile memory". The medium
//! itself is modeled here: memory-speed access, stable across power failure.
//! The *write-cache policy* lives in `nfssim::presto`.

use crate::block::{Mechanics, SimDevice};
use crate::clock::{SimClock, SimDuration};

/// Memory behind a bus: every access costs the same.
pub struct Ram {
    access_cost: SimDuration,
}

impl Mechanics for Ram {
    fn cost(&mut self, _blkno: u64) -> SimDuration {
        self.access_cost
    }
}

/// A non-volatile RAM block device with memory-speed access.
pub type Nvram = SimDevice<Ram>;

impl Nvram {
    /// Creates an NVRAM device of `nblocks` 8 KB blocks.
    ///
    /// Access cost models a bus copy: ~25 µs per 8 KB block (tens of MB/s
    /// across an early-90s I/O bus).
    pub fn new(name: impl Into<String>, clock: SimClock, nblocks: u64) -> Self {
        let ram = Ram { access_cost: SimDuration::from_micros(25) };
        SimDevice::with_mechanics(name, clock, crate::BLOCK_SIZE, nblocks, ram)
    }

    /// Creates the 1 MB PRESTOserve board (128 blocks of 8 KB).
    pub fn prestoserve(clock: SimClock) -> Self {
        Nvram::new("prestoserve", clock, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;
    use crate::disk::{DiskProfile, MagneticDisk};

    #[test]
    fn prestoserve_is_one_megabyte() {
        let nv = Nvram::prestoserve(SimClock::new());
        assert_eq!(nv.nblocks() * nv.block_size() as u64, 1 << 20);
    }

    #[test]
    fn roundtrip() {
        let mut nv = Nvram::new("nv", SimClock::new(), 8);
        let buf = vec![3u8; nv.block_size()];
        nv.write_block(3, &buf).unwrap();
        let mut out = vec![0u8; nv.block_size()];
        nv.read_block(3, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn much_faster_than_disk() {
        let clock = SimClock::new();
        let mut nv = Nvram::new("nv", clock.clone(), 8);
        let mut dk = MagneticDisk::new("dk", clock.clone(), DiskProfile::rz58());
        let buf = vec![0u8; 8192];

        let t0 = clock.now();
        nv.write_block(0, &buf).unwrap();
        let nv_cost = clock.now().since(t0);

        let t1 = clock.now();
        dk.write_block(500_000 % dk.nblocks(), &buf).unwrap();
        let dk_cost = clock.now().since(t1);

        assert!(dk_cost.as_nanos() > nv_cost.as_nanos() * 50);
    }

    #[test]
    fn nvram_is_stable() {
        let nv = Nvram::prestoserve(SimClock::new());
        assert!(nv.is_stable());
    }
}
