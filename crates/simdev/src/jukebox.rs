//! Tertiary storage robots: the Sony WORM optical jukebox and the Metrum
//! VHS tape jukebox.
//!
//! The paper's installation managed "a 327 GByte Sony optical disk WORM
//! jukebox", with "extremely high setup costs (many seconds to load an
//! optical platter) and relatively low transfer rates"; "in the near future,
//! a 9 TByte Metrum VHS-form factor tape jukebox will also be supported".
//!
//! Both are exposed as flat [`crate::BlockDevice`] address spaces; the robot
//! mechanics (platter/cartridge exchange, tape winding) are charged on
//! boundary crossings. The magnetic-disk *staging cache* the Sony device
//! manager kept in front of the jukebox belongs to the device manager, not
//! the medium, and lives in `minidb::smgr`.

use crate::block::{Mechanics, SimDevice};
use crate::clock::{SimClock, SimDuration};

/// Timing and capacity parameters for an [`OpticalJukebox`].
#[derive(Debug, Clone)]
pub struct JukeboxProfile {
    /// Number of platter sides the robot can mount.
    pub nplatters: u64,
    /// Blocks per platter side.
    pub blocks_per_platter: u64,
    /// Robot exchange + spin-up cost when switching platters.
    pub platter_swap: SimDuration,
    /// Per-access positioning cost once the right platter is mounted.
    pub access_overhead: SimDuration,
    /// Media transfer rate in bytes/second.
    pub transfer_rate: f64,
}

impl JukeboxProfile {
    /// The Sony 327 GB WORM autochanger: ~100 double-sided 3.27 GB platters,
    /// ~8 s exchange, ~40 ms access, ~400 KB/s sustained transfer.
    pub fn sony_worm() -> Self {
        JukeboxProfile {
            nplatters: 100,
            blocks_per_platter: 3_270_000_000 / crate::BLOCK_SIZE as u64,
            platter_swap: SimDuration::from_secs(8),
            access_overhead: SimDuration::from_millis(40),
            transfer_rate: 400e3,
        }
    }

    /// A tiny fast profile for tests.
    pub fn tiny_for_tests() -> Self {
        JukeboxProfile {
            nplatters: 4,
            blocks_per_platter: 64,
            platter_swap: SimDuration::from_millis(10),
            access_overhead: SimDuration::from_micros(100),
            transfer_rate: 10e6,
        }
    }
}

/// The robot of an optical jukebox: the platter it has mounted.
pub struct Optical {
    profile: JukeboxProfile,
    mounted: Option<u64>,
}

impl Mechanics for Optical {
    const REWRITABLE: bool = false;

    fn cost(&mut self, blkno: u64) -> SimDuration {
        let platter = blkno / self.profile.blocks_per_platter;
        let mut cost = self.profile.access_overhead;
        if self.mounted.replace(platter) != Some(platter) {
            cost += self.profile.platter_swap;
        }
        cost + SimDuration::from_secs_f64(crate::BLOCK_SIZE as f64 / self.profile.transfer_rate)
    }
}

/// A write-once optical disk autochanger.
///
/// The block address space is flat; block `b` lives on platter
/// `b / blocks_per_platter`. Rewriting a block fails with
/// [`crate::DevError::WriteOnceViolation`] — WORM media really are
/// write-once, which is why the paper pairs the jukebox with a
/// no-overwrite storage manager.
pub type OpticalJukebox = SimDevice<Optical>;

impl OpticalJukebox {
    /// Creates a jukebox with the given profile, all platters blank.
    pub fn new(name: impl Into<String>, clock: SimClock, profile: JukeboxProfile) -> Self {
        let nblocks = profile.nplatters * profile.blocks_per_platter;
        let robot = Optical { profile, mounted: None };
        SimDevice::with_mechanics(name, clock, crate::BLOCK_SIZE, nblocks, robot)
    }
}

/// Timing parameters for a [`TapeJukebox`].
#[derive(Debug, Clone)]
pub struct TapeProfile {
    /// Number of cartridges.
    pub ncartridges: u64,
    /// Blocks per cartridge.
    pub blocks_per_cartridge: u64,
    /// Robot pick/load/thread time.
    pub cartridge_swap: SimDuration,
    /// Wind time across the whole tape (cost scales with travel distance).
    pub full_wind: SimDuration,
    /// Streaming transfer rate in bytes/second.
    pub transfer_rate: f64,
}

impl TapeProfile {
    /// The Metrum RSS-600: ~600 VHS cartridges of ~14.5 GB, ~1 min load +
    /// wind, ~1 MB/s streaming — roughly the announced 9 TB robot.
    pub fn metrum() -> Self {
        TapeProfile {
            ncartridges: 600,
            blocks_per_cartridge: 14_500_000_000 / crate::BLOCK_SIZE as u64,
            cartridge_swap: SimDuration::from_secs(45),
            full_wind: SimDuration::from_secs(90),
            transfer_rate: 1e6,
        }
    }

    /// A tiny fast profile for tests.
    pub fn tiny_for_tests() -> Self {
        TapeProfile {
            ncartridges: 2,
            blocks_per_cartridge: 32,
            cartridge_swap: SimDuration::from_millis(5),
            full_wind: SimDuration::from_millis(10),
            transfer_rate: 10e6,
        }
    }
}

/// The robot and drive of a tape library: the cartridge mounted and the
/// block the tape stands at.
pub struct Tape {
    profile: TapeProfile,
    mounted: Option<u64>,
    head_block: u64,
}

impl Mechanics for Tape {
    fn cost(&mut self, blkno: u64) -> SimDuration {
        let cart = blkno / self.profile.blocks_per_cartridge;
        let pos = blkno % self.profile.blocks_per_cartridge;
        let mut cost = SimDuration::ZERO;
        if self.mounted.replace(cart) != Some(cart) {
            cost += self.profile.cartridge_swap;
            self.head_block = 0;
        }
        let travel =
            self.head_block.abs_diff(pos) as f64 / self.profile.blocks_per_cartridge.max(1) as f64;
        cost += SimDuration::from_nanos((self.profile.full_wind.as_nanos() as f64 * travel) as u64);
        cost += SimDuration::from_secs_f64(crate::BLOCK_SIZE as f64 / self.profile.transfer_rate);
        self.head_block = pos + 1;
        cost
    }
}

/// A robotic tape library with linear positioning cost inside a cartridge.
pub type TapeJukebox = SimDevice<Tape>;

impl TapeJukebox {
    /// Creates a tape jukebox, all cartridges blank.
    pub fn new(name: impl Into<String>, clock: SimClock, profile: TapeProfile) -> Self {
        let nblocks = profile.ncartridges * profile.blocks_per_cartridge;
        let robot = Tape { profile, mounted: None, head_block: 0 };
        SimDevice::with_mechanics(name, clock, crate::BLOCK_SIZE, nblocks, robot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDevice;
    use crate::error::DevError;

    #[test]
    fn sony_capacity_matches_paper() {
        let jb = OpticalJukebox::new("sony", SimClock::new(), JukeboxProfile::sony_worm());
        let bytes = jb.nblocks() * jb.block_size() as u64;
        assert!(
            (320e9..335e9).contains(&(bytes as f64)),
            "sony jukebox should be ~327 GB, got {bytes}"
        );
    }

    #[test]
    fn worm_rejects_rewrite() {
        let mut jb = OpticalJukebox::new("jb", SimClock::new(), JukeboxProfile::tiny_for_tests());
        let buf = vec![1u8; jb.block_size()];
        jb.write_block(0, &buf).unwrap();
        assert!(matches!(
            jb.write_block(0, &buf),
            Err(DevError::WriteOnceViolation { blkno: 0 })
        ));
        // Reads still fine.
        let mut out = vec![0u8; jb.block_size()];
        jb.read_block(0, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    /// Two of three accesses mount a platter, the first one included: the
    /// clock shows exactly two swaps.
    #[test]
    fn platter_swap_dominates_cross_platter_access() {
        let clock = SimClock::new();
        let p = JukeboxProfile::tiny_for_tests();
        let mut jb = OpticalJukebox::new("jb", clock.clone(), p.clone());
        let buf = vec![0u8; jb.block_size()];
        let start = clock.now();
        jb.write_block(0, &buf).unwrap(); // mounts platter 0
        let t0 = clock.now();
        jb.write_block(1, &buf).unwrap(); // same platter
        let same = clock.now().since(t0);
        let t1 = clock.now();
        jb.write_block(64, &buf).unwrap(); // platter 1
        let cross = clock.now().since(t1);
        assert!(cross.as_nanos() > same.as_nanos() * 10);
        assert_eq!(cross, same + p.platter_swap);
        assert_eq!(clock.now().since(start), same.times(3) + p.platter_swap.times(2));
    }

    #[test]
    fn metrum_capacity_is_about_nine_terabytes() {
        let tp = TapeJukebox::new("metrum", SimClock::new(), TapeProfile::metrum());
        let bytes = tp.nblocks() as f64 * tp.block_size() as f64;
        assert!((8.0e12..9.5e12).contains(&bytes), "got {bytes}");
    }

    #[test]
    fn tape_seek_cost_scales_with_distance() {
        let clock = SimClock::new();
        let mut tp = TapeJukebox::new("t", clock.clone(), TapeProfile::tiny_for_tests());
        let buf = vec![0u8; tp.block_size()];
        tp.write_block(0, &buf).unwrap(); // mount + position 0
        let t0 = clock.now();
        tp.write_block(1, &buf).unwrap(); // adjacent
        let near = clock.now().since(t0);
        let t1 = clock.now();
        tp.write_block(31, &buf).unwrap(); // far end of cartridge
        let far = clock.now().since(t1);
        assert!(far.as_nanos() > near.as_nanos());
    }

    #[test]
    fn tape_rewrite_allowed() {
        let mut tp = TapeJukebox::new("t", SimClock::new(), TapeProfile::tiny_for_tests());
        let buf = vec![1u8; tp.block_size()];
        tp.write_block(0, &buf).unwrap();
        tp.write_block(0, &buf).unwrap();
    }
}
