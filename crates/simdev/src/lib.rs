//! Simulated 1993-era storage and network devices.
//!
//! The Inversion paper's evaluation ran on a DECsystem 5900 with a DEC RZ58
//! magnetic disk, a Sony 327 GB WORM optical jukebox, a PRESTOserve NVRAM
//! board, and a 10 Mbit/s Ethernet carrying TCP/IP and NFS/UDP traffic. None
//! of that hardware is available, so this crate models it: every device
//! charges an analytically derived cost to a shared deterministic
//! [`SimClock`], while the *data path* is fully real (bytes actually move).
//!
//! Benchmarks built on these models reproduce the paper's performance *shape*
//! (who wins, by what factor, where crossovers fall) independent of the host
//! machine. See `DESIGN.md` at the repository root for the substitution
//! rationale.
//!
//! # Architecture
//!
//! * [`clock`] — virtual time: [`SimClock`], [`SimInstant`], [`SimDuration`].
//! * [`block`] — the [`BlockDevice`] trait, an in-memory backing store, and
//!   [`SimDevice`]: that store behind a [`Mechanics`] cost model, charged
//!   to the clock before each access. Every medium below is a `SimDevice`.
//! * [`disk`] — [`MagneticDisk`], a seek/rotate/transfer model of an RZ58.
//! * [`nvram`] — [`Nvram`], battery-backed RAM (PRESTOserve's board).
//! * [`jukebox`] — [`OpticalJukebox`], the Sony WORM autochanger (its
//!   magnetic-disk staging cache lives in `minidb::smgr`), and
//!   [`TapeJukebox`], the Metrum VHS robot.
//! * [`net`] — [`Network`] and [`Endpoint`], a latency/bandwidth/CPU model of
//!   Ethernet carrying either heavyweight TCP/IP or lighter NFS-style UDP RPC.
//! * [`cpu`] — per-byte and per-call CPU cost helpers (buffer copies were a
//!   measured Inversion overhead in the paper).
//! * [`fault`] — [`Faulty`], a wrapper around any device that fails, tears
//!   or corrupts its operations as its [`FaultPlan`] says.
//! * [`writecache`] — [`WriteCacheDisk`], a volatile write-back cache wrapper
//!   whose [`CacheCrashHandle`] lets tests drop unsynced state ("power cut").
//!
//! # Example
//!
//! ```
//! use simdev::{SimClock, MagneticDisk, DiskProfile, BlockDevice};
//!
//! let clock = SimClock::new();
//! let mut disk = MagneticDisk::new("rz58", clock.clone(), DiskProfile::rz58());
//! let buf = vec![0xA5u8; disk.block_size()];
//! disk.write_block(10, &buf).unwrap();
//! let mut out = vec![0u8; disk.block_size()];
//! disk.read_block(10, &mut out).unwrap();
//! assert_eq!(buf, out);
//! assert!(clock.now().as_nanos() > 0, "I/O advanced simulated time");
//! ```

pub mod block;
pub mod clock;
pub mod cpu;
pub mod disk;
pub mod duplex;
pub mod error;
pub mod fault;
pub mod jukebox;
pub mod net;
pub mod nvram;
pub mod writecache;

pub use block::{BlockDevice, Mechanics, MemBlockStore, SimDevice};
pub use clock::{SimClock, SimDuration, SimInstant};
pub use cpu::CpuModel;
pub use disk::{Disk, DiskProfile, MagneticDisk};
pub use duplex::{duplex_pair, duplex_pair_with_capacity, DuplexStream};
pub use error::{DevError, DevResult};
pub use fault::{FaultPlan, Faulty};
pub use jukebox::{JukeboxProfile, Optical, OpticalJukebox, Tape, TapeJukebox, TapeProfile};
pub use net::{Endpoint, NetProfile, Network};
pub use nvram::{Nvram, Ram};
pub use writecache::{CacheCrashHandle, WriteCacheDisk};

/// The page/block size shared by POSTGRES, Inversion, and the FFS baseline.
///
/// The paper: "a single record will fit exactly on a POSTGRES data manager
/// page. This page size was chosen early in the design of POSTGRES".
pub const BLOCK_SIZE: usize = 8192;
