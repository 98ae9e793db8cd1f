//! The simulated Sequoia 2000 testbed.
//!
//! "Inversion was installed on a DECsystem 5900 ... Files were located on a
//! 1.3 GByte DEC RZ58 disk drive ... Files were opened, read, and written
//! from a remote client running on a DECstation 3100. Client/server
//! communication was via TCP/IP over a 10 Mbit/sec Ethernet. ... The NFS
//! server was run on the same DECsystem 5900, using the same disk."

use std::sync::Arc;

use inversion::{types, InvClient, InversionFs, SimLink, WireClient};
use minidb::{
    shared_device, Db, DbConfig, DeviceId, GenericManager, JukeboxConfig, JukeboxManager, Smgr,
    BERKELEY_BUFFERS,
};
use nfssim::{Ffs, FfsConfig, NfsClient, NfsServer, PrestoDisk};
use parking_lot::Mutex;
use simdev::{
    BlockDevice, CpuModel, DiskProfile, Endpoint, JukeboxProfile, MagneticDisk, NetProfile,
    Network, OpticalJukebox, SimClock,
};

/// Device id of the RZ58 magnetic disk.
pub const DEV_DISK: DeviceId = DeviceId(0);
/// Device id of the Sony WORM jukebox.
pub const DEV_JUKEBOX: DeviceId = DeviceId(1);

/// The Inversion side of the testbed: POSTGRES on an RZ58 (plus the Sony
/// jukebox), 300 buffers as at Berkeley, talking TCP to remote clients.
pub struct InversionTestbed {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The mounted file system.
    pub fs: InversionFs,
}

impl InversionTestbed {
    /// Builds the full testbed (disk + jukebox) with `buffers` cache frames.
    pub fn with_config(buffers: usize, eager_index_writes: bool) -> InversionTestbed {
        let clock = SimClock::new();
        let data = shared_device(MagneticDisk::new(
            "rz58",
            clock.clone(),
            DiskProfile::rz58(),
        ));
        // The log and the catalog live on their own small disk regions;
        // model them as separate fast spindles so log forces do not collide
        // with data-head position (ULTRIX put them in different partitions).
        let log = shared_device(MagneticDisk::new(
            "rz58-log",
            clock.clone(),
            DiskProfile::rz58(),
        ));
        let cat = shared_device(MagneticDisk::new(
            "rz58-cat",
            clock.clone(),
            DiskProfile::rz58(),
        ));
        let jukebox = shared_device(OpticalJukebox::new(
            "sony",
            clock.clone(),
            JukeboxProfile::sony_worm(),
        ));
        let staging = shared_device(MagneticDisk::new(
            "sony-staging",
            clock.clone(),
            DiskProfile::rz58(),
        ));
        let mut smgr = Smgr::new();
        smgr.register(DEV_DISK, Box::new(GenericManager::format(data).unwrap()))
            .unwrap();
        smgr.register(
            DEV_JUKEBOX,
            Box::new(JukeboxManager::format(jukebox, staging, JukeboxConfig::default()).unwrap()),
        )
        .unwrap();
        let db = Db::open(
            clock.clone(),
            smgr,
            log,
            cat,
            DbConfig {
                buffers,
                eager_index_writes,
            },
        )
        .unwrap();
        let fs = InversionFs::format(db).unwrap();
        types::register_standard(&fs).unwrap();
        InversionTestbed { clock, fs }
    }

    /// The paper's configuration: 300 buffers, POSTGRES 4.0.1 index
    /// write-through.
    pub fn paper() -> InversionTestbed {
        Self::with_config(BERKELEY_BUFFERS, true)
    }

    /// A remote client speaking frames over TCP/IP on the shared Ethernet
    /// (the measured client/server configuration).
    pub fn remote_client(&self) -> WireClient<SimLink> {
        let net = Network::ethernet_10mbit(self.clock.clone());
        let ep = Endpoint::new(net, NetProfile::tcp_1993());
        let cpu = CpuModel::decsystem5900(self.clock.clone());
        WireClient::new(SimLink::connect(&self.fs, ep, cpu))
    }

    /// A client inside the data manager (the "single process" configuration).
    pub fn local_client(&self) -> InvClient {
        self.fs.client()
    }
}

/// The ULTRIX NFS side: FFS with synchronous writes over (optionally) a
/// PRESTOserve board, serving a remote client over UDP RPC.
pub struct NfsTestbed {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The mounted remote client.
    pub client: NfsClient,
    presto: Option<Arc<Mutex<PrestoDisk>>>,
}

impl NfsTestbed {
    /// Builds the NFS testbed; `presto` enables the 1 MB NVRAM write cache.
    pub fn new(presto: bool) -> NfsTestbed {
        Self::with_nvram_blocks(if presto { Some(128) } else { None })
    }

    /// Builds with a custom NVRAM size in 8 KB blocks (ablations).
    pub fn with_nvram_blocks(nvram_blocks: Option<u64>) -> NfsTestbed {
        let clock = SimClock::new();
        let disk: Arc<Mutex<dyn BlockDevice>> = Arc::new(Mutex::new(MagneticDisk::new(
            "rz58",
            clock.clone(),
            DiskProfile::rz58(),
        )));
        let (backing, presto): (Arc<Mutex<dyn BlockDevice>>, _) = match nvram_blocks {
            Some(n) => {
                let nvram = simdev::Nvram::new("prestoserve", clock.clone(), n);
                let pd = Arc::new(Mutex::new(PrestoDisk::with_nvram(nvram, disk)));
                (pd.clone(), Some(pd))
            }
            None => (disk, None),
        };
        let fs = Ffs::format(
            backing,
            FfsConfig {
                max_inodes: 4096,
                cache_blocks: BERKELEY_BUFFERS, // Same server memory budget.
                sync_writes: true,
            },
        )
        .unwrap();
        let net = Network::ethernet_10mbit(clock.clone());
        let ep = Endpoint::new(net, NetProfile::nfs_udp());
        let cpu = CpuModel::decsystem5900(clock.clone());
        let client = NfsClient::mount(NfsServer::new(fs), ep, cpu);
        NfsTestbed {
            clock,
            client,
            presto,
        }
    }

    /// The paper's configuration: PRESTOserve enabled.
    pub fn paper() -> NfsTestbed {
        NfsTestbed::new(true)
    }

    /// Flushes server buffer cache and drains the NVRAM board.
    pub fn flush_caches(&mut self) {
        self.client.server_mut().fs_mut().flush_caches().unwrap();
        if let Some(pd) = &self.presto {
            pd.lock().drain_all().unwrap();
        }
    }
}

/// A local (no network) FFS mount with an asynchronous buffer cache — the
/// "native file system used locally" of the \[STON93\] comparison.
pub struct LocalFfsTestbed {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The mounted file system.
    pub fs: Ffs,
}

impl LocalFfsTestbed {
    /// Builds a local FFS on an RZ58.
    pub fn new() -> LocalFfsTestbed {
        let clock = SimClock::new();
        let disk: Arc<Mutex<dyn BlockDevice>> = Arc::new(Mutex::new(MagneticDisk::new(
            "rz58",
            clock.clone(),
            DiskProfile::rz58(),
        )));
        let fs = Ffs::format(
            disk,
            FfsConfig {
                max_inodes: 4096,
                cache_blocks: BERKELEY_BUFFERS,
                sync_writes: false,
            },
        )
        .unwrap();
        LocalFfsTestbed { clock, fs }
    }
}

impl Default for LocalFfsTestbed {
    fn default() -> Self {
        LocalFfsTestbed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_testbed_has_both_devices() {
        let tb = InversionTestbed::with_config(64, true);
        let mut c = tb.local_client();
        c.write_all(
            "/on_disk",
            inversion::CreateMode::default().on_device(DEV_DISK),
            b"disk",
        )
        .unwrap();
        c.write_all(
            "/on_jukebox",
            inversion::CreateMode::default().on_device(DEV_JUKEBOX),
            b"jukebox",
        )
        .unwrap();
        assert_eq!(c.read_to_vec("/on_disk", None).unwrap(), b"disk");
        assert_eq!(c.read_to_vec("/on_jukebox", None).unwrap(), b"jukebox");
    }

    #[test]
    fn nfs_testbed_roundtrip_and_flush() {
        let mut tb = NfsTestbed::paper();
        let attr = tb.client.create("/f").unwrap();
        tb.client.write(attr.ino, 0, b"hello").unwrap();
        tb.flush_caches();
        let mut buf = [0u8; 5];
        tb.client.read(attr.ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn local_ffs_testbed_works() {
        let mut tb = LocalFfsTestbed::new();
        let ino = tb.fs.create("/f").unwrap();
        tb.fs.write(ino, 0, b"local").unwrap();
        tb.fs.sync().unwrap();
        let mut buf = [0u8; 5];
        tb.fs.read(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"local");
    }
}
