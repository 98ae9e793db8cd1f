//! The system under test, assembled from public constructors only:
//! three counting devices → `Smgr` → `Db` (300 frames) → `InversionFs` →
//! `InvServerPool` (2 workers) → TCP listener on loopback.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use inversion::{InvServerPool, InversionFs, PoolConfig, WireClient};
use minidb::stats::StatsSnapshot;
use minidb::{shared_device, Db, DbConfig, DeviceId, GenericManager, SharedDevice, Smgr};
use simdev::SimClock;

use crate::device::{CountingRamDisk, DevCounters, DevSnapshot, FileDisk};

/// Part of the benchmark's definition: change any of these and every
/// committed number has to be measured again.
pub const BUFFERS: usize = minidb::BERKELEY_BUFFERS;
pub const POOL_WORKERS: usize = 2;
const DATA_BLOCKS: u64 = 1 << 21;
const LOG_BLOCKS: u64 = 1 << 12;
const CATALOG_BLOCKS: u64 = 1 << 12;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceKind {
    Ram,
    /// Host files under this directory.
    File(PathBuf),
}

pub const DATA: usize = 0;
pub const LOG: usize = 1;
pub const CATALOG: usize = 2;

pub struct Rig {
    // Field order is drop order: stop serving before the database goes.
    _pool: InvServerPool,
    pub fs: InversionFs,
    pub addr: SocketAddr,
    /// Indexed by [`DATA`], [`LOG`], [`CATALOG`].
    pub devs: [Arc<DevCounters>; 3],
}

/// Every public counter, frozen at one instant.
pub struct Counters {
    pub db: StatsSnapshot,
    pub inv: Vec<(&'static str, u64)>,
    pub devs: [DevSnapshot; 3],
    pub proc_: ProcSnapshot,
}

impl Counters {
    pub fn inv(&self, name: &str) -> u64 {
        self.inv
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("inv_stat has no counter named {name}"))
    }

    /// Growth since `base` (levels — high-water marks, RSS — stay levels).
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            db: self.db.delta(&base.db),
            inv: self
                .inv
                .iter()
                .map(|(n, v)| (*n, v - base.inv(n)))
                .collect(),
            devs: std::array::from_fn(|i| self.devs[i].since(&base.devs[i])),
            proc_: self.proc_.since(&base.proc_),
        }
    }

    pub fn dev_total(&self, f: impl Fn(&DevSnapshot) -> u64) -> u64 {
        self.devs.iter().map(f).sum()
    }
}

fn make_device(
    kind: &DeviceKind,
    name: &str,
    nblocks: u64,
) -> Result<(SharedDevice, Arc<DevCounters>), String> {
    match kind {
        DeviceKind::Ram => {
            let (d, c) = CountingRamDisk::new(name, nblocks);
            Ok((shared_device(d), c))
        }
        DeviceKind::File(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}.img"));
            let (d, c) = FileDisk::create(name, &path, nblocks)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((shared_device(d), c))
        }
    }
}

impl Rig {
    pub fn build(kind: &DeviceKind) -> Result<Rig, String> {
        let (data, data_c) = make_device(kind, "data", DATA_BLOCKS)?;
        let (log, log_c) = make_device(kind, "log", LOG_BLOCKS)?;
        let (catalog, catalog_c) = make_device(kind, "catalog", CATALOG_BLOCKS)?;
        let mut smgr = Smgr::new();
        let mgr = GenericManager::format(data).map_err(|e| e.to_string())?;
        smgr.register(DeviceId::DEFAULT, Box::new(mgr))
            .map_err(|e| e.to_string())?;
        let config = DbConfig {
            buffers: BUFFERS,
            ..DbConfig::default()
        };
        let db =
            Db::open(SimClock::new(), smgr, log, catalog, config).map_err(|e| e.to_string())?;
        let fs = InversionFs::format(db).map_err(|e| e.to_string())?;
        let pool = InvServerPool::new(
            &fs,
            PoolConfig {
                workers: POOL_WORKERS,
                ..PoolConfig::default()
            },
        );
        let addr = pool.listen_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Rig {
            _pool: pool,
            fs,
            addr,
            devs: [data_c, log_c, catalog_c],
        })
    }

    pub fn connect(&self) -> Result<WireClient<TcpStream>, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(WireClient::new(stream))
    }

    pub fn counters(&self) -> Counters {
        Counters {
            db: self.fs.db().stats(),
            inv: self.fs.stats().snapshot(),
            devs: std::array::from_fn(|i| self.devs[i].snapshot()),
            proc_: ProcSnapshot::read(),
        }
    }
}

/// This process as the kernel accounts for it.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcSnapshot {
    /// User + system CPU, microseconds, all threads.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches, all live threads.
    pub ctx_switches: u64,
    pub rss_kb: u64,
}

/// `/proc/self/stat` reports CPU in clock ticks; Linux fixes USER_HZ at 100.
const US_PER_TICK: u64 = 10_000;

impl ProcSnapshot {
    pub fn read() -> ProcSnapshot {
        let mut p = ProcSnapshot::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th overall, 12th and 13th after it.
            if let Some((_, rest)) = stat.rsplit_once(')') {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0);
                p.cpu_us = (ticks(11) + ticks(12)) * US_PER_TICK;
            }
        }
        let field = |text: &str, key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            p.rss_kb = field(&status, "VmRSS:");
        }
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                if let Ok(status) = std::fs::read_to_string(t.path().join("status")) {
                    p.ctx_switches += field(&status, "voluntary_ctxt_switches:")
                        + field(&status, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        p
    }

    fn since(&self, base: &ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            cpu_us: self.cpu_us.saturating_sub(base.cpu_us),
            // Threads that exited in between take their counts with them.
            ctx_switches: self.ctx_switches.saturating_sub(base.ctx_switches),
            rss_kb: self.rss_kb,
        }
    }
}
