//! The paper's benchmark, "based on the access patterns of its primary
//! users":
//!
//! * Create a 25 MByte file.
//! * Measure the latency to read or write a single byte at a random
//!   location in the file.
//! * Read 1 MByte in a single large transfer.
//! * Read 1 MByte sequentially in page-sized units.
//! * Read 1 MByte in page-sized units distributed at random throughout the
//!   file.
//! * Repeat the 1 MByte transfer tests, writing instead of reading.
//!
//! "All caches were flushed before each test. ... The measurements shown are
//! the means of ten runs."

use inversion::client::SEGMENT;
use inversion::server::{Request, Response};
use inversion::{CreateMode, Fd, InvClient, SeekWhence, SimLink, WireClient};
use nfssim::InodeNo;
use simdev::SimClock;

use crate::testbed::{InversionTestbed, LocalFfsTestbed, NfsTestbed};

/// One megabyte.
pub const MB: u64 = 1 << 20;
/// Page-sized transfer unit for page-cache file systems (NFS/FFS).
pub const PAGE: usize = 8192;
/// Page-sized transfer unit for Inversion: one chunk. "The page size was
/// chosen to be efficient for the file system under test."
pub const INV_PAGE: usize = inversion::CHUNK_SIZE;

/// A file system under benchmark. Implementations hold one open benchmark
/// file; offsets are file-absolute.
pub trait BenchFs {
    /// Display label.
    fn label(&self) -> &'static str;
    /// The clock virtual time accrues on.
    fn clock(&self) -> SimClock;
    /// Creates the benchmark file of `total` bytes by sequential page-sized
    /// writes (one durable unit: a transaction for Inversion, per-op sync
    /// for NFS), leaving it open for the transfer tests.
    fn create_file(&mut self, total: u64);
    /// Reads `buf.len()` bytes at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]);
    /// Writes `data` durably at `offset` as one unit.
    fn write_at(&mut self, offset: u64, data: &[u8]);
    /// Writes many slices durably as *one* unit (one transaction — "commit a
    /// large number of writes simultaneously"; NFS has no such notion and
    /// syncs each).
    fn write_batch(&mut self, writes: &[(u64, &[u8])]) {
        for (off, data) in writes {
            self.write_at(*off, data);
        }
    }
    /// Flushes every cache ("all caches were flushed before each test").
    fn flush_caches(&mut self);
    /// The transfer unit "chosen to be efficient for the file system under
    /// test": the chunk size for Inversion, the block size for NFS/FFS.
    fn page_unit(&self) -> usize {
        PAGE
    }
}

/// The calls the benchmark makes of an Inversion client. The paper's two
/// configurations differ only in how a call reaches the data manager.
pub trait InvCalls {
    /// The configuration's display label.
    const LABEL: &'static str;
    /// Connects a client of this kind to `tb`.
    fn connect(tb: &InversionTestbed) -> Self;
    /// Begins a transaction.
    fn begin(&mut self);
    /// Commits the open transaction.
    fn commit(&mut self);
    /// Creates `path` and returns its descriptor.
    fn creat(&mut self, path: &str) -> Fd;
    /// Moves `fd` to the file offset `offset`.
    fn seek(&mut self, fd: Fd, offset: u64);
    /// Reads into `buf` from `fd`'s offset.
    fn read(&mut self, fd: Fd, buf: &mut [u8]);
    /// Writes `data` at `fd`'s offset.
    fn write(&mut self, fd: Fd, data: &[u8]);
}

/// The client/server path speaks the paper's protocol: one round trip per
/// [`SEGMENT`] of bulk data, not [`WireClient`]'s bulk windows.
impl InvCalls for WireClient<SimLink> {
    const LABEL: &'static str = "Inversion client/server";

    fn connect(tb: &InversionTestbed) -> Self {
        tb.remote_client()
    }

    fn begin(&mut self) {
        WireClient::begin(self).unwrap();
    }

    fn commit(&mut self) {
        WireClient::commit(self).unwrap();
    }

    fn creat(&mut self, path: &str) -> Fd {
        WireClient::creat(self, path, CreateMode::default()).unwrap()
    }

    fn seek(&mut self, fd: Fd, offset: u64) {
        self.call(&Request::Lseek(fd, offset as i64, SeekWhence::Set))
            .unwrap();
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let want = (buf.len() - done).min(SEGMENT);
            let Response::Data(data) = self.call(&Request::Read(fd, want)).unwrap() else {
                panic!("a read answers with data");
            };
            buf[done..done + data.len()].copy_from_slice(&data);
            done += data.len();
            if data.len() < want {
                break; // Short read: end of file.
            }
        }
    }

    fn write(&mut self, fd: Fd, data: &[u8]) {
        for segment in data.chunks(SEGMENT) {
            self.call(&Request::Write(fd, segment.to_vec())).unwrap();
        }
    }
}

impl InvCalls for InvClient {
    const LABEL: &'static str = "Inversion single process";

    fn connect(tb: &InversionTestbed) -> Self {
        tb.local_client()
    }

    fn begin(&mut self) {
        self.p_begin().unwrap();
    }

    fn commit(&mut self) {
        self.p_commit().unwrap();
    }

    fn creat(&mut self, path: &str) -> Fd {
        self.p_creat(path, CreateMode::default()).unwrap()
    }

    fn seek(&mut self, fd: Fd, offset: u64) {
        self.p_lseek(fd, offset as i64, SeekWhence::Set).unwrap();
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) {
        self.p_read(fd, buf).unwrap();
    }

    fn write(&mut self, fd: Fd, data: &[u8]) {
        self.p_write(fd, data).unwrap();
    }
}

/// Inversion under benchmark through the client `C`.
pub struct Inversion<C> {
    tb: InversionTestbed,
    client: C,
    fd: Fd,
}

/// Inversion through the remote (TCP client/server) path.
pub type InversionRemote = Inversion<WireClient<SimLink>>;
/// Inversion running the benchmark inside the data manager.
pub type InversionLocal = Inversion<InvClient>;

impl<C: InvCalls> Inversion<C> {
    /// Builds the configuration on `tb`.
    pub fn new(tb: InversionTestbed) -> Inversion<C> {
        let client = C::connect(&tb);
        Inversion { tb, client, fd: -1 }
    }

    /// The underlying testbed (for statistics snapshots).
    pub fn testbed(&self) -> &InversionTestbed {
        &self.tb
    }
}

impl<C: InvCalls> BenchFs for Inversion<C> {
    fn label(&self) -> &'static str {
        C::LABEL
    }

    fn clock(&self) -> SimClock {
        self.tb.clock.clone()
    }

    fn create_file(&mut self, total: u64) {
        self.client.begin();
        self.fd = self.client.creat("/bench");
        let page = vec![0xA5u8; PAGE];
        let mut written = 0u64;
        while written < total {
            let take = (total - written).min(PAGE as u64) as usize;
            self.client.write(self.fd, &page[..take]);
            written += take as u64;
        }
        self.client.commit();
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        self.client.seek(self.fd, offset);
        self.client.read(self.fd, buf);
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.write_batch(&[(offset, data)]);
    }

    fn write_batch(&mut self, writes: &[(u64, &[u8])]) {
        self.client.begin();
        for (off, data) in writes {
            self.client.seek(self.fd, *off);
            self.client.write(self.fd, data);
        }
        self.client.commit();
    }

    fn flush_caches(&mut self) {
        self.tb.fs.db().flush_caches().unwrap();
    }

    fn page_unit(&self) -> usize {
        INV_PAGE
    }
}

/// ULTRIX NFS with PRESTOserve.
pub struct UltrixNfs {
    tb: NfsTestbed,
    ino: InodeNo,
}

impl UltrixNfs {
    /// Builds the paper's NFS configuration.
    pub fn new(tb: NfsTestbed) -> UltrixNfs {
        UltrixNfs {
            tb,
            ino: InodeNo(0),
        }
    }
}

impl BenchFs for UltrixNfs {
    fn label(&self) -> &'static str {
        "ULTRIX NFS"
    }

    fn clock(&self) -> SimClock {
        self.tb.clock.clone()
    }

    fn create_file(&mut self, total: u64) {
        let attr = self.tb.client.create("/bench").unwrap();
        self.ino = attr.ino;
        let page = vec![0xA5u8; PAGE];
        let mut written = 0u64;
        while written < total {
            let take = (total - written).min(PAGE as u64) as usize;
            self.tb
                .client
                .write(attr.ino, written, &page[..take])
                .unwrap();
            written += take as u64;
        }
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        self.tb.client.read(self.ino, offset, buf).unwrap();
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.tb.client.write(self.ino, offset, data).unwrap();
    }

    fn flush_caches(&mut self) {
        self.tb.flush_caches();
    }
}

/// The local native file system of the \[STON93\] aside.
pub struct LocalFfs {
    tb: LocalFfsTestbed,
    ino: InodeNo,
}

impl LocalFfs {
    /// Builds a local FFS mount.
    pub fn new(tb: LocalFfsTestbed) -> LocalFfs {
        LocalFfs {
            tb,
            ino: InodeNo(0),
        }
    }
}

impl BenchFs for LocalFfs {
    fn label(&self) -> &'static str {
        "native local FFS"
    }

    fn clock(&self) -> SimClock {
        self.tb.clock.clone()
    }

    fn create_file(&mut self, total: u64) {
        let ino = self.tb.fs.create("/bench").unwrap();
        self.ino = ino;
        let page = vec![0xA5u8; PAGE];
        let mut written = 0u64;
        while written < total {
            let take = (total - written).min(PAGE as u64) as usize;
            self.tb.fs.write(ino, written, &page[..take]).unwrap();
            written += take as u64;
        }
        self.tb.fs.sync().unwrap();
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        self.tb.fs.read(self.ino, offset, buf).unwrap();
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) {
        self.tb.fs.write(self.ino, offset, data).unwrap();
        self.tb.fs.sync().unwrap();
    }

    fn write_batch(&mut self, writes: &[(u64, &[u8])]) {
        for (off, data) in writes {
            self.tb.fs.write(self.ino, *off, data).unwrap();
        }
        self.tb.fs.sync().unwrap();
    }

    fn flush_caches(&mut self) {
        self.tb.fs.flush_caches().unwrap();
    }
}

/// The nine measurements of Table 3, in simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SuiteResult {
    /// Create the 25 MB file.
    pub create: f64,
    /// Single 1 MB read.
    pub read_1mb_single: f64,
    /// Page-sized sequential 1 MB read.
    pub read_1mb_seq: f64,
    /// Page-sized random 1 MB read.
    pub read_1mb_rand: f64,
    /// Single 1 MB write.
    pub write_1mb_single: f64,
    /// Page-sized sequential 1 MB write.
    pub write_1mb_seq: f64,
    /// Page-sized random 1 MB write.
    pub write_1mb_rand: f64,
    /// Read one byte at a random offset.
    pub read_byte: f64,
    /// Write one byte at a random offset.
    pub write_byte: f64,
}

/// Deterministic pseudo-random offsets (xorshift; fixed seed per suite).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A random `unit`-aligned offset with a whole unit before `limit`.
    fn page_offset(&mut self, limit: u64, unit: usize) -> u64 {
        (self.next() % (limit / unit as u64 - 1)) * unit as u64
    }

    /// A random byte offset below `limit`.
    fn byte_offset(&mut self, limit: u64) -> u64 {
        self.next() % limit
    }
}

fn timed(clock: &SimClock, f: impl FnOnce()) -> f64 {
    let t0 = clock.now();
    f();
    clock.now().since(t0).as_secs_f64()
}

/// Creates the 25 MB (or `file_bytes`) benchmark file; returns elapsed
/// simulated seconds (Figure 3's measurement).
pub fn measure_create(sys: &mut dyn BenchFs, file_bytes: u64) -> f64 {
    let clock = sys.clock();
    sys.flush_caches();
    timed(&clock, || sys.create_file(file_bytes))
}

/// Single-byte read/write latency at random offsets, mean of `runs`
/// (Figure 4). Requires [`measure_create`] to have run first.
pub fn measure_byte_ops(sys: &mut dyn BenchFs, file_bytes: u64, runs: usize) -> (f64, f64) {
    let clock = sys.clock();
    let mut rng = Rng(0x5EED_0001);
    sys.flush_caches();
    let read_byte = timed(&clock, || {
        let mut b = [0u8; 1];
        for _ in 0..runs {
            sys.read_at(rng.byte_offset(file_bytes), &mut b);
        }
    }) / runs as f64;

    sys.flush_caches();
    let write_byte = timed(&clock, || {
        // The `runs` probes execute inside the benchmark program's
        // transaction; per-operation latency amortizes the commit.
        let offsets: Vec<u64> = (0..runs).map(|_| rng.byte_offset(file_bytes)).collect();
        let writes: Vec<(u64, &[u8])> = offsets.iter().map(|&o| (o, &b"x"[..])).collect();
        sys.write_batch(&writes);
    }) / runs as f64;
    (read_byte, write_byte)
}

/// The three 1 MB read tests (Figure 5): single transfer, sequential
/// page-sized, random page-sized. Requires the benchmark file.
pub fn measure_read_ops(sys: &mut dyn BenchFs, file_bytes: u64) -> (f64, f64, f64) {
    let clock = sys.clock();
    let mut rng = Rng(0x5EED_0002);
    let unit = sys.page_unit();
    let nops = (MB as usize).div_ceil(unit);

    sys.flush_caches();
    let mut big = vec![0u8; MB as usize];
    let single = timed(&clock, || sys.read_at(0, &mut big));

    sys.flush_caches();
    let seq = timed(&clock, || {
        let mut page = vec![0u8; unit];
        for i in 0..nops {
            sys.read_at((i * unit) as u64, &mut page);
        }
    });

    sys.flush_caches();
    let rand = timed(&clock, || {
        let mut page = vec![0u8; unit];
        for _ in 0..nops {
            sys.read_at(rng.page_offset(file_bytes, unit), &mut page);
        }
    });
    (single, seq, rand)
}

/// The three 1 MB write tests (Figure 6). Each targets its own region of
/// the file: the paper's per-run create starts every run from a
/// single-version file, so tests within a run must not stack row versions
/// on the same chunks. Random writes span the whole file, as in the paper.
pub fn measure_write_ops(sys: &mut dyn BenchFs, file_bytes: u64) -> (f64, f64, f64) {
    let clock = sys.clock();
    let mut rng = Rng(0x5EED_0003);
    let unit = sys.page_unit();
    let nops = (MB as usize).div_ceil(unit);

    sys.flush_caches();
    let data = vec![0x5Au8; MB as usize];
    let single = timed(&clock, || sys.write_at(2 * MB, &data));

    sys.flush_caches();
    let page_data = vec![0x3Cu8; unit];
    let seq = timed(&clock, || {
        let writes: Vec<(u64, &[u8])> = (0..nops)
            .map(|i| (4 * MB + (i * unit) as u64, &page_data[..]))
            .collect();
        sys.write_batch(&writes);
    });

    sys.flush_caches();
    let rand = timed(&clock, || {
        let writes: Vec<(u64, &[u8])> = (0..nops)
            .map(|_| (rng.page_offset(file_bytes, unit), &page_data[..]))
            .collect();
        sys.write_batch(&writes);
    });
    (single, seq, rand)
}

/// Runs the full paper benchmark against `sys` with a file of `file_bytes`.
///
/// Latency tests report the mean of `runs` single operations (the paper used
/// ten); transfer tests move exactly 1 MB.
pub fn run_suite(sys: &mut dyn BenchFs, file_bytes: u64, runs: usize) -> SuiteResult {
    let mut out = SuiteResult {
        create: measure_create(sys, file_bytes),
        ..SuiteResult::default()
    };
    let (rb, wb) = measure_byte_ops(sys, file_bytes, runs);
    out.read_byte = rb;
    out.write_byte = wb;
    let (r1, rs, rr) = measure_read_ops(sys, file_bytes);
    out.read_1mb_single = r1;
    out.read_1mb_seq = rs;
    out.read_1mb_rand = rr;
    let (w1, ws, wr) = measure_write_ops(sys, file_bytes);
    out.write_1mb_single = w1;
    out.write_1mb_seq = ws;
    out.write_1mb_rand = wr;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-scale smoke test of the full suite on all four systems.
    #[test]
    fn suite_runs_on_every_system() {
        let small = 2 * MB;
        let mut inv_local = InversionLocal::new(InversionTestbed::with_config(64, true));
        let r = run_suite(&mut inv_local, small, 2);
        assert!(r.create > 0.0 && r.read_byte > 0.0 && r.write_1mb_rand > 0.0);

        let mut nfs = UltrixNfs::new(NfsTestbed::paper());
        let r = run_suite(&mut nfs, small, 2);
        assert!(r.create > 0.0 && r.write_byte > 0.0);

        let mut ffs = LocalFfs::new(LocalFfsTestbed::new());
        let r = run_suite(&mut ffs, small, 2);
        assert!(r.create > 0.0);
    }

    #[test]
    fn remote_suite_slower_than_local() {
        let small = 2 * MB;
        let mut local = InversionLocal::new(InversionTestbed::with_config(64, true));
        let rl = run_suite(&mut local, small, 2);
        let mut remote = InversionRemote::new(InversionTestbed::with_config(64, true));
        let rr = run_suite(&mut remote, small, 2);
        assert!(rr.read_1mb_seq > rl.read_1mb_seq, "network must cost time");
        assert!(rr.create > rl.create);
    }

    /// The figures' client/server path keeps the paper's protocol: a
    /// megabyte moved either way costs at least one round trip per 8 KB
    /// segment, never a few bulk windows.
    #[test]
    fn remote_transfers_take_one_round_trip_per_segment() {
        let mut remote = InversionRemote::new(InversionTestbed::with_config(64, true));
        remote.create_file(2 * MB);
        let rpcs = |r: &InversionRemote| r.client.stream().net_stats().rpcs;
        let segments = MB / SEGMENT as u64;

        let before = rpcs(&remote);
        remote.write_at(MB, &vec![0x5Au8; MB as usize]);
        let wrote = rpcs(&remote) - before;
        assert!(wrote >= segments, "a 1 MB write took {wrote} RPCs");

        let before = rpcs(&remote);
        let mut buf = vec![0u8; MB as usize];
        remote.read_at(MB, &mut buf);
        let read = rpcs(&remote) - before;
        assert!(read >= segments, "a 1 MB read took {read} RPCs");
        assert!(buf.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn rng_offsets_in_bounds() {
        let mut rng = Rng(42);
        for _ in 0..1000 {
            let off = rng.page_offset(25 * MB, PAGE);
            assert!(off + PAGE as u64 <= 25 * MB);
            assert_eq!(off % PAGE as u64, 0);
            let off = rng.page_offset(25 * MB, INV_PAGE);
            assert_eq!(off % INV_PAGE as u64, 0);
            assert!(rng.byte_offset(25 * MB) < 25 * MB);
        }
    }
}
