//! Runs op scripts against the system and checks every byte that comes
//! back. The same executor drives a `WireClient` over TCP and an in-process
//! `InvClient`, so the two runs differ only in the layers between them.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::Instant;

use inversion::server::Request;
use inversion::{
    CreateMode, Fd, FileStat, InvClient, InvError, InvResult, OpenMode, SeekWhence, WireClient,
};
use minidb::DbError;

use crate::rng::pattern;
use crate::workload::{file_path, Op};

/// An op that hits a [`transient`] error is aborted and run again, at most
/// this many times; after that it counts as failed.
pub const MAX_RETRIES: u32 = 50;

/// Errors that mean "not now" rather than "no": the lock manager's two, and
/// the buffer pool finding every frame of a shard pinned — which it reports
/// after waiting out 65 536 sweeps for the checkpointer or the device queue
/// to unpin one, and which one `txn_write` transaction in about 50 000 runs
/// into on a busy host. The server has no other name for it than its text.
pub fn transient(e: &InvError) -> bool {
    match e {
        InvError::Db(DbError::Deadlock | DbError::LockTimeout) => true,
        InvError::Db(DbError::Invalid(m)) => m.starts_with("buffer pool exhausted"),
        _ => false,
    }
}

/// The calls a workload makes, at the boundary both clients share.
pub trait FsCalls {
    fn stat(&mut self, path: &str) -> InvResult<FileStat>;
    fn open(&mut self, path: &str, mode: OpenMode) -> InvResult<Fd>;
    fn read_bulk(&mut self, fd: Fd, len: usize) -> InvResult<Vec<u8>>;
    fn write_bulk(&mut self, fd: Fd, data: &[u8]) -> InvResult<usize>;
    fn lseek(&mut self, fd: Fd, offset: u64) -> InvResult<u64>;
    fn close(&mut self, fd: Fd) -> InvResult<()>;
    fn begin(&mut self) -> InvResult<()>;
    fn commit(&mut self) -> InvResult<()>;
    fn abort(&mut self) -> InvResult<()>;
    fn creat(&mut self, path: &str) -> InvResult<Fd>;
    fn unlink(&mut self, path: &str) -> InvResult<()>;
    fn mkdir(&mut self, path: &str) -> InvResult<()>;
    /// Frames out, frames in, bytes out, bytes in, as this client counts
    /// them; zero for a client with no wire.
    fn wire_counts(&self) -> [u64; 4] {
        [0; 4]
    }
}

impl<S: Read + Write> FsCalls for WireClient<S> {
    fn stat(&mut self, path: &str) -> InvResult<FileStat> {
        WireClient::stat(self, path)
    }
    fn open(&mut self, path: &str, mode: OpenMode) -> InvResult<Fd> {
        WireClient::open(self, path, mode, None)
    }
    fn read_bulk(&mut self, fd: Fd, len: usize) -> InvResult<Vec<u8>> {
        WireClient::read_bulk(self, fd, len)
    }
    fn write_bulk(&mut self, fd: Fd, data: &[u8]) -> InvResult<usize> {
        WireClient::write_bulk(self, fd, data)
    }
    fn lseek(&mut self, fd: Fd, offset: u64) -> InvResult<u64> {
        match self.call(&Request::Lseek(fd, offset as i64, SeekWhence::Set))? {
            inversion::server::Response::Count(n) => Ok(n),
            other => Err(InvError::Invalid(format!("lseek answered {other:?}"))),
        }
    }
    fn close(&mut self, fd: Fd) -> InvResult<()> {
        WireClient::close(self, fd)
    }
    fn begin(&mut self) -> InvResult<()> {
        WireClient::begin(self)
    }
    fn commit(&mut self) -> InvResult<()> {
        WireClient::commit(self)
    }
    fn abort(&mut self) -> InvResult<()> {
        WireClient::abort(self)
    }
    fn creat(&mut self, path: &str) -> InvResult<Fd> {
        WireClient::creat(self, path, CreateMode::default())
    }
    fn unlink(&mut self, path: &str) -> InvResult<()> {
        WireClient::unlink(self, path)
    }
    fn mkdir(&mut self, path: &str) -> InvResult<()> {
        WireClient::mkdir(self, path)
    }
    fn wire_counts(&self) -> [u64; 4] {
        let s = self.stats();
        [
            s.frames_out.get(),
            s.frames_in.get(),
            s.bytes_out.get(),
            s.bytes_in.get(),
        ]
    }
}

/// In process, bulk transfers are cut into the same 8 KB segments the wire
/// client pipelines, so both clients make the same `p_read`/`p_write` calls.
impl FsCalls for InvClient {
    fn stat(&mut self, path: &str) -> InvResult<FileStat> {
        self.p_stat(path, None)
    }
    fn open(&mut self, path: &str, mode: OpenMode) -> InvResult<Fd> {
        self.p_open(path, mode, None)
    }
    fn read_bulk(&mut self, fd: Fd, len: usize) -> InvResult<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut done = 0;
        while done < len {
            let want = (len - done).min(inversion::client::SEGMENT);
            let n = self.p_read(fd, &mut out[done..done + want])?;
            done += n;
            if n < want {
                break;
            }
        }
        out.truncate(done);
        Ok(out)
    }
    fn write_bulk(&mut self, fd: Fd, data: &[u8]) -> InvResult<usize> {
        let mut total = 0;
        for seg in data.chunks(inversion::client::SEGMENT) {
            total += self.p_write(fd, seg)?;
        }
        Ok(total)
    }
    fn lseek(&mut self, fd: Fd, offset: u64) -> InvResult<u64> {
        self.p_lseek(fd, offset as i64, SeekWhence::Set)
    }
    fn close(&mut self, fd: Fd) -> InvResult<()> {
        self.p_close(fd)
    }
    fn begin(&mut self) -> InvResult<()> {
        self.p_begin()
    }
    fn commit(&mut self) -> InvResult<()> {
        self.p_commit()
    }
    fn abort(&mut self) -> InvResult<()> {
        self.p_abort()
    }
    fn creat(&mut self, path: &str) -> InvResult<Fd> {
        self.p_creat(path, CreateMode::default())
    }
    fn unlink(&mut self, path: &str) -> InvResult<()> {
        self.p_unlink(path)
    }
    fn mkdir(&mut self, path: &str) -> InvResult<()> {
        self.p_mkdir(path).map(|_| ())
    }
}

/// The calls whose latency the trace reports by name.
pub const TRACED_CALLS: [&str; 10] = [
    "stat",
    "open",
    "read_bulk",
    "write_bulk",
    "lseek",
    "close",
    "begin",
    "commit",
    "creat",
    "unlink",
];

/// One timed interval. `parent` indexes the op span that caused a call span
/// (-1 for op spans); spans of one op share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub op_id: u64,
    pub client: u32,
}

/// What an op failed with.
#[derive(Debug)]
pub enum OpError {
    Fs(InvError),
    /// The system answered, but with the wrong bytes.
    Mismatch(String),
}

impl From<InvError> for OpError {
    fn from(e: InvError) -> OpError {
        OpError::Fs(e)
    }
}

/// A client's view of its own tree: the bytes every file should hold.
#[derive(Debug, Default, Clone)]
pub struct Model {
    pub files: BTreeMap<u32, Vec<u8>>,
    /// Files the script itself wrote or created (to read back afterwards).
    pub touched: std::collections::BTreeSet<u32>,
    /// Files the script unlinked (must be gone afterwards).
    pub removed: Vec<u32>,
}

/// A change an op makes to the model once it has committed.
enum Effect {
    Write {
        file: u32,
        offset: usize,
        data: Vec<u8>,
    },
    Create {
        file: u32,
        data: Vec<u8>,
    },
    Remove {
        file: u32,
    },
}

impl Model {
    pub fn live_bytes(&self) -> u64 {
        self.files.values().map(|f| f.len() as u64).sum()
    }

    fn apply(&mut self, effect: Effect) {
        match effect {
            Effect::Write { file, offset, data } => {
                let f = self.files.entry(file).or_default();
                if f.len() < offset + data.len() {
                    f.resize(offset + data.len(), 0);
                }
                f[offset..offset + data.len()].copy_from_slice(&data);
                self.touched.insert(file);
            }
            Effect::Create { file, data } => {
                self.files.insert(file, data);
                self.touched.insert(file);
            }
            Effect::Remove { file } => {
                self.files.remove(&file);
                self.touched.remove(&file);
                self.removed.push(file);
            }
        }
    }
}

/// Wraps a client: times calls when tracing, and remembers what an op left
/// open so a failed attempt can be cleaned up before the retry.
pub struct Driver<C> {
    pub c: C,
    pub client: u32,
    epoch: Instant,
    spans: Option<Vec<Span>>,
    cur_op: i64,
    op_id: u64,
    open_fd: Option<Fd>,
    in_txn: bool,
}

/// How one op ended.
#[derive(Debug)]
pub struct OpOutcome {
    pub retries: u32,
    /// The transient errors other than deadlock among those retries.
    pub retried: Vec<InvError>,
    pub error: Option<OpError>,
}

impl<C: FsCalls> Driver<C> {
    pub fn new(c: C, client: u32, epoch: Instant, trace: bool) -> Driver<C> {
        Driver {
            c,
            client,
            epoch,
            spans: trace.then(Vec::new),
            cur_op: -1,
            op_id: 0,
            open_fd: None,
            in_txn: false,
        }
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut C) -> InvResult<T>,
    ) -> InvResult<T> {
        if self.spans.is_none() {
            return f(&mut self.c);
        }
        let start_ns = self.now_ns();
        let out = f(&mut self.c);
        let end_ns = self.now_ns();
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: self.cur_op,
            op_id: self.op_id,
            client: self.client,
        };
        self.spans.as_mut().expect("checked above").push(span);
        out
    }

    fn begin(&mut self) -> InvResult<()> {
        self.call("begin", |c| c.begin())?;
        self.in_txn = true;
        Ok(())
    }

    fn commit(&mut self) -> InvResult<()> {
        // Whatever the answer, the server no longer holds the transaction.
        self.in_txn = false;
        self.call("commit", |c| c.commit())
    }

    fn open(&mut self, path: &str, mode: OpenMode) -> InvResult<Fd> {
        let fd = self.call("open", |c| c.open(path, mode))?;
        self.open_fd = Some(fd);
        Ok(fd)
    }

    fn creat(&mut self, path: &str) -> InvResult<Fd> {
        let fd = self.call("creat", |c| c.creat(path))?;
        self.open_fd = Some(fd);
        Ok(fd)
    }

    fn close(&mut self, fd: Fd) -> InvResult<()> {
        self.open_fd = None;
        self.call("close", |c| c.close(fd))
    }

    /// Leaves the session as an op expects to find it: no transaction, no
    /// descriptor. Best effort — the attempt already failed.
    fn clean_up(&mut self) {
        if std::mem::take(&mut self.in_txn) {
            self.c.abort().ok();
        }
        if let Some(fd) = self.open_fd.take() {
            self.c.close(fd).ok();
        }
    }

    /// One attempt at `op`. Reads are checked against `model`; the changes
    /// the op makes are returned, to be applied only if it went through.
    fn attempt(&mut self, op: &Op, model: &Model) -> Result<Vec<Effect>, OpError> {
        let k = self.client as usize;
        match op {
            Op::Read { file, len, stat } => {
                let path = file_path(k, *file);
                let want = model
                    .files
                    .get(file)
                    .ok_or_else(|| OpError::Mismatch(format!("script reads unknown {path}")))?;
                if *stat {
                    let st = self.call("stat", |c| c.stat(&path))?;
                    if st.size != want.len() as u64 {
                        return Err(OpError::Mismatch(format!(
                            "{path}: stat size {} but model holds {}",
                            st.size,
                            want.len()
                        )));
                    }
                }
                let fd = self.open(&path, OpenMode::Read)?;
                let got = self.call("read_bulk", |c| c.read_bulk(fd, *len as usize))?;
                self.close(fd)?;
                let n = (*len as usize).min(want.len());
                if got != want[..n] {
                    return Err(OpError::Mismatch(format!(
                        "{path}: read {} bytes that differ from the model's first {n}",
                        got.len()
                    )));
                }
                Ok(Vec::new())
            }
            Op::TxnWrite { file, len, writes } => {
                let path = file_path(k, *file);
                let mut effects = Vec::with_capacity(writes.len());
                self.begin()?;
                let fd = self.open(&path, OpenMode::ReadWrite)?;
                for (chunk, salt) in writes {
                    let offset = *chunk as usize * inversion::CHUNK_SIZE;
                    let data = pattern(*len as usize, *salt);
                    self.call("lseek", |c| c.lseek(fd, offset as u64))?;
                    let n = self.call("write_bulk", |c| c.write_bulk(fd, &data))?;
                    if n != data.len() {
                        return Err(OpError::Mismatch(format!("{path}: short write {n}")));
                    }
                    effects.push(Effect::Write {
                        file: *file,
                        offset,
                        data,
                    });
                }
                self.close(fd)?;
                self.commit()?;
                Ok(effects)
            }
            Op::Churn {
                create,
                len,
                salt,
                unlink,
            } => {
                let path = file_path(k, *create);
                let data = pattern(*len as usize, *salt);
                self.begin()?;
                let fd = self.creat(&path)?;
                let n = self.call("write_bulk", |c| c.write_bulk(fd, &data))?;
                if n != data.len() {
                    return Err(OpError::Mismatch(format!("{path}: short write {n}")));
                }
                self.close(fd)?;
                let mut effects = vec![Effect::Create {
                    file: *create,
                    data,
                }];
                if let Some(victim) = unlink {
                    let vpath = file_path(k, *victim);
                    self.call("unlink", |c| c.unlink(&vpath))?;
                    effects.push(Effect::Remove { file: *victim });
                }
                self.commit()?;
                Ok(effects)
            }
        }
    }

    /// Runs `op` to completion: retried on a transient error, applied to
    /// `model` on success, cleaned up and reported on any other error.
    /// Never panics.
    pub fn run_op(&mut self, op: &Op, model: &mut Model) -> OpOutcome {
        self.op_id += 1;
        // Calls are pushed while their op is still running, so the op's
        // span takes its slot first and gets its end time afterwards.
        let (op_id, client) = (self.op_id, self.client);
        let started = self.spans.is_some().then(|| self.now_ns());
        let slot = self.spans.as_mut().zip(started).map(|(spans, start_ns)| {
            spans.push(Span {
                name: "op",
                start_ns,
                end_ns: start_ns,
                parent: -1,
                op_id,
                client,
            });
            spans.len() - 1
        });
        self.cur_op = slot.map_or(-1, |s| s as i64);
        let mut retries = 0;
        let mut retried = Vec::new();
        let error = loop {
            match self.attempt(op, model) {
                Ok(effects) => {
                    effects.into_iter().for_each(|e| model.apply(e));
                    break None;
                }
                Err(OpError::Fs(e)) if transient(&e) && retries < MAX_RETRIES => {
                    self.clean_up();
                    retries += 1;
                    if !matches!(e, InvError::Db(DbError::Deadlock)) {
                        retried.push(e);
                    }
                    // Let the session that won the cycle, or the thread
                    // holding the pins, finish first.
                    std::thread::yield_now();
                }
                Err(e) => {
                    self.clean_up();
                    break Some(e);
                }
            }
        };
        if let Some(slot) = slot {
            let end_ns = self.now_ns();
            self.spans.as_mut().expect("tracing")[slot].end_ns = end_ns;
            self.cur_op = -1;
        }
        OpOutcome {
            retries,
            retried,
            error,
        }
    }

    /// Creates this client's tree: its directory and `files` files of
    /// `size` patterned bytes, `batch` files per transaction.
    pub fn preload(
        &mut self,
        seed: u64,
        pre: crate::workload::Preload,
        model: &mut Model,
    ) -> InvResult<()> {
        let k = self.client as usize;
        self.c.mkdir(&crate::workload::client_dir(k))?;
        let mut file = 0;
        while file < pre.files {
            self.c.begin()?;
            for f in file..(file + pre.batch).min(pre.files) {
                let data = pattern(pre.size, crate::workload::preload_salt(seed, k, f));
                let fd = self.c.creat(&file_path(k, f))?;
                self.c.write_bulk(fd, &data)?;
                self.c.close(fd)?;
                model.files.insert(f, data);
            }
            self.c.commit()?;
            file += pre.batch;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A client that answers from a script of canned results: `Ok` results
    /// behave like a tiny in-memory file system, and the next queued error
    /// (if any) is injected into the named call.
    #[derive(Default)]
    struct FakeFs {
        files: BTreeMap<String, Vec<u8>>,
        fds: BTreeMap<Fd, (String, usize)>,
        next_fd: Fd,
        /// `(call name, error)`: fail that call the next time it is made.
        inject: VecDeque<(&'static str, InvError)>,
        aborts: u32,
        closes: u32,
        in_txn: bool,
    }

    impl FakeFs {
        fn trip(&mut self, name: &str) -> InvResult<()> {
            if self.inject.front().is_some_and(|(n, _)| *n == name) {
                return Err(self.inject.pop_front().expect("front exists").1);
            }
            Ok(())
        }
    }

    impl FsCalls for FakeFs {
        fn stat(&mut self, path: &str) -> InvResult<FileStat> {
            self.trip("stat")?;
            let f = self
                .files
                .get(path)
                .ok_or(InvError::NoSuchPath(path.into()))?;
            Ok(crate::trace::sample_stat(f.len() as u64))
        }
        fn open(&mut self, path: &str, _mode: OpenMode) -> InvResult<Fd> {
            self.trip("open")?;
            if !self.files.contains_key(path) {
                return Err(InvError::NoSuchPath(path.into()));
            }
            self.next_fd += 1;
            self.fds.insert(self.next_fd, (path.into(), 0));
            Ok(self.next_fd)
        }
        fn read_bulk(&mut self, fd: Fd, len: usize) -> InvResult<Vec<u8>> {
            self.trip("read_bulk")?;
            let (path, off) = self.fds.get(&fd).ok_or(InvError::BadFd(fd))?;
            let f = &self.files[path];
            Ok(f[*off..(*off + len).min(f.len())].to_vec())
        }
        fn write_bulk(&mut self, fd: Fd, data: &[u8]) -> InvResult<usize> {
            self.trip("write_bulk")?;
            let (path, off) = self.fds.get(&fd).ok_or(InvError::BadFd(fd))?.clone();
            let f = self.files.get_mut(&path).expect("open file exists");
            if f.len() < off + data.len() {
                f.resize(off + data.len(), 0);
            }
            f[off..off + data.len()].copy_from_slice(data);
            Ok(data.len())
        }
        fn lseek(&mut self, fd: Fd, offset: u64) -> InvResult<u64> {
            self.fds.get_mut(&fd).ok_or(InvError::BadFd(fd))?.1 = offset as usize;
            Ok(offset)
        }
        fn close(&mut self, fd: Fd) -> InvResult<()> {
            self.closes += 1;
            self.fds.remove(&fd).map(|_| ()).ok_or(InvError::BadFd(fd))
        }
        fn begin(&mut self) -> InvResult<()> {
            self.trip("begin")?;
            self.in_txn = true;
            Ok(())
        }
        fn commit(&mut self) -> InvResult<()> {
            self.in_txn = false;
            self.trip("commit")
        }
        fn abort(&mut self) -> InvResult<()> {
            self.aborts += 1;
            self.in_txn = false;
            Ok(())
        }
        fn creat(&mut self, path: &str) -> InvResult<Fd> {
            self.trip("creat")?;
            self.files.insert(path.into(), Vec::new());
            self.next_fd += 1;
            self.fds.insert(self.next_fd, (path.into(), 0));
            Ok(self.next_fd)
        }
        fn unlink(&mut self, path: &str) -> InvResult<()> {
            self.trip("unlink")?;
            self.files
                .remove(path)
                .map(|_| ())
                .ok_or(InvError::NoSuchPath(path.into()))
        }
        fn mkdir(&mut self, _path: &str) -> InvResult<()> {
            Ok(())
        }
    }

    fn loaded_driver(trace: bool) -> (Driver<FakeFs>, Model) {
        let mut d = Driver::new(FakeFs::default(), 0, Instant::now(), trace);
        let mut model = Model::default();
        let pre = crate::workload::Preload {
            files: 4,
            size: 8192,
            batch: 3,
        };
        d.preload(1, pre, &mut model).unwrap();
        assert_eq!(model.files.len(), 4);
        (d, model)
    }

    fn deadlock() -> InvError {
        InvError::Db(DbError::Deadlock)
    }

    #[test]
    fn a_forced_deadlock_is_a_retry_not_a_failure() {
        let (mut d, mut model) = loaded_driver(false);
        d.c.inject.push_back(("write_bulk", deadlock()));
        d.c.inject.push_back(("commit", deadlock()));
        let op = Op::TxnWrite {
            file: 2,
            len: 100,
            writes: vec![(0, 77)],
        };
        let out = d.run_op(&op, &mut model);
        assert!(out.error.is_none());
        assert_eq!(out.retries, 2);
        assert_eq!(
            d.c.aborts, 1,
            "only the attempt that died inside the transaction aborts"
        );
        assert!(d.c.fds.is_empty() && !d.c.in_txn, "nothing left open");
        assert_eq!(model.files[&2][..100], pattern(100, 77)[..]);
        assert_eq!(d.c.files[&file_path(0, 2)][..100], pattern(100, 77)[..]);
    }

    #[test]
    fn a_pinned_out_pool_is_a_retry_and_is_reported() {
        let (mut d, mut model) = loaded_driver(false);
        let pinned = || {
            InvError::Db(DbError::Invalid(
                "buffer pool exhausted: every page is pinned".into(),
            ))
        };
        assert!(transient(&pinned()) && transient(&deadlock()));
        assert!(!transient(&InvError::Db(DbError::Invalid("boom".into()))));
        assert!(!transient(&InvError::NoSuchPath("/x".into())));
        d.c.inject.push_back(("write_bulk", pinned()));
        let op = Op::TxnWrite {
            file: 1,
            len: 100,
            writes: vec![(0, 9)],
        };
        let out = d.run_op(&op, &mut model);
        assert!(out.error.is_none());
        assert_eq!((out.retries, out.retried.len(), d.c.aborts), (1, 1, 1));
        assert_eq!(model.files[&1][..100], pattern(100, 9)[..]);
    }

    #[test]
    fn a_forced_other_error_is_a_failure_and_leaves_the_model_alone() {
        let (mut d, mut model) = loaded_driver(false);
        let before = model.files.clone();
        d.c.inject
            .push_back(("unlink", InvError::Invalid("boom".into())));
        let op = Op::Churn {
            create: 10,
            len: 64,
            salt: 5,
            unlink: Some(1),
        };
        let out = d.run_op(&op, &mut model);
        assert!(matches!(out.error, Some(OpError::Fs(InvError::Invalid(_)))));
        assert_eq!(out.retries, 0);
        assert_eq!(d.c.aborts, 1);
        assert_eq!(model.files, before);
        assert!(model.removed.is_empty());
    }

    #[test]
    fn endless_deadlocks_exhaust_the_retries_without_panicking() {
        let (mut d, mut model) = loaded_driver(false);
        for _ in 0..=MAX_RETRIES {
            d.c.inject.push_back(("open", deadlock()));
        }
        let out = d.run_op(
            &Op::Read {
                file: 0,
                len: 16,
                stat: false,
            },
            &mut model,
        );
        assert_eq!(out.retries, MAX_RETRIES);
        assert!(matches!(
            out.error,
            Some(OpError::Fs(InvError::Db(DbError::Deadlock)))
        ));
    }

    #[test]
    fn wrong_bytes_are_a_mismatch() {
        let (mut d, mut model) = loaded_driver(false);
        d.c.files.get_mut(&file_path(0, 3)).unwrap()[5] ^= 1;
        let out = d.run_op(
            &Op::Read {
                file: 3,
                len: 4096,
                stat: true,
            },
            &mut model,
        );
        assert!(matches!(out.error, Some(OpError::Mismatch(_))));
        let ok = d.run_op(
            &Op::Read {
                file: 1,
                len: 4096,
                stat: true,
            },
            &mut model,
        );
        assert!(ok.error.is_none());
    }

    #[test]
    fn churn_updates_the_model_and_tracks_removals() {
        let (mut d, mut model) = loaded_driver(false);
        let op = Op::Churn {
            create: 9,
            len: 32,
            salt: 4,
            unlink: Some(0),
        };
        assert!(d.run_op(&op, &mut model).error.is_none());
        assert_eq!(model.files[&9], pattern(32, 4));
        assert!(!model.files.contains_key(&0));
        assert_eq!(model.removed, vec![0]);
        assert!(model.touched.contains(&9));
        assert_eq!(model.live_bytes(), 3 * 8192 + 32);
    }

    #[test]
    fn spans_nest_calls_under_their_op() {
        let (mut d, mut model) = loaded_driver(true);
        d.run_op(
            &Op::Read {
                file: 1,
                len: 64,
                stat: true,
            },
            &mut model,
        );
        d.run_op(
            &Op::Read {
                file: 2,
                len: 64,
                stat: false,
            },
            &mut model,
        );
        let spans = d.take_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "op",
                "stat",
                "open",
                "read_bulk",
                "close",
                "op",
                "open",
                "read_bulk",
                "close"
            ]
        );
        assert_eq!(spans[0].parent, -1);
        assert!(spans[1..5]
            .iter()
            .all(|s| s.parent == 0 && s.op_id == spans[0].op_id));
        assert!(spans[6..]
            .iter()
            .all(|s| s.parent == 5 && s.op_id == spans[5].op_id));
        assert_ne!(spans[0].op_id, spans[5].op_id);
        for s in &spans[1..5] {
            assert!(spans[0].start_ns <= s.start_ns && s.end_ns <= spans[0].end_ns);
        }
        assert!(d.take_spans().is_empty());
    }
}
