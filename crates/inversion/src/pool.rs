//! The concurrent session server: many client connections, one
//! [`crate::InversionFs`].
//!
//! The paper ran Inversion client/server over TCP/IP; this module is that
//! server side made real. [`InvServerPool`] accepts connections carrying
//! [`crate::wire`] frames over any byte stream (the in-memory
//! [`simdev::DuplexStream`] pair in tests and benchmarks, or `std::net` TCP
//! via [`InvServerPool::listen_tcp`]). Each connection gets its own
//! server-side session — its own [`InvServer`], fd table, and transaction
//! scope — while a shared worker pool executes requests.
//!
//! Flow control is explicit: a per-session request queue is bounded by
//! [`PoolConfig::queue_bound`]; when it fills, the connection's reader
//! thread stops reading (backpressure propagates to the client through the
//! transport) and the stall is counted, once, in `queue_full`. Requests from
//! one session execute strictly in order — a session is serviced by at most
//! one worker at a time — so pipelined bulk reads and writes (one frame per
//! 256 KB window) stream responses back in request order.
//!
//! Disconnects are first-class: when a connection drops (clean EOF, fatal
//! framing damage, or transport failure), the session's in-flight
//! transaction is aborted — releasing its locks — its descriptors are
//! reclaimed, and `disconnect_aborts` is bumped. A malformed frame that
//! leaves the stream in sync (checksum mismatch, unknown opcode, bad
//! payload) is answered with an error response and the session carries on.
//!
//! Every session publishes wire counters through the `pg_stat_net` virtual
//! relation (see [`crate::stats`]).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use minidb::stats::Counter;
use parking_lot::{Condvar, Mutex};
use simdev::DuplexStream;

use crate::fs::{InvError, InvResult, InversionFs};
use crate::server::{InvServer, Request, Response};
use crate::stats::SessionNetStats;
use crate::wire::{self, FrameEvent, WireError};

/// Tuning knobs for [`InvServerPool`].
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads shared by all sessions.
    pub workers: usize,
    /// Per-session request queue bound; a full queue blocks the
    /// connection's reader (backpressure) and counts one `queue_full` event
    /// per stall.
    pub queue_bound: usize,
    /// Test hook: while paused, workers stop draining queues so
    /// backpressure can be observed deterministically.
    pub service_gate: Option<Arc<ServiceGate>>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            queue_bound: 64,
            service_gate: None,
        }
    }
}

/// A pause switch for the worker pool (test instrumentation).
#[derive(Default)]
pub struct ServiceGate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl ServiceGate {
    /// A new, open gate.
    pub fn new() -> ServiceGate {
        ServiceGate::default()
    }

    /// Stops workers from draining session queues.
    pub fn pause(&self) {
        *self.paused.lock() = true;
    }

    /// Lets workers run again.
    pub fn resume(&self) {
        *self.paused.lock() = false;
        self.cv.notify_all();
    }

    fn wait_ready(&self, stop: &AtomicBool) {
        let mut paused = self.paused.lock();
        while *paused && !stop.load(SeqCst) {
            // Re-check the stop flag periodically so shutdown cannot hang
            // behind a gate nobody reopens.
            self.cv.wait_for(&mut paused, Duration::from_millis(10));
        }
    }
}

/// One queued unit of work for a session.
enum Item {
    /// A decoded request.
    Req(Request),
    /// A frame that arrived but did not decode; answered with an error.
    Malformed(WireError),
    /// The connection is gone; tear the session down.
    Eof,
}

struct SessQueue {
    items: VecDeque<Item>,
    /// A worker currently owns this session (in-order execution).
    in_service: bool,
    /// The session is already on the run queue.
    enqueued: bool,
    /// Teardown ran; nothing further will be serviced.
    closed: bool,
}

/// Server-side state for one connection.
struct SessionState {
    q: Mutex<SessQueue>,
    /// Signalled when the queue drains below the bound (reader wakes).
    space: Condvar,
    /// The response side of the connection.
    writer: Mutex<Box<dyn Write + Send>>,
    /// The session's executor: own fd table, own transaction scope.
    server: Mutex<InvServer>,
    stats: Arc<SessionNetStats>,
    /// Closes the session's transport. Invoked at teardown so a client
    /// blocked draining pipelined responses (bulk read/write streams) sees
    /// EOF promptly instead of hanging until pool shutdown, and at shutdown
    /// to unblock the reader thread.
    closer: Box<dyn Fn() + Send + Sync>,
}

/// What idle workers wait on.
struct RunQueue {
    /// Sessions with work, in arrival order.
    ready: VecDeque<Arc<SessionState>>,
    /// Every reader has queued its `Eof`: a worker that finds nothing ready
    /// exits. Set and signalled under the lock, so a worker that has just
    /// found it clear cannot sleep through the signal.
    stop: bool,
}

struct Shared {
    fs: InversionFs,
    config: PoolConfig,
    runq: Mutex<RunQueue>,
    runq_cv: Condvar,
    sessions: Mutex<Vec<Arc<SessionState>>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Puts `sess` on the run queue unless a worker already owns it or it
    /// is already queued. Caller holds the session's queue lock.
    fn schedule(&self, sess: &Arc<SessionState>, q: &mut SessQueue) {
        if !q.in_service && !q.enqueued && !q.closed {
            q.enqueued = true;
            self.runq.lock().ready.push_back(Arc::clone(sess));
            self.runq_cv.notify_one();
        }
    }
}

/// A multi-session Inversion server: shared worker pool, per-connection
/// sessions, bounded queues, disconnect-abort semantics.
pub struct InvServerPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    next_session: Mutex<u64>,
    stopped: AtomicBool,
}

impl InvServerPool {
    /// Starts a pool serving `fs` with `config.workers` worker threads.
    pub fn new(fs: &InversionFs, config: PoolConfig) -> InvServerPool {
        let shared = Arc::new(Shared {
            fs: fs.clone(),
            config: config.clone(),
            runq: Mutex::new(RunQueue {
                ready: VecDeque::new(),
                stop: false,
            }),
            runq_cv: Condvar::new(),
            sessions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        });
        let mut workers = Vec::new();
        for _ in 0..config.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_main(&sh)));
        }
        InvServerPool {
            shared,
            workers: Mutex::new(workers),
            readers: Mutex::new(Vec::new()),
            next_session: Mutex::new(0),
            stopped: AtomicBool::new(false),
        }
    }

    /// The file system this pool serves.
    pub fn fs(&self) -> &InversionFs {
        &self.shared.fs
    }

    /// Accepts one connection given its transport halves and a closer that
    /// unblocks the reader at shutdown. Returns the session number.
    pub fn serve(
        &self,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        closer: Box<dyn Fn() + Send + Sync>,
    ) -> u64 {
        let id = {
            let mut next = self.next_session.lock();
            *next += 1;
            *next
        };
        let inv = self.shared.fs.stats();
        inv.sessions_opened.bump();
        let stats = inv.net.register(id);
        let sess = Arc::new(SessionState {
            q: Mutex::new(SessQueue {
                items: VecDeque::new(),
                in_service: false,
                enqueued: false,
                closed: false,
            }),
            space: Condvar::new(),
            writer: Mutex::new(writer),
            server: Mutex::new(InvServer::new(&self.shared.fs)),
            stats,
            closer,
        });
        self.shared.sessions.lock().push(Arc::clone(&sess));
        let sh = Arc::clone(&self.shared);
        let handle = std::thread::spawn(move || reader_main(&sh, &sess, reader));
        self.readers.lock().push(handle);
        id
    }

    /// Accepts an in-memory duplex connection (the test/bench transport).
    pub fn serve_duplex(&self, conn: DuplexStream) -> u64 {
        let reader = conn.clone();
        let writer = conn.clone();
        self.serve(
            Box::new(reader),
            Box::new(writer),
            Box::new(move || conn.shutdown()),
        )
    }

    /// Binds `addr` and serves TCP connections until shutdown. Returns the
    /// bound local address (useful with port 0).
    pub fn listen_tcp(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let sh = Arc::clone(&self.shared);
        let pool = self.clone_for_accept();
        let handle = std::thread::spawn(move || {
            while !sh.shutdown.load(SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        stream.set_nonblocking(false).ok();
                        // Responses to pipelined requests are back-to-back
                        // small writes with nothing coming the other way;
                        // under Nagle the second one waits out the client's
                        // delayed ACK (40 ms on Linux) before it leaves.
                        stream.set_nodelay(true).ok();
                        if let Ok(rd) = stream.try_clone() {
                            let closer_stream = match stream.try_clone() {
                                Ok(s) => s,
                                Err(_) => continue,
                            };
                            pool.serve(
                                Box::new(rd),
                                Box::new(stream),
                                Box::new(move || {
                                    closer_stream.shutdown(std::net::Shutdown::Both).ok();
                                }),
                            );
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        self.readers.lock().push(handle);
        Ok(local)
    }

    /// A handle sharing this pool's state, for the accept thread.
    fn clone_for_accept(&self) -> InvServerPool {
        InvServerPool {
            shared: Arc::clone(&self.shared),
            workers: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            next_session: Mutex::new(1_000_000),
            // The accept-side clone must not re-run shutdown on drop.
            stopped: AtomicBool::new(true),
        }
    }

    /// Stops the pool: closes every connection, aborts in-flight
    /// transactions via the normal disconnect path, joins all threads, and
    /// writes pending access times back. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, SeqCst) {
            return;
        }
        self.shared.shutdown.store(true, SeqCst);
        // Unblock readers stuck in read() and clients stuck on responses,
        // then readers stuck waiting for queue space. A reader checks the
        // flag with its queue locked, so signalling under that lock finds it
        // either not yet checking or already waiting.
        for sess in self.shared.sessions.lock().iter() {
            (sess.closer)();
            let _q = sess.q.lock();
            sess.space.notify_all();
        }
        if let Some(gate) = &self.shared.config.service_gate {
            gate.cv.notify_all();
        }
        let readers: Vec<_> = self.readers.lock().drain(..).collect();
        for h in readers {
            h.join().ok();
        }
        // Readers have enqueued their Eof items; let the workers drain.
        {
            let mut runq = self.shared.runq.lock();
            runq.stop = true;
            self.shared.runq_cv.notify_all();
        }
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for h in workers {
            h.join().ok();
        }
        // No session is left to read: write the pending access times back.
        // A database that has already crashed refuses, and loses only them.
        self.shared.fs.flush_atimes().ok();
    }
}

impl Drop for InvServerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads frames off one connection into its session queue.
fn reader_main(sh: &Shared, sess: &Arc<SessionState>, mut reader: Box<dyn Read + Send>) {
    let inv = sh.fs.stats();
    loop {
        match wire::read_frame(&mut reader) {
            Ok(FrameEvent::Eof) => {
                enqueue(sh, sess, Item::Eof);
                return;
            }
            Ok(FrameEvent::Frame { opcode, payload }) => {
                let nbytes = (wire::HEADER_LEN + payload.len()) as u64;
                sess.stats.frames_in.bump();
                sess.stats.bytes_in.add(nbytes);
                inv.net_frames_in.bump();
                inv.net_bytes_in.add(nbytes);
                match wire::decode_request_frame(opcode, &payload) {
                    Ok(req) => enqueue(sh, sess, Item::Req(req)),
                    Err(e) => {
                        sess.stats.decode_errors.bump();
                        inv.net_decode_errors.bump();
                        enqueue(sh, sess, Item::Malformed(e));
                    }
                }
            }
            Ok(FrameEvent::Corrupt(e)) => {
                // The frame was consumed; the stream is still in sync.
                sess.stats.decode_errors.bump();
                inv.net_decode_errors.bump();
                enqueue(sh, sess, Item::Malformed(e));
            }
            Err(e) => {
                // Framing is untrustworthy: count protocol damage (anything
                // but a plain transport failure) and tear the session down.
                if !matches!(e, WireError::Io(_)) {
                    sess.stats.decode_errors.bump();
                    inv.net_decode_errors.bump();
                }
                enqueue(sh, sess, Item::Eof);
                return;
            }
        }
        if sh.shutdown.load(SeqCst) {
            enqueue(sh, sess, Item::Eof);
            return;
        }
    }
}

/// Queues `item` for `sess`, blocking while the queue is at its bound
/// (backpressure). `Eof` bypasses the bound so teardown always lands.
fn enqueue(sh: &Shared, sess: &Arc<SessionState>, item: Item) {
    let inv = sh.fs.stats();
    let bound = sh.config.queue_bound.max(1);
    let mut q = sess.q.lock();
    if q.closed {
        return;
    }
    if !matches!(item, Item::Eof) {
        let full = |q: &SessQueue| q.items.len() >= bound && !sh.shutdown.load(SeqCst);
        if full(&q) {
            sess.stats.queue_full.bump();
            inv.net_queue_full.bump();
            while full(&q) {
                sess.space.wait(&mut q);
            }
        }
        if q.closed {
            return;
        }
    }
    q.items.push_back(item);
    sh.schedule(sess, &mut q);
}

/// Worker loop: claim a runnable session, drain a batch of its queue in
/// order, hand it back.
fn worker_main(sh: &Shared) {
    loop {
        let sess = {
            let mut runq = sh.runq.lock();
            loop {
                if let Some(s) = runq.ready.pop_front() {
                    break s;
                }
                if runq.stop {
                    return;
                }
                sh.runq_cv.wait(&mut runq);
            }
        };
        {
            let mut q = sess.q.lock();
            q.enqueued = false;
            if q.in_service || q.closed {
                continue;
            }
            q.in_service = true;
        }
        service(sh, &sess);
    }
}

/// Drains one session's queue (the session is exclusively owned by this
/// worker until `in_service` is cleared).
fn service(sh: &Shared, sess: &Arc<SessionState>) {
    let batch = sh.config.queue_bound.max(1);
    let mut done = 0usize;
    loop {
        if let Some(gate) = &sh.config.service_gate {
            gate.wait_ready(&sh.shutdown);
        }
        let item = {
            let mut q = sess.q.lock();
            match q.items.pop_front() {
                Some(it) => it,
                None => {
                    q.in_service = false;
                    return;
                }
            }
        };
        sess.space.notify_all();
        match item {
            Item::Req(req) => respond(sh, sess, {
                let mut srv = sess.server.lock();
                srv.handle(req)
            }),
            Item::Malformed(e) => respond(sh, sess, Err(InvError::from(e))),
            Item::Eof => {
                teardown(sh, sess);
                return;
            }
        }
        done += 1;
        if done >= batch {
            // Yield the worker so other sessions make progress; requeue if
            // work remains.
            let mut q = sess.q.lock();
            q.in_service = false;
            if !q.items.is_empty() {
                sh.schedule(sess, &mut q);
            }
            return;
        }
    }
}

/// Encodes and writes one response, charging the session's wire counters.
fn respond(sh: &Shared, sess: &SessionState, res: InvResult<Response>) {
    let bytes = wire::encode_response(&res);
    let inv = sh.fs.stats();
    sess.stats.frames_out.bump();
    sess.stats.bytes_out.add(bytes.len() as u64);
    inv.net_frames_out.bump();
    inv.net_bytes_out.add(bytes.len() as u64);
    let mut w = sess.writer.lock();
    // A write failure means the client is gone; the reader side will
    // observe the same disconnect and queue the teardown.
    wire::write_frame(&mut *w, &bytes).ok();
}

/// Tears a session down after its connection vanished: abort the in-flight
/// transaction (releasing locks), reclaim fds, retire the stats row.
fn teardown(sh: &Shared, sess: &SessionState) {
    {
        let mut q = sess.q.lock();
        q.closed = true;
        q.items.clear();
        q.in_service = false;
        sess.space.notify_all();
    }
    let inv = sh.fs.stats();
    let aborted = sess.server.lock().disconnect();
    if aborted {
        sess.stats.disconnect_aborts.bump();
        inv.net_disconnect_aborts.bump();
    }
    sess.stats.mark_closed();
    inv.sessions_closed.bump();
    // Close the transport last: any client still blocked on a pipelined
    // response (mid-bulk fatal framing damage) must see EOF, not hang.
    (sess.closer)();
}

/// Bytes one bulk frame asks for or carries. Every request frame costs the
/// server a transaction, a trip through the session queue and a part-chunk
/// lookup at either end, so windows this large bring a megabyte down to four
/// of each; four in flight still let the client checksum one response while
/// the server produces the next, and a queued window is a quarter of
/// [`wire::MAX_PAYLOAD`].
pub(crate) const BULK_WINDOW: usize = 256 * 1024;
// A window travels behind an `fd` and a byte count.
const _: () = assert!(BULK_WINDOW + 8 <= wire::MAX_PAYLOAD);

/// Client-side wire counters (mirror of the server's per-session row, for
/// cross-checking in tests).
#[derive(Debug, Default)]
pub struct ClientWireStats {
    /// Frames this client wrote.
    pub frames_out: Counter,
    /// Frames this client read.
    pub frames_in: Counter,
    /// Bytes this client wrote.
    pub bytes_out: Counter,
    /// Bytes this client read.
    pub bytes_in: Counter,
}

/// A client speaking the real wire protocol over any byte stream.
///
/// Mirrors the `p_*` API of [`crate::InvClient`], but every call is encoded
/// into a [`crate::wire`] frame, sent to an [`InvServerPool`] session, and
/// the response decoded back. Bulk reads and writes pipeline one request per
/// 256 KB window: all frames are sent before any response is awaited, so the
/// transport stays full.
pub struct WireClient<S> {
    stream: S,
    stats: ClientWireStats,
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps a connected byte stream.
    pub fn new(stream: S) -> WireClient<S> {
        WireClient {
            stream,
            stats: ClientWireStats::default(),
        }
    }

    /// This client's wire counters.
    pub fn stats(&self) -> &ClientWireStats {
        &self.stats
    }

    /// Sends one request without waiting for its response (pipelining).
    pub fn send(&mut self, req: &Request) -> InvResult<()> {
        let bytes = wire::encode_request(req);
        wire::write_frame(&mut self.stream, &bytes)
            .map_err(|e| InvError::Invalid(format!("wire: send failed: {e}")))?;
        self.stats.frames_out.bump();
        self.stats.bytes_out.add(bytes.len() as u64);
        Ok(())
    }

    /// Receives one response (pairs with an earlier [`WireClient::send`]).
    pub fn recv(&mut self) -> InvResult<Response> {
        match wire::read_frame(&mut self.stream).map_err(InvError::from)? {
            FrameEvent::Eof => Err(InvError::Invalid("wire: server closed connection".into())),
            FrameEvent::Corrupt(e) => Err(e.into()),
            FrameEvent::Frame { opcode, payload } => {
                self.stats.frames_in.bump();
                self.stats
                    .bytes_in
                    .add((wire::HEADER_LEN + payload.len()) as u64);
                wire::decode_response_frame(opcode, &payload).map_err(InvError::from)?
            }
        }
    }

    /// One synchronous round trip.
    pub fn call(&mut self, req: &Request) -> InvResult<Response> {
        self.send(req)?;
        self.recv()
    }

    /// `p_begin` over the wire.
    pub fn begin(&mut self) -> InvResult<()> {
        self.call(&Request::Begin).map(|_| ())
    }

    /// `p_commit` over the wire.
    pub fn commit(&mut self) -> InvResult<()> {
        self.call(&Request::Commit).map(|_| ())
    }

    /// `p_abort` over the wire.
    pub fn abort(&mut self) -> InvResult<()> {
        self.call(&Request::Abort).map(|_| ())
    }

    /// `p_creat` over the wire.
    pub fn creat(&mut self, path: &str, mode: crate::fs::CreateMode) -> InvResult<crate::api::Fd> {
        match self.call(&Request::Creat(path.into(), mode))? {
            Response::Fd(fd) => Ok(fd),
            other => Err(unexpected(&other)),
        }
    }

    /// `p_open` over the wire.
    pub fn open(
        &mut self,
        path: &str,
        mode: crate::api::OpenMode,
        asof: Option<simdev::SimInstant>,
    ) -> InvResult<crate::api::Fd> {
        match self.call(&Request::Open(path.into(), mode, asof))? {
            Response::Fd(fd) => Ok(fd),
            other => Err(unexpected(&other)),
        }
    }

    /// `p_close` over the wire.
    pub fn close(&mut self, fd: crate::api::Fd) -> InvResult<()> {
        self.call(&Request::Close(fd)).map(|_| ())
    }

    /// `p_stat` over the wire.
    pub fn stat(&mut self, path: &str) -> InvResult<crate::fs::FileStat> {
        match self.call(&Request::Stat(path.into()))? {
            Response::Stat(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// `p_mkdir` over the wire.
    pub fn mkdir(&mut self, path: &str) -> InvResult<()> {
        self.call(&Request::Mkdir(path.into())).map(|_| ())
    }

    /// `p_unlink` over the wire.
    pub fn unlink(&mut self, path: &str) -> InvResult<()> {
        self.call(&Request::Unlink(path.into())).map(|_| ())
    }

    /// `p_readdir` over the wire.
    pub fn readdir(&mut self, path: &str) -> InvResult<Vec<(String, minidb::Oid)>> {
        match self.call(&Request::Readdir(path.into()))? {
            Response::Entries(es) => Ok(es),
            other => Err(unexpected(&other)),
        }
    }

    /// `p_rename` over the wire.
    pub fn rename(&mut self, from: &str, to: &str) -> InvResult<()> {
        self.call(&Request::Rename(from.into(), to.into()))
            .map(|_| ())
    }

    /// `p_undelete` over the wire.
    pub fn undelete(&mut self, path: &str, t: simdev::SimInstant) -> InvResult<()> {
        self.call(&Request::Undelete(path.into(), t)).map(|_| ())
    }

    /// `p_slice` over the wire.
    pub fn slice(
        &mut self,
        dest: &str,
        mode: crate::fs::CreateMode,
        ranges: &[crate::fs::SliceRange],
    ) -> InvResult<crate::fs::FileStat> {
        match self.call(&Request::Slice(dest.into(), mode, ranges.to_vec()))? {
            Response::Stat(s) => Ok(*s),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads `len` bytes from `fd`, pipelining one request per 256 KB
    /// window: every request frame is sent before the first response is
    /// read. Short reads (EOF) end the result early.
    pub fn read_bulk(&mut self, fd: crate::api::Fd, len: usize) -> InvResult<Vec<u8>> {
        let mut sent = 0usize;
        let mut inflight = 0usize;
        while sent < len {
            let want = (len - sent).min(BULK_WINDOW);
            self.send(&Request::Read(fd, want))?;
            sent += want;
            inflight += 1;
        }
        let mut out = Vec::with_capacity(len);
        let mut first_err = None;
        for _ in 0..inflight {
            match self.recv() {
                Ok(Response::Data(d)) => out.extend_from_slice(&d),
                Ok(other) => {
                    first_err.get_or_insert(unexpected(&other));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    }

    /// Writes all of `data` to `fd`, pipelining one frame per 256 KB
    /// window. Responses are drained after every frame is on the wire; the
    /// first error (if any) is surfaced once the stream is back in sync.
    pub fn write_bulk(&mut self, fd: crate::api::Fd, data: &[u8]) -> InvResult<usize> {
        let mut inflight = 0usize;
        for chunk in data.chunks(BULK_WINDOW) {
            self.send(&Request::Write(fd, chunk.to_vec()))?;
            inflight += 1;
        }
        let mut total = 0usize;
        let mut first_err = None;
        for _ in 0..inflight {
            match self.recv() {
                Ok(Response::Count(n)) => total += n as usize,
                Ok(other) => {
                    first_err.get_or_insert(unexpected(&other));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(total),
            Some(e) => Err(e),
        }
    }
}

fn unexpected(resp: &Response) -> InvError {
    InvError::Invalid(format!("wire: unexpected response {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;
    use simdev::duplex_pair;

    #[test]
    fn one_session_full_file_lifecycle() {
        let fs = InversionFs::open_in_memory().unwrap();
        let pool = InvServerPool::new(&fs, PoolConfig::default());
        let (client_end, server_end) = duplex_pair();
        pool.serve_duplex(server_end);
        let mut c = WireClient::new(client_end);
        c.begin().unwrap();
        let fd = c.creat("/wire", CreateMode::default()).unwrap();
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(c.write_bulk(fd, &payload).unwrap(), payload.len());
        c.call(&Request::Lseek(fd, 0, crate::api::SeekWhence::Set))
            .unwrap();
        let back = c.read_bulk(fd, payload.len()).unwrap();
        assert_eq!(back, payload);
        c.close(fd).unwrap();
        c.commit().unwrap();
        assert_eq!(c.stat("/wire").unwrap().size, payload.len() as u64);
        pool.shutdown();
        assert!(fs.stats().sessions_opened.get() >= 1);
        assert_eq!(
            fs.stats().sessions_opened.get(),
            fs.stats().sessions_closed.get()
        );
    }

    #[test]
    fn rename_undelete_and_slice_over_the_wire() {
        let fs = InversionFs::open_in_memory().unwrap();
        let pool = InvServerPool::new(&fs, PoolConfig::default());
        let (client_end, server_end) = duplex_pair();
        pool.serve_duplex(server_end);
        let mut c = WireClient::new(client_end);

        let fd = c.creat("/a", CreateMode::default()).unwrap();
        let data: Vec<u8> = (0..crate::chunk::CHUNK_SIZE + 500)
            .map(|i| (i % 251) as u8)
            .collect();
        c.write_bulk(fd, &data).unwrap();
        c.close(fd).unwrap();

        c.rename("/a", "/b").unwrap();
        assert!(c.stat("/a").is_err());
        let t_alive = fs.db().now();
        c.unlink("/b").unwrap();
        assert!(c.stat("/b").is_err());
        c.undelete("/b", t_alive).unwrap();
        assert_eq!(c.stat("/b").unwrap().size, data.len() as u64);

        let st = c
            .slice(
                "/composed",
                CreateMode::default(),
                &[crate::fs::SliceRange::new("/b", 0, data.len() as u64)],
            )
            .unwrap();
        assert_eq!(st.size, data.len() as u64);
        let fd = c.open("/composed", crate::api::OpenMode::Read, None).unwrap();
        assert_eq!(c.read_bulk(fd, data.len()).unwrap(), data);
        c.close(fd).unwrap();
        assert!(fs.stats().chunks_shared.get() >= 1);
        pool.shutdown();
        assert_eq!(fs.check(), vec![]);
    }

    #[test]
    fn two_sessions_have_isolated_fd_tables() {
        let fs = InversionFs::open_in_memory().unwrap();
        let pool = InvServerPool::new(&fs, PoolConfig::default());
        let (a_end, a_srv) = duplex_pair();
        let (b_end, b_srv) = duplex_pair();
        pool.serve_duplex(a_srv);
        pool.serve_duplex(b_srv);
        let mut a = WireClient::new(a_end);
        let mut b = WireClient::new(b_end);
        let fd_a = a.creat("/shared", CreateMode::default()).unwrap();
        // Session B's descriptor table knows nothing about A's fd.
        assert!(matches!(
            b.call(&Request::Read(fd_a, 10)),
            Err(InvError::BadFd(_))
        ));
        let fd_b = b.open("/shared", crate::api::OpenMode::Read, None).unwrap();
        let _ = (fd_a, fd_b);
        pool.shutdown();
    }

    #[test]
    fn disconnect_mid_transaction_aborts() {
        let fs = InversionFs::open_in_memory().unwrap();
        let pool = InvServerPool::new(&fs, PoolConfig::default());
        let (client_end, server_end) = duplex_pair();
        pool.serve_duplex(server_end);
        let mut c = WireClient::new(client_end);
        c.begin().unwrap();
        c.creat("/doomed", CreateMode::default()).unwrap();
        drop(c); // Hang up mid-transaction.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while fs.stats().net_disconnect_aborts.get() == 0 {
            assert!(std::time::Instant::now() < deadline, "abort never observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut probe = fs.client();
        assert!(probe.p_stat("/doomed", None).is_err(), "rows leaked");
        pool.shutdown();
    }
}
