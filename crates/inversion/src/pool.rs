//! The concurrent session server: many client connections, one
//! [`crate::InversionFs`].
//!
//! The paper ran Inversion client/server over TCP/IP, and POSTGRES served
//! each connection with a backend of its own; this module is that server
//! side made real. [`InvServerPool`] accepts connections carrying
//! [`crate::wire`] frames over any byte stream (the in-memory
//! [`simdev::DuplexStream`] pair in tests and benchmarks, or `std::net` TCP
//! via [`InvServerPool::listen_tcp`]) and serves each with a thread of its
//! own. That thread owns the connection's [`InvServer`] — its fd table and
//! transaction scope — and loops: read a frame, run it, write the response.
//! A session's requests therefore run in order, and a session that waits on
//! a lock holds up no thread but its own.
//!
//! Flow control is the transport's: there is no request queue. Pipelined
//! bulk reads and writes (one frame per 256 KB window) keep working because
//! the client sends every window before it reads a response, so the thread
//! blocks on a full transport only once the client has finished sending.
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
//!
//! [`WireClient`] is the client end. Its framing (`send`, `recv`, `call`)
//! and the pipelined `read_bulk`/`write_bulk` are written here; its one
//! method per request is generated from the op table (see [`crate::wire`]).
//! `send` refuses a request too large for one frame before writing a byte,
//! so the session and its transaction carry on.

use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use minidb::stats::Counter;
use parking_lot::Mutex;
use simdev::DuplexStream;

use crate::fs::{InvError, InvResult, InversionFs};
use crate::server::{InvServer, Reply, Request, Response};
use crate::stats::SessionNetStats;
use crate::wire::{self, FrameEvent};

/// Settings for [`InvServerPool`]; none of them changes what it does.
#[derive(Clone, Default)]
pub struct PoolConfig {
    /// Has no effect: every connection is served by a thread of its own,
    /// so there is no shared worker pool to size. Kept because the
    /// benchmark crate, whose source is fixed, sets it.
    pub workers: usize,
}

/// Closes a connection's transport: at shutdown it ends the session
/// thread's read, at teardown a client's wait for responses.
type Closer = Arc<dyn Fn() + Send + Sync>;

struct Shared {
    fs: InversionFs,
    next_session: AtomicU64,
    /// Every thread the pool started (session threads and accept loops),
    /// with its connection's closer. `serve` checks `shutdown` under this
    /// lock, so no connection is served after shutdown has taken the list.
    threads: Mutex<Vec<(Closer, JoinHandle<()>)>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Starts the thread that serves one connection. Returns the session
    /// number.
    fn serve(
        self: &Arc<Shared>,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        closer: Closer,
    ) -> u64 {
        let id = self.next_session.fetch_add(1, SeqCst) + 1;
        let mut threads = self.threads.lock();
        if self.shutdown.load(SeqCst) {
            closer();
            return id;
        }
        // A connection whose thread has ended needs neither closing nor
        // joining; dropping it releases its transport.
        threads.retain(|(_, h)| !h.is_finished());
        let inv = self.fs.stats();
        inv.sessions_opened.bump();
        let stats = inv.net.register(id);
        let (sh, close) = (Arc::clone(self), Arc::clone(&closer));
        let handle = std::thread::spawn(move || session_main(&sh, &stats, reader, writer, &*close));
        threads.push((closer, handle));
        id
    }
}

/// A multi-session Inversion server: one thread per connection,
/// disconnect-abort semantics.
pub struct InvServerPool {
    shared: Arc<Shared>,
}

impl InvServerPool {
    /// A pool serving `fs`. It starts no thread until a connection comes.
    pub fn new(fs: &InversionFs, _config: PoolConfig) -> InvServerPool {
        InvServerPool {
            shared: Arc::new(Shared {
                fs: fs.clone(),
                next_session: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The file system this pool serves.
    pub fn fs(&self) -> &InversionFs {
        &self.shared.fs
    }

    /// Accepts one connection given its transport halves and a closer that
    /// ends its reads. Returns the session number.
    pub fn serve(
        &self,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        closer: Box<dyn Fn() + Send + Sync>,
    ) -> u64 {
        self.shared.serve(reader, writer, Arc::from(closer))
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
                        let (Ok(rd), Ok(closer_stream)) = (stream.try_clone(), stream.try_clone())
                        else {
                            continue;
                        };
                        sh.serve(
                            Box::new(rd),
                            Box::new(stream),
                            Arc::new(move || {
                                closer_stream.shutdown(std::net::Shutdown::Both).ok();
                            }),
                        );
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        // The accept loop watches `shutdown` itself: it has nothing to close.
        self.shared.threads.lock().push((Arc::new(|| {}), handle));
        Ok(local)
    }

    /// Stops the pool: closes every connection, so each session thread
    /// aborts its in-flight transaction through the normal disconnect path,
    /// joins all threads, and writes pending access times back. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        let threads = {
            let mut threads = self.shared.threads.lock();
            if self.shared.shutdown.swap(true, SeqCst) {
                return;
            }
            std::mem::take(&mut *threads)
        };
        for (closer, _) in &threads {
            closer();
        }
        for (_, h) in threads {
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

/// Serves one connection: read a frame, run it through
/// [`InvServer::serve_frame`], write the response, until the client hangs
/// up, the framing breaks, or a response cannot be written (which
/// shutdown's closer causes). Then tears the session down: abort the
/// in-flight transaction (releasing locks), reclaim fds, retire the stats
/// row, close the transport.
fn session_main(
    sh: &Shared,
    stats: &SessionNetStats,
    reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
    closer: &(dyn Fn() + Send + Sync),
) {
    let inv = sh.fs.stats();
    let mut server = InvServer::new(&sh.fs);
    let mut reader = BufReader::with_capacity(FRAME_READ_BUFFER, reader);
    loop {
        let read = wire::read_frame(&mut reader);
        if let Ok(FrameEvent::Frame { payload, .. }) = &read {
            stats.frames_in.bump();
            stats
                .bytes_in
                .add((wire::HEADER_LEN + payload.len()) as u64);
        }
        let (response, damaged) = server.serve_frame(read);
        if damaged {
            stats.decode_errors.bump();
        }
        let Some(bytes) = response else { break };
        stats.frames_out.bump();
        stats.bytes_out.add(bytes.len() as u64);
        // A write failure means the client is gone.
        if wire::write_frame(&mut writer, &bytes).is_err() {
            break;
        }
    }
    if server.disconnect() {
        stats.disconnect_aborts.bump();
        inv.net_disconnect_aborts.bump();
    }
    stats.mark_closed();
    inv.sessions_closed.bump();
    // Close the transport last: any client still blocked on a pipelined
    // response (mid-bulk fatal framing damage) must see EOF, not hang.
    closer();
}

/// Bytes one bulk frame asks for or carries. Every request frame costs the
/// server a transaction, a round of its session loop and a part-chunk
/// lookup at either end, so windows this large bring a megabyte down to four
/// of each; four in flight still let the client checksum one response while
/// the server produces the next, and a window is a quarter of
/// [`wire::MAX_PAYLOAD`].
pub(crate) const BULK_WINDOW: usize = 256 * 1024;
// A window travels behind an `fd` and a byte count.
const _: () = assert!(BULK_WINDOW + 8 <= wire::MAX_PAYLOAD);

/// Bytes either end of a connection reads ahead of the frame it is on: at
/// most one page. A small frame, or the header of a large one, then costs
/// one read call, and so do the requests a client pipelines; a bulk
/// payload is read past the buffer, straight into its destination.
const FRAME_READ_BUFFER: usize = 8 * 1024;

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
/// Mirrors the `p_*` API of [`crate::InvClient`] with one method per request
/// of the op table, but every call is encoded into a [`crate::wire`] frame,
/// sent to an [`InvServerPool`] session, and the response decoded back.
/// Bulk reads and writes pipeline one request per 256 KB window: all frames
/// are sent before any response is awaited, so the transport stays full.
pub struct WireClient<S> {
    /// Responses are read through the buffer, requests written past it.
    stream: BufReader<S>,
    stats: ClientWireStats,
}

impl<S: Read + Write> WireClient<S> {
    /// Wraps a connected byte stream.
    pub fn new(stream: S) -> WireClient<S> {
        WireClient {
            stream: BufReader::with_capacity(FRAME_READ_BUFFER, stream),
            stats: ClientWireStats::default(),
        }
    }

    /// This client's wire counters.
    pub fn stats(&self) -> &ClientWireStats {
        &self.stats
    }

    /// The byte stream this client speaks over.
    pub fn stream(&self) -> &S {
        self.stream.get_ref()
    }

    /// Sends one request without waiting for its response (pipelining).
    /// A request too large for one frame is refused before a byte is sent.
    pub fn send(&mut self, req: &Request) -> InvResult<()> {
        let bytes = wire::encode_request(req);
        wire::check_size(&bytes)?;
        wire::write_frame(self.stream.get_mut(), &bytes)
            .map_err(|e| InvError::Invalid(format!("wire: send failed: {e}")))?;
        self.stats.frames_out.bump();
        self.stats.bytes_out.add(bytes.len() as u64);
        Ok(())
    }

    /// Receives one response (pairs with an earlier [`WireClient::send`]).
    pub fn recv(&mut self) -> InvResult<Response> {
        let mut data = Vec::new();
        match self.recv_into(&mut data)? {
            Response::Data(_) => Ok(Response::Data(data)),
            other => Ok(other),
        }
    }

    /// Receives one response; a `Data` reply's bytes are appended to `out`
    /// where they land ([`wire::read_response_into`]), and its response is
    /// empty.
    fn recv_into(&mut self, out: &mut Vec<u8>) -> InvResult<Response> {
        let Some((len, res)) = wire::read_response_into(&mut self.stream, out)? else {
            return Err(InvError::Invalid("wire: server closed connection".into()));
        };
        self.stats.frames_in.bump();
        self.stats.bytes_in.add(len as u64);
        res
    }

    /// One synchronous round trip.
    pub fn call(&mut self, req: &Request) -> InvResult<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Reads `len` bytes from `fd`, pipelining one request per 256 KB
    /// window: every request frame is sent before the first response is
    /// read, and each response's bytes are read straight into the result.
    /// Short reads (EOF) end the result early.
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
        self.recv_all(inflight, &mut out, |resp| Vec::<u8>::from_response(resp).map(drop))?;
        Ok(out)
    }

    /// Writes all of `data` to `fd`, pipelining one frame per 256 KB
    /// window. Responses are drained after every frame is on the wire.
    pub fn write_bulk(&mut self, fd: crate::api::Fd, data: &[u8]) -> InvResult<usize> {
        let mut inflight = 0usize;
        for chunk in data.chunks(BULK_WINDOW) {
            self.send(&Request::Write(fd, chunk.to_vec()))?;
            inflight += 1;
        }
        let mut total = 0usize;
        self.recv_all(inflight, &mut Vec::new(), |resp| {
            total += usize::from_response(resp)?;
            Ok(())
        })?;
        Ok(total)
    }

    /// Receives `n` pipelined responses, appending `Data` replies' bytes to
    /// `out` and handing each response to `take`. All `n` are read, so the
    /// stream is back in sync, before the first error (if any) is returned.
    fn recv_all(
        &mut self,
        n: usize,
        out: &mut Vec<u8>,
        mut take: impl FnMut(Response) -> InvResult<()>,
    ) -> InvResult<()> {
        let mut first_err = None;
        for _ in 0..n {
            if let Err(e) = self.recv_into(out).and_then(&mut take) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
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
        crate::api::tests::assert_no_file_relations(&fs);
        pool.shutdown();
    }
}
