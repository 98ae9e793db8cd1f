//! The server side of client/server Inversion.
//!
//! "Strictly speaking, the Inversion file system is a small set of routines
//! that are compiled into the POSTGRES data manager. Requests for file
//! system data call these routines." [`InvServer`] is that data-manager-side
//! dispatcher: it owns a server-side [`crate::InvClient`] per connection and
//! executes decoded requests against it. The wire protocol lives in
//! [`crate::client`].

use minidb::Oid;
use simdev::SimInstant;

use crate::api::{Fd, InvClient, OpenMode, SeekWhence};
use crate::fs::{CreateMode, FileStat, InvResult, InversionFs, SliceRange};

/// A request as carried by the client/server protocol. Sizes on the wire
/// are computed by [`Request::wire_size`].
#[derive(Debug, Clone)]
pub enum Request {
    /// `p_begin`
    Begin,
    /// `p_commit`
    Commit,
    /// `p_abort`
    Abort,
    /// `p_creat(path, mode)`
    Creat(String, CreateMode),
    /// `p_open(path, mode, timestamp)`
    Open(String, OpenMode, Option<SimInstant>),
    /// `p_close(fd)`
    Close(Fd),
    /// `p_read(fd, len)`
    Read(Fd, usize),
    /// `p_write(fd, data)`
    Write(Fd, Vec<u8>),
    /// `p_lseek(fd, offset, whence)`
    Lseek(Fd, i64, SeekWhence),
    /// `p_stat(path)`
    Stat(String),
    /// `p_mkdir(path)`
    Mkdir(String),
    /// `p_unlink(path)`
    Unlink(String),
    /// `p_readdir(path)`
    Readdir(String),
    /// `p_rename(from, to)`
    Rename(String, String),
    /// `p_undelete(path, t)`
    Undelete(String, SimInstant),
    /// `p_slice(dest, mode, ranges)`
    Slice(String, CreateMode, Vec<SliceRange>),
}

impl Request {
    /// Exact encoded size in bytes (header + payload), counted by the real
    /// [`crate::wire`] encoder so the simulated network and the framing can
    /// never disagree.
    pub fn wire_size(&self) -> usize {
        crate::wire::request_wire_size(self)
    }
}

/// A server response; sized by [`Response::wire_size`].
#[derive(Debug, Clone)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// A new file descriptor.
    Fd(Fd),
    /// Read data.
    Data(Vec<u8>),
    /// A byte count (writes) or offset (seeks).
    Count(u64),
    /// File attributes.
    Stat(Box<FileStat>),
    /// Directory listing.
    Entries(Vec<(String, Oid)>),
}

impl Response {
    /// Exact encoded size in bytes, counted by the real [`crate::wire`]
    /// encoder.
    pub fn wire_size(&self) -> usize {
        crate::wire::response_wire_size(Ok(self))
    }
}

/// The data-manager-side request executor for one connection.
pub struct InvServer {
    client: InvClient,
}

impl InvServer {
    /// Creates a server session on `fs`.
    pub fn new(fs: &InversionFs) -> InvServer {
        InvServer {
            client: fs.client(),
        }
    }

    /// Direct access to the server-side client (the in-process benchmark
    /// path uses this; "the same files can be used simultaneously by
    /// dynamically-loaded code and by the more conventional client/server
    /// architecture").
    pub fn local(&mut self) -> &mut InvClient {
        &mut self.client
    }

    /// Whether this session has an explicit transaction open.
    pub fn in_transaction(&self) -> bool {
        self.client.in_transaction()
    }

    /// How many descriptors this session holds open.
    pub fn open_fd_count(&self) -> usize {
        self.client.open_fd_count()
    }

    /// Tears the session down after its connection dropped: aborts any
    /// in-flight transaction (releasing locks), discards buffered writes and
    /// reclaims every fd. Returns `true` when a transaction was aborted.
    pub fn disconnect(&mut self) -> bool {
        self.client.disconnect()
    }

    /// Executes one request, charging the RPC and its wire bytes to the
    /// file system's [`crate::InvStats`].
    pub fn handle(&mut self, req: Request) -> InvResult<Response> {
        {
            let stats = self.client.fs().stats();
            stats.rpcs.bump();
            stats.rpc_bytes_in.add(req.wire_size() as u64);
        }
        let resp = match req {
            Request::Begin => self.client.p_begin().map(|_| Response::Ok),
            Request::Commit => self.client.p_commit().map(|_| Response::Ok),
            Request::Abort => self.client.p_abort().map(|_| Response::Ok),
            Request::Creat(path, mode) => self.client.p_creat(&path, mode).map(Response::Fd),
            Request::Open(path, mode, ts) => self.client.p_open(&path, mode, ts).map(Response::Fd),
            Request::Close(fd) => self.client.p_close(fd).map(|_| Response::Ok),
            Request::Read(fd, len) => {
                let mut buf = vec![0u8; len];
                let n = self.client.p_read(fd, &mut buf)?;
                buf.truncate(n);
                Ok(Response::Data(buf))
            }
            Request::Write(fd, data) => self
                .client
                .p_write(fd, &data)
                .map(|n| Response::Count(n as u64)),
            Request::Lseek(fd, off, whence) => {
                self.client.p_lseek(fd, off, whence).map(Response::Count)
            }
            Request::Stat(path) => self
                .client
                .p_stat(&path, None)
                .map(|s| Response::Stat(Box::new(s))),
            Request::Mkdir(path) => self.client.p_mkdir(&path).map(|_| Response::Ok),
            Request::Unlink(path) => self.client.p_unlink(&path).map(|_| Response::Ok),
            Request::Readdir(path) => self.client.p_readdir(&path, None).map(Response::Entries),
            Request::Rename(from, to) => self.client.p_rename(&from, &to).map(|_| Response::Ok),
            Request::Undelete(path, t) => {
                self.client.p_undelete(&path, t).map(|_| Response::Ok)
            }
            Request::Slice(dest, mode, ranges) => self
                .client
                .p_slice(&dest, mode, &ranges)
                .map(|s| Response::Stat(Box::new(s))),
        }?;
        self.client
            .fs()
            .stats()
            .rpc_bytes_out
            .add(resp.wire_size() as u64);
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_executes_requests() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut srv = InvServer::new(&fs);
        srv.handle(Request::Begin).unwrap();
        let Response::Fd(fd) = srv
            .handle(Request::Creat("/f".into(), CreateMode::default()))
            .unwrap()
        else {
            panic!()
        };
        let Response::Count(n) = srv.handle(Request::Write(fd, b"abc".to_vec())).unwrap() else {
            panic!()
        };
        assert_eq!(n, 3);
        srv.handle(Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
        let Response::Data(d) = srv.handle(Request::Read(fd, 10)).unwrap() else {
            panic!()
        };
        assert_eq!(d, b"abc");
        srv.handle(Request::Close(fd)).unwrap();
        srv.handle(Request::Commit).unwrap();
        let Response::Stat(st) = srv.handle(Request::Stat("/f".into())).unwrap() else {
            panic!()
        };
        assert_eq!(st.size, 3);
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Request::Write(3, vec![0; 10]).wire_size();
        let big = Request::Write(3, vec![0; 8192]).wire_size();
        assert!(big > small + 8000);
        assert!(Response::Data(vec![0; 100]).wire_size() > Response::Ok.wire_size());
        assert!(Request::Stat("/a/long/path".into()).wire_size() > Request::Begin.wire_size());
        let entries = Response::Entries(vec![("file".into(), Oid(1))]).wire_size();
        assert!(entries > Response::Ok.wire_size());
    }

    #[test]
    fn wire_size_equals_real_encoding_for_every_variant() {
        let requests = vec![
            Request::Begin,
            Request::Commit,
            Request::Abort,
            Request::Creat("/a/b".into(), CreateMode::default()),
            Request::Open("/a/b".into(), OpenMode::ReadWrite, None),
            Request::Open("/a".into(), OpenMode::Read, Some(SimInstant::from_nanos(7))),
            Request::Close(3),
            Request::Read(3, 8192),
            Request::Write(3, vec![9u8; 777]),
            Request::Lseek(3, -1, SeekWhence::Cur),
            Request::Stat("/s".into()),
            Request::Mkdir("/d".into()),
            Request::Unlink("/u".into()),
            Request::Readdir("/".into()),
            Request::Rename("/old".into(), "/new".into()),
            Request::Undelete("/lost".into(), SimInstant::from_nanos(99)),
            Request::Slice(
                "/c".into(),
                CreateMode::default(),
                vec![SliceRange::new("/a", 0, 8128), SliceRange::new("/b", 1, 2)],
            ),
        ];
        // Bulk payloads at the sizes the arithmetic could get wrong: empty,
        // one byte, the modelled 8 KB segment, a full `WireClient` window.
        let bulk = [0, 1, crate::client::SEGMENT, crate::pool::BULK_WINDOW];
        let requests = requests
            .into_iter()
            .chain(bulk.map(|n| Request::Write(3, vec![0xA5; n])));
        for req in requests {
            assert_eq!(
                req.wire_size(),
                crate::wire::encode_request(&req).len(),
                "{req:?}"
            );
        }
        let stat = {
            let fs = InversionFs::open_in_memory().unwrap();
            let mut c = fs.client();
            c.p_creat("/f", CreateMode::default()).unwrap();
            c.p_stat("/f", None).unwrap()
        };
        let responses = vec![
            Response::Ok,
            Response::Fd(5),
            Response::Data(vec![1u8; 300]),
            Response::Count(42),
            Response::Stat(Box::new(stat)),
            Response::Entries(vec![("x".into(), Oid(1)), ("yy".into(), Oid(2))]),
        ];
        let responses = responses
            .into_iter()
            .chain(bulk.map(|n| Response::Data(vec![0x5A; n])));
        for resp in responses {
            assert_eq!(
                resp.wire_size(),
                crate::wire::encode_response(&Ok(resp.clone())).len(),
                "{resp:?}"
            );
        }
        let errors = [
            crate::InvError::NoSuchPath("/gone".into()),
            crate::InvError::BadFd(12),
            crate::InvError::Db(minidb::DbError::Deadlock),
            crate::InvError::Db(minidb::DbError::NotFound("relation pg_shadow".into())),
        ];
        for err in errors {
            assert_eq!(
                crate::wire::response_wire_size(Err(&err)),
                crate::wire::encode_response(&Err(err.clone())).len(),
                "{err:?}"
            );
        }
    }

    #[test]
    fn disconnect_aborts_and_reclaims() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut srv = InvServer::new(&fs);
        srv.handle(Request::Begin).unwrap();
        srv.handle(Request::Creat("/gone".into(), CreateMode::default()))
            .unwrap();
        assert!(srv.in_transaction());
        assert_eq!(srv.open_fd_count(), 1);
        assert!(srv.disconnect());
        assert!(!srv.in_transaction());
        assert_eq!(srv.open_fd_count(), 0);
        assert!(srv.handle(Request::Stat("/gone".into())).is_err());
        assert!(!srv.disconnect());
    }

    #[test]
    fn errors_propagate() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut srv = InvServer::new(&fs);
        assert!(srv.handle(Request::Stat("/missing".into())).is_err());
        assert!(srv.handle(Request::Close(42)).is_err());
    }
}
