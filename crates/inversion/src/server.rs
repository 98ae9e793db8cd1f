//! The server side of client/server Inversion.
//!
//! "Strictly speaking, the Inversion file system is a small set of routines
//! that are compiled into the POSTGRES data manager. Requests for file
//! system data call these routines." [`InvServer`] is that data-manager-side
//! dispatcher: it owns a server-side [`crate::InvClient`] per connection and
//! executes decoded requests against it. The wire protocol lives in
//! [`crate::wire`]; [`InvServer::serve_frame`] is the one server step that
//! every transport runs, the pool's session threads ([`crate::pool`]) and
//! the simulated network link ([`crate::client::SimLink`]) alike. It answers
//! an error in place of a response too large for one frame, which the
//! client would have to refuse.
//!
//! [`Request`], [`InvServer::handle`] and the [`WireClient`] method of each
//! request are generated here, by `request_api!`, from the op table in
//! [`crate::wire`]: a row names the variant, its fields, the method and its
//! result type, and the [`crate::InvClient`] call `handle` makes. A result
//! type travels in a [`Response`] through its `Reply` impl.

use std::io::{Read, Write};

use minidb::Oid;
use simdev::SimInstant;

use crate::api::{Fd, InvClient, OpenMode, SeekWhence};
use crate::fs::{CreateMode, FileStat, InvError, InvResult, InversionFs, SliceRange};
use crate::pool::WireClient;
use crate::wire::{self, FrameEvent, WireError};

/// A server response.
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

/// The data-manager-side request executor for one connection.
pub struct InvServer {
    client: InvClient,
    /// The response frame, kept from turn to turn: each is assembled over
    /// the last, and a read's bytes land in it in place.
    reply: wire::FrameBuf,
}

impl InvServer {
    /// Creates a server session on `fs`.
    pub fn new(fs: &InversionFs) -> InvServer {
        InvServer {
            client: fs.client(),
            reply: wire::FrameBuf::default(),
        }
    }

    /// Tears the session down after its connection dropped: aborts any
    /// in-flight transaction (releasing locks), discards buffered writes and
    /// reclaims every fd. Returns `true` when a transaction was aborted.
    pub fn disconnect(&mut self) -> bool {
        self.client.disconnect()
    }

    /// One turn of a connection: runs the frame [`wire::read_frame`] read
    /// and encodes the response frame, counting both in `inv_stat`'s `net_*`
    /// rows. Returns the response, `None` once the session is over (the
    /// client hung up, or the framing broke), and whether the frame was
    /// damaged. A damaged frame that left the stream in sync (checksum
    /// mismatch, unknown opcode, bad payload) is answered with an error.
    /// The response lives in the session's reply buffer until the next
    /// turn.
    pub fn serve_frame(&mut self, read: Result<FrameEvent, WireError>) -> (Option<&[u8]>, bool) {
        let req = match read {
            Ok(FrameEvent::Eof) => return (None, false),
            Ok(FrameEvent::Frame { opcode, payload }) => {
                let stats = self.client.fs().stats();
                stats.net_frames_in.bump();
                stats
                    .net_bytes_in
                    .add((wire::HEADER_LEN + payload.len()) as u64);
                wire::decode_request_frame(opcode, &payload)
            }
            Ok(FrameEvent::Corrupt(e)) => Err(e),
            Err(e) => {
                // Framing is untrustworthy: count protocol damage (anything
                // but a plain transport failure) and end the session.
                let damaged = !matches!(e, WireError::Io(_));
                if damaged {
                    self.client.fs().stats().net_decode_errors.bump();
                }
                return (None, damaged);
            }
        };
        let damaged = req.is_err();
        if damaged {
            self.client.fs().stats().net_decode_errors.bump();
        }
        match req {
            Ok(req) => self.answer(req),
            Err(e) => wire::encode_response_into(&mut self.reply, &Err(e.into())),
        }
        if let Err(e) = wire::check_size(self.reply.frame()) {
            wire::encode_response_into(&mut self.reply, &Err(e));
        }
        let stats = self.client.fs().stats();
        stats.net_frames_out.bump();
        stats.net_bytes_out.add(self.reply.frame().len() as u64);
        (Some(self.reply.frame()), damaged)
    }

    /// Runs one request and encodes its response frame into the reply
    /// buffer. A read's bytes land in the frame itself
    /// ([`wire::encode_data_reply`]): the frame is the one
    /// [`InvServer::handle`]'s response encodes to, without the response in
    /// between.
    fn answer(&mut self, req: Request) {
        let Request::Read(fd, len) = req else {
            let res = self.handle(req);
            return wire::encode_response_into(&mut self.reply, &res);
        };
        self.client.fs().stats().rpcs.bump();
        let client = &mut self.client;
        wire::encode_data_reply(&mut self.reply, len, |buf| client.p_read(fd, buf));
    }
}

/// A request's result: how the server answers with it, and how
/// [`WireClient`] takes it back out of the answer.
pub(crate) trait Reply: Sized {
    fn into_response(self) -> Response;
    fn from_response(r: Response) -> InvResult<Self>;
}

/// Implements [`Reply`] for each `Type: value => response, pattern => value;`.
macro_rules! replies {
    ($($ty:ty: $v:ident => $response:expr, $pat:pat => $back:expr;)*) => {$(
        impl Reply for $ty {
            fn into_response(self) -> Response {
                let $v = self;
                $response
            }
            fn from_response(r: Response) -> InvResult<$ty> {
                match r {
                    $pat => Ok($back),
                    other => Err(InvError::Invalid(format!("wire: unexpected response {other:?}"))),
                }
            }
        }
    )*};
}

replies! {
    (): _unit => Response::Ok, Response::Ok => ();
    Fd: fd => Response::Fd(fd), Response::Fd(fd) => fd;
    u64: n => Response::Count(n), Response::Count(n) => n;
    usize: n => Response::Count(n as u64), Response::Count(n) => n as usize;
    Vec<u8>: data => Response::Data(data), Response::Data(data) => data;
    FileStat: s => Response::Stat(Box::new(s)), Response::Stat(s) => *s;
    Vec<(String, Oid)>: es => Response::Entries(es), Response::Entries(es) => es;
}

/// A client method's parameter type for a field: the field's own type, or
/// the `Arg` of `Type as Arg`.
macro_rules! arg_type {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty as $arg:ty) => {
        $arg
    };
}

/// Generates [`Request`], [`InvServer::handle`] and one [`WireClient`]
/// method per request from the op table (see [`crate::wire`]).
macro_rules! request_api {
    ($(
        $(#[$doc:meta])*
        $op:ident = $code:literal: $variant:ident $(($($field:ident: $ty:ty $(as $arg:ty)?),*))?
            => fn $method:ident -> $reply:ty, |$c:ident| $call:expr;
    )*) => {
        /// A request as carried by the client/server protocol.
        #[derive(Debug, Clone)]
        pub enum Request {
            $($(#[$doc])* $variant $(($($ty),*))?,)*
        }

        impl InvServer {
            /// Executes one request, counting it in `inv_stat`'s `rpcs`.
            pub fn handle(&mut self, req: Request) -> InvResult<Response> {
                self.client.fs().stats().rpcs.bump();
                match req {
                    $(Request::$variant $(($($field),*))? => {
                        let $c = &mut self.client;
                        $call.map(<$reply>::into_response)
                    })*
                }
            }
        }

        impl<S: Read + Write> WireClient<S> {
            $(
                $(#[$doc])*
                pub fn $method(
                    &mut self $($(, $field: arg_type!($ty $(as $arg)?))*)?
                ) -> InvResult<$reply> {
                    <$reply>::from_response(self.call(&Request::$variant $(($($field.into()),*))?)?)
                }
            )*
        }
    };
}

wire::op_table!(request_api);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::InvError;
    use minidb::DbError;

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
        use crate::wire::{request_wire_size as req_size, response_wire_size as resp_size};
        let small = req_size(&Request::Write(3, vec![0; 10]));
        let big = req_size(&Request::Write(3, vec![0; 8192]));
        assert!(big > small + 8000);
        let ok = resp_size(Ok(&Response::Ok));
        assert!(resp_size(Ok(&Response::Data(vec![0; 100]))) > ok);
        assert!(req_size(&Request::Stat("/a/long/path".into())) > req_size(&Request::Begin));
        assert!(resp_size(Ok(&Response::Entries(vec![("file".into(), Oid(1))]))) > ok);
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
                crate::wire::request_wire_size(&req),
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
                crate::wire::response_wire_size(Ok(&resp)),
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
        let Response::Fd(fd) = srv.handle(Request::Creat("/gone".into(), CreateMode::default())).unwrap() else {
            panic!("creat answers a descriptor");
        };
        assert!(fs.db().held_lock_count() > 0);
        assert!(srv.disconnect());
        assert_eq!(fs.db().held_lock_count(), 0, "the abort released every lock");
        assert!(matches!(srv.handle(Request::Close(fd)), Err(InvError::BadFd(f)) if f == fd));
        assert!(matches!(srv.handle(Request::Commit), Err(InvError::Db(DbError::NoTransaction))));
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
