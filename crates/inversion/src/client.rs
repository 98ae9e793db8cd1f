//! The client side of client/server Inversion over the paper's network.
//!
//! "The current implementation requires programmers to link a special
//! library in order to access Inversion file data. ... Client/server
//! communication was via TCP/IP over a 10 Mbit/sec Ethernet" — and the
//! evaluation concludes that "the client/server communication protocol used
//! by the file system is much too heavy-weight".
//!
//! The library is [`crate::WireClient`]: it encodes every call as a
//! [`crate::wire`] frame. [`SimLink`] is the transport that puts the paper's
//! network under it. Each frame pays the TCP/IP per-message and per-byte
//! charges of the simulated Ethernet for its real length, and the buffer
//! copies on both hosts are charged to the CPU model ("profiling reveals
//! that extra work is done in allocating and copying buffers in
//! Inversion"). The server runs each request on the same simulated clock,
//! charging real device time.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use simdev::net::EndpointStats;
use simdev::{CpuModel, Endpoint};

use crate::fs::InversionFs;
use crate::server::InvServer;
use crate::wire::{self, WireError};

/// Protocol segment size for bulk data in the paper's protocol (one data
/// page per message).
pub const SEGMENT: usize = 8192;

/// A simulated network link with an Inversion server session at its far
/// end.
///
/// Bytes written are request frames. `flush` serves each complete frame on
/// the calling thread, through the [`InvServer::serve_frame`] step that a
/// pool session runs, and queues the response frame for `read`. Each frame
/// charges the simulated clock one library call on the client host, one RPC
/// of the request and response frames' lengths on the [`Endpoint`], and a
/// copy of both frames on either host. Nothing runs on another thread, so
/// virtual time is deterministic.
pub struct SimLink {
    server: InvServer,
    ep: Endpoint,
    cpu: CpuModel,
    /// Request bytes not yet served: after a flush, at most part of a frame.
    sent: Vec<u8>,
    /// Response bytes not yet read.
    replies: VecDeque<u8>,
    /// The framing broke and the server hung up.
    closed: bool,
}

impl SimLink {
    /// Connects to a new server session on `fs`: `ep` models the transport
    /// (TCP for the paper's configuration), `cpu` the hosts.
    pub fn connect(fs: &InversionFs, ep: Endpoint, cpu: CpuModel) -> SimLink {
        SimLink {
            server: InvServer::new(fs),
            ep,
            cpu,
            sent: Vec::new(),
            replies: VecDeque::new(),
            closed: false,
        }
    }

    /// Network endpoint statistics.
    pub fn net_stats(&self) -> EndpointStats {
        self.ep.stats()
    }
}

impl Write for SimLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut served = 0;
        while served < self.sent.len() && !self.closed {
            let mut rest = &self.sent[served..];
            let read = wire::read_frame(&mut rest);
            if matches!(read, Err(WireError::Truncated)) {
                break; // The rest of the frame is still to be written.
            }
            let request_len = self.sent.len() - served - rest.len();
            served += request_len;
            self.cpu.charge_call();
            match self.server.serve_frame(read).0 {
                Some(response) => {
                    self.ep.rpc(request_len, response.len());
                    // The sender copies a frame into the message, the
                    // receiver copies it out.
                    self.cpu.charge_copy(2 * (request_len + response.len()));
                    self.replies.extend(response);
                }
                None => {
                    self.server.disconnect();
                    self.closed = true;
                }
            }
        }
        self.sent.drain(..served);
        if self.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        Ok(())
    }
}

impl Read for SimLink {
    /// Reads queued response bytes; with none queued, reads end of stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.replies.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SeekWhence;
    use crate::fs::CreateMode;
    use crate::server::{Request, Response};
    use crate::WireClient;
    use simdev::{NetProfile, Network, SimClock};

    fn link(fs: &InversionFs) -> SimLink {
        let clock = fs.db().clock().clone();
        let net = Network::ethernet_10mbit(clock.clone());
        let ep = Endpoint::new(net, NetProfile::tcp_1993());
        SimLink::connect(fs, ep, CpuModel::decsystem5900(clock))
    }

    fn remote_fs() -> (SimClock, InversionFs, WireClient<SimLink>) {
        let fs = InversionFs::open_in_memory().unwrap();
        let rc = WireClient::new(link(&fs));
        (fs.db().clock().clone(), fs, rc)
    }

    #[test]
    fn remote_roundtrip() {
        let (_clock, _fs, mut rc) = remote_fs();
        rc.begin().unwrap();
        let fd = rc.creat("/remote.dat", CreateMode::default()).unwrap();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 101) as u8).collect();
        assert_eq!(rc.write_bulk(fd, &data).unwrap(), data.len());
        rc.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
        assert_eq!(rc.read_bulk(fd, data.len()).unwrap(), data);
        rc.close(fd).unwrap();
        rc.commit().unwrap();
        assert_eq!(rc.stat("/remote.dat").unwrap().size as usize, data.len());
    }

    #[test]
    fn network_time_is_charged() {
        let (clock, _fs, mut rc) = remote_fs();
        rc.begin().unwrap();
        let fd = rc.creat("/t", CreateMode::default()).unwrap();
        let t0 = clock.now();
        let megabyte = vec![7u8; 1 << 20];
        // The paper's protocol: one message per 8 KB segment.
        for segment in megabyte.chunks(SEGMENT) {
            rc.call(&Request::Write(fd, segment.to_vec())).unwrap();
        }
        let took = clock.now().since(t0).as_secs_f64();
        // 1 MB over 10 Mbit/s TCP with copies: well over the raw 0.84 s
        // wire time, well under a minute.
        assert!(took > 0.9, "took {took}s");
        assert!(took < 60.0, "took {took}s");
        rc.close(fd).unwrap();
        rc.commit().unwrap();
        assert!(rc.stream().net_stats().rpcs >= 128);
        assert!(rc.stream().net_stats().bytes_out > 1 << 20);
    }

    #[test]
    fn remote_and_local_clients_share_files() {
        let (_clock, fs, mut rc) = remote_fs();
        rc.begin().unwrap();
        let fd = rc.creat("/shared", CreateMode::default()).unwrap();
        rc.write_bulk(fd, b"from the network").unwrap();
        rc.close(fd).unwrap();
        rc.commit().unwrap();

        let mut local = fs.client();
        assert_eq!(
            local.read_to_vec("/shared", None).unwrap(),
            b"from the network"
        );
    }

    #[test]
    fn remote_errors_propagate() {
        let (_clock, _fs, mut rc) = remote_fs();
        assert!(rc.stat("/missing").is_err());
        assert!(rc.close(99).is_err());
        // The link is still in step after the errors.
        assert!(rc.readdir("/").unwrap().is_empty());
    }

    #[test]
    fn remote_dir_ops() {
        let (_clock, _fs, mut rc) = remote_fs();
        rc.mkdir("/d").unwrap();
        rc.begin().unwrap();
        let fd = rc.creat("/d/f", CreateMode::default()).unwrap();
        rc.close(fd).unwrap();
        rc.commit().unwrap();
        let names: Vec<String> = rc
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["f"]);
        rc.unlink("/d/f").unwrap();
        assert!(rc.readdir("/d").unwrap().is_empty());
    }

    #[test]
    fn the_network_charges_the_frames_it_carries() {
        let (_clock, fs, mut rc) = remote_fs();
        rc.mkdir("/n").unwrap();
        rc.begin().unwrap();
        let fd = rc.creat("/n/f", CreateMode::default()).unwrap();
        let page = vec![0x5Au8; SEGMENT];
        for _ in 0..3 {
            rc.call(&Request::Write(fd, page.clone())).unwrap();
        }
        rc.call(&Request::Write(fd, b"tail".to_vec())).unwrap();
        rc.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();
        let mut read = 0;
        loop {
            let Response::Data(d) = rc.call(&Request::Read(fd, SEGMENT)).unwrap() else {
                panic!("a read answers with data");
            };
            read += d.len();
            if d.len() < SEGMENT {
                break;
            }
        }
        assert_eq!(read, 3 * SEGMENT + 4);
        rc.close(fd).unwrap();
        rc.commit().unwrap();
        rc.stat("/n/f").unwrap();
        assert!(rc.stat("/n/missing").is_err());

        let net = rc.stream().net_stats();
        let wire = rc.stats();
        assert_eq!(net.bytes_out, wire.bytes_out.get());
        assert_eq!(net.bytes_in, wire.bytes_in.get());
        assert_eq!(net.rpcs, wire.frames_out.get());
        assert_eq!(net.rpcs, wire.frames_in.get());
        // The server counted the same frames and bytes, one RPC each.
        let inv = fs.stats();
        assert_eq!(inv.rpcs.get(), net.rpcs);
        assert_eq!(inv.net_bytes_in.get(), net.bytes_out);
        assert_eq!(inv.net_bytes_out.get(), net.bytes_in);
    }

    #[test]
    fn a_frame_is_served_once_it_is_whole() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut link = link(&fs);
        let frame = wire::encode_request(&Request::Stat("/".into()));
        let (head, tail) = frame.split_at(wire::HEADER_LEN + 2);
        link.write_all(head).unwrap();
        link.flush().unwrap();
        assert_eq!(fs.stats().rpcs.get(), 0);
        assert_eq!(
            link.read(&mut [0u8; 4]).unwrap(),
            0,
            "nothing to answer yet"
        );
        link.write_all(tail).unwrap();
        link.flush().unwrap();
        assert_eq!(fs.stats().rpcs.get(), 1);
        assert_eq!(link.net_stats().bytes_out, frame.len() as u64);
        let wire::FrameEvent::Frame { opcode, payload } = wire::read_frame(&mut link).unwrap()
        else {
            panic!("a whole response frame");
        };
        let Ok(Ok(Response::Stat(st))) = wire::decode_response_frame(opcode, &payload) else {
            panic!("stat answers with attributes");
        };
        assert_eq!(st.kind, crate::fs::FileKind::Directory);
    }

    #[test]
    fn broken_framing_hangs_up() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut link = link(&fs);
        for req in [
            Request::Begin,
            Request::Creat("/doomed".into(), CreateMode::default()),
        ] {
            wire::write_frame(&mut link, &wire::encode_request(&req)).unwrap();
        }
        link.write_all(&[0xEE; wire::HEADER_LEN]).unwrap();
        assert!(link.flush().is_err(), "bad magic ends the session");
        assert!(link.write_all(b"x").is_err());
        assert_eq!(fs.stats().net_decode_errors.get(), 1);
        assert_eq!(fs.db().held_lock_count(), 0, "the transaction was aborted");
        // The two responses sent before the damage still arrive, then EOF.
        for _ in 0..2 {
            assert!(matches!(
                wire::read_frame(&mut link),
                Ok(wire::FrameEvent::Frame { .. })
            ));
        }
        assert!(matches!(
            wire::read_frame(&mut link),
            Ok(wire::FrameEvent::Eof)
        ));
        assert!(fs.client().p_stat("/doomed", None).is_err());
    }
}
