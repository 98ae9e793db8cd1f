//! Protocol fuzz battery for `inversion::wire`: round-trips arbitrary
//! requests and responses through the one real encoder/decoder, then feeds
//! the decoder a malformed corpus — truncations, oversized length prefixes,
//! unknown opcodes, corrupted checksums, random byte flips — and checks it
//! always returns an error instead of panicking. The final tests drive the
//! same corpus at a live `InvServerPool` session over a duplex stream and
//! assert the session survives recoverable corruption without leaking its
//! transaction, while unrecoverable framing damage tears the session down
//! through the same abort path as a disconnect.

use std::io::{self, Read, Write};

use inversion::server::{Request, Response};
use inversion::wire::{self, FrameEvent, WireError, HEADER_LEN, MAX_PAYLOAD};
use inversion::{
    CreateMode, FileKind, FileStat, InvError, InvServerPool, InversionFs, OpenMode, PoolConfig,
    SeekWhence, SliceRange, WireClient,
};
use minidb::{DbError, DeviceId, Oid, TypeId};
use proptest::prelude::*;
use simdev::{duplex_pair, SimInstant};

/// `WireClient`'s bulk window (a private constant of `inversion::pool`;
/// DESIGN.md §7): the bytes one `read_bulk`/`write_bulk` frame carries.
const WINDOW: usize = 256 << 10;

// ---------------------------------------------------------------------------
// Strategies.

fn create_mode() -> impl Strategy<Value = CreateMode> {
    (
        (any::<u8>(), ".{0,12}", any::<u32>()),
        (prop::bool::ANY, prop::bool::ANY, prop::bool::ANY),
    )
        .prop_map(|((dev, owner, ftype), (comp, selfid, nohist))| {
            let mut m = CreateMode::default()
                .on_device(DeviceId(dev))
                .owned_by(owner);
            if ftype != 0 {
                m = m.with_type(TypeId(ftype));
            }
            if comp {
                m = m.compressed();
            }
            if selfid {
                m = m.self_identifying();
            }
            if nohist {
                m = m.without_history();
            }
            m
        })
}

fn timestamp() -> impl Strategy<Value = Option<SimInstant>> {
    prop_oneof![
        Just(None),
        any::<u64>().prop_map(|n| Some(SimInstant::from_nanos(n))),
    ]
}

fn whence() -> impl Strategy<Value = SeekWhence> {
    prop_oneof![
        Just(SeekWhence::Set),
        Just(SeekWhence::Cur),
        Just(SeekWhence::End),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Begin),
        Just(Request::Commit),
        Just(Request::Abort),
        (".{0,24}", create_mode()).prop_map(|(p, m)| Request::Creat(p, m)),
        (".{0,24}", prop::bool::ANY, timestamp()).prop_map(|(p, rw, ts)| Request::Open(
            p,
            if rw { OpenMode::ReadWrite } else { OpenMode::Read },
            ts
        )),
        any::<i32>().prop_map(Request::Close),
        (any::<i32>(), 0usize..100_000).prop_map(|(fd, n)| Request::Read(fd, n)),
        (any::<i32>(), prop::collection::vec(any::<u8>(), 0..4000))
            .prop_map(|(fd, d)| Request::Write(fd, d)),
        (any::<i32>(), any::<i64>(), whence()).prop_map(|(fd, off, w)| Request::Lseek(fd, off, w)),
        ".{0,24}".prop_map(Request::Stat),
        ".{0,24}".prop_map(Request::Mkdir),
        ".{0,24}".prop_map(Request::Unlink),
        ".{0,24}".prop_map(Request::Readdir),
        (".{0,24}", ".{0,24}").prop_map(|(a, b)| Request::Rename(a, b)),
        (".{0,24}", any::<u64>())
            .prop_map(|(p, t)| Request::Undelete(p, SimInstant::from_nanos(t))),
        (".{0,24}", create_mode(), slice_ranges())
            .prop_map(|(d, m, rs)| Request::Slice(d, m, rs)),
    ]
}

fn slice_ranges() -> impl Strategy<Value = Vec<SliceRange>> {
    prop::collection::vec(
        (".{0,16}", any::<u64>(), any::<u64>()).prop_map(|(p, off, len)| SliceRange {
            path: p,
            offset: off,
            len,
        }),
        0..5,
    )
}

fn file_stat() -> impl Strategy<Value = FileStat> {
    (
        (any::<u32>(), prop::bool::ANY, ".{0,12}", any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u32>(), any::<u32>(), any::<u8>()),
        (prop::bool::ANY, prop::bool::ANY),
    )
        .prop_map(
            |(
                (oid, dir, owner, ftype),
                (size, ctime, mtime, atime),
                (datarel, chunkidx, device),
                (comp, selfid),
            )| FileStat {
                oid: Oid(oid),
                kind: if dir { FileKind::Directory } else { FileKind::Regular },
                owner,
                ftype: if ftype == 0 { None } else { Some(TypeId(ftype)) },
                size,
                ctime: SimInstant::from_nanos(ctime),
                mtime: SimInstant::from_nanos(mtime),
                atime: SimInstant::from_nanos(atime),
                compressed: comp,
                self_identifying: selfid,
                datarel: Oid(datarel),
                chunkidx: Oid(chunkidx),
                device: DeviceId(device),
            },
        )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        any::<i32>().prop_map(Response::Fd),
        prop::collection::vec(any::<u8>(), 0..4000).prop_map(Response::Data),
        any::<u64>().prop_map(Response::Count),
        file_stat().prop_map(|s| Response::Stat(Box::new(s))),
        prop::collection::vec((".{0,12}", any::<u32>()), 0..8).prop_map(|es| Response::Entries(
            es.into_iter().map(|(n, o)| (n, Oid(o))).collect()
        )),
    ]
}

/// Errors whose wire representation is exact (the `DbError` catch-all arm
/// normalizes other engine variants to their display text; see
/// `db_error_catch_all_normalizes_to_text`).
fn exact_error() -> impl Strategy<Value = InvError> {
    prop_oneof![
        ".{0,24}".prop_map(InvError::NoSuchPath),
        ".{0,24}".prop_map(InvError::NotADirectory),
        ".{0,24}".prop_map(InvError::IsADirectory),
        ".{0,24}".prop_map(InvError::Exists),
        ".{0,24}".prop_map(InvError::NotEmpty),
        any::<i32>().prop_map(InvError::BadFd),
        any::<i32>().prop_map(InvError::ReadOnlyFd),
        ".{0,24}".prop_map(InvError::BadPath),
        ".{0,24}".prop_map(InvError::Invalid),
        Just(InvError::Db(DbError::Deadlock)),
        Just(InvError::Db(DbError::LockTimeout)),
        Just(InvError::Db(DbError::NoTransaction)),
        Just(InvError::Db(DbError::TransactionActive)),
        Just(InvError::Db(DbError::ReadOnly)),
        ".{0,24}".prop_map(|m| InvError::Db(DbError::Corrupt(m))),
    ]
}

// ---------------------------------------------------------------------------
// Round-trip properties. `Request`/`Response` do not implement `PartialEq`
// (they carry engine types that have no business being comparable), so
// equality is checked on the debug rendering and on re-encoded bytes — the
// encoder is deterministic, so byte equality is the stronger statement.

proptest! {
    #[test]
    fn request_roundtrip_is_exact(req in request_strategy()) {
        let bytes = wire::encode_request(&req);
        prop_assert_eq!(wire::request_wire_size(&req), bytes.len(), "the size must be the encoder's");
        let decoded = match wire::decode_request(&bytes) {
            Ok(d) => d,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("decode failed on {req:?}: {e}"),
            )),
        };
        prop_assert_eq!(format!("{req:?}"), format!("{decoded:?}"));
        prop_assert_eq!(&bytes, &wire::encode_request(&decoded));
    }

    #[test]
    fn response_roundtrip_is_exact(resp in response_strategy()) {
        let bytes = wire::encode_response(&Ok(resp.clone()));
        prop_assert_eq!(wire::response_wire_size(Ok(&resp)), bytes.len());
        let decoded = match wire::decode_response(&bytes) {
            Ok(Ok(d)) => d,
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("decode failed on {resp:?}: {other:?}"),
            )),
        };
        prop_assert_eq!(format!("{resp:?}"), format!("{decoded:?}"));
        prop_assert_eq!(&bytes, &wire::encode_response(&Ok(decoded)));
    }

    #[test]
    fn error_roundtrip_is_exact(err in exact_error()) {
        let bytes = wire::encode_response(&Err(err.clone()));
        let decoded = match wire::decode_response(&bytes) {
            Ok(Err(d)) => d,
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("decode failed on {err:?}: {other:?}"),
            )),
        };
        prop_assert_eq!(format!("{err:?}"), format!("{decoded:?}"));
    }

    // ------------------------------------------------------------------
    // Malformed corpus: the decoder must reject, never panic.

    #[test]
    fn truncation_always_errors(req in request_strategy(), skew in any::<u16>()) {
        let bytes = wire::encode_request(&req);
        // Every header boundary, plus a sampled interior cut.
        let mut cuts: Vec<usize> = (0..HEADER_LEN.min(bytes.len())).collect();
        cuts.push(HEADER_LEN + (skew as usize) % bytes.len().saturating_sub(HEADER_LEN).max(1));
        for cut in cuts {
            let cut = cut.min(bytes.len().saturating_sub(1));
            let prefix = &bytes[..cut];
            prop_assert!(
                wire::decode_request(prefix).is_err(),
                "prefix of {} / {} bytes must not decode", cut, bytes.len()
            );
            let mut r = std::io::Cursor::new(prefix.to_vec());
            match wire::read_frame(&mut r) {
                Ok(FrameEvent::Eof) => prop_assert!(cut == 0, "mid-frame cut read as clean EOF"),
                Ok(other) => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("truncated stream produced {other:?}"),
                )),
                Err(_) => {}
            }
        }
    }

    #[test]
    fn corrupted_checksum_is_detected_and_recoverable(
        req in request_strategy(),
        flip in any::<u8>(),
    ) {
        let mut bytes = wire::encode_request(&req);
        if bytes.len() == HEADER_LEN {
            return Ok(()); // No payload byte to corrupt.
        }
        let idx = HEADER_LEN + (flip as usize) % (bytes.len() - HEADER_LEN);
        bytes[idx] ^= 0x40;
        prop_assert!(matches!(wire::decode_request(&bytes), Err(WireError::Checksum)));
        // Streaming: the corrupt frame is consumed, the next frame is fine.
        let mut stream = bytes.clone();
        stream.extend_from_slice(&wire::encode_request(&Request::Begin));
        let mut r = std::io::Cursor::new(stream);
        prop_assert!(matches!(
            wire::read_frame(&mut r),
            Ok(FrameEvent::Corrupt(WireError::Checksum))
        ));
        match wire::read_frame(&mut r) {
            Ok(FrameEvent::Frame { opcode, payload }) => {
                prop_assert!(wire::decode_request_frame(opcode, &payload).is_ok());
            }
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("stream out of sync after corrupt frame: {other:?}"),
            )),
        }
    }

    #[test]
    fn random_mutations_never_panic(
        req in request_strategy(),
        pos in any::<u16>(),
        mask in 1..256u16,
    ) {
        let mut bytes = wire::encode_request(&req);
        let idx = (pos as usize) % bytes.len();
        bytes[idx] ^= mask as u8;
        // Any Result is acceptable (a payload flip under a luckily-matching
        // checksum can legally decode); what is being tested is "no panic,
        // no hang, no over-read".
        let _ = wire::decode_request(&bytes);
        let mut r = std::io::Cursor::new(bytes);
        let _ = wire::read_frame(&mut r);
    }

    #[test]
    fn random_garbage_never_panics(junk in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = wire::decode_request(&junk);
        let _ = wire::decode_response(&junk);
        let mut r = std::io::Cursor::new(junk);
        // Drain the stream: every event must be an error, a corrupt-frame
        // notice, a (coincidentally) well-formed frame, or EOF.
        for _ in 0..4 {
            match wire::read_frame(&mut r) {
                Ok(FrameEvent::Eof) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}

proptest! {
    // 16 cases × 3 positions × 255 values over payloads up to 64 KB: enough
    // checksum passes for a debug build.
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Version 2's lane-wise checksum keeps what byte-serial FNV-1a
    // guaranteed: no single-byte substitution goes unnoticed. (A wrong
    // length is the length prefix's business, not the checksum's.)
    #[test]
    fn every_single_byte_substitution_changes_the_checksum(
        payload in prop::collection::vec(any::<u8>(), 1..65_537),
        pos in any::<u32>(),
    ) {
        let sum = wire::checksum(&payload);
        let mut p = payload;
        for idx in [0, pos as usize % p.len(), p.len() - 1] {
            let original = p[idx];
            for other in (0..=255u8).filter(|&b| b != original) {
                p[idx] = other;
                prop_assert!(
                    wire::checksum(&p) != sum,
                    "byte {} of {}: {:#04x} -> {:#04x} went unnoticed", idx, p.len(), original, other
                );
            }
            p[idx] = original;
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut bytes = wire::encode_request(&Request::Begin);
    // Rewrite the length field (offset 8) to something absurd, far past
    // MAX_PAYLOAD; a naive decoder would try to allocate it.
    bytes[8..12].copy_from_slice(&(u32::MAX - 7).to_le_bytes());
    assert!(matches!(
        wire::decode_request(&bytes),
        Err(WireError::Oversize(_))
    ));
    let mut r = std::io::Cursor::new(bytes);
    assert!(matches!(wire::read_frame(&mut r), Err(WireError::Oversize(_))));
    assert!(MAX_PAYLOAD < (u32::MAX - 7) as usize);
}

#[test]
fn unknown_opcode_and_bad_magic_are_distinct_failures() {
    let good = wire::frame(0x0EEE, b"mystery");
    assert!(matches!(
        wire::decode_request(&good),
        Err(WireError::BadOpcode(0x0EEE))
    ));
    let mut bad_magic = wire::encode_request(&Request::Begin);
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        wire::decode_request(&bad_magic),
        Err(WireError::BadMagic(_))
    ));
    // Version 1 (FNV-1a checksums) is as foreign as a version from the
    // future, and fatally so: a peer that old could not verify our frames.
    for version in [1u8, 99] {
        let mut bad_version = wire::encode_request(&Request::Begin);
        bad_version[4] = version;
        assert!(matches!(
            wire::decode_request(&bad_version),
            Err(WireError::BadVersion(v)) if v == version
        ));
        let mut r = std::io::Cursor::new(bad_version);
        assert!(matches!(
            wire::read_frame(&mut r),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }
}

/// The substitution guarantee at every alignment: every position of every
/// payload short enough to enumerate (empty tail block, full blocks, each
/// tail length), against every other byte value.
#[test]
fn short_payload_checksums_change_for_every_substitution_at_every_alignment() {
    for len in 1..=40usize {
        let mut p: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
        let sum = wire::checksum(&p);
        for idx in 0..len {
            let original = p[idx];
            for other in (0..=255u8).filter(|&b| b != original) {
                p[idx] = other;
                assert_ne!(
                    wire::checksum(&p),
                    sum,
                    "len {len}, byte {idx} -> {other:#04x}"
                );
            }
            p[idx] = original;
        }
    }
}

/// The `DbError` catch-all arm carries the display text across the wire;
/// one more round does not change it (normalization is idempotent).
#[test]
fn db_error_catch_all_normalizes_to_text() {
    let original = InvError::Db(DbError::NotFound("relation pg_shadow".into()));
    let once = wire::decode_response(&wire::encode_response(&Err(original)))
        .expect("frame intact")
        .expect_err("error response");
    match &once {
        InvError::Db(DbError::Invalid(text)) => assert!(text.contains("pg_shadow")),
        other => panic!("expected normalized Db text, got {other:?}"),
    }
    let twice = wire::decode_response(&wire::encode_response(&Err(once.clone())))
        .expect("frame intact")
        .expect_err("error response");
    assert_eq!(format!("{once:?}"), format!("{twice:?}"));
}

// ---------------------------------------------------------------------------
// The corpus against a live server session.

/// A checksum-corrupted frame is recoverable at the framing layer: the
/// session answers it with an error response, keeps its transaction, and
/// serves the next well-formed request normally.
#[test]
fn session_survives_recoverable_corruption_without_losing_its_transaction() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let raw = client_end.clone(); // Clones share the connection.
    let mut c = WireClient::new(client_end);

    c.begin().unwrap();
    let fd = c.creat("/survivor", CreateMode::default()).unwrap();
    c.call(&Request::Write(fd, b"still here".to_vec())).unwrap();

    // Three corrupted frames, each answered with a decode error.
    for i in 0..3u8 {
        let mut bad = wire::encode_request(&Request::Stat(format!("/survivor{i}")));
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        (&raw).write_all(&bad).unwrap();
        match c.recv() {
            Err(InvError::Invalid(msg)) => assert!(msg.contains("wire"), "unexpected: {msg}"),
            other => panic!("corrupt frame must answer with a wire error, got {other:?}"),
        }
    }

    // The session is intact: same transaction, same fd table.
    c.call(&Request::Write(fd, b", all of it".to_vec())).unwrap();
    c.close(fd).unwrap();
    c.commit().unwrap();
    assert_eq!(
        c.stat("/survivor").unwrap().size,
        "still here, all of it".len() as u64
    );
    assert!(fs.stats().net_decode_errors.get() >= 3);
    pool.shutdown();
    assert!(fs.db().check_all().is_empty(), "structural damage");
}

/// A transport that flips every bit of byte `at` of its outgoing stream.
struct FlipOnce<S> {
    inner: S,
    at: usize,
    written: usize,
}

impl<S: Read> Read for FlipOnce<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FlipOnce<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = if (self.written..self.written + buf.len()).contains(&self.at) {
            let mut damaged = buf.to_vec();
            damaged[self.at - self.written] ^= 0xFF;
            self.inner.write_all(&damaged)?;
            buf.len()
        } else {
            self.inner.write(buf)?
        };
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Checksum corruption in the middle of a windowed `write_bulk`: a payload
/// byte of the third of five window frames flips on its way out. The
/// corrupt window is answered with an error (never applied, never
/// acknowledged), the windows behind it still land, `write_bulk` surfaces
/// exactly that one error once every response is drained, and the stream
/// and the session's transaction are intact — so the client can abort
/// cleanly.
#[test]
fn mid_bulk_write_corruption_answers_error_without_partial_ack_or_hang() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    // The stream so far is `begin` and `creat`; the flip lands 1000 bytes
    // into the data of the third window frame behind them.
    let creat = Request::Creat("/bulk".into(), CreateMode::default());
    let window_frame = HEADER_LEN + 8 + WINDOW;
    let mut c = WireClient::new(FlipOnce {
        inner: client_end,
        at: wire::request_wire_size(&Request::Begin)
            + wire::request_wire_size(&creat)
            + 2 * window_frame
            + (HEADER_LEN + 8 + 1000),
        written: 0,
    });

    c.begin().unwrap();
    let Response::Fd(fd) = c.call(&creat).unwrap() else {
        panic!("creat answers with a descriptor");
    };

    let data = vec![7u8; 5 * WINDOW];
    let frames_before = c.stats().frames_in.get();
    match c.write_bulk(fd, &data) {
        Err(InvError::Invalid(msg)) => assert!(msg.contains("checksum"), "unexpected: {msg}"),
        other => panic!("a corrupt window must fail the bulk write, got {other:?}"),
    }
    assert_eq!(
        c.stats().frames_in.get() - frames_before,
        5,
        "every window is answered before the error surfaces"
    );
    assert_eq!(
        fs.stats().bytes_written.get(),
        4 * WINDOW as u64,
        "exactly the corrupt window must not be applied"
    );
    assert_eq!(fs.stats().net_decode_errors.get(), 1);

    // The session resynchronized: same transaction, same fd table. The
    // client saw the failed window, so it aborts — and nothing survives.
    c.close(fd).unwrap();
    c.abort().unwrap();
    assert!(c.stat("/bulk").is_err(), "aborted file is visible");
    pool.shutdown();
    assert!(fs.db().check_all().is_empty());
}

/// Fatal framing damage in the middle of a pipelined `read_bulk` stream:
/// already-queued segments are answered, then the session tears down and
/// — critically — closes its transport, so a client blocked awaiting the
/// rest of its pipelined responses sees EOF promptly instead of hanging.
#[test]
fn mid_bulk_fatal_damage_unblocks_pipelined_client_promptly() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let raw = client_end.clone();
    let mut c = WireClient::new(client_end);

    let payload: Vec<u8> = (0..3 * 8192u32).map(|i| (i % 251) as u8).collect();
    let fd = c.creat("/torn-read", CreateMode::default()).unwrap();
    assert_eq!(c.write_bulk(fd, &payload).unwrap(), payload.len());
    c.call(&Request::Lseek(fd, 0, SeekWhence::Set)).unwrap();

    // Pipeline three reads, then wreck the framing mid-stream.
    for _ in 0..3 {
        c.send(&Request::Read(fd, 8192)).unwrap();
    }
    (&raw).write_all(b"\0\0garbage, stream is dead\0\0").unwrap();

    // Drain on a helper thread so a regression (client hangs forever on
    // the transport) fails the deadline below instead of wedging the test.
    let drainer = std::thread::spawn(move || {
        let mut got = Vec::new();
        loop {
            match c.recv() {
                Ok(Response::Data(d)) => got.extend_from_slice(&d),
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(_) => return got, // EOF or error: the stream ended.
            }
        }
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !drainer.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "client hung awaiting pipelined responses after fatal framing damage"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let got = drainer.join().unwrap();
    // In-order service: whatever arrived before the teardown is a prefix.
    assert!(got.len() <= payload.len());
    assert_eq!(got[..], payload[..got.len()]);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fs.stats().sessions_closed.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "session never tore down"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(fs.stats().net_decode_errors.get() >= 1);
    pool.shutdown();
    assert!(fs.db().check_all().is_empty());
    assert_eq!(fs.db().held_lock_count(), 0);
}

/// Unrecoverable framing damage (bad magic: the stream can never re-sync)
/// tears the session down exactly like a disconnect: the in-flight
/// transaction aborts, nothing it wrote becomes visible, no lock survives.
#[test]
fn session_dies_cleanly_on_unrecoverable_framing_damage() {
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let raw = client_end.clone();
    let mut c = WireClient::new(client_end);

    c.begin().unwrap();
    c.creat("/never-lands", CreateMode::default()).unwrap();
    (&raw).write_all(b"NOPE: this is not an Inversion frame").unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while fs.stats().net_disconnect_aborts.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "framing damage never tore the session down"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(fs.stats().net_decode_errors.get() >= 1);
    let mut probe = fs.client();
    assert!(
        probe.p_stat("/never-lands", None).is_err(),
        "aborted transaction's rows are visible"
    );
    assert_eq!(fs.db().held_lock_count(), 0, "locks leaked");
    assert!(fs.db().check_all().is_empty());
    pool.shutdown();
}
