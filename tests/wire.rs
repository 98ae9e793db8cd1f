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
    CreateMode, FileKind, FileStat, InvError, InvServer, InvServerPool, InversionFs, OpenMode,
    PoolConfig, SeekWhence, SliceRange, WireClient,
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
// Golden frames: wire version 2, byte for byte. The round-trip properties
// above cannot see a change made to the encoder and the decoder in step;
// these can. Each literal is a frame as version 2 first encoded it: the
// header, then a space and the payload.

fn hex(frame: &[u8]) -> String {
    let (header, payload) = frame.split_at(HEADER_LEN);
    let digits = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
    format!("{} {}", digits(header), digits(payload)).trim_end().to_string()
}

fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden.bytes().filter(|b| *b != b' ').collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

/// One fixed sample of each of the 16 requests: it encodes to its golden
/// frame, and the golden frame decodes back to it.
#[test]
fn every_request_encodes_to_its_golden_frame() {
    let mode = CreateMode::default()
        .on_device(DeviceId(2))
        .owned_by("mao")
        .with_type(TypeId(7))
        .compressed()
        .self_identifying()
        .without_history();
    let golden: [(Request, &str); 16] = [
        (Request::Begin, "46564e490200010000000000f0bda283"),
        (Request::Commit, "46564e490200020000000000f0bda283"),
        (Request::Abort, "46564e490200030000000000f0bda283"),
        (
            Request::Creat("/a/file".into(), mode),
            "46564e490200040018000000b2a7845c 070000002f612f66696c65020707000000030000006d616f",
        ),
        (
            Request::Open("/x".into(), OpenMode::ReadWrite, Some(SimInstant::from_nanos(99))),
            "46564e490200050010000000c417e13b 020000002f7801016300000000000000",
        ),
        (Request::Close(3), "46564e490200060004000000c73f7855 03000000"),
        (Request::Read(4, 8192), "46564e49020007000c000000f3bd857a 040000000020000000000000"),
        (
            Request::Write(5, vec![1, 2, 3, 255]),
            "46564e49020008000c0000001d3d75c4 0500000004000000010203ff",
        ),
        (
            Request::Lseek(6, -42, SeekWhence::End),
            "46564e49020009000d000000b1f4c0ad 06000000d6ffffffffffffff02",
        ),
        (Request::Stat("/s".into()), "46564e4902000a0006000000c9578680 020000002f73"),
        (Request::Mkdir("/d".into()), "46564e4902000b0006000000db8b3cdc 020000002f64"),
        (Request::Unlink("/u".into()), "46564e4902000c0006000000cd9d417a 020000002f75"),
        (Request::Readdir("/".into()), "46564e4902000d000500000061f31498 010000002f"),
        (
            Request::Rename("/old".into(), "/new".into()),
            "46564e4902000e0010000000d42ea933 040000002f6f6c64040000002f6e6577",
        ),
        (
            Request::Undelete("/lost".into(), SimInstant::from_nanos(4242)),
            "46564e4902000f00110000007f9a82b7 050000002f6c6f73749210000000000000",
        ),
        (
            Request::Slice(
                "/c".into(),
                CreateMode::default(),
                vec![SliceRange::new("/a", 0, 8128), SliceRange::new("/b", 4096, 100)],
            ),
            "46564e4902001000440000006e5084ad 020000002f6300000000000004000000726f6f7402000000020000002f610000000000000000c01f000000000000020000002f6200100000000000006400000000000000",
        ),
    ];
    for (req, frame) in golden {
        assert_eq!(hex(&wire::encode_request(&req)), frame, "{req:?}");
        let back = wire::decode_request(&unhex(frame)).expect("a golden frame decodes");
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }
}

/// One fixed sample of each response opcode and of each error tag: it
/// encodes to its golden frame, and the golden frame decodes to a result
/// that encodes to it again.
#[test]
fn every_response_encodes_to_its_golden_frame() {
    let stat = FileStat {
        oid: Oid(9),
        kind: FileKind::Directory,
        owner: "root".into(),
        ftype: Some(TypeId(3)),
        size: 123_456_789,
        ctime: SimInstant::from_nanos(1),
        mtime: SimInstant::from_nanos(2),
        atime: SimInstant::from_nanos(3),
        compressed: true,
        self_identifying: true,
        datarel: Oid(100),
        chunkidx: Oid(101),
        device: DeviceId(1),
    };
    let golden: [(Result<Response, InvError>, &str); 23] = [
        (Ok(Response::Ok), "46564e490200640000000000f0bda283"),
        (Ok(Response::Fd(77)), "46564e490200650004000000287761a2 4d000000"),
        (Ok(Response::Data(vec![0xA5, 0, 7])), "46564e490200660007000000e2409f25 03000000a50007"),
        (Ok(Response::Count(1 << 40)), "46564e4902006700080000002d233cf0 0000000000010000"),
        (
            Ok(Response::Stat(Box::new(stat))),
            "46564e49020068003a000000c46960de 090000000704000000726f6f740300000015cd5b0700000000010000000000000002000000000000000300000000000000640000006500000001",
        ),
        (
            Ok(Response::Entries(vec![("a".into(), Oid(1)), ("bc".into(), Oid(2))])),
            "46564e49020069001700000087044095 0200000001000000610100000002000000626302000000",
        ),
        (
            Err(InvError::NoSuchPath("/gone".into())),
            "46564e4902006a000a0000003d62f082 00050000002f676f6e65",
        ),
        (
            Err(InvError::NotADirectory("/f".into())),
            "46564e4902006a0007000000ebfc203f 01020000002f66",
        ),
        (
            Err(InvError::IsADirectory("/d".into())),
            "46564e4902006a00070000001afc84d6 02020000002f64",
        ),
        (Err(InvError::Exists("/e".into())), "46564e4902006a00070000004cbf2716 03020000002f65"),
        (Err(InvError::NotEmpty("/n".into())), "46564e4902006a00070000002c0bc97c 04020000002f6e"),
        (Err(InvError::BadFd(12)), "46564e4902006a0005000000d63a8d91 050c000000"),
        (Err(InvError::ReadOnlyFd(-1)), "46564e4902006a0005000000ea65454e 06ffffffff"),
        (
            Err(InvError::BadPath("a//b".into())),
            "46564e4902006a0009000000843c0360 0704000000612f2f62",
        ),
        (Err(InvError::Invalid("no".into())), "46564e4902006a00070000001e6665c2 08020000006e6f"),
        (Err(InvError::Db(DbError::Deadlock)), "46564e4902006a0001000000739fa55f 14"),
        (Err(InvError::Db(DbError::LockTimeout)), "46564e4902006a00010000006f264654 15"),
        (Err(InvError::Db(DbError::NoTransaction)), "46564e4902006a0001000000f8b6c42c 16"),
        (Err(InvError::Db(DbError::TransactionActive)), "46564e4902006a0001000000fb7e09bc 17"),
        (Err(InvError::Db(DbError::ReadOnly)), "46564e4902006a0001000000e1f5552c 18"),
        (
            Err(InvError::Db(DbError::Corrupt("page 9".into()))),
            "46564e4902006a000b000000709c9ea8 1906000000706167652039",
        ),
        (
            Err(InvError::Db(DbError::Invalid("bad".into()))),
            "46564e4902006a0008000000129c8213 1a03000000626164",
        ),
        (
            Err(InvError::Db(DbError::NotFound("rel".into()))),
            "46564e4902006a0013000000aea19a93 1a0e0000006e6f7420666f756e643a2072656c",
        ),
    ];
    for (res, frame) in golden {
        assert_eq!(hex(&wire::encode_response(&res)), frame, "{res:?}");
        let back = wire::decode_response(&unhex(frame)).expect("a golden frame decodes");
        assert_eq!(hex(&wire::encode_response(&back)), frame, "{res:?}");
    }
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

// ---------------------------------------------------------------------------
// A read answered in its frame.

/// The frame `serve_frame` answers `Read(fd, len)` with, from `offset`.
fn served_read(srv: &mut InvServer, fd: i32, offset: u64, len: usize) -> Vec<u8> {
    srv.handle(Request::Lseek(fd, offset as i64, SeekWhence::Set)).unwrap();
    let frame = wire::encode_request(&Request::Read(fd, len));
    srv.serve_frame(wire::read_frame(&mut &frame[..])).0.unwrap().to_vec()
}

/// The frame the encoder makes of what `handle` answers the same read with.
fn encoded_read(srv: &mut InvServer, fd: i32, offset: u64, len: usize) -> Vec<u8> {
    srv.handle(Request::Lseek(fd, offset as i64, SeekWhence::Set)).unwrap();
    wire::encode_response(&srv.handle(Request::Read(fd, len)))
}

/// `serve_frame` assembles a read's reply in the frame itself; the bytes
/// must be those `encode_response(Ok(Response::Data(..)))` makes: for
/// reads of 0, 1, one chunk, one page and one bulk window, at and past
/// EOF, over a hole, of a compressed and of a self-identifying file, and
/// for a descriptor that does not exist.
#[test]
fn a_read_reply_assembled_in_its_frame_is_the_encoders_frame() {
    let fs = InversionFs::open_in_memory().unwrap();
    let mut srv = InvServer::new(&fs);
    let size = WINDOW + 40_000;
    let mut open = |path: &str, mode: CreateMode, at: u64, len: usize| {
        let Response::Fd(fd) = srv.handle(Request::Creat(path.into(), mode)).unwrap() else {
            panic!("creat answered no fd")
        };
        srv.handle(Request::Lseek(fd, at as i64, SeekWhence::Set)).unwrap();
        let data = (0..len).map(|i| (i % 251) as u8 ^ path.len() as u8).collect();
        srv.handle(Request::Write(fd, data)).unwrap();
        fd
    };
    let plain = open("/plain", CreateMode::default(), 0, size);
    let packed = open("/packed", CreateMode::default().compressed(), 0, size);
    let tagged = open("/tagged", CreateMode::default().self_identifying(), 0, size);
    // Ten bytes behind a hole of twelve chunks.
    let sparse = open("/sparse", CreateMode::default(), 100_000, 10);
    let mut cases = Vec::new();
    for fd in [plain, packed, tagged] {
        for len in [0, 1, 8_128, 8_192, WINDOW] {
            cases.push((fd, 3, len));
        }
        cases.push((fd, size as u64 - 100, 8_192)); // Short at EOF.
        cases.push((fd, size as u64 + 5, 8_192)); // Past EOF: no bytes.
    }
    cases.push((sparse, 0, 8_192)); // All hole.
    cases.push((sparse, 99_000, WINDOW)); // Hole, then the bytes, then EOF.
    for (fd, offset, len) in cases {
        let served = served_read(&mut srv, fd, offset, len);
        assert_eq!(
            served,
            encoded_read(&mut srv, fd, offset, len),
            "fd {fd}: read of {len} at {offset}"
        );
        let Ok(Ok(Response::Data(data))) = wire::decode_response(&served) else {
            panic!("fd {fd}: read of {len} at {offset} answered no data")
        };
        let expect = (size as u64).saturating_sub(offset).min(len as u64);
        if fd != sparse {
            assert_eq!(data.len() as u64, expect, "fd {fd}: read of {len} at {offset}");
        }
    }
    let bad = wire::encode_request(&Request::Read(999, 10));
    let served = srv.serve_frame(wire::read_frame(&mut &bad[..])).0.unwrap().to_vec();
    assert_eq!(served, wire::encode_response(&srv.handle(Request::Read(999, 10))));
    assert!(matches!(wire::decode_response(&served), Ok(Err(InvError::BadFd(999)))));
}

/// A chunk whose self-identifying tag is broken fails the bulk read that
/// meets it with `Corrupt` — the reply is an error frame, not damaged
/// bytes — and the connection stays in sync: the next call is answered.
#[test]
fn a_corrupt_chunk_fails_its_bulk_read_and_the_connection_carries_on() {
    use minidb::Datum;
    let fs = InversionFs::open_in_memory().unwrap();
    let pool = InvServerPool::new(&fs, PoolConfig::default());
    let (client_end, server_end) = duplex_pair();
    pool.serve_duplex(server_end);
    let mut c = WireClient::new(client_end);
    let data: Vec<u8> = (0..3 * WINDOW).map(|i| (i % 239) as u8).collect();
    let fd = c.creat("/tagged", CreateMode::default().self_identifying()).unwrap();
    c.write_bulk(fd, &data).unwrap();
    c.close(fd).unwrap();

    // Break the tag magic of a chunk in the second window.
    let stat = c.stat("/tagged").unwrap();
    let chunkno = (WINDOW + WINDOW / 2) / stat.chunk_size();
    let mut s = fs.db().begin().unwrap();
    let key = [Datum::Int4(chunkno as i32)];
    let (tid, row) = s.index_lookup_unique(stat.chunkidx, &key).unwrap().unwrap();
    let mut raw = row[1].as_bytes().unwrap().to_vec();
    raw[0] ^= 0xFF;
    s.update(stat.datarel, tid, vec![row[0].clone(), Datum::Bytes(raw)]).unwrap();
    s.commit().unwrap();

    let fd = c.open("/tagged", OpenMode::Read, None).unwrap();
    match c.read_bulk(fd, data.len()) {
        Err(InvError::Db(DbError::Corrupt(msg))) => assert!(msg.contains("bad magic"), "{msg}"),
        other => panic!("a broken tag must fail the read with Corrupt, got {other:?}"),
    }
    c.lseek(fd, 0, SeekWhence::Set).unwrap();
    assert_eq!(c.read_bulk(fd, WINDOW).unwrap(), data[..WINDOW]);
    c.close(fd).unwrap();
    pool.shutdown();
}
