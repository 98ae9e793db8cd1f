//! What a probe costs must not depend on how many versions its key has.
//!
//! No-overwrite storage keeps every version of a chunk, a `fileatt` row and
//! a directory entry, and every version has an index entry. The indices on
//! them are declared unique (one version visible per snapshot), their runs
//! are in tid order, and a probe walks a run newest first and stops at the
//! first visible version: one heap fetch for a current reader, (versions
//! newer than *t*) + 1 for a reader of the past, and no scan of the archive
//! when the heap still holds the answer.

mod common;

use common::Devices;
use inversion::{CreateMode, InvClient, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};
use minidb::vacuum::vacuum;
use minidb::DeviceId;
use simdev::SimInstant;

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

fn chunk_of(fill: u8) -> Vec<u8> {
    vec![fill; CHUNK_SIZE]
}

/// Overwrites the start of chunk `chunkno` of `path` with `data`, in a
/// transaction of its own.
fn overwrite(c: &mut InvClient, path: &str, chunkno: u64, data: &[u8]) {
    c.p_begin().unwrap();
    let fd = c.p_open(path, OpenMode::ReadWrite, None).unwrap();
    c.p_lseek(fd, (chunkno * CHUNK_SIZE as u64) as i64, SeekWhence::Set)
        .unwrap();
    c.p_write(fd, data).unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
}

/// Heap fetches spent inside `f`.
fn fetches_in<T>(fs: &InversionFs, f: impl FnOnce() -> T) -> (u64, T) {
    let before = fs.db().stats().heap.fetches;
    let out = f();
    (fs.db().stats().heap.fetches - before, out)
}

/// Reads chunk 0 of `path` (as of `at`) through an open descriptor, and
/// says how many heap fetches the read itself took.
fn read_chunk0(
    fs: &InversionFs,
    c: &mut InvClient,
    path: &str,
    at: Option<SimInstant>,
) -> (u64, Vec<u8>) {
    c.p_begin().unwrap();
    let fd = c.p_open(path, OpenMode::Read, at).unwrap();
    let mut buf = vec![0u8; CHUNK_SIZE];
    let (fetches, n) = fetches_in(fs, || c.p_read(fd, &mut buf).unwrap());
    assert_eq!(n, CHUNK_SIZE);
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    (fetches, buf)
}

#[test]
fn a_chunk_read_costs_the_same_after_1_10_and_100_overwrites() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), &chunk_of(0))
        .unwrap();
    let mut costs = Vec::new();
    let mut version = 0u8;
    for upto in [1u8, 10, 100] {
        while version < upto {
            version += 1;
            overwrite(&mut c, "/f", 0, &chunk_of(version));
        }
        let (fetches, bytes) = read_chunk0(&fs, &mut c, "/f", None);
        assert_eq!(bytes, chunk_of(version));
        costs.push(fetches);
    }
    assert_eq!(
        costs, [costs[0]; 3],
        "heap fetches per read after 1, 10, 100 overwrites"
    );
    assert_eq!(costs[0], 1, "one visible version, one fetch");
}

#[test]
fn a_stat_costs_the_same_after_1_10_and_100_atime_write_backs() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.p_mkdir("/d").unwrap();
    c.write_all("/d/f", CreateMode::default(), b"x").unwrap();
    let mut costs = Vec::new();
    let mut reads = 0;
    for upto in [1, 10, 100] {
        while reads < upto {
            // A read through a descriptor leaves a pending access time, and
            // each write-back of one leaves a new `fileatt` version behind.
            reads += 1;
            fs.db().clock().advance(simdev::SimDuration::from_millis(1));
            c.p_begin().unwrap();
            let fd = c.p_open("/d/f", OpenMode::Read, None).unwrap();
            assert_eq!(c.p_read(fd, &mut [0u8; 8]).unwrap(), 1);
            c.p_close(fd).unwrap();
            c.p_commit().unwrap();
            assert_eq!(fs.flush_atimes().unwrap(), 1, "write-back {reads}");
        }
        let (fetches, stat) = fetches_in(&fs, || c.p_stat("/d/f", None).unwrap());
        assert_eq!(stat.size, 1);
        costs.push(fetches);
    }
    assert_eq!(
        costs, [costs[0]; 3],
        "heap fetches per p_stat after 1, 10, 100 write-backs"
    );
}

#[test]
fn a_read_of_the_past_fetches_only_the_versions_newer_than_it() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), &chunk_of(0))
        .unwrap();
    let mut stamps = vec![fs.db().now()];
    for v in 1..100u8 {
        overwrite(&mut c, "/f", 0, &chunk_of(v));
        stamps.push(fs.db().now());
    }
    for v in [99u8, 50, 3] {
        let newer = u64::from(99 - v);
        let (fetches, bytes) = read_chunk0(&fs, &mut c, "/f", Some(stamps[v as usize]));
        assert_eq!(bytes, chunk_of(v), "as of version {v}");
        assert!(
            fetches <= newer + 1,
            "as of version {v}: {fetches} fetches for {newer} newer versions"
        );
    }
}

#[test]
fn a_read_of_the_past_scans_the_archive_only_for_what_was_archived() {
    let fs = fresh_fs();
    let mut c = fs.client();
    // Two short chunks: 100 bytes at the start of chunk 0 and of chunk 1.
    c.write_all("/f", CreateMode::default(), &[10; 100])
        .unwrap();
    overwrite(&mut c, "/f", 1, &[20; 100]);
    let t_then = fs.db().now();
    // Chunk 0 moves on; chunk 1's first version stays current.
    for v in 11..15u8 {
        overwrite(&mut c, "/f", 0, &[v; 100]);
    }
    let datarel = c.p_stat("/f", None).unwrap().datarel;
    let stats = vacuum(fs.db(), datarel, DeviceId::DEFAULT).unwrap();
    assert_eq!((stats.kept, stats.archived), (2, 4));

    let read_then = |c: &mut InvClient, chunkno: u64| {
        c.p_begin().unwrap();
        let fd = c.p_open("/f", OpenMode::Read, Some(t_then)).unwrap();
        c.p_lseek(fd, (chunkno * CHUNK_SIZE as u64) as i64, SeekWhence::Set)
            .unwrap();
        let mut buf = [0u8; 100];
        let before = fs.db().stats().heap.scans;
        assert_eq!(c.p_read(fd, &mut buf).unwrap(), 100);
        let scans = fs.db().stats().heap.scans - before;
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        (scans, buf)
    };
    // The version of chunk 1 visible then is still in the heap: the index
    // finds it and nothing scans the archive.
    assert_eq!(read_then(&mut c, 1), (0, [20; 100]));
    // Chunk 0's was archived: the heap has no answer, the archive does.
    assert_eq!(read_then(&mut c, 0), (1, [10; 100]));
}
