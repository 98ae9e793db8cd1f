//! The past as every client read names it: `p_readdir`, `p_stat`,
//! `read_to_vec`, `p_open` + `p_read`, and a POSTQUEL `naming[t]` retrieve,
//! each at several instants, outside and inside an explicit transaction,
//! before and after the vacuum cleaner moves the old versions to the
//! archive, and after the file migrates to a second device. Each instant's
//! expected state is what the present read paths returned at that instant.

mod common;

use common::CrashRig;
use inversion::maintenance::vacuum_all;
use inversion::migrate::migrate_file;
use inversion::{CreateMode, FileKind, InvClient, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};
use minidb::{DeviceId, Session};
use simdev::{SimDuration, SimInstant};

/// The file system at one instant, as the battery reads it.
#[derive(Debug, PartialEq)]
struct State {
    /// `ls /d`.
    listing: Vec<String>,
    /// `/d/f`'s kind, size and modification time.
    stat: (FileKind, u64, SimInstant),
    /// `/d/f`'s bytes.
    bytes: Vec<u8>,
    /// Every name in `naming`, sorted.
    names: Vec<String>,
}

/// Every name a POSTQUEL retrieve of `naming` (as of `at`, if given)
/// returns through `s`.
fn names(s: &mut Session, at: Option<SimInstant>) -> Vec<String> {
    let bracket = at.map_or(String::new(), |t| format!("[{}]", t.as_nanos()));
    let r = s.query(&format!("retrieve (n.filename) from n in naming{bracket}")).unwrap();
    let mut out: Vec<String> = r.rows.iter().map(|row| row[0].as_text().unwrap().to_string()).collect();
    out.sort();
    out
}

/// The state now, through the present's read paths.
fn present(fs: &InversionFs, c: &mut InvClient) -> State {
    let st = c.p_stat("/d/f", None).unwrap();
    let mut s = fs.db().begin().unwrap();
    let names = names(&mut s, None);
    s.commit().unwrap();
    State {
        listing: c.p_readdir("/d", None).unwrap().into_iter().map(|(n, _)| n).collect(),
        stat: (st.kind, st.size, st.mtime),
        bytes: c.read_to_vec("/d/f", None).unwrap(),
        names,
    }
}

/// The state as of `at`, through every read of the past. The descriptor
/// read goes in two pieces, the first ending inside chunk 0 if it can.
fn past(fs: &InversionFs, c: &mut InvClient, at: SimInstant, in_xact: bool) -> State {
    let st = c.p_stat("/d/f", Some(at)).unwrap();
    let bytes = c.read_to_vec("/d/f", Some(at)).unwrap();
    let fd = c.p_open("/d/f", OpenMode::Read, Some(at)).unwrap();
    let mut through_fd = vec![0u8; bytes.len() + 10];
    let split = through_fd.len().min(CHUNK_SIZE / 2);
    let first = c.p_read(fd, &mut through_fd[..split]).unwrap();
    let rest = c.p_read(fd, &mut through_fd[first..]).unwrap();
    assert_eq!(c.p_lseek(fd, 0, SeekWhence::Cur).unwrap(), (first + rest) as u64);
    c.p_close(fd).unwrap();
    through_fd.truncate(first + rest);
    assert_eq!(through_fd, bytes, "p_read as of {at} reads what read_to_vec does");
    let mut s = if in_xact { fs.db().begin().unwrap() } else { fs.db().snapshot_at(fs.db().now()) };
    let names = names(&mut s, Some(at));
    s.commit().unwrap();
    State {
        listing: c.p_readdir("/d", Some(at)).unwrap().into_iter().map(|(n, _)| n).collect(),
        stat: (st.kind, st.size, st.mtime),
        bytes,
        names,
    }
}

/// Reads every recorded instant back, outside an explicit transaction and
/// inside one, and checks both verifiers.
fn check(fs: &InversionFs, c: &mut InvClient, recorded: &[(SimInstant, State)], when: &str) {
    for &in_xact in &[false, true] {
        if in_xact {
            c.p_begin().unwrap();
        }
        for (at, want) in recorded {
            assert_eq!(&past(fs, c, *at, in_xact), want, "{when}: as of {at}, in a transaction: {in_xact}");
        }
        if in_xact {
            c.p_commit().unwrap();
        }
    }
    assert_eq!(fs.db().check_all(), [], "{when}");
    assert_eq!(fs.check(), [], "{when}");
}

/// Overwrites `/d/f` with `data`, in a transaction of its own.
fn rewrite(c: &mut InvClient, data: &[u8]) {
    c.p_begin().unwrap();
    let fd = c.p_open("/d/f", OpenMode::ReadWrite, None).unwrap();
    c.p_ftruncate(fd, 0).unwrap();
    c.p_write(fd, data).unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
}

/// Records the state now, then lets a second pass.
fn record(fs: &InversionFs, c: &mut InvClient, recorded: &mut Vec<(SimInstant, State)>) {
    recorded.push((fs.db().now(), present(fs, c)));
    fs.db().clock().advance(SimDuration::from_secs(1));
}

#[test]
fn every_read_of_the_past_agrees_across_vacuum_and_migration() {
    let rig = CrashRig::with_two_data_devices();
    let fs = InversionFs::format(rig.open(true)).unwrap();
    let mut c = fs.client();
    let mut recorded = Vec::new();

    c.p_mkdir("/d").unwrap();
    c.write_all("/d/f", CreateMode::default(), &vec![1u8; CHUNK_SIZE + 100]).unwrap();
    c.write_all("/d/g", CreateMode::default(), b"g").unwrap();
    record(&fs, &mut c, &mut recorded);

    rewrite(&mut c, &vec![2u8; 2 * CHUNK_SIZE + 7]);
    c.write_all("/d/h", CreateMode::default(), b"h").unwrap();
    record(&fs, &mut c, &mut recorded);

    c.p_unlink("/d/g").unwrap();
    rewrite(&mut c, b"three");
    record(&fs, &mut c, &mut recorded);
    check(&fs, &mut c, &recorded, "before any vacuum");

    let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    check(&fs, &mut c, &recorded, "after the first vacuum");

    // A second sweep appends to the archives the first one made.
    rewrite(&mut c, &vec![4u8; CHUNK_SIZE]);
    c.p_rename("/d/h", "/d/i").unwrap();
    record(&fs, &mut c, &mut recorded);
    rewrite(&mut c, b"five");
    let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    check(&fs, &mut c, &recorded, "after the second vacuum");

    let oid = c.p_stat("/d/f", None).unwrap().oid;
    let mut s = fs.db().begin().unwrap();
    migrate_file(&fs, &mut s, oid, DeviceId(1)).unwrap();
    s.commit().unwrap();
    assert_eq!(c.p_stat("/d/f", None).unwrap().device, DeviceId(1));
    check(&fs, &mut c, &recorded, "after the migration");
    assert_eq!(c.read_to_vec("/d/f", None).unwrap(), b"five");
}
