//! Cross-layer time-travel tests: many versions, vacuum + archive,
//! namespace history, migration, and the query-language bracket syntax.

mod common;

use common::Devices;
use inversion::maintenance::vacuum_all;
use inversion::{CreateMode, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};
use minidb::vacuum::vacuum;
use minidb::{Datum, DeviceId};
use simdev::SimInstant;

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

#[test]
fn every_intermediate_version_is_recoverable() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let mut stamps: Vec<(SimInstant, Vec<u8>)> = Vec::new();

    c.write_all("/evolving", CreateMode::default(), b"v0")
        .unwrap();
    stamps.push((fs.db().now(), b"v0".to_vec()));
    for v in 1..20u8 {
        c.p_begin().unwrap();
        let fd = c.p_open("/evolving", OpenMode::ReadWrite, None).unwrap();
        let content = format!("v{v}-{}", "x".repeat(v as usize * 7));
        c.p_write(fd, content.as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        stamps.push((fs.db().now(), content.into_bytes()));
    }
    // "All old versions of files are visible."
    for (t, expect) in &stamps {
        let got = c.read_to_vec("/evolving", Some(*t)).unwrap();
        assert_eq!(&got[..expect.len()], &expect[..], "at {t}");
    }
}

#[test]
fn fine_grained_beats_daily_snapshots() {
    // Plan 9 and 3DFS snapshot once a day; Inversion sees *every* commit.
    // Three commits within one simulated second are all distinguishable.
    let fs = fresh_fs();
    let mut c = fs.client();
    let mut ts = Vec::new();
    for v in 0..3 {
        c.p_begin().unwrap();
        let fd = match c.p_open("/rapid", OpenMode::ReadWrite, None) {
            Ok(fd) => fd,
            Err(_) => c.p_creat("/rapid", CreateMode::default()).unwrap(),
        };
        c.p_lseek(fd, 0, SeekWhence::Set).unwrap();
        c.p_write(fd, format!("{v}").as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        ts.push(fs.db().now());
    }
    assert!(ts[2].since(ts[0]).as_secs_f64() < 1.0, "commits were fast");
    for (v, t) in ts.iter().enumerate() {
        assert_eq!(
            c.read_to_vec("/rapid", Some(*t)).unwrap(),
            format!("{v}").as_bytes()
        );
    }
}

#[test]
fn namespace_time_travel_rename_and_unlink() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.p_mkdir("/old").unwrap();
    c.p_mkdir("/new").unwrap();
    c.write_all("/old/name", CreateMode::default(), b"data")
        .unwrap();
    let t_old = fs.db().now();

    c.p_rename("/old/name", "/new/name").unwrap();
    let t_renamed = fs.db().now();
    c.p_unlink("/new/name").unwrap();

    // Present: gone everywhere.
    assert!(c.p_stat("/old/name", None).is_err());
    assert!(c.p_stat("/new/name", None).is_err());
    // At t_old it was at the old path (and not the new one).
    assert_eq!(c.read_to_vec("/old/name", Some(t_old)).unwrap(), b"data");
    assert!(c.p_stat("/new/name", Some(t_old)).is_err());
    // After the rename it was at the new path only.
    assert_eq!(
        c.read_to_vec("/new/name", Some(t_renamed)).unwrap(),
        b"data"
    );
    assert!(c.p_stat("/old/name", Some(t_renamed)).is_err());
    // Historical directory listings agree.
    let entries = c.p_readdir("/old", Some(t_old)).unwrap();
    assert_eq!(entries.len(), 1);
    assert!(c.p_readdir("/old", Some(t_renamed)).unwrap().is_empty());
}

#[test]
fn history_survives_the_vacuum_cleaner_via_archive() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), b"alpha").unwrap();
    let t_alpha = fs.db().now();
    c.p_begin().unwrap();
    let fd = c.p_open("/f", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"bravo").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();

    // Vacuum the file's data relation: the dead "alpha" chunk moves to an
    // archive relation.
    let stat = c.p_stat("/f", None).unwrap();
    let stats = vacuum(fs.db(), stat.datarel, DeviceId::DEFAULT).unwrap();
    assert_eq!(stats.archived, 1);
    assert_eq!(stats.kept, 1);

    // Present reads come from the compacted heap...
    assert_eq!(c.read_to_vec("/f", None).unwrap(), b"bravo");
    // ...historical reads are served from the archive.
    assert_eq!(c.read_to_vec("/f", Some(t_alpha)).unwrap(), b"alpha");
}

/// A full chunk archives as `(amin, amax, chunkno, data)`, which still
/// fits a heap tuple: `vacuum_all` over a file of two full chunks written
/// over once moves both old chunks to the archive, and history reads them
/// from there.
#[test]
fn vacuum_all_archives_an_overwritten_file_of_full_chunks() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let (old, new) = (vec![1u8; 2 * CHUNK_SIZE], vec![2u8; 2 * CHUNK_SIZE]);
    c.write_all("/full", CreateMode::default(), &old).unwrap();
    let then = fs.db().now();
    c.p_begin().unwrap();
    let fd = c.p_open("/full", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, &new).unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();

    let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let (_, data) = report.vacuumed.iter().find(|(name, _)| name.starts_with("inv")).unwrap();
    assert_eq!((data.kept, data.archived), (2, 2));
    assert_eq!(c.read_to_vec("/full", Some(then)).unwrap(), old);
    assert_eq!(c.read_to_vec("/full", None).unwrap(), new);
    assert_eq!(fs.db().check_all(), []);
    assert_eq!(fs.check(), []);
}

/// `2 * CHUNK_SIZE` bytes that do not compress.
fn noise(seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..2 * CHUNK_SIZE)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Writes each `(path, mode)` file, overwrites it whole in one transaction,
/// runs `vacuum_all`, and reads both versions back.
fn vacuum_all_archives_overwritten_files(files: &[(&str, CreateMode)]) {
    let fs = fresh_fs();
    let mut c = fs.client();
    for (path, mode) in files {
        c.write_all(path, mode.clone(), &noise(1)).unwrap();
    }
    let then = fs.db().now();
    c.p_begin().unwrap();
    for (path, _) in files {
        let fd = c.p_open(path, OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, &noise(2)).unwrap();
        c.p_close(fd).unwrap();
    }
    c.p_commit().unwrap();

    let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    let archived = report.vacuumed.iter().filter(|(name, _)| name.starts_with("inv"));
    assert!(archived.map(|(_, data)| data.archived).sum::<u64>() >= 2 * files.len() as u64);
    for (path, _) in files {
        assert_eq!(c.read_to_vec(path, Some(then)).unwrap(), noise(1), "{path} then");
        assert_eq!(c.read_to_vec(path, None).unwrap(), noise(2), "{path} now");
    }
    assert_eq!(fs.db().check_all(), []);
    assert_eq!(fs.check(), []);
}

/// A self-identifying chunk carries a 16-byte tag, and the archive wraps
/// its row in `(amin, amax, ...)`: the file's chunks are sized so that a
/// full one still archives into one heap tuple. A plain file beside it is
/// vacuumed in the same sweep.
#[test]
fn vacuum_all_archives_an_overwritten_self_identifying_file() {
    vacuum_all_archives_overwritten_files(&[
        ("/tagged", CreateMode::default().self_identifying()),
        ("/plain", CreateMode::default()),
    ]);
}

/// Bytes that do not compress grow a little under the chunk codec. The
/// chunks of a compressed file are sized for that growth, so they store,
/// and archive, as one heap tuple each, with or without a tag.
#[test]
fn vacuum_all_archives_overwritten_compressed_files_of_incompressible_bytes() {
    vacuum_all_archives_overwritten_files(&[
        ("/packed", CreateMode::default().compressed()),
        ("/both", CreateMode::default().compressed().self_identifying()),
    ]);
}

#[test]
fn no_history_files_forget_after_vacuum() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/scratch", CreateMode::default().without_history(), b"one")
        .unwrap();
    let t_one = fs.db().now();
    c.p_begin().unwrap();
    let fd = c.p_open("/scratch", OpenMode::ReadWrite, None).unwrap();
    c.p_write(fd, b"two").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();

    // Before vacuum, history still available (nothing collected yet).
    assert_eq!(c.read_to_vec("/scratch", Some(t_one)).unwrap(), b"one");
    let stat = c.p_stat("/scratch", None).unwrap();
    let stats = vacuum(fs.db(), stat.datarel, DeviceId::DEFAULT).unwrap();
    assert_eq!(stats.discarded, 1);
    assert_eq!(stats.archived, 0);
    // "For files in which the user has no interest in maintaining history,
    // POSTGRES can be instructed not to save old versions."
    assert_eq!(
        c.read_to_vec("/scratch", Some(t_one)).unwrap(),
        b"\0\0\0"[..3].to_vec()
    );
}

#[test]
fn query_language_bracket_time_travel_on_naming() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/ephemeral", CreateMode::default(), b"x")
        .unwrap();
    let t_alive = fs.db().now().as_nanos();
    c.p_unlink("/ephemeral").unwrap();

    let mut s = fs.db().begin().unwrap();
    let now_rows = s
        .query(r#"retrieve (n.filename) from n in naming where n.filename = "ephemeral""#)
        .unwrap();
    assert!(now_rows.rows.is_empty());
    let then_rows = s
        .query(&format!(
            r#"retrieve (n.filename) from n in naming[{t_alive}] where n.filename = "ephemeral""#
        ))
        .unwrap();
    assert_eq!(then_rows.rows, vec![vec![Datum::Text("ephemeral".into())]]);
    s.commit().unwrap();
}

#[test]
fn historical_opens_are_strictly_read_only() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/f", CreateMode::default(), b"data").unwrap();
    let t = fs.db().now();
    assert!(c.p_open("/f", OpenMode::ReadWrite, Some(t)).is_err());
    let fd = c.p_open("/f", OpenMode::Read, Some(t)).unwrap();
    assert!(c.p_write(fd, b"nope").is_err());
    c.p_close(fd).unwrap();
}

#[test]
fn time_travel_before_creation_sees_nothing() {
    let fs = fresh_fs();
    let t0 = fs.db().now();
    let mut c = fs.client();
    c.write_all("/later", CreateMode::default(), b"x").unwrap();
    assert!(c.p_stat("/later", Some(t0)).is_err());
    assert!(c.p_stat("/later", Some(SimInstant::EPOCH)).is_err());
    // Root itself exists from format time.
    assert!(!c.p_readdir("/", Some(fs.db().now())).unwrap().is_empty());
}
