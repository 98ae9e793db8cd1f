//! Scale and endurance tests: many files, deep directories, big files,
//! many versions, and many transactions. Sized to run in seconds; the
//! `#[ignore]`d variants push an order of magnitude further.

mod common;

use common::Devices;
use inversion::{CreateMode, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

#[test]
fn hundreds_of_files_in_one_directory() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.p_mkdir("/many").unwrap();
    c.p_begin().unwrap();
    for i in 0..300 {
        let fd = c
            .p_creat(&format!("/many/file_{i:04}"), CreateMode::default())
            .unwrap();
        c.p_write(fd, format!("contents of {i}").as_bytes())
            .unwrap();
        c.p_close(fd).unwrap();
    }
    c.p_commit().unwrap();

    let entries = c.p_readdir("/many", None).unwrap();
    assert_eq!(entries.len(), 300);
    // Names come back sorted (B-tree order).
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    // Spot checks resolve through the index.
    for i in (0..300).step_by(37) {
        assert_eq!(
            c.read_to_vec(&format!("/many/file_{i:04}"), None).unwrap(),
            format!("contents of {i}").as_bytes()
        );
    }
}

#[test]
fn deep_directory_nesting() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let mut path = String::new();
    for d in 0..40 {
        path.push_str(&format!("/d{d}"));
        c.p_mkdir(&path).unwrap();
    }
    path.push_str("/leaf");
    c.write_all(&path, CreateMode::default(), b"deep").unwrap();
    assert_eq!(c.read_to_vec(&path, None).unwrap(), b"deep");
    // path_of reconstructs the full 40-level path.
    let mut s = fs.db().begin().unwrap();
    let oid = fs.resolve(&mut s, &path, None).unwrap();
    assert_eq!(fs.path_of(&mut s, oid, None).unwrap(), path);
    s.commit().unwrap();
}

#[test]
fn many_versions_of_one_file() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/churn", CreateMode::default(), b"v000")
        .unwrap();
    for v in 1..60 {
        c.p_begin().unwrap();
        let fd = c.p_open("/churn", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, format!("v{v:03}").as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }
    assert_eq!(c.read_to_vec("/churn", None).unwrap(), b"v059");
    let hist = c.p_history("/churn").unwrap();
    assert_eq!(hist.len(), 60);
    // Sample a middle revision.
    let mid = &hist[30];
    assert_eq!(
        c.read_to_vec("/churn", Some(mid.committed_at)).unwrap(),
        b"v030"
    );
}

#[test]
fn moderately_large_file_roundtrip() {
    // ~4 MB: hundreds of chunks, deep B-tree, buffer-pool churn.
    let fs = fresh_fs();
    let mut c = fs.client();
    let size = 4 << 20;
    let data: Vec<u8> = (0..size)
        .map(|i| ((i * 2654435761usize) >> 13) as u8)
        .collect();
    c.write_all("/big4", CreateMode::default(), &data).unwrap();
    fs.db().flush_caches().unwrap();
    assert_eq!(c.read_to_vec("/big4", None).unwrap(), data);

    // Random probes after a cache flush.
    fs.db().flush_caches().unwrap();
    let fd = c.p_open("/big4", OpenMode::Read, None).unwrap();
    let mut state = 99usize;
    for _ in 0..50 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let off = state % (size - 64);
        c.p_lseek(fd, off as i64, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 64];
        c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[off..off + 64], "offset {off}");
    }
    c.p_close(fd).unwrap();
}

#[test]
#[ignore = "long-running endurance variant; run with --ignored"]
fn endurance_thousands_of_transactions() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/log", CreateMode::default(), b"").unwrap();
    for i in 0..2000u32 {
        c.p_begin().unwrap();
        let fd = c.p_open("/log", OpenMode::ReadWrite, None).unwrap();
        c.p_lseek(fd, 0, SeekWhence::End).unwrap();
        c.p_write(fd, format!("entry {i}\n").as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }
    let stat = c.p_stat("/log", None).unwrap();
    assert!(stat.size > 2000 * 8);
    let all = c.read_to_vec("/log", None).unwrap();
    assert!(String::from_utf8(all).unwrap().ends_with("entry 1999\n"));
}

#[test]
#[ignore = "long-running: a 64 MB file through the full stack"]
fn endurance_large_file() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let size = 64 << 20;
    let chunk_pattern: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 253) as u8).collect();
    c.p_begin().unwrap();
    let fd = c.p_creat("/huge", CreateMode::default()).unwrap();
    let mut written = 0usize;
    while written < size {
        let take = chunk_pattern.len().min(size - written);
        c.p_write(fd, &chunk_pattern[..take]).unwrap();
        written += take;
    }
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    assert_eq!(c.p_stat("/huge", None).unwrap().size as usize, size);
}

/// Devices whose data disk has room for more files than its relation map.
fn big_data_disk() -> Devices {
    let small = Devices::new();
    Devices {
        data: minidb::shared_device(simdev::MagneticDisk::new(
            "data",
            small.clock.clone(),
            simdev::DiskProfile::tiny_for_tests(1 << 18),
        )),
        ..small
    }
}

fn name(i: usize) -> String {
    format!("/f{i:05}")
}

#[test]
#[ignore = "long-running: 6 000 files, past the 5 491 the one-blob catalog could hold"]
fn endurance_six_thousand_files() {
    // Stay under ~7 000: each device's relation map is still one blob with
    // the catalog's old 63-block cap, at ~36 bytes per relation.
    let devices = big_data_disk();
    {
        let fs = InversionFs::format(devices.format()).unwrap();
        let mut c = fs.client();
        for batch in 0..60 {
            c.p_begin().unwrap();
            for i in batch * 100..(batch + 1) * 100 {
                let fd = c
                    .p_creat(&name(i), CreateMode::default())
                    .unwrap_or_else(|e| panic!("p_creat number {}: {e}", i + 1));
                c.p_write(fd, &[i as u8]).unwrap();
                c.p_close(fd).unwrap();
            }
            c.p_commit().unwrap();
        }
    }
    let fs = InversionFs::attach(devices.recover()).unwrap();
    let mut c = fs.client();
    assert_eq!(c.p_readdir("/", None).unwrap().len(), 6000);
    for i in (0..6000).step_by(120) {
        assert_eq!(c.read_to_vec(&name(i), None).unwrap(), [i as u8], "file {i}");
    }
    // 12 000 relations, each index finding its heap in a map.
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "verifier: {findings:?}");
}

/// Files `creating_files_until_the_relation_map_is_full` makes before the
/// refusal: the parent's 7 161, when the map was synced at every create,
/// less one — the room kept for the runs recovery adds back for relations
/// that grew since the last checkpoint, without which reopening this
/// database failed with `device full`.
const FILES_THE_RELATION_MAP_HOLDS: usize = 7160;

/// A device's relation map is still one blob in its 63-block metadata
/// region, written at checkpoints. The create that would outgrow it is
/// refused there and then, with `device full`, and a crash at that moment
/// recovers: the map recovery rebuilds from the log fits the region, and
/// its first checkpoint writes it. Returns the number of files made before
/// the refusal. With `checkpoint_every`, timed checkpoints are off and one
/// runs before every that many creates instead.
fn fill_the_relation_map_then_crash(checkpoint_every: Option<usize>) -> usize {
    let devices = big_data_disk();
    let made = {
        let config = match checkpoint_every {
            Some(_) => minidb::DbConfig {
                checkpoint_interval: simdev::SimDuration::ZERO,
                ..minidb::DbConfig::default()
            },
            None => minidb::DbConfig::default(),
        };
        let fs = InversionFs::format(devices.format_with(config)).unwrap();
        let mut c = fs.client();
        let mut made = 0;
        let refused = loop {
            if checkpoint_every.is_some_and(|n| made % n == 0) {
                fs.db().checkpoint().unwrap();
            }
            match c.write_all(&name(made), CreateMode::default(), &[made as u8]) {
                Ok(()) => made += 1,
                Err(e) => break e,
            }
        };
        assert!(refused.to_string().contains("device full"), "file {}: {refused}", made + 1);
        fs.db().simulate_crash();
        made
    };
    let fs = InversionFs::attach(devices.recover()).unwrap();
    let mut c = fs.client();
    let listed: Vec<String> = c.p_readdir("/", None).unwrap().into_iter().map(|(n, _)| n).collect();
    let want: Vec<String> = (0..made).map(|i| name(i)[1..].to_string()).collect();
    assert_eq!(listed, want);
    fs.db().checkpoint().expect("the recovered map fits its region");
    assert!(fs.db().check_all().is_empty(), "{:?}", fs.db().check_all());
    assert!(fs.check().is_empty(), "{:?}", fs.check());
    let again = c.write_all("/one_more", CreateMode::default(), b"x").unwrap_err();
    assert!(again.to_string().contains("device full"), "{again}");
    made
}

/// Checkpoints at fixed points and none in the background: which relations
/// grew since the map was last synced, and so the room it keeps for them,
/// is the same on every run.
#[test]
#[ignore = "long-running: creates files until the device's relation map is full"]
fn creating_files_until_the_relation_map_is_full() {
    assert_eq!(fill_the_relation_map_then_crash(Some(200)), FILES_THE_RELATION_MAP_HOLDS);
}

/// The default configuration, with timed checkpoints: the room the map
/// keeps for relations that grew since it was last synced depends on when
/// the last checkpoint landed, so on some runs it holds one file more.
#[test]
#[ignore = "long-running: creates files until the device's relation map is full"]
fn creating_files_until_the_relation_map_is_full_under_timed_checkpoints() {
    let made = fill_the_relation_map_then_crash(None);
    assert!(
        (FILES_THE_RELATION_MAP_HOLDS..=FILES_THE_RELATION_MAP_HOLDS + 1).contains(&made),
        "the map held {made} files"
    );
}
