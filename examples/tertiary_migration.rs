//! Managing a storage hierarchy: magnetic disk + Sony WORM jukebox, with
//! rule-driven migration.
//!
//! "The current system manages data stored on a 327 GByte Sony optical disk
//! WORM jukebox, and on magnetic disk. ... The Inversion namespace is
//! uniform across devices." And from the migration discussion:
//! "Arbitrarily complex rules controlling the locations of files ... would
//! be declared to the database manager. When a file met the announced
//! conditions, it would be moved from one location in the storage hierarchy
//! to another."
//!
//! Run with: `cargo run --example tertiary_migration`

use bench::testbed::{InversionTestbed, DEV_DISK, DEV_JUKEBOX};
use inversion::migrate::{register_migration, run_migration_rules};
use inversion::{CreateMode, InversionFs};
use simdev::SimDuration;

fn device_name(fs: &InversionFs, path: &str, c: &mut inversion::InvClient) -> &'static str {
    let _ = fs;
    match c.p_stat(path, None).unwrap().device {
        DEV_DISK => "magnetic disk",
        DEV_JUKEBOX => "sony jukebox",
        _ => "unknown",
    }
}

fn main() {
    // The full testbed: RZ58 magnetic disk (device 0) and the Sony WORM
    // jukebox with its 10 MB staging cache (device 1).
    let tb = InversionTestbed::paper();
    let fs = tb.fs.clone();
    register_migration(&fs).unwrap();
    let mut c = fs.client();

    // Files can be *placed* on either device at creation; the namespace is
    // uniform across devices.
    println!("== location transparency ==");
    c.write_all(
        "/fast.dat",
        CreateMode::default().on_device(DEV_DISK),
        &vec![1u8; 100_000],
    )
    .unwrap();
    c.write_all(
        "/archive.dat",
        CreateMode::default().on_device(DEV_JUKEBOX),
        &vec![2u8; 100_000],
    )
    .unwrap();
    for path in ["/fast.dat", "/archive.dat"] {
        println!("  {path}: on {}", device_name(&fs, path, &mut c));
    }
    // Reads look identical regardless of the device underneath.
    assert_eq!(
        c.read_to_vec("/archive.dat", None).unwrap(),
        vec![2u8; 100_000]
    );
    println!("  both read back identically through the same API");

    // Age a dataset, then declare the paper's migration policy as a rule.
    println!("\n== rule-driven migration ==");
    c.write_all(
        "/cold_dataset.dat",
        CreateMode::default(),
        &vec![3u8; 500_000],
    )
    .unwrap();
    tb.clock.advance(SimDuration::from_secs(3600)); // An hour passes.
    c.write_all(
        "/hot_dataset.dat",
        CreateMode::default(),
        &vec![4u8; 500_000],
    )
    .unwrap();

    let before = c.p_stat("/cold_dataset.dat", None).unwrap();
    let t_before = fs.db().now();
    let cutoff = t_before.as_nanos() - SimDuration::from_secs(600).as_nanos();
    let mut s = fs.db().begin().unwrap();
    s.query(&format!(
        "define rule cold_to_tertiary on periodic to fileatt \
         where atime < {cutoff} and datarel != 0 and device = 0 \
         do migrate(this.file, 1)"
    ))
    .unwrap();
    println!("  declared: files untouched for 10 minutes move to the jukebox");

    let run = run_migration_rules(&fs, &mut s).unwrap();
    s.commit().unwrap();
    for (rule, n) in &run.fired {
        println!("  rule \"{rule}\" matched {n} file(s)");
    }

    for path in ["/cold_dataset.dat", "/hot_dataset.dat"] {
        println!("  {path}: now on {}", device_name(&fs, path, &mut c));
    }
    let after = c.p_stat("/cold_dataset.dat", None).unwrap();
    assert_eq!(after.device, DEV_JUKEBOX);
    assert_eq!(after.datarel, before.datarel, "a file keeps its relation");
    assert_eq!(
        c.read_to_vec("/cold_dataset.dat", None).unwrap(),
        vec![3u8; 500_000]
    );

    // The migration moved the file's relation, past and present: a read as
    // of before it finds the same bytes, now on the jukebox.
    println!("\n== reading a migrated file, present and past ==");
    c.p_begin().unwrap();
    let fd = c
        .p_open("/cold_dataset.dat", inversion::OpenMode::ReadWrite, None)
        .unwrap();
    c.p_write(fd, b"POST-MIGRATION EDIT").unwrap();
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    let now = c.read_to_vec("/cold_dataset.dat", None).unwrap();
    let then = c.read_to_vec("/cold_dataset.dat", Some(t_before)).unwrap();
    println!(
        "  head starts with: {:?}",
        String::from_utf8_lossy(&now[..19.min(now.len())])
    );
    assert_eq!(&now[..19], b"POST-MIGRATION EDIT");
    assert_eq!(then, vec![3u8; 500_000], "the read as of before the migration");
    println!("  as of before the migration: the original 500 000 bytes");
    assert_eq!(fs.check(), []);
    assert_eq!(fs.db().check_all(), []);
    println!("  fs.check() and check_all(): clean");

    // The WORM jukebox is append-only media: the manager stages writes on
    // magnetic disk and burns platters on commit; reads of jukebox files go
    // through the staging cache.
    println!("\n== jukebox staging in action ==");
    fs.db().flush_caches().unwrap();
    let t0 = tb.clock.now();
    c.read_to_vec("/archive.dat", None).unwrap();
    let cold_read = tb.clock.now().since(t0);
    let t0 = tb.clock.now();
    c.read_to_vec("/archive.dat", None).unwrap();
    let warm_read = tb.clock.now().since(t0);
    println!("  first read (robot + platter load): {cold_read}");
    println!("  second read (staging cache):       {warm_read}");
}
