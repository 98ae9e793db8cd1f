//! The time machine: every service history buys you, in one tour —
//! revision logs recovered from the storage manager, undelete, vacuum with
//! archives, and `ls`-able history through the NFS front end's
//! `path@time` namespace extension.
//!
//! Run with: `cargo run --example time_machine`

use inversion::maintenance::vacuum_all;
use inversion::{CreateMode, InversionFs, NfsFront, OpenMode, SeekWhence};
use minidb::DeviceId;
use simdev::SimDuration;

fn main() {
    let fs = InversionFs::open_in_memory().unwrap();
    let mut c = fs.client();
    let nfs = NfsFront::new(&fs);

    // Build a little history: four revisions of a notebook, a second apart.
    println!("== writing four revisions of /notebook ==");
    for rev in 1..=4u32 {
        c.p_begin().unwrap();
        let fd = match c.p_open("/notebook", OpenMode::ReadWrite, None) {
            Ok(fd) => fd,
            Err(_) => c.p_creat("/notebook", CreateMode::default()).unwrap(),
        };
        c.p_lseek(fd, 0, SeekWhence::Set).unwrap();
        let text = format!("revision {rev}: {}\n", "data ".repeat(rev as usize));
        c.p_ftruncate(fd, 0).unwrap();
        c.p_write(fd, text.as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
        fs.db().clock().advance(SimDuration::from_secs(1));
    }

    // p_history: a revision log straight out of the no-overwrite heap.
    println!("\n== p_history(/notebook): the rcs superset ==");
    let hist = c.p_history("/notebook").unwrap();
    for (i, v) in hist.iter().enumerate() {
        println!(
            "  r{}  committed {}  {} bytes  {}",
            i + 1,
            v.committed_at,
            v.size,
            if v.superseded_at.is_none() {
                "(head)"
            } else {
                ""
            }
        );
    }

    // Check out revision 2 by its commit time.
    let r2 = &hist[1];
    let r2_text = c.read_to_vec("/notebook", Some(r2.committed_at)).unwrap();
    println!(
        "  checkout of r2: {}",
        String::from_utf8_lossy(&r2_text).trim_end()
    );

    // The same history is reachable through the NFS namespace extension.
    println!("\n== NFS front end: cat /notebook@<time> ==");
    let t2 = r2.committed_at.as_nanos();
    let attr = nfs.lookup(&format!("/notebook@{t2}")).unwrap();
    let bytes = nfs.read(attr.handle, 0, 64).unwrap();
    println!(
        "  /notebook@{t2} -> {}",
        String::from_utf8_lossy(&bytes).trim_end()
    );
    assert_eq!(bytes, r2_text, "/notebook@<t2> reads r2");

    // Delete the file; `ls /` through NFS shows it gone now, present then.
    c.p_unlink("/notebook").unwrap();
    let t_alive = r2.committed_at.as_nanos();
    println!("\n== after rm: ls / now vs then ==");
    let ls = |path: &str| -> Vec<String> {
        nfs.readdir(path).unwrap().into_iter().map(|(n, _)| n).collect()
    };
    let (now, then) = (ls("/"), ls(&format!("/@{t_alive}")));
    println!("  ls /            -> {now:?}");
    println!("  ls /@{t_alive} -> {then:?}");
    assert!(!now.iter().any(|n| n == "notebook"), "ls / lists the removed file");
    assert!(then.iter().any(|n| n == "notebook"), "ls /@<t_alive> lacks the file");

    // Undelete it as of revision 4 (the last one).
    let r4 = hist.last().unwrap();
    c.p_undelete("/notebook", r4.committed_at).unwrap();
    println!(
        "\nundeleted /notebook as of r4: {}",
        String::from_utf8_lossy(&c.read_to_vec("/notebook", None).unwrap()).trim_end()
    );

    // Run the vacuum cleaner; history keeps working, served from archives.
    println!("\n== vacuum cleaner sweep ==");
    let report = vacuum_all(&fs, DeviceId::DEFAULT).unwrap();
    assert!(report.failed.is_empty(), "vacuum failed: {:?}", report.failed);
    for (name, stats) in report.vacuumed {
        if stats.archived + stats.discarded > 0 {
            println!(
                "  {name}: kept {}, archived {}, discarded {}",
                stats.kept, stats.archived, stats.discarded
            );
        }
    }
    let text = c.read_to_vec("/notebook", Some(r2.committed_at)).unwrap();
    println!(
        "  r2 after vacuum (from the archive): {}",
        String::from_utf8_lossy(&text).trim_end()
    );
    assert_eq!(text, r2_text, "the archive serves r2 as it was");
    assert_eq!(fs.db().check_all(), [], "pg_check after the sweep");
    assert_eq!(fs.check(), [], "the file system's own check after the sweep");
}
