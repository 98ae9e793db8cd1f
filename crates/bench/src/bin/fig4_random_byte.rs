//! Figure 4 — "Random byte access": latency to read or write a single byte
//! at a random location in the 25 MB file, caches cold. "For single-byte
//! reads, Inversion gets 70 percent of the throughput of NFS. Single-byte
//! writes are slightly worse; Inversion is 61 percent of NFS."

use bench::report::{self, print_comparison, print_header, Comparison};
use bench::testbed::{InversionTestbed, NfsTestbed};
use bench::workload::{measure_byte_ops, measure_create, InversionRemote, UltrixNfs, MB};

/// Runs the figure's pathname resolution as POSTQUEL — a `naming.file`
/// equality pin — and reports whether the cost-based planner resolved it
/// to `naming_file_idx`. CI asserts `index_scan_chosen` stays true.
fn planner_probe(db: &minidb::Db) -> String {
    let mut s = db.begin().expect("begin planner probe");
    let oid = {
        let r = s
            .query("retrieve (n.file) from n in naming limit 1")
            .expect("sample a naming oid");
        match r.rows[0][0] {
            minidb::Datum::Oid(o) => o,
            ref other => panic!("naming.file is an oid, got {other:?}"),
        }
    };
    let before = db.stats();
    let hits = s
        .query(&format!(
            "retrieve (n.filename) from n in naming where n.file = {oid}"
        ))
        .expect("planner probe lookup");
    let d = db.stats().delta(&before);
    s.commit().expect("commit planner probe");
    let chose_index = d.planner.index_scans_chosen >= 1 && d.planner.seq_scans_chosen == 0;
    format!(
        "{{\"query\":\"retrieve (n.filename) from n in naming where n.file = <oid>\",\
         \"rows\":{},\"plans_built\":{},\"index_scans_chosen\":{},\
         \"seq_scans_chosen\":{},\"index_scan_chosen\":{}}}",
        hits.rows.len(),
        d.planner.plans_built,
        d.planner.index_scans_chosen,
        d.planner.seq_scans_chosen,
        chose_index
    )
}

fn main() {
    print_header("Figure 4: random single-byte access (25 MB file)");
    eprintln!("preparing Inversion ...");
    let mut remote = InversionRemote::new(InversionTestbed::paper());
    measure_create(&mut remote, 25 * MB);
    let before = remote.testbed().fs.db().stats();
    let (inv_r, inv_w) = measure_byte_ops(&mut remote, 25 * MB, 10);
    let after = remote.testbed().fs.db().stats();

    eprintln!("preparing NFS ...");
    let mut nfs = UltrixNfs::new(NfsTestbed::paper());
    measure_create(&mut nfs, 25 * MB);
    let (nfs_r, nfs_w) = measure_byte_ops(&mut nfs, 25 * MB, 10);

    let systems = ["Inversion", "ULTRIX NFS"];
    let rows = [
        Comparison::new("read 1 byte", &[0.02, 0.01], &[inv_r, nfs_r]),
        Comparison::new("write 1 byte", &[0.03, 0.02], &[inv_w, nfs_w]),
    ];
    print_comparison(&systems, &rows);
    println!();
    println!(
        "Inversion read throughput vs NFS: {:.0}% (paper: 70%); write: {:.0}% (paper: 61%).",
        100.0 * nfs_r / inv_r,
        100.0 * nfs_w / inv_w
    );

    if report::wants_json() {
        let doc = report::bench_json(
            "fig4_random_byte",
            &systems,
            &rows,
            &[
                ("minidb_stats_delta", after.delta(&before).to_json()),
                ("inv_stats", remote.testbed().fs.stats().to_json()),
                ("planner", planner_probe(remote.testbed().fs.db())),
            ],
        );
        report::write_bench_json("fig4_random_byte", &doc).expect("write BENCH json");
    }
}
