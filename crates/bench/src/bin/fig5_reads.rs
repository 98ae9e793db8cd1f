//! Figure 5 — "Read throughput": a single 1 MB transfer (Inversion at 80%
//! of NFS), sequential page-sized transfers (47%), and random page-sized
//! transfers (43%).

use bench::report::{self, print_comparison, print_header, Comparison};
use bench::testbed::{InversionTestbed, NfsTestbed};
use bench::workload::{measure_create, measure_read_ops, InversionRemote, UltrixNfs, MB};

fn main() {
    print_header("Figure 5: read throughput (1 MB from a 25 MB file)");
    eprintln!("preparing Inversion ...");
    let mut remote = InversionRemote::new(InversionTestbed::paper());
    measure_create(&mut remote, 25 * MB);
    let before = remote.testbed().fs.db().stats();
    let (i1, iseq, irand) = measure_read_ops(&mut remote, 25 * MB);
    let after = remote.testbed().fs.db().stats();

    eprintln!("preparing NFS ...");
    let mut nfs = UltrixNfs::new(NfsTestbed::paper());
    measure_create(&mut nfs, 25 * MB);
    let (n1, nseq, nrand) = measure_read_ops(&mut nfs, 25 * MB);

    let systems = ["Inversion", "ULTRIX NFS"];
    let rows = [
        Comparison::new("single 1MByte read", &[3.4, 2.8], &[i1, n1]),
        Comparison::new(
            "1MByte read sequentially, page-sized",
            &[4.8, 2.2],
            &[iseq, nseq],
        ),
        Comparison::new(
            "1MByte read at random, page-sized",
            &[5.5, 2.4],
            &[irand, nrand],
        ),
    ];
    print_comparison(&systems, &rows);
    println!();
    println!(
        "Inversion throughput vs NFS — single: {:.0}% (paper 80%), sequential: {:.0}% (paper 47%), random: {:.0}% (paper 43%).",
        100.0 * n1 / i1,
        100.0 * nseq / iseq,
        100.0 * nrand / irand
    );

    if report::wants_json() {
        let doc = report::bench_json(
            "fig5_reads",
            &systems,
            &rows,
            &[
                ("minidb_stats_delta", after.delta(&before).to_json()),
                ("inv_stats", remote.testbed().fs.stats().to_json()),
            ],
        );
        report::write_bench_json("fig5_reads", &doc).expect("write BENCH json");
    }
}
