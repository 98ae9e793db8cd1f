//! Figure 6 — "Write throughput": the read tests repeated as writes. "In
//! these tests, the effect of the PRESTOserve board used by NFS is
//! dramatic. ... the NFS measurements show no degradation due to random
//! accesses, since the whole 1MByte write fits in the PRESTOserve cache."

use bench::report::{self, print_comparison, print_header, Comparison};
use bench::testbed::{InversionTestbed, NfsTestbed};
use bench::workload::{measure_create, measure_write_ops, InversionRemote, UltrixNfs, MB};

fn main() {
    print_header("Figure 6: write throughput (1 MB into a 25 MB file)");
    eprintln!("preparing Inversion ...");
    let mut remote = InversionRemote::new(InversionTestbed::paper());
    measure_create(&mut remote, 25 * MB);
    let before = remote.testbed().fs.db().stats();
    let (i1, iseq, irand) = measure_write_ops(&mut remote, 25 * MB);
    let after = remote.testbed().fs.db().stats();

    eprintln!("preparing NFS ...");
    let mut nfs = UltrixNfs::new(NfsTestbed::paper());
    measure_create(&mut nfs, 25 * MB);
    let (n1, nseq, nrand) = measure_write_ops(&mut nfs, 25 * MB);

    let systems = ["Inversion", "ULTRIX NFS"];
    let rows = [
        Comparison::new("single 1MByte write", &[4.6, 2.0], &[i1, n1]),
        Comparison::new(
            "1MByte written sequentially, page-sized",
            &[5.6, 1.7],
            &[iseq, nseq],
        ),
        Comparison::new(
            "1MByte written at random, page-sized",
            &[6.0, 1.7],
            &[irand, nrand],
        ),
    ];
    print_comparison(&systems, &rows);
    println!();
    println!(
        "Inversion throughput vs NFS — single: {:.0}% (paper 43%), sequential: {:.0}% (paper 31%), random: {:.0}% (paper 28%).",
        100.0 * n1 / i1,
        100.0 * nseq / iseq,
        100.0 * nrand / irand
    );
    println!(
        "NFS sequential vs random write: {:.2}s vs {:.2}s — the paper sees no degradation (1 MB fits the PRESTOserve board).",
        nseq, nrand
    );

    if report::wants_json() {
        let doc = report::bench_json(
            "fig6_writes",
            &systems,
            &rows,
            &[
                ("minidb_stats_delta", after.delta(&before).to_json()),
                ("inv_stats", remote.testbed().fs.stats().to_json()),
            ],
        );
        report::write_bench_json("fig6_writes", &doc).expect("write BENCH json");
    }
}
