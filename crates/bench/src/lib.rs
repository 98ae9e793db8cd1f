//! Benchmark harnesses for the Inversion paper's evaluation.
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_naming` | Table 1 — naming entries for `/etc/passwd` |
//! | `table2_types` | Table 2 — example file types and functions |
//! | `fig3_create` | Figure 3 — 25 MB file creation time |
//! | `fig4_random_byte` | Figure 4 — random single-byte access |
//! | `fig5_reads` | Figure 5 — read throughput |
//! | `fig6_writes` | Figure 6 — write throughput |
//! | `table3_full` | Table 3 — all nine operations, three configurations |
//! | `ston93_local` | the \[STON93\] local-benchmark aside |
//! | `ablations` | design-choice ablations (DESIGN.md §4) |
//!
//! Methodology: every byte moves through the real implementation (buffer
//! cache, heap, B-tree, protocol codecs); device and network costs accrue on
//! the shared [`simdev::SimClock`], and harnesses report *simulated*
//! seconds alongside the paper's numbers. We reproduce the shape, not the
//! wall-clock of 1993 hardware; see `EXPERIMENTS.md`.

pub mod extent;
pub mod report;
pub mod testbed;
pub mod torture;
pub mod workload;

pub use report::{print_comparison, print_header, Comparison};
pub use testbed::{InversionTestbed, NfsTestbed};
pub use workload::{run_suite, BenchFs, SuiteResult, MB};
