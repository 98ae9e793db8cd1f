//! A vendored, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace ships
//! the macro/type surface its `harness = false` benches use:
//! [`Criterion::bench_function`], [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Like the real crate, a
//! group runs only the benchmarks whose name contains the first non-flag
//! command-line argument (`cargo bench --bench micro -- wal_append`).
//!
//! Timing is a plain median-of-samples wall-clock measurement — good enough
//! to rank implementations and catch order-of-magnitude regressions, with
//! none of the real crate's statistics, plotting, or baselines.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(300);
/// Timed samples collected per benchmark.
const SAMPLES: usize = 11;

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    /// Only benchmarks whose name contains this run.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the name filter from the command line, as `cargo bench --
    /// <filter>` passes it: the first argument that is not a flag.
    pub fn configure_from_args(self) -> Self {
        self.with_args(std::env::args().skip(1))
    }

    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.filter = args.into_iter().find(|a| !a.starts_with('-'));
        self
    }

    /// Runs `f` as the benchmark `name`, printing a per-iteration time,
    /// unless the name does not contain the filter.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.filter.as_ref().is_some_and(|want| !name.contains(want.as_str())) {
            return self;
        }
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        // Calibrate: grow the iteration count until one sample is long
        // enough to time reliably.
        loop {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            if b.elapsed * (SAMPLES as u32) >= TARGET || b.iters >= 1 << 20 {
                break;
            }
            let grow = if b.elapsed.is_zero() {
                16
            } else {
                (TARGET.as_nanos() / (SAMPLES as u128) / b.elapsed.as_nanos().max(1)).clamp(2, 16)
                    as u64
            };
            b.iters = (b.iters * grow).min(1 << 20);
        }
        let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            samples.push(b.elapsed);
        }
        samples.sort();
        let median = samples[SAMPLES / 2];
        let per_iter = median.as_nanos() as f64 / b.iters as f64;
        println!("{name:<40} {:>12}/iter  ({} iters/sample)", fmt_ns(per_iter), b.iters);
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Passed to the closure given to [`Criterion::bench_function`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `f` (setup outside the closure is not
    /// measured).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Bundles benchmark functions into a group runner, mirroring criterion's
/// macro of the same name (the plain `name, fn...` form only).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_times() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("noop", |b| {
            calls += 1;
            b.iter(|| black_box(1 + 1))
        });
        assert!(calls > 0);
    }

    #[test]
    fn a_filter_skips_names_that_do_not_contain_it() {
        let args = ["--bench", "wal_append", "--nocapture"].map(String::from);
        let mut c = Criterion::default().with_args(args);
        let mut ran = Vec::new();
        for name in ["wal_append/64", "page/insert", "wal_append/8k"] {
            c.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| black_box(1 + 1))
            });
        }
        ran.dedup();
        assert_eq!(ran, ["wal_append/64", "wal_append/8k"]);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
