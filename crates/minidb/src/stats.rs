//! Queryable statistics: cheap counters for every subsystem, exposed as
//! virtual system relations.
//!
//! POSTGRES kept per-subsystem performance counters and made them visible
//! through ordinary relations so the query language could inspect the
//! system's own behaviour. This module is the reproduction's equivalent: a
//! central [`StatsRegistry`] of relaxed atomic counters that the buffer
//! cache, lock manager, transaction system, access methods, storage
//! manager, and vacuum cleaner bump as they work, plus a snapshot type
//! ([`StatsSnapshot`]) that freezes everything for reporting.
//!
//! The executor surfaces the registry as **virtual system relations** —
//! `pg_stat_buffer`, `pg_stat_lock`, `pg_stat_xact`, `pg_stat_relation`,
//! and `pg_stat_device` — scannable with ordinary POSTQUEL:
//!
//! ```text
//! retrieve (s.hits, s.misses) from s in pg_stat_buffer
//! ```
//!
//! Layers above the engine (Inversion's `inv_stat`, for instance) register
//! their own virtual relations through [`VirtualTables`].
//!
//! Counters use `Ordering::Relaxed` throughout: they are monotone event
//! counts, never used for synchronisation, so the cheapest ordering is the
//! right one. Snapshots are therefore not a consistent cut across threads,
//! which is fine for observability — each individual counter is exact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::buffer::BufferStats;
use crate::datum::{Row, Schema};
use crate::ids::DeviceId;

/// A monotone event counter, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A monotone high-water mark, safe to observe from any thread.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// A zeroed gauge.
    pub const fn new() -> MaxGauge {
        MaxGauge(AtomicU64::new(0))
    }

    /// Raises the mark to `v` if `v` exceeds it.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// The current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of latency buckets in a [`LatencyHistogram`].
pub const LATENCY_BUCKETS: usize = 7;

/// Upper bounds (exclusive, nanoseconds) of the histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BOUNDS_NS: [u64; LATENCY_BUCKETS - 1] = [
    10_000,        // < 10 µs
    100_000,       // < 100 µs
    1_000_000,     // < 1 ms
    10_000_000,    // < 10 ms
    100_000_000,   // < 100 ms
    1_000_000_000, // < 1 s
];

/// A log-scale latency histogram over *simulated* time.
///
/// Device operations advance the [`simdev`] clock by their modeled cost;
/// the storage manager measures that advance and records it here, so the
/// histogram reflects RZ58 seeks and jukebox platter loads, not host time.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [Counter; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation of `ns` simulated nanoseconds.
    pub fn record(&self, ns: u64) {
        let i = LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| ns < b)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.buckets[i].bump();
    }

    /// The bucket counts.
    pub fn snapshot(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].get())
    }
}

/// Transaction-system counters.
#[derive(Debug, Default)]
pub struct XactCounters {
    /// Transactions committed.
    pub commits: Counter,
    /// Transactions aborted.
    pub aborts: Counter,
    /// Scans executed against an `AsOf` (time-travel) snapshot.
    pub time_travel_reads: Counter,
    /// Commit batches that durably committed more than one record with a
    /// single status-log sync.
    pub group_commits: Counter,
    /// Commit records persisted through the group-commit coordinator
    /// (every committed write transaction counts once, batched or not).
    pub batched_records: Counter,
    /// Log forces issued by commit processing: one per solo commit, one
    /// per batch under group commit, so this stays *below* `commits`
    /// under load. Read-only commits issue none.
    pub sync_calls: Counter,
    /// Commit latency (begin-to-durable, simulated time) distribution.
    pub commit_latency: LatencyHistogram,
}

/// Write-ahead-log and checkpointer counters.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// REDO records appended to the log.
    pub records_appended: Counter,
    /// Record bytes appended (headers included).
    pub bytes_appended: Counter,
    /// Log forces: block writes plus one sync that advanced the durable
    /// horizon. Group commit amortizes these across a batch.
    pub log_forces: Counter,
    /// Checkpoint cycles completed.
    pub checkpoints: Counter,
    /// Dirty pages written out by checkpoint cycles.
    pub ckpt_pages_drained: Counter,
    /// Pages fixed up by first-touch REDO replay after a crash.
    pub replayed_pages: Counter,
    /// Individual REDO records applied during replay.
    pub replayed_records: Counter,
}

/// Heap access-method counters.
#[derive(Debug, Default)]
pub struct HeapCounters {
    /// Full-relation scans.
    pub scans: Counter,
    /// Single-tuple fetches by TID.
    pub fetches: Counter,
    /// Tuples appended (inserts and the insert half of updates).
    pub appends: Counter,
}

/// B-tree access-method counters.
#[derive(Debug, Default)]
pub struct BTreeCounters {
    /// Key searches and range scans.
    pub searches: Counter,
    /// Entries inserted.
    pub inserts: Counter,
    /// Node splits (the paper's interleaved-write culprit).
    pub splits: Counter,
    /// Index pages forced out by eager write-through.
    pub page_writes: Counter,
}

/// Lock-manager counters.
#[derive(Debug, Default)]
pub struct LockCounters {
    /// Locks granted.
    pub acquisitions: Counter,
    /// Wait episodes (a request that had to block at least once).
    pub waits: Counter,
    /// Requests refused because they would close a waits-for cycle.
    pub deadlocks: Counter,
    /// Requests that gave up after the lock timeout.
    pub timeouts: Counter,
}

/// Query-planner counters, surfaced as the `pg_stat_planner` virtual
/// relation.
#[derive(Debug, Default)]
pub struct PlannerCounters {
    /// Statements planned (one per bind → plan → optimize pass).
    pub plans_built: Counter,
    /// Heap scans the optimizer resolved to a B-tree index scan.
    pub index_scans_chosen: Counter,
    /// Heap scans the optimizer left as sequential scans.
    pub seq_scans_chosen: Counter,
    /// Nested-loop join nodes planned.
    pub joins_planned: Counter,
}

/// Device slots tracked per registry. [`DeviceId`]s at or above this index
/// share the last slot; real configurations use a handful of devices.
pub const DEVICE_SLOTS: usize = 16;

/// Per-device storage-manager I/O counters.
#[derive(Debug, Default)]
pub struct DeviceIoCounters {
    /// Page reads issued to the device manager.
    pub reads: Counter,
    /// Page writes (including blank extensions) issued.
    pub writes: Counter,
    /// Total simulated nanoseconds spent in reads.
    pub read_ns: Counter,
    /// Total simulated nanoseconds spent in writes.
    pub write_ns: Counter,
    /// Read latency distribution.
    pub read_hist: LatencyHistogram,
    /// Write latency distribution.
    pub write_hist: LatencyHistogram,
}

/// Per-device I/O scheduler counters (see [`crate::io`]), surfaced as the
/// `pg_stat_io` virtual relation.
#[derive(Debug, Default)]
pub struct IoQueueCounters {
    /// Requests submitted to the queue (reads, writes, and combines).
    pub submitted: Counter,
    /// Requests that left the queue (served or benignly dropped).
    pub completed: Counter,
    /// Requests serviced at the same or the next elevator key as their
    /// predecessor — the sequential runs the C-SCAN sweep manufactured.
    pub batched_neighbors: Counter,
    /// Elevator wraps (the hand ran past the top of the key space).
    pub elevator_passes: Counter,
    /// High-water mark of the queue depth.
    pub queue_depth_hw: MaxGauge,
    /// Queue barriers executed (`sync` drains).
    pub barrier_waits: Counter,
}

/// The central statistics registry, one per [`crate::Db`].
///
/// Every field is independently updatable with relaxed atomics; the
/// registry is shared (via `Arc`) with the lock manager and storage
/// manager so instrumentation costs one `fetch_add` per event.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    /// Transaction counters.
    pub xact: XactCounters,
    /// Write-ahead-log and checkpointer counters.
    pub wal: WalCounters,
    /// Heap counters.
    pub heap: HeapCounters,
    /// B-tree counters.
    pub btree: BTreeCounters,
    /// Lock-manager counters.
    pub lock: LockCounters,
    /// Query-planner counters.
    pub planner: PlannerCounters,
    /// Vacuum passes completed.
    pub vacuum_passes: Counter,
    /// Per-device I/O, indexed by [`DeviceId`] (clamped to [`DEVICE_SLOTS`]).
    pub dev: [DeviceIoCounters; DEVICE_SLOTS],
    /// Per-device I/O scheduler counters, indexed like `dev`.
    pub io: [IoQueueCounters; DEVICE_SLOTS],
}

impl StatsRegistry {
    /// A zeroed registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// The I/O counters for `dev`.
    pub fn device(&self, dev: DeviceId) -> &DeviceIoCounters {
        &self.dev[(dev.0 as usize).min(DEVICE_SLOTS - 1)]
    }

    /// The I/O scheduler counters for `dev`.
    pub fn io_queue(&self, dev: DeviceId) -> &IoQueueCounters {
        &self.io[(dev.0 as usize).min(DEVICE_SLOTS - 1)]
    }
}

/// Frozen transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XactStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// Time-travel scans.
    pub time_travel_reads: u64,
    /// Multi-record commit batches.
    pub group_commits: u64,
    /// Commit records persisted via the coordinator.
    pub batched_records: u64,
    /// Log forces issued by commits.
    pub sync_calls: u64,
    /// Commit latency bucket counts (bounds in [`LATENCY_BOUNDS_NS`]).
    pub commit_latency: [u64; LATENCY_BUCKETS],
}

/// Frozen WAL and checkpointer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// REDO records appended.
    pub records_appended: u64,
    /// Record bytes appended.
    pub bytes_appended: u64,
    /// Log forces (block writes + one sync each).
    pub log_forces: u64,
    /// Checkpoint cycles completed.
    pub checkpoints: u64,
    /// Dirty pages drained by checkpoints.
    pub ckpt_pages_drained: u64,
    /// Pages replayed on first touch after a crash.
    pub replayed_pages: u64,
    /// REDO records applied during replay.
    pub replayed_records: u64,
}

/// Frozen heap counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapOpStats {
    /// Full-relation scans.
    pub scans: u64,
    /// Single-tuple fetches.
    pub fetches: u64,
    /// Tuples appended.
    pub appends: u64,
}

/// Frozen B-tree counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeOpStats {
    /// Key searches and range scans.
    pub searches: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Node splits.
    pub splits: u64,
    /// Eagerly written index pages.
    pub page_writes: u64,
}

/// Frozen planner counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Statements planned.
    pub plans_built: u64,
    /// Scans resolved to index scans.
    pub index_scans_chosen: u64,
    /// Scans left sequential.
    pub seq_scans_chosen: u64,
    /// Nested-loop joins planned.
    pub joins_planned: u64,
}

/// Frozen lock counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Locks granted.
    pub acquisitions: u64,
    /// Wait episodes.
    pub waits: u64,
    /// Deadlocks detected.
    pub deadlocks: u64,
    /// Lock timeouts.
    pub timeouts: u64,
}

/// Frozen per-device I/O counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceIoStats {
    /// The device id.
    pub device: u8,
    /// The device manager's name.
    pub name: String,
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
    /// Simulated nanoseconds reading.
    pub read_ns: u64,
    /// Simulated nanoseconds writing.
    pub write_ns: u64,
    /// Read latency bucket counts (bounds in [`LATENCY_BOUNDS_NS`]).
    pub read_hist: [u64; LATENCY_BUCKETS],
    /// Write latency bucket counts.
    pub write_hist: [u64; LATENCY_BUCKETS],
    /// Scheduler requests submitted.
    pub io_submitted: u64,
    /// Scheduler requests completed.
    pub io_completed: u64,
    /// Requests serviced adjacent to their predecessor.
    pub io_batched_neighbors: u64,
    /// Elevator wraps.
    pub io_elevator_passes: u64,
    /// Queue depth high-water mark.
    pub io_queue_depth_hw: u64,
    /// Queue barriers executed.
    pub io_barrier_waits: u64,
}

/// A frozen copy of every counter the engine keeps, including the buffer
/// cache's [`BufferStats`]. Produced by [`crate::Db::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Buffer cache counters.
    pub buffer: BufferStats,
    /// Transaction counters.
    pub xact: XactStats,
    /// WAL and checkpointer counters.
    pub wal: WalStats,
    /// Heap counters.
    pub heap: HeapOpStats,
    /// B-tree counters.
    pub btree: BTreeOpStats,
    /// Lock counters.
    pub lock: LockStats,
    /// Planner counters.
    pub planner: PlannerStats,
    /// Vacuum passes completed.
    pub vacuum_passes: u64,
    /// Per-device I/O, one entry per registered device.
    pub devices: Vec<DeviceIoStats>,
}

fn sub(a: u64, b: u64) -> u64 {
    a.saturating_sub(b)
}

impl StatsSnapshot {
    /// Freezes the non-buffer, non-device counters of `reg`.
    pub fn from_registry(reg: &StatsRegistry) -> StatsSnapshot {
        StatsSnapshot {
            buffer: BufferStats::default(),
            xact: XactStats {
                commits: reg.xact.commits.get(),
                aborts: reg.xact.aborts.get(),
                time_travel_reads: reg.xact.time_travel_reads.get(),
                group_commits: reg.xact.group_commits.get(),
                batched_records: reg.xact.batched_records.get(),
                sync_calls: reg.xact.sync_calls.get(),
                commit_latency: reg.xact.commit_latency.snapshot(),
            },
            wal: WalStats {
                records_appended: reg.wal.records_appended.get(),
                bytes_appended: reg.wal.bytes_appended.get(),
                log_forces: reg.wal.log_forces.get(),
                checkpoints: reg.wal.checkpoints.get(),
                ckpt_pages_drained: reg.wal.ckpt_pages_drained.get(),
                replayed_pages: reg.wal.replayed_pages.get(),
                replayed_records: reg.wal.replayed_records.get(),
            },
            heap: HeapOpStats {
                scans: reg.heap.scans.get(),
                fetches: reg.heap.fetches.get(),
                appends: reg.heap.appends.get(),
            },
            btree: BTreeOpStats {
                searches: reg.btree.searches.get(),
                inserts: reg.btree.inserts.get(),
                splits: reg.btree.splits.get(),
                page_writes: reg.btree.page_writes.get(),
            },
            lock: LockStats {
                acquisitions: reg.lock.acquisitions.get(),
                waits: reg.lock.waits.get(),
                deadlocks: reg.lock.deadlocks.get(),
                timeouts: reg.lock.timeouts.get(),
            },
            planner: PlannerStats {
                plans_built: reg.planner.plans_built.get(),
                index_scans_chosen: reg.planner.index_scans_chosen.get(),
                seq_scans_chosen: reg.planner.seq_scans_chosen.get(),
                joins_planned: reg.planner.joins_planned.get(),
            },
            vacuum_passes: reg.vacuum_passes.get(),
            devices: Vec::new(),
        }
    }

    /// The counter growth since `baseline` (saturating per field).
    pub fn delta(&self, baseline: &StatsSnapshot) -> StatsSnapshot {
        let devices = self
            .devices
            .iter()
            .map(|d| {
                let base = baseline
                    .devices
                    .iter()
                    .find(|b| b.device == d.device)
                    .cloned()
                    .unwrap_or_default();
                DeviceIoStats {
                    device: d.device,
                    name: d.name.clone(),
                    reads: sub(d.reads, base.reads),
                    writes: sub(d.writes, base.writes),
                    read_ns: sub(d.read_ns, base.read_ns),
                    write_ns: sub(d.write_ns, base.write_ns),
                    read_hist: std::array::from_fn(|i| sub(d.read_hist[i], base.read_hist[i])),
                    write_hist: std::array::from_fn(|i| sub(d.write_hist[i], base.write_hist[i])),
                    io_submitted: sub(d.io_submitted, base.io_submitted),
                    io_completed: sub(d.io_completed, base.io_completed),
                    io_batched_neighbors: sub(
                        d.io_batched_neighbors,
                        base.io_batched_neighbors,
                    ),
                    io_elevator_passes: sub(d.io_elevator_passes, base.io_elevator_passes),
                    // A high-water mark is not a rate; the interval's mark
                    // is the current one.
                    io_queue_depth_hw: d.io_queue_depth_hw,
                    io_barrier_waits: sub(d.io_barrier_waits, base.io_barrier_waits),
                }
            })
            .collect();
        StatsSnapshot {
            buffer: BufferStats {
                hits: sub(self.buffer.hits, baseline.buffer.hits),
                misses: sub(self.buffer.misses, baseline.buffer.misses),
                evictions: sub(self.buffer.evictions, baseline.buffer.evictions),
                writebacks: sub(self.buffer.writebacks, baseline.buffer.writebacks),
                prefetches: sub(self.buffer.prefetches, baseline.buffer.prefetches),
                prefetch_hits: sub(self.buffer.prefetch_hits, baseline.buffer.prefetch_hits),
            },
            xact: XactStats {
                commits: sub(self.xact.commits, baseline.xact.commits),
                aborts: sub(self.xact.aborts, baseline.xact.aborts),
                time_travel_reads: sub(
                    self.xact.time_travel_reads,
                    baseline.xact.time_travel_reads,
                ),
                group_commits: sub(self.xact.group_commits, baseline.xact.group_commits),
                batched_records: sub(self.xact.batched_records, baseline.xact.batched_records),
                sync_calls: sub(self.xact.sync_calls, baseline.xact.sync_calls),
                commit_latency: std::array::from_fn(|i| {
                    sub(self.xact.commit_latency[i], baseline.xact.commit_latency[i])
                }),
            },
            wal: WalStats {
                records_appended: sub(self.wal.records_appended, baseline.wal.records_appended),
                bytes_appended: sub(self.wal.bytes_appended, baseline.wal.bytes_appended),
                log_forces: sub(self.wal.log_forces, baseline.wal.log_forces),
                checkpoints: sub(self.wal.checkpoints, baseline.wal.checkpoints),
                ckpt_pages_drained: sub(
                    self.wal.ckpt_pages_drained,
                    baseline.wal.ckpt_pages_drained,
                ),
                replayed_pages: sub(self.wal.replayed_pages, baseline.wal.replayed_pages),
                replayed_records: sub(self.wal.replayed_records, baseline.wal.replayed_records),
            },
            heap: HeapOpStats {
                scans: sub(self.heap.scans, baseline.heap.scans),
                fetches: sub(self.heap.fetches, baseline.heap.fetches),
                appends: sub(self.heap.appends, baseline.heap.appends),
            },
            btree: BTreeOpStats {
                searches: sub(self.btree.searches, baseline.btree.searches),
                inserts: sub(self.btree.inserts, baseline.btree.inserts),
                splits: sub(self.btree.splits, baseline.btree.splits),
                page_writes: sub(self.btree.page_writes, baseline.btree.page_writes),
            },
            lock: LockStats {
                acquisitions: sub(self.lock.acquisitions, baseline.lock.acquisitions),
                waits: sub(self.lock.waits, baseline.lock.waits),
                deadlocks: sub(self.lock.deadlocks, baseline.lock.deadlocks),
                timeouts: sub(self.lock.timeouts, baseline.lock.timeouts),
            },
            planner: PlannerStats {
                plans_built: sub(self.planner.plans_built, baseline.planner.plans_built),
                index_scans_chosen: sub(
                    self.planner.index_scans_chosen,
                    baseline.planner.index_scans_chosen,
                ),
                seq_scans_chosen: sub(
                    self.planner.seq_scans_chosen,
                    baseline.planner.seq_scans_chosen,
                ),
                joins_planned: sub(self.planner.joins_planned, baseline.planner.joins_planned),
            },
            vacuum_passes: sub(self.vacuum_passes, baseline.vacuum_passes),
            devices,
        }
    }

    /// Serializes the snapshot as a JSON object (hand-rolled: the build
    /// environment is offline, so no serde).
    pub fn to_json(&self) -> String {
        fn hist(h: &[u64]) -> String {
            let inner: Vec<String> = h.iter().map(u64::to_string).collect();
            format!("[{}]", inner.join(","))
        }
        let devices: Vec<String> = self
            .devices
            .iter()
            .map(|d| {
                format!(
                    "{{\"device\":{},\"name\":{},\"reads\":{},\"writes\":{},\
                     \"read_ns\":{},\"write_ns\":{},\"read_hist\":{},\"write_hist\":{},\
                     \"io_submitted\":{},\"io_completed\":{},\"io_batched_neighbors\":{},\
                     \"io_elevator_passes\":{},\"io_queue_depth_hw\":{},\"io_barrier_waits\":{}}}",
                    d.device,
                    json_string(&d.name),
                    d.reads,
                    d.writes,
                    d.read_ns,
                    d.write_ns,
                    hist(&d.read_hist),
                    hist(&d.write_hist),
                    d.io_submitted,
                    d.io_completed,
                    d.io_batched_neighbors,
                    d.io_elevator_passes,
                    d.io_queue_depth_hw,
                    d.io_barrier_waits,
                )
            })
            .collect();
        format!(
            "{{\"buffer\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"writebacks\":{},\
             \"prefetches\":{},\"prefetch_hits\":{}}},\
             \"lock\":{{\"acquisitions\":{},\"waits\":{},\"deadlocks\":{},\"timeouts\":{}}},\
             \"xact\":{{\"commits\":{},\"aborts\":{},\"time_travel_reads\":{},\
             \"group_commits\":{},\"batched_records\":{},\
             \"sync_calls\":{},\"commit_latency\":{}}},\
             \"wal\":{{\"records_appended\":{},\"bytes_appended\":{},\"log_forces\":{},\
             \"checkpoints\":{},\"ckpt_pages_drained\":{},\"replayed_pages\":{},\
             \"replayed_records\":{}}},\
             \"heap\":{{\"scans\":{},\"fetches\":{},\"appends\":{}}},\
             \"btree\":{{\"searches\":{},\"inserts\":{},\"splits\":{},\"page_writes\":{}}},\
             \"planner\":{{\"plans_built\":{},\"index_scans_chosen\":{},\
             \"seq_scans_chosen\":{},\"joins_planned\":{}}},\
             \"vacuum_passes\":{},\
             \"devices\":[{}]}}",
            self.buffer.hits,
            self.buffer.misses,
            self.buffer.evictions,
            self.buffer.writebacks,
            self.buffer.prefetches,
            self.buffer.prefetch_hits,
            self.lock.acquisitions,
            self.lock.waits,
            self.lock.deadlocks,
            self.lock.timeouts,
            self.xact.commits,
            self.xact.aborts,
            self.xact.time_travel_reads,
            self.xact.group_commits,
            self.xact.batched_records,
            self.xact.sync_calls,
            hist(&self.xact.commit_latency),
            self.wal.records_appended,
            self.wal.bytes_appended,
            self.wal.log_forces,
            self.wal.checkpoints,
            self.wal.ckpt_pages_drained,
            self.wal.replayed_pages,
            self.wal.replayed_records,
            self.heap.scans,
            self.heap.fetches,
            self.heap.appends,
            self.btree.searches,
            self.btree.inserts,
            self.btree.splits,
            self.btree.page_writes,
            self.planner.plans_built,
            self.planner.index_scans_chosen,
            self.planner.seq_scans_chosen,
            self.planner.joins_planned,
            self.vacuum_passes,
            devices.join(","),
        )
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A row producer for one virtual relation. Called at scan time; must be
/// cheap and must not call back into the executing session.
pub type VirtualRowsFn = Arc<dyn Fn() -> Vec<Row> + Send + Sync>;

/// One registered virtual relation: a fixed schema plus a row producer.
#[derive(Clone)]
pub struct VirtualTable {
    /// Column names and types of the relation.
    pub schema: Schema,
    /// Produces the current rows.
    pub rows: VirtualRowsFn,
}

/// The extension point for layered systems: relations that exist only as
/// row producers, scannable from the query language but backed by no heap.
/// The engine's own `pg_stat_*` relations are built in; Inversion registers
/// `inv_stat` here.
#[derive(Default)]
pub struct VirtualTables {
    map: RwLock<HashMap<String, VirtualTable>>,
}

impl VirtualTables {
    /// An empty registry.
    pub fn new() -> VirtualTables {
        VirtualTables::default()
    }

    /// Registers (or replaces) the virtual relation `name`.
    pub fn register(&self, name: &str, schema: Schema, rows: VirtualRowsFn) {
        self.map
            .write()
            .insert(name.to_string(), VirtualTable { schema, rows });
    }

    /// Looks up a virtual relation.
    pub fn get(&self, name: &str) -> Option<VirtualTable> {
        self.map.read().get(name).cloned()
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{Datum, TypeId};

    #[test]
    fn counters_bump_and_add() {
        let c = Counter::new();
        c.bump();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let h = LatencyHistogram::default();
        h.record(1_000); // < 10 µs
        h.record(50_000); // < 100 µs
        h.record(5_000_000); // < 10 ms
        h.record(2_000_000_000); // >= 1 s
        assert_eq!(h.snapshot(), [1, 1, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn device_slot_clamps() {
        let reg = StatsRegistry::new();
        reg.device(DeviceId(200)).reads.bump();
        assert_eq!(reg.dev[DEVICE_SLOTS - 1].reads.get(), 1);
        reg.device(DeviceId(0)).writes.add(3);
        assert_eq!(reg.dev[0].writes.get(), 3);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let reg = StatsRegistry::new();
        reg.xact.commits.add(5);
        reg.lock.waits.add(2);
        let t0 = StatsSnapshot::from_registry(&reg);
        reg.xact.commits.add(3);
        reg.lock.waits.add(1);
        reg.heap.scans.bump();
        let t1 = StatsSnapshot::from_registry(&reg);
        let d = t1.delta(&t0);
        assert_eq!(d.xact.commits, 3);
        assert_eq!(d.lock.waits, 1);
        assert_eq!(d.heap.scans, 1);
        assert_eq!(d.xact.aborts, 0);
    }

    #[test]
    fn json_roundtrip_shape() {
        let reg = StatsRegistry::new();
        reg.btree.splits.add(7);
        let mut snap = StatsSnapshot::from_registry(&reg);
        snap.devices.push(DeviceIoStats {
            device: 0,
            name: "rz\"58".into(),
            reads: 1,
            ..DeviceIoStats::default()
        });
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"splits\":7"));
        assert!(j.contains("\\\"58"), "device name must be escaped: {j}");
        // Balanced braces and brackets — cheap well-formedness check.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn virtual_tables_register_and_scan() {
        let vt = VirtualTables::new();
        vt.register(
            "v_test",
            Schema::new([("n", TypeId::INT4)]),
            Arc::new(|| vec![vec![Datum::Int4(7)]]),
        );
        let t = vt.get("v_test").unwrap();
        assert_eq!(t.schema.columns[0].name, "n");
        assert_eq!((t.rows)(), vec![vec![Datum::Int4(7)]]);
        assert!(vt.get("missing").is_none());
        assert_eq!(vt.names(), vec!["v_test".to_string()]);
    }
}
