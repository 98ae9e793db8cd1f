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
//! # One declaration per counter
//!
//! Every counter group is one [`stat_table!`](crate::stat_table): a list of
//! `field: Kind` lines, each with its doc string, from which the live
//! struct, its frozen twin, `freeze`, `delta`, the JSON object and the
//! group's relation columns and row are all generated. **To add a counter,
//! add one line to its table and bump it**: it then appears in
//! [`crate::Db::stats`], `delta`, `to_json`, the group's `pg_stat_*`
//! relation and the query shell's `\stats` with no further edit.
//!
//! # Virtual relations
//!
//! The groups are surfaced as **virtual system relations** — `pg_stat_buffer`,
//! `pg_stat_lock`, `pg_stat_xact`, `pg_stat_wal`, `pg_stat_relation`,
//! `pg_stat_planner`, `pg_stat_device`, `pg_stat_io` (and the verifier's
//! `pg_check`) — scannable with ordinary POSTQUEL:
//!
//! ```text
//! retrieve (s.hits, s.misses) from s in pg_stat_buffer
//! ```
//!
//! They live in the same [`VirtualTables`] registry that layers above the
//! engine (Inversion's `inv_stat`, for instance) register their own
//! relations in; the engine fills in its own at construction.
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
use crate::datum::{Column, Datum, Row, Schema, TypeId};
use crate::db::Db;
use crate::ids::DeviceId;

/// A monotone event counter, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
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
}

/// How a frozen value renders: its relation column type, its cell, and its
/// JSON. Implemented for the frozen forms of the three metric kinds and for
/// the key types (`u8`, `String`) a frozen group may carry beside them.
pub trait Value {
    /// Column type in a generated relation.
    const TYPE: TypeId;
    /// The relation cell.
    fn datum(&self) -> Datum;
    /// The JSON rendering.
    fn json(&self) -> String;
}

impl Value for u64 {
    const TYPE: TypeId = TypeId::INT8;
    fn datum(&self) -> Datum {
        Datum::Int8(*self as i64)
    }
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Value for u8 {
    const TYPE: TypeId = TypeId::INT4;
    fn datum(&self) -> Datum {
        Datum::Int4(i32::from(*self))
    }
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Value for String {
    const TYPE: TypeId = TypeId::TEXT;
    fn datum(&self) -> Datum {
        Datum::Text(self.clone())
    }
    fn json(&self) -> String {
        json_string(self)
    }
}

/// Bucket counts render as `[n,n,…]`, in JSON and (as text) in a relation.
impl Value for [u64; LATENCY_BUCKETS] {
    const TYPE: TypeId = TypeId::TEXT;
    fn datum(&self) -> Datum {
        Datum::Text(self.json())
    }
    fn json(&self) -> String {
        let inner: Vec<String> = self.iter().map(u64::to_string).collect();
        format!("[{}]", inner.join(","))
    }
}

/// The per-kind behaviour of one [`stat_table!`](crate::stat_table) field:
/// how the live metric freezes, and how two frozen values subtract.
pub trait Metric {
    /// The frozen, plain-data value.
    type Frozen: Value + Clone + Default + PartialEq + Eq + std::fmt::Debug;
    /// Reads the live value.
    fn freeze(&self) -> Self::Frozen;
    /// The growth from `base` to `cur`.
    fn delta(cur: &Self::Frozen, base: &Self::Frozen) -> Self::Frozen;
}

impl Metric for Counter {
    type Frozen = u64;
    fn freeze(&self) -> u64 {
        self.get()
    }
    fn delta(cur: &u64, base: &u64) -> u64 {
        cur.saturating_sub(*base)
    }
}

impl Metric for MaxGauge {
    type Frozen = u64;
    fn freeze(&self) -> u64 {
        self.get()
    }
    /// A high-water mark is not a rate; the interval's mark is the current
    /// one.
    fn delta(cur: &u64, _base: &u64) -> u64 {
        *cur
    }
}

impl Metric for LatencyHistogram {
    type Frozen = [u64; LATENCY_BUCKETS];
    fn freeze(&self) -> Self::Frozen {
        std::array::from_fn(|i| self.buckets[i].get())
    }
    fn delta(cur: &Self::Frozen, base: &Self::Frozen) -> Self::Frozen {
        std::array::from_fn(|i| cur[i].saturating_sub(base[i]))
    }
}

/// How a group's metric fields show up in one relation: `view(label)` is
/// the column name, or `None` to leave the field out. The same view is
/// handed to a group's `columns` and `datums`, so a schema and its rows
/// cannot disagree.
pub type View<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The [`View`] that keeps every field under its own label.
pub fn all(label: &str) -> Option<String> {
    Some(label.to_string())
}

/// Renders `fields` as a JSON object; the values are already JSON.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// The relation label of a table field: the `as "label"` override if there
/// is one, the field name otherwise.
#[doc(hidden)]
#[macro_export]
macro_rules! stat_label {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $label:literal) => {
        $label
    };
}

/// Declares one group of metrics, each **once**: `field: Kind` with its doc
/// string, `Kind` one of the three [`Metric`](crate::stats::Metric) kinds.
///
/// ```text
/// stat_table! {
///     /// Doc of the live struct.
///     live LockCounters;
///     frozen LockStats;
///     /// Locks granted.
///     acquisitions: Counter,
///     /// …
/// }
/// ```
///
/// generates
///
/// * `pub struct LockCounters { pub acquisitions: Counter, … }` (`Default`)
///   with `freeze(&self) -> LockStats`;
/// * `pub struct LockStats { pub acquisitions: u64, … }` with
///   `delta(&self, base)`, `to_json()` (keys are
///   the field names), `columns(view)` / `datums(&self, view)` (the group's
///   relation schema and row — see [`View`](crate::stats::View)) and
///   `LABELS`.
///
/// `field as "label": Kind` names the relation column differently from the
/// field. `live Name { extra fields }` adds hand-declared fields to the live
/// struct only (they must be `Default`); `frozen Name [key: Type, …]` adds
/// key fields to the frozen struct only — `freeze` takes them as arguments,
/// `delta` keeps them, and they lead the JSON object and every relation
/// row. Omitting the `live` line declares a frozen struct whose live tally
/// is kept elsewhere.
#[macro_export]
macro_rules! stat_table {
    (
        $(#[$fattr:meta])*
        frozen $Frozen:ident $([ $( $(#[$kattr:meta])* $key:ident : $KeyTy:ty ),* $(,)? ])?;
        $( $(#[$attr:meta])* $field:ident $(as $label:literal)? : $Kind:ty ),* $(,)?
    ) => {
        $(#[$fattr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $Frozen {
            $($( $(#[$kattr])* pub $key: $KeyTy, )*)?
            $( $(#[$attr])* pub $field: <$Kind as $crate::stats::Metric>::Frozen, )*
        }

        impl $Frozen {
            /// The relation label of each metric field, in declaration
            /// order.
            pub const LABELS: &'static [&'static str] =
                &[ $( $crate::stat_label!($field $(, $label)?) ),* ];

            /// The group's relation columns: every key, then each metric
            /// field `view` keeps, under the name it returns.
            pub fn columns(view: $crate::stats::View<'_>) -> Vec<$crate::datum::Column> {
                use $crate::datum::Column;
                use $crate::stats::{Metric, Value};
                let mut cols = vec![
                    $($( Column::new(stringify!($key), <$KeyTy as Value>::TYPE), )*)?
                ];
                $(
                    if let Some(name) = view($crate::stat_label!($field $(, $label)?)) {
                        cols.push(Column::new(name, <<$Kind as Metric>::Frozen as Value>::TYPE));
                    }
                )*
                cols
            }

            /// The group's relation row, cell for cell what
            /// [`Self::columns`] declares under the same `view`.
            pub fn datums(&self, view: $crate::stats::View<'_>) -> Vec<$crate::datum::Datum> {
                use $crate::stats::Value;
                let mut row = vec![ $($( self.$key.datum(), )*)? ];
                $(
                    if view($crate::stat_label!($field $(, $label)?)).is_some() {
                        row.push(self.$field.datum());
                    }
                )*
                row
            }

            /// The growth since `base`, per field by its metric kind
            /// (counters subtract saturating, high-water marks keep the
            /// current value, histograms subtract per bucket).
            pub fn delta(&self, base: &Self) -> Self {
                $Frozen {
                    $($( $key: self.$key.clone(), )*)?
                    $( $field: <$Kind as $crate::stats::Metric>::delta(&self.$field, &base.$field), )*
                }
            }

            /// One `(key, JSON value)` pair per field.
            pub fn json_fields(&self) -> Vec<(&'static str, String)> {
                use $crate::stats::Value;
                vec![
                    $($( (stringify!($key), self.$key.json()), )*)?
                    $( (stringify!($field), self.$field.json()), )*
                ]
            }

            /// The group as a JSON object, one key per field.
            pub fn to_json(&self) -> String {
                $crate::stats::json_object(&self.json_fields())
            }
        }
    };
    (
        $(#[$lattr:meta])*
        live $Live:ident $({ $($extra:tt)* })?;
        $(#[$fattr:meta])*
        frozen $Frozen:ident $([ $( $(#[$kattr:meta])* $key:ident : $KeyTy:ty ),* $(,)? ])?;
        $( $(#[$attr:meta])* $field:ident $(as $label:literal)? : $Kind:ty ),* $(,)?
    ) => {
        $(#[$lattr])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $($($extra)*)?
            $( $(#[$attr])* pub $field: $Kind, )*
        }

        impl $Live {
            /// Reads every metric once into the frozen twin.
            pub fn freeze(&self $($(, $key: $KeyTy)*)?) -> $Frozen {
                $Frozen {
                    $($( $key, )*)?
                    $( $field: $crate::stats::Metric::freeze(&self.$field), )*
                }
            }
        }

        $crate::stat_table! {
            #[doc = concat!("A frozen copy of [`", stringify!($Live), "`].")]
            $(#[$fattr])*
            frozen $Frozen $([ $( $(#[$kattr])* $key: $KeyTy ),* ])?;
            $( $(#[$attr])* $field $(as $label)? : $Kind ),*
        }
    };
}

stat_table! {
    /// Transaction-system counters.
    live XactCounters;
    #[derive(Copy)]
    frozen XactStats;
    /// Transactions committed.
    commits: Counter,
    /// Transactions aborted.
    aborts: Counter,
    /// Scans executed against an `AsOf` (time-travel) snapshot.
    time_travel_reads: Counter,
    /// Write commits made durable by someone else's log force: the
    /// committer's `force_up_to` found its record already covered and
    /// returned without a sync.
    group_commits: Counter,
    /// Commit records made durable (every committed write transaction
    /// counts once): `sync_calls + group_commits`.
    batched_records: Counter,
    /// Write commits whose own `force_up_to` wrote and synced the log, so
    /// this stays *below* `commits` under concurrent load. Read-only
    /// commits issue none.
    sync_calls: Counter,
    /// Commit latency (begin-to-durable, simulated time) distribution;
    /// bucket bounds in [`LATENCY_BOUNDS_NS`].
    commit_latency as "commit_latency_hist": LatencyHistogram,
}

stat_table! {
    /// Write-ahead-log and checkpoint counters.
    live WalCounters;
    #[derive(Copy)]
    frozen WalStats;
    /// REDO records appended to the log.
    records_appended: Counter,
    /// Record bytes appended (headers included).
    bytes_appended: Counter,
    /// Log forces: block writes plus one sync that advanced the durable
    /// horizon. One force covers every record appended before it began.
    /// The sum of the two `forces_*` counters, which say who asked.
    log_forces: Counter,
    /// Forces by a committer making its `Commit` record durable.
    forces_commit: Counter,
    /// Forces by the buffer manager before it wrote a page whose last
    /// change was not yet durable (eviction, a checkpoint's drain, the
    /// index write-through emulation): the LSN-before-write rule.
    forces_writeback: Counter,
    /// Checkpoint cycles completed.
    checkpoints: Counter,
    /// Dirty pages written out by checkpoint cycles.
    ckpt_pages_drained: Counter,
    /// Pages fixed up by first-touch REDO replay after a crash.
    replayed_pages: Counter,
    /// Individual REDO records applied during replay.
    replayed_records: Counter,
}

stat_table! {
    /// Heap access-method counters.
    live HeapCounters;
    #[derive(Copy)]
    frozen HeapOpStats;
    /// Full-relation scans.
    scans: Counter,
    /// Single-tuple fetches by TID.
    fetches: Counter,
    /// Tuples appended (inserts and the insert half of updates).
    appends: Counter,
}

stat_table! {
    /// B-tree access-method counters.
    live BTreeCounters;
    #[derive(Copy)]
    frozen BTreeOpStats;
    /// Key searches and range scans.
    searches: Counter,
    /// Entries inserted.
    inserts: Counter,
    /// Node splits (the paper's interleaved-write culprit).
    splits: Counter,
    /// Index pages forced out by eager write-through.
    page_writes: Counter,
}

stat_table! {
    /// Lock-manager counters.
    live LockCounters;
    #[derive(Copy)]
    frozen LockStats;
    /// Locks granted.
    acquisitions: Counter,
    /// Wait episodes (a request that had to block at least once).
    waits: Counter,
    /// Requests refused because they would close a waits-for cycle.
    deadlocks: Counter,
    /// Requests that gave up after the lock timeout.
    timeouts: Counter,
}

stat_table! {
    /// Query-planner counters, surfaced as the `pg_stat_planner` virtual
    /// relation.
    live PlannerCounters;
    #[derive(Copy)]
    frozen PlannerStats;
    /// Statements planned (one per statement whose names resolved).
    plans_built: Counter,
    /// Heap scans the optimizer resolved to a B-tree index scan.
    index_scans_chosen: Counter,
    /// Heap scans the optimizer left as sequential scans.
    seq_scans_chosen: Counter,
    /// Nested-loop join nodes planned.
    joins_planned: Counter,
}

stat_table! {
    /// Maintenance counters. The group has no relation or JSON object of
    /// its own: its fields are columns of `pg_stat_relation` and sit at the
    /// top level of [`StatsSnapshot::to_json`].
    live MaintenanceCounters;
    #[derive(Copy)]
    frozen MaintenanceStats;
    /// Vacuum passes completed.
    vacuum_passes: Counter,
}

/// Device slots tracked per registry. [`DeviceId`]s at or above this index
/// share the last slot; real configurations use a handful of devices.
pub const DEVICE_SLOTS: usize = 16;

stat_table! {
    /// Per-device counters: the storage manager's page I/O, then (`io_*`)
    /// its write-backs and syncs. The first part is the `pg_stat_device`
    /// relation, the second `pg_stat_io`.
    live DeviceIoCounters;
    frozen DeviceIoStats [
        /// The device id.
        device: u8,
        /// The device manager's name.
        name: String,
    ];
    /// Page reads issued to the device manager.
    reads: Counter,
    /// Page writes (including blank extensions) issued.
    writes: Counter,
    /// Total simulated nanoseconds spent in reads.
    read_ns: Counter,
    /// Total simulated nanoseconds spent in writes.
    write_ns: Counter,
    /// Read latency distribution (bounds in [`LATENCY_BOUNDS_NS`]).
    read_hist: LatencyHistogram,
    /// Write latency distribution.
    write_hist: LatencyHistogram,
    /// Dirty pages written back (evictions and checkpoint drains).
    io_submitted: Counter,
    /// Always 0: no write is queued, so none is batched with a neighbour.
    /// Kept for readers that still look it up.
    io_batched_neighbors: Counter,
    /// Always 0: no write is queued. Kept for readers that still look it
    /// up.
    io_queue_depth_hw: MaxGauge,
    /// Device syncs run by [`crate::Smgr::sync_all`].
    io_barrier_waits: Counter,
}

/// Which half of a device's page-I/O counters an access is charged to.
#[derive(Debug, Clone, Copy)]
pub enum PageIo {
    Read,
    /// A page write or a blank extension.
    Write,
}

impl DeviceIoCounters {
    /// Runs one device access `f` and charges it here: the count, the
    /// simulated time it took on `clock`, and the latency histogram.
    pub fn timed<T>(&self, clock: &simdev::SimClock, kind: PageIo, f: impl FnOnce() -> T) -> T {
        let (out, took) = clock.timed(f);
        let (count, ns, hist) = match kind {
            PageIo::Read => (&self.reads, &self.read_ns, &self.read_hist),
            PageIo::Write => (&self.writes, &self.write_ns, &self.write_hist),
        };
        count.bump();
        ns.add(took.as_nanos());
        hist.record(took.as_nanos());
        out
    }
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
    /// Write-ahead-log and checkpoint counters.
    pub wal: WalCounters,
    /// Heap counters.
    pub heap: HeapCounters,
    /// B-tree counters.
    pub btree: BTreeCounters,
    /// Lock-manager counters.
    pub lock: LockCounters,
    /// Query-planner counters.
    pub planner: PlannerCounters,
    /// Maintenance counters.
    pub maintenance: MaintenanceCounters,
    /// Per-device I/O, indexed by [`DeviceId`] (clamped to [`DEVICE_SLOTS`]).
    pub dev: [DeviceIoCounters; DEVICE_SLOTS],
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

    /// Freezes every group into a snapshot. The buffer cache's tally and
    /// the per-device rows (which need the device names) are not the
    /// registry's to read; [`crate::Db::stats`] supplies them.
    pub fn freeze(&self, buffer: BufferStats, devices: Vec<DeviceIoStats>) -> StatsSnapshot {
        StatsSnapshot {
            buffer,
            xact: self.xact.freeze(),
            wal: self.wal.freeze(),
            heap: self.heap.freeze(),
            btree: self.btree.freeze(),
            lock: self.lock.freeze(),
            planner: self.planner.freeze(),
            maintenance: self.maintenance.freeze(),
            devices,
        }
    }
}

/// A frozen copy of every counter the engine keeps, including the buffer
/// cache's [`BufferStats`]. Produced by [`crate::Db::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Buffer cache counters.
    pub buffer: BufferStats,
    /// Transaction counters.
    pub xact: XactStats,
    /// WAL and checkpoint counters.
    pub wal: WalStats,
    /// Heap counters.
    pub heap: HeapOpStats,
    /// B-tree counters.
    pub btree: BTreeOpStats,
    /// Lock counters.
    pub lock: LockStats,
    /// Planner counters.
    pub planner: PlannerStats,
    /// Maintenance counters.
    pub maintenance: MaintenanceStats,
    /// Per-device I/O, one entry per registered device.
    pub devices: Vec<DeviceIoStats>,
}

impl StatsSnapshot {
    /// The counter growth since `baseline`, group by group; a device the
    /// baseline lacks counts from zero.
    pub fn delta(&self, baseline: &StatsSnapshot) -> StatsSnapshot {
        let unseen = DeviceIoStats::default();
        StatsSnapshot {
            buffer: self.buffer.delta(&baseline.buffer),
            xact: self.xact.delta(&baseline.xact),
            wal: self.wal.delta(&baseline.wal),
            heap: self.heap.delta(&baseline.heap),
            btree: self.btree.delta(&baseline.btree),
            lock: self.lock.delta(&baseline.lock),
            planner: self.planner.delta(&baseline.planner),
            maintenance: self.maintenance.delta(&baseline.maintenance),
            devices: self
                .devices
                .iter()
                .map(|d| {
                    let base = baseline.devices.iter().find(|b| b.device == d.device);
                    d.delta(base.unwrap_or(&unseen))
                })
                .collect(),
        }
    }

    /// Serializes the snapshot as a JSON object of the groups' objects
    /// (hand-rolled: the build environment is offline, so no serde).
    pub fn to_json(&self) -> String {
        let devices: Vec<String> = self.devices.iter().map(DeviceIoStats::to_json).collect();
        let mut fields = vec![
            ("buffer", self.buffer.to_json()),
            ("lock", self.lock.to_json()),
            ("xact", self.xact.to_json()),
            ("wal", self.wal.to_json()),
            ("heap", self.heap.to_json()),
            ("btree", self.btree.to_json()),
            ("planner", self.planner.to_json()),
        ];
        fields.extend(self.maintenance.json_fields());
        fields.push(("devices", format!("[{}]", devices.join(","))));
        json_object(&fields)
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

/// A row producer for one virtual relation. Called when a scan of the
/// relation opens — never while planning — with the database the scan runs
/// in, so a producer captures no handle to it (the registry lives inside
/// the database; a captured `Db` would be a reference cycle). Must not call
/// back into the executing session.
pub type VirtualRowsFn = Arc<dyn Fn(&Db) -> Vec<Row> + Send + Sync>;

/// One registered virtual relation: a fixed schema plus a row producer.
#[derive(Clone)]
pub struct VirtualTable {
    /// Column names and types of the relation.
    pub schema: Schema,
    /// Produces the current rows.
    pub rows: VirtualRowsFn,
}

/// Relations that exist only as row producers, scannable from the query
/// language but backed by no heap. The engine registers its own
/// `pg_stat_*` relations and `pg_check` here at construction; layered
/// systems add theirs (Inversion registers `inv_stat` and `pg_stat_net`).
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
    pub fn register(
        &self,
        name: &str,
        schema: Schema,
        rows: impl Fn(&Db) -> Vec<Row> + Send + Sync + 'static,
    ) {
        let rows: VirtualRowsFn = Arc::new(rows);
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

    /// A registry holding the engine's own relations: one per counter
    /// group, its schema and row generated from the group's table (plus the
    /// few live values that are not counters), and the verifier's
    /// `pg_check`.
    pub(crate) fn with_engine_relations() -> VirtualTables {
        fn count(n: usize) -> Datum {
            Datum::Int4(n as i32)
        }
        let schema = |columns| Schema { columns };
        let int4 = |name: &str| Column::new(name, TypeId::INT4);
        let v = VirtualTables::new();

        let mut cols = BufferStats::columns(&all);
        cols.extend([int4("capacity"), int4("cached")]);
        v.register("pg_stat_buffer", schema(cols), |db| {
            let mut row = db.buffer_stats().datums(&all);
            row.extend([count(db.inner.pool.capacity()), count(db.inner.pool.len())]);
            vec![row]
        });

        v.register("pg_stat_lock", schema(LockStats::columns(&all)), |db| {
            vec![db.inner.stats.lock.freeze().datums(&all)]
        });

        let mut cols = XactStats::columns(&all);
        cols.push(int4("active"));
        v.register("pg_stat_xact", schema(cols), |db| {
            let mut row = db.inner.stats.xact.freeze().datums(&all);
            row.push(count(db.inner.xlog.active_set().len()));
            vec![row]
        });

        v.register("pg_stat_wal", schema(WalStats::columns(&all)), |db| {
            vec![db.inner.stats.wal.freeze().datums(&all)]
        });

        let heap = |label: &str| Some(format!("heap_{label}"));
        let btree = |label: &str| Some(format!("btree_{label}"));
        let mut cols = HeapOpStats::columns(&heap);
        cols.extend(BTreeOpStats::columns(&btree));
        cols.extend(MaintenanceStats::columns(&all));
        v.register("pg_stat_relation", schema(cols), move |db| {
            let stats = &db.inner.stats;
            let mut row = stats.heap.freeze().datums(&heap);
            row.extend(stats.btree.freeze().datums(&btree));
            row.extend(stats.maintenance.freeze().datums(&all));
            vec![row]
        });

        v.register(
            "pg_stat_planner",
            schema(PlannerStats::columns(&all)),
            |db| vec![db.inner.stats.planner.freeze().datums(&all)],
        );

        // One row per mounted device; the `io_` fields are its write-backs.
        type ViewFn = fn(&str) -> Option<String>;
        let views: [(&str, ViewFn); 2] = [
            ("pg_stat_device", |label| {
                (!label.starts_with("io_")).then(|| label.to_string())
            }),
            ("pg_stat_io", |label| {
                label.strip_prefix("io_").map(str::to_string)
            }),
        ];
        for (name, view) in views {
            v.register(name, schema(DeviceIoStats::columns(&view)), move |db| {
                db.stats().devices.iter().map(|d| d.datums(&view)).collect()
            });
        }

        let cols = [
            ("relation", TypeId::TEXT),
            ("page", TypeId::INT8),
            ("slot", TypeId::INT4),
            ("code", TypeId::TEXT),
            ("detail", TypeId::TEXT),
        ];
        v.register("pg_check", Schema::new(cols), |db| {
            let row = |f: crate::check::Finding| {
                vec![
                    Datum::Text(f.relation),
                    f.page.map_or(Datum::Null, |p| Datum::Int8(p as i64)),
                    f.slot.map_or(Datum::Null, |s| Datum::Int4(i32::from(s))),
                    Datum::Text(f.code),
                    Datum::Text(f.detail),
                ]
            };
            db.check_all().into_iter().map(row).collect()
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_bump_and_add() {
        let c = Counter::default();
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
        assert_eq!(h.freeze(), [1, 1, 0, 1, 0, 0, 1]);
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
        let dev = reg.device(DeviceId(0));
        let freeze = || reg.freeze(BufferStats::default(), vec![dev.freeze(0, "d0".into())]);
        reg.xact.commits.add(5);
        reg.lock.waits.add(2);
        dev.io_queue_depth_hw.observe(9);
        dev.read_hist.record(1_000);
        dev.read_hist.record(5_000_000);
        let t0 = freeze();
        reg.xact.commits.add(3);
        reg.lock.waits.add(1);
        reg.heap.scans.bump();
        dev.io_queue_depth_hw.observe(4);
        dev.read_hist.record(2_000);
        let t1 = freeze();
        let d = t1.delta(&t0);
        assert_eq!(d.xact.commits, 3);
        assert_eq!(d.lock.waits, 1);
        assert_eq!(d.heap.scans, 1);
        assert_eq!(d.xact.aborts, 0);
        // A high-water mark is not a rate: the delta keeps the mark.
        assert_eq!(d.devices[0].io_queue_depth_hw, 9);
        // A histogram subtracts bucket by bucket.
        assert_eq!(t1.devices[0].read_hist, [2, 0, 0, 1, 0, 0, 0]);
        assert_eq!(d.devices[0].read_hist, [1, 0, 0, 0, 0, 0, 0]);
        assert_eq!((d.devices[0].device, d.devices[0].name.as_str()), (0, "d0"));
    }

    /// A snapshot with a distinct value in every field.
    fn synthetic() -> StatsSnapshot {
        StatsSnapshot {
            buffer: BufferStats {
                hits: 1,
                misses: 2,
                evictions: 3,
                writebacks: 4,
                prefetches: 5,
                prefetch_hits: 6,
            },
            xact: XactStats {
                commits: 7,
                aborts: 8,
                time_travel_reads: 9,
                group_commits: 10,
                batched_records: 11,
                sync_calls: 12,
                commit_latency: [13, 14, 15, 16, 17, 18, 19],
            },
            wal: WalStats {
                records_appended: 20,
                bytes_appended: 21,
                log_forces: 22,
                forces_commit: 68,
                forces_writeback: 69,
                checkpoints: 23,
                ckpt_pages_drained: 24,
                replayed_pages: 25,
                replayed_records: 26,
            },
            heap: HeapOpStats {
                scans: 27,
                fetches: 28,
                appends: 29,
            },
            btree: BTreeOpStats {
                searches: 30,
                inserts: 31,
                splits: 32,
                page_writes: 33,
            },
            lock: LockStats {
                acquisitions: 34,
                waits: 35,
                deadlocks: 36,
                timeouts: 37,
            },
            planner: PlannerStats {
                plans_built: 38,
                index_scans_chosen: 39,
                seq_scans_chosen: 40,
                joins_planned: 41,
            },
            maintenance: MaintenanceStats { vacuum_passes: 42 },
            devices: vec![
                DeviceIoStats {
                    device: 0,
                    name: "rz\"58".into(),
                    reads: 43,
                    writes: 44,
                    read_ns: 45,
                    write_ns: 46,
                    read_hist: [47, 48, 49, 50, 51, 52, 53],
                    write_hist: [54, 55, 56, 57, 58, 59, 60],
                    io_submitted: 61,
                    io_batched_neighbors: 63,
                    io_queue_depth_hw: 65,
                    io_barrier_waits: 66,
                },
                DeviceIoStats {
                    device: 3,
                    name: "juke\\box".into(),
                    reads: 67,
                    ..DeviceIoStats::default()
                },
            ],
        }
    }

    /// The generated serializer is byte-compatible with the hand-written
    /// one it replaced: this string was captured from that code (the
    /// `minidb_stats_delta` section of every `BENCH_*.json`).
    #[test]
    fn json_matches_the_golden_string() {
        const GOLDEN: &str = r#"{"buffer":{"hits":1,"misses":2,"evictions":3,"writebacks":4,"prefetches":5,"prefetch_hits":6},"lock":{"acquisitions":34,"waits":35,"deadlocks":36,"timeouts":37},"xact":{"commits":7,"aborts":8,"time_travel_reads":9,"group_commits":10,"batched_records":11,"sync_calls":12,"commit_latency":[13,14,15,16,17,18,19]},"wal":{"records_appended":20,"bytes_appended":21,"log_forces":22,"forces_commit":68,"forces_writeback":69,"checkpoints":23,"ckpt_pages_drained":24,"replayed_pages":25,"replayed_records":26},"heap":{"scans":27,"fetches":28,"appends":29},"btree":{"searches":30,"inserts":31,"splits":32,"page_writes":33},"planner":{"plans_built":38,"index_scans_chosen":39,"seq_scans_chosen":40,"joins_planned":41},"vacuum_passes":42,"devices":[{"device":0,"name":"rz\"58","reads":43,"writes":44,"read_ns":45,"write_ns":46,"read_hist":[47,48,49,50,51,52,53],"write_hist":[54,55,56,57,58,59,60],"io_submitted":61,"io_batched_neighbors":63,"io_queue_depth_hw":65,"io_barrier_waits":66},{"device":3,"name":"juke\\box","reads":67,"writes":0,"read_ns":0,"write_ns":0,"read_hist":[0,0,0,0,0,0,0],"write_hist":[0,0,0,0,0,0,0],"io_submitted":0,"io_batched_neighbors":0,"io_queue_depth_hw":0,"io_barrier_waits":0}]}"#;
        assert_eq!(synthetic().to_json(), GOLDEN);
    }

    #[test]
    fn virtual_tables_register_and_scan() {
        let vt = VirtualTables::new();
        vt.register("v_test", Schema::new([("n", TypeId::INT4)]), |_db| {
            vec![vec![Datum::Int4(7)]]
        });
        let t = vt.get("v_test").unwrap();
        assert_eq!(t.schema.columns[0].name, "n");
        let db = Db::open_in_memory().unwrap();
        assert_eq!((t.rows)(&db), vec![vec![Datum::Int4(7)]]);
        assert!(vt.get("missing").is_none());
        assert_eq!(vt.names(), vec!["v_test".to_string()]);
    }
}
