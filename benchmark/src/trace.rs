//! The per-layer view: one traced repetition for spans and counter deltas,
//! one untraced repetition to price the tracing, one in-process repetition
//! to split the wire and the pool from the file system beneath them, and
//! three standalone probes (codec, null round trip, buffer hit).

use std::collections::BTreeMap;
use std::time::Instant;

use inversion::server::{Request, Response};
use inversion::wire;
use inversion::{CreateMode, FileKind, FileStat, InvResult, OpenMode, SeekWhence};
use minidb::{BufferPool, DeviceId, GenericManager, Oid, Smgr};

use crate::device::CountingRamDisk;
use crate::exec::{Span, TRACED_CALLS};
use crate::rig::{Rig, BUFFERS, CATALOG, DATA, LOG};
use crate::run::{repetition, slices, Rep, RunConfig, Via};
use crate::summary::{median, percentile};
use crate::workload::{file_path, Op};

/// Every per-layer metric, `(name, unit, better)`, in `BENCHMARK.json`
/// order. The layer is the part of the name before the dot.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("client.op_p99_us", "us", "lower"),
    ("client.op_p999_us", "us", "lower"),
    ("client.stat_p50_us", "us", "lower"),
    ("client.open_p50_us", "us", "lower"),
    ("client.read_bulk_p50_us", "us", "lower"),
    ("client.write_bulk_p50_us", "us", "lower"),
    ("client.lseek_p50_us", "us", "lower"),
    ("client.close_p50_us", "us", "lower"),
    ("client.begin_p50_us", "us", "lower"),
    ("client.commit_p50_us", "us", "lower"),
    ("client.creat_p50_us", "us", "lower"),
    ("client.unlink_p50_us", "us", "lower"),
    ("client.trace_overhead_share", "1", "lower"),
    ("proc.cpu_us_per_op", "us", "lower"),
    ("proc.ctx_switches_per_op", "1", "lower"),
    ("proc.rss_mb", "MB", "lower"),
    ("wire.frames_per_op", "1", "lower"),
    ("wire.bytes_per_user_byte", "1", "lower"),
    ("wire.codec_us_per_op", "us", "lower"),
    ("pool.queue_full_per_kop", "1", "lower"),
    ("pool.null_rtt_us", "us", "lower"),
    ("pool.self_us_per_op", "us", "lower"),
    ("api.us_per_op", "us", "lower"),
    ("api.rpcs_per_op", "1", "lower"),
    ("chunk.reads_per_op", "1", "lower"),
    ("chunk.writes_per_op", "1", "lower"),
    ("chunk.coalesced_per_op", "1", "higher"),
    ("lock.acquisitions_per_op", "1", "lower"),
    ("lock.waits_per_op", "1", "lower"),
    ("lock.deadlock_retries_per_op", "1", "lower"),
    ("xact.commits_per_op", "1", "lower"),
    ("xact.group_batch_size", "1", "higher"),
    ("xact.commit_p50_us", "us", "lower"),
    ("wal.bytes_per_user_byte", "1", "lower"),
    ("wal.records_per_op", "1", "lower"),
    ("wal.forces_per_commit", "1", "lower"),
    ("wal.checkpoints_per_kop", "1", "lower"),
    ("wal.pages_per_checkpoint", "1", "lower"),
    ("heap.fetches_per_op", "1", "lower"),
    ("heap.appends_per_op", "1", "lower"),
    ("heap.scans_per_op", "1", "lower"),
    ("btree.searches_per_op", "1", "lower"),
    ("btree.inserts_per_op", "1", "lower"),
    ("btree.splits_per_kop", "1", "lower"),
    ("btree.page_writes_per_op", "1", "lower"),
    ("buffer.accesses_per_op", "1", "lower"),
    ("buffer.hit_ratio", "1", "higher"),
    ("buffer.evictions_per_op", "1", "lower"),
    ("buffer.writebacks_per_op", "1", "lower"),
    ("buffer.prefetch_hit_ratio", "1", "higher"),
    ("buffer.get_page_hit_ns", "ns", "lower"),
    ("io.submitted_per_op", "1", "lower"),
    ("io.batched_neighbor_share", "1", "higher"),
    ("io.queue_depth_hw", "count", "lower"),
    ("io.barrier_waits_per_commit", "1", "lower"),
    ("device.data_reads_per_op", "1", "lower"),
    ("device.data_writes_per_op", "1", "lower"),
    ("device.log_writes_per_commit", "1", "lower"),
    ("device.log_syncs_per_commit", "1", "lower"),
    ("device.catalog_writes_per_op", "1", "lower"),
    ("device.busy_share", "1", "lower"),
];

pub struct TraceResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values in [`PER_LAYER`] order.
    pub values: Vec<f64>,
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median duration of the spans called `name`, microseconds (0 if the
/// workload never makes that call).
fn call_p50_us(spans: &[Span], name: &str) -> f64 {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    percentile(&mut d, 0.5) as f64 / 1e3
}

/// `untraced` is the tracing-off repetition the overhead is priced
/// against; `smoke` passes the one it already ran.
pub fn trace(cfg: &RunConfig, untraced: Option<&Rep>) -> Result<TraceResult, String> {
    let traced = repetition(cfg, Via::Tcp, true)?;
    let own;
    let untraced = match untraced {
        Some(r) => r,
        None => {
            own = repetition(cfg, Via::Tcp, false)?;
            &own
        }
    };
    let inproc = repetition(cfg, Via::InProcess, true)?;
    let script = cfg.workload.script(cfg.seed, 0, cfg.timed_ops().min(256));
    let probes = Probes {
        codec_us_per_op: codec_us_per_op(&script),
        null_rtt_us: null_rtt_us()?,
        get_page_hit_ns: get_page_hit_ns()?,
    };

    let mut problems = Vec::new();
    for (what, r) in [
        ("traced", &traced),
        ("untraced", untraced),
        ("in-process", &inproc),
    ] {
        problems.extend(r.problems.iter().map(|p| format!("{what}: {p}")));
    }
    let values = per_layer(&traced, untraced, &inproc, &probes);
    debug_assert_eq!(values.len(), PER_LAYER.len());
    Ok(TraceResult {
        correct: problems.is_empty(),
        attempted: traced.attempted,
        failed: traced.failed,
        values,
        problems,
        spans: traced.spans,
    })
}

struct Probes {
    codec_us_per_op: f64,
    null_rtt_us: f64,
    get_page_hit_ns: f64,
}

fn per_layer(traced: &Rep, untraced: &Rep, inproc: &Rep, probes: &Probes) -> Vec<f64> {
    let ops = traced.attempted;
    let d = &traced.delta;
    let db = &d.db;
    let per_op = |n: u64| ratio(n, ops);
    let user_bytes = d.inv("bytes_read") + d.inv("bytes_written");
    let commits = db.xact.commits;
    let accesses = db.buffer.hits + db.buffer.misses;
    let io_submitted: u64 = db.devices.iter().map(|x| x.io_submitted).sum();
    let io_neighbors: u64 = db.devices.iter().map(|x| x.io_batched_neighbors).sum();
    let io_barriers: u64 = db.devices.iter().map(|x| x.io_barrier_waits).sum();
    let io_depth_hw = db
        .devices
        .iter()
        .map(|x| x.io_queue_depth_hw)
        .max()
        .unwrap_or(0);
    let lat = &traced.sorted_latencies();
    let us = |ns: u64| ns as f64 / 1e3;
    let tcp_us_per_op = untraced.timed_s * 1e6 / untraced.attempted as f64;
    let api_us_per_op = inproc.timed_s * 1e6 / inproc.attempted as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| m.insert(name.to_string(), v);
    put(
        "client.op_p99_us",
        us(crate::summary::percentile_sorted(lat, 0.99)),
    );
    put(
        "client.op_p999_us",
        us(crate::summary::percentile_sorted(lat, 0.999)),
    );
    for call in TRACED_CALLS {
        put(
            &format!("client.{call}_p50_us"),
            call_p50_us(&traced.spans, call),
        );
    }
    put(
        "client.trace_overhead_share",
        trace_overhead_share(traced, untraced),
    );
    put("proc.cpu_us_per_op", per_op(d.proc_.cpu_us));
    put("proc.ctx_switches_per_op", per_op(d.proc_.ctx_switches));
    put("proc.rss_mb", d.proc_.rss_kb as f64 / 1024.0);
    put(
        "wire.frames_per_op",
        per_op(traced.wire[0] + traced.wire[1]),
    );
    put(
        "wire.bytes_per_user_byte",
        ratio(traced.wire[2] + traced.wire[3], user_bytes),
    );
    put("wire.codec_us_per_op", probes.codec_us_per_op);
    put(
        "pool.queue_full_per_kop",
        per_op(d.inv("net_queue_full")) * 1e3,
    );
    put("pool.null_rtt_us", probes.null_rtt_us);
    put("pool.self_us_per_op", tcp_us_per_op - api_us_per_op);
    put("api.us_per_op", api_us_per_op);
    put("api.rpcs_per_op", per_op(d.inv("rpcs")));
    put("chunk.reads_per_op", per_op(d.inv("chunk_reads")));
    put("chunk.writes_per_op", per_op(d.inv("chunk_writes")));
    put("chunk.coalesced_per_op", per_op(d.inv("chunks_coalesced")));
    put("lock.acquisitions_per_op", per_op(db.lock.acquisitions));
    put("lock.waits_per_op", per_op(db.lock.waits));
    put("lock.deadlock_retries_per_op", per_op(traced.retries));
    put("xact.commits_per_op", per_op(commits));
    put(
        "xact.group_batch_size",
        ratio(db.xact.batched_records, db.xact.sync_calls),
    );
    put("xact.commit_p50_us", call_p50_us(&inproc.spans, "commit"));
    put(
        "wal.bytes_per_user_byte",
        ratio(db.wal.bytes_appended, user_bytes),
    );
    put("wal.records_per_op", per_op(db.wal.records_appended));
    put("wal.forces_per_commit", ratio(db.wal.log_forces, commits));
    put("wal.checkpoints_per_kop", per_op(db.wal.checkpoints) * 1e3);
    put(
        "wal.pages_per_checkpoint",
        ratio(db.wal.ckpt_pages_drained, db.wal.checkpoints),
    );
    put("heap.fetches_per_op", per_op(db.heap.fetches));
    put("heap.appends_per_op", per_op(db.heap.appends));
    put("heap.scans_per_op", per_op(db.heap.scans));
    put("btree.searches_per_op", per_op(db.btree.searches));
    put("btree.inserts_per_op", per_op(db.btree.inserts));
    put("btree.splits_per_kop", per_op(db.btree.splits) * 1e3);
    put("btree.page_writes_per_op", per_op(db.btree.page_writes));
    put("buffer.accesses_per_op", per_op(accesses));
    put("buffer.hit_ratio", ratio(db.buffer.hits, accesses));
    put("buffer.evictions_per_op", per_op(db.buffer.evictions));
    put("buffer.writebacks_per_op", per_op(db.buffer.writebacks));
    put(
        "buffer.prefetch_hit_ratio",
        ratio(db.buffer.prefetch_hits, db.buffer.prefetches),
    );
    put("buffer.get_page_hit_ns", probes.get_page_hit_ns);
    put("io.submitted_per_op", per_op(io_submitted));
    put(
        "io.batched_neighbor_share",
        ratio(io_neighbors, io_submitted),
    );
    put("io.queue_depth_hw", io_depth_hw as f64);
    put("io.barrier_waits_per_commit", ratio(io_barriers, commits));
    put("device.data_reads_per_op", per_op(d.devs[DATA].reads));
    put("device.data_writes_per_op", per_op(d.devs[DATA].writes));
    put(
        "device.log_writes_per_commit",
        ratio(d.devs[LOG].writes, commits),
    );
    put(
        "device.log_syncs_per_commit",
        ratio(d.devs[LOG].syncs, commits),
    );
    put(
        "device.catalog_writes_per_op",
        per_op(d.devs[CATALOG].writes),
    );
    put(
        "device.busy_share",
        d.dev_total(|x| x.busy_ns) as f64 / (traced.timed_s * 1e9),
    );
    PER_LAYER
        .iter()
        .map(|(name, _, _)| {
            *m.get(*name)
                .unwrap_or_else(|| panic!("{name} not computed"))
        })
        .collect()
}

/// The share of the traced repetition's time that tracing added: per slice
/// of each client's script, `1 − untraced ÷ traced`, and the median over
/// slices — the two repetitions run minutes apart, and whole-run times
/// would mostly compare the host's mood.
fn trace_overhead_share(traced: &Rep, untraced: &Rep) -> f64 {
    let walls = |r: &Rep| -> Vec<f64> {
        r.latencies_ns
            .iter()
            .flat_map(|client| slices(client).map(|s| s.iter().sum::<u64>() as f64))
            .collect()
    };
    let shares: Vec<f64> = walls(traced)
        .iter()
        .zip(walls(untraced))
        .map(|(t, u)| 1.0 - u / t)
        .collect();
    median(&shares)
}

/// A `FileStat` of plausible shape, for pricing the codec.
pub fn sample_stat(size: u64) -> FileStat {
    let t = simdev::SimInstant::from_nanos(1_000_000);
    FileStat {
        oid: Oid(4711),
        kind: FileKind::Regular,
        owner: "root".into(),
        ftype: None,
        size,
        ctime: t,
        mtime: t,
        atime: t,
        compressed: false,
        self_identifying: false,
        datarel: Oid(4712),
        chunkidx: Oid(4713),
        device: DeviceId::DEFAULT,
    }
}

/// The frames `op` puts on the wire, request and answer.
pub fn frames_of(op: &Op) -> Vec<(Request, InvResult<Response>)> {
    let seg = inversion::client::SEGMENT;
    let ok = || Ok(Response::Ok);
    let mut f = Vec::new();
    match op {
        Op::Read { file, len, stat } => {
            let path = file_path(0, *file);
            if *stat {
                let st = Response::Stat(Box::new(sample_stat(*len as u64)));
                f.push((Request::Stat(path.clone()), Ok(st)));
            }
            f.push((
                Request::Open(path, OpenMode::Read, None),
                Ok(Response::Fd(3)),
            ));
            let mut left = *len as usize;
            while left > 0 {
                let n = left.min(seg);
                f.push((Request::Read(3, n), Ok(Response::Data(vec![0xA5; n]))));
                left -= n;
            }
            f.push((Request::Close(3), ok()));
        }
        Op::TxnWrite { file, len, writes } => {
            f.push((Request::Begin, ok()));
            let path = file_path(0, *file);
            f.push((
                Request::Open(path, OpenMode::ReadWrite, None),
                Ok(Response::Fd(3)),
            ));
            for (chunk, _) in writes {
                let off = *chunk as i64 * inversion::CHUNK_SIZE as i64;
                f.push((
                    Request::Lseek(3, off, SeekWhence::Set),
                    Ok(Response::Count(off as u64)),
                ));
                for part in vec![0x5Au8; *len as usize].chunks(seg) {
                    f.push((
                        Request::Write(3, part.to_vec()),
                        Ok(Response::Count(part.len() as u64)),
                    ));
                }
            }
            f.push((Request::Close(3), ok()));
            f.push((Request::Commit, ok()));
        }
        Op::Churn {
            create,
            len,
            unlink,
            ..
        } => {
            f.push((Request::Begin, ok()));
            let path = file_path(0, *create);
            f.push((
                Request::Creat(path, CreateMode::default()),
                Ok(Response::Fd(3)),
            ));
            for part in vec![0x5Au8; *len as usize].chunks(seg) {
                f.push((
                    Request::Write(3, part.to_vec()),
                    Ok(Response::Count(part.len() as u64)),
                ));
            }
            f.push((Request::Close(3), ok()));
            if let Some(v) = unlink {
                f.push((Request::Unlink(file_path(0, *v)), ok()));
            }
            f.push((Request::Commit, ok()));
        }
    }
    f
}

/// One trip of `frames` through both encoders and both decoders.
pub fn codec_pass(frames: &[(Request, InvResult<Response>)]) -> usize {
    let mut bytes = 0;
    for (req, resp) in frames {
        let q = wire::encode_request(req);
        let back = wire::decode_request(&q).expect("own encoding decodes");
        let r = wire::encode_response(resp);
        let answer = wire::decode_response(&r).expect("own encoding decodes");
        std::hint::black_box((&back, &answer));
        bytes += q.len() + r.len();
    }
    bytes
}

fn codec_us_per_op(script: &[Op]) -> f64 {
    let frames: Vec<_> = script.iter().map(frames_of).collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for f in &frames {
                std::hint::black_box(codec_pass(f));
            }
            t.elapsed().as_secs_f64() * 1e6 / frames.len() as f64
        })
        .collect();
    median(&passes)
}

/// Median round trip of `stat("/")`: the least a request can cost once it
/// has to cross TCP, the reader thread, the session queue and a worker.
fn null_rtt_us() -> Result<f64, String> {
    let rig = Rig::build(&crate::rig::DeviceKind::Ram)?;
    let mut c = rig.connect()?;
    let mut samples = Vec::with_capacity(2000);
    for i in 0..2200 {
        let t = Instant::now();
        c.stat("/").map_err(|e| format!("null rtt: {e}"))?;
        if i >= 200 {
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    Ok(percentile(&mut samples, 0.5) as f64 / 1e3)
}

/// A buffer pool of the rig's size over a scratch device, with `pages`
/// resident pages of one relation: the standalone rung under `Session`.
pub fn scratch_pool(pages: u64) -> Result<(BufferPool, Smgr, Oid), String> {
    let e = |e: minidb::DbError| format!("scratch pool: {e}");
    let (disk, _) = CountingRamDisk::new("scratch", 1 << 14);
    let mut smgr = Smgr::new();
    let mgr = GenericManager::format(minidb::shared_device(disk)).map_err(e)?;
    smgr.register(DeviceId::DEFAULT, Box::new(mgr)).map_err(e)?;
    let rel = Oid(9001);
    smgr.with(DeviceId::DEFAULT, |m| m.create_rel(rel))
        .map_err(e)?;
    let pool = BufferPool::new(BUFFERS);
    for _ in 0..pages {
        pool.new_page(&smgr, DeviceId::DEFAULT, rel).map_err(e)?;
    }
    Ok((pool, smgr, rel))
}

fn get_page_hit_ns() -> Result<f64, String> {
    const PAGES: u64 = 128;
    const LOOKUPS: u64 = 200_000;
    let (pool, smgr, rel) = scratch_pool(PAGES)?;
    let passes: Result<Vec<f64>, String> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..LOOKUPS {
                let page = pool
                    .get_page(&smgr, DeviceId::DEFAULT, rel, (i * 7) % PAGES)
                    .map_err(|e| format!("get_page: {e}"))?;
                std::hint::black_box(&page);
            }
            Ok(t.elapsed().as_nanos() as f64 / LOOKUPS as f64)
        })
        .collect();
    Ok(median(&passes?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_cover_every_traced_call() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for call in TRACED_CALLS {
            assert!(
                names.contains(&format!("client.{call}_p50_us").as_str()),
                "{call}"
            );
        }
        for (name, _, better) in PER_LAYER {
            assert!(name.contains('.') && name.len() <= 64);
            assert!(matches!(*better, "lower" | "higher"));
        }
    }

    #[test]
    fn frames_follow_the_wire_clients_segmentation() {
        let read = frames_of(&Op::Read {
            file: 1,
            len: 20_000,
            stat: true,
        });
        // stat, open, three 8 KB segments (8192 + 8192 + 3616), close.
        assert_eq!(read.len(), 6);
        assert!(matches!(read[4].0, Request::Read(_, 3616)));
        let txn = frames_of(&Op::TxnWrite {
            file: 1,
            len: 8192,
            writes: vec![(0, 1), (5, 2)],
        });
        // begin, open, 2 × (lseek, write), close, commit.
        assert_eq!(txn.len(), 8);
        let churn = frames_of(&Op::Churn {
            create: 7,
            len: 1024,
            salt: 0,
            unlink: Some(3),
        });
        assert_eq!(churn.len(), 6);
        assert!(codec_pass(&churn) > 1024);
    }

    #[test]
    fn call_medians_come_from_matching_spans_only() {
        let span = |name, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            op_id: 1,
            client: 0,
        };
        let spans = vec![
            span("open", 0, 3_000),
            span("open", 0, 1_000),
            span("open", 0, 2_000),
            span("close", 0, 9_000),
        ];
        assert_eq!(call_p50_us(&spans, "open"), 2.0);
        assert_eq!(call_p50_us(&spans, "stat"), 0.0);
    }
}
