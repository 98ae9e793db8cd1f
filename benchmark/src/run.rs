//! One repetition (fresh rig → setup → timed script → checkpoint → verify)
//! and one run (five repetitions folded into the reported metrics).

use std::time::Instant;

use inversion::InvError;

use crate::exec::{Driver, FsCalls, Model, OpError, Span};
use crate::rig::{Counters, DeviceKind, Rig, DATA, LOG};
use crate::summary::{median, percentile_sorted};
use crate::workload::{file_path, script_hash, Workload};

/// Repetitions per run; each builds its own rig.
pub const REPS: usize = 5;
/// Equal slices each client's timed script is cut into for timing.
pub const SLICES: usize = 32;

/// One client's op latencies, cut into [`SLICES`] slices of equal op count
/// (fewer when there are fewer ops than that).
pub fn slices(client: &[u64]) -> std::slice::Chunks<'_, u64> {
    client.chunks(client.len().div_ceil(SLICES).max(1))
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub device: DeviceKind,
    /// Divides the op counts (`smoke` runs a twentieth).
    pub shrink: usize,
}

impl RunConfig {
    pub fn timed_ops(&self) -> usize {
        (self.workload.ops_for(self.seconds) / self.shrink).max(8)
    }
}

/// Which client the script runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `WireClient` over loopback TCP — every reported number but one.
    Tcp,
    /// `fs.client()` in process — the `api` rung of the trace.
    InProcess,
}

/// Everything one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub timed_s: f64,
    pub verify_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    /// Per client, the client-side latency of each op of the timed
    /// script, nanoseconds, in script order.
    pub latencies_ns: Vec<Vec<u64>>,
    /// Counter growth from the start of the timed region through the
    /// final checkpoint.
    pub delta: Counters,
    pub live_bytes: u64,
    pub script_hash: u64,
    /// Everything that makes the repetition's result wrong: mismatched
    /// reads, verification findings, a commit that was never forced.
    pub problems: Vec<String>,
    /// Ops that failed (counted in `failed`; wrong only if bytes
    /// mismatched) and ops retried after a transient error other than deadlock.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    /// Client-side wire counters over the timed region, summed over
    /// clients: (frames out, frames in, bytes out, bytes in). Zero in process.
    pub wire: [u64; 4],
}

struct ClientRun {
    latencies_ns: Vec<u64>,
    failed: u64,
    retries: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn describe(e: &OpError) -> String {
    match e {
        OpError::Fs(e) => format!("error: {e}"),
        OpError::Mismatch(m) => format!("mismatch: {m}"),
    }
}

fn run_ops<C: FsCalls>(
    d: &mut Driver<C>,
    ops: &[crate::workload::Op],
    model: &mut Model,
) -> ClientRun {
    let mut out = ClientRun {
        latencies_ns: Vec::with_capacity(ops.len()),
        failed: 0,
        retries: 0,
        problems: Vec::new(),
        notes: Vec::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let outcome = d.run_op(op, model);
        out.latencies_ns.push(t.elapsed().as_nanos() as u64);
        out.retries += outcome.retries as u64;
        for e in &outcome.retried {
            if out.notes.len() < 5 {
                out.notes.push(format!(
                    "client {} op {i} {op:?}: retried after error: {e}",
                    d.client
                ));
            }
        }
        if let Some(e) = outcome.error {
            out.failed += 1;
            let list = match e {
                OpError::Mismatch(_) => &mut out.problems,
                OpError::Fs(_) => &mut out.notes,
            };
            if list.len() < 5 {
                list.push(format!(
                    "client {} op {i} {op:?}: failed: {}",
                    d.client,
                    describe(&e)
                ));
            }
        }
    }
    out
}

pub fn repetition(cfg: &RunConfig, via: Via, trace: bool) -> Result<Rep, String> {
    match via {
        Via::Tcp => repetition_with(cfg, trace, |rig| rig.connect()),
        Via::InProcess => repetition_with(cfg, trace, |rig| Ok(rig.fs.client())),
    }
}

fn repetition_with<C: FsCalls + Send>(
    cfg: &RunConfig,
    trace: bool,
    connect: impl Fn(&Rig) -> Result<C, String>,
) -> Result<Rep, String> {
    let w = cfg.workload;
    let timed = cfg.timed_ops();
    let warm = w.warmup_for(timed);
    let fs_err = |what: &str, e: InvError| format!("{}: {what}: {e}", w.name());

    // Setup: rig, preload, checkpoint, warm-up.
    let epoch = Instant::now();
    let rig = Rig::build(&cfg.device)?;
    let mut drivers = Vec::new();
    let mut models = Vec::new();
    let mut scripts = Vec::new();
    for k in 0..w.clients() {
        let mut d = Driver::new(connect(&rig)?, k as u32, epoch, trace);
        let mut model = Model::default();
        d.preload(cfg.seed, w.preload(), &mut model)
            .map_err(|e| fs_err("preload", e))?;
        drivers.push(d);
        models.push(model);
        scripts.push(w.script(cfg.seed, k, warm + timed));
    }
    rig.fs
        .db()
        .checkpoint()
        .map_err(|e| fs_err("checkpoint", e.into()))?;
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    for ((d, model), script) in drivers.iter_mut().zip(&mut models).zip(&scripts) {
        let warmed = run_ops(d, &script[..warm], model);
        // The timed script builds on the warm-up's state, so an op that
        // failed here invalidates the repetition whatever its cause.
        let told = if warmed.failed > 0 {
            &mut problems
        } else {
            &mut notes
        };
        told.extend(warmed.notes.into_iter().map(|p| format!("warm-up: {p}")));
        problems.extend(warmed.problems.into_iter().map(|p| format!("warm-up: {p}")));
        d.take_spans();
    }
    let setup_s = epoch.elapsed().as_secs_f64();

    // Timed region: one thread per client, closed loop.
    let base = rig.counters();
    let wire_base: Vec<[u64; 4]> = drivers.iter().map(|d| d.c.wire_counts()).collect();
    let t = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .zip(&mut models)
            .zip(&scripts)
            .map(|((d, model), script)| s.spawn(move || run_ops(d, &script[warm..], model)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let timed_s = t.elapsed().as_secs_f64();
    rig.fs
        .db()
        .checkpoint()
        .map_err(|e| fs_err("final checkpoint", e.into()))?;
    let delta = rig.counters().since(&base);
    let mut wire = [0u64; 4];
    for (d, b) in drivers.iter().zip(&wire_base) {
        let now = d.c.wire_counts();
        for i in 0..4 {
            wire[i] += now[i] - b[i];
        }
    }

    let mut latencies_ns = Vec::new();
    let (mut failed, mut retries) = (0, 0);
    for r in runs {
        latencies_ns.push(r.latencies_ns);
        failed += r.failed;
        retries += r.retries;
        problems.extend(r.problems);
        notes.extend(r.notes);
    }
    let spans = drivers.iter_mut().flat_map(|d| d.take_spans()).collect();
    drop(drivers);

    // Verification, outside both clocks.
    let t = Instant::now();
    verify(&rig, &models, &mut problems);
    let verify_s = t.elapsed().as_secs_f64();
    let attempted = (timed * w.clients()) as u64;
    let write_txns = scripts
        .iter()
        .flat_map(|s| &s[warm..])
        .filter(|op| !matches!(op, crate::workload::Op::Read { .. }))
        .count() as u64;
    // A closed-loop client has one commit outstanding, so one log force can
    // cover at most `clients` commits. Fewer forces than that means some
    // commit was acknowledged without reaching the device.
    let forces_needed = write_txns.saturating_sub(failed) / w.clients() as u64;
    if delta.devs[LOG].syncs < forces_needed {
        problems.push(format!(
            "durability: {} log-device syncs for {write_txns} write transactions",
            delta.devs[LOG].syncs
        ));
    }
    Ok(Rep {
        setup_s,
        timed_s,
        verify_s,
        attempted,
        failed,
        retries,
        latencies_ns,
        live_bytes: models.iter().map(Model::live_bytes).sum(),
        script_hash: script_hash(&scripts),
        delta,
        problems,
        notes,
        spans,
        wire,
    })
}

/// Reads back everything the scripts wrote, checks what they unlinked is
/// gone, and runs both structural checkers.
fn verify(rig: &Rig, models: &[Model], problems: &mut Vec<String>) {
    let mut c = rig.fs.client();
    let mut note = |p: String| {
        if problems.len() < 20 {
            problems.push(p);
        }
    };
    for (k, model) in models.iter().enumerate() {
        for file in &model.touched {
            let path = file_path(k, *file);
            match c.read_to_vec(&path, None) {
                Ok(bytes) if bytes == model.files[file] => {}
                Ok(bytes) => note(format!(
                    "verify: {path} holds {} bytes that differ from the model's {}",
                    bytes.len(),
                    model.files[file].len()
                )),
                Err(e) => note(format!("verify: {path}: {e}")),
            }
        }
        for file in &model.removed {
            let path = file_path(k, *file);
            match c.p_stat(&path, None) {
                Err(InvError::NoSuchPath(_)) => {}
                other => note(format!("verify: unlinked {path} answers {other:?}")),
            }
        }
    }
    for f in rig.fs.db().check_all() {
        note(format!("check_all: {f:?}"));
    }
    for f in rig.fs.check() {
        note(format!("fs.check: {f:?}"));
    }
}

/// The eight end-to-end metrics, `(name, unit, better)`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("goodput_ops_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("dev_reads_per_op", "1", "lower"),
    ("dev_writes_per_op", "1", "lower"),
    ("dev_syncs_per_op", "1", "lower"),
    ("space_amp", "1", "lower"),
    ("ok_share", "1", "higher"),
];

/// The end-to-end metrics whose value is a count, not a time: they must
/// agree across a run's repetitions.
const COUNT_METRICS: [&str; 4] = [
    "dev_reads_per_op",
    "dev_writes_per_op",
    "dev_syncs_per_op",
    "space_amp",
];

impl Rep {
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn goodput(&self) -> f64 {
        self.ok_ops() as f64 / self.timed_s
    }

    pub fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.attempted as f64
    }

    /// Every client's op latencies in one sorted list.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.latencies_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    pub fn op_p50_us(&self) -> f64 {
        percentile_sorted(&self.sorted_latencies(), 0.5) as f64 / 1e3
    }

    fn end_to_end(&self) -> Vec<f64> {
        vec![
            self.setup_s,
            self.goodput(),
            self.op_p50_us(),
            self.per_op(self.delta.dev_total(|d| d.reads)),
            self.per_op(self.delta.dev_total(|d| d.writes)),
            self.per_op(self.delta.dev_total(|d| d.syncs)),
            (self.delta.devs[DATA].high_water * simdev::BLOCK_SIZE as u64) as f64
                / self.live_bytes as f64,
            self.ok_ops() as f64 / self.attempted as f64,
        ]
    }
}

/// A run's verdict and numbers.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values in [`END_TO_END`] order.
    pub values: Vec<f64>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub reps: Vec<Rep>,
}

/// How far a count metric may stray from the median of a run's
/// repetitions before the run calls itself invalid. One client and no
/// timers make the counts near-exact; two clients interleave differently
/// every time. A few counts either way are always allowed, or a metric
/// that counts eight reads in a repetition could never pass.
fn counts_agree(w: Workload, across: &[f64], ops_per_rep: f64) -> bool {
    let relative = if w.clients() == 1 { 0.02 } else { 0.20 };
    let mid = median(across);
    let slack = (relative * mid).max(3.0 / ops_per_rep);
    across.iter().all(|v| (v - mid).abs() <= slack)
}

/// The run the host disturbed least, pieced together from the repetitions:
/// each client's script is cut into [`SLICES`] equal slices, and each slice
/// is taken — all its op latencies, as they were measured together — from
/// the repetition that got through it fastest. The sandbox's noise is
/// one-sided (other tenants only ever slow a slice down) and comes in
/// bursts far shorter than a repetition; every repetition does the same
/// work in a slice; so the fastest is the one that was left alone. Within a
/// slice nothing is picked over: two clients interleave, wait for each
/// other's locks and retry as they really did.
fn steady_latencies(reps: &[&Vec<Vec<u64>>]) -> Vec<Vec<u64>> {
    (0..reps[0].len())
        .map(|k| {
            let cut: Vec<Vec<&[u64]>> = reps.iter().map(|r| slices(&r[k]).collect()).collect();
            (0..cut[0].len())
                .flat_map(|j| {
                    cut.iter()
                        .map(|rep| rep[j])
                        .min_by_key(|slice| slice.iter().sum::<u64>())
                        .expect("a run has repetitions")
                        .iter()
                        .copied()
                })
                .collect()
        })
        .collect()
}

/// The timed wall a run reports: a closed-loop client's wall is the sum of
/// its ops' latencies, and the slowest client's sum is the run's.
fn steady_wall_s(steady: &[Vec<u64>]) -> f64 {
    steady
        .iter()
        .map(|client| client.iter().sum::<u64>())
        .max()
        .unwrap_or(0) as f64
        / 1e9
}

/// Fresh-rig repetitions → one result. Counts are medians over the
/// repetitions (and must agree), timings are built from the least any
/// repetition needed (see [`steady_latencies`]), failures are summed.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let reps: Vec<Rep> = (0..REPS)
        .map(|_| repetition(cfg, Via::Tcp, false))
        .collect::<Result<_, _>>()?;
    Ok(fold(cfg.workload, reps))
}

pub fn fold(w: Workload, reps: Vec<Rep>) -> RunResult {
    let mut problems: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        problems.extend(r.problems.iter().map(|p| format!("rep {i}: {p}")));
        notes.extend(r.notes.iter().map(|p| format!("rep {i}: {p}")));
        if r.script_hash != reps[0].script_hash {
            problems.push(format!("rep {i}: op script differs from rep 0"));
        }
    }
    let per_rep: Vec<Vec<f64>> = reps.iter().map(Rep::end_to_end).collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let steady = steady_latencies(&reps.iter().map(|r| &r.latencies_ns).collect::<Vec<_>>());
    let values = END_TO_END
        .iter()
        .enumerate()
        .map(|(m, (name, _, _))| {
            let across: Vec<f64> = per_rep.iter().map(|v| v[m]).collect();
            if COUNT_METRICS.contains(name) {
                // `space_amp` is a ratio of levels, not a count per op; the
                // absolute slack is negligible against it either way.
                if !counts_agree(w, &across, reps[0].attempted as f64) {
                    problems.push(format!(
                        "invalid run: {name} differs between repetitions: {across:?}"
                    ));
                }
                return median(&across);
            }
            match *name {
                "setup_s" => least(&across),
                "op_p50_us" => {
                    let mut all: Vec<u64> = steady.iter().flatten().copied().collect();
                    crate::summary::percentile(&mut all, 0.5) as f64 / 1e3
                }
                "goodput_ops_s" => {
                    median(&reps.iter().map(|r| r.ok_ops() as f64).collect::<Vec<_>>())
                        / steady_wall_s(&steady)
                }
                "ok_share" => (attempted - failed) as f64 / attempted as f64,
                other => unreachable!("no rule for {other}"),
            }
        })
        .collect();
    RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        values,
        problems,
        notes,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_steady_run_takes_each_slice_whole_from_its_fastest_repetition() {
        // One client, 64 ops, so 32 slices of two ops. Repetition `a` is
        // slow in its first slice, `b` everywhere else.
        let mut a = vec![10u64; 64];
        let mut b = vec![20u64; 64];
        (a[0], a[1]) = (100, 1);
        (b[0], b[1]) = (30, 40);
        let steady = steady_latencies(&[&vec![a], &vec![b]]);
        assert_eq!(steady.len(), 1);
        // Slice 0 comes from `b` as a whole: 30 + 40 beats 100 + 1, and the
        // 1 is not picked out of the slower slice.
        assert_eq!(steady[0][..4], [30, 40, 10, 10]);
        assert_eq!(steady[0].len(), 64);
        assert_eq!(steady_wall_s(&steady), (70 + 62 * 10) as f64 / 1e9);
        // Fewer ops than slices: one op per slice.
        assert_eq!(slices(&[5, 6, 7]).count(), 3);
        // The slowest client sets the wall.
        assert_eq!(steady_wall_s(&[vec![1, 2], vec![4, 5]]), 9e-9);
    }

    #[test]
    fn counts_agree_within_relative_or_absolute_slack() {
        let w = Workload::CreateChurn;
        assert!(counts_agree(w, &[130.0, 130.5, 131.0], 900.0));
        assert!(!counts_agree(w, &[130.0, 130.5, 140.0], 900.0));
        // Eight reads against seven in 900 ops: 12 % apart, one count apart.
        assert!(counts_agree(
            w,
            &[8.0 / 900.0, 8.0 / 900.0, 7.0 / 900.0],
            900.0
        ));
        assert!(!counts_agree(
            w,
            &[8.0 / 900.0, 8.0 / 900.0, 20.0 / 900.0],
            900.0
        ));
        assert!(counts_agree(
            Workload::TwoClientMix,
            &[8.0, 9.0, 9.5],
            5000.0
        ));
        assert!(!counts_agree(
            Workload::TwoClientMix,
            &[6.0, 9.0, 9.5],
            5000.0
        ));
    }
}
