//! `invbench`: the repository's benchmark, driven entirely from outside.
//!
//! ```text
//! invbench run    --workload W [--seed S] [--seconds N] [--trace 0|1] [--device ram|file]
//! invbench trace  --workload W [--seed S] [--seconds N]
//! invbench ladder
//! invbench repeat [N]
//! invbench smoke
//! ```
//!
//! `run` prints a table and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`,
//! which is what `trace` means). See `benchmark/README.md`.

mod device;
mod exec;
mod json;
mod ladder;
mod rig;
mod rng;
mod run;
mod summary;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use rig::DeviceKind;
use run::{RunConfig, END_TO_END};
use trace::PER_LAYER;
use workload::{Workload, ALL, NOMINAL_SECONDS};

/// Part of the definition, like the op counts: runs without `--seed` use it.
const DEFAULT_SEED: u64 = 1993;

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    file_device: bool,
    count: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: argv.first().cloned().ok_or("missing mode")?,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        file_device: false,
        count: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--device" => {
                a.file_device = match value()?.as_str() {
                    "ram" => false,
                    "file" => true,
                    v => return Err(format!("--device takes ram or file, not {v}")),
                }
            }
            n if a.mode == "repeat" && a.count.is_none() => {
                a.count = Some(n.parse().map_err(|e| format!("repeat count: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The directory holding `BENCHMARK.json`: the working directory when run
/// as the manifest's `command` says, its parent when run from `benchmark/`.
fn repo_root() -> Result<PathBuf, String> {
    [".", ".."]
        .iter()
        .map(PathBuf::from)
        .find(|d| d.join("BENCHMARK.json").is_file())
        .ok_or_else(|| "BENCHMARK.json not found in . or ..".to_string())
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = repo_root()?.join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&str, &str, f64)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, v)| {
                (
                    name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .encode()
}

fn print_problems(problems: &[String], notes: &[String]) {
    for n in notes {
        println!("note: {n}");
    }
    for p in problems {
        println!("PROBLEM: {p}");
    }
}

fn cmd_run(a: &Args) -> Result<ExitCode, String> {
    let w = a.workload.ok_or("run needs --workload")?;
    let device = if a.file_device {
        DeviceKind::File(out_dir()?.join("devices"))
    } else {
        DeviceKind::Ram
    };
    let cfg = RunConfig {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        device,
        shrink: 1,
    };
    if a.trace {
        return cmd_trace(&cfg);
    }
    let r = run::run(&cfg)?;
    if let DeviceKind::File(dir) = &cfg.device {
        // 16 GB of sparse image is not worth keeping.
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    println!(
        "{}: seed {} · {} client(s) × {} ops · {} repetitions",
        w.name(),
        a.seed,
        w.clients(),
        cfg.timed_ops(),
        r.reps.len(),
    );
    for (i, rep) in r.reps.iter().enumerate() {
        println!(
            "  rep {i}: setup {:.3} s · timed {:.3} s · verify {:.3} s · {:.1} ops/s · p50 {:.1} us · {} retries · {} failed",
            rep.setup_s,
            rep.timed_s,
            rep.verify_s,
            rep.goodput(),
            rep.op_p50_us(),
            rep.retries,
            rep.failed,
        );
    }
    for ((name, unit, _), v) in END_TO_END.iter().zip(&r.values) {
        println!("  {name:<20} {v:>14.4} {unit}");
    }
    print_problems(&r.problems, &r.notes);
    let metrics = END_TO_END
        .iter()
        .zip(&r.values)
        .map(|((n, u, _), v)| (*n, *u, *v))
        .collect();
    let line = result_line(r.correct, r.attempted, r.failed, metrics);
    if a.file_device {
        // A host file system's fsync is the sandbox's, not the program's:
        // kept apart so it is never mistaken for a gated number.
        let path = out_dir()?.join(format!("filedisk-{}.json", w.name()));
        std::fs::write(&path, format!("{line}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "device=file: sandbox numbers, not gated; written to {}",
            path.display()
        );
    }
    println!("{line}");
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn spans_json(spans: &[exec::Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let row = Json::obj([
            ("id", Json::Num(i as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("op_id", Json::Num(s.op_id as f64)),
            ("client", Json::Num(s.client as f64)),
        ]);
        out.push_str(&row.encode());
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

fn cmd_trace(cfg: &RunConfig) -> Result<ExitCode, String> {
    let t = trace::trace(cfg, None)?;
    let w = cfg.workload;
    println!(
        "{}: seed {} · per-layer metrics from one traced repetition",
        w.name(),
        cfg.seed
    );
    for ((name, unit, _), v) in PER_LAYER.iter().zip(&t.values) {
        println!("  {name:<32} {v:>14.4} {unit}");
    }
    let path = out_dir()?.join(format!("spans-{}.json", w.name()));
    std::fs::write(&path, spans_json(&t.spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  {} spans written to {}", t.spans.len(), path.display());
    print_problems(&t.problems, &[]);
    let metrics = PER_LAYER
        .iter()
        .zip(&t.values)
        .map(|((n, u, _), v)| (*n, *u, *v))
        .collect();
    println!("{}", result_line(t.correct, t.attempted, t.failed, metrics));
    Ok(if t.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_ladder() -> Result<ExitCode, String> {
    let rungs = ladder::ladder()?;
    let mut fields = Vec::new();
    for (script, rung, us) in &rungs {
        let name = format!("ladder.{script}.{rung}_us");
        println!("  {name:<36} {us:>12.2} us");
        fields.push((name, Json::Num(*us)));
    }
    let path = out_dir()?.join("ladder.json");
    std::fs::write(&path, format!("{}\n", Json::obj(fields).encode()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("written to {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// `(name, unit, better, bound)` rows of one metric list of the manifest.
fn manifest_metrics(
    manifest: &Json,
    key: &str,
) -> Result<Vec<(String, String, String, f64)>, String> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: entry without {k}"))
    };
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key}"))?
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
            Ok((
                field(m, "name")?,
                field(m, "unit")?,
                field(m, "better")?,
                bound,
            ))
        })
        .collect()
}

fn load_manifest(root: &Path) -> Result<Json, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// Every workload at a twentieth of its op count, one repetition each way:
/// do the names, units and counts this binary emits match the manifest, and
/// does verification pass?
fn cmd_smoke() -> Result<ExitCode, String> {
    let manifest = load_manifest(&repo_root()?)?;
    let mut wrong = Vec::new();
    let mut expect = |what: &str, got: Vec<String>, want: Vec<String>| {
        if got != want {
            wrong.push(format!(
                "{what}: binary emits {got:?}, BENCHMARK.json lists {want:?}"
            ));
        }
    };
    let listed: Vec<String> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    expect(
        "workloads",
        ALL.iter().map(|w| w.name().to_string()).collect(),
        listed,
    );
    let listed = |key: &str| -> Result<Vec<String>, String> {
        let rows = manifest_metrics(&manifest, key)?;
        Ok(rows
            .into_iter()
            .map(|(n, u, b, _)| format!("{n} [{u}] {b}"))
            .collect())
    };
    let emitted = |table: &[(&str, &str, &str)]| -> Vec<String> {
        table
            .iter()
            .map(|(n, u, b)| format!("{n} [{u}] {b}"))
            .collect()
    };
    expect("end_to_end", emitted(&END_TO_END), listed("end_to_end")?);
    expect("per_layer", emitted(PER_LAYER), listed("per_layer")?);
    if manifest.get("run_seconds").and_then(Json::as_f64) != Some(NOMINAL_SECONDS as f64) {
        wrong.push(format!("run_seconds is not {NOMINAL_SECONDS}"));
    }

    for w in ALL {
        let cfg = RunConfig {
            workload: w,
            seed: DEFAULT_SEED,
            seconds: NOMINAL_SECONDS,
            device: DeviceKind::Ram,
            shrink: 20,
        };
        let untraced = run::repetition(&cfg, run::Via::Tcp, false)?;
        let t = trace::trace(&cfg, Some(&untraced))?;
        let r = run::fold(w, vec![untraced]);
        let finite = r.values.iter().chain(&t.values).all(|v| v.is_finite());
        println!(
            "  {:<16} {} ops · {} end-to-end + {} per-layer metrics · {}",
            w.name(),
            cfg.timed_ops() * w.clients(),
            r.values.len(),
            t.values.len(),
            if r.correct && t.correct && finite {
                "ok"
            } else {
                "WRONG"
            },
        );
        wrong.extend(
            r.problems
                .into_iter()
                .chain(t.problems)
                .map(|p| format!("{}: {p}", w.name())),
        );
        if !finite {
            wrong.push(format!("{}: a metric is not a finite number", w.name()));
        }
        if r.failed + t.failed > 0 {
            wrong.push(format!("{}: {} ops failed", w.name(), r.failed + t.failed));
        }
    }
    for p in &wrong {
        println!("PROBLEM: {p}");
    }
    println!("smoke: {}", if wrong.is_empty() { "pass" } else { "FAIL" });
    Ok(if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// Two interleaved sets of `n` runs of every workload (A B A B …, so a host
/// that changes speed changes it for both), judged the way the acceptance
/// check judges: each set's quartile spread, and how much worse set B's
/// median is than set A's, against each metric's own bound.
fn cmd_repeat(n: usize) -> Result<ExitCode, String> {
    if n < 2 {
        return Err("repeat needs at least 2 runs per set".into());
    }
    let manifest = load_manifest(&repo_root()?)?;
    let bounds = manifest_metrics(&manifest, "end_to_end")?;
    println!("# Repeatability of `invbench` on one commit\n");
    println!(
        "`invbench repeat {n}`: two sets of {n} runs per workload, interleaved A B A B, seeds \
         {DEFAULT_SEED}+i, process pinned to one CPU. `spread` is (Q3 − Q1) ÷ median within a set; \
         `B vs A` is how much worse set B's median is than set A's (negative: better). Both must \
         stay within `bound`.\n",
    );
    let mut bad = 0;
    for w in ALL {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            for set in &mut sets {
                let cfg = RunConfig {
                    workload: w,
                    seed: DEFAULT_SEED + i as u64,
                    seconds: NOMINAL_SECONDS,
                    device: DeviceKind::Ram,
                    shrink: 1,
                };
                let r = run::run(&cfg)?;
                if !r.correct {
                    print_problems(&r.problems, &r.notes);
                    return Err(format!("{}: run {i} is not correct", w.name()));
                }
                set.push(r.values);
            }
        }
        println!("## {}\n", w.name());
        println!(
            "| metric | unit | A median | A spread | B median | B spread | B vs A | bound | |"
        );
        println!("|---|---|---|---|---|---|---|---|---|");
        for (m, (name, unit, better, bound)) in bounds.iter().enumerate() {
            let col = |s: &Vec<Vec<f64>>| s.iter().map(|v| v[m]).collect::<Vec<f64>>();
            let stats = |v: &[f64]| {
                let med = summary::median(v);
                let (q1, q3) = summary::quartiles(v);
                (med, if med == 0.0 { 0.0 } else { (q3 - q1) / med })
            };
            let (a_med, a_spread) = stats(&col(&sets[0]));
            let (b_med, b_spread) = stats(&col(&sets[1]));
            let worse = match (a_med == 0.0, better.as_str()) {
                (true, _) => 0.0,
                (_, "higher") => (a_med - b_med) / a_med,
                _ => (b_med - a_med) / a_med,
            };
            // `setup_s` is exempt from the spread rule, not from the median rule.
            let ok = worse <= *bound && (name == "setup_s" || a_spread.max(b_spread) <= *bound);
            bad += usize::from(!ok);
            println!(
                "| `{name}` | {unit} | {a_med:.4} | {:.2} % | {b_med:.4} | {:.2} % | {:+.2} % | {:.1} % | {} |",
                a_spread * 100.0,
                b_spread * 100.0,
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "**OVER**" },
            );
        }
        println!();
    }
    println!(
        "{}",
        if bad == 0 {
            "All metrics within their bounds."
        } else {
            "Some metrics are over their bounds."
        }
    );
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this thread — and so every thread the rig and the harness spawn
/// from it, which inherit the mask — to the lowest CPU it may run on.
///
/// On the 2-vCPU sandbox the scheduler either keeps a client and the server
/// threads it ping-pongs with on one CPU or spreads them over both, and
/// flips between the two from one repetition to the next. Spread out,
/// `two_client_mix` takes twice as long and retries thirty times as many
/// deadlocks; no bound survives that. One CPU is the steadier of the two
/// machines the sandbox can be, so the benchmark always measures that one.
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread; the kernel writes at most `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .ok_or("empty CPU affinity mask")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a live buffer of `size` bytes that the kernel only reads.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("invbench: pinned to CPU {cpu}"),
        Err(e) => eprintln!("invbench: not pinned ({e}); timings will be noisier"),
    }
    let outcome = parse_args(&argv).and_then(|a| match a.mode.as_str() {
        "run" => cmd_run(&a),
        "trace" => cmd_run(&Args { trace: true, ..a }),
        "ladder" => cmd_ladder(),
        "repeat" => cmd_repeat(a.count.unwrap_or(5)),
        "smoke" => cmd_smoke(),
        other => Err(format!(
            "unknown mode {other}; one of run, trace, ladder, repeat, smoke"
        )),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("invbench: {e}");
            ExitCode::from(1)
        }
    }
}
