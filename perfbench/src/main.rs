//! The repository benchmark: one workload per invocation, driven
//! through the libraries' public APIs from a single process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A failed output check exits 1. See
//! `perfbench/README.md` for the metrics and workloads.

mod host;
mod lifecycle;
mod replay;
mod report;
mod serve;
mod spans;
mod spread;
mod static_sim;
mod stats;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{lines, result_json, Metric, Outcome};
use spans::Tracer;

pub use stats::median;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20_200_613;

/// Per-run files (untraced figures, spans, snapshot scratch space),
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["static_mem", "static_compute", "lifecycle", "serve"];

/// Run `f`, returning its value and host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Simulated instructions of a trace: each record's gap plus its
/// memory operation.
pub fn instructions(gaps: impl Iterator<Item = u32>) -> u64 {
    gaps.map(|g| u64::from(g) + 1).sum()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {WORKLOADS:?}")));
                }
                args.workload = value;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required: one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// High-water resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// A scratch directory for this process under [`OUT_DIR`].
pub fn scratch_dir(tag: &str) -> PathBuf {
    let d = Path::new(OUT_DIR).join(format!("scratch-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn run_workload(workload: &str, seed: u64, budget: Duration, tr: &mut Tracer) -> Outcome {
    match workload {
        "static_mem" => static_sim::run(["mcf", "bfs"], seed, budget, tr),
        "static_compute" => static_sim::run(["perlbench", "ep"], seed, budget, tr),
        "lifecycle" => lifecycle::run(seed, budget, tr),
        "serve" => serve::run(seed, budget, tr),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Re-run this process once with address-space randomisation off.
///
/// Where the simulator's code and data land in memory moves its speed
/// from one process to the next: ten runs of one seed of
/// `static_compute` ran at three distinct speeds, about 10 % apart.
/// With a fixed layout, runs of one build repeat. Where the kernel
/// refuses, the run goes on with a random layout.
#[cfg(target_os = "linux")]
fn fix_layout() {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
    const QUERY: c_ulong = 0xffff_ffff;
    extern "C" {
        fn personality(persona: c_ulong) -> c_int;
    }
    // SAFETY: personality(2) only reads or sets this process's
    // execution-domain flags, which take effect at the next exec.
    let current = unsafe { personality(QUERY) };
    if current < 0 || current as c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above.
    if unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        let err = Command::new(exe).args(std::env::args_os().skip(1)).exec();
        eprintln!("note: running with a random layout: re-exec failed: {err}");
    }
}

#[cfg(not(target_os = "linux"))]
fn fix_layout() {}

fn main() -> ExitCode {
    fix_layout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "spread") {
        return match spread::report(&argv[1..]) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run, print, and record; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let mut tr = Tracer::new(args.trace, Instant::now());
    let budget = Duration::from_secs(args.seconds);
    let mut out = tr.span("bench.workload", args.seed, |tr| {
        run_workload(&args.workload, args.seed, budget, tr)
    });
    let e2e = out.end_to_end(peak_rss_mb()?);
    let stem = Path::new(OUT_DIR).join(format!("{}-{}", args.workload, args.seed));
    let untraced_file = stem.with_extension("untraced");
    let build = build_id()?;

    println!(
        "workload {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("end-to-end (every workload):\n{}", lines(&e2e));
    let mut named = out.named.clone();
    named.push(report::metric("failed_frac", out.failed_frac(), "ratio"));
    named.push(report::metric(
        "host_slowdown",
        out.host_slowdown(),
        "ratio",
    ));
    named.push(report::metric("setup_s_unscaled", out.setup_s, "s"));
    named.push(report::metric(
        "sim_minstr_per_s_unscaled",
        out.sim_minstr_per_s,
        "Minstr/s",
    ));
    println!("end-to-end ({} only):\n{}", args.workload, lines(&named));

    if args.trace {
        // One round of the same workload, untraced, in this process:
        // every simulated statistic must match the traced run's.
        let untraced = run_workload(
            &args.workload,
            args.seed,
            Duration::ZERO,
            &mut Tracer::new(false, Instant::now()),
        );
        for f in untraced.failures {
            out.check(false, || format!("untraced pass: {f}"));
        }
        let same = untraced.exact == out.exact;
        out.check(same, || {
            "simulated statistics differ between traced and untraced runs".to_owned()
        });
        // Tracing overhead, against an untraced run of the same build
        // and seed made in this directory.
        let untraced = fs::read_to_string(&untraced_file).ok().and_then(|body| {
            body.strip_prefix(&format!("build {build}\n"))
                .map(str::to_owned)
        });
        if untraced.is_none() {
            println!("(no untraced run of this build and seed here: tracing overhead not shown)");
        }
        if let Some(untraced) = untraced {
            println!("tracing overhead (traced - untraced):");
            for m in e2e.iter().chain(&named) {
                if let Some(base) = lookup(&untraced, &m.name) {
                    println!(
                        "  {:<30} {:>+14.6} {} ({:+.2}%)",
                        m.name,
                        m.value - base,
                        m.unit,
                        100.0 * (m.value - base) / base.abs().max(f64::MIN_POSITIVE)
                    );
                }
            }
        }
        let spans_file = stem.with_extension("spans.jsonl");
        write(&spans_file, &spans::to_jsonl(tr.spans()))?;
        let table = layer_table(&tr, &out);
        write(&stem.with_extension("layers.txt"), &table)?;
        println!(
            "{table}spans: {} ({} recorded)",
            spans_file.display(),
            tr.spans().len()
        );
    } else {
        let body: String = e2e
            .iter()
            .chain(&named)
            .map(|m| format!("{} {:?} {}\n", m.name, m.value, m.unit))
            .collect();
        write(&untraced_file, &format!("build {build}\n{body}"))?;
    }

    let metrics: Vec<Metric> = if args.trace {
        out.layers.metrics()
    } else {
        e2e
    };
    for m in &metrics {
        out.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

/// FNV-1a hash of this executable: the build that wrote a figures file.
fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let bytes = fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Ok(format!("{h:016x}"))
}

/// A value from an untraced-figures file (`name value unit` lines).
fn lookup(body: &str, name: &str) -> Option<f64> {
    body.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(name)).then(|| f.next()?.parse().ok())?
    })
}

/// The traced run's per-layer table: span-derived host time per layer,
/// then every per-layer metric.
fn layer_table(tr: &Tracer, out: &Outcome) -> String {
    const LAYERS: [&str; 10] = [
        "bench",
        "trace",
        "sim",
        "core",
        "dram",
        "enclave",
        "reliability",
        "snap",
        "migrate",
        "serve",
    ];
    let table = spans::layer_table(tr.spans());
    let mut s = format!(
        "per-layer host time from spans:\n  {:<12} {:>8} {:>14} {:>14}\n",
        "layer", "spans", "total_ms", "self_ms"
    );
    for layer in LAYERS {
        let row = table.get(layer).cloned().unwrap_or_default();
        s += &format!(
            "  {:<12} {:>8} {:>14.3} {:>14.3}\n",
            layer,
            row.spans,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
    }
    s += "  (enclave and reliability run inside sim.run: no public call to span; see their counts)\n";
    s += "per-layer metrics:\n";
    s += &lines(&out.layers.metrics());
    s += &lines(&out.layer_detail);
    s
}
