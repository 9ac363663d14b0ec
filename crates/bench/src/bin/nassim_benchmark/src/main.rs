//! `nassim_benchmark`: the end-to-end benchmark of the NAssim pipeline
//! and its serving daemon, over the four paths a user touches.
//!
//! ```text
//! nassim_benchmark --seed <u64> [--workload <name>] [--seconds <n>]
//!                  [--trace 0|1] [--spans <file>] [--repeat <n>]
//! ```
//!
//! With `--workload`, one run of that workload prints the hardware, its
//! metrics by name with their units, and as its last line the result
//! JSON: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics of `BENCHMARK.json` untraced, its per-layer metrics with
//! `--trace 1`). Any oracle mismatch makes the run incorrect and the exit
//! code 1. Without `--workload`, or with `--repeat <n>`, the command runs
//! itself once per workload and repetition, so each run's memory peak is
//! its own, and with `--repeat` prints each metric's median and quartiles
//! across the runs, flagging spreads wider than the metric's bound.
//! Every input is generated from `--seed`; the library only receives the
//! generated manuals and requests. See `README.md` beside this package.

mod mixed;
mod onboard;
mod pipeline;
mod query;
mod report;
mod revise;
mod serving;
mod stats;
mod trace;

use nassim::corpus::Fnv1a;
use report::Spec;
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: nassim_benchmark --seed <u64> [--workload <name>] [--seconds <n>] [--trace 0|1] [--spans <file>] [--repeat <n>]";

/// Share by which a traced run's layer spans plus unaccounted time may
/// miss the traced op time.
const ADDITIVITY_TOLERANCE: f64 = 0.01;

/// What a workload needs from the command line.
pub struct RunCtx {
    pub seed: u64,
    /// Timed work per run; workloads with a minimum sample count or a
    /// fixed chain may run longer.
    pub seconds: u64,
    pub trace: bool,
    /// A directory inside the working directory, removed at exit.
    pub scratch: PathBuf,
    /// Zero of every span's timestamps.
    pub epoch: Instant,
}

impl RunCtx {
    /// The seed of one generated input, derived from the run's seed.
    pub fn derive(&self, tag: &str, i: u64) -> u64 {
        Fnv1a::new()
            .write_u64(self.seed)
            .write_field(tag)
            .write_u64(i)
            .finish()
    }

    /// Whether op `i` records spans: every other op of a traced run, so
    /// the untraced half gives `trace.overhead_pct` its baseline.
    pub fn traced(&self, i: u64) -> bool {
        self.trace && i.is_multiple_of(2)
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: u64,
}

fn parse_args(spec: &Spec, mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: spec.run_seconds,
        trace: false,
        spans: None,
        repeat: 1,
    };
    let mut seed = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" if spec.workloads.contains(&value) => args.workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}`: one of {}",
                    spec.workloads.join(", ")
                ))
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--repeat" => args.repeat = number(&value)?.max(1),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// `NASSIM_THREADS`, `NASSIM_RETRIEVAL`, `NASSIM_CRASH`, `NASSIM_FAULTS`,
/// `NASSIM_SERVE_*`, `NASSIM_CORRUPT`, `NASSIM_SCALE` and `NASSIM_SMOKE`
/// each silently change what is measured, so any `NASSIM_*` variable
/// makes the benchmark refuse to run.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NASSIM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: NASSIM_* knobs change what is measured",
            set.join(", ")
        ))
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// nproc, CPU model, kernel, the scratch directory's filesystem and the
/// build profile, printed with every result.
fn hardware() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']).trim());
    let kernel = read("/proc/sys/kernel/osrelease");
    let cwd = std::env::current_dir()
        .and_then(|d| d.canonicalize())
        .unwrap_or_default();
    let mounts = read("/proc/mounts");
    let fs = mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| cwd.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or("unknown", |(_, fs)| fs);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "hardware: nproc={nproc} cpu=\"{cpu}\" kernel={} scratch_fs={fs} profile={profile}",
        kernel.trim()
    )
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_worker(spec: &Spec, args: &Args, workload: &str) -> ExitCode {
    println!("{}", hardware());
    println!(
        "workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
        epoch: Instant::now(),
    };
    let outcome = match workload {
        "onboard" => onboard::run(&ctx),
        "revise" => revise::run(&ctx),
        "query" => query::run(&ctx),
        "mixed" => mixed::run(&ctx),
        _ => Err(format!("workload `{workload}` has no implementation")),
    }
    .and_then(|mut outcome| {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
        Ok(outcome)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        if let Err(e) = trace::check_additivity(&outcome.spans, ADDITIVITY_TOLERANCE) {
            outcome.error(e);
        }
        print!("{}", trace::layer_table(&outcome.spans));
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, trace::to_json(&outcome.spans)) {
                outcome.error(format!("writing {}: {e}", path.display()));
            }
        }
    }
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    if !outcome.correct() {
        eprintln!("{} of {} ops failed", outcome.failed, outcome.attempted);
    }
    if outcome.error_count > outcome.errors.len() {
        eprintln!(
            "error: … and {} more",
            outcome.error_count - outcome.errors.len()
        );
    }
    for m in spec.reported(args.trace) {
        if let Some((_, v)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            println!("{:<36} {v:>14.4} {}", m.name, m.unit);
        }
    }
    match report::result_line(spec, &outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run each workload `repeat` times as a child process, seeds `seed`,
/// `seed + 1`, …; with two or more runs, print every reported metric's
/// median and quartiles and flag spreads wider than its bound.
fn orchestrate(spec: &Spec, args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads = args
        .workload
        .clone()
        .map_or_else(|| spec.workloads.clone(), |w| vec![w]);
    let mut all_ok = true;
    let mut table = Vec::new();
    for w in &workloads {
        let mut results = Vec::new();
        for i in 0..args.repeat {
            let seed = args.seed + i;
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if let Some(spans) = &args.spans {
                cmd.arg("--spans")
                    .arg(format!("{}.{w}.{seed}.json", spans.display()));
            }
            let output = match cmd.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("running {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            all_ok &= output.status.success();
            if let Some(Ok(result)) = text.lines().last().map(serde_json::from_str::<Value>) {
                results.push(result);
            }
        }
        if args.repeat < 2 {
            continue;
        }
        for m in spec.reported(args.trace) {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| match r.get("metrics")?.get(&m.name)?.get("value")? {
                    Value::Num(v) => Some(*v),
                    _ => None,
                })
                .collect();
            let Some((q1, med, q3)) = stats::quartiles(&values) else {
                continue;
            };
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let flag = match m.bound {
                Some(b) if spread > b => format!("SPREAD ABOVE BOUND {:.1}%", b * 100.0),
                Some(b) => format!("within bound {:.1}%", b * 100.0),
                None => String::new(),
            };
            table.push(format!(
                "{w:<8} {:<36} median {med:>12.4} q1 {q1:>12.4} q3 {q3:>12.4} {} spread {:>6.2}% {flag}",
                m.name,
                m.unit,
                spread * 100.0
            ));
        }
    }
    for line in &table {
        println!("{line}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(&spec, std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    match (&args.workload, args.repeat) {
        (Some(w), 1) => run_worker(&spec, &args, w),
        _ => orchestrate(&spec, &args),
    }
}
