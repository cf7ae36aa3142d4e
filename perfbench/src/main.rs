//! `perfbench`: end-to-end and per-layer benchmark of the sharpness CLI
//! and service. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <cli_4k|cli_1k_rgb|serve_zipf> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir <dir>] [--trace-out <file>] [--revision <id>]
//! ```
//!
//! Prints report lines, then as its last line one JSON object with the
//! run's verdict and metrics. Exits non-zero on any failed check.

mod cli_load;
mod frame;
mod report;
mod serve_load;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest and most set-ups per run, and the wall seconds after which no
/// further set-up starts once the fewest are done. `setup_s` is the
/// median of the set-ups made.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;

/// Runs the set-up `f` repeatedly, as [`SETUPS_MIN`] and its siblings
/// say. Returns the last set-up's result and the wall seconds of each.
pub fn repeated_setup<T>(
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = f()?;
        secs.push(t0.elapsed().as_secs_f64());
        let spent: f64 = secs.iter().sum();
        if secs.len() >= SETUPS_MAX || (secs.len() >= SETUPS_MIN && spent >= SETUP_BUDGET_S) {
            return Ok((out, secs));
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the CLI workloads' files.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    pub revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut trace_out = None;
    let mut revision = "unknown".to_string();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--revision" => revision = value()?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.join(format!("{}-{}", std::process::id(), seed)),
        trace_out,
        revision,
    })
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn provenance(a: &Args) -> String {
    use sharpness::core::simd;
    format!(
        "provenance workload={} seed={} seconds={} trace={} nproc={} cpu_features=[{}] \
         backend={} simd_feature={} build_profile={} revision={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd::host_features(),
        simd::active_backend().label(),
        if simd::simd_compiled() { "on" } else { "off" },
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        a.revision,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let mut tracer_out = None;
    let result = match args.workload.as_str() {
        "cli_4k" => cli_load::run(&cli_load::CLI_4K, &args, &mut tracer_out),
        "cli_1k_rgb" => cli_load::run(&cli_load::CLI_1K_RGB, &args, &mut tracer_out),
        "serve_zipf" => serve_load::run(&args, &mut tracer_out),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let (Some(path), Some(jsonl)) = (&args.trace_out, tracer_out) {
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    let finite = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .all(|m| m.value.is_finite());
    outcome.check("finite_metrics", finite, "every metric is a finite number");
    outcome.print(args.trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
