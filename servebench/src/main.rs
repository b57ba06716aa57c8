//! `servebench`: the serving benchmark of this repository.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <offline-sampling|online-mixed|tcp-multiturn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the checkout root. Serves one workload through the real
//! engine, checks its outputs, and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! run record (host fingerprint, request counts, notes) is printed before
//! it and written under `servebench/out/`, with the traced run's spans.
//! Exits non-zero when a correctness check fails. See `README.md` here.

mod engine;
mod layers;
mod metrics;
mod observe;
mod report;
mod stats;
mod tcp;

use std::process::ExitCode;
use std::time::Instant;

use report::{Fingerprint, Outcome};

/// The workloads, each served by exactly one kernel backend.
const WORKLOADS: [(&str, &str); 3] = [
    ("offline-sampling", "simd"),
    ("online-mixed", "scalar"),
    ("tcp-multiturn", "quant-kv8"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64 finalizer: the benchmark's one source of pseudo-randomness.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `epoch`.
#[must_use]
pub fn secs_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Directory for run records and span files.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the traced run's spans (kept in memory during the run).
pub fn write_spans(args: &RunArgs, spans: &layers::SpanLog, backend: &str, out: &mut Outcome) {
    let header = Fingerprint::collect(backend, args.seed).json();
    let path = out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans.to_json(&header)))
    {
        Ok(()) => out.note("spans_file", path.display()),
        Err(e) => out.note("spans_file_error", e),
    }
    for (layer, secs) in spans.self_times() {
        out.note(format!("self_time_s.{layer}"), secs);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <offline-sampling|online-mixed|tcp-multiturn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let backend = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("unknown", |(_, b)| *b);
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "offline-sampling" => engine::offline(&args, &mut out),
        "online-mixed" => engine::online(&args, &mut out),
        _ => tcp::tcp(&args, &mut out),
    };
    if let Err(e) = result {
        eprintln!("servebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let fingerprint = Fingerprint::collect(backend, args.seed);
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    let record = out.record_json(&fingerprint, &args.workload, args.trace);
    let path = out_dir().join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &record))
    {
        eprintln!("servebench: cannot write {}: {e}", path.display());
    }
    println!("{record}");
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
