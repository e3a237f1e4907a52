//! Benchmark worker: generates one workload's inputs from a seed, runs the
//! workload once in this process, checks its outputs and prints what it
//! measured as one JSON line.
//!
//! `perfbench/run.py` starts a fresh worker process for every repeat, so
//! no allocator or cache state carries over from one measurement to the
//! next, and reports medians across the repeats.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--spans <file>]
//! ```
//!
//! With `--spans` the worker traces: it records spans around every call
//! into the library, attaches the chip `Profiler`, and reports per-layer
//! metrics; the spans are written to `<file>` at exit. Workloads and the reasons
//! they were chosen are described in `perfbench/NOTES.md`.

mod chip;
mod serve;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;

/// The workloads, by the names `--workload` accepts.
const WORKLOADS: [&str; 4] = ["chip-t64-sparse", "chip-t4-bloat", "serve-mix", "design-sweep"];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds spent generating inputs and warming up before the timed phase.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Operations attempted (chip runs or serve replays).
    pub attempted: u64,
    /// Attempted operations that errored or produced a wrong result.
    pub failed: u64,
    /// End-to-end metrics of this workload: name, value, unit.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Exact simulated counts. The same seed gives the same values in every
    /// process, traced or not; `run.py` fails a run where they differ.
    pub sim: BTreeMap<String, f64>,
    /// Per-layer metrics; filled only by the traced run.
    pub layers: Vec<(&'static str, f64)>,
}

/// Set-ups per process: `setup_s` is their median, and the setup spans'
/// per-layer times are their mean.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times, each inside a `setup` span, and
/// returns the median time and the last result.
pub fn repeated_setup<T>(spans: &mut Spans, mut setup: impl FnMut(&mut Spans) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        let id = spans.begin("setup");
        last = Some(setup(spans));
        spans.end(id);
        times.push(started.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[SETUP_REPEATS / 2], last.expect("SETUP_REPEATS is positive"))
}

/// splitmix64: derives independent input seeds from the benchmark seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not provide it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_line(m: &Measured, peak_rss_mb: f64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"setup_s\": {}, \"wall_s\": {}, \"peak_rss_mb\": {}, \"attempted\": {}, \"failed\": {}",
        json_number(m.setup_s),
        json_number(m.wall_s),
        json_number(peak_rss_mb),
        m.attempted,
        m.failed
    );
    let e2e: Vec<String> = m
        .e2e
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    let sim: Vec<String> =
        m.sim.iter().map(|(name, value)| format!("\"{name}\": {}", json_number(*value))).collect();
    let layers: Vec<String> = m
        .layers
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
        .collect();
    let _ = write!(
        out,
        ", \"e2e\": {{{}}}, \"sim\": {{{}}}, \"layers\": {{{}}}}}",
        e2e.join(", "),
        sim.join(", "),
        layers.join(", ")
    );
    out
}

struct Args {
    workload: String,
    seed: u64,
    spans_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut spans_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => {
                let raw = args.next().ok_or("--seed needs a value")?;
                seed = Some(raw.parse::<u64>().map_err(|_| format!("bad --seed {raw:?}"))?);
            }
            "--spans" => spans_path = Some(args.next().ok_or("--spans needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, spans_path })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let mut spans = if args.spans_path.is_some() { Spans::on(origin) } else { Spans::off(origin) };
    let measured = match args.workload.as_str() {
        "chip-t64-sparse" => chip::t64_sparse(args.seed, &mut spans),
        "chip-t4-bloat" => chip::t4_bloat(args.seed, &mut spans),
        "serve-mix" => serve::serve_mix(args.seed, &mut spans),
        "design-sweep" => chip::design_sweep(args.seed, &mut spans),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if let Some(path) = &args.spans_path {
        if let Err(e) = std::fs::write(path, spans.to_json()) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", json_line(&measured, peak_rss_mb()));
    ExitCode::SUCCESS
}
