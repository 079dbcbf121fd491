//! The gfsc benchmark: three workloads, each run in one process, timed
//! end to end with tracing off and layer by layer in a separate traced
//! run. See `README.md` for the workloads, the metrics and how each
//! layer metric is predicted to move the end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rack_modes --seed 0 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it
//! carries the host fingerprint and the sample count behind every
//! median and percentile; the lines before that are the per-run and
//! per-cell output digests.

mod daemon_paced;
mod digest;
mod rack_modes;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: mode runs, grid cells or control cycles.
    pub attempted: u64,
    /// Operations that failed a check (or, for a control cycle, fell
    /// back, panicked, failed a read or write, or overran).
    pub failed: u64,
    /// Checks that failed, by name (empty on a correct run).
    pub broken: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Sample count behind each median or percentile metric.
    pub samples: Vec<(String, usize)>,
    /// `(label, digest)` of every mode run, grid cell or daemon run.
    pub digests: Vec<(String, u64)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn sample_count(&mut self, name: impl Into<String>, count: usize) {
        self.samples.push((name.into(), count));
    }

    /// Records the outcome of a check; `failures` operations failed it.
    pub fn check(&mut self, name: impl Into<String>, failures: u64) {
        if failures > 0 {
            self.failed += failures;
            self.broken.push(name.into());
        }
    }
}

/// The per-layer metric names every traced run reports, in print order.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workload.sample_ns", "ns"),
    ("coord.epoch_cpu_ns", "ns"),
    ("coord.epoch_fan_ns", "ns"),
    ("coord.min_safe_probes", "count"),
    ("coord.min_safe_probe_ns", "ns"),
    ("coord.load_shifts", "count"),
    ("mode.lockstep.sim_rate", "sim-s/s"),
    ("mode.coordinated.sim_rate", "sim-s/s"),
    ("mode.coordinated-adaptive.sim_rate", "sim-s/s"),
    ("mode.coordinated-ss.sim_rate", "sim-s/s"),
    ("mode.coordinated-ecoord.sim_rate", "sim-s/s"),
    ("mode.global-ecoord.sim_rate", "sim-s/s"),
    ("mode.coordinated-migrate.sim_rate", "sim-s/s"),
    ("rack.step_ns", "ns"),
    ("core.grid_build_s", "s"),
    ("core.run_batched_s", "s"),
    ("core.run_parallel_s", "s"),
    ("core.batched_share", "ratio"),
    ("sim.spill_write_mb_s", "MB/s"),
    ("sim.spill_read_mb_s", "MB/s"),
    ("sim.workers", "count"),
    ("daemon.poll_ns", "ns"),
    ("daemon.actuate_ns", "ns"),
    ("daemon.fan_writes", "count"),
    ("daemon.advance_ns", "ns"),
    ("daemon.cycle_fan_us", "us"),
    ("daemon.cycle_cpu_us", "us"),
    ("daemon.lateness_p99_us", "us"),
    ("daemon.deadline_misses", "count"),
    ("daemon.overruns", "count"),
    ("obs.events_recorded", "count"),
    ("obs.events_dropped", "count"),
    ("traced.overhead", "ratio"),
    ("traced.unattributed_share", "ratio"),
];

/// The end-to-end metric names every untraced run reports.
pub const END_TO_END: [(&str, &str); 4] =
    [("sim_rate", "sim-s/s"), ("cycle_p99_us", "us"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "rack_modes" => rack_modes::run(args.seed, args.seconds, args.trace),
        "sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "daemon_paced" => daemon_paced::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other} (rack_modes, sweep, daemon_paced)");
            return ExitCode::from(2);
        }
    };
    let mismatches = digest::check_recorded(&args.workload, args.seed, &report.digests);
    report.check("recorded digests", mismatches);

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // A layer this workload does not exercise reports 0.
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.metric(name, 0.0, unit);
            }
        }
    }
    for (name, unit) in wanted {
        let Some(metric) = report.metrics.iter().find(|m| m.name == *name) else {
            eprintln!("perfbench: internal error: workload did not report {name}");
            return ExitCode::from(3);
        };
        if metric.unit != *unit || !metric.value.is_finite() {
            eprintln!(
                "perfbench: internal error: bad value for {name}: {} {}",
                metric.value, metric.unit
            );
            return ExitCode::from(3);
        }
    }
    for broken in &report.broken {
        eprintln!("perfbench: check failed: {broken}");
    }
    for (label, value) in &report.digests {
        println!("digest {} {} {label} {value:016x}", args.workload, args.seed);
    }
    let combined = digest::combined(&report.digests);
    println!("digest {} {} * {combined:016x}", args.workload, args.seed);
    println!("{}", fingerprint_line(&args, &report));
    println!("{}", result_line(&report, wanted));
    ExitCode::SUCCESS
}

/// The host fingerprint, the run's identity and the sample counts.
fn fingerprint_line(args: &Args, report: &Report) -> String {
    let mut samples = String::new();
    for (i, (name, count)) in report.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(samples, "{sep}\"{name}\": {count}");
    }
    format!(
        "{{\"host\": {{\"cpu_model\": \"{}\", \"nproc\": {}}}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"samples\": {{{samples}}}}}",
        stats::cpu_model().replace(['"', '\\'], ""),
        stats::nproc(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_line(report: &Report, wanted: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, _)) in wanted.iter().enumerate() {
        let m = report.metrics.iter().find(|m| m.name == *name).expect("checked in main");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.broken.is_empty(),
        report.attempted.max(1),
        report.failed,
    )
}
