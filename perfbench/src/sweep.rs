//! `sweep`: two scenario grids, no rack control bank.
//!
//! - The 64-seed finned-2S R-coord grid (500 rpm command lattice, noisy
//!   square wave) runs through `run_batched` keeping traces; every cell's
//!   traces are spilled with `TraceSet::spill_to` and read back with
//!   `SpilledTraces::load_all`.
//! - The Table-3 matrix (all five solutions × 8 seeds) runs through
//!   `run_with_workers(nproc)`.
//!
//! This covers the single-server closed loop, the lockstep
//! `BatchRcNetwork`, the parallel executor and the trace layer's write
//! and read paths.

use crate::digest;
use crate::stats::{median, nproc, per, percentile, secs_since};
use crate::Report;
use gfsc::sweep::{RunSummary, ScenarioGrid, ScenarioResult, WorkloadRecipe};
use gfsc::Solution;
use gfsc_server::ServerSpec;
use gfsc_sim::{SpilledTraces, TraceSet};
use gfsc_thermal::Topology;
use gfsc_units::Seconds;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BATCHED_SEEDS: u64 = 64;
const BATCHED_HORIZON_S: f64 = 1_800.0;
const TABLE3_SEEDS: u64 = 8;
const TABLE3_HORIZON_S: f64 = 43_200.0;
/// Grid builds per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Cells of each grid re-run one by one on the serial path and compared.
const SERIAL_CHECKS: [usize; 4] = [0, 13, 26, 39];

/// The cell seeds of a grid: `count` consecutive seeds derived from the
/// workload seed.
fn cell_seeds(seed: u64, count: u64) -> Vec<u64> {
    (1..=count).map(|k| seed.wrapping_mul(1000).wrapping_add(k)).collect()
}

fn batched_grid(seed: u64) -> ScenarioGrid {
    let spec = ServerSpec {
        fan_cmd_step: 500.0,
        fan_control_interval: Seconds::new(1.0),
        ..ServerSpec::with_topology(Topology::finned(2, 32))
    };
    ScenarioGrid::builder()
        .horizon(Seconds::new(BATCHED_HORIZON_S))
        .solutions(&[Solution::RCoordFixedTref])
        .seeds(&cell_seeds(seed, BATCHED_SEEDS))
        .workload(WorkloadRecipe::SquareWave { low: 0.1, high: 0.9, period_s: 14.0, sigma: 0.12 })
        .spec_variant("finned2x32-q500", spec)
        .keep_traces(true)
        .build()
}

fn table3_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::builder()
        .horizon(Seconds::new(TABLE3_HORIZON_S))
        .solutions(&Solution::ALL)
        .seeds(&cell_seeds(seed, TABLE3_SEEDS))
        .build()
}

fn summary_digest(s: &RunSummary) -> u64 {
    let h = digest::stats(
        s.total_violations,
        s.total_epochs,
        s.lost_utilization,
        s.fan_energy_j,
        s.cpu_energy_j,
    );
    digest::Fnv::new().word(h).float(s.violation_percent).float(s.horizon_s).finish()
}

/// Wall seconds of each phase of one round.
#[derive(Clone, Copy)]
struct Phases {
    batched: f64,
    spill_write: f64,
    spill_read: f64,
    parallel: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.batched + self.spill_write + self.spill_read + self.parallel
    }
}

/// One round's results and the traces read back from its spill.
struct Round {
    batched: Vec<ScenarioResult>,
    reloaded: Vec<Option<TraceSet>>,
    parallel: Vec<ScenarioResult>,
    spilled_bytes: u64,
    phases: Phases,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let workers = nproc();
    let spill_root = std::env::current_dir()
        .unwrap_or_default()
        .join(".perfbench_tmp")
        .join(format!("spill-{}", std::process::id()));

    // Set-up: the default spec's gain schedule is tuned once per process
    // (and cached); the grids, including the finned spec's tuning, are
    // built on every call.
    let t = Instant::now();
    let _ = gfsc::fine_gain_schedule();
    let schedule_s = secs_since(t);
    let mut builds = Vec::new();
    let mut grids = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        grids = Some((batched_grid(seed), table3_grid(seed)));
        builds.push(secs_since(t));
    }
    let (batched, table3) = grids.expect("SETUP_REPS > 0");
    let cells = (batched.scenarios().len() + table3.scenarios().len()) as u64;
    let sim_s_per_round: f64 =
        batched.scenarios().iter().chain(table3.scenarios()).map(|s| s.horizon.value()).sum();

    let mut first: Vec<u64> = Vec::new();
    let (mut batched_cycles, mut parallel_cycles) = (0, 0);
    let mut rates = Vec::new();
    let mut batched_us = Vec::new();
    let mut parallel_us = Vec::new();
    let mut walls = Vec::new();
    let mut divergent = 0;
    let mut spill_mismatch = 0;
    let started = Instant::now();
    while walls.len() < 2 || secs_since(started) < seconds {
        let round =
            round(&batched, &table3, workers, &spill_root.join(format!("round{}", walls.len())));
        report.attempted += cells;
        spill_mismatch += spill_mismatches(&round);
        let digests = cell_digests(&round);
        if first.is_empty() {
            batched_cycles = round.batched.iter().map(|r| r.summary.total_epochs).sum::<u64>();
            parallel_cycles = round.parallel.iter().map(|r| r.summary.total_epochs).sum::<u64>();
            divergent += serial_mismatches(&batched, &round.batched)
                + serial_mismatches(&table3, &round.parallel);
            for (r, d) in round.batched.iter().chain(&round.parallel).zip(&digests) {
                report.digests.push((r.label.replace(' ', "_"), *d));
            }
            first = digests;
        } else {
            divergent += first.iter().zip(&digests).filter(|(a, b)| a != b).count() as u64;
        }
        let p = round.phases;
        walls.push(p.total());
        // The spill is timed per layer but left out of the rate: its
        // per-file `sync_data` makes it vary by a factor of two between
        // rounds on a shared virtual disk (README.md).
        rates.push(sim_s_per_round / (p.batched + p.parallel));
        batched_us.push(1e6 * p.batched / batched_cycles as f64);
        parallel_us.push(1e6 * p.parallel / parallel_cycles as f64);
    }
    report.check(
        "batched and parallel cells equal the serial path and repeat across rounds",
        divergent,
    );
    report.check("spilled traces read back bitwise", spill_mismatch);

    // Per executor (lockstep batch, parallel scalar): the wall cost of one
    // cell's control cycle, median over rounds.
    let cycle_us = [median(&batched_us), median(&parallel_us)];
    report.metric("sim_rate", median(&rates), "sim-s/s");
    report.sample_count("sim_rate", rates.len());
    report.metric("cycle_p99_us", percentile(&cycle_us, 99.0), "us");
    report.sample_count("cycle_p99_us", cycle_us.len());
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("setup_s", schedule_s + median(&builds), "s");
    report.sample_count("setup_s", builds.len());

    if trace {
        let t = Instant::now();
        let round = round(&batched, &table3, workers, &spill_root.join("traced"));
        let wall = secs_since(t);
        let phases = round.phases;
        report.attempted += cells;
        let digests = cell_digests(&round);
        report.check(
            "traced round reproduces the untraced outputs",
            first.iter().zip(&digests).filter(|(a, b)| a != b).count() as u64
                + spill_mismatches(&round),
        );
        let mb = round.spilled_bytes as f64 / 1e6;
        let batchable = batched
            .scenarios()
            .iter()
            .chain(table3.scenarios())
            .filter(|s| s.is_batchable())
            .count();
        report.metric("core.grid_build_s", median(&builds), "s");
        report.metric("core.run_batched_s", phases.batched, "s");
        report.metric("core.run_parallel_s", phases.parallel, "s");
        report.metric("core.batched_share", per(batchable as f64, cells), "ratio");
        report.metric("sim.spill_write_mb_s", mb / phases.spill_write, "MB/s");
        report.metric("sim.spill_read_mb_s", mb / phases.spill_read, "MB/s");
        report.metric("sim.workers", workers as f64, "count");
        report.metric("traced.overhead", wall / median(&walls) - 1.0, "ratio");
        report.metric("traced.unattributed_share", 1.0 - phases.total() / wall, "ratio");
    }
    let _ = std::fs::remove_dir_all(&spill_root);
    let _ = std::fs::remove_dir(spill_root.parent().unwrap_or(&spill_root));
    report
}

/// Runs one round, timing each phase.
fn round(
    batched: &ScenarioGrid,
    table3: &ScenarioGrid,
    workers: usize,
    spill_root: &Path,
) -> Round {
    let t = Instant::now();
    let batched_results = batched.run_batched();
    let t_batched = Instant::now();
    let dirs: Vec<PathBuf> =
        (0..batched_results.len()).map(|i| spill_root.join(format!("cell{i}"))).collect();
    let mut spilled_bytes = 0;
    for (result, dir) in batched_results.iter().zip(&dirs) {
        if let Some(traces) = &result.traces {
            // A failed write shows as a failed read-back below.
            let _ = traces.spill_to(dir);
            spilled_bytes += traces.iter().map(|tr| 16 * tr.len() as u64).sum::<u64>();
        }
    }
    let t_written = Instant::now();
    let reloaded: Vec<Option<TraceSet>> =
        dirs.iter().map(|dir| SpilledTraces::open(dir).and_then(|s| s.load_all()).ok()).collect();
    let t_read = Instant::now();
    let parallel = table3.run_with_workers(workers);
    let t_parallel = Instant::now();
    let phases = Phases {
        batched: (t_batched - t).as_secs_f64(),
        spill_write: (t_written - t_batched).as_secs_f64(),
        spill_read: (t_read - t_written).as_secs_f64(),
        parallel: (t_parallel - t_read).as_secs_f64(),
    };
    Round { batched: batched_results, reloaded, parallel, spilled_bytes, phases }
}

fn cell_digests(round: &Round) -> Vec<u64> {
    let traces = |r: &ScenarioResult| r.traces.as_ref().map_or(0, digest::traces);
    round
        .batched
        .iter()
        .chain(&round.parallel)
        .map(|r| digest::Fnv::new().word(summary_digest(&r.summary)).word(traces(r)).finish())
        .collect()
}

/// Cells whose read-back traces differ from the in-memory ones.
fn spill_mismatches(round: &Round) -> u64 {
    round
        .batched
        .iter()
        .zip(&round.reloaded)
        .filter(|(r, back)| {
            r.traces.as_ref().map(digest::traces) != back.as_ref().map(digest::traces)
        })
        .count() as u64
}

/// Re-runs [`SERIAL_CHECKS`] cells of `grid` on the serial path and
/// counts those whose summary or traces differ from `results`.
fn serial_mismatches(grid: &ScenarioGrid, results: &[ScenarioResult]) -> u64 {
    let mut mismatches = 0;
    for &i in SERIAL_CHECKS.iter().filter(|&&i| i < results.len()) {
        let outcome = grid.scenarios()[i].run();
        let summary_ok = RunSummary::from(&outcome) == results[i].summary;
        let traces_ok = results[i]
            .traces
            .as_ref()
            .is_none_or(|t| digest::traces(t) == digest::traces(&outcome.traces));
        if !(summary_ok && traces_ok) {
            mismatches += 1;
        }
    }
    mismatches
}
