//! `daemon_paced`: an open loop. Control cycle *k* is due at origin +
//! *k* · period whether or not earlier cycles finished.
//!
//! `gfsc-daemon` is built from a config through `DaemondSpec::parse`:
//! `global-e-coord` on `shared-plenum:4`, the daemond defaults with the
//! flight recorder armed, and a noisy spiking workload seeded from the
//! benchmark seed, over `SimTelemetry`. It runs under
//! `Daemon::run_paced` at 1 ms of wall time per 1 s control cycle.
//!
//! The benchmark's own [`SpinClock`] spins to each deadline instead of
//! sleeping, so lateness measures the program's backlog rather than OS
//! timer slack, and the virtual CPU is not halted between cycles (after
//! a sleep, the median cycle cost varied by 30 % from run to run).
//!
//! This is the only workload with the watchdog, the daemon's rack
//! mirror and the armed recorder on the path; the plant step
//! (`SimTelemetry::advance`) runs between cycles, off the cycle path.

use crate::digest;
use crate::stats::{median, ns_since, per, percentile, secs_since};
use crate::Report;
use gfsc_coord::RackLoopSim;
use gfsc_daemon::{
    Daemon, DaemonRunOutcome, DaemondSpec, FanActuator, FaultPlan, SimTelemetry, TelemetryError,
    TelemetrySource, WallClock,
};
use gfsc_sim::{Clock, Periodic, TraceSet};
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use std::time::Instant;

/// Wall seconds per simulated control second.
const TIME_SCALE: f64 = 0.001;
/// The fewest control cycles a run paces.
const MIN_CYCLES: f64 = 10_000.0;
/// Daemon builds per run; `setup_s` reports their median.
const SETUP_REPS: usize = 101;

/// The daemon's config file. The deadline-miss tolerance is the daemond
/// default (50 ms) scaled by the time scale, like the period.
fn config(seed: u64, horizon_s: f64) -> String {
    format!(
        "[daemon]\n\
         control = \"global-e-coord\"\n\
         topology = \"shared-plenum:4\"\n\
         horizon_s = {horizon_s}\n\
         [pacing]\n\
         time_scale = {TIME_SCALE}\n\
         miss_tolerance_s = {}\n\
         [backend]\n\
         kind = \"sim\"\n\
         [workload]\n\
         square_low = 0.1\n\
         square_high = 0.7\n\
         square_period_s = 400.0\n\
         square_duty = 0.5\n\
         noise_sigma = 0.04\n\
         noise_seed = {seed}\n\
         spike_rate_hz = {}\n\
         spike_len_s = 30.0\n\
         spike_amplitude = 0.8\n\
         spike_seed = {}\n",
        0.05 * TIME_SCALE,
        1.0 / 240.0,
        seed.wrapping_add(1),
    )
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let horizon_s = (seconds / TIME_SCALE).max(MIN_CYCLES).round();
    let horizon = Seconds::new(horizon_s);
    let text = config(seed, horizon_s);

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let daemon = DaemondSpec::parse(&text).and_then(|spec| {
            let daemon = spec.build_sim_daemon()?;
            Ok((spec, daemon))
        });
        setups.push(secs_since(t));
        built = Some(daemon);
    }
    let (spec, mut daemon) = match built.expect("SETUP_REPS > 0") {
        Ok(built) => built,
        Err(e) => {
            eprintln!("perfbench: daemon config rejected: {e}");
            report.attempted = 1;
            report.check("daemon builds from its config", 1);
            return report;
        }
    };

    let paced = paced(&mut daemon, &spec, horizon);
    let out = &paced.outcome;
    let cycles = paced.clock.work_s.len();
    report.attempted += cycles as u64;
    let m = &out.metrics;
    let recorded = out.traces.get("u_demand").map_or(0, gfsc_sim::Trace::len);
    let fallback_cycles = cycles.saturating_sub(recorded) as u64;
    // An isolated overrun is a layer count (`daemon.overruns`), like a
    // deadline miss: on a virtual machine the hypervisor stalls the
    // virtual CPU for milliseconds at a time, and an unchanged tree shows
    // a few such overruns per 10 000 cycles. A run of them long enough
    // to trip the watchdog's overrun-streak fallback counts below as
    // fallback cycles.
    report.check("cycles failed a read", m.read_failures);
    report.check("cycles failed a write", m.write_failures);
    report.check("cycles panicked", m.controller_panics);
    report.check("cycles ran in firmware fallback", fallback_cycles);

    // The same spec and seed through the batch loop.
    let reference = spec.rack_spec().and_then(|rack| {
        let mut sim = RackLoopSim::builder(rack)
            .workload(spec.build_workload()?)
            .control(spec.control)
            .build();
        Ok(sim.run(horizon))
    });
    let zones = daemon.backend().server().zone_count();
    let sockets = daemon.backend().server().socket_count();
    let mismatched = match &reference {
        Ok(batch) => mismatched_epochs(&batch.traces, &out.traces, zones, sockets),
        Err(_) => cycles as u64,
    };
    report.check("daemon traces equal RackLoopSim on the same spec and seed", mismatched);
    let server = daemon.backend().server();
    let stats = digest::stats(
        out.total_violations,
        out.total_epochs,
        0.0,
        server.fan_energy().value(),
        server.cpu_energy().value(),
    );
    let traces = parity_digest(&out.traces, zones, sockets);
    report.digests.push((
        format!("plenum4/global-ecoord/{horizon_s}s"),
        digest::Fnv::new().word(stats).word(traces).finish(),
    ));

    let work_us: Vec<f64> = paced.clock.work_s.iter().map(|s| s * 1e6).collect();
    report.metric("sim_rate", horizon_s / paced.wall_s, "sim-s/s");
    report.sample_count("sim_rate", 1);
    report.metric("cycle_p99_us", percentile(&work_us, 99.0), "us");
    report.sample_count("cycle_p99_us", work_us.len());
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("setup_s", median(&setups), "s");
    report.sample_count("setup_s", setups.len());

    if trace {
        traced(&mut report, &spec, horizon, &paced, traces, stats);
    }
    report
}

/// A paced run's outcome and timings.
struct Paced {
    outcome: DaemonRunOutcome,
    clock: SpinClock,
    wall_s: f64,
}

fn paced<B: TelemetrySource + FanActuator>(
    daemon: &mut Daemon<B>,
    spec: &DaemondSpec,
    horizon: Seconds,
) -> Paced {
    let cycles = horizon.value() as usize + 1;
    let mut clock = SpinClock::new(cycles);
    let t = Instant::now();
    let outcome = daemon.run_paced(horizon, &mut clock, spec.pacing);
    let wall_s = secs_since(t);
    Paced { outcome, clock, wall_s }
}

fn traced(
    report: &mut Report,
    spec: &DaemondSpec,
    horizon: Seconds,
    untraced: &Paced,
    traces: u64,
    stats: u64,
) {
    let built = spec.rack_spec().and_then(|rack| {
        let cfg = spec.daemon_config();
        let sim = SimTelemetry::new(
            rack.clone(),
            spec.build_workload()?,
            cfg.start_utilization,
            cfg.start_fan,
            FaultPlan::none(),
        );
        Ok(Daemon::new(TimedBackend::new(sim), rack, cfg))
    });
    let Ok(mut daemon) = built else {
        report.check("traced daemon builds", 1);
        return;
    };
    let paced = paced(&mut daemon, spec, horizon);
    let backend = daemon.backend();
    let server = backend.inner.server();
    let zones = server.zone_count();
    let sockets = server.socket_count();
    let traced_stats = digest::stats(
        paced.outcome.total_violations,
        paced.outcome.total_epochs,
        0.0,
        server.fan_energy().value(),
        server.cpu_energy().value(),
    );
    let cycles = paced.clock.work_s.len() as u64;
    report.attempted += cycles;
    let same =
        traced_stats == stats && parity_digest(&paced.outcome.traces, zones, sockets) == traces;
    report.check("traced daemon run reproduces the untraced outputs", u64::from(!same));

    // Cycle classes and pacing come from the untraced run.
    let fan_due = fan_due_cycles(spec, horizon);
    let (mut fan_us, mut cpu_us) = (Vec::new(), Vec::new());
    for (work, due) in untraced.clock.work_s.iter().zip(&fan_due) {
        if *due { &mut fan_us } else { &mut cpu_us }.push(work * 1e6);
    }
    let late_us: Vec<f64> = untraced.clock.late_s.iter().map(|s| s * 1e6).collect();
    let m = &untraced.outcome.metrics;
    let flight = untraced.outcome.flight.as_ref();
    report.metric("daemon.poll_ns", per(backend.poll_ns as f64, cycles), "ns");
    report.metric("daemon.actuate_ns", per(backend.actuate_ns as f64, cycles), "ns");
    report.metric("daemon.fan_writes", backend.fan_writes as f64, "count");
    report.metric("daemon.advance_ns", per(backend.advance_ns as f64, backend.advances), "ns");
    report.metric("daemon.cycle_fan_us", median(&fan_us), "us");
    report.metric("daemon.cycle_cpu_us", median(&cpu_us), "us");
    report.metric("daemon.lateness_p99_us", percentile(&late_us, 99.0), "us");
    report.metric("daemon.deadline_misses", m.deadline_misses as f64, "count");
    report.metric("daemon.overruns", m.cycle_overruns as f64, "count");
    report.metric("obs.events_recorded", flight.map_or(0.0, |f| f.recorded as f64), "count");
    report.metric("obs.events_dropped", flight.map_or(0.0, |f| f.dropped as f64), "count");
    report.sample_count("daemon.cycle_fan_us", fan_us.len());
    report.sample_count("daemon.cycle_cpu_us", cpu_us.len());
    report.sample_count("daemon.lateness_p99_us", late_us.len());

    let work: f64 = paced.clock.work_s.iter().sum();
    let untraced_work: f64 = untraced.clock.work_s.iter().sum();
    let attributed = work + paced.clock.wait_s + backend.advance_ns as f64 * 1e-9;
    report.metric("traced.overhead", work / untraced_work - 1.0, "ratio");
    report.metric("traced.unattributed_share", 1.0 - attributed / paced.wall_s, "ratio");
}

/// Whether each control cycle of a run is fan-due, replaying the
/// daemon's multi-rate schedule.
fn fan_due_cycles(spec: &DaemondSpec, horizon: Seconds) -> Vec<bool> {
    let Ok(rack) = spec.rack_spec() else { return Vec::new() };
    let server = rack.server;
    let mut clock = Clock::new(server.sim_dt);
    let mut cpu = Periodic::new(server.cpu_control_interval);
    let mut fan = Periodic::new(server.fan_control_interval);
    let mut due = Vec::new();
    for _ in 0..=clock.steps_for(horizon) {
        let now = clock.now();
        if cpu.is_due(now) {
            due.push(fan.is_due(now));
        }
        clock.tick();
    }
    due
}

/// The channels the daemon drives from polled telemetry (its plant
/// model channels read an un-stepped mirror by design).
fn parity_channels(zones: usize, sockets: usize) -> Vec<String> {
    let mut names = vec!["u_demand".to_owned()];
    for z in 0..zones {
        names.push(format!("z{z}_fan_rpm"));
        names.push(format!("z{z}_t_meas_c"));
    }
    names.extend((0..sockets).map(|i| format!("s{i}_cap")));
    names
}

fn parity_digest(set: &TraceSet, zones: usize, sockets: usize) -> u64 {
    let mut h = digest::Fnv::new();
    for name in parity_channels(zones, sockets) {
        h.text(&name);
        if let Some(trace) = set.get(&name) {
            for (&t, &v) in trace.times().iter().zip(trace.values()) {
                h.float(t).float(v);
            }
        }
    }
    h.finish()
}

/// Epochs at which any parity channel differs bitwise (or exists in
/// only one of the two runs).
fn mismatched_epochs(want: &TraceSet, got: &TraceSet, zones: usize, sockets: usize) -> u64 {
    let epochs = want.get("u_demand").map_or(0, gfsc_sim::Trace::len);
    let mut bad = vec![false; epochs];
    let mut extra = 0;
    for name in parity_channels(zones, sockets) {
        let (Some(w), Some(g)) = (want.get(&name), got.get(&name)) else {
            bad.fill(true);
            continue;
        };
        for (k, slot) in bad.iter_mut().enumerate() {
            let same = |a: &[f64], b: &[f64]| match (a.get(k), b.get(k)) {
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            };
            if !same(w.times(), g.times()) || !same(w.values(), g.values()) {
                *slot = true;
            }
        }
        extra = extra.max(g.len().saturating_sub(w.len()));
    }
    bad.iter().filter(|b| **b).count() as u64 + extra as u64
}

/// The pacing clock: spins to each deadline. Records each cycle's work time (from the deadline
/// wait returning to the cycle-complete hook), its lateness, and the
/// total time spent waiting.
struct SpinClock {
    origin: Instant,
    start_s: f64,
    deadline_s: f64,
    work_s: Vec<f64>,
    late_s: Vec<f64>,
    wait_s: f64,
}

impl SpinClock {
    fn new(cycles: usize) -> Self {
        Self {
            origin: Instant::now(),
            start_s: 0.0,
            deadline_s: 0.0,
            work_s: Vec::with_capacity(cycles),
            late_s: Vec::with_capacity(cycles),
            wait_s: 0.0,
        }
    }

    fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl WallClock for SpinClock {
    fn now(&mut self) -> Seconds {
        Seconds::new(self.elapsed())
    }

    fn sleep_until(&mut self, deadline: Seconds) {
        let entered = self.elapsed();
        let deadline = deadline.value();
        let mut now = entered;
        while now < deadline {
            std::hint::spin_loop();
            now = self.elapsed();
        }
        self.start_s = now;
        self.deadline_s = deadline;
        self.wait_s += now - entered;
    }

    fn on_cycle_complete(&mut self, _cycle: u64) {
        let end = self.elapsed();
        self.work_s.push(end - self.start_s);
        self.late_s.push(self.start_s - self.deadline_s);
    }
}

/// `SimTelemetry` behind the daemon's backend traits, timing the polls,
/// the actuation writes and the plant advance.
struct TimedBackend {
    inner: SimTelemetry,
    poll_ns: u64,
    actuate_ns: u64,
    fan_writes: u64,
    advance_ns: u64,
    advances: u64,
}

impl TimedBackend {
    fn new(inner: SimTelemetry) -> Self {
        Self { inner, poll_ns: 0, actuate_ns: 0, fan_writes: 0, advance_ns: 0, advances: 0 }
    }
}

impl TelemetrySource for TimedBackend {
    fn socket_count(&self) -> usize {
        self.inner.socket_count()
    }
    fn zone_count(&self) -> usize {
        self.inner.zone_count()
    }
    fn poll_temperatures(&mut self, out: &mut [Option<Celsius>]) -> Result<(), TelemetryError> {
        let t = Instant::now();
        let r = self.inner.poll_temperatures(out);
        self.poll_ns += ns_since(t);
        r
    }
    fn poll_fan_speeds(&mut self, out: &mut [Rpm]) -> Result<(), TelemetryError> {
        let t = Instant::now();
        let r = self.inner.poll_fan_speeds(out);
        self.poll_ns += ns_since(t);
        r
    }
    fn poll_demand(&mut self) -> Result<Utilization, TelemetryError> {
        let t = Instant::now();
        let r = self.inner.poll_demand();
        self.poll_ns += ns_since(t);
        r
    }
    fn advance(&mut self, dt: Seconds) {
        let t = Instant::now();
        self.inner.advance(dt);
        self.advance_ns += ns_since(t);
        self.advances += 1;
    }
}

impl FanActuator for TimedBackend {
    fn write_fan_target(&mut self, z: usize, target: Rpm) -> Result<Rpm, TelemetryError> {
        let t = Instant::now();
        let r = self.inner.write_fan_target(z, target);
        self.actuate_ns += ns_since(t);
        self.fan_writes += 1;
        r
    }
    fn write_caps(&mut self, caps: &[Utilization]) -> Result<(), TelemetryError> {
        let t = Instant::now();
        let r = self.inner.write_caps(caps);
        self.actuate_ns += ns_since(t);
        r
    }
    fn migrate_load(&mut self, from: usize, to: usize, amount: f64) -> Result<(), TelemetryError> {
        let t = Instant::now();
        let r = self.inner.migrate_load(from, to, amount);
        self.actuate_ns += ns_since(t);
        r
    }
    fn enter_firmware_fallback(&mut self) -> Result<(), TelemetryError> {
        self.inner.enter_firmware_fallback()
    }
    fn resume_manual_control(&mut self) -> Result<(), TelemetryError> {
        self.inner.resume_manual_control()
    }
}
