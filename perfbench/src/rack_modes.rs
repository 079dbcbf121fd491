//! `rack_modes`: every `RackControl::ALL` mode, one after another on one
//! thread, on a shared-plenum rack and then on a 1U × 8 rack, under a
//! seeded DATE'14 square wave with Gaussian noise and Poisson spikes.
//!
//! The control bank and the rack plant do nearly all the work here and
//! split it differently by mode: the E-coord descents dominate their
//! modes, the plant step dominates the coordinated ones.
//!
//! The untraced run repeats rounds of the 14 mode runs through
//! `RackLoopSim::run`. The traced run drives a copy of that loop over
//! `RackServer` + `RackControlBank`, timing each call from outside, and
//! must reproduce `RackLoopSim::run` bit for bit.

use crate::digest;
use crate::stats::{median, ns_since, per, percentile, secs_since};
use crate::Report;
use gfsc_coord::{
    RackChannels, RackControl, RackControlBank, RackControlConfig, RackLoopSim, RackView,
};
use gfsc_rack::{RackPlant, RackServer, RackSpec, RackTopology};
use gfsc_sim::{Clock, Periodic, TraceSet};
use gfsc_units::{Celsius, Rpm, Seconds, Utilization};
use std::time::Instant;

/// Simulated seconds of each mode run: one day, long enough that the
/// seeded noise and spikes average out between seeds.
const HORIZON_S: f64 = 86_400.0;

/// Metric names of the modes, in `RackControl::ALL` order.
const MODE_NAMES: [&str; 7] = [
    "lockstep",
    "coordinated",
    "coordinated-adaptive",
    "coordinated-ss",
    "coordinated-ecoord",
    "global-ecoord",
    "coordinated-migrate",
];

/// The `RackLoopSim` builder's starting operating point.
const START_UTILIZATION: f64 = 0.1;
const START_FAN_RPM: f64 = 1500.0;

fn topologies() -> [(&'static str, RackTopology); 2] {
    [("plenum4", RackTopology::shared_plenum(4)), ("1u-x8", RackTopology::rack_1u_x8())]
}

/// One (topology, mode) pair of the matrix.
struct Pair {
    label: String,
    mode_index: usize,
    spec: RackSpec,
    control: RackControl,
}

fn pairs() -> Vec<Pair> {
    let mut pairs = Vec::new();
    for (topo_label, topology) in topologies() {
        for (mode_index, &control) in RackControl::ALL.iter().enumerate() {
            pairs.push(Pair {
                label: format!("{topo_label}/{}", MODE_NAMES[mode_index]),
                mode_index,
                spec: RackSpec::new(topology.clone()),
                control,
            });
        }
    }
    pairs
}

/// What one run of a pair produced.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Output {
    stats: u64,
    traces: u64,
    cycles: usize,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let pairs = pairs();
    let horizon = Seconds::new(HORIZON_S);
    let mut report = Report::default();
    let mut first: Vec<Output> = Vec::new();
    let mut divergent = 0;
    let mut setups = Vec::new();
    // Per round, per pair: wall seconds of the run.
    let mut rounds: Vec<Vec<f64>> = Vec::new();

    let started = Instant::now();
    while rounds.len() < 2 || secs_since(started) < seconds {
        let t = Instant::now();
        let mut sims: Vec<RackLoopSim> = pairs
            .iter()
            .map(|p| {
                RackLoopSim::builder(p.spec.clone())
                    .workload(gfsc::date14_workload(seed))
                    .control(p.control)
                    .build()
            })
            .collect();
        setups.push(secs_since(t));

        let mut walls = Vec::with_capacity(pairs.len());
        let mut outputs = Vec::with_capacity(pairs.len());
        for sim in &mut sims {
            let t = Instant::now();
            let outcome = sim.run(horizon);
            walls.push(secs_since(t));
            let stats = digest::stats(
                outcome.total_violations,
                outcome.total_epochs,
                outcome.lost_utilization,
                outcome.fan_energy.value(),
                outcome.cpu_energy.value(),
            );
            // The trace digest is taken on the first round only: it is the
            // reference the traced loop copy is checked against.
            let traces = if first.is_empty() { digest::traces(&outcome.traces) } else { 0 };
            let cycles = outcome.traces.get("u_demand").map_or(0, gfsc_sim::Trace::len);
            outputs.push(Output { stats, traces, cycles });
        }
        drop(sims);
        report.attempted += pairs.len() as u64;
        rounds.push(walls);
        if first.is_empty() {
            first = outputs;
        } else {
            divergent +=
                first.iter().zip(&outputs).filter(|(a, b)| a.stats != b.stats).count() as u64;
        }
    }
    report.check("mode runs repeat across rounds", divergent);
    for (pair, out) in pairs.iter().zip(&first) {
        report.digests.push((pair.label.clone(), out.stats));
    }

    // Simulated seconds per wall second of the pairs `select` picks, one
    // value per round.
    let rates = |select: &dyn Fn(&Pair) -> bool| -> Vec<f64> {
        rounds
            .iter()
            .map(|walls| {
                let picked = pairs.iter().zip(walls).filter(|(p, _)| select(p));
                let (n, wall) = picked.fold((0.0, 0.0), |(n, sum), (_, w)| (n + 1.0, sum + w));
                n * HORIZON_S / wall
            })
            .collect()
    };
    let round_rates = rates(&|_| true);
    // Per pair: mean wall cost of one control cycle, median over rounds.
    let cycle_us: Vec<f64> = first
        .iter()
        .enumerate()
        .map(|(k, out)| {
            let walls: Vec<f64> = rounds.iter().map(|walls| walls[k]).collect();
            1e6 * median(&walls) / out.cycles as f64
        })
        .collect();
    report.metric("sim_rate", median(&round_rates), "sim-s/s");
    report.sample_count("sim_rate", round_rates.len());
    report.metric("cycle_p99_us", percentile(&cycle_us, 99.0), "us");
    report.sample_count("cycle_p99_us", cycle_us.len());
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    report.metric("setup_s", median(&setups), "s");
    report.sample_count("setup_s", setups.len());

    for (m, name) in MODE_NAMES.iter().enumerate() {
        let mode_rates = rates(&|p| p.mode_index == m);
        report.metric(format!("mode.{name}.sim_rate"), median(&mode_rates), "sim-s/s");
        report.sample_count(format!("mode.{name}.sim_rate"), mode_rates.len());
    }

    if trace {
        let round_walls: Vec<f64> = rounds.iter().map(|walls| walls.iter().sum()).collect();
        traced(&mut report, &pairs, seed, horizon, &first, median(&round_walls));
    }
    report
}

/// Call counts and busy time per layer, summed over the traced pass.
#[derive(Default)]
struct Layers {
    /// Wall time of the loops, set-up excluded.
    wall_ns: u64,
    sample_ns: u64,
    samples: u64,
    epoch_cpu_ns: u64,
    epochs_cpu: u64,
    epoch_fan_ns: u64,
    epochs_fan: u64,
    step_ns: u64,
    steps: u64,
    probe_ns: u64,
    probes: u64,
    load_shifts: u64,
}

fn traced(
    report: &mut Report,
    pairs: &[Pair],
    seed: u64,
    horizon: Seconds,
    first: &[Output],
    untraced_wall: f64,
) {
    let mut layers = Layers::default();
    let mut divergent = 0;
    for (pair, reference) in pairs.iter().zip(first) {
        let out = run_copy(pair, seed, horizon, &mut layers);
        report.attempted += 1;
        if out != *reference {
            divergent += 1;
        }
    }
    report.check("traced loop copy reproduces RackLoopSim::run", divergent);

    let wall = layers.wall_ns as f64 * 1e-9;
    let attributed_ns =
        layers.sample_ns + layers.epoch_cpu_ns + layers.epoch_fan_ns + layers.step_ns;
    report.metric("workload.sample_ns", per(layers.sample_ns as f64, layers.samples), "ns");
    report.metric("coord.epoch_cpu_ns", per(layers.epoch_cpu_ns as f64, layers.epochs_cpu), "ns");
    report.metric("coord.epoch_fan_ns", per(layers.epoch_fan_ns as f64, layers.epochs_fan), "ns");
    report.metric("coord.min_safe_probes", layers.probes as f64, "count");
    report.metric("coord.min_safe_probe_ns", per(layers.probe_ns as f64, layers.probes), "ns");
    report.metric("coord.load_shifts", layers.load_shifts as f64, "count");
    report.metric("rack.step_ns", per(layers.step_ns as f64, layers.steps), "ns");
    report.metric("traced.overhead", wall / untraced_wall - 1.0, "ratio");
    report.metric("traced.unattributed_share", 1.0 - attributed_ns as f64 * 1e-9 / wall, "ratio");
}

/// A copy of `RackLoopSim::run` (builder defaults) over the crates'
/// public parts, timing every call into a layer.
fn run_copy(pair: &Pair, seed: u64, horizon: Seconds, layers: &mut Layers) -> Output {
    let start_u = Utilization::new(START_UTILIZATION);
    let mut server = RackServer::new(pair.spec.clone());
    let zones = server.zone_count();
    server.equilibrate(start_u, &vec![Rpm::new(START_FAN_RPM); zones]);
    let mut bank = RackControlBank::new(
        RackControlConfig::new(pair.control),
        &pair.spec,
        server.plant(),
        start_u,
    );
    let mut rack = TimedRack { server, probe_ns: 0, probes: 0, load_shifts: 0 };
    let mut workload = gfsc::date14_workload(seed);

    let spec = pair.spec.server.clone();
    let mut clock = Clock::new(spec.sim_dt);
    let mut cpu_epoch = Periodic::new(spec.cpu_control_interval);
    let mut fan_epoch = Periodic::new(spec.fan_control_interval);
    let mut traces = TraceSet::new();
    let epochs = (horizon.value() / spec.cpu_control_interval.value()).floor() as usize + 2;
    let channels = RackChannels::resolve(&mut traces, epochs, zones, rack.server.socket_count());

    let steps = clock.steps_for(horizon);
    let started = Instant::now();
    for _ in 0..=steps {
        let now = clock.now();
        if cpu_epoch.is_due(now) {
            let t = Instant::now();
            let demand = workload.sample(now);
            layers.sample_ns += ns_since(t);
            layers.samples += 1;
            let fan_due = fan_epoch.is_due(now);
            let t = Instant::now();
            bank.epoch(&mut rack, now, demand, fan_due, &mut traces, &channels);
            let ns = ns_since(t);
            if fan_due {
                layers.epoch_fan_ns += ns;
                layers.epochs_fan += 1;
            } else {
                layers.epoch_cpu_ns += ns;
                layers.epochs_cpu += 1;
            }
        }
        let t = Instant::now();
        rack.server.step(spec.sim_dt, bank.executed());
        layers.step_ns += ns_since(t);
        layers.steps += 1;
        clock.tick();
    }
    layers.wall_ns += ns_since(started);
    layers.probe_ns += rack.probe_ns;
    layers.probes += rack.probes;
    layers.load_shifts += rack.load_shifts;

    let server = &rack.server;
    Output {
        stats: digest::stats(
            bank.violations(),
            bank.socket_epochs(),
            bank.lost_utilization(),
            server.fan_energy().value(),
            server.cpu_energy().value(),
        ),
        traces: digest::traces(&traces),
        cycles: traces.get("u_demand").map_or(0, gfsc_sim::Trace::len),
    }
}

/// `RackServer` behind the controller seam, counting and timing the
/// min-safe probes and counting load shifts.
struct TimedRack {
    server: RackServer,
    probe_ns: u64,
    probes: u64,
    load_shifts: u64,
}

impl RackView for TimedRack {
    fn zone_count(&self) -> usize {
        self.server.zone_count()
    }
    fn socket_count(&self) -> usize {
        self.server.socket_count()
    }
    fn server_count(&self) -> usize {
        self.server.server_count()
    }
    fn plant(&self) -> &RackPlant {
        self.server.plant()
    }
    fn plant_mut(&mut self) -> &mut RackPlant {
        self.server.plant_mut()
    }
    fn measured_socket(&self, i: usize) -> Celsius {
        self.server.measured_socket(i)
    }
    fn measured_zone(&self, z: usize) -> Celsius {
        self.server.measured_zone(z)
    }
    fn measured_rack(&self) -> Celsius {
        self.server.measured_rack()
    }
    fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.server.zone_fan_speed(z)
    }
    fn zone_fan_target(&self, z: usize) -> Rpm {
        self.server.zone_fan_target(z)
    }
    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.server.set_zone_fan_target(z, target);
    }
    fn set_all_fan_targets(&mut self, target: Rpm) {
        self.server.set_all_fan_targets(target);
    }
    fn executed(&self) -> &[Utilization] {
        self.server.executed()
    }
    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.server.socket_demands(u, out);
    }
    fn server_load_weight(&self, s: usize) -> f64 {
        self.server.server_load_weight(s)
    }
    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.load_shifts += 1;
        self.server.shift_load_weight(from, to, amount);
    }
    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        let t = Instant::now();
        let safe = self.server.min_safe_zone_fan(z, u, limit);
        self.probe_ns += ns_since(t);
        self.probes += 1;
        safe
    }
}
