//! The assembled rack: plant + per-zone fan actuators + per-socket sensor
//! chains + energy metering — the rack-level analogue of
//! `gfsc_server::Server`.

use crate::{RackPlant, RackState, RackTopology};
use gfsc_power::EnergyMeter;
use gfsc_sensors::MeasurementPipeline;
use gfsc_server::{build_measurement_pipeline, ServerSpec};
use gfsc_units::{Celsius, Joules, Rpm, Seconds, Utilization, Watts};

/// The complete parameterization of a simulated rack: one per-server
/// calibration (Table I constants, sensor chain, firmware intervals)
/// shared by every slot, plus the rack structure.
///
/// The spec's own `topology` field is ignored — each [`RackTopology`] slot
/// carries its own board.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSpec {
    /// Per-server calibration (thermal constants, sensor chain, fan
    /// bounds, control intervals), shared by every slot.
    pub server: ServerSpec,
    /// The rack structure: fan zones, server slots, plenum coupling.
    pub rack: RackTopology,
}

impl RackSpec {
    /// The default Table I calibration on the given rack structure.
    #[must_use]
    pub fn new(rack: RackTopology) -> Self {
        Self { server: ServerSpec::enterprise_default(), rack }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if either part fails its own validation.
    pub fn validate(&self) {
        self.server.validate();
        self.rack.validate();
    }

    /// The per-socket base calibration the server spec implies.
    #[must_use]
    pub fn calibration(&self) -> gfsc_thermal::PlantCalibration {
        gfsc_thermal::PlantCalibration {
            ambient: self.server.ambient,
            law: self.server.heatsink_law,
            sink_tau: self.server.heatsink_tau,
            tau_speed: self.server.fan_power.max_speed(),
            r_jc: self.server.r_jc,
            die_tau: self.server.die_tau,
        }
    }
}

/// The closed physical rack: per-socket CPU power → coupled rack thermal
/// network → per-zone fans → per-socket non-ideal sensor chains → per-zone
/// max aggregation, with rack-wide CPU and fan energy metering.
///
/// The rack knows nothing about control policy; controllers read
/// [`RackServer::measured_zone`] / [`RackServer::measured_socket`] and
/// command [`RackServer::set_zone_fan_target`], while the coordination
/// layer decides the per-socket *executed* utilizations passed to
/// [`RackServer::step`].
///
/// # Examples
///
/// ```
/// use gfsc_rack::{RackServer, RackSpec, RackTopology};
/// use gfsc_units::{Rpm, Seconds, Utilization};
///
/// let mut rack = RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()));
/// let executed = vec![Utilization::new(0.7); rack.socket_count()];
/// rack.set_zone_fan_target(0, Rpm::new(4000.0));
/// rack.set_zone_fan_target(1, Rpm::new(4000.0));
/// for _ in 0..240 {
///     rack.step(Seconds::new(0.5), &executed);
/// }
/// assert!(rack.true_junction() > rack.spec().server.ambient);
/// ```
#[derive(Debug, Clone)]
pub struct RackServer {
    /// Everything a controller sees and commands, fed from the actuators
    /// and sensor chains every step.
    state: RackState,
    /// One measurement chain per flat socket.
    pipelines: Vec<MeasurementPipeline>,
    cpu_energy: EnergyMeter,
    fan_energy: EnergyMeter,
    now: Seconds,
}

impl RackServer {
    /// Builds a rack at thermal equilibrium with its ambient, every zone
    /// fan at the minimum speed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`RackSpec::validate`] or the topology
    /// cannot be compiled into a network.
    #[must_use]
    pub fn new(spec: RackSpec) -> Self {
        let state = RackState::new(spec);
        let server = &state.spec().server;
        let pipelines: Vec<MeasurementPipeline> = (0..state.socket_count())
            .map(|_| build_measurement_pipeline(server, server.ambient))
            .collect();
        let mut rack = Self {
            state,
            pipelines,
            cpu_energy: EnergyMeter::new(),
            fan_energy: EnergyMeter::new(),
            now: Seconds::new(0.0),
        };
        rack.record_measurements();
        rack
    }

    /// The calibration in use.
    #[must_use]
    pub fn spec(&self) -> &RackSpec {
        self.state.spec()
    }

    /// The rack thermal plant (for model-based controllers and per-zone
    /// [`gfsc_server::PlantModel`] views).
    #[must_use]
    pub fn plant(&self) -> &RackPlant {
        self.state.plant()
    }

    /// Mutable plant access (per-zone views are mutable by construction).
    #[must_use]
    pub fn plant_mut(&mut self) -> &mut RackPlant {
        self.state.plant_mut()
    }

    /// Simulation time accumulated by this rack.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of fan zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.state.zone_count()
    }

    /// Total socket count (the length of every per-socket slice).
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.state.socket_count()
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.state.server_count()
    }

    /// See [`RackState::socket_demand`].
    #[must_use]
    pub fn socket_demand(&self, i: usize, u: Utilization) -> Utilization {
        self.state.socket_demand(i, u)
    }

    /// See [`RackState::socket_demands`].
    pub fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.state.socket_demands(u, out);
    }

    /// See [`RackState::server_load_weight`].
    #[must_use]
    pub fn server_load_weight(&self, s: usize) -> f64 {
        self.state.server_load_weight(s)
    }

    /// See [`RackState::socket_load_weight`].
    #[must_use]
    pub fn socket_load_weight(&self, i: usize) -> f64 {
        self.state.socket_load_weight(i)
    }

    /// The load-weight mutation hook a work migrator drives; see
    /// [`RackState::shift_load_weight`].
    pub fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.state.shift_load_weight(from, to, amount);
    }

    /// Hottest true junction temperature across the rack (invisible to
    /// firmware).
    #[must_use]
    pub fn true_junction(&self) -> Celsius {
        self.plant().hottest_junction()
    }

    /// True junction temperature of flat socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn junction_socket(&self, i: usize) -> Celsius {
        self.plant().junction(i)
    }

    /// The firmware's (lagged, quantized) view of socket `i`'s junction.
    #[must_use]
    pub fn measured_socket(&self, i: usize) -> Celsius {
        self.state.measured_socket(i)
    }

    /// See [`RackState::measured_zone`].
    #[must_use]
    pub fn measured_zone(&self, z: usize) -> Celsius {
        self.state.measured_zone(z)
    }

    /// See [`RackState::measured_rack`].
    #[must_use]
    pub fn measured_rack(&self) -> Celsius {
        self.state.measured_rack()
    }

    /// Actual fan speed of zone `z`.
    #[must_use]
    pub fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.state.zone_fan_speed(z)
    }

    /// Commanded fan target of zone `z`.
    #[must_use]
    pub fn zone_fan_target(&self, z: usize) -> Rpm {
        self.state.zone_fan_target(z)
    }

    /// See [`RackState::set_zone_fan_target`].
    pub fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.state.set_zone_fan_target(z, target);
    }

    /// Commands every zone to the same target — the naive global rule.
    pub fn set_all_fan_targets(&mut self, target: Rpm) {
        self.state.set_all_fan_targets(target);
    }

    /// The executed utilizations of the latest step.
    #[must_use]
    pub fn executed(&self) -> &[Utilization] {
        self.state.executed()
    }

    /// Total CPU energy so far, summed over every socket.
    #[must_use]
    pub fn cpu_energy(&self) -> Joules {
        self.cpu_energy.total()
    }

    /// Total fan energy so far, summed over every zone's fan wall — the
    /// rack study's cost metric.
    #[must_use]
    pub fn fan_energy(&self) -> Joules {
        self.fan_energy.total()
    }

    /// Instantaneous fan power: each zone's wall draws
    /// `fans × FanPowerModel::power(speed)`.
    #[must_use]
    pub fn fan_power(&self) -> Watts {
        let spec = self.spec();
        let mut total = 0.0;
        for (z, zone) in spec.rack.zones().iter().enumerate() {
            let per_fan = spec.server.fan_power.power(self.zone_fan_speed(z)).value();
            total += per_fan * zone.fans as f64;
        }
        Watts::new(total)
    }

    /// See [`RackState::min_safe_zone_fan`].
    #[must_use]
    pub fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        self.state.min_safe_zone_fan(z, u, limit)
    }

    /// Advances the rack by `dt` with per-socket executed utilizations:
    /// fan mechanics → coupled thermal step → energy metering → sensor
    /// chains → per-zone aggregation. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `executed` is not one entry per socket.
    pub fn step(&mut self, dt: Seconds, executed: &[Utilization]) {
        let p_cpu = self.state.advance(dt, executed);
        self.cpu_energy.accumulate(p_cpu, dt);
        self.fan_energy.accumulate(self.fan_power(), dt);

        self.now += dt;
        let plant = self.state.plant();
        for (i, pipeline) in self.pipelines.iter_mut().enumerate() {
            let _ = pipeline.observe_celsius(self.now, plant.junction(i));
        }
        self.record_measurements();
    }

    /// Hands the sensor chains' outputs to the controller-visible state.
    fn record_measurements(&mut self) {
        let pipelines = &self.pipelines;
        self.state.record_measurements(|i, _| Celsius::new(pipelines[i].current()));
    }

    /// Re-initializes the rack in steady state at rack demand `u` and the
    /// given per-zone fan speeds: thermal nodes at their equilibria,
    /// actuators settled, sensor chains reporting the (quantized)
    /// equilibrium temperatures, meters and clock zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `fans` is not one entry per zone.
    pub fn equilibrate(&mut self, u: Utilization, fans: &[Rpm]) {
        self.state.equilibrate(u, fans);
        let (spec, plant) = (&self.state.spec().server, self.state.plant());
        for (i, pipeline) in self.pipelines.iter_mut().enumerate() {
            *pipeline = build_measurement_pipeline(spec, plant.junction(i));
        }
        self.record_measurements();
        self.cpu_energy.reset();
        self.fan_energy.reset();
        self.now = Seconds::new(0.0);
    }
}

/// Adapter exposing one zone's fan → measured-temperature loop as a
/// `gfsc_control::Plant` for Ziegler–Nichols tuning — the rack analogue of
/// `gfsc_server::FanPlant`, so zone fan loops are tuned with exactly the
/// machinery the paper's controller uses.
///
/// Each [`gfsc_control::Plant::step`] applies a zone fan command, holds it
/// for one fan decision period while the whole rack integrates (other
/// zones at their operating speeds), and returns the zone's aggregated
/// measurement — lag and quantization included.
#[derive(Debug, Clone)]
pub struct ZoneFanPlant {
    rack: RackServer,
    zone: usize,
    utilization: Utilization,
    operating: Vec<Rpm>,
    executed: Vec<Utilization>,
    /// The zone's measurement at the (fixed) operating-point equilibrium,
    /// captured at construction.
    equilibrium: f64,
}

impl ZoneFanPlant {
    /// Creates the adapter around a fresh rack, equilibrated at
    /// `(utilization, operating)` with zone `zone` under tuning.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is out of range or `operating` is not one speed
    /// per zone.
    #[must_use]
    pub fn new(spec: RackSpec, zone: usize, utilization: Utilization, operating: Vec<Rpm>) -> Self {
        let mut rack = RackServer::new(spec);
        assert!(zone < rack.zone_count(), "zone {zone} out of range");
        assert_eq!(operating.len(), rack.zone_count(), "one operating speed per zone");
        rack.equilibrate(utilization, &operating);
        let mut executed = vec![Utilization::IDLE; rack.socket_count()];
        rack.socket_demands(utilization, &mut executed);
        let equilibrium = rack.measured_zone(zone).value();
        Self { rack, zone, utilization, operating, executed, equilibrium }
    }

    /// The zone under tuning.
    #[must_use]
    pub fn zone(&self) -> usize {
        self.zone
    }

    /// The equilibrium zone measurement at the operating point — the
    /// natural set-point for tuning probes.
    #[must_use]
    pub fn equilibrium_temperature(&self) -> f64 {
        self.equilibrium
    }
}

impl gfsc_control::Plant for ZoneFanPlant {
    fn reset(&mut self) {
        self.rack.equilibrate(self.utilization, &self.operating);
    }

    fn step(&mut self, input: f64) -> f64 {
        self.rack.set_zone_fan_target(self.zone, Rpm::saturating_new(input.max(0.0)));
        let dt = self.rack.spec().server.sim_dt;
        let period = self.rack.spec().server.fan_control_interval;
        let substeps = (period / dt).round() as usize;
        for _ in 0..substeps {
            self.rack.step(dt, &self.executed);
        }
        self.rack.measured_zone(self.zone).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> RackServer {
        RackServer::new(RackSpec::new(RackTopology::rack_1u_x8()))
    }

    #[test]
    fn starts_at_ambient_equilibrium() {
        let r = rack();
        assert_eq!(r.true_junction(), r.spec().server.ambient);
        assert_eq!(r.zone_fan_speed(0), r.spec().server.fan_bounds.lo());
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.cpu_energy(), Joules::new(0.0));
        assert_eq!(r.socket_count(), 8);
        assert_eq!(r.zone_count(), 2);
        assert_eq!(r.server_count(), 8);
    }

    #[test]
    fn heats_under_load_and_cools_with_zone_fans() {
        let mut r = rack();
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        let hot = r.true_junction();
        assert!(hot > Celsius::new(60.0), "hot {hot}");
        r.set_all_fan_targets(Rpm::new(8500.0));
        for _ in 0..1200 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.true_junction() < hot - 5.0);
    }

    #[test]
    fn starved_rear_zone_reads_hotter() {
        let mut r = rack();
        r.set_zone_fan_target(0, Rpm::new(6000.0));
        r.set_zone_fan_target(1, Rpm::new(2000.0));
        let executed = vec![Utilization::new(0.7); 8];
        for _ in 0..2400 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!(r.measured_zone(1) > r.measured_zone(0));
        assert_eq!(r.measured_rack(), r.measured_zone(1));
    }

    #[test]
    fn equilibrate_settles_everything() {
        let mut r = rack();
        let fans = [Rpm::new(4000.0), Rpm::new(4000.0)];
        r.equilibrate(Utilization::new(0.7), &fans);
        assert_eq!(r.now(), Seconds::new(0.0));
        assert_eq!(r.zone_fan_speed(0), Rpm::new(4000.0));
        // The measurement chains report the quantized equilibrium
        // immediately and stepping from equilibrium stays there.
        let before = r.true_junction();
        assert!((r.measured_rack() - before).abs() <= 1.0);
        let executed: Vec<Utilization> =
            (0..8).map(|i| r.socket_demand(i, Utilization::new(0.7))).collect();
        for _ in 0..240 {
            r.step(Seconds::new(0.5), &executed);
        }
        assert!((r.true_junction() - before).abs() < 0.01, "drifted from equilibrium");
    }

    #[test]
    fn fan_energy_counts_the_whole_wall() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.5), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let executed = vec![Utilization::new(0.5); 8];
        for _ in 0..120 {
            r.step(Seconds::new(0.5), &executed);
        }
        // 8 fans at 4000 rpm for 60 s; per fan ~29.4·(4000/8500)³ W.
        let per_fan = r.spec().server.fan_power.power(Rpm::new(4000.0)).value();
        let expected = 8.0 * per_fan * 60.0;
        assert!((r.fan_energy().value() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn socket_demands_follow_weights() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let r = RackServer::new(spec);
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        // Server 0's two sockets carry 1.6× the demand share.
        assert!((out[0].value() - 0.8).abs() < 1e-12);
        assert!((out[2].value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn shift_load_weight_moves_demand_and_conserves_the_sum() {
        let spec =
            RackSpec::new(RackTopology::rack_2u_x4().with_load_weights(&[1.6, 0.8, 0.8, 0.8]));
        let mut r = RackServer::new(spec);
        let total_before: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        r.shift_load_weight(0, 2, 0.4);
        assert!((r.server_load_weight(0) - 1.2).abs() < 1e-12);
        assert!((r.server_load_weight(2) - 1.2).abs() < 1e-12);
        let total_after: f64 = (0..r.server_count()).map(|s| r.server_load_weight(s)).sum();
        assert!((total_after - total_before).abs() < 1e-12, "weight sum must be conserved");
        // Socket demands follow: server 0's two sockets now carry 1.2×.
        let mut out = vec![Utilization::IDLE; r.socket_count()];
        r.socket_demands(Utilization::new(0.5), &mut out);
        assert!((out[0].value() - 0.6).abs() < 1e-12);
        assert!((out[4].value() - 0.6).abs() < 1e-12);
        // And the shift reverses exactly.
        r.shift_load_weight(2, 0, 0.4);
        assert!((r.server_load_weight(0) - 1.6).abs() < 1e-12);
        assert!((r.socket_load_weight(0) - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "drain")]
    fn shift_load_weight_rejects_draining_a_server() {
        let mut r = rack();
        r.shift_load_weight(0, 1, 1.0);
    }

    #[test]
    fn min_safe_zone_fan_guards_the_zone() {
        let mut r = rack();
        r.equilibrate(Utilization::new(0.7), &[Rpm::new(4000.0), Rpm::new(4000.0)]);
        let v = r.min_safe_zone_fan(1, Utilization::new(0.7), Celsius::new(75.0)).unwrap();
        assert!(v > Rpm::new(0.0));
    }

    #[test]
    fn zone_fan_plant_tunes_like_a_server_plant() {
        let mut plant = ZoneFanPlant::new(
            RackSpec::new(RackTopology::rack_1u_x8()),
            1,
            Utilization::new(0.7),
            vec![Rpm::new(3000.0), Rpm::new(3000.0)],
        );
        assert_eq!(plant.zone(), 1);
        gfsc_control::Plant::reset(&mut plant);
        let before = gfsc_control::Plant::step(&mut plant, 3000.0);
        let mut after = before;
        for _ in 0..4 {
            after = gfsc_control::Plant::step(&mut plant, 8000.0);
        }
        assert!(after < before - 3.0, "before {before} after {after}");
    }
}
