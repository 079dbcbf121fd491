//! The controller-visible rack state, shared by the simulated rack
//! ([`crate::RackServer`]) and the `gfsc-daemon` telemetry mirror.
//!
//! The simulated rack feeds the state from its actuators and sensor
//! chains every step; the mirror feeds it from polls every cycle. The
//! rack arithmetic a controller sees (demand weights, zone aggregation,
//! fan-command snapping, the plant's operating point, the min-safe zone
//! probe) exists only here, so given the same inputs both hand the
//! controllers the same numbers (`crates/daemon/tests/parity.rs` pins
//! this bit-for-bit in every mode).

use crate::{RackPlant, RackSpec};
use gfsc_server::FanActuator;
use gfsc_units::{Celsius, Rpm, Seconds, Utilization, Watts};

/// What a rack controller observes and commands: per-socket
/// measurements and their zone aggregates, per-zone fan speeds and
/// targets, executed utilizations, demand weights, and the thermal plant
/// whose operating point the model-based probes start from.
///
/// # Examples
///
/// ```
/// use gfsc_rack::{RackSpec, RackState, RackTopology};
/// use gfsc_units::{Celsius, Rpm, Utilization};
///
/// let mut state = RackState::new(RackSpec::new(RackTopology::rack_1u_x8()));
/// state.equilibrate(Utilization::new(0.5), &[Rpm::new(3000.0), Rpm::new(3000.0)]);
/// // A poll where only socket 5 reported: every other reading holds.
/// state.record_measurements(|i, held| match i {
///     5 => Celsius::new(80.0),
///     _ => held,
/// });
/// assert_eq!(state.measured_zone(1), Celsius::new(80.0));
/// assert_eq!(state.measured_rack(), Celsius::new(80.0));
/// ```
#[derive(Debug, Clone)]
pub struct RackState {
    spec: RackSpec,
    /// The simulated rack's plant, or a mirror's calibrated model.
    plant: RackPlant,
    /// One actuator per zone. It is the command side everywhere; only a
    /// simulated rack also steps its slewing mechanics.
    fans: Vec<FanActuator>,
    /// Actual (tachometer) fan speed per zone.
    speeds: Vec<Rpm>,
    /// The firmware's per-socket view.
    measured: Vec<Celsius>,
    /// Per-zone max aggregates of `measured`.
    measured_zone: Vec<Celsius>,
    /// The utilizations executing since the latest step (or poll).
    executed: Vec<Utilization>,
    /// The CPU powers of `executed`.
    powers: Vec<Watts>,
    /// Per-server demand weights. Starts at the topology's slot weights;
    /// a work migrator may shift weight between servers at run time.
    server_weights: Vec<f64>,
    /// Flat per-socket base weights (the socket's own load weight,
    /// immutable — migration moves *server* weight).
    socket_base_weights: Vec<f64>,
    /// Flat per-socket demand weights: server weight × socket base
    /// weight, re-derived whenever server weights move.
    socket_weights: Vec<f64>,
    /// Probe scratch for [`RackState::min_safe_zone_fan`] (no per-call
    /// allocation).
    probe_powers: Vec<Watts>,
}

impl RackState {
    /// The state of a rack at thermal equilibrium with its ambient: every
    /// zone fan at the minimum speed, every socket idle and reading the
    /// ambient.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`RackSpec::validate`] or the topology
    /// cannot be compiled into a network.
    #[must_use]
    pub fn new(spec: RackSpec) -> Self {
        spec.validate();
        let plant = RackPlant::new(&spec.calibration(), &spec.rack)
            // gfsc-lint: allow(panic) construction-time only (spec.validate() just ran); documented in this fn's `# Panics` section
            .expect("stock rack topologies compile");
        let server = &spec.server;
        let zones = plant.zone_count();
        let sockets = plant.socket_count();
        let fans = (0..zones)
            .map(|_| {
                FanActuator::new(server.fan_bounds.lo(), server.fan_bounds, server.fan_slew)
                    .with_cmd_step(server.fan_cmd_step)
            })
            .collect();
        let slots = spec.rack.servers();
        let socket_base_weights: Vec<f64> = slots
            .iter()
            .flat_map(|slot| slot.board.sockets().iter().map(|socket| socket.load_weight))
            .collect();
        let mut state = Self {
            fans,
            speeds: vec![server.fan_bounds.lo(); zones],
            measured: vec![server.ambient; sockets],
            measured_zone: vec![server.ambient; zones],
            executed: vec![Utilization::IDLE; sockets],
            powers: vec![Watts::new(0.0); sockets],
            server_weights: slots.iter().map(|s| s.load_weight).collect(),
            socket_weights: socket_base_weights.clone(),
            socket_base_weights,
            probe_powers: vec![Watts::new(0.0); sockets],
            plant,
            spec,
        };
        for s in 0..state.server_count() {
            state.reweigh(s);
        }
        state.refresh_zone_aggregates();
        state
    }

    /// The calibration in use.
    #[must_use]
    pub fn spec(&self) -> &RackSpec {
        &self.spec
    }

    /// The thermal plant (for model-based controllers and per-zone
    /// [`gfsc_server::PlantModel`] views).
    #[must_use]
    pub fn plant(&self) -> &RackPlant {
        &self.plant
    }

    /// Mutable plant access (per-zone views are mutable by construction).
    #[must_use]
    pub fn plant_mut(&mut self) -> &mut RackPlant {
        &mut self.plant
    }

    /// Number of fan zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.fans.len()
    }

    /// Total socket count (the length of every per-socket slice).
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.measured.len()
    }

    /// Number of servers.
    #[must_use]
    pub fn server_count(&self) -> usize {
        self.plant.server_count()
    }

    /// Socket `i`'s demand under rack-wide demand `u`:
    /// `clamp(u × slot weight × socket weight)`.
    #[must_use]
    pub fn socket_demand(&self, i: usize, u: Utilization) -> Utilization {
        Utilization::new(u.value() * self.socket_weights[i])
    }

    /// Fills `out` with every socket's demand under rack-wide demand `u`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not one entry per socket.
    pub fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        assert_eq!(out.len(), self.socket_weights.len(), "one demand per socket");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.socket_demand(i, u);
        }
    }

    /// Server `s`'s current demand weight.
    #[must_use]
    pub fn server_load_weight(&self, s: usize) -> f64 {
        self.server_weights[s]
    }

    /// Socket `i`'s effective demand weight (server weight × socket base
    /// weight).
    #[must_use]
    pub fn socket_load_weight(&self, i: usize) -> f64 {
        self.socket_weights[i]
    }

    /// Moves `amount` of demand weight from server `from` to server `to`.
    /// The rack-wide weight sum is conserved, so (absent cap saturation)
    /// total demand is too; only its placement changes. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the indices coincide or are out of range, `amount` is not
    /// positive, or the transfer would drain `from` to zero (a server
    /// keeps a strictly positive share of its own work).
    pub fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        assert!(from != to, "cannot migrate a server's work onto itself");
        assert!(amount > 0.0, "migrated weight must be positive");
        assert!(
            self.server_weights[from] - amount > 0.0,
            "migration would drain server {from} (weight {}, amount {amount})",
            self.server_weights[from]
        );
        self.server_weights[from] -= amount;
        self.server_weights[to] += amount;
        self.reweigh(from);
        self.reweigh(to);
    }

    /// Re-derives server `s`'s socket weights from its server weight.
    fn reweigh(&mut self, s: usize) {
        let weight = self.server_weights[s];
        for i in self.plant.server_sockets(s) {
            self.socket_weights[i] = weight * self.socket_base_weights[i];
        }
    }

    /// The firmware's view of socket `i`'s junction.
    #[must_use]
    pub fn measured_socket(&self, i: usize) -> Celsius {
        self.measured[i]
    }

    /// Zone `z`'s aggregated view: the hottest of its sockets (max
    /// aggregation — the fan must satisfy the worst socket it serves).
    #[must_use]
    pub fn measured_zone(&self, z: usize) -> Celsius {
        self.measured_zone[z]
    }

    /// The rack-wide aggregated view: the hottest zone aggregate — what a
    /// naive global controller acts on.
    #[must_use]
    pub fn measured_rack(&self) -> Celsius {
        let Some((&first, rest)) = self.measured_zone.split_first() else {
            // A zoneless rack cannot be built (the spec validates).
            return self.spec.server.ambient;
        };
        let mut hottest = first;
        for &m in rest {
            hottest = hottest.hotter(m);
        }
        hottest
    }

    /// Refreshes every socket measurement — `reading(i, held)` returns
    /// socket `i`'s new value given the one held so far — then re-derives
    /// the zone aggregates.
    pub fn record_measurements(&mut self, mut reading: impl FnMut(usize, Celsius) -> Celsius) {
        for (i, slot) in self.measured.iter_mut().enumerate() {
            *slot = reading(i, *slot);
        }
        self.refresh_zone_aggregates();
    }

    /// Recomputes the per-zone max aggregates. A slotless zone has no
    /// sensors; it reads the ambient.
    fn refresh_zone_aggregates(&mut self) {
        for z in 0..self.measured_zone.len() {
            let sockets = self.plant.zone_sockets(z);
            let Some((&first, rest)) = sockets.split_first() else {
                self.measured_zone[z] = self.spec.server.ambient;
                continue;
            };
            let mut hottest = self.measured[first].value();
            for &i in rest {
                hottest = hottest.max(self.measured[i].value());
            }
            self.measured_zone[z] = Celsius::new(hottest);
        }
    }

    /// Actual (tachometer) fan speed of zone `z`.
    #[must_use]
    pub fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.speeds[z]
    }

    /// Commanded fan target of zone `z`.
    #[must_use]
    pub fn zone_fan_target(&self, z: usize) -> Rpm {
        self.fans[z].target()
    }

    /// Commands zone `z`'s fans toward `target`, snapped to the command
    /// grid and clamped to the mechanical range.
    pub fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.fans[z].set_target(target);
    }

    /// Commands every zone to the same target — the naive global rule.
    pub fn set_all_fan_targets(&mut self, target: Rpm) {
        for fan in &mut self.fans {
            fan.set_target(target);
        }
    }

    /// Records a tachometer poll and makes it the plant's operating
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `speeds` is not one entry per zone.
    pub fn set_fan_speeds(&mut self, speeds: &[Rpm]) {
        assert_eq!(speeds.len(), self.speeds.len(), "one fan speed per zone");
        self.speeds.copy_from_slice(speeds);
        self.plant.set_inputs(&self.powers, &self.speeds);
    }

    /// The utilizations currently executing.
    #[must_use]
    pub fn executed(&self) -> &[Utilization] {
        &self.executed
    }

    /// Records the utilizations executing from now on and makes their
    /// CPU powers the plant's operating point.
    ///
    /// # Panics
    ///
    /// Panics if `executed` is not one entry per socket.
    pub fn set_executed(&mut self, executed: &[Utilization]) {
        self.execute(executed);
        self.plant.set_inputs(&self.powers, &self.speeds);
    }

    /// Copies `executed` and derives its CPU powers; returns their sum.
    fn execute(&mut self, executed: &[Utilization]) -> Watts {
        assert_eq!(executed.len(), self.executed.len(), "one utilization per socket");
        self.executed.copy_from_slice(executed);
        let mut total = 0.0;
        for (slot, &u) in self.powers.iter_mut().zip(executed) {
            let p = self.spec.server.cpu_power.power(u);
            *slot = p;
            total += p.value();
        }
        Watts::new(total)
    }

    /// Advances the simulated rack by `dt`: executes `executed`, steps
    /// the fan mechanics, then the plant at the new speeds. Returns the
    /// total CPU power drawn over the step.
    pub(crate) fn advance(&mut self, dt: Seconds, executed: &[Utilization]) -> Watts {
        let p_cpu = self.execute(executed);
        for (slot, fan) in self.speeds.iter_mut().zip(&mut self.fans) {
            *slot = fan.step(dt);
        }
        self.plant.step(dt, &self.powers, &self.speeds);
        p_cpu
    }

    /// The minimum fan speed for zone `z` keeping its steady-state
    /// junctions at or below `limit` while every socket executes its share
    /// of rack demand `u`, other zones held at their current speeds.
    /// Allocation-free (scratch-buffered): safe to call from the epoch
    /// loop, e.g. on a single-step descent.
    #[must_use]
    pub fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        for i in 0..self.probe_powers.len() {
            self.probe_powers[i] = self.spec.server.cpu_power.power(self.socket_demand(i, u));
        }
        self.plant.min_safe_zone_fan(z, &self.probe_powers, &self.speeds, limit)
    }

    /// Re-initializes the state in steady state at rack demand `u` and
    /// the given per-zone fan speeds (clamped to the mechanical range):
    /// actuators settled there, every socket executing its demand, the
    /// plant at its equilibrium, and every measurement reading its
    /// equilibrium junction.
    ///
    /// # Panics
    ///
    /// Panics if `fans` is not one entry per zone.
    pub fn equilibrate(&mut self, u: Utilization, fans: &[Rpm]) {
        assert_eq!(fans.len(), self.fans.len(), "one fan speed per zone");
        for ((&fan, actuator), speed) in fans.iter().zip(&mut self.fans).zip(&mut self.speeds) {
            let clamped = self.spec.server.fan_bounds.clamp(fan);
            actuator.snap_to(clamped);
            *speed = clamped;
        }
        for i in 0..self.executed.len() {
            let demand = self.socket_demand(i, u);
            self.powers[i] = self.spec.server.cpu_power.power(demand);
            self.executed[i] = demand;
        }
        self.plant.equilibrate(&self.powers, &self.speeds);
        for (i, slot) in self.measured.iter_mut().enumerate() {
            *slot = self.plant.junction(i);
        }
        self.refresh_zone_aggregates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RackTopology;
    use gfsc_server::PlantModel;

    #[test]
    fn polled_inputs_become_the_plant_operating_point() {
        let mut state = RackState::new(RackSpec::new(RackTopology::rack_1u_x8()));
        state.equilibrate(Utilization::new(0.5), &[Rpm::new(3000.0), Rpm::new(3000.0)]);
        state.set_fan_speeds(&[Rpm::new(2500.0), Rpm::new(6000.0)]);
        state.set_executed(&[Utilization::new(0.9); 8]);
        assert_eq!(state.plant().fan_speed(1), Rpm::new(6000.0));
        // A zone-view probe holds the other wall at the polled speed and
        // every socket at its executed power.
        let powers = [state.spec().server.cpu_power.power(Utilization::new(0.9)); 8];
        let fans = [Rpm::new(2500.0), Rpm::new(6000.0)];
        let explicit = state.plant().steady_state_hottest_in_zone(0, &powers, &fans);
        let zone = state.plant_mut().zone_plant(0);
        let viewed = PlantModel::steady_state_junction(&zone, &powers[..4], Rpm::new(2500.0));
        assert_eq!(explicit.value().to_bits(), viewed.value().to_bits());
    }
}
