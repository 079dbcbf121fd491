//! The daemon's telemetry mirror: a [`RackView`] the daemon refreshes
//! from [`crate::TelemetrySource`] polls each cycle and whose commanded
//! state it flushes to the [`crate::FanActuator`] afterwards.
//!
//! The mirror owns the same [`RackState`] the simulated rack does, so
//! every derived quantity comes from the one implementation. What is
//! left here is specific to telemetry: readings that may be missing and
//! the load shifts waiting for the actuator.

use gfsc_coord::RackView;
use gfsc_rack::{RackPlant, RackSpec, RackState};
use gfsc_units::{Celsius, Rpm, Utilization};

/// One recorded load migration, queued for the actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LoadShift {
    /// Donor server index.
    pub(crate) from: usize,
    /// Recipient server index.
    pub(crate) to: usize,
    /// Demand weight moved.
    pub(crate) amount: f64,
}

/// The mirror a daemon maintains of the rack it controls: the
/// controller-visible [`RackState`] over a calibrated model plant, plus
/// the load shifts the bank commanded this epoch.
#[derive(Debug)]
pub(crate) struct DaemonRackView {
    /// Fed from the polls (tachometers straight into it) and from the
    /// bank's executed utilizations after each epoch.
    pub(crate) state: RackState,
    /// Load shifts commanded by the bank this epoch, awaiting the
    /// actuator. Drained, not replaced, so its buffer is reused.
    shifts: Vec<LoadShift>,
}

impl DaemonRackView {
    /// Builds the mirror for `spec`, equilibrated at the operating point
    /// the rack is assumed to start from (what `RackServer::equilibrate`
    /// does at `start_utilization` / `start_fan`).
    pub(crate) fn new(spec: RackSpec, start_utilization: Utilization, start_fan: Rpm) -> Self {
        let mut state = RackState::new(spec);
        let fans = vec![start_fan; state.zone_count()];
        state.equilibrate(start_utilization, &fans);
        Self { state, shifts: Vec::new() }
    }

    /// Ingests one temperature poll: `Some` values replace the mirror's
    /// readings, `None` holds the previous value (the daemon's health
    /// tracker decides separately whether the hold is still *usable*).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not one entry per socket.
    pub(crate) fn ingest_temperatures(&mut self, values: &[Option<Celsius>]) {
        assert_eq!(values.len(), self.state.socket_count(), "one reading slot per socket");
        self.state.record_measurements(|i, held| values[i].unwrap_or(held));
    }

    /// Drains the load shifts queued by the bank this epoch.
    pub(crate) fn drain_shifts(&mut self) -> std::vec::Drain<'_, LoadShift> {
        self.shifts.drain(..)
    }
}

impl RackView for DaemonRackView {
    fn zone_count(&self) -> usize {
        self.state.zone_count()
    }

    fn socket_count(&self) -> usize {
        self.state.socket_count()
    }

    fn server_count(&self) -> usize {
        self.state.server_count()
    }

    fn plant(&self) -> &RackPlant {
        self.state.plant()
    }

    fn plant_mut(&mut self) -> &mut RackPlant {
        self.state.plant_mut()
    }

    fn measured_socket(&self, i: usize) -> Celsius {
        self.state.measured_socket(i)
    }

    fn measured_zone(&self, z: usize) -> Celsius {
        self.state.measured_zone(z)
    }

    fn measured_rack(&self) -> Celsius {
        self.state.measured_rack()
    }

    fn zone_fan_speed(&self, z: usize) -> Rpm {
        self.state.zone_fan_speed(z)
    }

    fn zone_fan_target(&self, z: usize) -> Rpm {
        self.state.zone_fan_target(z)
    }

    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        self.state.set_zone_fan_target(z, target);
    }

    fn set_all_fan_targets(&mut self, target: Rpm) {
        self.state.set_all_fan_targets(target);
    }

    fn executed(&self) -> &[Utilization] {
        self.state.executed()
    }

    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        self.state.socket_demands(u, out);
    }

    fn server_load_weight(&self, s: usize) -> f64 {
        self.state.server_load_weight(s)
    }

    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        self.state.shift_load_weight(from, to, amount);
        self.shifts.push(LoadShift { from, to, amount });
    }

    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        self.state.min_safe_zone_fan(z, u, limit)
    }
}
