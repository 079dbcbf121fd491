//! The controller-facing rack abstraction: everything the rack control
//! bank reads and commands, with the plant ownership factored out.
//!
//! [`RackLoopSim`](crate::RackLoopSim) owns a `gfsc_rack::RackServer` and
//! steps it between control epochs — the batch-simulation shape. A
//! telemetry daemon owns *nothing*: it polls sensors, mirrors what it
//! learned, and writes actuator commands over a wire. [`RackView`] is the
//! seam between the two: the [`crate::RackControlBank`] runs the full
//! [`crate::RackControl`] matrix against any implementation, so the same
//! controller state machine drives a simulated rack (`RackServer`
//! implements the trait directly) or a streamed mirror fed by a
//! `TelemetrySource` (the `gfsc-daemon` crate), both backed by one
//! `gfsc_rack::RackState`.
//!
//! The trait is deliberately *measurement-shaped*: controllers see the
//! firmware's lagged, quantized view (`measured_*`), tachometer fan
//! speeds, and a model plant for steady-state probes — never the true
//! junction temperatures, which no real rack exposes.

use gfsc_rack::{RackPlant, RackServer};
use gfsc_units::{Celsius, Rpm, Utilization};

/// What a rack controller can observe and command, independent of whether
/// the rack is a simulated plant or a telemetry mirror of real hardware.
///
/// Object-safe: the control bank dispatches through `&mut dyn RackView`
/// so daemon and simulation share one monomorphization (and therefore one
/// set of floating-point operation orders — bit-for-bit replay across
/// backends is a tested contract, see `crates/daemon/tests/parity.rs`).
pub trait RackView {
    /// Number of fan zones.
    fn zone_count(&self) -> usize;
    /// Total socket count (the length of every per-socket slice).
    fn socket_count(&self) -> usize;
    /// Number of servers.
    fn server_count(&self) -> usize;
    /// The rack thermal model: structure (zone/socket maps) and
    /// steady-state probes for model-based controllers. For a simulated
    /// rack this is the plant itself; for a daemon it is the calibrated
    /// model mirror.
    fn plant(&self) -> &RackPlant;
    /// Mutable model access (per-zone `PlantModel` views are mutable by
    /// construction).
    fn plant_mut(&mut self) -> &mut RackPlant;
    /// The firmware's (lagged, quantized) view of socket `i`'s junction.
    fn measured_socket(&self, i: usize) -> Celsius;
    /// Zone `z`'s aggregated firmware view (max over its sockets).
    fn measured_zone(&self, z: usize) -> Celsius;
    /// The rack-wide aggregated view (hottest zone aggregate).
    fn measured_rack(&self) -> Celsius;
    /// Actual (tachometer) fan speed of zone `z`.
    fn zone_fan_speed(&self, z: usize) -> Rpm;
    /// Commanded fan target of zone `z`.
    fn zone_fan_target(&self, z: usize) -> Rpm;
    /// Commands zone `z`'s fans toward `target`.
    fn set_zone_fan_target(&mut self, z: usize, target: Rpm);
    /// Commands every zone to the same target — the naive global rule.
    fn set_all_fan_targets(&mut self, target: Rpm);
    /// The per-socket utilizations currently executing (for a daemon: the
    /// enforced `min(demand, cap)` of the previous epoch).
    fn executed(&self) -> &[Utilization];
    /// Fills `out` with every socket's demand under rack-wide demand `u`.
    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]);
    /// Server `s`'s current demand weight.
    fn server_load_weight(&self, s: usize) -> f64;
    /// Moves `amount` of demand weight from server `from` to server `to`.
    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64);
    /// The minimum fan speed for zone `z` keeping its steady-state
    /// junctions at or below `limit` while every socket executes its
    /// share of rack demand `u`, other zones held at their current
    /// speeds.
    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm>;
}

impl RackView for RackServer {
    fn zone_count(&self) -> usize {
        RackServer::zone_count(self)
    }

    fn socket_count(&self) -> usize {
        RackServer::socket_count(self)
    }

    fn server_count(&self) -> usize {
        RackServer::server_count(self)
    }

    fn plant(&self) -> &RackPlant {
        RackServer::plant(self)
    }

    fn plant_mut(&mut self) -> &mut RackPlant {
        RackServer::plant_mut(self)
    }

    fn measured_socket(&self, i: usize) -> Celsius {
        RackServer::measured_socket(self, i)
    }

    fn measured_zone(&self, z: usize) -> Celsius {
        RackServer::measured_zone(self, z)
    }

    fn measured_rack(&self) -> Celsius {
        RackServer::measured_rack(self)
    }

    fn zone_fan_speed(&self, z: usize) -> Rpm {
        RackServer::zone_fan_speed(self, z)
    }

    fn zone_fan_target(&self, z: usize) -> Rpm {
        RackServer::zone_fan_target(self, z)
    }

    fn set_zone_fan_target(&mut self, z: usize, target: Rpm) {
        RackServer::set_zone_fan_target(self, z, target);
    }

    fn set_all_fan_targets(&mut self, target: Rpm) {
        RackServer::set_all_fan_targets(self, target);
    }

    fn executed(&self) -> &[Utilization] {
        RackServer::executed(self)
    }

    fn socket_demands(&self, u: Utilization, out: &mut [Utilization]) {
        RackServer::socket_demands(self, u, out);
    }

    fn server_load_weight(&self, s: usize) -> f64 {
        RackServer::server_load_weight(self, s)
    }

    fn shift_load_weight(&mut self, from: usize, to: usize, amount: f64) {
        RackServer::shift_load_weight(self, from, to, amount);
    }

    fn min_safe_zone_fan(&mut self, z: usize, u: Utilization, limit: Celsius) -> Option<Rpm> {
        RackServer::min_safe_zone_fan(self, z, u, limit)
    }
}
