//! Rack-scale plant: multi-fan zones, shared plenum, per-zone plant views.
//!
//! The paper controls one fan in one server. A rack is the same physics
//! one level up: N servers in a shared plenum, cooled by *zones* of fans
//! (front/rear walls), every zone's fans driving many airflow-dependent
//! thermal paths at once. This crate generalizes the single-server world:
//!
//! - [`RackTopology`]: plain-data rack structure — fan zones, server
//!   slots (each with its own board [`gfsc_thermal::Topology`]), shared
//!   plenum coupling and recirculation; presets
//!   [`RackTopology::rack_1u_x8`] (8 × 1U, two walls) and
//!   [`RackTopology::rack_2u_x4`] (4 × 2U dual-socket),
//! - [`RackPlant`]: the topology compiled onto one cached-factorization
//!   `RcNetwork` with an explicit fan→link mapping
//!   (`gfsc_thermal::FanZoneMap`) — the general form of the legacy "every
//!   sink→ambient link follows the one fan" rule,
//! - [`RackPlant::zone_plant`]: a per-zone view implementing the
//!   single-fan `gfsc_server::PlantModel` contract, so zone controllers
//!   and tuners see exactly what a server controller sees,
//! - [`RackState`]: what a rack controller observes and commands, shared
//!   by the simulated rack and the daemon's telemetry mirror,
//! - [`RackServer`]: the closed physical rack — per-zone slew-limited fan
//!   walls, per-socket non-ideal sensor chains, per-zone max aggregation,
//!   rack-wide energy metering,
//! - [`ZoneFanPlant`]: `gfsc_control::Plant` adapter for Ziegler–Nichols
//!   tuning of one zone's fan loop.
//!
//! The control layer on top (per-socket cappers, the capping coordinator,
//! the rack closed loop) lives in `gfsc_coord`.
//!
//! # Examples
//!
//! ```
//! use gfsc_rack::{RackServer, RackSpec, RackTopology};
//! use gfsc_units::{Rpm, Seconds, Utilization};
//!
//! let mut rack = RackServer::new(RackSpec::new(RackTopology::rack_2u_x4()));
//! let executed = vec![Utilization::new(0.6); rack.socket_count()];
//! for _ in 0..120 {
//!     rack.step(Seconds::new(0.5), &executed);
//! }
//! // Each fan zone has its own aggregated firmware view.
//! assert!(rack.measured_zone(0).value() >= rack.spec().server.ambient.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plant;
mod server;
mod state;
mod topology;

pub use plant::{RackPlant, ZonePlant};
pub use server::{RackServer, RackSpec, ZoneFanPlant};
pub use state::RackState;
pub use topology::{PlenumDef, RackTopology, RackZoneDef, ServerSlot};
