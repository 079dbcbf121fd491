//! Compact thermal models for air-cooled server sockets.
//!
//! Implements the temperature modeling of Section III-B of the paper using
//! the well-known duality between thermal and electrical phenomena (HotSpot
//! methodology, Huang et al., IEEE TVLSI 2006):
//!
//! - [`HeatSinkLaw`]: the fan-speed-dependent heat-sink thermal resistance
//!   `R_hs(V) = 0.141 + 132.51 / V^0.923` K/W (paper Table I),
//! - [`HeatSinkNode`]: a single RC node integrated with the exact
//!   exponential update of Eq. (2)–(3),
//! - [`DieNode`]: the CPU die, whose 0.1 s time constant is far below the
//!   heat-sink's 60 s, justifying the paper's quasi-steady treatment,
//! - [`ServerThermalModel`]: die-on-heat-sink composition used by the
//!   `gfsc-server` simulator,
//! - [`RcNetwork`]: a general N-node RC thermal network (builder +
//!   backward-Euler integrator) for cross-validation and extensions,
//! - [`Topology`]: a plain-data description of how many heat sources share
//!   the one fan (1S/2S/4S boards, blade chassis with a coupled spreader),
//! - [`MultiSocketPlant`]: a [`Topology`] compiled onto the cached
//!   [`RcNetwork`] — the N-socket plant behind the multi-socket
//!   closed-loop scenarios,
//! - [`BatchRcNetwork`]: B same-structure [`RcNetwork`]s stepped in
//!   lockstep through shared, memoized LU factorizations — bitwise
//!   identical to scalar stepping, built for wide scenario sweeps,
//! - [`FanZoneMap`]: the explicit fan→link mapping — which
//!   airflow-dependent links follow which fan. The single-zone map is the
//!   legacy "every sink→ambient link follows the one fan" rule;
//!   multi-zone maps are what rack-scale plants (`gfsc_rack`) build on.
//!
//! # Examples
//!
//! ```
//! use gfsc_thermal::{HeatSinkLaw, ServerThermalModel};
//! use gfsc_units::{Celsius, Rpm, Seconds, Watts};
//!
//! let mut model = ServerThermalModel::date14(Celsius::new(30.0));
//! // one minute at 140.8 W (u = 0.7) and 3000 rpm
//! for _ in 0..600 {
//!     model.step(Seconds::new(0.1), Watts::new(140.8), Rpm::new(3000.0));
//! }
//! let t = model.junction();
//! assert!(t > Celsius::new(40.0) && t < Celsius::new(100.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod die;
mod heatsink;
mod multi_socket;
mod network;
mod server_model;
mod topology;
mod zone;

pub use batch::BatchRcNetwork;
pub use die::DieNode;
pub use heatsink::{HeatSinkLaw, HeatSinkNode};
pub use multi_socket::{bisect_min_safe_fan, MultiSocketPlant, PlantCalibration};
pub use network::{
    BoundaryId, LinkId, NetworkError, NodeId, ProbeScratch, RcNetwork, RcNetworkBuilder,
    SolveBuffers,
};
pub use server_model::ServerThermalModel;
pub use topology::{ChassisDef, SocketDef, Topology};
pub use zone::{FanZoneMap, ZoneId};
