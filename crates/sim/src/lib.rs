//! Discrete-time simulation kernel for the `gfsc` workspace.
//!
//! The paper evaluates its controllers on a simulated enterprise server with
//! several periodic activities running at different rates: the plant
//! (thermal/power state) advances at a fine fixed step, the CPU-cap
//! controller fires every 1 s, the fan controller every 30 s, and the sensor
//! chain samples every 1 s. This crate provides the scaffolding for that
//! style of simulation:
//!
//! - [`Clock`]: a drift-free fixed-step simulation clock,
//! - [`Periodic`]: a multi-rate scheduler primitive ("is this controller due
//!   at the current time?"),
//! - [`EpochGate`] / [`StepGrid`]: the CPU/fan control schedule and the
//!   plant-step grid every closed loop in the workspace runs on,
//! - [`Trace`] / [`TraceSet`]: named time series with CSV export,
//! - [`spill`]: columnar on-disk trace spill ([`TraceSet::spill_to`],
//!   streaming [`TraceSink`], selective [`SpilledTraces`] reads) so large
//!   sweeps keep full traces without keeping them resident,
//! - [`stats`]: step-response and stability metrics (settling time,
//!   overshoot, sustained-oscillation detection) used to evaluate the
//!   paper's claims quantitatively.
//!
//! # Examples
//!
//! ```
//! use gfsc_sim::{Clock, Periodic, Trace};
//! use gfsc_units::Seconds;
//!
//! let mut clock = Clock::new(Seconds::new(0.5));
//! let mut fan_ctrl = Periodic::new(Seconds::new(30.0));
//! let mut trace = Trace::new("fan_speed_rpm");
//! let mut fires = 0;
//! while clock.now().value() < 120.0 {
//!     if fan_ctrl.is_due(clock.now()) {
//!         fires += 1;
//!         trace.push(clock.now(), 2000.0);
//!     }
//!     clock.tick();
//! }
//! assert_eq!(fires, 4); // t = 0, 30, 60, 90
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fault;
mod schedule;
pub mod spill;
pub mod stats;
pub mod sweep;
mod trace;

pub use clock::Clock;
pub use fault::{FaultSchedule, FaultWindow};
pub use schedule::{EpochGate, Periodic, StepGrid};
pub use spill::{SinkChannel, SpilledTraces, TraceSink};
pub use trace::{ChannelId, Trace, TraceError, TraceSet};
