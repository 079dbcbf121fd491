//! Multi-rate periodic scheduling.

use crate::Clock;
use gfsc_units::Seconds;

/// A periodic activity in a fixed-step simulation.
///
/// `Periodic` answers "is this activity due now?" for controllers that run
/// slower than the simulation step — e.g. the paper's CPU-cap controller
/// (1 s) and fan-speed controller (30 s) on a 0.1 s plant step.
///
/// The schedule is tolerant of the caller polling *past* a deadline (it
/// fires once and re-arms relative to the nominal grid, not the polling
/// time, so late polls do not shift the phase).
///
/// # Examples
///
/// ```
/// use gfsc_sim::Periodic;
/// use gfsc_units::Seconds;
///
/// let mut p = Periodic::new(Seconds::new(30.0));
/// assert!(p.is_due(Seconds::new(0.0)));
/// assert!(!p.is_due(Seconds::new(15.0)));
/// assert!(p.is_due(Seconds::new(30.0)));
/// ```
#[derive(Debug, Clone)]
pub struct Periodic {
    period: Seconds,
    next: f64,
    /// The nominal grid's phase (the first scheduled firing time) —
    /// what [`Self::reschedule_on_grid`] re-arms against after an
    /// out-of-band fire.
    anchor: f64,
    /// Set by [`Self::reschedule_on_grid`]: the next fire is
    /// out-of-band, and the one after it must land back on the
    /// `anchor + k·period` grid instead of `fired + period`.
    regrid: bool,
}

impl Periodic {
    /// Creates a schedule firing at `t = 0, period, 2·period, …`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: Seconds) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        Self { period, next: 0.0, anchor: 0.0, regrid: false }
    }

    /// Creates a schedule whose first firing is delayed to `phase`.
    ///
    /// Useful to de-synchronize controllers, e.g. to model a fan controller
    /// that makes its first decision only after one full interval.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_phase(period: Seconds, phase: Seconds) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        Self { period, next: phase.value(), anchor: phase.value(), regrid: false }
    }

    /// The firing period.
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// The next scheduled firing time.
    #[must_use]
    pub fn next_fire(&self) -> Seconds {
        Seconds::new(self.next)
    }

    /// Returns `true` (and re-arms) if the activity is due at time `now`.
    ///
    /// A small tolerance (1 ppm of the period) absorbs floating-point
    /// representation error in the caller's clock.
    pub fn is_due(&mut self, now: Seconds) -> bool {
        let tol = self.period.value() * 1e-6;
        if now.value() + tol >= self.next {
            if self.regrid {
                // An out-of-band fire armed by `reschedule_on_grid`:
                // return to the nominal `anchor + k·period` grid instead
                // of shifting every later firing by the fire time.
                self.regrid = false;
                let periods = ((now.value() + tol - self.anchor) / self.period.value()).floor();
                self.next = self.anchor + (periods + 1.0) * self.period.value();
            } else {
                // Re-arm on the nominal grid so late polls do not drift
                // phase.
                self.next += self.period.value();
            }
            // If the caller skipped far ahead (e.g. coarse stepping), catch
            // up without queueing a burst of stale firings.
            while self.next <= now.value() + tol {
                self.next += self.period.value();
            }
            true
        } else {
            false
        }
    }

    /// Re-arms the schedule to fire next at `at`, keeping the period —
    /// **and permanently shifting the phase**: every later firing lands
    /// on `at + k·period`, not back on the original grid.
    ///
    /// The single-step fan-speed scaling scheme (paper Section V-C) uses
    /// this to force an immediate out-of-band fan decision *and* restart
    /// its decision interval from that fire — the boost window is timed
    /// from the boost, so the phase shift is the intended behavior
    /// there. For a one-off early fire that must not disturb the
    /// nominal cadence, use [`Self::reschedule_on_grid`].
    pub fn reschedule(&mut self, at: Seconds) {
        self.next = at.value();
        self.anchor = at.value();
        self.regrid = false;
    }

    /// Arms a single out-of-band fire at `at`; after it fires, the
    /// schedule returns to the nominal `phase + k·period` grid as if
    /// the extra fire had not happened.
    ///
    /// With period 30: fire at 0, `reschedule_on_grid(5)`, fire at 5 —
    /// the next fires land at 30, 60, … (where [`Self::reschedule`]
    /// would shift them to 35, 65, …).
    pub fn reschedule_on_grid(&mut self, at: Seconds) {
        self.next = at.value();
        self.regrid = true;
    }
}

/// The paper's multi-rate control schedule, which every closed loop in
/// the workspace (server and rack simulators, the lockstep batch, the
/// daemon) runs on: the CPU capper fires every `cpu_interval` and the
/// fan loop every `fan_interval`, both polled on the plant's
/// [`StepGrid`].
///
/// The rules live here once:
///
/// - the fan schedule is consulted (and advanced) only inside a due CPU
///   epoch — [`Self::due`] short-circuits, so a fan deadline that falls
///   between CPU epochs fires at the next CPU epoch;
/// - the loop boundary: a run over `horizon` polls every point of
///   `StepGrid::new(dt, horizon)`, `k·dt` for `k` in
///   `0..=ceil(horizon / dt)`, and steps the plant *after* each poll, so
///   the plant ends at the first grid point past `horizon` (one trailing
///   step after the final control epoch). The simulators and the daemon
///   share this boundary bit for bit; an off-by-one "fix" in any one of
///   them would shift every golden trace;
/// - traces reserve [`Self::trace_capacity`] samples per channel: one
///   per CPU epoch in `0..=horizon`, plus one of slack.
///
/// # Examples
///
/// ```
/// use gfsc_sim::{EpochGate, StepGrid};
/// use gfsc_units::Seconds;
///
/// let mut gate = EpochGate::new(Seconds::new(1.0), Seconds::new(30.0));
/// let (mut cpu, mut fan) = (0, 0);
/// for now in StepGrid::new(Seconds::new(0.5), Seconds::new(60.0)) {
///     if let Some(fan_due) = gate.due(now) {
///         cpu += 1;
///         fan += usize::from(fan_due);
///     }
/// }
/// assert_eq!((cpu, fan), (61, 3)); // t = 0..=60; fans at 0, 30, 60
/// assert_eq!(gate.trace_capacity(Seconds::new(60.0)), 62);
/// ```
#[derive(Debug, Clone)]
pub struct EpochGate {
    cpu: Periodic,
    fan: Periodic,
}

impl EpochGate {
    /// The most samples per channel [`Self::trace_capacity`] reserves up
    /// front: a day and a half of 1 s epochs, above every horizon the
    /// experiments run. Longer runs still record every epoch; their
    /// traces grow on demand past the reservation instead of asking the
    /// allocator for the whole horizon before the first cycle.
    pub const MAX_TRACE_RESERVATION: usize = 1 << 17;

    /// Creates the schedule, both activities firing first at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if either interval is zero.
    #[must_use]
    pub fn new(cpu_interval: Seconds, fan_interval: Seconds) -> Self {
        Self { cpu: Periodic::new(cpu_interval), fan: Periodic::new(fan_interval) }
    }

    /// `None` if no CPU epoch is due at `now`; otherwise `Some(fan_due)`,
    /// whether the fan epoch is due too. Re-arms whatever fired.
    pub fn due(&mut self, now: Seconds) -> Option<bool> {
        self.cpu.is_due(now).then(|| self.fan.is_due(now))
    }

    /// Samples to reserve per epoch-rate trace channel for a run over
    /// `horizon`: `floor(horizon / cpu_interval) + 2`, clamped to
    /// [`Self::MAX_TRACE_RESERVATION`].
    #[must_use]
    pub fn trace_capacity(&self, horizon: Seconds) -> usize {
        let epochs = (horizon.value() / self.cpu.period().value()).floor() as usize;
        epochs.saturating_add(2).min(Self::MAX_TRACE_RESERVATION)
    }
}

/// The plant-step grid of a run over `horizon`: yields `now = k·dt` for
/// `k` in `0..=ceil(horizon / dt)`, with the same bits as
/// [`Clock::now`]. The boundary contract is documented on [`EpochGate`].
#[derive(Debug, Clone)]
pub struct StepGrid {
    clock: Clock,
    last: u64,
}

impl StepGrid {
    /// The grid for a run of `horizon` at step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[must_use]
    pub fn new(dt: Seconds, horizon: Seconds) -> Self {
        let clock = Clock::new(dt);
        let last = clock.steps_for(horizon);
        Self { clock, last }
    }
}

impl Iterator for StepGrid {
    type Item = Seconds;

    fn next(&mut self) -> Option<Seconds> {
        if self.clock.step() > self.last {
            return None;
        }
        let now = self.clock.now();
        self.clock.tick();
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn times(period: f64, phase: Option<f64>, dt: f64, horizon: f64) -> Vec<f64> {
        let mut p = match phase {
            Some(ph) => Periodic::with_phase(Seconds::new(period), Seconds::new(ph)),
            None => Periodic::new(Seconds::new(period)),
        };
        let mut out = Vec::new();
        let steps = (horizon / dt).round() as u64;
        for k in 0..=steps {
            let now = Seconds::new(k as f64 * dt);
            if p.is_due(now) {
                out.push(now.value());
            }
        }
        out
    }

    #[test]
    fn fires_on_grid_from_zero() {
        assert_eq!(times(30.0, None, 1.0, 95.0), vec![0.0, 30.0, 60.0, 90.0]);
    }

    #[test]
    fn fires_with_phase_offset() {
        assert_eq!(times(30.0, Some(10.0), 1.0, 95.0), vec![10.0, 40.0, 70.0]);
    }

    #[test]
    fn fine_steps_do_not_double_fire() {
        // dt = 0.1 with period 1.0: exactly one firing per second.
        let fired = times(1.0, None, 0.1, 10.05);
        assert_eq!(fired.len(), 11);
    }

    #[test]
    fn representation_error_does_not_skip_firings() {
        // 0.1 is inexact in binary; ensure the tolerance absorbs it over a
        // long horizon.
        let fired = times(1.0, None, 0.1, 1000.0);
        assert_eq!(fired.len(), 1001);
    }

    #[test]
    fn late_polls_catch_up_without_burst() {
        let mut p = Periodic::new(Seconds::new(10.0));
        assert!(p.is_due(Seconds::new(0.0)));
        // Jump straight to t = 35: exactly one firing, re-armed at 40.
        assert!(p.is_due(Seconds::new(35.0)));
        assert!(!p.is_due(Seconds::new(36.0)));
        assert_eq!(p.next_fire(), Seconds::new(40.0));
    }

    #[test]
    fn reschedule_forces_early_fire() {
        let mut p = Periodic::new(Seconds::new(30.0));
        assert!(p.is_due(Seconds::new(0.0)));
        p.reschedule(Seconds::new(5.0));
        assert!(p.is_due(Seconds::new(5.0)));
        assert_eq!(p.next_fire(), Seconds::new(35.0));
    }

    #[test]
    fn reschedule_shifts_the_phase_permanently() {
        // Pin the documented (and SS-fan-intended) phase shift: after an
        // out-of-band fire at t = 5 the grid is 35 / 65 / …, not 30 / 60.
        let mut p = Periodic::new(Seconds::new(30.0));
        assert!(p.is_due(Seconds::new(0.0)));
        p.reschedule(Seconds::new(5.0));
        let fired: Vec<f64> = (0..=100)
            .map(|k| Seconds::new(k as f64))
            .filter(|&t| p.is_due(t))
            .map(|t| t.value())
            .collect();
        assert_eq!(fired, vec![5.0, 35.0, 65.0, 95.0]);
    }

    #[test]
    fn reschedule_on_grid_preserves_the_nominal_grid() {
        // The grid-preserving re-arm: the out-of-band fire at t = 5 does
        // not move the 30 / 60 / 90 cadence.
        let mut p = Periodic::new(Seconds::new(30.0));
        assert!(p.is_due(Seconds::new(0.0)));
        p.reschedule_on_grid(Seconds::new(5.0));
        let fired: Vec<f64> = (0..=100)
            .map(|k| Seconds::new(k as f64))
            .filter(|&t| p.is_due(t))
            .map(|t| t.value())
            .collect();
        assert_eq!(fired, vec![5.0, 30.0, 60.0, 90.0]);
    }

    #[test]
    fn reschedule_on_grid_respects_a_phase_offset() {
        // Nominal grid 10 / 40 / 70 / 100; an out-of-band fire at 55
        // lands between grid points and the cadence resumes at 70.
        let mut p = Periodic::with_phase(Seconds::new(30.0), Seconds::new(10.0));
        assert!(p.is_due(Seconds::new(10.0)));
        assert!(p.is_due(Seconds::new(40.0)));
        p.reschedule_on_grid(Seconds::new(55.0));
        assert!(p.is_due(Seconds::new(55.0)), "the out-of-band fire itself");
        assert_eq!(p.next_fire(), Seconds::new(70.0));
        let fired: Vec<f64> = (56..=110)
            .map(|k| Seconds::new(k as f64))
            .filter(|&t| p.is_due(t))
            .map(|t| t.value())
            .collect();
        assert_eq!(fired, vec![70.0, 100.0]);
    }

    #[test]
    fn reschedule_on_grid_exactly_on_a_grid_point_consumes_that_slot() {
        let mut p = Periodic::new(Seconds::new(30.0));
        assert!(p.is_due(Seconds::new(0.0)));
        p.reschedule_on_grid(Seconds::new(30.0));
        assert!(p.is_due(Seconds::new(30.0)));
        assert_eq!(p.next_fire(), Seconds::new(60.0));
    }

    #[test]
    fn accessors() {
        let p = Periodic::new(Seconds::new(30.0));
        assert_eq!(p.period(), Seconds::new(30.0));
        assert_eq!(p.next_fire(), Seconds::new(0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = Periodic::new(Seconds::new(0.0));
    }

    #[test]
    fn trace_capacity_is_one_per_epoch_plus_slack_and_clamped() {
        let gate = EpochGate::new(Seconds::new(1.0), Seconds::new(30.0));
        assert_eq!(gate.trace_capacity(Seconds::new(0.0)), 2);
        assert_eq!(gate.trace_capacity(Seconds::new(120.5)), 122);
        // The longest horizon the experiments and the benchmark run (a
        // simulated day) stays below the clamp, so its reservation is exact.
        assert_eq!(gate.trace_capacity(Seconds::new(86_400.0)), 86_402);
        for horizon in [1e6, 1e15, f64::MAX, f64::INFINITY] {
            assert_eq!(
                gate.trace_capacity(Seconds::new(horizon)),
                EpochGate::MAX_TRACE_RESERVATION,
                "horizon {horizon}"
            );
        }
    }

    /// One run of the hand-written schedule every loop carried before
    /// [`EpochGate`] / [`StepGrid`]: `(now bits, cpu_due, fan_due)` per
    /// plant step.
    fn clock_and_periodic_pair(
        dt: f64,
        cpu: f64,
        fan: f64,
        horizon: f64,
    ) -> Vec<(u64, bool, bool)> {
        let mut clock = Clock::new(Seconds::new(dt));
        let mut cpu_epoch = Periodic::new(Seconds::new(cpu));
        let mut fan_epoch = Periodic::new(Seconds::new(fan));
        let steps = clock.steps_for(Seconds::new(horizon));
        let mut out = Vec::new();
        for _ in 0..=steps {
            let now = clock.now();
            if cpu_epoch.is_due(now) {
                out.push((now.value().to_bits(), true, fan_epoch.is_due(now)));
            } else {
                out.push((now.value().to_bits(), false, false));
            }
            clock.tick();
        }
        out
    }

    proptest! {
        #[test]
        fn gate_and_grid_replay_the_clock_and_periodic_pair(
            dt_tenths in 1u32..25,
            cpu_on_grid in 0u8..2,
            cpu_steps in 1u32..12,
            cpu_free in 0.05f64..4.0,
            fan_per_cpu in 0.5f64..45.0,
            horizon in 0.0f64..1500.0,
        ) {
            // dt = k/10 is inexact in binary for most k, as in the specs.
            let dt = f64::from(dt_tenths) / 10.0;
            let cpu = if cpu_on_grid == 1 { dt * f64::from(cpu_steps) } else { cpu_free };
            let fan = cpu * fan_per_cpu;
            let want = clock_and_periodic_pair(dt, cpu, fan, horizon);

            let mut gate = EpochGate::new(Seconds::new(cpu), Seconds::new(fan));
            let got: Vec<(u64, bool, bool)> = StepGrid::new(Seconds::new(dt), Seconds::new(horizon))
                .map(|now| {
                    let due = gate.due(now);
                    (now.value().to_bits(), due.is_some(), due.unwrap_or(false))
                })
                .collect();
            prop_assert_eq!(&got, &want);

            let epochs = got.iter().filter(|&&(_, cpu_due, _)| cpu_due).count();
            let capacity = gate.trace_capacity(Seconds::new(horizon));
            prop_assert!(
                epochs <= capacity,
                "{epochs} epochs > capacity {capacity} (dt {dt}, cpu {cpu}, horizon {horizon})"
            );
        }
    }
}
