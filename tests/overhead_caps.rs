//! The two absolute overhead caps of the deployed control loop, as paired
//! release-profile measurements:
//!
//! - the daemon front-end (`Daemon` over `SimTelemetry`: trait dispatch,
//!   the polled rack mirror, the watchdog) may cost at most 5 % over the
//!   direct `RackLoopSim` on the identical scenario;
//! - arming the flight recorder may cost at most 3 % over the disarmed
//!   loop.
//!
//! Both probes run on `rack_2u_x4` under `GlobalECoord` — the densest
//! event stream and the parity-pinned daemon configuration — with the
//! DATE'14 square wave. Each probe times [`PAIRS`] back-to-back pairs,
//! alternating which side runs first, and takes the ratio of each pair.
//! A load burst or frequency shift inflates both sides of the pair it
//! lands on and cancels in the ratio. The test fails when the
//! distribution-free one-sided 95 % upper bound on the median pair ratio
//! exceeds `1 + cap`.
//!
//! Timing is meaningless in a debug build, and two probes sharing a small
//! host disturb each other, so the probes are `#[ignore]`d and run as
//!
//! ```text
//! cargo test --release --test overhead_caps -- --ignored --test-threads=1
//! ```
//!
//! (the full gate's `overhead-caps` stage). Add `--nocapture` to see each
//! probe's median ratio and bound when it passes.

use gfsc_coord::{RackControl, RackControlConfig, RackLoopSim};
use gfsc_daemon::{Daemon, DaemonConfig, FaultPlan, SimTelemetry};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};
use std::time::Instant;

/// The daemon front-end may cost at most this fraction over the direct loop.
const DAEMON_OVERHEAD_CAP: f64 = 0.05;
/// The armed flight recorder may cost at most this fraction over the
/// disarmed loop.
const RECORDER_OVERHEAD_CAP: f64 = 0.03;

/// Timed pairs per probe. With 41 pairs the 95 % upper bound on the median
/// is the 27th smallest ratio, 6 ranks above the median.
const PAIRS: usize = 41;
/// Confidence of the one-sided upper bound on the median ratio.
const CONFIDENCE: f64 = 0.95;
/// Simulated seconds per timed run.
const HORIZON: f64 = 3_000.0;
const CONTROL: RackControl = RackControl::GlobalECoord;
/// Ring capacity of the armed recorder: roomy enough that nothing drops
/// over [`HORIZON`], small enough (256 KiB) not to fight the controllers
/// for cache. Ring size is a deployment knob, not overhead.
const RING_EVENTS: usize = 8_192;

fn spec() -> RackSpec {
    RackSpec::new(RackTopology::rack_2u_x4())
}

fn workload() -> Workload {
    Workload::builder(SquareWave::date14()).build()
}

/// Wall seconds of one call.
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Zero-based index, into `n` ratios sorted ascending, of the smallest
/// order statistic that bounds the median from above with at least
/// [`CONFIDENCE`], or `None` when `n` is too small for any.
///
/// With the ratios i.i.d. and continuous, the count below the true median
/// is Binomial(n, ½), and the `k`-th smallest (one-based) lies at or above
/// the median unless at least `k` ratios fall below it. So
/// `P(median ≤ r_(k)) = P(Bin(n, ½) ≤ k − 1)`, and the bound is the first
/// `k` where that tail reaches [`CONFIDENCE`].
fn median_upper_bound_index(n: usize) -> Option<usize> {
    let mut pmf = 0.5_f64.powi(i32::try_from(n).ok()?);
    let mut cdf = 0.0;
    for below in 0..n {
        cdf += pmf;
        if cdf >= CONFIDENCE {
            return Some(below);
        }
        pmf *= (n - below) as f64 / (below + 1) as f64;
    }
    None
}

/// `(median, upper bound)` of the pair ratios `second / first`.
///
/// # Panics
///
/// Panics if there are too few pairs for a bound at [`CONFIDENCE`].
fn median_and_upper_bound(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mut ratios: Vec<f64> = pairs.iter().map(|&(a, b)| b / a).collect();
    ratios.sort_by(f64::total_cmp);
    let upper = median_upper_bound_index(ratios.len())
        .expect("enough pairs for a 95 % bound on the median");
    (ratios[ratios.len() / 2], ratios[upper])
}

/// Times one untimed warm-up pair, then [`PAIRS`] back-to-back pairs
/// `(base, probe)` with alternating order, and checks the median ratio's
/// upper bound against `1 + cap`.
fn assert_overhead_within(
    what: &str,
    cap: f64,
    mut base: impl FnMut() -> f64,
    mut probe: impl FnMut() -> f64,
) {
    if cfg!(debug_assertions) {
        panic!("overhead caps are release-profile timings: add --release");
    }
    let _ = (base(), probe());
    let pairs: Vec<(f64, f64)> = (0..PAIRS)
        .map(|k| {
            if k % 2 == 0 {
                let b = base();
                (b, probe())
            } else {
                let p = probe();
                (base(), p)
            }
        })
        .collect();
    let (median, upper) = median_and_upper_bound(&pairs);
    let report = format!(
        "{what}: median overhead {:.2} %, 95 % upper bound {:.2} % over {PAIRS} pairs \
         (cap {:.0} %)",
        (median - 1.0) * 100.0,
        (upper - 1.0) * 100.0,
        cap * 100.0,
    );
    println!("{report}");
    assert!(upper - 1.0 <= cap, "{report}");
}

/// The direct batch loop vs the daemon's trait-dispatch loop on the
/// identical scenario. Both run the same plant, controllers and workload
/// samples, so the difference is front-end overhead. Construction
/// (equilibration) is excluded from both sides.
#[test]
#[ignore = "release-profile timing probe; see the file docs for the command"]
fn daemon_front_end_costs_at_most_5_percent() {
    let direct = || {
        let mut sim = RackLoopSim::builder(spec()).workload(workload()).control(CONTROL).build();
        time(|| sim.run(Seconds::new(HORIZON))).1
    };
    let streamed = || {
        let cfg = DaemonConfig::new(RackControlConfig::new(CONTROL));
        let backend = SimTelemetry::new(
            spec(),
            workload(),
            cfg.start_utilization,
            cfg.start_fan,
            FaultPlan::none(),
        );
        let mut daemon = Daemon::new(backend, spec(), cfg);
        let (outcome, secs) = time(|| daemon.run(Seconds::new(HORIZON)));
        assert_eq!(outcome.metrics.fallback_entries, 0, "no fault may trip the overhead probe");
        secs
    };
    assert_overhead_within("daemon front-end", DAEMON_OVERHEAD_CAP, direct, streamed);
}

/// The same rack loop with the flight recorder disarmed vs armed. The
/// difference is recording cost: the branch on the disarmed side, ring
/// writes on the armed side.
#[test]
#[ignore = "release-profile timing probe; see the file docs for the command"]
fn armed_flight_recorder_costs_at_most_3_percent() {
    let run = |armed: bool| {
        let builder = RackLoopSim::builder(spec()).workload(workload()).control(CONTROL);
        let mut sim = if armed { builder.flight_recorder(RING_EVENTS) } else { builder }.build();
        let (outcome, secs) = time(|| sim.run(Seconds::new(HORIZON)));
        if armed {
            assert!(
                outcome.flight.as_ref().is_some_and(|f| f.recorded > 0),
                "the armed probe must actually record"
            );
        }
        secs
    };
    assert_overhead_within("flight recorder", RECORDER_OVERHEAD_CAP, || run(false), || run(true));
}

#[test]
fn upper_bound_index_matches_the_binomial_tail() {
    // P(Bin(n, ½) ≤ j) by hand: n = 5: j = 3 → 26/32, j = 4 → 31/32;
    // n = 8: j = 5 → 219/256, j = 6 → 247/256; n = 10: j = 7 → 968/1024,
    // j = 8 → 1013/1024. The bound sits at the first j reaching 0.95.
    assert_eq!(CONFIDENCE, 0.95);
    assert_eq!(median_upper_bound_index(5), Some(4));
    assert_eq!(median_upper_bound_index(8), Some(6));
    assert_eq!(median_upper_bound_index(10), Some(8));
    // n = 4: even the maximum bounds the median only with 15/16 < 0.95.
    assert_eq!(median_upper_bound_index(4), None);
    assert_eq!(median_upper_bound_index(0), None);
    // The probes' own sample size.
    assert_eq!(median_upper_bound_index(PAIRS), Some(26));
}

#[test]
fn constant_ratios_bound_at_that_constant() {
    let pairs = vec![(2.0, 2.1); PAIRS];
    let (median, upper) = median_and_upper_bound(&pairs);
    assert_eq!(median, 2.1 / 2.0);
    assert_eq!(upper, 2.1 / 2.0);
}

#[test]
fn upper_bound_is_at_least_the_median() {
    // Deterministic but scrambled ratios around 1.
    for n in [5, 9, 10, 41, 60] {
        let pairs: Vec<(f64, f64)> =
            (0..n).map(|k| (1.0, 1.0 + ((k * 37) % n) as f64 / 100.0 - 0.2)).collect();
        let (median, upper) = median_and_upper_bound(&pairs);
        assert!(upper >= median, "n = {n}: bound {upper} below median {median}");
    }
}
