//! Acceptance pin: the daemon over [`SimTelemetry`] with no faults
//! armed replays the batch `RackLoopSim` **bit for bit** on the
//! fan / cap / measured trace surface.
//!
//! Only the channels driven by polled telemetry are compared
//! (`u_demand`, per-zone `z{z}_fan_rpm` / `z{z}_t_meas_c`, per-socket
//! `s{i}_cap`): the hot-spot / junction / reference channels read the
//! bank's plant model, which in the daemon is the un-stepped mirror —
//! by design, a daemon only sees what telemetry carries.

use gfsc_coord::{RackControl, RackControlConfig, RackLoopSim};
use gfsc_daemon::{Daemon, DaemonConfig, FaultPlan, SimTelemetry};
use gfsc_rack::{RackSpec, RackTopology};
use gfsc_sim::TraceSet;
use gfsc_units::Seconds;
use gfsc_workload::{SquareWave, Workload};

const HORIZON: f64 = 600.0;

fn workload() -> Workload {
    // The rack_golden evaluation workload: DATE'14 square wave, noise
    // and spikes at pinned seeds.
    Workload::builder(SquareWave::date14())
        .gaussian_noise(0.04, 42)
        .spikes(1.0 / 240.0, Seconds::new(30.0), 0.8, 43)
        .build()
}

/// Every compared channel of one run, flattened to bit patterns.
fn bits_of(traces: &TraceSet, zones: usize, sockets: usize) -> Vec<(String, Vec<u64>, Vec<u64>)> {
    let mut channels = vec!["u_demand".to_owned()];
    for z in 0..zones {
        channels.push(format!("z{z}_fan_rpm"));
        channels.push(format!("z{z}_t_meas_c"));
    }
    for i in 0..sockets {
        channels.push(format!("s{i}_cap"));
    }
    channels
        .into_iter()
        .map(|name| {
            let trace = traces.require(&name).expect("channel present in both runs");
            let times = trace.times().iter().map(|v| v.to_bits()).collect();
            let values = trace.values().iter().map(|v| v.to_bits()).collect();
            (name, times, values)
        })
        .collect()
}

fn assert_parity(control: RackControl) {
    let label = control.label();
    let spec = RackSpec::new(RackTopology::rack_2u_x4());

    let mut sim = RackLoopSim::builder(spec.clone()).workload(workload()).control(control).build();
    let batch = sim.run(Seconds::new(HORIZON));

    let cfg = DaemonConfig::new(RackControlConfig::new(control));
    let backend = SimTelemetry::new(
        spec.clone(),
        workload(),
        cfg.start_utilization,
        cfg.start_fan,
        FaultPlan::none(),
    );
    let zones = backend.server().zone_count();
    let sockets = backend.server().socket_count();
    let mut daemon = Daemon::new(backend, spec, cfg);
    let streamed = daemon.run(Seconds::new(HORIZON));

    assert_eq!(streamed.metrics.fallback_entries, 0, "{label}: no fault may trip the watchdog");
    assert_eq!(streamed.total_violations, batch.total_violations, "{label}: violation accounting");
    assert_eq!(streamed.total_epochs, batch.total_epochs, "{label}: epoch accounting");

    let want = bits_of(&batch.traces, zones, sockets);
    let got = bits_of(&streamed.traces, zones, sockets);
    for ((name, want_t, want_v), (_, got_t, got_v)) in want.iter().zip(&got) {
        assert_eq!(want_t, got_t, "{label} {name}: sample times diverge");
        assert_eq!(want_v, got_v, "{label} {name}: sample values diverge");
    }
}

#[test]
fn coordinated_replays_batch_loop_bit_for_bit() {
    assert_parity(RackControl::Coordinated { adaptive_reference: true });
}

#[test]
fn global_ecoord_replays_batch_loop_bit_for_bit() {
    assert_parity(RackControl::GlobalECoord);
}

#[test]
fn every_mode_replays_batch_loop_bit_for_bit() {
    // The remaining seven of the nine labels: `RackControl::ALL` plus
    // the two fixed-reference variants it omits, less the two modes
    // pinned by the tests above.
    let pinned = [RackControl::Coordinated { adaptive_reference: true }, RackControl::GlobalECoord];
    let fixed = ["coordinated+ss-fixed", "coordinated+migrate-fixed"]
        .map(|label| RackControl::from_label(label).expect("known label"));
    let modes: Vec<RackControl> =
        RackControl::ALL.into_iter().chain(fixed).filter(|c| !pinned.contains(c)).collect();
    assert_eq!(modes.len() + pinned.len(), 9, "nine control labels in all");
    for control in modes {
        assert_parity(control);
    }
}
