//! Proves the closed-loop steady state is allocation-free.
//!
//! A counting global allocator wraps `System`; if `ClosedLoopSim::run`
//! allocated per epoch (string-compare trace lookups, per-step thermal
//! matrices, growing vectors), a run with twice the horizon would allocate
//! more times. Instead the whole per-run allocation budget is fixed —
//! channels, capacity reservations, controller state — so doubling the
//! epoch count must not change the allocation count beyond a small jitter
//! allowance (the capacity *sizes* differ, the *count* of allocations must
//! not).
//!
//! One test per binary: the counter is process-global.

use gfsc::thermal::Topology;
use gfsc_control::PidGains;
use gfsc_coord::{ClosedLoopSim, EnergyAwareCoordinator, FixedPidFan, RuleBasedCoordinator};
use gfsc_server::ServerSpec;
use gfsc_units::{Bounds, Celsius, Rpm, Seconds};
use gfsc_workload::{SquareWave, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The two closed loops under audit: R-coord on the paper's two-node
/// plant, and E-coord on a chassis-coupled dual-socket `Plant::Network`,
/// whose every fan decision bisects the model with 42 steady-state probes.
#[derive(Debug, Clone, Copy)]
enum Loop {
    RCoordTwoNode,
    ECoordMultiSocket,
}

fn allocations_for(which: Loop, horizon: Seconds) -> u64 {
    let fan = FixedPidFan::new(
        PidGains::new(696.0, 464.0, 261.0),
        Celsius::new(75.0),
        Bounds::new(Rpm::new(1000.0), Rpm::new(8500.0)),
        Some(1.0),
    );
    let builder =
        ClosedLoopSim::builder().workload(Workload::builder(SquareWave::date14()).build());
    let mut sim = match which {
        Loop::RCoordTwoNode => {
            builder.fan(fan).coordinator(RuleBasedCoordinator::new(Celsius::new(80.0))).build()
        }
        Loop::ECoordMultiSocket => builder
            .spec(ServerSpec::with_topology(Topology::blade_chassis()))
            .fan(fan)
            .coordinator(EnergyAwareCoordinator::date14())
            .build(),
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = sim.run(horizon);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(outcome.total_epochs > 0);
    after - before
}

#[test]
fn epoch_loop_does_not_allocate_per_epoch() {
    for which in [Loop::RCoordTwoNode, Loop::ECoordMultiSocket] {
        // Warm up one run so lazily-initialized process state (and the
        // thread's probe buffers) doesn't skew the first measurement.
        let _ = allocations_for(which, Seconds::new(120.0));
        let short = allocations_for(which, Seconds::new(600.0));
        let long = allocations_for(which, Seconds::new(2400.0));
        // 1800 extra epochs (and 3600 extra plant steps, and for E-coord
        // 60 extra model inversions) must add zero allocations; allow a
        // tiny jitter margin for the test harness itself.
        assert!(
            long <= short + 4,
            "{which:?}: allocation count grew with horizon: {short} allocs @600s vs {long} @2400s"
        );
    }
}
