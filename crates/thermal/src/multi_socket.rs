//! The RC-network-backed multi-socket plant.
//!
//! [`crate::ServerThermalModel`] hard-codes the paper's two-node topology.
//! [`MultiSocketPlant`] generalizes it: a [`crate::Topology`] (N sockets,
//! optional chassis spreader) is compiled into a cached-factorization
//! [`crate::RcNetwork`], every socket's sink→ambient link moves with the
//! shared fan speed through its (possibly derated) [`crate::HeatSinkLaw`],
//! and the per-step work is one forward and one back substitution over the
//! network's elimination pattern, re-factorized on that pattern only when
//! the fan speed or the step size changes.

use crate::{
    BoundaryId, FanZoneMap, HeatSinkLaw, NetworkError, NodeId, ProbeScratch, RcNetwork,
    RcNetworkBuilder, Topology, ZoneId,
};
use gfsc_units::{Celsius, JoulesPerKelvin, KelvinPerWatt, Rpm, Seconds, Watts};

/// The base per-socket calibration shared by every socket before topology
/// scaling — the same constants [`crate::ServerThermalModel::date14`] uses,
/// lifted out so the server spec can supply its own values.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantCalibration {
    /// Inlet air temperature.
    pub ambient: Celsius,
    /// Undereated heat-sink resistance law (Table I).
    pub law: HeatSinkLaw,
    /// Heat-sink time constant at `tau_speed`.
    pub sink_tau: Seconds,
    /// The fan speed `sink_tau` is quoted at (Table I: maximum airflow).
    pub tau_speed: Rpm,
    /// Junction-to-sink resistance before per-socket scaling.
    pub r_jc: KelvinPerWatt,
    /// Die thermal time constant.
    pub die_tau: Seconds,
}

/// Per-socket handles resolved once at build time so the step path does no
/// name scans. The fan-dependent sink→ambient links live in the plant's
/// single-zone [`FanZoneMap`], not here.
#[derive(Debug, Clone)]
struct SocketHandles {
    die: NodeId,
    sink: NodeId,
}

/// An N-socket thermal plant on the cached RC network.
///
/// # Examples
///
/// ```
/// use gfsc_thermal::{HeatSinkLaw, MultiSocketPlant, PlantCalibration, Topology};
/// use gfsc_units::{Celsius, KelvinPerWatt, Rpm, Seconds, Watts};
///
/// let cal = PlantCalibration {
///     ambient: Celsius::new(30.0),
///     law: HeatSinkLaw::date14(),
///     sink_tau: Seconds::new(60.0),
///     tau_speed: Rpm::new(8500.0),
///     r_jc: KelvinPerWatt::new(0.10),
///     die_tau: Seconds::new(0.1),
/// };
/// let mut plant = MultiSocketPlant::new(&cal, &Topology::dual_socket()).unwrap();
/// let powers = [Watts::new(140.8), Watts::new(140.8)]; // each socket at u = 0.7
/// for _ in 0..600 {
///     plant.step(Seconds::new(1.0), &powers, Rpm::new(4000.0));
/// }
/// // The downstream socket (derated airflow) runs hotter.
/// assert!(plant.junction(1) > plant.junction(0));
/// ```
#[derive(Debug, Clone)]
pub struct MultiSocketPlant {
    net: RcNetwork,
    sockets: Vec<SocketHandles>,
    /// The one-fan special case of the general fan→link mapping: a single
    /// zone driving every socket's sink→ambient link.
    zones: FanZoneMap,
    zone: ZoneId,
    ambient: Celsius,
    /// Resolved once at build so `set_ambient` never does a name lookup
    /// (or a fallible one) on the runtime path.
    ambient_boundary: BoundaryId,
}

impl MultiSocketPlant {
    /// Compiles `topology` against the base calibration, starting in
    /// equilibrium with the ambient at `cal.tau_speed` airflow.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the compiled network is inconsistent
    /// (cannot happen for the stock topology builders).
    ///
    /// # Panics
    ///
    /// Panics if `topology` fails [`Topology::validate`].
    pub fn new(cal: &PlantCalibration, topology: &Topology) -> Result<Self, NetworkError> {
        topology.validate();
        let fan0 = cal.tau_speed;
        let segments = topology.sink_segments();
        let mut builder = RcNetworkBuilder::new().boundary("ambient", cal.ambient);
        let mut sink_cap_sum = 0.0;
        for socket in topology.sockets() {
            let law = cal.law.with_airflow_derate(socket.airflow_derate);
            let r_jc = KelvinPerWatt::new(cal.r_jc.value() * socket.r_jc_scale);
            // Capacitances from the quoted time constants, exactly as the
            // hand-rolled nodes calibrate them: C = tau / R(tau_speed) for
            // the sink, C = die_tau / R_jc for the die.
            let sink_cap = JoulesPerKelvin::from_time_constant(cal.sink_tau, law.resistance(fan0));
            let die_cap = JoulesPerKelvin::from_time_constant(cal.die_tau, r_jc);
            sink_cap_sum += sink_cap.value();
            let die = format!("die-{}", socket.name);
            let sink = format!("sink-{}", socket.name);
            builder = builder.node(die.clone(), die_cap, cal.ambient).link(die, sink.clone(), r_jc);
            if segments == 0 {
                builder = builder.node(sink.clone(), sink_cap, cal.ambient).link(
                    sink,
                    "ambient",
                    law.resistance(fan0),
                );
                continue;
            }
            // Folded fin-array sink: the lumped capacitance splits evenly
            // between base plate and fins, each fin carries `segments`× the
            // sink law's resistance (so the fins in parallel reproduce the
            // lumped convective path), the base spreads into every fin, and
            // the fins couple pairwise — the dense Schur-complement remnant
            // of eliminating the fast shared-air node from a detailed model.
            let fin_law = law.with_airflow_derate(segments as f64);
            let node_cap = JoulesPerKelvin::new(sink_cap.value() / (segments + 1) as f64);
            let spread = KelvinPerWatt::new(0.2);
            let mix = KelvinPerWatt::new(0.8);
            builder = builder.node(sink.clone(), node_cap, cal.ambient);
            for j in 0..segments {
                let fin = format!("fin{j}-{}", socket.name);
                builder = builder
                    .node(fin.clone(), node_cap, cal.ambient)
                    .link(sink.clone(), fin.clone(), spread)
                    .link(fin.clone(), "ambient", fin_law.resistance(fan0));
                for i in 0..j {
                    builder = builder.link(format!("fin{i}-{}", socket.name), fin.clone(), mix);
                }
            }
        }
        if let Some(chassis) = topology.chassis() {
            let cap = JoulesPerKelvin::new(
                chassis.capacitance_scale * sink_cap_sum / topology.sockets().len() as f64,
            );
            builder = builder.node("chassis", cap, cal.ambient);
            for socket in topology.sockets() {
                builder =
                    builder.link(format!("sink-{}", socket.name), "chassis", chassis.coupling);
            }
            builder = builder.link("chassis", "ambient", chassis.exhaust);
        }
        let net = builder.build()?;
        let mut zones = FanZoneMap::new();
        let zone = zones.add_zone("fan", fan0);
        let node = |name: String| net.node_id(&name).ok_or(NetworkError::UnknownName(name));
        let mut sockets = Vec::with_capacity(topology.sockets().len());
        for socket in topology.sockets() {
            let sink_name = format!("sink-{}", socket.name);
            let law = cal.law.with_airflow_derate(socket.airflow_derate);
            if segments == 0 {
                zones.attach(zone, net.link_id(&sink_name, "ambient")?, law);
            } else {
                // Every fin breathes the shared fan; identical laws per
                // socket let the zone evaluate the law once per socket.
                let fin_law = law.with_airflow_derate(segments as f64);
                for j in 0..segments {
                    zones.attach(
                        zone,
                        net.link_id(&format!("fin{j}-{}", socket.name), "ambient")?,
                        fin_law,
                    );
                }
            }
            sockets.push(SocketHandles {
                die: node(format!("die-{}", socket.name))?,
                sink: node(sink_name)?,
            });
        }
        let ambient_boundary =
            net.boundary_id("ambient").ok_or(NetworkError::UnknownName("ambient".to_owned()))?;
        Ok(Self { net, sockets, zones, zone, ambient: cal.ambient, ambient_boundary })
    }

    /// Number of sockets.
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Junction (die) temperature of socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn junction(&self, i: usize) -> Celsius {
        self.net.temperature(self.sockets[i].die)
    }

    /// Heat-sink temperature of socket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn heat_sink(&self, i: usize) -> Celsius {
        self.net.temperature(self.sockets[i].sink)
    }

    /// The hottest junction across all sockets — what a global max
    /// aggregation of ideal sensors would report.
    #[must_use]
    pub fn hottest_junction(&self) -> Celsius {
        let mut hottest = self.junction(0);
        for i in 1..self.sockets.len() {
            hottest = hottest.max(self.junction(i));
        }
        hottest
    }

    /// Inlet air temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Changes the inlet air temperature (right-hand-side only; the cached
    /// factorization stays warm).
    pub fn set_ambient(&mut self, ambient: Celsius) {
        self.ambient = ambient;
        self.net.set_boundary_by_id(self.ambient_boundary, ambient);
    }

    /// Advances the plant by `dt` under per-socket CPU powers `powers`
    /// (one entry per socket — each socket burns its *own* power; the
    /// caller derives the split from its load model) and shared fan speed
    /// `fan`.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    pub fn step(&mut self, dt: Seconds, powers: &[Watts], fan: Rpm) {
        assert_eq!(powers.len(), self.sockets.len(), "one power per socket");
        for (socket, &power) in self.sockets.iter().zip(powers) {
            self.net.set_power(socket.die, power);
        }
        // Unchanged fan speed keeps the factorization warm (the setter
        // skips identical conductances).
        self.zones.set_fan(&mut self.net, self.zone, fan);
        self.net.step(dt);
    }

    /// Everything [`MultiSocketPlant::step`] does *except* solving the
    /// network: applies per-socket powers and the fan speed's conductances.
    /// The batched sweep engine calls this per lane, then advances all
    /// lanes' networks together through one
    /// [`crate::BatchRcNetwork::step`] — bitwise identical to calling
    /// [`MultiSocketPlant::step`] on each plant alone.
    ///
    /// After preparing, the caller **must** step [`Self::network_mut`]
    /// (scalar or batched) to complete the plant step.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    pub fn prepare_step(&mut self, powers: &[Watts], fan: Rpm) {
        assert_eq!(powers.len(), self.sockets.len(), "one power per socket");
        for (socket, &power) in self.sockets.iter().zip(powers) {
            self.net.set_power(socket.die, power);
        }
        self.zones.set_fan(&mut self.net, self.zone, fan);
    }

    /// The plant's RC network — read access for batch-lane registration
    /// and structure checks.
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.net
    }

    /// Mutable access to the plant's RC network, for the batched stepper
    /// to solve after [`MultiSocketPlant::prepare_step`]. Mutating anything
    /// but the step state through this handle voids the plant's handles;
    /// it exists for the batch engine, not for re-plumbing.
    #[must_use]
    pub fn network_mut(&mut self) -> &mut RcNetwork {
        &mut self.net
    }

    /// Steady-state junction temperatures at `(powers, fan)` without
    /// disturbing the transient state.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    #[must_use]
    pub fn steady_state_junctions(&self, powers: &[Watts], fan: Rpm) -> Vec<Celsius> {
        self.probe(powers, fan, |temps| {
            self.sockets.iter().map(|s| Celsius::new(temps[s.die.index()])).collect()
        })
    }

    /// The hottest steady-state junction at `(powers, fan)`.
    /// Allocation-free once the probe scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    #[must_use]
    pub fn steady_state_hottest(&self, powers: &[Watts], fan: Rpm) -> Celsius {
        self.probe(powers, fan, |temps| {
            let Some((first, rest)) = self.sockets.split_first() else {
                // A socketless topology cannot compile; ambient is the
                // honest "nothing to scan" answer rather than an index
                // panic.
                return self.ambient;
            };
            let mut hottest = Celsius::new(temps[first.die.index()]);
            for s in rest {
                hottest = hottest.hotter(Celsius::new(temps[s.die.index()]));
            }
            hottest
        })
    }

    /// Runs one non-mutating steady-state probe at a hypothetical operating
    /// point in the thread's probe scratch and reduces the solved node
    /// temperatures — allocation-free once the scratch is warm.
    fn probe<R>(&self, powers: &[Watts], fan: Rpm, reduce: impl FnOnce(&[f64]) -> R) -> R {
        assert_eq!(powers.len(), self.sockets.len(), "one power per socket");
        ProbeScratch::with_thread_local(|scratch| {
            self.zones.extend_overrides(self.zone, fan, &mut scratch.links);
            scratch.powers.extend(self.sockets.iter().zip(powers).map(|(s, &p)| (s.die, p)));
            reduce(scratch.solve(&self.net))
        })
    }

    /// The minimum fan speed keeping every steady-state junction at or
    /// below `limit` under per-socket `powers`, or `None` if even
    /// unbounded airflow cannot.
    ///
    /// The two-node model inverts its law analytically; an N-socket plant
    /// with chassis coupling has no closed form, so this bisects the
    /// monotone hottest-junction curve over the steady-state probe
    /// ([`bisect_min_safe_fan`]). Allocation-free once the probe scratch
    /// is warm.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    #[must_use]
    pub fn min_safe_fan_speed(&self, powers: &[Watts], limit: Celsius) -> Option<Rpm> {
        if powers.iter().all(|p| p.value() <= 0.0) {
            return Some(Rpm::new(0.0));
        }
        bisect_min_safe_fan(limit, |v| self.steady_state_hottest(powers, v))
    }

    /// Snaps the whole network (dies, sinks, chassis) to its equilibrium at
    /// `(powers, fan)` and makes that the active operating point.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` differs from the socket count.
    pub fn equilibrate(&mut self, powers: &[Watts], fan: Rpm) {
        assert_eq!(powers.len(), self.sockets.len(), "one power per socket");
        for (socket, &power) in self.sockets.iter().zip(powers) {
            self.net.set_power(socket.die, power);
        }
        self.zones.set_fan(&mut self.net, self.zone, fan);
        self.net.snap_to_steady_state();
    }

    /// Resets every node to thermal equilibrium with the ambient (zero
    /// power).
    pub fn reset(&mut self) {
        for i in 0..self.net.node_names().len() {
            self.net.set_temperature(NodeId::from_index(i), self.ambient);
        }
    }

    /// The shared fan speed of the most recent step/equilibrate call.
    #[must_use]
    pub fn fan_speed(&self) -> Rpm {
        self.zones.fan(self.zone)
    }
}

/// The lowest fan speed at which `hottest_at` (a monotone steady-state
/// hottest-junction curve) stays at or below `limit`: 0 rpm if even a
/// stopped fan suffices, `None` if even unbounded airflow cannot.
///
/// Deterministic: fixed bracket, fixed iteration count, so 42 probes per
/// call. The law saturates below 100 rpm, so v = 100 is the stopped-fan
/// envelope; 1e6 rpm is numerically indistinguishable from the
/// infinite-airflow asymptote. 40 halvings take the 1e6-wide bracket to
/// ~1e-6 rpm, far past any fan actuator's resolution, so more iterations
/// could not change the commanded speed. Each probe is one pattern
/// steady-state solve ([`crate::RcNetwork::steady_state_with_into`]).
pub fn bisect_min_safe_fan(
    limit: Celsius,
    mut hottest_at: impl FnMut(Rpm) -> Celsius,
) -> Option<Rpm> {
    let (lo, hi) = (100.0, 1e6);
    if hottest_at(Rpm::new(lo)) <= limit {
        return Some(Rpm::new(0.0));
    }
    if hottest_at(Rpm::new(hi)) > limit {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if hottest_at(Rpm::new(mid)) > limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(Rpm::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> PlantCalibration {
        PlantCalibration {
            ambient: Celsius::new(30.0),
            law: HeatSinkLaw::date14(),
            sink_tau: Seconds::new(60.0),
            tau_speed: Rpm::new(8500.0),
            r_jc: KelvinPerWatt::new(0.10),
            die_tau: Seconds::new(0.1),
        }
    }

    #[test]
    fn single_socket_steady_state_matches_two_node_model() {
        use crate::ServerThermalModel;
        let plant = MultiSocketPlant::new(&cal(), &Topology::single_socket()).unwrap();
        let model = ServerThermalModel::date14(Celsius::new(30.0));
        for (p, v) in [(96.0, 2000.0), (140.8, 4000.0), (160.0, 8500.0)] {
            let net = plant.steady_state_hottest(&[Watts::new(p)], Rpm::new(v));
            let exact = model.steady_state_junction(Watts::new(p), Rpm::new(v));
            assert!((net - exact).abs() < 1e-9, "p={p} v={v}: {net} vs {exact}");
        }
    }

    #[test]
    fn downstream_socket_runs_hotter() {
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::quad_socket()).unwrap();
        plant.equilibrate(&[Watts::new(140.8); 4], Rpm::new(4000.0));
        for i in 1..4 {
            assert!(
                plant.junction(i) > plant.junction(i - 1),
                "socket {i} not hotter: {} vs {}",
                plant.junction(i),
                plant.junction(i - 1)
            );
        }
        assert_eq!(plant.hottest_junction(), plant.junction(3));
    }

    #[test]
    fn chassis_couples_the_sockets() {
        // All power on socket 0: with the chassis spreader, socket 1's sink
        // must sit measurably above ambient purely through coupling.
        let hot_idle = [Watts::new(160.0), Watts::new(0.0)];
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::blade_chassis()).unwrap();
        plant.equilibrate(&hot_idle, Rpm::new(3000.0));
        assert!(
            plant.heat_sink(1) > Celsius::new(30.5),
            "no cross-socket coupling: sink1 at {}",
            plant.heat_sink(1)
        );
        // Without a chassis the idle socket stays at ambient.
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        plant.equilibrate(&hot_idle, Rpm::new(3000.0));
        assert!(plant.heat_sink(1) < Celsius::new(30.1));
    }

    #[test]
    fn transient_converges_to_probed_steady_state() {
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        let (p, v) = ([Watts::new(140.8); 2], Rpm::new(4000.0));
        let ss = plant.steady_state_junctions(&p, v);
        for _ in 0..100_000 {
            plant.step(Seconds::new(1.0), &p, v);
        }
        for (i, &ss_i) in ss.iter().enumerate() {
            assert!((plant.junction(i) - ss_i).abs() < 1e-6, "socket {i}");
        }
        // The probe itself never disturbed the live state.
        assert_eq!(plant.fan_speed(), v);
    }

    #[test]
    fn min_safe_fan_speed_is_tight_and_monotone() {
        let plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        let p = [Watts::new(140.8); 2];
        let limit = Celsius::new(75.0);
        let v = plant.min_safe_fan_speed(&p, limit).expect("reachable");
        let at = plant.steady_state_hottest(&p, v);
        assert!((at - limit).abs() < 0.01, "at {at}");
        assert!(plant.steady_state_hottest(&p, v + 100.0) < limit);
        assert!(plant.steady_state_hottest(&p, v - 100.0) > limit);
    }

    #[test]
    fn min_safe_fan_speed_edge_cases() {
        let plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        assert_eq!(
            plant.min_safe_fan_speed(&[Watts::new(0.0); 2], Celsius::new(35.0)),
            Some(Rpm::new(0.0))
        );
        // 160 W per socket through the shared floor cannot hold 40 °C at
        // 30 °C ambient.
        assert!(plant.min_safe_fan_speed(&[Watts::new(160.0); 2], Celsius::new(40.0)).is_none());
        // Trivially safe limit: even a stopped fan suffices.
        assert_eq!(
            plant.min_safe_fan_speed(&[Watts::new(0.5); 2], Celsius::new(90.0)),
            Some(Rpm::new(0.0))
        );
    }

    #[test]
    fn finned_plant_behaves_like_a_server() {
        // The fin-array expansion changes the matrix structure, not the
        // physics: downstream sockets still run hotter, more airflow still
        // cools, and the min-safe probe still lands tight on the limit.
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::finned(2, 8)).unwrap();
        let p = [Watts::new(140.8); 2];
        plant.equilibrate(&p, Rpm::new(4000.0));
        assert!(plant.junction(1) > plant.junction(0), "downstream socket not hotter");
        assert!(plant.hottest_junction() > plant.ambient());
        let slow = plant.steady_state_hottest(&p, Rpm::new(3000.0));
        let fast = plant.steady_state_hottest(&p, Rpm::new(6000.0));
        assert!(fast < slow, "more airflow must cool the fins: {fast} vs {slow}");
        let limit = Celsius::new(75.0);
        let v = plant.min_safe_fan_speed(&p, limit).expect("reachable");
        let at = plant.steady_state_hottest(&p, v);
        assert!((at - limit).abs() < 0.01, "at {at}");
        assert!(plant.steady_state_hottest(&p, v + 100.0) < limit);
        assert!(plant.steady_state_hottest(&p, v - 100.0) > limit);
    }

    #[test]
    fn finned_transient_converges_to_probed_steady_state() {
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::finned(2, 8)).unwrap();
        let (p, v) = ([Watts::new(140.8); 2], Rpm::new(4000.0));
        let ss = plant.steady_state_junctions(&p, v);
        for _ in 0..100_000 {
            plant.step(Seconds::new(1.0), &p, v);
        }
        for (i, &ss_i) in ss.iter().enumerate() {
            assert!((plant.junction(i) - ss_i).abs() < 1e-6, "socket {i}");
        }
    }

    #[test]
    fn ambient_shifts_equilibrium() {
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        let p = [Watts::new(100.0); 2];
        let a = plant.steady_state_hottest(&p, Rpm::new(4000.0));
        plant.set_ambient(Celsius::new(40.0));
        let b = plant.steady_state_hottest(&p, Rpm::new(4000.0));
        assert!((b - a - 10.0).abs() < 1e-9);
        assert_eq!(plant.ambient(), Celsius::new(40.0));
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut plant = MultiSocketPlant::new(&cal(), &Topology::dual_socket()).unwrap();
        plant.equilibrate(&[Watts::new(140.8); 2], Rpm::new(3000.0));
        assert!(plant.hottest_junction() > Celsius::new(50.0));
        plant.reset();
        for i in 0..2 {
            assert_eq!(plant.junction(i), Celsius::new(30.0));
            assert_eq!(plant.heat_sink(i), Celsius::new(30.0));
        }
    }
}
