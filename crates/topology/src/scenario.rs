//! Diamond update scenarios (§6 of the paper).
//!
//! A *diamond* connects a random source/destination host pair via two
//! internally-disjoint paths; the update must move traffic from the initial
//! path to the final path while preserving a property (reachability,
//! waypointing, or service chaining). The *double diamond* adds a second
//! flow in the opposite direction whose initial path is the first flow's
//! final path (and vice versa), which generically makes switch-granularity
//! ordering updates impossible — the workload for the paper's infeasibility
//! and rule-granularity experiments.

use std::collections::BTreeSet;

use rand::Rng;

use netupd_ltl::{builders, Ltl, Prop};
use netupd_model::{Configuration, Field, HostId, Priority, SwitchId, Topology, TrafficClass};

use crate::graph::NetworkGraph;

/// The property family asserted for each flow of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// Traffic must reach the destination.
    Reachability,
    /// Traffic must traverse a waypoint switch before the destination.
    Waypoint,
    /// Traffic must traverse a chain of waypoints, in order.
    ServiceChain {
        /// Desired number of chained waypoints (the generator may use fewer
        /// if the topology does not admit that many shared waypoints).
        length: usize,
    },
}

impl PropertyKind {
    /// A short name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            PropertyKind::Reachability => "reachability",
            PropertyKind::Waypoint => "waypointing",
            PropertyKind::ServiceChain { .. } => "service-chaining",
        }
    }
}

/// One flow of an update scenario.
#[derive(Debug, Clone)]
pub struct FlowPair {
    /// Host at which the flow enters the network.
    pub src_host: HostId,
    /// Host the flow must reach.
    pub dst_host: HostId,
    /// Traffic class of the flow (destination-based).
    pub class: TrafficClass,
    /// Switch-level path used by the initial configuration.
    pub initial_path: Vec<SwitchId>,
    /// Switch-level path used by the final configuration.
    pub final_path: Vec<SwitchId>,
    /// Waypoints the property requires, in order (empty for reachability).
    pub waypoints: Vec<SwitchId>,
    /// The flow's LTL property, guarded by its traffic class so that the
    /// conjunction over flows can be checked on one Kripke structure.
    pub spec: Ltl,
}

/// A complete update scenario: topology, initial/final configurations,
/// traffic classes, and specification.
#[derive(Debug, Clone)]
pub struct UpdateScenario {
    /// The network graph the scenario runs on.
    pub graph: NetworkGraph,
    /// The flows being updated.
    pub pairs: Vec<FlowPair>,
    /// The initial configuration.
    pub initial: Configuration,
    /// The target configuration.
    pub final_config: Configuration,
    /// The conjunction of all flow properties.
    pub spec: Ltl,
    /// The property family the scenario was generated for.
    pub kind: PropertyKind,
}

impl UpdateScenario {
    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.graph.topology()
    }

    /// The traffic classes of all flows.
    pub fn classes(&self) -> Vec<TrafficClass> {
        self.pairs.iter().map(|p| p.class.clone()).collect()
    }

    /// The hosts at which scenario traffic enters the network.
    pub fn ingress_hosts(&self) -> Vec<HostId> {
        self.pairs.iter().map(|p| p.src_host).collect()
    }

    /// Number of switches whose tables differ between the initial and final
    /// configurations — i.e. the switches the synthesizer must order.
    pub fn updating_switches(&self) -> usize {
        self.initial.differing_switches(&self.final_config).len()
    }

    /// Total number of rules across both configurations, the size measure
    /// used for the rule-granularity experiments.
    pub fn total_rules(&self) -> usize {
        self.initial.total_rules() + self.final_config.total_rules()
    }
}

/// The destination-based traffic class of a flow toward `dst_host`.
fn flow_class(dst_host: HostId) -> TrafficClass {
    TrafficClass::new().with_field(Field::Dst, u64::from(dst_host.0))
}

/// Builds the guarded per-flow property.
///
/// The guard follows the paper's formulations (`port = s ⇒ ...`): the
/// property only constrains packets of the flow's traffic class that enter
/// the network at the flow's source switch. Packets of the same class
/// injected elsewhere (possible when several flows share one Kripke
/// structure) satisfy the implication vacuously.
fn flow_spec(
    kind: PropertyKind,
    src_switch: SwitchId,
    dst_host: HostId,
    waypoints: &[SwitchId],
) -> Ltl {
    let dst = Prop::AtHost(dst_host);
    let body = match kind {
        PropertyKind::Reachability => builders::reachability(dst),
        PropertyKind::Waypoint => match waypoints.first() {
            Some(w) => builders::waypoint(Prop::Switch(*w), dst),
            None => builders::reachability(dst),
        },
        PropertyKind::ServiceChain { .. } => {
            let props: Vec<Prop> = waypoints.iter().map(|w| Prop::Switch(*w)).collect();
            builders::service_chain(&props, dst)
        }
    };
    let guard = Ltl::and(
        Ltl::prop(Prop::FieldIs(Field::Dst, u64::from(dst_host.0))),
        Ltl::prop(Prop::Switch(src_switch)),
    );
    Ltl::implies(guard, body)
}

/// Chooses the waypoints for a flow: up to `count` interior switches of the
/// initial path, evenly spaced, in path order.
fn choose_waypoints(initial_path: &[SwitchId], count: usize) -> Vec<SwitchId> {
    if initial_path.len() <= 2 || count == 0 {
        return Vec::new();
    }
    let interior = &initial_path[1..initial_path.len() - 1];
    let count = count.min(interior.len());
    let mut waypoints = Vec::with_capacity(count);
    for i in 0..count {
        let idx = i * interior.len() / count;
        waypoints.push(interior[idx]);
    }
    waypoints.dedup();
    waypoints
}

/// Builds a simple path from `src` to `dst` that visits `waypoints` in order
/// while avoiding every switch in `forbidden`.
fn path_via_waypoints(
    graph: &NetworkGraph,
    src: SwitchId,
    dst: SwitchId,
    waypoints: &[SwitchId],
    forbidden: &BTreeSet<SwitchId>,
) -> Option<Vec<SwitchId>> {
    let mut path: Vec<SwitchId> = vec![src];
    let mut used: BTreeSet<SwitchId> = BTreeSet::from([src]);
    let mut current = src;
    for target in waypoints.iter().copied().chain(std::iter::once(dst)) {
        let mut avoid = forbidden.clone();
        avoid.extend(used.iter().copied().filter(|sw| *sw != current));
        let segment = graph.shortest_path_avoiding(current, target, &avoid)?;
        for sw in segment.into_iter().skip(1) {
            if used.contains(&sw) {
                return None;
            }
            used.insert(sw);
            path.push(sw);
        }
        current = target;
    }
    if path.len() < 2 {
        None
    } else {
        Some(path)
    }
}

/// Builds a final path from `src` to `dst` that visits `waypoints` in order
/// while avoiding the remaining interior switches of the initial path.
fn final_path_through(
    graph: &NetworkGraph,
    src: SwitchId,
    dst: SwitchId,
    initial_path: &[SwitchId],
    waypoints: &[SwitchId],
) -> Option<Vec<SwitchId>> {
    let forbidden: BTreeSet<SwitchId> = initial_path
        .iter()
        .copied()
        .filter(|sw| *sw != src && *sw != dst && !waypoints.contains(sw))
        .collect();
    let path = path_via_waypoints(graph, src, dst, waypoints, &forbidden)?;
    if path == initial_path {
        None
    } else {
        Some(path)
    }
}

/// Generates one flow (a diamond) between two random host-attached switches.
fn generate_flow<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    rng: &mut R,
    priority: Priority,
) -> Option<(FlowPair, Configuration, Configuration)> {
    let hosts = graph.topology().hosts().to_vec();
    if hosts.len() < 2 {
        return None;
    }
    for _ in 0..64 {
        let src_host = hosts[rng.gen_range(0..hosts.len())];
        let dst_host = hosts[rng.gen_range(0..hosts.len())];
        if src_host == dst_host {
            continue;
        }
        let (Some(src_sw), Some(dst_sw)) =
            (graph.host_switch(src_host), graph.host_switch(dst_host))
        else {
            continue;
        };
        if src_sw == dst_sw {
            continue;
        }
        let Some(initial_path) = graph.shortest_path(src_sw, dst_sw) else {
            continue;
        };
        let waypoint_count = match kind {
            PropertyKind::Reachability => 0,
            PropertyKind::Waypoint => 1,
            PropertyKind::ServiceChain { length } => length,
        };
        let waypoints = choose_waypoints(&initial_path, waypoint_count);
        let Some(final_path) = final_path_through(graph, src_sw, dst_sw, &initial_path, &waypoints)
        else {
            continue;
        };
        let class = flow_class(dst_host);
        let initial = graph.compile_path(&initial_path, dst_host, &class, priority);
        let final_config = graph.compile_path(&final_path, dst_host, &class, priority);
        let spec = flow_spec(kind, src_sw, dst_host, &waypoints);
        let pair = FlowPair {
            src_host,
            dst_host,
            class,
            initial_path,
            final_path,
            waypoints,
            spec,
        };
        return Some((pair, initial, final_config));
    }
    None
}

/// Completes a scenario from a set of flows: switches that appear in some
/// flow's initial configuration but not in its final configuration must be
/// emptied by the update, so the final configuration explicitly carries an
/// empty table for them (making them part of the update).
fn assemble(
    graph: &NetworkGraph,
    kind: PropertyKind,
    flows: Vec<(FlowPair, Configuration, Configuration)>,
) -> UpdateScenario {
    let mut initial = Configuration::new();
    let mut final_config = Configuration::new();
    let mut pairs = Vec::with_capacity(flows.len());
    for (pair, flow_initial, flow_final) in flows {
        // Merge rule-by-rule so that several flows can share a switch.
        for (sw, table) in flow_initial.iter() {
            let mut merged = initial.table(sw);
            merged.extend(table.iter().cloned());
            initial.set_table(sw, merged);
        }
        for (sw, table) in flow_final.iter() {
            let mut merged = final_config.table(sw);
            merged.extend(table.iter().cloned());
            final_config.set_table(sw, merged);
        }
        pairs.push(pair);
    }
    drain_abandoned(&initial, &mut final_config);
    let spec = Ltl::and_all(pairs.iter().map(|p| p.spec.clone()));
    UpdateScenario {
        graph: graph.clone(),
        pairs,
        initial,
        final_config,
        spec,
        kind,
    }
}

/// Gives every switch that has a table in `initial` (rules, or an explicitly
/// empty one) but none in `final_config` an empty final table: the update
/// drains the switches the final configuration abandons.
fn drain_abandoned(initial: &Configuration, final_config: &mut Configuration) {
    for sw in initial.switches() {
        if final_config.table_ref(sw).is_none() {
            final_config.set_table(sw, netupd_model::Table::empty());
        }
    }
}

/// Generates a single-flow diamond scenario on `graph`.
///
/// Returns `None` if no suitable source/destination pair could be found
/// (e.g. the graph has fewer than two host-attached switches or admits no
/// disjoint paths).
pub fn diamond_scenario<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    rng: &mut R,
) -> Option<UpdateScenario> {
    let flow = generate_flow(graph, kind, rng, Priority(10))?;
    Some(assemble(graph, kind, vec![flow]))
}

/// Generates a scenario with `count` independent diamonds (distinct
/// destination hosts and pairwise switch-disjoint paths), increasing the
/// number of switches that must be updated — the knob used by the
/// scalability experiments.
///
/// Keeping the diamonds switch-disjoint mirrors the paper's workload and
/// guarantees that the flows do not impose conflicting ordering constraints
/// on any shared switch.
pub fn multi_diamond_scenario<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    count: usize,
    rng: &mut R,
) -> Option<UpdateScenario> {
    let mut flows = Vec::with_capacity(count);
    let mut used_destinations = BTreeSet::new();
    let mut used_switches: BTreeSet<SwitchId> = BTreeSet::new();
    let mut attempts = 0;
    while flows.len() < count && attempts < count * 32 {
        attempts += 1;
        if let Some(flow) = generate_flow(graph, kind, rng, Priority(10)) {
            let touched: BTreeSet<SwitchId> = flow
                .0
                .initial_path
                .iter()
                .chain(flow.0.final_path.iter())
                .copied()
                .collect();
            if used_destinations.contains(&flow.0.dst_host) || !touched.is_disjoint(&used_switches)
            {
                continue;
            }
            used_destinations.insert(flow.0.dst_host);
            used_switches.extend(touched);
            flows.push(flow);
        }
    }
    if flows.is_empty() {
        return None;
    }
    Some(assemble(graph, kind, flows))
}

/// Generates the paper's "double diamond" scenario: the first flow moves from
/// path `P1` to path `P2`, and a second flow in the opposite direction moves
/// from `P2` (reversed) to `P1` (reversed). The crossed dependencies
/// generically rule out any switch-granularity ordering update, while
/// rule-granularity updates still succeed.
pub fn double_diamond_scenario<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    rng: &mut R,
) -> Option<UpdateScenario> {
    let (forward, fwd_initial, fwd_final) = generate_flow(graph, kind, rng, Priority(10))?;
    // The reverse flow enters at the forward flow's destination host and
    // targets its source host, using the forward flow's final path (reversed)
    // initially and its initial path (reversed) finally.
    let src_host = forward.dst_host;
    let dst_host = forward.src_host;
    let mut initial_path: Vec<SwitchId> = forward.final_path.clone();
    initial_path.reverse();
    let mut final_path: Vec<SwitchId> = forward.initial_path.clone();
    final_path.reverse();
    let class = flow_class(dst_host);
    let rev_initial = graph.compile_path(&initial_path, dst_host, &class, Priority(10));
    let rev_final = graph.compile_path(&final_path, dst_host, &class, Priority(10));
    let waypoints = choose_waypoints(
        &initial_path,
        match kind {
            PropertyKind::Reachability => 0,
            PropertyKind::Waypoint => 1,
            PropertyKind::ServiceChain { length } => length,
        },
    );
    let spec = flow_spec(kind, initial_path[0], dst_host, &waypoints);
    let reverse = FlowPair {
        src_host,
        dst_host,
        class,
        initial_path,
        final_path,
        waypoints,
        spec,
    };
    Some(assemble(
        graph,
        kind,
        vec![
            (forward, fwd_initial, fwd_final),
            (reverse, rev_initial, rev_final),
        ],
    ))
}

/// Generates a seeded *churn stream*: `steps` successive update scenarios
/// over one graph where each step's initial configuration is **exactly** the
/// previous step's final configuration — the rolling-reconfiguration
/// workload a long-lived controller serves.
///
/// Step 0 is an ordinary [`diamond_scenario`]. Each following step keeps the
/// flow (source, destination, class, waypoints, and spec) fixed and re-routes
/// it: with equal probability it either flips back to the path it just left
/// or — when the graph admits one — moves to a fresh path that avoids the
/// current path's interior while still visiting the waypoints in order. The
/// stream is fully determined by `rng`, so a seed reproduces it exactly.
///
/// Returns `None` if the graph admits no diamond for `kind` (see
/// [`diamond_scenario`]) or a step cannot be re-routed; `steps == 0` yields
/// an empty stream.
pub fn churn_scenarios<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    steps: usize,
    rng: &mut R,
) -> Option<Vec<UpdateScenario>> {
    if steps == 0 {
        return Some(Vec::new());
    }
    let mut out = Vec::with_capacity(steps);
    out.push(diamond_scenario(graph, kind, rng)?);
    while out.len() < steps {
        let next = churn_step(graph, out.last().expect("non-empty"), rng)?;
        debug_assert_chained(out.last().expect("non-empty"), &next);
        out.push(next);
    }
    Some(out)
}

/// True iff each step of `steps` starts exactly at the previous step's final
/// configuration — the invariant every churn-style stream must maintain so a
/// long-lived engine can serve it as one rolling reconfiguration.
pub fn steps_are_chained(steps: &[UpdateScenario]) -> bool {
    steps.windows(2).all(|w| w[0].final_config == w[1].initial)
}

/// Generates `tenants` independent seeded churn streams of `steps` steps
/// each over one shared graph — the multi-tenant serving workload: every
/// tenant is a rolling reconfiguration of its own flow, and the streams are
/// mutually independent (each chains only with itself; see
/// [`steps_are_chained`]).
///
/// Successive tenants draw successive diamonds from `rng`, so tenants get
/// *different* flows on the shared topology and the whole workload is
/// reproducible from one seed. A tenant whose draw admits no churn stream is
/// retried with fresh randomness a bounded number of times.
///
/// Returns `None` if some tenant's stream cannot be generated within the
/// retry budget (e.g. the graph admits no diamond for `kind`); `tenants ==
/// 0` yields an empty workload.
pub fn multi_tenant_churn_streams<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    tenants: usize,
    steps: usize,
    rng: &mut R,
) -> Option<Vec<Vec<UpdateScenario>>> {
    const ATTEMPTS_PER_TENANT: usize = 16;
    let mut streams = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        let stream =
            (0..ATTEMPTS_PER_TENANT).find_map(|_| churn_scenarios(graph, kind, steps, rng))?;
        debug_assert!(steps_are_chained(&stream));
        streams.push(stream);
    }
    Some(streams)
}

/// Debug-asserts the churn chaining invariant for one step transition, so a
/// buggy generator fails loudly in test builds instead of silently producing
/// an unserveable stream.
fn debug_assert_chained(prev: &UpdateScenario, next: &UpdateScenario) {
    debug_assert_eq!(
        prev.final_config, next.initial,
        "churn step must start exactly at the previous step's final configuration"
    );
}

/// Builds the next step of a churn stream: re-routes the (single) flow of
/// `prev` away from its current (final) path, starting from `prev`'s final
/// configuration.
fn churn_step<R: Rng>(
    graph: &NetworkGraph,
    prev: &UpdateScenario,
    rng: &mut R,
) -> Option<UpdateScenario> {
    let pair = prev.pairs.first()?;
    let current = &pair.final_path;
    let src = *current.first()?;
    let dst = *current.last()?;

    // Candidate next paths: the path the flow just left (always viable for a
    // diamond), plus — when the graph admits one — a fresh path avoiding the
    // current interior while visiting the waypoints in order.
    let mut candidates: Vec<Vec<SwitchId>> = vec![pair.initial_path.clone()];
    if let Some(fresh) = final_path_through(graph, src, dst, current, &pair.waypoints) {
        if fresh != *current && !candidates.contains(&fresh) {
            candidates.push(fresh);
        }
    }
    let new_path = candidates.swap_remove(rng.gen_range(0..candidates.len()));
    if new_path == *current {
        return None;
    }
    Some(next_step(graph, prev, new_path))
}

/// The churn step after `prev` that moves its (single) flow from its current
/// (final) path to `new_path`. The step starts exactly where `prev` ended,
/// and drains the switches the new path abandons, as in `assemble`.
fn next_step(
    graph: &NetworkGraph,
    prev: &UpdateScenario,
    new_path: Vec<SwitchId>,
) -> UpdateScenario {
    let pair = &prev.pairs[0];
    let initial = prev.final_config.clone();
    let mut final_config = graph.compile_path(&new_path, pair.dst_host, &pair.class, Priority(10));
    drain_abandoned(&initial, &mut final_config);
    let next_pair = FlowPair {
        initial_path: pair.final_path.clone(),
        final_path: new_path,
        ..pair.clone()
    };
    UpdateScenario {
        graph: graph.clone(),
        pairs: vec![next_pair],
        initial,
        final_config,
        spec: prev.spec.clone(),
        kind: prev.kind,
    }
}

/// The perturbation a failure-injected churn step applies to the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Ordinary re-route to a fresh path (as in [`churn_scenarios`]).
    Reroute,
    /// This switch on the current path failed; the flow routes around it.
    LinkFailure(SwitchId),
    /// The flow rolls back to the path it used before the previous step.
    Rollback,
}

impl ChurnEvent {
    /// A short name used in fuzz-case descriptors.
    pub fn name(self) -> &'static str {
        match self {
            ChurnEvent::Reroute => "reroute",
            ChurnEvent::LinkFailure(_) => "link-failure",
            ChurnEvent::Rollback => "rollback",
        }
    }
}

/// Generates a seeded *failure-injected* churn stream: like
/// [`churn_scenarios`], but each step after the first draws uniformly from
/// the viable subset of three perturbations — an ordinary re-route, a
/// mid-stream **link failure** (an interior, non-waypoint switch of the
/// current path fails and the replacement path routes around it; the failed
/// switch is drained to an empty table), or an explicit **rollback** to the
/// path the flow used before the previous step.
///
/// The topology object itself never changes — engines pin their problem to
/// it — so a failure is modeled as the routing reaction it forces: the new
/// final configuration avoids the failed switch entirely. Each element pairs
/// the step with the [`ChurnEvent`] that produced it (step 0, the initial
/// diamond, is labeled [`ChurnEvent::Reroute`]). The stream maintains the
/// chaining invariant of [`churn_scenarios`] and is fully determined by
/// `rng`.
pub fn failure_churn_scenarios<R: Rng>(
    graph: &NetworkGraph,
    kind: PropertyKind,
    steps: usize,
    rng: &mut R,
) -> Option<Vec<(ChurnEvent, UpdateScenario)>> {
    if steps == 0 {
        return Some(Vec::new());
    }
    let mut out = Vec::with_capacity(steps);
    out.push((ChurnEvent::Reroute, diamond_scenario(graph, kind, rng)?));
    while out.len() < steps {
        let prev = &out.last().expect("non-empty").1;
        let (event, next) = failure_churn_step(graph, prev, rng)?;
        debug_assert_chained(prev, &next);
        out.push((event, next));
    }
    Some(out)
}

/// Builds the next step of a failure-injected churn stream.
fn failure_churn_step<R: Rng>(
    graph: &NetworkGraph,
    prev: &UpdateScenario,
    rng: &mut R,
) -> Option<(ChurnEvent, UpdateScenario)> {
    let pair = prev.pairs.first()?;
    let current = &pair.final_path;
    let src = *current.first()?;
    let dst = *current.last()?;

    // Candidate perturbations, in a fixed order so the rng draw below is the
    // only source of variation. Rollback is always viable (the previous path
    // differs from the current one by construction).
    let mut candidates: Vec<(ChurnEvent, Vec<SwitchId>)> =
        vec![(ChurnEvent::Rollback, pair.initial_path.clone())];
    if let Some(fresh) = final_path_through(graph, src, dst, current, &pair.waypoints) {
        candidates.push((ChurnEvent::Reroute, fresh));
    }
    // A link failure picks an interior, non-waypoint switch of the current
    // path; the replacement path must avoid it (and only it — revisiting the
    // rest of the current path is allowed, as a real reroute would).
    let failable: Vec<SwitchId> = current[1..current.len() - 1]
        .iter()
        .copied()
        .filter(|sw| !pair.waypoints.contains(sw))
        .collect();
    if !failable.is_empty() {
        let failed = failable[rng.gen_range(0..failable.len())];
        let forbidden = BTreeSet::from([failed]);
        if let Some(detour) = path_via_waypoints(graph, src, dst, &pair.waypoints, &forbidden) {
            if detour != *current {
                candidates.push((ChurnEvent::LinkFailure(failed), detour));
            }
        }
    }
    let (event, new_path) = candidates.swap_remove(rng.gen_range(0..candidates.len()));
    if new_path == *current {
        return None;
    }
    Some((event, next_step(graph, prev, new_path)))
}

/// Derives a request whose initial configuration is a **partially applied**
/// version of `prev`'s update: a random non-empty strict subset of the
/// switches `prev` updates already carry their final tables, as if a
/// controller crashed mid-update and a fresh request now asks to finish the
/// transition.
///
/// The partially applied configuration is *not* guaranteed to satisfy the
/// spec — a half-applied update is exactly the kind of state the paper's
/// synthesizer exists to avoid — so callers must accept an
/// `InitialConfigurationViolates`-style verdict as a valid outcome. Returns
/// `None` when `prev` updates fewer than two switches (no strict subset
/// exists).
pub fn partially_applied_scenario<R: Rng>(
    prev: &UpdateScenario,
    rng: &mut R,
) -> Option<UpdateScenario> {
    let differing = prev.initial.differing_switches(&prev.final_config);
    if differing.len() < 2 {
        return None;
    }
    let applied = rng.gen_range(1..differing.len());
    let mut order: Vec<SwitchId> = differing;
    // Seeded Fisher–Yates: which switches were "already applied" is part of
    // the case, so it must be reproducible from the rng alone.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut initial = prev.initial.clone();
    for sw in &order[..applied] {
        initial.set_table(*sw, prev.final_config.table(*sw));
    }
    Some(UpdateScenario {
        graph: prev.graph.clone(),
        pairs: prev.pairs.clone(),
        initial,
        final_config: prev.final_config.clone(),
        spec: prev.spec.clone(),
        kind: prev.kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use netupd_model::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_config_delivers(scenario: &UpdateScenario, config: &Configuration) {
        let net = Network::new(scenario.topology().clone(), config.clone());
        for pair in &scenario.pairs {
            let (sw, port) = scenario
                .topology()
                .switch_of_host(pair.src_host)
                .expect("source host attached");
            let traces = net.traces_from(sw, port, &pair.class);
            assert!(!traces.is_empty());
            assert!(
                traces.iter().all(|t| t.reaches_host(pair.dst_host)),
                "flow to {:?} must be delivered",
                pair.dst_host
            );
        }
    }

    #[test]
    fn diamond_on_small_world_has_valid_configs() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generators::small_world(40, 4, 0.1, &mut rng);
        let scenario =
            diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("diamond");
        assert!(scenario.updating_switches() > 0);
        check_config_delivers(&scenario, &scenario.initial);
        check_config_delivers(&scenario, &scenario.final_config);
        // Initial and final paths differ.
        let pair = &scenario.pairs[0];
        assert_ne!(pair.initial_path, pair.final_path);
    }

    #[test]
    fn waypoint_scenario_keeps_waypoint_on_both_paths() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, PropertyKind::Waypoint, &mut rng).expect("diamond");
        let pair = &scenario.pairs[0];
        for w in &pair.waypoints {
            assert!(pair.initial_path.contains(w));
            assert!(pair.final_path.contains(w));
        }
        check_config_delivers(&scenario, &scenario.initial);
        check_config_delivers(&scenario, &scenario.final_config);
    }

    #[test]
    fn service_chain_waypoints_in_path_order() {
        let mut rng = StdRng::seed_from_u64(23);
        let graph = generators::small_world(60, 4, 0.05, &mut rng);
        let scenario = diamond_scenario(&graph, PropertyKind::ServiceChain { length: 2 }, &mut rng)
            .expect("diamond");
        let pair = &scenario.pairs[0];
        // Waypoints appear in the final path in the same relative order.
        let positions: Vec<usize> = pair
            .waypoints
            .iter()
            .map(|w| {
                pair.final_path
                    .iter()
                    .position(|s| s == w)
                    .expect("waypoint on final path")
            })
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
    }

    #[test]
    fn multi_diamond_increases_update_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let graph = generators::small_world(80, 4, 0.1, &mut rng);
        let single =
            diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("single");
        let multi =
            multi_diamond_scenario(&graph, PropertyKind::Reachability, 6, &mut rng).expect("multi");
        assert!(multi.pairs.len() > 1);
        assert!(multi.updating_switches() >= single.updating_switches());
        check_config_delivers(&multi, &multi.initial);
        check_config_delivers(&multi, &multi.final_config);
    }

    #[test]
    fn double_diamond_has_two_opposite_flows() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = generators::fat_tree(4);
        let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
            .expect("double diamond");
        assert_eq!(scenario.pairs.len(), 2);
        let forward = &scenario.pairs[0];
        let reverse = &scenario.pairs[1];
        assert_eq!(forward.src_host, reverse.dst_host);
        assert_eq!(forward.dst_host, reverse.src_host);
        // The reverse flow's initial path is the forward flow's final path,
        // reversed.
        let mut reversed = forward.final_path.clone();
        reversed.reverse();
        assert_eq!(reverse.initial_path, reversed);
        check_config_delivers(&scenario, &scenario.initial);
        check_config_delivers(&scenario, &scenario.final_config);
    }

    #[test]
    fn churn_steps_chain_configurations_exactly() {
        let mut rng = StdRng::seed_from_u64(41);
        let graph = generators::fat_tree(4);
        let steps =
            churn_scenarios(&graph, PropertyKind::Reachability, 5, &mut rng).expect("churn");
        assert_eq!(steps.len(), 5);
        for (i, step) in steps.iter().enumerate() {
            assert!(step.updating_switches() > 0, "step {i} must update");
            assert_ne!(step.initial, step.final_config, "step {i} must change");
            check_config_delivers(step, &step.initial);
            check_config_delivers(step, &step.final_config);
            if i > 0 {
                assert_eq!(
                    step.initial,
                    steps[i - 1].final_config,
                    "step {i} must start where step {} ended",
                    i - 1
                );
                assert_eq!(step.spec, steps[i - 1].spec, "the spec stays fixed");
            }
        }
    }

    #[test]
    fn churn_keeps_waypoints_on_every_path() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = generators::fat_tree(4);
        let steps = churn_scenarios(&graph, PropertyKind::Waypoint, 4, &mut rng).expect("churn");
        for step in &steps {
            let pair = &step.pairs[0];
            for w in &pair.waypoints {
                assert!(pair.initial_path.contains(w));
                assert!(pair.final_path.contains(w));
            }
        }
    }

    #[test]
    fn chained_predicate_detects_broken_streams() {
        let mut rng = StdRng::seed_from_u64(41);
        let graph = generators::fat_tree(4);
        let mut steps =
            churn_scenarios(&graph, PropertyKind::Reachability, 4, &mut rng).expect("churn");
        assert!(steps_are_chained(&steps));
        // Corrupt one link of the chain.
        steps[2].initial = Configuration::new();
        assert!(!steps_are_chained(&steps));
        // Single-element and empty streams are trivially chained.
        assert!(steps_are_chained(&steps[..1]));
        assert!(steps_are_chained(&[]));
    }

    #[test]
    fn multi_tenant_streams_are_independent_chained_and_seeded() {
        let graph = generators::fat_tree(4);
        let mut rng = StdRng::seed_from_u64(19);
        let streams =
            multi_tenant_churn_streams(&graph, PropertyKind::Reachability, 4, 3, &mut rng)
                .expect("streams generate");
        assert_eq!(streams.len(), 4);
        for stream in &streams {
            assert_eq!(stream.len(), 3);
            assert!(steps_are_chained(stream));
        }
        // Tenants carry different flows: at least two distinct (src, dst)
        // endpoint pairs across four draws on a fat tree.
        let endpoints: BTreeSet<_> = streams
            .iter()
            .map(|s| {
                let pair = &s[0].pairs[0];
                (pair.src_host, pair.dst_host)
            })
            .collect();
        assert!(endpoints.len() >= 2, "tenants should draw distinct flows");
        // The workload is reproducible from the seed.
        let mut rng2 = StdRng::seed_from_u64(19);
        let again = multi_tenant_churn_streams(&graph, PropertyKind::Reachability, 4, 3, &mut rng2)
            .expect("streams generate");
        assert_eq!(streams.len(), again.len());
        for (a, b) in streams.iter().zip(&again) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.initial, y.initial);
                assert_eq!(x.final_config, y.final_config);
                assert_eq!(x.spec, y.spec);
            }
        }
        // Zero tenants: an empty workload, not a failure.
        assert!(
            multi_tenant_churn_streams(&graph, PropertyKind::Reachability, 0, 3, &mut rng)
                .expect("empty workload")
                .is_empty()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "churn step must start exactly")]
    fn chaining_violation_trips_the_debug_assertion() {
        let mut rng = StdRng::seed_from_u64(41);
        let graph = generators::fat_tree(4);
        let steps =
            churn_scenarios(&graph, PropertyKind::Reachability, 2, &mut rng).expect("churn");
        let mut broken = steps[1].clone();
        broken.initial = Configuration::new();
        debug_assert_chained(&steps[0], &broken);
    }

    #[test]
    fn failure_churn_chains_and_covers_all_events() {
        let graph = generators::fat_tree(4);
        let mut seen = BTreeSet::new();
        // Across a few seeds the three perturbations all occur.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let Some(steps) =
                failure_churn_scenarios(&graph, PropertyKind::Reachability, 6, &mut rng)
            else {
                continue;
            };
            assert_eq!(steps.len(), 6);
            let scenarios: Vec<UpdateScenario> = steps.iter().map(|(_, s)| s.clone()).collect();
            assert!(steps_are_chained(&scenarios));
            for (i, (event, step)) in steps.iter().enumerate() {
                seen.insert(event.name());
                assert!(step.updating_switches() > 0, "step {i} must update");
                check_config_delivers(step, &step.initial);
                check_config_delivers(step, &step.final_config);
                if let ChurnEvent::LinkFailure(failed) = event {
                    // The replacement path routes around the failed switch
                    // and the failed switch is drained.
                    assert!(!step.pairs[0].final_path.contains(failed));
                    assert!(step
                        .final_config
                        .table_ref(*failed)
                        .is_some_and(|t| t.is_empty()));
                }
            }
        }
        assert_eq!(
            seen,
            BTreeSet::from(["reroute", "link-failure", "rollback"]),
            "all three perturbations should occur across seeds"
        );
    }

    #[test]
    fn failure_churn_is_deterministic_per_seed() {
        let graph = generators::fat_tree(4);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = failure_churn_scenarios(&graph, PropertyKind::Waypoint, 5, &mut rng_a).unwrap();
        let b = failure_churn_scenarios(&graph, PropertyKind::Waypoint, 5, &mut rng_b).unwrap();
        for ((ea, sa), (eb, sb)) in a.iter().zip(&b) {
            assert_eq!(ea, eb);
            assert_eq!(sa.final_config, sb.final_config);
            assert_eq!(sa.pairs[0].final_path, sb.pairs[0].final_path);
        }
    }

    #[test]
    fn partially_applied_sits_strictly_between_initial_and_final() {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = generators::fat_tree(4);
        let base = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("diamond");
        let partial = partially_applied_scenario(&base, &mut rng).expect("enough switches");
        assert_ne!(partial.initial, base.initial, "some switch must be applied");
        assert_ne!(
            partial.initial, partial.final_config,
            "some switch must remain to update"
        );
        assert_eq!(partial.final_config, base.final_config);
        // Every differing table in the partial initial matches one side of
        // the original update.
        for sw in base.initial.differing_switches(&base.final_config) {
            let table = partial.initial.table(sw);
            assert!(
                table.same_rules(&base.initial.table(sw))
                    || table.same_rules(&base.final_config.table(sw)),
                "partially applied table for {sw} must come from the update itself"
            );
        }
    }

    #[test]
    fn churn_is_deterministic_per_seed_and_empty_for_zero_steps() {
        let graph = generators::fat_tree(4);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let a = churn_scenarios(&graph, PropertyKind::Reachability, 6, &mut rng_a).unwrap();
        let b = churn_scenarios(&graph, PropertyKind::Reachability, 6, &mut rng_b).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs[0].final_path, y.pairs[0].final_path);
            assert_eq!(x.final_config, y.final_config);
        }
        let mut rng = StdRng::seed_from_u64(77);
        assert!(
            churn_scenarios(&graph, PropertyKind::Reachability, 0, &mut rng)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn scenarios_are_deterministic_for_a_seed() {
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        let graph_a = generators::small_world(30, 4, 0.1, &mut rng_a);
        let graph_b = generators::small_world(30, 4, 0.1, &mut rng_b);
        let a = diamond_scenario(&graph_a, PropertyKind::Reachability, &mut rng_a).unwrap();
        let b = diamond_scenario(&graph_b, PropertyKind::Reachability, &mut rng_b).unwrap();
        assert_eq!(a.pairs[0].initial_path, b.pairs[0].initial_path);
        assert_eq!(a.pairs[0].final_path, b.pairs[0].final_path);
    }

    #[test]
    fn property_kind_names() {
        assert_eq!(PropertyKind::Reachability.name(), "reachability");
        assert_eq!(PropertyKind::Waypoint.name(), "waypointing");
        assert_eq!(
            PropertyKind::ServiceChain { length: 3 }.name(),
            "service-chaining"
        );
    }
}
