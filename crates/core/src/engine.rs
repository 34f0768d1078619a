//! A long-lived synthesis engine with cross-request reuse.
//!
//! The one-shot [`Synthesizer`](crate::Synthesizer) rebuilds everything per
//! call: the Kripke encoder, the structure, the proposition table, the
//! checker. A production controller does not issue one update — it issues a
//! *stream* of closely-related updates over one topology (rolling
//! configuration churn), and for such a stream almost all of that per-call
//! construction is redundant.
//!
//! [`UpdateEngine`] owns that state across requests:
//!
//! * the **encoder** ([`NetworkKripke`]) with its cached per-`(topology,
//!   classes)` skeleton is built once;
//! * the **checking context** (one Kripke structure + one checker)
//!   persists, so each request syncs the structure *by per-switch diff*
//!   from wherever the previous request left it and rechecks
//!   incrementally, instead of encoding and labeling from scratch;
//! * closures and proposition resolutions are shared per `(spec, table)`
//!   via `netupd_ltl::cache`, so a repeated spec across the stream resolves
//!   once.
//!
//! # Determinism
//!
//! Engine reuse never changes *results*, only work: a check outcome is a
//! pure function of the checked `(configuration, spec)` pair — the encoder
//! fixes the state space up front, updates only rewire transitions, and the
//! labeling engines keep labels in canonical form — so a recheck over an
//! accurate diff returns exactly what a cold full check would (DESIGN.md
//! §5). The committed commands, unit order, and verdict are therefore
//! byte-identical to a fresh [`Synthesizer`](crate::Synthesizer) per
//! request; `tests/engine_differential.rs` enforces this for every backend
//! and strategy over churn streams. Work counters
//! ([`SynthStats::states_relabeled`](crate::SynthStats)) do shrink with
//! reuse — that is the point.
//!
//! # Example
//!
//! ```
//! use netupd_synth::{SynthesisOptions, UpdateEngine, UpdateProblem};
//! use netupd_topo::{generators, scenario::{churn_scenarios, PropertyKind}};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::fat_tree(4);
//! let steps = churn_scenarios(&graph, PropertyKind::Reachability, 3, &mut rng).unwrap();
//! let topology = Arc::new(graph.topology().clone());
//!
//! let first = UpdateProblem::from_scenario_shared(&steps[0], Arc::clone(&topology));
//! let mut engine = UpdateEngine::for_problem(&first, SynthesisOptions::default());
//! for scenario in &steps {
//!     let problem = UpdateProblem::from_scenario_shared(scenario, Arc::clone(&topology));
//!     let update = engine.solve(&problem).expect("churn steps are solvable");
//!     assert!(update.commands.is_simple());
//! }
//! assert_eq!(engine.requests_served(), 3);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use netupd_kripke::NetworkKripke;
use netupd_ltl::semantics;
use netupd_model::{Configuration, HostId, Network, SwitchId, Topology, TrafficClass};

use crate::checkpoint::CheckpointCache;
use crate::constraints::LearntConstraint;
use crate::context::{check_endpoints, CheckContext};
use crate::explain::InfeasibilityExplanation;
use crate::options::{Granularity, SearchStrategy, SynthesisOptions};
use crate::problem::UpdateProblem;
use crate::search::{finish_sequence, SynthStats, SynthesisError, UpdateSequence};
use crate::strategy::{dfs::DfsSearch, sat_guided};
use crate::units::{plan_units, UpdateUnit};

/// A long-lived synthesis engine serving a stream of [`UpdateProblem`]s over
/// a fixed `(topology, classes, ingress)` triple, amortizing everything that
/// does not change between requests (see the [module docs](self)).
///
/// Feeding the engine a problem over a *different* topology, class set, or
/// ingress set is allowed but forfeits the amortization: the engine rebuilds
/// its encoder and resets its context (recycling checker storage via
/// [`begin_query`](netupd_mc::ModelChecker::begin_query)) and serves the
/// request cold.
pub struct UpdateEngine {
    topology: Arc<Topology>,
    classes: Vec<TrafficClass>,
    ingress_hosts: Vec<HostId>,
    options: SynthesisOptions,
    encoder: NetworkKripke,
    /// The persistent checking context (`None` until the first request).
    ctx: Option<CheckContext>,
    /// The SAT-guided strategy's cross-request harvest (the switch-level
    /// constraints of the previous successful request), revalidated against
    /// each new request before pre-loading.
    sat_carry: Option<SatCarry>,
    /// The prefix-checkpoint cache (see `checkpoint`): shared by the DFS and
    /// the SAT-guided verification walks, and persisted across churn requests
    /// (invalidated down to the new request's mixture space per request).
    cache: CheckpointCache,
    /// The most recent request's infeasibility explanation, if any.
    last_explanation: Option<InfeasibilityExplanation>,
    requests_served: usize,
    rebuilds: usize,
}

/// The switch-level harvest of a successful SAT-guided request, kept for the
/// next request of the stream. Everything here is in *switch* terms — unit
/// indices are request-local, so the harvest is translated back into the next
/// request's indices after revalidation.
struct SatCarry {
    /// §4.2 B constraints, as `(before, after)` switch sets.
    some_before: Vec<(BTreeSet<SwitchId>, BTreeSet<SwitchId>)>,
    /// Violating prefix sets.
    prefix_sets: Vec<BTreeSet<SwitchId>>,
    /// Prefix sets verified to satisfy the specification.
    verified: Vec<BTreeSet<SwitchId>>,
    /// Exact-order blocking clauses learnt by the previous request. They are
    /// never carried (an order over the old unit set has no sound reading
    /// over the new one), only counted as retired.
    orders_learnt: usize,
}

impl std::fmt::Debug for UpdateEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateEngine")
            .field("classes", &self.classes.len())
            .field("backend", &self.options.backend)
            .field("requests_served", &self.requests_served)
            .field("rebuilds", &self.rebuilds)
            .finish_non_exhaustive()
    }
}

impl UpdateEngine {
    /// Creates an engine for a fixed topology, traffic-class set, and
    /// ingress-host set.
    ///
    /// The topology is shared; passing an owned [`Topology`] wraps it in an
    /// [`Arc`] without copying. An empty `ingress_hosts` means every host is
    /// an ingress (matching [`UpdateProblem`] semantics).
    pub fn new(
        topology: impl Into<Arc<Topology>>,
        classes: Vec<TrafficClass>,
        ingress_hosts: Vec<HostId>,
        options: SynthesisOptions,
    ) -> Self {
        let topology = topology.into();
        let encoder = build_encoder(&topology, &classes, &ingress_hosts);
        let cache = CheckpointCache::new(options.checkpoint_budget);
        UpdateEngine {
            topology,
            classes,
            ingress_hosts,
            options,
            encoder,
            ctx: None,
            sat_carry: None,
            cache,
            last_explanation: None,
            requests_served: 0,
            rebuilds: 0,
        }
    }

    /// Creates an engine matching a problem's topology, classes, and ingress
    /// hosts — the natural constructor when the first request of the stream
    /// is at hand.
    pub fn for_problem(problem: &UpdateProblem, options: SynthesisOptions) -> Self {
        UpdateEngine::new(
            Arc::clone(&problem.topology),
            problem.classes.clone(),
            problem.ingress_hosts.clone(),
            options,
        )
    }

    /// The options every request is solved with.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// The topology the engine is pinned to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of requests served so far (including failed ones).
    pub fn requests_served(&self) -> usize {
        self.requests_served
    }

    /// Number of times an incompatible problem forced the engine to rebuild
    /// its encoder and reset its context. Zero for a well-behaved stream.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Re-pins the engine to a (possibly different) problem triple without
    /// serving a request: if the problem is incompatible with the engine's
    /// current `(topology, classes, ingress)`, the encoder is rebuilt and the
    /// context reset exactly as an incompatible [`solve`](Self::solve) would
    /// do; a compatible problem is a no-op.
    ///
    /// This is the recycling hook for serving-layer pools: an engine evicted
    /// for tenant A can be re-pinned to tenant B's stream, keeping the warm
    /// context's checker storage instead of reallocating it. Results are
    /// unaffected either way — a re-pinned engine answers like a fresh one.
    pub fn repin(&mut self, problem: &UpdateProblem) {
        if !self.compatible(problem) {
            self.rebuild(problem);
        }
    }

    /// Solves one request of the stream.
    ///
    /// The committed commands, unit order, and verdict are identical to what
    /// a fresh `Synthesizer::new(problem.clone()).with_options(...)` would
    /// return; only the work counters differ (reuse relabels fewer states).
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`] — the same verdicts as the one-shot API.
    pub fn solve(&mut self, problem: &UpdateProblem) -> Result<UpdateSequence, SynthesisError> {
        if !self.compatible(problem) {
            self.rebuild(problem);
        }
        self.requests_served += 1;
        self.last_explanation = None;
        // Keep only checkpoints inside the new request's `{initial, final}`
        // mixture space — entries over unchanged switches survive and keep
        // paying across the churn stream. Only the final configuration's
        // checkpoint carries a checker snapshot: it is the next churn
        // request's initial configuration, the one place a restore beats
        // resyncing by diff.
        self.cache
            .retain_for(&problem.initial, &problem.final_config);
        self.cache.set_snapshot_target(&problem.final_config);
        let hits_before = self.cache.hits();
        let restores_before = self.cache.restores();
        let units = plan_units(problem, self.options.granularity);
        // Carry is the SAT-guided strategy's, scoped to switch granularity:
        // there one unit is one switch, so the switch-level harvest translates
        // one-to-one into the next request's unit indices.
        let carry_enabled = self.options.strategy == SearchStrategy::SatGuided
            && self.options.carry_forward
            && self.options.granularity == Granularity::Switch;
        let carry_in = self
            .sat_carry
            .take()
            .filter(|_| carry_enabled)
            .map(|carry| revalidate_carry(&carry, problem, &units, &self.cache));
        let backend = self.options.backend;
        let ctx = self.ctx.get_or_insert_with(|| CheckContext::fresh(backend));
        let result = match check_endpoints(ctx, &self.encoder, problem, &units, &self.cache) {
            Err(error) => Err(error),
            Ok(ControlFlow::Break(trivial)) => Ok(trivial),
            Ok(ControlFlow::Continue(stats)) => match self.options.strategy {
                SearchStrategy::SatGuided => {
                    let mut artifacts = sat_guided::Artifacts::default();
                    let result = sat_guided::solve(
                        problem,
                        &self.options,
                        &units,
                        &self.encoder,
                        &self.cache,
                        ctx,
                        stats,
                        carry_in,
                        Some(&mut artifacts),
                    );
                    self.last_explanation = artifacts.explanation.take();
                    if carry_enabled && result.is_ok() {
                        self.sat_carry = Some(harvest_carry(&artifacts, &units));
                    }
                    result
                }
                SearchStrategy::Dfs => self.solve_dfs(problem, &units, stats),
            },
        };
        result.map(|mut update| {
            update.stats.checkpoint_hits = self.cache.hits() - hits_before;
            update.stats.checkpoint_restores = self.cache.restores() - restores_before;
            update.stats.checkpoint_bytes = self.cache.resident_bytes();
            update
        })
    }

    /// Whether the problem matches the engine's fixed triple. The topology
    /// check is a pointer comparison on the shared-`Arc` fast path.
    fn compatible(&self, problem: &UpdateProblem) -> bool {
        (Arc::ptr_eq(&self.topology, &problem.topology) || *self.topology == *problem.topology)
            && self.classes == problem.classes
            && self.ingress_hosts == problem.ingress_hosts
    }

    /// Re-pins the engine to the problem's triple: a new encoder (new
    /// skeleton), structure dropped, checker kept but reset via
    /// `begin_query` so its backing storage is recycled.
    fn rebuild(&mut self, problem: &UpdateProblem) {
        self.topology = Arc::clone(&problem.topology);
        self.classes = problem.classes.clone();
        self.ingress_hosts = problem.ingress_hosts.clone();
        self.encoder = build_encoder(&self.topology, &self.classes, &self.ingress_hosts);
        if let Some(ctx) = &mut self.ctx {
            ctx.begin_new_series();
        }
        self.sat_carry = None;
        self.cache.clear();
        self.last_explanation = None;
        self.rebuilds += 1;
    }

    /// The infeasibility explanation of the most recent
    /// [`solve`](Self::solve), when that request failed with
    /// [`SynthesisError::NoOrderingExists`] `{ proven_by_constraints: true }`.
    /// Cleared at the start of every request; `None` after successes and
    /// other failures.
    pub fn last_explanation(&self) -> Option<&InfeasibilityExplanation> {
        self.last_explanation.as_ref()
    }

    /// The `OrderUpdate` DFS over the persistent context, after the entry
    /// checks. Mirrors the paper's algorithm exactly; the only difference from
    /// a one-shot run is that the structure is synced by diff, not encoded
    /// afresh.
    fn solve_dfs(
        &mut self,
        problem: &UpdateProblem,
        units: &[UpdateUnit],
        stats: SynthStats,
    ) -> Result<UpdateSequence, SynthesisError> {
        // The final check left the structure at the final configuration; the
        // search starts from the initial one. The way back is a deferred
        // undo: rewired now, relabeled by the DFS's first physical recheck.
        let ctx = self.ctx.as_mut().expect("the entry checks ran on it");
        ctx.sync_deferred(&self.encoder, &problem.initial);

        // The DFS drives the persistent structure and checker directly; it
        // leaves them consistent at whatever configuration it ends on (modulo
        // the pending change set, which stays on the context), which the
        // context records for the next request's diff-sync.
        let (kripke, checker, pending) = ctx.checking_parts_mut();
        let mut search = DfsSearch::new(
            problem,
            &self.options,
            units,
            &self.encoder,
            kripke,
            checker,
            &self.cache,
            pending,
            stats,
        );
        let outcome = search.dfs();
        // The store outlives the search: when the DFS aborted because the
        // constraints went unsatisfiable, it holds the minimal core.
        let DfsSearch {
            ordering,
            mut stats,
            config: end_config,
            ..
        } = search;
        ctx.set_config(end_config);
        ordering.fill_solver_stats(&mut stats);

        match outcome {
            Ok(Some(order_indices)) => Ok(finish_sequence(
                problem,
                &self.options,
                units,
                &order_indices,
                stats,
            )),
            Ok(None) => Err(SynthesisError::NoOrderingExists {
                proven_by_constraints: false,
            }),
            Err(error) => {
                if error
                    == (SynthesisError::NoOrderingExists {
                        proven_by_constraints: true,
                    })
                {
                    self.last_explanation = Some(InfeasibilityExplanation::from_store(
                        &ordering, units, stats,
                    ));
                }
                Err(error)
            }
        }
    }
}

/// Harvests the switch-level carry of a successful SAT-guided run.
fn harvest_carry(artifacts: &sat_guided::Artifacts, units: &[UpdateUnit]) -> SatCarry {
    let switches = |indices: &[usize]| -> BTreeSet<SwitchId> {
        indices.iter().map(|&i| units[i].switch()).collect()
    };
    let mut carry = SatCarry {
        some_before: Vec::new(),
        prefix_sets: Vec::new(),
        verified: artifacts
            .verified
            .iter()
            .map(|set| set.iter().map(|&i| units[i].switch()).collect())
            .collect(),
        orders_learnt: 0,
    };
    for constraint in &artifacts.learnt {
        match constraint {
            LearntConstraint::SomeBefore { before, after } => {
                carry.some_before.push((switches(before), switches(after)));
            }
            LearntConstraint::PrefixSet { applied } => {
                carry
                    .prefix_sets
                    .push(applied.iter().map(|&i| units[i].switch()).collect());
            }
            LearntConstraint::Order { .. } => carry.orders_learnt += 1,
        }
    }
    carry
}

/// Revalidates a previous request's harvest against a new request by direct
/// trace replay — no model-checker calls — and translates the survivors into
/// the new request's unit indices.
///
/// Each clause form has an exact survival condition re-establishing, on the
/// *new* request, the premise it was originally learnt from:
///
/// * **SomeBefore(B, A)** survives iff `A ⊆ U` (where `U` is the new update
///   set), `B' = B ∩ U` is non-empty, and the configuration with exactly `A`
///   updated has a violating trace whose support inside `U` stays within
///   `A ∪ B'`. Then in any intermediate configuration where all of `A` is
///   updated and none of `B'` is, that trace reproduces verbatim: switches
///   of `A` hold final tables, switches of `B'` hold initial tables, and
///   every other support switch is outside `U`, so its table never changes.
///   Hence some unit of `B'` must precede some unit of `A` — exactly the
///   clause pre-loaded.
/// * **PrefixSet(P)** survives iff `P ⊆ U`, `P ≠ U` (blocking the full set
///   would yield the empty clause — and a violating full set is the final
///   check's job), and the configuration with exactly `P` updated violates
///   the specification. That *is* the clause's premise, re-derived.
/// * **Order** clauses never survive: an exact order over the old unit set
///   has no sound reading over the new one. They count as retired.
/// * A **verified** set `S` pre-seeds the prefix-skip iff `S ⊆ U` and the
///   configuration with exactly `S` updated satisfies the specification on
///   every replayed trace — the same verdict the checker would return (the
///   differential fuzzer's trace oracle enforces that equivalence), so the
///   skipped check could only ever have said "holds".
///
/// Because every surviving clause is entailed by the new request and the
/// store's proposal rule is lexicographically minimal among consistent
/// orders, pre-loading changes how much work the CEGIS loop performs, never
/// which order it commits.
///
/// The checkpoint cache short-circuits the trace replay: a configuration
/// checkpointed as passing has no violating trace by construction, so a
/// cache hit settles the survival question — "verified" sets carry over and
/// violation-premised clauses retire — without replaying a single trace.
/// The cache verdict and the replay verdict agree (both equal the checker's,
/// which the differential fuzzer's trace oracle enforces), so the surviving
/// clause set is identical with the cache on or off.
fn revalidate_carry(
    carry: &SatCarry,
    problem: &UpdateProblem,
    units: &[UpdateUnit],
    cache: &CheckpointCache,
) -> sat_guided::CarryIn {
    let unit_of: BTreeMap<SwitchId, usize> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.switch(), i))
        .collect();
    let update_set: BTreeSet<SwitchId> = problem.switches_to_update().into_iter().collect();
    let to_units = |set: &BTreeSet<SwitchId>| -> Vec<usize> {
        set.iter()
            .filter_map(|sw| unit_of.get(sw).copied())
            .collect()
    };

    let mut carry_in = sat_guided::CarryIn {
        retired: carry.orders_learnt,
        ..sat_guided::CarryIn::default()
    };

    for (before, after) in &carry.some_before {
        let surviving_before: BTreeSet<SwitchId> =
            before.intersection(&update_set).copied().collect();
        let survives =
            !after.is_empty() && after.is_subset(&update_set) && !surviving_before.is_empty() && {
                let config = config_with_final(problem, after);
                // Checkpointed-as-passing configurations have no violating
                // trace: the clause's premise is gone, no replay needed.
                cache.lookup(&problem.spec, &config).is_none()
                    && violating_trace_supports(problem, &config)
                        .iter()
                        .any(|support| {
                            support
                                .intersection(&update_set)
                                .all(|sw| after.contains(sw) || surviving_before.contains(sw))
                        })
            };
        if survives {
            carry_in
                .some_before
                .push((to_units(&surviving_before), to_units(after)));
            carry_in.carried += 1;
        } else {
            carry_in.retired += 1;
        }
    }

    for prefix in &carry.prefix_sets {
        let survives =
            !prefix.is_empty() && prefix.is_subset(&update_set) && *prefix != update_set && {
                let config = config_with_final(problem, prefix);
                cache.lookup(&problem.spec, &config).is_none()
                    && !violating_trace_supports(problem, &config).is_empty()
            };
        if survives {
            carry_in
                .prefix_sets
                .push(to_units(prefix).into_iter().collect());
            carry_in.carried += 1;
        } else {
            carry_in.retired += 1;
        }
    }

    for set in &carry.verified {
        if !set.is_empty() && set.is_subset(&update_set) {
            let config = config_with_final(problem, set);
            // A checkpoint hit *is* the "holds" verdict the replay would
            // re-derive — the carried prefix set is revalidated without
            // walking a single trace.
            if cache.lookup(&problem.spec, &config).is_some()
                || violating_trace_supports(problem, &config).is_empty()
            {
                carry_in.verified.push(to_units(set).into_iter().collect());
            }
        }
    }

    carry_in
}

/// The initial configuration with exactly `switches` moved to their final
/// tables — the configuration a carried clause's premise talks about.
fn config_with_final(problem: &UpdateProblem, switches: &BTreeSet<SwitchId>) -> Configuration {
    let mut config = problem.initial.clone();
    for &sw in switches {
        config.set_table(sw, problem.final_config.table(sw));
    }
    config
}

/// Switch supports of every spec-violating trace of `config`, by direct
/// operational-semantics replay from each ingress.
fn violating_trace_supports(
    problem: &UpdateProblem,
    config: &Configuration,
) -> Vec<BTreeSet<SwitchId>> {
    let network = Network::new(Arc::clone(&problem.topology), config.clone());
    // Empty `ingress_hosts` means *every* host is an ingress (the
    // `UpdateProblem` convention); replaying only the empty list would
    // vacuously validate everything, which is exactly the unsound direction.
    let hosts: &[HostId] = if problem.ingress_hosts.is_empty() {
        problem.topology.hosts()
    } else {
        &problem.ingress_hosts
    };
    let mut supports = Vec::new();
    for class in &problem.classes {
        for &host in hosts {
            let Some((sw, pt)) = problem.topology.switch_of_host(host) else {
                continue;
            };
            for trace in network.traces_from(sw, pt, class) {
                if !semantics::satisfies(&trace, &problem.spec) {
                    supports.push(trace.switch_path().into_iter().collect());
                }
            }
        }
    }
    supports
}

/// Builds the encoder for a `(topology, classes, ingress)` triple.
fn build_encoder(
    topology: &Arc<Topology>,
    classes: &[TrafficClass],
    ingress_hosts: &[HostId],
) -> NetworkKripke {
    let encoder = NetworkKripke::new(Arc::clone(topology), classes.to_vec());
    if ingress_hosts.is_empty() {
        encoder
    } else {
        encoder.with_ingress_hosts(ingress_hosts.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Synthesizer;
    use netupd_mc::Backend;
    use netupd_model::Configuration;
    use netupd_topo::generators;
    use netupd_topo::scenario::{churn_scenarios, diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn churn_problems(kind: PropertyKind, steps: usize, seed: u64) -> Vec<UpdateProblem> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::fat_tree(4);
        let scenarios = churn_scenarios(&graph, kind, steps, &mut rng).expect("churn stream");
        let topology = Arc::new(graph.topology().clone());
        scenarios
            .iter()
            .map(|s| UpdateProblem::from_scenario_shared(s, Arc::clone(&topology)))
            .collect()
    }

    #[test]
    fn engine_matches_fresh_synthesizer_over_a_churn_stream() {
        let problems = churn_problems(PropertyKind::Reachability, 4, 11);
        let options = SynthesisOptions::default();
        let mut engine = UpdateEngine::for_problem(&problems[0], options.clone());
        for problem in &problems {
            let fresh = Synthesizer::new(problem.clone())
                .with_options(options.clone())
                .synthesize()
                .expect("fresh solves");
            let reused = engine.solve(problem).expect("engine solves");
            assert_eq!(fresh.commands, reused.commands);
            assert_eq!(fresh.order, reused.order);
        }
        assert_eq!(engine.requests_served(), problems.len());
        assert_eq!(engine.rebuilds(), 0);
    }

    #[test]
    fn engine_reuse_relabels_fewer_states_on_identical_requests() {
        let problems = churn_problems(PropertyKind::Reachability, 2, 3);
        let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
        let first = engine.solve(&problems[0]).expect("first solve");
        // Solving the *same* request again syncs by (empty) diff everywhere.
        let again = engine.solve(&problems[0]).expect("second solve");
        assert_eq!(first.commands, again.commands);
        assert!(
            again.stats.states_relabeled < first.stats.states_relabeled,
            "reuse must cut relabeling: {} vs {}",
            again.stats.states_relabeled,
            first.stats.states_relabeled
        );
    }

    #[test]
    fn engine_rejects_violating_configurations_like_the_one_shot_path() {
        let problems = churn_problems(PropertyKind::Reachability, 1, 5);
        let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
        // Warm the engine, then feed it a violating initial configuration.
        engine.solve(&problems[0]).expect("warm-up solve");
        let mut broken = problems[0].clone();
        broken.initial = Configuration::new();
        assert_eq!(
            engine.solve(&broken).unwrap_err(),
            SynthesisError::InitialConfigurationViolates
        );
        // And a violating final configuration (warm context).
        let mut broken = problems[0].clone();
        broken.final_config = Configuration::new();
        assert!(!broken.switches_to_update().is_empty());
        assert_eq!(
            engine.solve(&broken).unwrap_err(),
            SynthesisError::FinalConfigurationViolates
        );
        // The engine still solves the original request afterwards.
        engine.solve(&problems[0]).expect("recovers after failures");
        assert_eq!(engine.rebuilds(), 0);
    }

    #[test]
    fn incompatible_problems_force_a_rebuild_but_stay_correct() {
        let problems = churn_problems(PropertyKind::Reachability, 1, 7);
        let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
        engine.solve(&problems[0]).expect("first topology");

        // A problem over a different topology: the engine rebuilds and
        // solves it cold, matching the fresh synthesizer.
        let mut rng = StdRng::seed_from_u64(23);
        let other_graph = generators::small_world(16, 4, 0.1, &mut rng);
        let other = diamond_scenario(&other_graph, PropertyKind::Reachability, &mut rng)
            .expect("diamond on the other graph");
        let other_problem = UpdateProblem::from_scenario(&other);
        let fresh = Synthesizer::new(other_problem.clone())
            .synthesize()
            .expect("fresh solves");
        let reused = engine.solve(&other_problem).expect("engine solves");
        assert_eq!(fresh.commands, reused.commands);
        assert_eq!(engine.rebuilds(), 1);
    }

    #[test]
    fn engine_solves_across_backends() {
        let problems = churn_problems(PropertyKind::Waypoint, 3, 9);
        for backend in Backend::ALL {
            let options = SynthesisOptions::with_backend(backend);
            let mut engine = UpdateEngine::for_problem(&problems[0], options.clone());
            for problem in &problems {
                let fresh = Synthesizer::new(problem.clone())
                    .with_options(options.clone())
                    .synthesize()
                    .unwrap_or_else(|e| panic!("{backend} fresh: {e}"));
                let reused = engine
                    .solve(problem)
                    .unwrap_or_else(|e| panic!("{backend} engine: {e}"));
                assert_eq!(fresh.commands, reused.commands, "{backend}");
                assert_eq!(fresh.order, reused.order, "{backend}");
            }
        }
    }

    #[test]
    fn repin_rebuilds_only_on_incompatible_problems() {
        let problems = churn_problems(PropertyKind::Reachability, 2, 17);
        let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
        engine.solve(&problems[0]).expect("warm-up solve");

        // Compatible repin is a no-op: no rebuild.
        engine.repin(&problems[1]);
        assert_eq!(engine.rebuilds(), 0);

        // Incompatible repin rebuilds, and the re-pinned engine answers like
        // a fresh one on the new stream.
        let mut rng = StdRng::seed_from_u64(29);
        let other_graph = generators::small_world(16, 4, 0.1, &mut rng);
        let other = diamond_scenario(&other_graph, PropertyKind::Reachability, &mut rng)
            .expect("diamond on the other graph");
        let other_problem = UpdateProblem::from_scenario(&other);
        engine.repin(&other_problem);
        assert_eq!(engine.rebuilds(), 1);
        let fresh = Synthesizer::new(other_problem.clone())
            .synthesize()
            .expect("fresh solves");
        let reused = engine
            .solve(&other_problem)
            .expect("re-pinned engine solves");
        assert_eq!(fresh.commands, reused.commands);
        assert_eq!(fresh.order, reused.order);
    }

    #[test]
    fn trivial_requests_return_empty_sequences() {
        let problems = churn_problems(PropertyKind::Reachability, 1, 13);
        let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
        let trivial = UpdateProblem::new(
            Arc::clone(&problems[0].topology),
            problems[0].initial.clone(),
            problems[0].initial.clone(),
            problems[0].classes.clone(),
            problems[0].ingress_hosts.clone(),
            problems[0].spec.clone(),
        );
        let result = engine.solve(&trivial).expect("no-op update");
        assert!(result.commands.is_empty());
        // The warm engine still handles real requests afterwards.
        assert!(engine.solve(&problems[0]).is_ok());
    }
}
