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
//! * the **encoder** ([`NetworkKripke`]) is built once; its skeleton holds
//!   only the stream's *footprint* — the states reachable under any rule of
//!   any request's initial or final configuration — and is rebuilt only when
//!   a request's footprint is not yet covered (the footprint grows, never
//!   shrinks, within a series);
//! * the **checking context** (one Kripke structure + one checker)
//!   persists, so each request syncs the structure *by per-switch diff*
//!   from wherever the previous request left it and rechecks
//!   incrementally, instead of encoding and labeling from scratch — unless
//!   the footprint grew, which starts a new series: the context is dropped
//!   and the request builds a new one on the new slice.
//!
//! Beside the encoder, the context's structure, its checker's labels (with
//! the spec's closure) and its pending diff are the engine's only memory
//! between requests; nothing is shared with other engines.
//!
//! # Determinism
//!
//! Engine reuse never changes *results*, only work: a check outcome is a
//! pure function of the checked `(configuration, spec)` pair — the encoder
//! fixes the state space for a series (a footprint growth re-encodes and
//! starts a new one), updates only rewire transitions, and the labeling
//! engines keep labels in canonical form — so a recheck over an accurate
//! diff returns exactly what a cold full check would (DESIGN.md §5). States
//! an earlier request left in the slice are unreachable under this
//! request's configurations, so they change no initial state's label. The
//! committed commands, unit order, verdict, and every statistic but
//! one are therefore byte-identical to a fresh
//! [`Synthesizer`](crate::Synthesizer) per request;
//! `tests/engine_differential.rs` enforces this for every backend and
//! strategy over churn streams. The one work counter,
//! [`SynthStats::states_relabeled`](crate::SynthStats), does shrink with
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

use std::sync::Arc;

use netupd_kripke::NetworkKripke;
use netupd_model::{HostId, Topology, TrafficClass};

use crate::context::CheckContext;
use crate::options::SynthesisOptions;
use crate::problem::UpdateProblem;
use crate::search::{SynthesisError, UpdateSequence};
use crate::strategy;
use crate::units::plan_units;

/// A long-lived synthesis engine serving a stream of [`UpdateProblem`]s over
/// a fixed `(topology, classes, ingress)` triple, amortizing everything that
/// does not change between requests (see the [module docs](self)).
///
/// Feeding the engine a problem over a *different* topology, class set, or
/// ingress set is allowed but forfeits the amortization: the engine rebuilds
/// its encoder, drops its context and serves the request cold.
pub struct UpdateEngine {
    topology: Arc<Topology>,
    classes: Vec<TrafficClass>,
    ingress_hosts: Vec<HostId>,
    options: SynthesisOptions,
    encoder: NetworkKripke,
    /// The checking context of the current series (`None` until the
    /// series' first request builds it).
    ctx: Option<CheckContext>,
    requests_served: usize,
    rebuilds: usize,
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
        UpdateEngine {
            topology,
            classes,
            ingress_hosts,
            options,
            encoder,
            ctx: None,
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
    /// its encoder and reset its context. Zero for a well-behaved stream; a
    /// footprint growth re-encodes the slice but is not a rebuild.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Solves one request of the stream.
    ///
    /// The committed commands, unit order, and verdict are identical to what
    /// a fresh `Synthesizer::new(problem.clone()).with_options(...)` would
    /// return; of the statistics only `states_relabeled` differs (reuse
    /// relabels fewer states).
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`] — the same verdicts as the one-shot API.
    pub fn solve(&mut self, problem: &UpdateProblem) -> Result<UpdateSequence, SynthesisError> {
        if !self.compatible(problem) {
            self.rebuild(problem);
        }
        self.requests_served += 1;
        // Every configuration the request can visit holds only initial and
        // final rules; a footprint that grew re-encodes the slice.
        if self
            .encoder
            .cover(&[&problem.initial, &problem.final_config])
        {
            self.ctx = None;
        }
        let units = plan_units(problem, self.options.granularity);
        let backend = self.options.backend;
        let ctx = self
            .ctx
            .get_or_insert_with(|| CheckContext::new(backend, &self.encoder, &problem.initial));
        strategy::solve(problem, &self.options, &units, &self.encoder, ctx)
    }

    /// Whether the problem matches the engine's fixed triple. The topology
    /// check is a pointer comparison on the shared-`Arc` fast path.
    fn compatible(&self, problem: &UpdateProblem) -> bool {
        (Arc::ptr_eq(&self.topology, &problem.topology) || *self.topology == *problem.topology)
            && self.classes == problem.classes
            && self.ingress_hosts == problem.ingress_hosts
    }

    /// Re-pins the engine to the problem's triple: a new encoder (new
    /// skeleton, footprint started over) and no context.
    fn rebuild(&mut self, problem: &UpdateProblem) {
        self.topology = Arc::clone(&problem.topology);
        self.classes = problem.classes.clone();
        self.ingress_hosts = problem.ingress_hosts.clone();
        self.encoder = build_encoder(&self.topology, &self.classes, &self.ingress_hosts);
        self.ctx = None;
        self.rebuilds += 1;
    }
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
        let a = churn_problems(PropertyKind::Reachability, 1, 7).remove(0);
        // A problem over a different topology: A → B → A rebuilds twice, and
        // every request is served cold on a new context, matching the fresh
        // synthesizer for every backend.
        let mut rng = StdRng::seed_from_u64(23);
        let other_graph = generators::small_world(16, 4, 0.1, &mut rng);
        let other = diamond_scenario(&other_graph, PropertyKind::Reachability, &mut rng)
            .expect("diamond on the other graph");
        let b = UpdateProblem::from_scenario(&other);
        for backend in Backend::ALL {
            let options = SynthesisOptions::with_backend(backend);
            let mut engine = UpdateEngine::for_problem(&a, options.clone());
            for problem in [&a, &b, &a] {
                let fresh = Synthesizer::new(problem.clone())
                    .with_options(options.clone())
                    .synthesize()
                    .unwrap_or_else(|e| panic!("{backend} fresh: {e}"));
                let reused = engine
                    .solve(problem)
                    .unwrap_or_else(|e| panic!("{backend} engine: {e}"));
                assert_eq!(fresh.commands, reused.commands, "{backend}");
                assert_eq!(fresh.order, reused.order, "{backend}");
                assert_eq!(
                    fresh.stats.schedule_view(),
                    reused.stats.schedule_view(),
                    "{backend}"
                );
            }
            assert_eq!(engine.rebuilds(), 2, "{backend}");
        }
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
