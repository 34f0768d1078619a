//! The results of the `OrderUpdate` synthesis strategies (§4 of the paper):
//! result and statistics types and the one-shot [`Synthesizer`] entry point.
//! The search itself, and the one place its verdicts are built, live in
//! [`crate::strategy`].

use std::fmt;

use netupd_model::CommandSeq;

use crate::explain::ConflictConstraint;
use crate::options::SynthesisOptions;
use crate::problem::UpdateProblem;
use crate::units::UpdateUnit;

/// Counters describing the work a synthesis run performed.
///
/// Every counter but one is a pure function of the problem and options. The
/// one *work* counter, `states_relabeled`, also depends on where the engine's
/// context stood when the request arrived — reuse exists to shrink it.
/// [`SynthStats::schedule_view`] projects it out.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynthStats {
    /// Model-checker queries physically issued (the DFS's deferred undos are
    /// charged but not issued; see `charged_calls`).
    pub model_checker_calls: usize,
    /// Total states (re)labeled across all queries — the measure of
    /// incrementality.
    pub states_relabeled: usize,
    /// Counterexamples learnt into the ordering store (as pruning facts and
    /// ordering constraints at once).
    pub counterexamples_learnt: usize,
    /// Candidate configurations pruned without a model-checker call: already
    /// visited, or excluded by a learnt counterexample.
    pub configurations_pruned: usize,
    /// Number of times the search backtracked after a failed check.
    pub backtracks: usize,
    /// Distinct ordering clauses learnt into the ordering store.
    pub sat_constraints: usize,
    /// Waits in the sequence before wait removal.
    pub waits_before_removal: usize,
    /// Waits remaining after wait removal.
    pub waits_after_removal: usize,
    /// Walks of the ordering store that found no order: the proof of
    /// infeasibility, and each core-minimization trial that stayed
    /// infeasible.
    pub sat_conflicts: u64,
    /// Unit sets the ordering store's walks entered and then backed out of,
    /// having found no completion through them.
    pub sat_decisions: u64,
    /// Propose→verify→learn iterations of the SAT-guided strategy's CEGIS
    /// loop. Zero for the DFS strategy.
    pub cegis_iterations: usize,
    /// Model-checker calls of the budgeted *schedule* — the checks the
    /// paper's search issues, including the restore recheck after every DFS
    /// undo that the deferred-undo discipline folds into the next check. What
    /// [`SynthesisOptions::max_checks`] bounds.
    pub charged_calls: usize,
}

impl SynthStats {
    /// The statistics with `states_relabeled` zeroed: everything that is
    /// byte-identical for a fixed problem and options, engine-vs-fresh. The
    /// differential suites compare these views.
    pub fn schedule_view(&self) -> SynthStats {
        SynthStats {
            states_relabeled: 0,
            ..self.clone()
        }
    }
}

/// A synthesized update: the command sequence to execute, the order of atomic
/// units it corresponds to, and the work counters.
#[derive(Debug, Clone)]
pub struct UpdateSequence {
    /// The careful command sequence (after wait removal, if enabled).
    pub commands: CommandSeq,
    /// The atomic units in the order they are applied.
    pub order: Vec<UpdateUnit>,
    /// Work counters for this run.
    pub stats: SynthStats,
}

/// Reasons synthesis can fail. A failure that ran the search carries the
/// run's statistics, as a success does.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// The initial configuration already violates the specification; no
    /// update order can help.
    InitialConfigurationViolates,
    /// The final configuration violates the specification; reaching it would
    /// necessarily end in a violating state.
    FinalConfigurationViolates,
    /// No simple, careful sequence at the requested granularity satisfies the
    /// specification.
    NoOrderingExists {
        /// The evidence: a minimal set of learnt ordering constraints that
        /// admits no order (dropping any one member makes the rest
        /// satisfiable). Empty when the search proved the verdict by
        /// exhausting the space instead (see [`crate::explain`]).
        core: Vec<ConflictConstraint>,
        /// Work counters of the run that reached the verdict.
        stats: Box<SynthStats>,
    },
    /// The search exceeded its model-checking budget.
    SearchBudgetExhausted {
        /// Work counters of the run up to the point it stopped.
        stats: Box<SynthStats>,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InitialConfigurationViolates => {
                write!(f, "the initial configuration violates the specification")
            }
            SynthesisError::FinalConfigurationViolates => {
                write!(f, "the final configuration violates the specification")
            }
            SynthesisError::NoOrderingExists { core, .. } if core.is_empty() => {
                write!(
                    f,
                    "no correct ordering update exists (search space exhausted)"
                )
            }
            SynthesisError::NoOrderingExists { core, .. } => {
                write!(
                    f,
                    "no correct ordering update exists; {} ordering constraint(s) conflict:",
                    core.len()
                )?;
                core.iter().try_for_each(|c| write!(f, "\n  - {c}"))
            }
            SynthesisError::SearchBudgetExhausted { stats } => write!(
                f,
                "synthesis exceeded its model-checking budget ({} checks charged)",
                stats.charged_calls
            ),
        }
    }
}

impl SynthesisError {
    /// The statistics of a failure that ran the search; `None` for the
    /// endpoint violations, which fail before it.
    pub fn stats(&self) -> Option<&SynthStats> {
        match self {
            SynthesisError::NoOrderingExists { stats, .. }
            | SynthesisError::SearchBudgetExhausted { stats } => Some(stats),
            _ => None,
        }
    }

    /// The error with its statistics projected to their
    /// [`schedule_view`](SynthStats::schedule_view): what is byte-identical
    /// engine-vs-fresh.
    pub fn schedule_view(&self) -> SynthesisError {
        let mut view = self.clone();
        if let SynthesisError::NoOrderingExists { stats, .. }
        | SynthesisError::SearchBudgetExhausted { stats } = &mut view
        {
            **stats = stats.schedule_view();
        }
        view
    }
}

impl std::error::Error for SynthesisError {}

/// The synthesizer: owns an [`UpdateProblem`] and [`SynthesisOptions`] and
/// produces an [`UpdateSequence`] (or a [`SynthesisError`]).
#[derive(Debug)]
pub struct Synthesizer {
    problem: UpdateProblem,
    options: SynthesisOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with default options.
    pub fn new(problem: UpdateProblem) -> Self {
        Synthesizer {
            problem,
            options: SynthesisOptions::default(),
        }
    }

    /// Overrides the options.
    #[must_use]
    pub fn with_options(mut self, options: SynthesisOptions) -> Self {
        self.options = options;
        self
    }

    /// The problem being solved.
    pub fn problem(&self) -> &UpdateProblem {
        &self.problem
    }

    /// Runs the `OrderUpdate` search.
    ///
    /// This is a thin one-shot wrapper over a single-request
    /// [`UpdateEngine`](crate::UpdateEngine): the engine owns the encoder,
    /// the Kripke structures, and the checking contexts, and `synthesize`
    /// builds one for this problem, solves it, and drops it. Callers serving
    /// a *stream* of related problems should hold an engine directly so that
    /// state amortizes across requests.
    ///
    /// # Errors
    ///
    /// See [`SynthesisError`].
    pub fn synthesize(&self) -> Result<UpdateSequence, SynthesisError> {
        crate::engine::UpdateEngine::for_problem(&self.problem, self.options.clone())
            .solve(&self.problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::check_on_traces;
    use crate::options::Granularity;
    use crate::wait_removal::build_command_sequence;
    use netupd_mc::Backend;
    use netupd_model::Configuration;
    use netupd_topo::generators;
    use netupd_topo::scenario::{
        diamond_scenario, double_diamond_scenario, multi_diamond_scenario, PropertyKind,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fat_tree_problem(kind: PropertyKind, seed: u64) -> UpdateProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, kind, &mut rng).expect("diamond");
        UpdateProblem::from_scenario(&scenario)
    }

    #[test]
    fn synthesizes_reachability_preserving_update() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 3);
        let result = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("solution");
        assert!(result.commands.is_simple());
        assert!(result.commands.num_updates() > 0);
        assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
        // The committed order as a fully careful sequence (Definition 5).
        let careful = build_command_sequence(&problem.initial, &result.order);
        assert!(careful.is_careful());
        assert_eq!(check_on_traces(&problem, &careful), Ok(()));
    }

    #[test]
    fn synthesizes_waypoint_preserving_update() {
        let problem = fat_tree_problem(PropertyKind::Waypoint, 5);
        let result = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("solution");
        assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
    }

    #[test]
    fn all_backends_find_a_correct_sequence() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 8);
        for backend in Backend::ALL {
            let result = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::with_backend(backend))
                .synthesize()
                .unwrap_or_else(|e| panic!("{backend} failed: {e}"));
            assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
        }
    }

    #[test]
    fn trivial_update_returns_empty_sequence() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 3);
        let trivial = UpdateProblem::new(
            problem.topology.clone(),
            problem.initial.clone(),
            problem.initial.clone(),
            problem.classes.clone(),
            problem.ingress_hosts.clone(),
            problem.spec.clone(),
        );
        let result = Synthesizer::new(trivial).synthesize().expect("no-op");
        assert!(result.commands.is_empty());
    }

    #[test]
    fn violating_initial_configuration_is_rejected() {
        let mut problem = fat_tree_problem(PropertyKind::Reachability, 3);
        problem.initial = Configuration::new();
        assert_eq!(
            Synthesizer::new(problem).synthesize().unwrap_err(),
            SynthesisError::InitialConfigurationViolates
        );
    }

    #[test]
    fn violating_final_configuration_is_rejected() {
        let mut problem = fat_tree_problem(PropertyKind::Reachability, 3);
        problem.final_config = Configuration::new();
        // Make sure there is something to update so the check runs.
        assert!(!problem.switches_to_update().is_empty());
        assert_eq!(
            Synthesizer::new(problem).synthesize().unwrap_err(),
            SynthesisError::FinalConfigurationViolates
        );
    }

    #[test]
    fn double_diamond_is_infeasible_at_switch_granularity() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = generators::fat_tree(4);
        let scenario =
            double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("double");
        let problem = UpdateProblem::from_scenario(&scenario);
        let result = Synthesizer::new(problem.clone()).synthesize();
        match result {
            Err(SynthesisError::NoOrderingExists { .. }) => {}
            other => panic!("expected infeasibility at switch granularity, got {other:?}"),
        }
    }

    #[test]
    fn double_diamond_is_solvable_at_rule_granularity() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = generators::fat_tree(4);
        let scenario =
            double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("double");
        let problem = UpdateProblem::from_scenario(&scenario);
        let result = Synthesizer::new(problem.clone())
            .with_options(SynthesisOptions::default().granularity(Granularity::Rule))
            .synthesize()
            .expect("rule granularity solves the double diamond");
        assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
    }

    #[test]
    fn disabling_optimizations_still_synthesizes() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 21);
        let options = SynthesisOptions::default()
            .counterexamples(false)
            .early_termination(false);
        let result = Synthesizer::new(problem.clone())
            .with_options(options)
            .synthesize()
            .expect("solution without optimizations");
        assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
    }

    /// `waits_before_removal` counts the careful sequence's waits without
    /// building it.
    #[test]
    fn waits_before_removal_counts_the_careful_sequences_waits() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 3);
        let switch = problem.switches_to_update()[0];
        let one_unit = UpdateProblem::new(
            problem.topology.clone(),
            problem.initial.clone(),
            (problem.initial).updated(switch, problem.final_config.table(switch)),
            problem.classes.clone(),
            problem.ingress_hosts.clone(),
            netupd_ltl::Ltl::True,
        );
        let cases = [
            (&problem, Granularity::Switch),
            (&problem, Granularity::Rule),
            (&one_unit, Granularity::Switch),
        ];
        for (problem, granularity) in cases {
            let result = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::default().granularity(granularity))
                .synthesize()
                .expect("solution");
            let careful = build_command_sequence(&problem.initial, &result.order);
            assert_eq!(
                result.stats.waits_before_removal,
                careful.num_waits(),
                "{granularity:?}"
            );
        }
        let one = Synthesizer::new(one_unit).synthesize().expect("one unit");
        assert_eq!((one.order.len(), one.stats.waits_before_removal), (1, 0));
    }

    #[test]
    fn stats_reflect_incrementality() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 3);
        let result = Synthesizer::new(problem).synthesize().expect("solution");
        assert!(result.stats.model_checker_calls >= result.commands.num_updates());
        assert!(result.stats.states_relabeled > 0);
    }

    #[test]
    fn rule_granularity_beyond_one_word_of_units() {
        // Five diamonds at rule granularity plan 71 units: applied sets,
        // visited rows and blocked prefix sets all span two words.
        let mut rng = StdRng::seed_from_u64(3);
        let graph = generators::small_world(200, 4, 0.1, &mut rng);
        let scenario = multi_diamond_scenario(&graph, PropertyKind::Reachability, 5, &mut rng)
            .expect("five disjoint diamonds fit");
        let problem = UpdateProblem::from_scenario(&scenario);
        assert!(crate::units::plan_units(&problem, Granularity::Rule).len() > 64);
        for strategy in crate::options::SearchStrategy::ALL {
            let options = SynthesisOptions::default()
                .granularity(Granularity::Rule)
                .strategy(strategy);
            let result = Synthesizer::new(problem.clone())
                .with_options(options)
                .synthesize()
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(check_on_traces(&problem, &result.commands), Ok(()));
        }
    }
}
