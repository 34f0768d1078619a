//! Integration tests for the infeasibility experiments (Figure 8(h)/(i)):
//! double-diamond workloads have no switch-granularity ordering update but
//! are solvable at rule granularity — under *both* search strategies, which
//! must agree on every verdict.

use netupd_synth::{
    Granularity, SearchStrategy, SynthesisError, SynthesisOptions, Synthesizer, UpdateProblem,
};
use netupd_topo::generators;
use netupd_topo::scenario::{double_diamond_scenario, PropertyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn double_diamond_problem(seed: u64) -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::fat_tree(4);
    let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("double diamond");
    UpdateProblem::from_scenario(&scenario)
}

#[test]
fn double_diamonds_are_infeasible_at_switch_granularity() {
    for strategy in SearchStrategy::ALL {
        let mut infeasible = 0;
        for seed in [17u64, 23, 41] {
            let problem = double_diamond_problem(seed);
            let result = Synthesizer::new(problem)
                .with_options(SynthesisOptions::default().strategy(strategy))
                .synthesize();
            match result {
                Err(SynthesisError::NoOrderingExists { .. }) => infeasible += 1,
                Ok(_) => {}
                Err(other) => panic!("{strategy}: unexpected error: {other}"),
            }
        }
        assert!(
            infeasible >= 2,
            "{strategy}: expected most double-diamond instances to be switch-infeasible, got {infeasible}/3"
        );
    }
}

#[test]
fn double_diamonds_are_solvable_at_rule_granularity() {
    for strategy in SearchStrategy::ALL {
        for seed in [17u64, 23] {
            let problem = double_diamond_problem(seed);
            let result = Synthesizer::new(problem.clone())
                .with_options(
                    SynthesisOptions::default()
                        .strategy(strategy)
                        .granularity(Granularity::Rule),
                )
                .synthesize();
            // Rule granularity decouples the two flows' rules, so these
            // instances become solvable.
            let result = result.unwrap_or_else(|e| panic!("{strategy} seed {seed}: {e}"));
            assert!(result.commands.num_updates() > problem.switches_to_update().len());
        }
    }
}

/// The two strategies must return the same verdict on every instance —
/// including the seeds where the double diamond happens to be solvable.
#[test]
fn strategies_agree_on_every_infeasibility_verdict() {
    for seed in [17u64, 23, 41, 59] {
        for granularity in [Granularity::Switch, Granularity::Rule] {
            let problem = double_diamond_problem(seed);
            let dfs = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::default().granularity(granularity))
                .synthesize();
            let sat = Synthesizer::new(problem)
                .with_options(
                    SynthesisOptions::default()
                        .strategy(SearchStrategy::SatGuided)
                        .granularity(granularity),
                )
                .synthesize();
            match (&dfs, &sat) {
                (Ok(_), Ok(_)) => {}
                (
                    Err(SynthesisError::NoOrderingExists { .. }),
                    Err(SynthesisError::NoOrderingExists { .. }),
                ) => {}
                other => panic!("seed {seed} {granularity:?}: verdicts diverged: {other:?}"),
            }
        }
    }
}

/// Both strategies' constraint-proven verdicts carry a minimal core, in
/// switch terms, and the statistics of the run that proved it.
#[test]
fn engine_explains_constraint_proven_infeasibility() {
    use netupd_synth::{ConflictConstraint, UpdateEngine};
    // Per seed: the DFS's charged calls and core size at the point its early
    // termination fires — pinned so that it cannot start firing later.
    for (seed, dfs_charged, dfs_core) in [(17u64, 17, 8), (23, 9, 4)] {
        let problem = double_diamond_problem(seed);
        let updating = problem.switches_to_update();
        for strategy in [SearchStrategy::SatGuided, SearchStrategy::Dfs] {
            let context = format!("{strategy} seed {seed}");
            let mut engine =
                UpdateEngine::for_problem(&problem, SynthesisOptions::default().strategy(strategy));
            let error = engine.solve(&problem).expect_err(&context);
            let SynthesisError::NoOrderingExists { core, stats } = &error else {
                panic!("{context}: expected infeasibility, got {error:?}");
            };
            assert!(!core.is_empty(), "{context}: empty conflicting set");
            assert!(
                stats.sat_conflicts > 0,
                "{context}: no refuting walk counted"
            );
            if strategy == SearchStrategy::Dfs {
                assert_eq!(stats.charged_calls, dfs_charged, "{context}");
                assert_eq!(core.len(), dfs_core, "{context}");
            }
            // A switch that is not being updated can be "updated before"
            // nothing: an explanation names only switches the operator can
            // reorder.
            for constraint in core {
                let named: Vec<_> = match constraint {
                    ConflictConstraint::SomeBefore { before, after } => {
                        before.iter().chain(after).collect()
                    }
                    ConflictConstraint::PrefixSet { applied } => applied.iter().collect(),
                };
                for switch in named {
                    assert!(
                        updating.contains(switch),
                        "{context}: {constraint} names {switch}, which is not being updated"
                    );
                }
            }
            let text = error.to_string();
            assert!(
                text.contains(&format!("{} ordering constraint(s) conflict", core.len())),
                "{context}: unreadable rendering: {text}"
            );
        }
    }
}

/// A search cut short by `max_checks` reports how far it got. The DFS stops
/// at the first candidate past the budget, so it charged the budget or, when
/// the budget ran out on a failed check, that check's undo beside it.
/// SAT-guided demands a whole pass up front, so it stays within the budget,
/// and its store counters are filled as on its other exits.
#[test]
fn an_exhausted_budget_carries_the_statistics_of_the_run() {
    let problem = double_diamond_problem(17);
    for max_checks in [4, 5, 9] {
        for strategy in SearchStrategy::ALL {
            let options = SynthesisOptions {
                max_checks,
                ..SynthesisOptions::default().strategy(strategy)
            };
            let context = format!("{strategy} budget {max_checks}");
            let result = Synthesizer::new(problem.clone())
                .with_options(options)
                .synthesize();
            let Err(SynthesisError::SearchBudgetExhausted { stats }) = result else {
                panic!("{context}: expected exhaustion, got {result:?}");
            };
            let charged = stats.charged_calls;
            match strategy {
                SearchStrategy::Dfs => assert!(
                    (max_checks..=max_checks + 1).contains(&charged),
                    "{context}: charged {charged}"
                ),
                SearchStrategy::SatGuided => {
                    assert!(charged <= max_checks, "{context}: charged {charged}");
                    assert!(
                        stats.cegis_iterations > 0,
                        "{context}: store counters unfilled"
                    );
                }
            }
        }
    }
}

/// A double diamond beside updates no flow can observe: the 37 other
/// switches of a `k = 6` fat tree gain a rule for a destination no host has.
/// The conflict names only the diamond's switches, so refuting it must not
/// enumerate subsets of the others — under the SAT-guided strategy too,
/// which learns its counterexamples' clauses, not its failing prefix sets.
#[test]
fn sat_guided_refutes_a_double_diamond_beside_thirty_free_switches() {
    use netupd_model::{Field, Pattern, Priority, Rule};
    use netupd_synth::{ConflictConstraint, UpdateEngine};

    let mut rng = StdRng::seed_from_u64(17);
    let graph = generators::fat_tree(6);
    let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("double diamond");
    let mut problem = UpdateProblem::from_scenario(&scenario);
    let diamond = problem.switches_to_update();
    let unobserved = Rule::new(
        Priority(1),
        Pattern::any().with_field(Field::Dst, u64::from(u32::MAX)),
        Vec::new(),
    );
    for &switch in problem.topology.switches() {
        if !diamond.contains(&switch) {
            let mut table = problem.final_config.table(switch);
            table.add_rule(unobserved.clone());
            problem.final_config.set_table(switch, table);
        }
    }
    let units = problem.switches_to_update().len();
    assert!(units >= diamond.len() + 30, "{units} units");

    let options = SynthesisOptions::default().strategy(SearchStrategy::SatGuided);
    let mut engine = UpdateEngine::for_problem(&problem, options);
    let (core, stats) = match engine.solve(&problem) {
        Err(SynthesisError::NoOrderingExists { core, stats }) if !core.is_empty() => (core, stats),
        other => panic!("expected constraint-proven infeasibility, got {other:?}"),
    };
    for constraint in &core {
        let named: Vec<_> = match constraint {
            ConflictConstraint::SomeBefore { before, after } => {
                before.iter().chain(after).collect()
            }
            ConflictConstraint::PrefixSet { applied } => applied.iter().collect(),
        };
        assert!(
            named.iter().all(|switch| diamond.contains(switch)),
            "{constraint} names a switch outside the diamond"
        );
    }
    let backed_out = stats.sat_decisions;
    assert!(
        backed_out <= (units * units) as u64,
        "backed out of {backed_out} sets over {units} units"
    );
}

#[test]
fn infeasibility_report_comes_with_learning_statistics() {
    let problem = double_diamond_problem(17);
    // Run without early termination so the search itself (with pruning)
    // exhausts the space; it must still report infeasibility.
    let result = Synthesizer::new(problem)
        .with_options(SynthesisOptions::default().early_termination(false))
        .synthesize();
    match result {
        Err(SynthesisError::NoOrderingExists { core, stats }) => {
            assert!(core.is_empty(), "no constraint walk ran, so no core");
            assert!(stats.counterexamples_learnt > 0);
            assert!(stats.backtracks > 0);
        }
        other => panic!("expected exhaustion-based infeasibility, got {other:?}"),
    }
}
