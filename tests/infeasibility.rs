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

/// The engine surfaces a minimal-core explanation for constraint-proven
/// infeasibility under both strategies that produce one (SAT-guided and the
/// sequential DFS), and clears it on the next request.
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
            match engine.solve(&problem) {
                Err(SynthesisError::NoOrderingExists {
                    proven_by_constraints: true,
                }) => {}
                other => {
                    panic!("{context}: expected constraint-proven infeasibility, got {other:?}")
                }
            }
            let explanation = engine
                .last_explanation()
                .unwrap_or_else(|| panic!("{context}: no explanation recorded"));
            assert!(
                !explanation.constraints.is_empty(),
                "{context}: empty conflicting set"
            );
            assert_eq!(
                explanation.stats.unsat_core_size,
                explanation.constraints.len(),
                "{context}: core size must match the explanation"
            );
            if strategy == SearchStrategy::Dfs {
                assert_eq!(explanation.stats.charged_calls, dfs_charged, "{context}");
                assert_eq!(explanation.stats.unsat_core_size, dfs_core, "{context}");
            }
            // A switch that is not being updated can be "updated before"
            // nothing: an explanation names only switches the operator can
            // reorder.
            for constraint in &explanation.constraints {
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
            let text = explanation.to_string();
            assert!(
                text.contains("constraint(s) conflict"),
                "{context}: unreadable rendering: {text}"
            );

            // A subsequent request clears the stale explanation.
            let trivial = UpdateProblem::new(
                std::sync::Arc::clone(&problem.topology),
                problem.initial.clone(),
                problem.initial.clone(),
                problem.classes.clone(),
                problem.ingress_hosts.clone(),
                problem.spec.clone(),
            );
            engine.solve(&trivial).expect("no-op update");
            assert!(
                engine.last_explanation().is_none(),
                "{context}: explanation must clear on the next request"
            );
        }
    }
}

/// A double diamond beside updates no flow can observe: the 37 other
/// switches of a `k = 6` fat tree gain a rule for a destination no host has.
/// The conflict names only the diamond's switches, so refuting it must not
/// enumerate subsets of the others — under the SAT-guided strategy too,
/// whose prefix-set blocks name every unit.
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
    match engine.solve(&problem) {
        Err(SynthesisError::NoOrderingExists {
            proven_by_constraints: true,
        }) => {}
        other => panic!("expected constraint-proven infeasibility, got {other:?}"),
    }
    let explanation = engine.last_explanation().expect("an explanation");
    for constraint in &explanation.constraints {
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
    let backed_out = explanation.stats.sat_decisions;
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
        Err(SynthesisError::NoOrderingExists {
            proven_by_constraints,
        }) => assert!(!proven_by_constraints),
        other => panic!("expected exhaustion-based infeasibility, got {other:?}"),
    }
}
