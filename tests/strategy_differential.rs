//! Differential tests for the pluggable search strategies.
//!
//! `SearchStrategy::SatGuided` must, on every example scenario shipped with
//! the repository, for every backend:
//!
//! * produce a *verified* update sequence — independently re-checked by
//!   `exec::check_on_traces`, which replays every prefix through the trace
//!   semantics with no model checker involved;
//! * be *deterministic* — a second run returns byte-identical commands,
//!   order, verdict, and statistics;
//! * *agree with DFS on the verdict* — both find an order or both report
//!   that none exists (the orders themselves may differ: each is verified
//!   independently).

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd::ltl::{builders, Ltl, Prop};
use netupd::mc::Backend;
use netupd::model::{Configuration, Priority};
use netupd::synth::exec::check_on_traces;
use netupd::synth::{
    Granularity, SearchStrategy, SynthStats, SynthesisError, SynthesisOptions, Synthesizer,
    UpdateEngine, UpdateProblem, UpdateSequence,
};
use netupd::topo::scenario::{
    diamond_scenario, double_diamond_scenario, multi_diamond_scenario, PropertyKind,
};
use netupd::topo::{generators, NetworkGraph};

fn synthesize(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
) -> Result<UpdateSequence, SynthesisError> {
    Synthesizer::new(problem.clone())
        .with_options(options.clone())
        .synthesize()
}

/// The statistics of a run, on every exit that carries them.
fn stats_of(result: &Result<UpdateSequence, SynthesisError>) -> Option<&SynthStats> {
    match result {
        Ok(update) => Some(&update.stats),
        Err(error) => error.stats(),
    }
}

/// A SAT-guided run learns exactly one clause per failed walk: the
/// counterexample's when the backend reports one at switch granularity,
/// otherwise the failing prefix set's. A run never mixes the two, so it
/// learns a counterexample on every failed walk or on none. Holds on every
/// exit that carries statistics.
fn assert_one_clause_per_failed_walk(
    result: &Result<UpdateSequence, SynthesisError>,
    context: &str,
) {
    let Some(stats) = stats_of(result) else {
        return;
    };
    assert_eq!(
        stats.sat_constraints, stats.backtracks,
        "{context}: clauses learnt against failed walks"
    );
    assert!(
        [0, stats.backtracks].contains(&stats.counterexamples_learnt),
        "{context}: {} counterexamples over {} failed walks",
        stats.counterexamples_learnt,
        stats.backtracks
    );
}

/// Runs SatGuided twice (byte-identical including stats), verifies the
/// sequence independently, and checks verdict agreement with DFS.
fn assert_sat_guided_verified(problem: &UpdateProblem, options: SynthesisOptions, context: &str) {
    let sat_options = options.clone().strategy(SearchStrategy::SatGuided);
    let first = synthesize(problem, &sat_options);
    let second = synthesize(problem, &sat_options);
    assert_one_clause_per_failed_walk(&first, context);
    match (&first, &second) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.commands, b.commands,
                "{context}: commands not deterministic"
            );
            assert_eq!(a.order, b.order, "{context}: order not deterministic");
            assert_eq!(a.stats, b.stats, "{context}: stats not deterministic");
            assert!(
                a.stats.cegis_iterations >= 1,
                "{context}: no CEGIS iteration"
            );
            assert_eq!(check_on_traces(problem, &a.commands), Ok(()), "{context}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{context}: error verdict not deterministic"),
        other => panic!("{context}: verdicts diverged between identical runs: {other:?}"),
    }
    // Verdict agreement with DFS.
    let dfs = synthesize(problem, &options.strategy(SearchStrategy::Dfs));
    match (&dfs, &first) {
        (Ok(_), Ok(_)) => {}
        // The verdict kind only: the strategies charge and learn differently.
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "{context}: DFS and SatGuided error verdicts diverged: {a} vs {b}"
        ),
        other => panic!("{context}: DFS and SatGuided verdicts diverged: {other:?}"),
    }
}

/// The full matrix for one problem: all backends.
fn assert_strategies_agree_everywhere(problem: &UpdateProblem, base: SynthesisOptions) {
    for backend in Backend::ALL {
        let options = SynthesisOptions {
            backend,
            ..base.clone()
        };
        assert_sat_guided_verified(problem, options, &backend.to_string());
    }
}

// ---- the example scenarios --------------------------------------------------

/// `examples/quickstart.rs`: Figure 1, red path to green path under
/// reachability.
fn quickstart_problem() -> UpdateProblem {
    let (graph, cores, aggs, tors, hosts) = generators::figure1();
    let (h1, h3) = (hosts[0], hosts[2]);
    let red = vec![tors[0], aggs[0], cores[0], aggs[2], tors[2]];
    let green = vec![tors[0], aggs[0], cores[1], aggs[2], tors[2]];
    let class = NetworkGraph::class_to_host(h3);
    let initial = graph.compile_path(&red, h3, &class, Priority(10));
    let final_config = graph.compile_path(&green, h3, &class, Priority(10));
    let spec = builders::reachability(Prop::AtHost(h3));
    UpdateProblem::new(
        graph.topology().clone(),
        initial,
        final_config,
        vec![class],
        vec![h1],
        spec,
    )
}

/// `examples/waypoint_maintenance.rs`: Figure 1, red path to blue path with
/// middlebox traversal.
fn waypoint_problem() -> UpdateProblem {
    let (graph, cores, aggs, tors, hosts) = generators::figure1();
    let (h1, h3) = (hosts[0], hosts[2]);
    let red = vec![tors[0], aggs[0], cores[0], aggs[2], tors[2]];
    let blue = vec![tors[0], aggs[1], cores[0], aggs[3], tors[2]];
    let class = NetworkGraph::class_to_host(h3);
    let initial = graph.compile_path(&red, h3, &class, Priority(10));
    let final_config = graph.compile_path(&blue, h3, &class, Priority(10));
    let spec = Ltl::and(
        builders::reachability(Prop::AtHost(h3)),
        builders::one_of_waypoints(
            &[Prop::Switch(aggs[1]), Prop::Switch(aggs[2])],
            Prop::AtHost(h3),
        ),
    );
    UpdateProblem::new(
        graph.topology().clone(),
        initial,
        final_config,
        vec![class],
        vec![h1],
        spec,
    )
}

/// `examples/firewall_chain.rs`: a service-chaining diamond on a FatTree.
fn firewall_chain_problem() -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(2024);
    let graph = generators::fat_tree(4);
    let scenario = diamond_scenario(&graph, PropertyKind::ServiceChain { length: 2 }, &mut rng)
        .expect("fat-trees admit diamond scenarios");
    UpdateProblem::from_scenario(&scenario)
}

/// `examples/rule_granularity.rs`: the double-diamond, infeasible at switch
/// granularity, solvable at rule granularity.
fn double_diamond_problem() -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(17);
    let graph = generators::fat_tree(4);
    let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("double diamond");
    UpdateProblem::from_scenario(&scenario)
}

#[test]
fn quickstart_scenario_sat_guided() {
    assert_strategies_agree_everywhere(&quickstart_problem(), SynthesisOptions::default());
}

#[test]
fn waypoint_scenario_sat_guided() {
    assert_strategies_agree_everywhere(&waypoint_problem(), SynthesisOptions::default());
}

#[test]
fn firewall_chain_scenario_sat_guided() {
    assert_strategies_agree_everywhere(&firewall_chain_problem(), SynthesisOptions::default());
}

#[test]
fn double_diamond_sat_guided_verdicts() {
    let problem = double_diamond_problem();
    // Infeasible at switch granularity: both strategies must say so; the
    // SAT-guided strategy proves it from the clause set.
    assert_strategies_agree_everywhere(&problem, SynthesisOptions::default());
    // Solvable at rule granularity — exercises the set-blocking clause path
    // (counterexample formulas are switch-granularity only).
    assert_strategies_agree_everywhere(
        &problem,
        SynthesisOptions::default().granularity(Granularity::Rule),
    );
}

#[test]
fn sat_guided_infeasibility_comes_with_a_core() {
    let problem = double_diamond_problem();
    let result = Synthesizer::new(problem)
        .with_options(SynthesisOptions::default().strategy(SearchStrategy::SatGuided))
        .synthesize();
    match result {
        Err(SynthesisError::NoOrderingExists { core, .. }) => assert!(
            !core.is_empty(),
            "the SAT-guided strategy always proves infeasibility from the clause set"
        ),
        other => panic!("expected infeasibility, got {other:?}"),
    }
}

#[test]
fn sat_guided_learns_one_clause_per_failed_walk() {
    // Every backend, both granularities, and solved, infeasible and
    // budget-exhausted runs. A backend that reports counterexamples learns
    // them at switch granularity; everything else learns prefix sets.
    let problems = [
        ("quickstart", quickstart_problem()),
        ("waypoint", waypoint_problem()),
        ("firewall chain", firewall_chain_problem()),
        ("double diamond", double_diamond_problem()),
        ("two diamonds", small_world_two_diamonds_problem()),
    ];
    let (mut solved, mut infeasible, mut exhausted) = (0, 0, 0);
    let (mut with_counterexamples, mut with_prefix_sets) = (0, 0);
    for (name, problem) in &problems {
        for backend in Backend::ALL {
            for granularity in [Granularity::Switch, Granularity::Rule] {
                for max_checks in [8, SynthesisOptions::default().max_checks] {
                    let options = SynthesisOptions {
                        max_checks,
                        ..SynthesisOptions::with_backend(backend)
                            .granularity(granularity)
                            .strategy(SearchStrategy::SatGuided)
                    };
                    let context = format!("{name} {backend} {granularity:?} budget {max_checks}");
                    let result = synthesize(problem, &options);
                    assert_one_clause_per_failed_walk(&result, &context);
                    match &result {
                        Ok(_) => solved += 1,
                        Err(SynthesisError::NoOrderingExists { .. }) => infeasible += 1,
                        Err(SynthesisError::SearchBudgetExhausted { .. }) => exhausted += 1,
                        Err(other) => panic!("{context}: {other}"),
                    }
                    match stats_of(&result) {
                        Some(stats) if stats.backtracks > 0 && stats.counterexamples_learnt > 0 => {
                            with_counterexamples += 1
                        }
                        Some(stats) if stats.backtracks > 0 => with_prefix_sets += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(solved > 0 && infeasible > 0 && exhausted > 0);
    assert!(with_counterexamples > 0 && with_prefix_sets > 0);
}

#[test]
fn sat_guided_rejects_violating_configurations() {
    let options = SynthesisOptions::default().strategy(SearchStrategy::SatGuided);
    let mut problem = quickstart_problem();
    problem.initial = Configuration::new();
    assert_eq!(
        synthesize(&problem, &options).unwrap_err(),
        SynthesisError::InitialConfigurationViolates
    );
    let mut problem = quickstart_problem();
    problem.final_config = Configuration::new();
    assert!(!problem.switches_to_update().is_empty());
    assert_eq!(
        synthesize(&problem, &options).unwrap_err(),
        SynthesisError::FinalConfigurationViolates
    );
}

#[test]
fn sat_guided_stats_are_coherent() {
    let problem = firewall_chain_problem();
    let result = synthesize(
        &problem,
        &SynthesisOptions::default().strategy(SearchStrategy::SatGuided),
    )
    .expect("solvable");
    // The store's size is surfaced: the constraints learnt from this run's
    // failed proposals.
    assert!(result.stats.sat_constraints > 0);
    assert!(result.stats.cegis_iterations >= 1);
    // The DFS consults the same store but takes no proposal from it.
    let dfs = synthesize(&problem, &SynthesisOptions::default()).expect("solvable");
    assert_eq!(dfs.stats.cegis_iterations, 0);
}

/// Two diamonds on a 120-switch Small-World graph: 32 units, 22 CEGIS
/// iterations, 21 counterexamples on the DFS's path.
fn small_world_two_diamonds_problem() -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(10);
    let graph = generators::small_world(120, 4, 0.1, &mut rng);
    let scenario = multi_diamond_scenario(&graph, PropertyKind::Reachability, 2, &mut rng)
        .expect("two disjoint diamonds fit");
    UpdateProblem::from_scenario(&scenario)
}

#[test]
fn sat_guided_proposals_stay_out_of_the_solver() {
    // Every proposal is one walk over the applied-unit sets the learnt
    // clauses leave open; on this store no walk backs out of a set. The
    // committed sequence is the DFS's.
    let problem = small_world_two_diamonds_problem();
    let sat = synthesize(
        &problem,
        &SynthesisOptions::default().strategy(SearchStrategy::SatGuided),
    )
    .expect("solvable");
    let dfs = synthesize(&problem, &SynthesisOptions::default()).expect("solvable");
    assert_eq!(sat.commands, dfs.commands);
    assert!(sat.stats.cegis_iterations >= 10, "too easy to gate on");
    assert_eq!(sat.stats.sat_decisions, 0);
}

#[test]
fn dfs_early_termination_stays_out_of_the_solver() {
    // The DFS asks the same store only "is any order left?": one walk per
    // fresh clause, none of which backs out of a set. The search itself must
    // not move.
    let problem = small_world_two_diamonds_problem();
    let stats = synthesize(&problem, &SynthesisOptions::default())
        .expect("solvable")
        .stats;
    assert_eq!(stats.sat_decisions, 0);
    assert_eq!(stats.charged_calls, 76);
    assert_eq!(stats.configurations_pruned, 132);
    assert_eq!(stats.cegis_iterations, 0);
}

#[test]
fn dfs_prunes_the_same_without_early_termination() {
    // Early termination only stops the search; what the counterexamples
    // prune (`W`) does not depend on it. On solvable problems the DFS walks
    // the same path either way, and on the double diamond it runs out of
    // candidates instead of out of orders.
    let default = SynthesisOptions::default();
    let exhaustive = SynthesisOptions::default().early_termination(false);
    for (name, problem) in [
        ("quickstart", quickstart_problem()),
        ("waypoint", waypoint_problem()),
        ("firewall chain", firewall_chain_problem()),
    ] {
        let with = synthesize(&problem, &default).expect("solvable");
        let without = synthesize(&problem, &exhaustive).expect("solvable");
        assert_eq!(with.commands, without.commands, "{name}");
        assert_eq!(
            with.stats.configurations_pruned, without.stats.configurations_pruned,
            "{name}"
        );
        assert_eq!(
            with.stats.charged_calls, without.stats.charged_calls,
            "{name}"
        );
        assert!(without.stats.configurations_pruned > 0, "{name}");
    }
    match synthesize(&double_diamond_problem(), &exhaustive) {
        Err(SynthesisError::NoOrderingExists { core, .. }) => assert!(core.is_empty()),
        other => panic!("expected an exhausted search, got {other:?}"),
    }
}

#[test]
fn a_trivial_update_charges_its_one_check_under_both_strategies() {
    // No switch changes: one initial check, no final check, no search. Both
    // strategies issue that one check and must charge it — SAT-guided used
    // to report `charged_calls = 0` here because it wrote the charge only at
    // the end of its loop.
    let base = quickstart_problem();
    let trivial = UpdateProblem::new(
        base.topology.clone(),
        base.initial.clone(),
        base.initial.clone(),
        base.classes.clone(),
        base.ingress_hosts.clone(),
        base.spec.clone(),
    );
    for strategy in SearchStrategy::ALL {
        let options = SynthesisOptions::default().strategy(strategy);
        let fresh = synthesize(&trivial, &options).expect("no-op update");
        assert!(fresh.commands.is_empty(), "{strategy}");
        assert_eq!(fresh.stats.charged_calls, 1, "{strategy} fresh");
        assert_eq!(fresh.stats.model_checker_calls, 1, "{strategy} fresh");
        // A warm engine issues and charges the same one check.
        let mut engine = UpdateEngine::for_problem(&base, options);
        engine.solve(&base).expect("warm-up solve");
        let served = engine.solve(&trivial).expect("no-op update");
        assert_eq!(served.stats.charged_calls, 1, "{strategy} engine");
        assert_eq!(served.stats.model_checker_calls, 1, "{strategy} engine");
    }
}

#[test]
fn a_fresh_request_labels_the_network_once() {
    // A fresh request labels the structure in full once — the initial
    // question — and asks everything else by diff on that same structure:
    // it pays exactly one full labelling more than the same request on an
    // engine whose structure already stands at `initial`. The structure is
    // the update's footprint, not the topology (under a quarter of it here),
    // so the whole request costs less than one whole-topology labelling.
    let problem = small_world_two_diamonds_problem();
    let mut encoder =
        netupd::kripke::NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
            .with_ingress_hosts(problem.ingress_hosts.iter().copied());
    let whole = encoder.encode(&problem.initial).len();
    assert!(encoder.cover(&[&problem.initial, &problem.final_config]));
    let states = encoder.encode(&problem.initial).len();
    assert!(
        4 * states < whole,
        "the footprint holds {states} of the topology's {whole} states"
    );
    let at_initial = UpdateProblem {
        final_config: problem.initial.clone(),
        ..problem.clone()
    };
    for strategy in SearchStrategy::ALL {
        let options = SynthesisOptions::with_backend(Backend::Incremental).strategy(strategy);
        let fresh = synthesize(&problem, &options).expect("solvable").stats;
        assert!(
            (states..whole).contains(&fresh.states_relabeled),
            "{strategy}: {} states relabeled on a {states}-state footprint of {whole}",
            fresh.states_relabeled
        );
        // Cover the footprint, then park the structure at `initial`.
        let mut engine = UpdateEngine::for_problem(&problem, options);
        engine.solve(&problem).expect("solvable");
        engine.solve(&at_initial).expect("no-op update");
        let warm = engine.solve(&problem).expect("solvable").stats;
        assert_eq!(
            fresh.states_relabeled,
            warm.states_relabeled + states,
            "{strategy}: a fresh request pays other than one full labelling"
        );
    }
}

#[test]
fn dfs_charges_one_undo_per_check_off_the_committed_path() {
    // The DFS charges every check and every undo, and undoes every check
    // but the endpoints' and those of the committed path. So a solved run
    // over n ≥ 1 units charges `2·checks − n − 2`, and a run that exhausts
    // the space (no core) undoes every search check: `2·checks − 2`.
    let problems = [
        ("quickstart", quickstart_problem()),
        ("waypoint", waypoint_problem()),
        ("firewall chain", firewall_chain_problem()),
        ("double diamond", double_diamond_problem()),
        ("two diamonds", small_world_two_diamonds_problem()),
    ];
    let (mut solved, mut exhausted) = (0, 0);
    for (name, problem) in &problems {
        for backend in Backend::ALL {
            for granularity in [Granularity::Switch, Granularity::Rule] {
                for early_termination in [true, false] {
                    let options = SynthesisOptions::with_backend(backend)
                        .granularity(granularity)
                        .early_termination(early_termination);
                    let context =
                        format!("{name} {backend} {granularity:?} early {early_termination}");
                    match synthesize(problem, &options) {
                        Ok(update) if !update.order.is_empty() => {
                            let (checks, n) =
                                (update.stats.model_checker_calls, update.order.len());
                            assert_eq!(update.stats.charged_calls, 2 * checks - n - 2, "{context}");
                            solved += 1;
                        }
                        Err(SynthesisError::NoOrderingExists { core, stats })
                            if core.is_empty() =>
                        {
                            let checks = stats.model_checker_calls;
                            assert_eq!(stats.charged_calls, 2 * checks - 2, "{context}");
                            exhausted += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(
        solved > 0 && exhausted > 0,
        "{solved} solved, {exhausted} exhausted"
    );
}
