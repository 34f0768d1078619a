//! Differential test for the long-lived `UpdateEngine`: for every backend
//! and search strategy, an engine fed a churn stream must produce
//! byte-identical `UpdateSequence`s and failures — commands, unit order,
//! verdict, core, and every statistic but `states_relabeled` — to a fresh
//! `Synthesizer` per request.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd::kripke::NetworkKripke;
use netupd::ltl::{builders, Prop};
use netupd::mc::Backend;
use netupd::model::Priority;
use netupd::synth::exec::check_on_traces;
use netupd::synth::{
    Granularity, SearchStrategy, SynthesisError, SynthesisOptions, Synthesizer, UpdateEngine,
    UpdateProblem,
};
use netupd::topo::scenario::{churn_scenarios, PropertyKind};
use netupd::topo::{generators, NetworkGraph};

/// A seeded churn stream as a vector of problems sharing one topology `Arc`.
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

/// Feeds the stream to one engine and, per request, to a fresh synthesizer;
/// commands, order, verdict, and the statistics — field for field, except
/// `states_relabeled`, the one counter reuse exists to shrink — must agree on
/// every step. A SAT-guided walk issues exactly the checks it charges.
fn assert_engine_matches_fresh(problems: &[UpdateProblem], options: SynthesisOptions) {
    let mut engine = UpdateEngine::for_problem(&problems[0], options.clone());
    for (step, problem) in problems.iter().enumerate() {
        let fresh = Synthesizer::new(problem.clone())
            .with_options(options.clone())
            .synthesize();
        let reused = engine.solve(problem);
        match (fresh, reused) {
            (Ok(f), Ok(r)) => {
                assert_eq!(f.commands, r.commands, "step {step}: commands diverged");
                assert_eq!(f.order, r.order, "step {step}: unit order diverged");
                assert_eq!(
                    f.stats.schedule_view(),
                    r.stats.schedule_view(),
                    "step {step}: statistics diverged"
                );
                if options.strategy == SearchStrategy::SatGuided {
                    assert_eq!(
                        r.stats.model_checker_calls, r.stats.charged_calls,
                        "step {step}: a charged check was not issued"
                    );
                }
            }
            (Err(f), Err(r)) => assert_eq!(
                f.schedule_view(),
                r.schedule_view(),
                "step {step}: error verdicts diverged"
            ),
            (f, r) => panic!("step {step}: verdicts diverged: fresh {f:?}, engine {r:?}"),
        }
    }
    assert_eq!(engine.rebuilds(), 0, "a churn stream must never rebuild");
}

#[test]
fn engine_matches_fresh_for_all_backends_at_one_thread() {
    let problems = churn_problems(PropertyKind::Reachability, 5, 101);
    for backend in Backend::ALL {
        assert_engine_matches_fresh(&problems, SynthesisOptions::with_backend(backend));
    }
}

#[test]
fn engine_matches_fresh_on_waypoint_churn() {
    let problems = churn_problems(PropertyKind::Waypoint, 4, 7);
    assert_engine_matches_fresh(&problems, SynthesisOptions::default());
}

#[test]
fn engine_matches_fresh_on_service_chain_churn() {
    let problems = churn_problems(PropertyKind::ServiceChain { length: 2 }, 4, 13);
    assert_engine_matches_fresh(&problems, SynthesisOptions::default());
}

#[test]
fn engine_matches_fresh_at_rule_granularity() {
    let problems = churn_problems(PropertyKind::Reachability, 3, 29);
    assert_engine_matches_fresh(
        &problems,
        SynthesisOptions::default().granularity(Granularity::Rule),
    );
}

#[test]
fn sat_guided_engine_matches_fresh_for_all_backends() {
    let problems = churn_problems(PropertyKind::Reachability, 4, 101);
    for backend in Backend::ALL {
        assert_engine_matches_fresh(
            &problems,
            SynthesisOptions::with_backend(backend).strategy(SearchStrategy::SatGuided),
        );
    }
}

#[test]
fn sat_guided_engine_matches_fresh_at_rule_granularity() {
    let problems = churn_problems(PropertyKind::Reachability, 3, 29);
    assert_engine_matches_fresh(
        &problems,
        SynthesisOptions::default()
            .strategy(SearchStrategy::SatGuided)
            .granularity(Granularity::Rule),
    );
}

/// Both strategies agree on the verdict for every step of every stream, and
/// every SatGuided-produced sequence passes an independent full-sequence
/// check through the trace semantics.
#[test]
fn strategies_agree_on_churn_stream_verdicts() {
    for (kind, steps, seed) in [
        (PropertyKind::Reachability, 4, 101),
        (PropertyKind::Waypoint, 3, 7),
        (PropertyKind::ServiceChain { length: 2 }, 3, 13),
    ] {
        let problems = churn_problems(kind, steps, seed);
        for backend in Backend::ALL {
            let dfs_options = SynthesisOptions::with_backend(backend);
            let sat_options =
                SynthesisOptions::with_backend(backend).strategy(SearchStrategy::SatGuided);
            let mut dfs_engine = UpdateEngine::for_problem(&problems[0], dfs_options);
            let mut sat_engine = UpdateEngine::for_problem(&problems[0], sat_options);
            for (step, problem) in problems.iter().enumerate() {
                let dfs = dfs_engine.solve(problem);
                let sat = sat_engine.solve(problem);
                match (&dfs, &sat) {
                    (Ok(_), Ok(sat_result)) => {
                        assert_eq!(
                            check_on_traces(problem, &sat_result.commands),
                            Ok(()),
                            "{backend} step {step}"
                        );
                    }
                    (
                        Err(SynthesisError::NoOrderingExists { .. }),
                        Err(SynthesisError::NoOrderingExists { .. }),
                    ) => {}
                    (d, s) => panic!(
                        "{backend} step {step}: strategies disagree: dfs {d:?}, sat-guided {s:?}"
                    ),
                }
            }
        }
    }
}

/// What an earlier request left on the engine reaches nothing a caller can
/// read but `states_relabeled`: every stream kind, backend, strategy and
/// granularity, warm against fresh.
#[test]
fn a_warm_engine_reports_the_statistics_of_a_fresh_one() {
    for (kind, steps, seed) in [
        (PropertyKind::Reachability, 4, 101),
        (PropertyKind::Waypoint, 4, 7),
        (PropertyKind::ServiceChain { length: 2 }, 4, 13),
    ] {
        let problems = churn_problems(kind, steps, seed);
        for backend in Backend::ALL {
            for strategy in SearchStrategy::ALL {
                for granularity in [Granularity::Switch, Granularity::Rule] {
                    assert_engine_matches_fresh(
                        &problems,
                        SynthesisOptions::with_backend(backend)
                            .strategy(strategy)
                            .granularity(granularity),
                    );
                }
            }
        }
    }
}

/// Whether each request of `problems`, in order, grows the footprint an
/// engine's encoder covers — the moments the engine re-encodes its slice and
/// starts a new series.
fn footprint_growth(problems: &[UpdateProblem]) -> Vec<bool> {
    let first = &problems[0];
    let mut encoder = NetworkKripke::new(Arc::clone(&first.topology), first.classes.clone())
        .with_ingress_hosts(first.ingress_hosts.iter().copied());
    (problems.iter())
        .map(|p| encoder.cover(&[&p.initial, &p.final_config]))
        .collect()
}

/// Figure 1's flow from `h1` to `h3`, moved along `paths` in turn: request
/// `k` takes it from `paths[k]` to `paths[k + 1]` under reachability.
fn figure1_stream(paths: &[[usize; 3]]) -> Vec<UpdateProblem> {
    let (graph, cores, aggs, tors, hosts) = generators::figure1();
    let (h1, h3) = (hosts[0], hosts[2]);
    let class = NetworkGraph::class_to_host(h3);
    let spec = builders::reachability(Prop::AtHost(h3));
    let topology = Arc::new(graph.topology().clone());
    // `[first agg, core, second agg]` between `tors[0]` and `tors[2]`.
    let compile = |[up, core, down]: [usize; 3]| {
        let path = [tors[0], aggs[up], cores[core], aggs[down], tors[2]];
        graph.compile_path(&path, h3, &class, Priority(10))
    };
    (paths.windows(2))
        .map(|w| {
            UpdateProblem::new(
                Arc::clone(&topology),
                compile(w[0]),
                compile(w[1]),
                vec![class.clone()],
                vec![h1],
                spec.clone(),
            )
        })
        .collect()
}

/// A stream whose footprint grows mid-series (the engine re-encodes its
/// slice and starts a new series, without a rebuild), and one that then
/// routes back to its first path (covered already, so served warm on the
/// grown slice): both answer like a fresh synthesizer per request.
#[test]
fn a_growing_footprint_and_a_route_back_match_fresh() {
    // The paper's red, green and blue paths.
    let (red, green, blue) = ([0, 0, 2], [0, 1, 2], [1, 0, 3]);
    let growing = figure1_stream(&[red, green, blue]);
    assert_eq!(footprint_growth(&growing), [true, true]);
    let routed_back = figure1_stream(&[red, green, blue, red]);
    assert_eq!(footprint_growth(&routed_back), [true, true, false]);
    for problem in &routed_back {
        assert!(Synthesizer::new(problem.clone()).synthesize().is_ok());
    }
    for problems in [&growing, &routed_back] {
        for backend in Backend::ALL {
            for strategy in SearchStrategy::ALL {
                assert_engine_matches_fresh(
                    problems,
                    SynthesisOptions::with_backend(backend).strategy(strategy),
                );
            }
        }
    }
}

#[test]
fn engine_amortization_shows_in_the_work_counters() {
    let problems = churn_problems(PropertyKind::Reachability, 4, 101);
    let mut engine = UpdateEngine::for_problem(&problems[0], SynthesisOptions::default());
    let mut fresh_relabeled = 0usize;
    let mut reused_relabeled = 0usize;
    for problem in &problems {
        let fresh = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("fresh solves");
        let reused = engine.solve(problem).expect("engine solves");
        fresh_relabeled += fresh.stats.states_relabeled;
        reused_relabeled += reused.stats.states_relabeled;
    }
    assert!(
        reused_relabeled < fresh_relabeled,
        "engine reuse must relabel fewer states across the stream: {reused_relabeled} vs {fresh_relabeled}"
    );
}

/// A request whose *final* configuration violates the specification is
/// answered on the engine's one search structure (the final-configuration
/// check goes there by diff) and must leave no trace: the rejection matches
/// the one-shot path, and every later request of the stream commits the
/// commands and order a fresh `Synthesizer` would, with the same statistics.
#[test]
fn a_rejected_final_configuration_leaves_no_trace_on_a_warm_engine() {
    let problems = churn_problems(PropertyKind::Reachability, 4, 101);
    let mut broken = problems[1].clone();
    broken.final_config = netupd::model::Configuration::new();
    assert!(!broken.switches_to_update().is_empty());
    for backend in Backend::ALL {
        for strategy in SearchStrategy::ALL {
            let options = SynthesisOptions::with_backend(backend).strategy(strategy);
            let label = format!("{backend} {}", options.strategy);
            let fresh = |problem: &UpdateProblem| {
                Synthesizer::new(problem.clone())
                    .with_options(options.clone())
                    .synthesize()
            };
            let mut engine = UpdateEngine::for_problem(&problems[0], options.clone());
            engine.solve(&problems[0]).expect("warm-up solve");
            assert_eq!(
                fresh(&broken).unwrap_err(),
                SynthesisError::FinalConfigurationViolates,
                "{label}: fresh"
            );
            assert_eq!(
                engine.solve(&broken).unwrap_err(),
                SynthesisError::FinalConfigurationViolates,
                "{label}: engine"
            );
            for (step, problem) in problems.iter().enumerate() {
                let f = fresh(problem).expect("fresh solves");
                let r = engine.solve(problem).expect("engine solves");
                assert_eq!(f.commands, r.commands, "{label} step {step}: commands");
                assert_eq!(f.order, r.order, "{label} step {step}: unit order");
                assert_eq!(
                    f.stats.schedule_view(),
                    r.stats.schedule_view(),
                    "{label} step {step}: schedule"
                );
            }
            assert_eq!(engine.rebuilds(), 0, "{label}");
        }
    }
}
