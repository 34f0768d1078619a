//! Differential test for the prefix-checkpoint cache: the cache changes
//! *work*, never *answers*. For every backend and search strategy, a run
//! with the cache enabled must produce byte-identical results — commands,
//! unit order, verdict, and every schedule-determined counter under
//! `schedule_view()` — to a run with the cache disabled
//! (`checkpoint_budget(0)`).
//!
//! The second half covers churn streams: a long-lived `UpdateEngine` with
//! the cache persists checkpoints across requests (previous final config =
//! next initial config), and must still match the cache-off engine step for
//! step.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd::mc::Backend;
use netupd::synth::{
    SearchStrategy, SynthesisError, SynthesisOptions, Synthesizer, UpdateEngine, UpdateProblem,
    UpdateSequence,
};
use netupd::topo::generators;
use netupd::topo::scenario::{churn_scenarios, diamond_scenario, PropertyKind};

/// A feasible service-chaining diamond on a fat tree — enough units that the
/// search backtracks and the SAT-guided loop iterates, so the cache sees
/// repeated prefixes.
fn chain_problem() -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(2024);
    let graph = generators::fat_tree(4);
    let scenario = diamond_scenario(&graph, PropertyKind::ServiceChain { length: 2 }, &mut rng)
        .expect("fat-trees admit diamond scenarios");
    UpdateProblem::from_scenario(&scenario)
}

/// Asserts two synthesize outcomes are byte-identical in everything the
/// deterministic schedule pins down.
fn assert_identical(
    on: &Result<UpdateSequence, SynthesisError>,
    off: &Result<UpdateSequence, SynthesisError>,
    label: &str,
) {
    match (on, off) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.commands, b.commands, "{label}: commands diverged");
            assert_eq!(a.order, b.order, "{label}: unit order diverged");
            assert_eq!(
                a.stats.schedule_view(),
                b.stats.schedule_view(),
                "{label}: schedule-determined counters diverged"
            );
        }
        (Err(a), Err(b)) => match (a, b) {
            (SynthesisError::NoOrderingExists { .. }, SynthesisError::NoOrderingExists { .. }) => {}
            _ => assert_eq!(a, b, "{label}: error verdicts diverged"),
        },
        (a, b) => panic!("{label}: verdicts diverged: cache-on {a:?}, cache-off {b:?}"),
    }
}

/// The full matrix: cache on/off × 4 backends × 2 strategies, all
/// byte-identical.
#[test]
fn cache_on_off_is_byte_identical_across_the_matrix() {
    let problem = chain_problem();
    for backend in Backend::ALL {
        for strategy in SearchStrategy::ALL {
            let base = SynthesisOptions::with_backend(backend).strategy(strategy);
            let on = Synthesizer::new(problem.clone())
                .with_options(base.clone())
                .synthesize();
            let off = Synthesizer::new(problem.clone())
                .with_options(base.checkpoint_budget(0))
                .synthesize();
            assert_identical(&on, &off, &format!("{backend}/{strategy:?}"));
        }
    }
}

/// Cache-off runs must report no cache activity, and the cache-on DFS on a
/// backtracking instance must actually hit (re-visited prefix sets
/// are the point of the cache).
#[test]
fn cache_counters_reflect_the_budget_switch() {
    let problem = chain_problem();
    let off = Synthesizer::new(problem.clone())
        .with_options(SynthesisOptions::default().checkpoint_budget(0))
        .synthesize()
        .expect("feasible");
    assert_eq!(off.stats.checkpoint_hits, 0, "cache off: no hits");
    assert_eq!(off.stats.checkpoint_restores, 0, "cache off: no restores");
    assert_eq!(off.stats.checkpoint_bytes, 0, "cache off: nothing resident");

    let on = Synthesizer::new(problem)
        .with_options(SynthesisOptions::default())
        .synthesize()
        .expect("feasible");
    assert!(on.stats.checkpoint_bytes > 0, "cache on: entries resident");
    assert!(
        on.stats.model_checker_calls <= on.stats.charged_calls,
        "physical checks never exceed the charged schedule"
    );
}

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

/// Two engines — cache on and cache off — fed the same churn stream must
/// agree on every request, and the cache-on engine must hit across requests
/// (the previous final configuration is the next initial one).
#[test]
fn churn_stream_cache_on_off_is_byte_identical() {
    for strategy in SearchStrategy::ALL {
        let problems = churn_problems(PropertyKind::Reachability, 5, 101);
        let base = SynthesisOptions::default().strategy(strategy);
        let mut on = UpdateEngine::for_problem(&problems[0], base.clone());
        let mut off = UpdateEngine::for_problem(&problems[0], base.clone().checkpoint_budget(0));
        let mut total_hits = 0usize;
        for (step, problem) in problems.iter().enumerate() {
            let a = on.solve(problem);
            let b = off.solve(problem);
            if let Ok(update) = &a {
                total_hits += update.stats.checkpoint_hits;
            }
            assert_identical(&a, &b, &format!("{strategy:?} step {step}"));
        }
        assert!(
            total_hits > 0,
            "{strategy:?}: a churn stream must hit the persisted cache"
        );
    }
}

/// Churn with every backend: the snapshot/restore path differs per backend
/// (full checker-state clones for Incremental, path-cache clones for
/// HeaderSpace, marker snapshots for Batch/Product), and each must stay
/// invisible in results.
#[test]
fn churn_stream_cache_on_off_per_backend() {
    for backend in Backend::ALL {
        let problems = churn_problems(PropertyKind::Waypoint, 4, 7);
        let base = SynthesisOptions::with_backend(backend);
        let mut on = UpdateEngine::for_problem(&problems[0], base.clone());
        let mut off = UpdateEngine::for_problem(&problems[0], base.clone().checkpoint_budget(0));
        for (step, problem) in problems.iter().enumerate() {
            let a = on.solve(problem);
            let b = off.solve(problem);
            assert_identical(&a, &b, &format!("{backend} step {step}"));
        }
    }
}
