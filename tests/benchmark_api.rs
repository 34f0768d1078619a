//! The public API the repo benchmark compiles against.
//!
//! `benchmark/` is a workspace of its own, so `cargo build && cargo test` at
//! the root never compiles it, and a change that renames or removes something
//! it imports would break the performance gate unnoticed. This suite *uses*
//! exactly what `benchmark/src` imports from `netupd_synth` and
//! `netupd_serve`, and the checker-layer and oracle entry points its layer
//! replay and correctness check call — by the same paths, with the field
//! types it relies on — so tier-1 stops compiling when one of them moves.
//! Keep it in step with `benchmark/src/{workloads,run,replay,oracle,report}.rs`;
//! it asserts little beyond that each entry point answers a small request.

use std::sync::Arc;
use std::time::Duration;

use netupd_kripke::{Kripke, NetworkKripke};
use netupd_ltl::{semantics, Closure};
use netupd_mc::{Backend, SequenceStep};
use netupd_model::Network;
use netupd_serve::{
    EngineUse, MetricsSnapshot, ResponseHandle, ServeConfig, TenantId, UpdateServer,
};
use netupd_synth::{
    constraints::UnitOrdering, units::plan_units, wait_removal::remove_unnecessary_waits,
    Granularity, SearchStrategy, SynthStats, SynthesisError, SynthesisOptions, Synthesizer,
    UpdateEngine, UpdateProblem, UpdateSequence,
};
use netupd_topo::generators;
use netupd_topo::scenario::{churn_scenarios, double_diamond_scenario, PropertyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn churn_problems(steps: usize) -> Vec<UpdateProblem> {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::fat_tree(4);
    let scenarios =
        churn_scenarios(&graph, PropertyKind::Reachability, steps, &mut rng).expect("churn");
    let topology = Arc::new(graph.topology().clone());
    scenarios
        .iter()
        .map(|s| UpdateProblem::from_scenario_shared(s, Arc::clone(&topology)))
        .collect()
}

/// The thirteen counters `benchmark/src/run.rs` sums, with the integer types
/// it converts them from.
fn read_counters(stats: &SynthStats) -> u64 {
    let sizes: [usize; 10] = [
        stats.charged_calls,
        stats.backtracks,
        stats.counterexamples_learnt,
        stats.configurations_pruned,
        stats.sat_constraints,
        stats.waits_before_removal,
        stats.waits_after_removal,
        stats.cegis_iterations,
        stats.model_checker_calls,
        stats.states_relabeled,
    ];
    let wide: [u64; 2] = [stats.sat_conflicts, stats.sat_decisions];
    sizes.iter().map(|v| *v as u64).sum::<u64>() + wide.iter().sum::<u64>()
}

#[test]
fn one_shot_synthesis_under_both_benchmark_strategies() {
    let problem = churn_problems(1).remove(0);
    for strategy in [SearchStrategy::Dfs, SearchStrategy::SatGuided] {
        let options = SynthesisOptions::default().strategy(strategy);
        let update: UpdateSequence = Synthesizer::new(problem.clone())
            .with_options(options)
            .synthesize()
            .expect("churn steps are solvable");
        assert!(update.commands.num_updates() > 0);
        assert!(read_counters(&update.stats) > 0);
    }
}

#[test]
fn the_known_infeasible_answer_and_the_granularity_option() {
    let mut rng = StdRng::seed_from_u64(17);
    let graph = generators::fat_tree(4);
    let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("double diamond");
    let problem = UpdateProblem::from_scenario(&scenario);
    let at = |granularity| {
        Synthesizer::new(problem.clone())
            .with_options(SynthesisOptions::default().granularity(granularity))
            .synthesize()
    };
    let infeasible = at(Granularity::Switch);
    assert!(matches!(
        infeasible,
        Err(SynthesisError::NoOrderingExists { .. })
    ));
    // `run.rs` counts a repeat whose error differs by `==` as a failed
    // request, so a fresh verdict, statistics included, must repeat exactly.
    assert_eq!(
        at(Granularity::Switch).unwrap_err(),
        infeasible.unwrap_err()
    );
    assert!(at(Granularity::Rule).is_ok());
}

#[test]
fn an_engine_serves_a_stream_without_rebuilding() {
    let problems = churn_problems(3);
    let options = SynthesisOptions::default().strategy(SearchStrategy::SatGuided);
    let mut engine = UpdateEngine::for_problem(&problems[0], options);
    for problem in &problems {
        engine.solve(problem).expect("churn steps are solvable");
    }
    assert_eq!(engine.rebuilds(), 0);
}

#[test]
fn the_layer_replay_entry_points() {
    let problem = churn_problems(1).remove(0);
    let options = SynthesisOptions::default();
    let update = Synthesizer::new(problem.clone())
        .with_options(options.clone())
        .synthesize()
        .expect("solvable");
    // `options.granularity` is read as a field.
    let units = plan_units(&problem, options.granularity);
    let order: Vec<usize> = update
        .order
        .iter()
        .map(|unit| units.iter().position(|u| u == unit).expect("planned unit"))
        .collect();
    // Pin the committed order pair by pair, proposing after each, as the
    // replay does.
    let mut ordering = UnitOrdering::new(units.len());
    let mut proposal = ordering.propose();
    for pair in order.windows(2) {
        ordering.require_some_before(&pair[..1], &pair[1..]);
        proposal = ordering.propose();
    }
    assert_eq!(proposal.as_deref(), Some(&order[..]));
    let solver = ordering.solver_stats();
    let _: [u64; 2] = [solver.decisions, solver.conflicts];
    let _: [usize; 2] = [solver.clauses, solver.vars];
    let commands = remove_unnecessary_waits(&problem, &update.order);
    assert_eq!(commands.num_waits(), update.stats.waits_after_removal);
}

#[test]
fn the_server_surface_of_the_open_loop_workload() {
    let problems = churn_problems(2);
    let config = ServeConfig::default()
        .worker_threads(1)
        .shards(4)
        .engines_per_shard(64)
        .tenant_queue_limit(problems.len())
        .global_queue_limit(problems.len());
    let server = UpdateServer::start(config);
    let handles: Vec<ResponseHandle> = problems
        .iter()
        .map(|problem| {
            server
                .submit(TenantId(3), problem.clone())
                .expect("limits admit the stream")
        })
        .collect();
    let mut uses = Vec::new();
    for handle in handles {
        let outcome = handle.wait();
        assert!(outcome.result.is_ok());
        let _: Duration = outcome.metrics.queue_wait + outcome.metrics.service_time;
        uses.push(outcome.metrics.engine);
    }
    assert_eq!(uses, [EngineUse::Miss, EngineUse::Hit]);
    let snapshot: MetricsSnapshot = server.metrics();
    assert_eq!(snapshot.submitted - snapshot.completed, 0);
    assert_eq!(snapshot.engines_evicted, 0);
}

/// The calls `benchmark/src/replay.rs` makes below the synthesizer, and the
/// ones `benchmark/src/oracle.rs` makes to judge a committed sequence.
#[test]
fn the_checker_layer_and_oracle_entry_points() {
    let problem = churn_problems(1).remove(0);
    let spec = &problem.spec;
    let update = Synthesizer::new(problem.clone())
        .synthesize()
        .expect("solvable");

    let encoder = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
        .with_ingress_hosts(problem.ingress_hosts.iter().copied());
    let mut kripke: Kripke = encoder.encode(&problem.initial);
    let sizes: [usize; 3] = [
        Closure::new(spec).len(),
        kripke.len(),
        kripke.num_transitions(),
    ];
    assert!(sizes.iter().all(|&size| size > 0), "{sizes:?}");
    let mut checker = Backend::Incremental.instantiate();
    assert!(checker.check(&kripke, spec).holds);
    let mut config = problem.initial.clone();
    let mut steps = Vec::new();
    for unit in &update.order {
        let table = unit.apply(&config);
        let changed = encoder.apply_switch_update(&mut kripke, unit.switch(), &table);
        assert!(checker.recheck(&kripke, spec, &changed).holds);
        config.set_table(unit.switch(), table.clone());
        steps.push(SequenceStep {
            switch: unit.switch(),
            table,
        });
    }

    let changed = encoder.reset_to(&mut kripke, &problem.initial);
    assert!(!changed.is_empty());
    for backend in [Backend::Incremental, Backend::Batch] {
        let mut kripke = encoder.encode(&problem.initial);
        let mut checker = backend.instantiate();
        checker.check(&kripke, spec);
        let walked = checker.check_sequence(&encoder, &mut kripke, spec, &[], &steps);
        assert_eq!(walked.first_failure, None, "{backend}");
    }

    let network = Network::new(problem.topology.clone(), config);
    for class in &problem.classes {
        for host in &problem.ingress_hosts {
            let (switch, port) = problem
                .topology
                .switch_of_host(*host)
                .expect("ingress hosts are attached");
            for trace in network.traces_from(switch, port, class) {
                assert!(semantics::satisfies(&trace, spec), "{trace}");
            }
        }
    }
}
