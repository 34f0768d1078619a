//! A forwarding loop in an intermediate configuration is a violation: a
//! trace that enters a loop never ends, and it satisfies no specification.
//! Every backend, strategy and granularity must refuse a configuration with
//! one — neither accept it, nor panic, nor abort the process.
//!
//! The instance: switches s0–s3, h0 on s2 and h1 on s3, traffic moving from
//! s2→s1→s0→s3 to s2→s0→s1→s3. Updating s0 first closes the loop s1↔s0, and
//! the lexicographic search tries s0 first.

use netupd::kripke::NetworkKripke;
use netupd::ltl::{builders, Prop};
use netupd::mc::Backend;
use netupd::model::{Priority, SwitchId};
use netupd::serve::{ServeConfig, TenantId, UpdateServer};
use netupd::synth::exec::check_on_traces;
use netupd::synth::{Granularity, SearchStrategy, SynthesisOptions, Synthesizer, UpdateProblem};
use netupd::topo::NetworkGraph;

/// The instance and its switches `[s0, s1, s2, s3]`.
fn loop_problem() -> (UpdateProblem, [SwitchId; 4]) {
    let mut graph = NetworkGraph::new();
    let s = graph.add_switches(4);
    let h0 = graph.attach_host(s[2]);
    let h1 = graph.attach_host(s[3]);
    for (a, b) in [(2, 1), (2, 0), (1, 0), (1, 3), (0, 3)] {
        graph.connect(s[a], s[b]);
    }
    let class = NetworkGraph::class_to_host(h1);
    let initial = graph.compile_path(&[s[2], s[1], s[0], s[3]], h1, &class, Priority(10));
    let final_config = graph.compile_path(&[s[2], s[0], s[1], s[3]], h1, &class, Priority(10));
    let problem = UpdateProblem::new(
        graph.topology().clone(),
        initial,
        final_config,
        vec![class],
        vec![h0],
        builders::reachability(Prop::AtHost(h1)),
    );
    (problem, [s[0], s[1], s[2], s[3]])
}

#[test]
fn no_backend_commits_an_order_through_a_loop() {
    let (problem, _) = loop_problem();
    for backend in Backend::ALL {
        for granularity in [Granularity::Switch, Granularity::Rule] {
            for strategy in SearchStrategy::ALL {
                let label = format!("{backend}/{granularity:?}/{}", strategy.name());
                let options = SynthesisOptions::with_backend(backend)
                    .granularity(granularity)
                    .strategy(strategy);
                let result = Synthesizer::new(problem.clone())
                    .with_options(options)
                    .synthesize();
                // Updating s1 first keeps every configuration loop-free, so
                // a refusal here would be a checker rejecting a safe order.
                let update = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    check_on_traces(&problem, &update.commands),
                    Ok(()),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn check_and_recheck_report_the_loop() {
    let (problem, [s0, s1, s2, _]) = loop_problem();
    let spec = &problem.spec;
    let encoder = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
        .with_ingress_hosts(problem.ingress_hosts.iter().copied());
    let looping = problem.initial.updated(s0, problem.final_config.table(s0));
    for backend in Backend::ALL {
        let mut kripke = encoder.encode(&problem.initial);
        let mut checker = backend.instantiate();
        assert!(checker.check(&kripke, spec).holds, "{backend}");

        // Into the loop by a recheck, back out, and into it by a check.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &looping.table(s0));
        let into = checker.recheck(&kripke, spec, &changed);
        assert!(!into.holds, "{backend}: the recheck accepted a loop");
        let changed = encoder.apply_switch_update(&mut kripke, s0, &problem.initial.table(s0));
        assert!(checker.recheck(&kripke, spec, &changed).holds, "{backend}");
        encoder.reset_to(&mut kripke, &looping);
        let cold = checker.check(&kripke, spec);
        assert!(!cold.holds, "{backend}: the check accepted a loop");
        assert_eq!(into.counterexample, cold.counterexample, "{backend}");

        // The counterexample is a lasso from the ingress round the loop: a
        // constraint learnt from it names every switch on the loop.
        if let Some(lasso) = cold.counterexample {
            assert_eq!(lasso.switches[..3], [s2, s1, s0], "{backend}");
            let (last, path) = lasso.states.split_last().expect("a lasso has states");
            assert!(path.contains(last), "{backend}: the path does not close");
        } else {
            assert_eq!(
                backend,
                Backend::HeaderSpace,
                "only headerspace gives no trace"
            );
        }
    }
}

#[test]
fn a_served_request_commits_a_loop_free_order() {
    let (problem, _) = loop_problem();
    let server = UpdateServer::start(ServeConfig::default().worker_threads(1));
    let outcome = server
        .serve(TenantId(0), problem.clone())
        .expect("the request is admitted");
    let update = outcome.result.expect("an order exists");
    assert_eq!(check_on_traces(&problem, &update.commands), Ok(()));
    server.shutdown();
}
