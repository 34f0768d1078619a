//! Differential test for the multi-tenant serving layer: for every backend
//! and search strategy, requests served through an `UpdateServer` —
//! concurrent tenants, shared worker fleet, pooled engines — must produce
//! byte-identical `UpdateSequence`s (commands, unit order, verdict) to a
//! fresh `Synthesizer` per request. Plus the backpressure contract: shed
//! requests are reported with typed errors and counted, never silently
//! dropped, and never perturb the results of admitted requests.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd::mc::Backend;
use netupd::serve::{AdmissionError, ServeConfig, ServeOutcome, TenantId, UpdateServer};
use netupd::synth::{SearchStrategy, SynthesisError, SynthesisOptions, Synthesizer, UpdateProblem};
use netupd::topo::generators;
use netupd::topo::scenario::{double_diamond_scenario, multi_tenant_churn_streams, PropertyKind};

/// A seeded multi-tenant workload: per-tenant chained churn streams over one
/// shared fat-tree topology.
fn tenant_streams(tenants: usize, steps: usize, seed: u64) -> Vec<Vec<UpdateProblem>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::fat_tree(4);
    let streams =
        multi_tenant_churn_streams(&graph, PropertyKind::Reachability, tenants, steps, &mut rng)
            .expect("streams generate");
    let topology = Arc::new(graph.topology().clone());
    streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .map(|s| UpdateProblem::from_scenario_shared(s, Arc::clone(&topology)))
                .collect()
        })
        .collect()
}

/// Asserts one served outcome against a fresh per-request synthesis of the
/// same problem under the same options: everything but `states_relabeled`,
/// which engine reuse shrinks, on success and failure alike.
fn assert_matches_fresh(
    outcome: &ServeOutcome,
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    label: &str,
) {
    let fresh = Synthesizer::new(problem.clone())
        .with_options(options.clone())
        .synthesize();
    match (&fresh, &outcome.result) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.commands, s.commands, "{label}: commands diverged");
            assert_eq!(f.order, s.order, "{label}: unit order diverged");
            assert_eq!(
                f.stats.schedule_view(),
                s.stats.schedule_view(),
                "{label}: statistics diverged"
            );
        }
        (Err(f), Err(s)) => assert_eq!(
            f.schedule_view(),
            s.schedule_view(),
            "{label}: error verdicts diverged"
        ),
        (f, s) => panic!("{label}: verdicts diverged: fresh {f:?}, served {s:?}"),
    }
}

/// Submits every tenant's stream (interleaved round-robin by step), waits,
/// and checks each served result against fresh synthesis.
fn assert_serve_matches_fresh(
    streams: &[Vec<UpdateProblem>],
    options: SynthesisOptions,
    config: ServeConfig,
    label: &str,
) {
    let steps = streams.first().map_or(0, Vec::len);
    let server = UpdateServer::start(config.options(options.clone()));
    let mut submitted = Vec::new();
    for step in 0..steps {
        for (t, stream) in streams.iter().enumerate() {
            let problem = &stream[step];
            let handle = server
                .submit(TenantId(t as u64), problem.clone())
                .expect("test limits admit the whole workload");
            submitted.push((format!("{label}: tenant {t} step {step}"), problem, handle));
        }
    }
    for (request_label, problem, handle) in submitted {
        assert_matches_fresh(&handle.wait(), problem, &options, &request_label);
    }
    let metrics = server.shutdown();
    assert_eq!(
        metrics.completed,
        streams.len() * steps,
        "{label}: all served"
    );
    assert_eq!(
        metrics.shed_tenant + metrics.shed_global,
        0,
        "{label}: no sheds"
    );
}

#[test]
fn serve_matches_fresh_for_every_backend_and_strategy() {
    let streams = tenant_streams(3, 2, 71);
    for backend in Backend::ALL {
        for strategy in SearchStrategy::ALL {
            let options = SynthesisOptions::with_backend(backend).strategy(strategy);
            assert_serve_matches_fresh(
                &streams,
                options,
                ServeConfig::default().worker_threads(4),
                &format!("{backend}/{}", strategy.name()),
            );
        }
    }
}

#[test]
fn serve_matches_fresh_under_constant_eviction() {
    // A one-engine pool under four tenants: every request cold-starts on a
    // new engine. Eviction must be invisible in results, for every backend.
    let streams = tenant_streams(4, 2, 79);
    let steps = streams[0].len();
    for backend in Backend::ALL {
        let options = SynthesisOptions::with_backend(backend);
        let config = ServeConfig::default()
            .worker_threads(2)
            .shards(1)
            .engines_per_shard(1);
        let server = UpdateServer::start(config.options(options.clone()));
        let mut submitted = Vec::new();
        for step in 0..steps {
            for (t, stream) in streams.iter().enumerate() {
                let handle = server
                    .submit(TenantId(t as u64), stream[step].clone())
                    .expect("admitted");
                submitted.push((
                    format!("{backend}/evict: tenant {t} step {step}"),
                    &stream[step],
                    handle,
                ));
            }
        }
        for (label, problem, handle) in submitted {
            assert_matches_fresh(&handle.wait(), problem, &options, &label);
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 8, "{backend}");
        assert!(
            metrics.engines_evicted > 0,
            "{backend}: a one-engine pool under four tenants must evict"
        );
    }
}

#[test]
fn infeasible_requests_get_the_same_verdict_served_as_fresh() {
    // A double diamond is infeasible at switch granularity: the serve path
    // must report the exact NoOrderingExists verdict fresh synthesis does —
    // core and statistics included — for every backend, while solvable
    // tenants share the fleet.
    let mut rng = StdRng::seed_from_u64(83);
    let graph = generators::fat_tree(4);
    let infeasible = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("double diamond generates");
    let infeasible_problem = UpdateProblem::from_scenario(&infeasible);
    let streams = tenant_streams(2, 2, 89);

    for backend in Backend::ALL {
        let options = SynthesisOptions::with_backend(backend);
        let server = UpdateServer::start(
            ServeConfig::default()
                .options(options.clone())
                .worker_threads(3),
        );
        let mut handles = Vec::new();
        for (t, stream) in streams.iter().enumerate() {
            for problem in stream {
                handles.push((
                    problem,
                    server
                        .submit(TenantId(t as u64), problem.clone())
                        .expect("admitted"),
                ));
            }
        }
        let infeasible_handle = server
            .submit(TenantId(9), infeasible_problem.clone())
            .expect("admitted");

        let outcome = infeasible_handle.wait();
        match &outcome.result {
            // HeaderSpace reports no counterexamples, so its search exhausts
            // the space and its core is empty; the core is compared below.
            Err(SynthesisError::NoOrderingExists { stats, .. }) => {
                assert!(stats.charged_calls > 0, "{backend}: no statistics");
            }
            other => panic!("{backend}: expected infeasibility, got {other:?}"),
        }
        assert_matches_fresh(
            &outcome,
            &infeasible_problem,
            &options,
            &format!("{backend}/infeasible"),
        );
        for (problem, handle) in handles {
            assert_matches_fresh(
                &handle.wait(),
                problem,
                &options,
                &format!("{backend}/solvable"),
            );
        }
        server.shutdown();
    }
}

#[test]
fn backpressure_sheds_loudly_and_never_corrupts_admitted_streams() {
    let streams = tenant_streams(2, 3, 97);
    let options = SynthesisOptions::default();
    let server = UpdateServer::start(
        ServeConfig::default()
            .options(options.clone())
            .worker_threads(1)
            .tenant_queue_limit(2)
            .global_queue_limit(4)
            .paused(true),
    );
    let (t0, t1) = (TenantId(0), TenantId(1));

    // Tenant 0: steps 0 and 1 fit; step 2 overflows the tenant queue.
    let admitted_a = server.submit(t0, streams[0][0].clone()).expect("fits");
    let admitted_b = server.submit(t0, streams[0][1].clone()).expect("fits");
    let shed = server.submit(t0, streams[0][2].clone()).unwrap_err();
    assert_eq!(
        shed,
        AdmissionError::TenantQueueFull {
            tenant: t0,
            depth: 2,
            limit: 2
        }
    );
    assert!(
        shed.to_string().contains("tenant-0"),
        "typed error displays"
    );

    // Fill the global backlog, then overflow it with a third tenant.
    let admitted_c = server.submit(t1, streams[1][0].clone()).expect("fits");
    let admitted_d = server.submit(t1, streams[1][1].clone()).expect("fits");
    let shed_global = server
        .submit(TenantId(2), streams[1][2].clone())
        .unwrap_err();
    assert_eq!(
        shed_global,
        AdmissionError::Overloaded {
            pending: 4,
            limit: 4
        }
    );

    // Every shed is counted — nothing is silently dropped.
    let metrics = server.metrics();
    assert_eq!(metrics.submitted, 4);
    assert_eq!(metrics.shed_tenant, 1);
    assert_eq!(metrics.shed_global, 1);
    assert_eq!(metrics.completed, 0, "paused fleet served nothing yet");

    // After resume, every admitted request is served exactly as fresh
    // synthesis would — the sheds did not perturb the admitted streams.
    server.resume();
    for (label, problem, handle) in [
        ("t0 step 0", &streams[0][0], admitted_a),
        ("t0 step 1", &streams[0][1], admitted_b),
        ("t1 step 0", &streams[1][0], admitted_c),
        ("t1 step 1", &streams[1][1], admitted_d),
    ] {
        assert_matches_fresh(&handle.wait(), problem, &options, label);
    }
    let final_metrics = server.shutdown();
    assert_eq!(final_metrics.completed, 4);
    assert_eq!(final_metrics.shed_tenant, 1);
    assert_eq!(final_metrics.shed_global, 1);
}
