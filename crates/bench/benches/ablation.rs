//! Ablation study: the contribution of each optimization the paper describes
//! (§4.2) — counterexample pruning, SAT-based early termination, and the
//! incremental checker itself — measured on the same workload, plus the
//! SAT-guided strategy.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use netupd_bench::{
    diamond_workload, double_diamond_workload, fmt_ms, infeasible_stats, print_header, print_row,
    time_synthesis_with, TopologyFamily,
};
use netupd_mc::Backend;
use netupd_synth::{SearchStrategy, SynthesisOptions};
use netupd_topo::scenario::PropertyKind;

fn configurations() -> Vec<(&'static str, SynthesisOptions)> {
    vec![
        ("all optimizations", SynthesisOptions::default()),
        (
            "no counterexample pruning",
            SynthesisOptions::default().counterexamples(false),
        ),
        (
            "no early termination",
            SynthesisOptions::default().early_termination(false),
        ),
        (
            "batch checker",
            SynthesisOptions::with_backend(Backend::Batch),
        ),
        (
            "sat-guided strategy",
            SynthesisOptions::default().strategy(SearchStrategy::SatGuided),
        ),
    ]
}

fn bench_ablation(c: &mut Criterion) {
    let feasible = diamond_workload(TopologyFamily::SmallWorld, 100, PropertyKind::Waypoint, 13);
    let infeasible =
        double_diamond_workload(TopologyFamily::FatTree, 50, PropertyKind::Reachability, 17);

    print_header(
        "Ablation: effect of each optimization",
        &[
            "workload",
            "configuration",
            "runtime",
            "mc calls",
            "charged",
            "states relabeled",
            "sat conflicts/clauses/decisions",
            "unsat core",
            "cegis iters",
        ],
    );
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (workload_name, workload) in [
        ("feasible diamond", &feasible),
        ("infeasible double-diamond", &infeasible),
    ] {
        for (name, options) in configurations() {
            // Without counterexample pruning the search on an infeasible
            // instance degenerates to enumerating all orders; skip that
            // combination (the paper's tool always learns from
            // counterexamples when the backend provides them).
            if workload_name.starts_with("infeasible") && name == "no counterexample pruning" {
                continue;
            }
            let single = time_synthesis_with(&workload.problem, options.clone());
            // Infeasible runs return no stats through the `Result`; recover
            // them from the engine's explanation side channel so the counter
            // columns stay populated on the double-diamond rows (where the
            // unsat-core size is actually meaningful).
            let row_stats = match &single.outcome {
                Ok(stats) => Some(stats.clone()),
                Err(_) => infeasible_stats(&workload.problem, &options),
            };
            let (calls, charged, relabeled, sat, core, iters) = match &row_stats {
                Some(stats) => (
                    stats.model_checker_calls.to_string(),
                    stats.charged_calls.to_string(),
                    stats.states_relabeled.to_string(),
                    format!(
                        "{}/{}/{}",
                        stats.sat_conflicts, stats.sat_clauses, stats.sat_decisions
                    ),
                    stats.unsat_core_size.to_string(),
                    stats.cegis_iterations.to_string(),
                ),
                None => (
                    "0".to_string(),
                    "0".to_string(),
                    "0".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "0".to_string(),
                ),
            };
            print_row(&[
                workload_name.to_string(),
                name.to_string(),
                fmt_ms(single.elapsed),
                calls,
                charged,
                relabeled,
                sat,
                core,
                iters,
            ]);
            group.bench_function(format!("{workload_name}/{name}"), |b| {
                b.iter(|| time_synthesis_with(&workload.problem, options.clone()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
