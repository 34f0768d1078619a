//! Figure 7(a–c): synthesis runtime with the Incremental checker versus the
//! monolithic product checker (NuSMV stand-in) and the Batch checker, on the
//! three topology families, for the reachability property — swept across the
//! search-strategy axis (DFS and SAT-guided CEGIS).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use netupd_bench::{
    criterion_budget, diamond_workload, fmt_min_mean_max, print_header, print_row, report_samples,
    sample_synthesis_with, BenchReport, TopologyFamily,
};
use netupd_mc::Backend;
use netupd_synth::{SearchStrategy, SynthesisOptions};
use netupd_topo::scenario::PropertyKind;

const SIZES: [usize; 3] = [20, 50, 100];
const BACKENDS: [Backend; 3] = [Backend::Incremental, Backend::Batch, Backend::Product];

/// Samples per series for the machine-readable report.
const REPORT_SAMPLES: usize = 5;

fn bench_backends(c: &mut Criterion) {
    print_header(
        "Figure 7(a-c): synthesis runtime by backend (reachability)",
        &[
            "family",
            "switches",
            "backend",
            "strategy",
            "[min mean max]",
        ],
    );
    let samples_per_series = report_samples(REPORT_SAMPLES);
    let (sample_size, warm_up, measurement) = criterion_budget();
    let mut report = BenchReport::new("fig7");
    for family in TopologyFamily::ALL {
        let mut group = c.benchmark_group(format!("fig7/{}", family.name()));
        group
            .sample_size(sample_size)
            .warm_up_time(warm_up)
            .measurement_time(measurement);
        for size in SIZES {
            let workload = diamond_workload(family, size, PropertyKind::Reachability, 42);
            for backend in BACKENDS {
                // The product checker is the slow monolithic baseline; keep
                // it to the smaller instances as the paper's timeout does.
                if backend == Backend::Product && size > 50 {
                    continue;
                }
                for strategy in SearchStrategy::ALL {
                    let options = SynthesisOptions::with_backend(backend).strategy(strategy);
                    let samples =
                        sample_synthesis_with(&workload.problem, &options, samples_per_series);
                    print_row(&[
                        family.name().to_string(),
                        workload.switches.to_string(),
                        backend.to_string(),
                        strategy.to_string(),
                        fmt_min_mean_max(&samples),
                    ]);
                    // The DFS keeps the pre-axis record ids so perf
                    // trajectories across PRs stay diffable; the strategy
                    // axis extends the id.
                    let id = match strategy {
                        SearchStrategy::Dfs => {
                            format!("fig7/{}/{}/{}", family.name(), backend, size)
                        }
                        SearchStrategy::SatGuided => {
                            format!("fig7/{}/{}/{}/{}", family.name(), backend, size, strategy)
                        }
                    };
                    report.record(
                        id,
                        &[
                            ("family", family.name()),
                            ("backend", &backend.to_string()),
                            ("strategy", strategy.name()),
                            ("switches", &workload.switches.to_string()),
                            ("rules", &workload.rules.to_string()),
                        ],
                        &samples,
                    );
                    group.bench_with_input(
                        BenchmarkId::new(format!("{backend}/{strategy}"), size),
                        &workload,
                        |b, workload| {
                            b.iter(|| {
                                netupd_bench::time_synthesis_with(
                                    &workload.problem,
                                    options.clone(),
                                )
                            })
                        },
                    );
                }
            }
        }
        group.finish();
    }
    report.write().expect("write BENCH_fig7.json");
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
