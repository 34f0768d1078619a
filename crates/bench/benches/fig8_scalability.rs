//! Figure 8(g): scalability of the Incremental backend on Small-World
//! topologies of increasing size, for the three property families — swept
//! across the search-strategy axis (DFS and SAT-guided).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use netupd_bench::{
    criterion_budget, fmt_min_mean_max, multi_diamond_workload, print_header, print_row,
    report_samples, sample_synthesis_with, time_synthesis_with, BenchReport, TopologyFamily,
};
use netupd_mc::Backend;
use netupd_synth::{SearchStrategy, SynthesisOptions};
use netupd_topo::scenario::PropertyKind;

const SIZES: [usize; 3] = [50, 100, 200];
const PROPERTIES: [PropertyKind; 3] = [
    PropertyKind::Reachability,
    PropertyKind::Waypoint,
    PropertyKind::ServiceChain { length: 3 },
];

/// Samples per series for the machine-readable report.
const REPORT_SAMPLES: usize = 5;

fn bench_scalability(c: &mut Criterion) {
    print_header(
        "Figure 8(g): Incremental scalability on Small-World topologies",
        &[
            "property",
            "switches",
            "updating switches",
            "strategy",
            "[min mean max]",
        ],
    );
    let samples_per_series = report_samples(REPORT_SAMPLES);
    let (sample_size, warm_up, measurement) = criterion_budget();
    let mut report = BenchReport::new("fig8");
    let mut group = c.benchmark_group("fig8_scalability");
    group
        .sample_size(sample_size)
        .warm_up_time(warm_up)
        .measurement_time(measurement);
    for property in PROPERTIES {
        for size in SIZES {
            let workload = multi_diamond_workload(TopologyFamily::SmallWorld, size, property, 4, 7);
            for strategy in SearchStrategy::ALL {
                let options =
                    SynthesisOptions::with_backend(Backend::Incremental).strategy(strategy);
                let samples =
                    sample_synthesis_with(&workload.problem, &options, samples_per_series);
                print_row(&[
                    property.name().to_string(),
                    workload.switches.to_string(),
                    workload.scenario.updating_switches().to_string(),
                    strategy.to_string(),
                    fmt_min_mean_max(&samples),
                ]);
                // The DFS keeps the pre-axis record ids so perf trajectories
                // across PRs stay diffable.
                let id = match strategy {
                    SearchStrategy::Dfs => format!("fig8/{}/{}", property.name(), size),
                    SearchStrategy::SatGuided => {
                        format!("fig8/{}/{}/{}", property.name(), size, strategy)
                    }
                };
                report.record(
                    id,
                    &[
                        ("property", property.name()),
                        ("backend", "incremental"),
                        ("strategy", strategy.name()),
                        ("switches", &workload.switches.to_string()),
                        (
                            "updating_switches",
                            &workload.scenario.updating_switches().to_string(),
                        ),
                    ],
                    &samples,
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/{}", property.name(), strategy), size),
                    &workload,
                    |b, workload| {
                        b.iter(|| time_synthesis_with(&workload.problem, options.clone()))
                    },
                );
            }
        }
    }
    group.finish();
    report.write().expect("write BENCH_fig8.json");
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
