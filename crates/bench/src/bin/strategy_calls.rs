//! One-shot strategy-comparison harness behind the EXPERIMENTS.md "Search
//! strategies" tables: per-shape model-checker calls, charged budgets, and
//! CEGIS iteration counts for the DFS and the SAT-guided strategy on the
//! fig7/fig8 workloads (Incremental backend).
//!
//! All printed counts are deterministic — one run per shape is the protocol.
//! Times are indicative only. Run with:
//! `cargo run --release -p netupd-bench --bin strategy_calls`

use netupd_bench::{
    diamond_workload, multi_diamond_workload, print_header, print_row, time_synthesis_with,
    TopologyFamily, Workload,
};
use netupd_mc::Backend;
use netupd_synth::{SearchStrategy, SynthStats, SynthesisOptions};
use netupd_topo::scenario::PropertyKind;

fn shapes() -> Vec<(String, Workload)> {
    let mut shapes = Vec::new();
    for family in [
        TopologyFamily::Wan,
        TopologyFamily::FatTree,
        TopologyFamily::SmallWorld,
    ] {
        for size in [20usize, 100] {
            shapes.push((
                format!("fig7/{}/{}", family.name(), size),
                diamond_workload(family, size, PropertyKind::Reachability, 42),
            ));
        }
    }
    for (property, sizes) in [
        (PropertyKind::Reachability, &[50usize, 200][..]),
        (PropertyKind::Waypoint, &[100, 200][..]),
        (PropertyKind::ServiceChain { length: 3 }, &[100, 200][..]),
    ] {
        for &size in sizes {
            shapes.push((
                format!("fig8/{}/{}", property.name(), size),
                multi_diamond_workload(TopologyFamily::SmallWorld, size, property, 4, 7),
            ));
        }
    }
    shapes
}

fn run(workload: &Workload, strategy: SearchStrategy) -> (SynthStats, f64) {
    let options = SynthesisOptions::with_backend(Backend::Incremental).strategy(strategy);
    let single = time_synthesis_with(&workload.problem, options);
    let stats = single
        .outcome
        .expect("strategy-comparison shapes are solvable");
    (stats, single.elapsed.as_secs_f64() * 1e3)
}

fn main() {
    print_header(
        "Strategy comparison: model-checker calls and charged budgets (incremental)",
        &[
            "shape",
            "dfs calls",
            "sat calls",
            "cegis iters",
            "dfs charged",
            "sat charged",
            "dfs ms",
            "sat ms",
        ],
    );
    for (name, workload) in shapes() {
        let (dfs, dfs_ms) = run(&workload, SearchStrategy::Dfs);
        let (sat, sat_ms) = run(&workload, SearchStrategy::SatGuided);
        print_row(&[
            name,
            dfs.model_checker_calls.to_string(),
            sat.model_checker_calls.to_string(),
            sat.cegis_iterations.to_string(),
            dfs.charged_calls.to_string(),
            sat.charged_calls.to_string(),
            format!("{dfs_ms:.2}"),
            format!("{sat_ms:.2}"),
        ]);
    }
}
