//! # netupd-bench
//!
//! Shared harness code for the benchmarks that reproduce the evaluation
//! section of *Efficient Synthesis of Network Updates* (PLDI 2015).
//!
//! Each Criterion bench target under `benches/` regenerates one table or
//! figure of the paper (see `DESIGN.md` for the full index) and, in addition
//! to the Criterion timing data, prints the measured series in a compact
//! textual table so the shape of the result can be compared against the
//! paper directly. `EXPERIMENTS.md` records that comparison.
//!
//! The helpers here generate deterministic workloads (seeded RNG) so that
//! every run of the harness measures the same instances.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;

pub use report::{fmt_min_mean_max, BenchRecord, BenchReport};

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd_mc::Backend;
use netupd_synth::{
    Granularity, SynthStats, SynthesisError, SynthesisOptions, Synthesizer, UpdateEngine,
    UpdateProblem,
};
use netupd_topo::scenario::{
    diamond_scenario, double_diamond_scenario, multi_diamond_scenario, PropertyKind,
};
use netupd_topo::{generators, NetworkGraph, UpdateScenario};

/// Returns `true` when `NETUPD_BENCH_FAST` is set (to anything but `0`):
/// the benches then use reduced sample counts and measurement budgets so the
/// CI `bench-smoke` job finishes quickly while still producing complete
/// `BENCH_*.json` reports.
pub fn fast_mode() -> bool {
    std::env::var("NETUPD_BENCH_FAST").is_ok_and(|v| v != "0")
}

/// Number of samples for the machine-readable report series: 2 in
/// [`fast_mode`] (CI smoke), otherwise the `NETUPD_BENCH_SAMPLES`
/// environment override or `default` raised to at least 5 — two samples
/// proved too noisy, so the figure benches always collect enough for a
/// stable mean.
pub fn report_samples(default: usize) -> usize {
    if fast_mode() {
        return 2;
    }
    if let Some(samples) = std::env::var("NETUPD_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
    {
        return samples;
    }
    default.max(5)
}

/// Criterion sampling settings `(sample_size, warm_up, measurement)` for the
/// figure benches, shrunk in [`fast_mode`].
pub fn criterion_budget() -> (usize, Duration, Duration) {
    if fast_mode() {
        (2, Duration::from_millis(20), Duration::from_millis(100))
    } else {
        (10, Duration::from_millis(200), Duration::from_millis(800))
    }
}

/// The topology families used across the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// Synthetic wide-area topologies (Topology Zoo stand-in).
    Wan,
    /// k-ary FatTree datacenter topologies.
    FatTree,
    /// Watts–Strogatz Small-World topologies.
    SmallWorld,
}

impl TopologyFamily {
    /// All families, in the order the paper's Figure 7 columns use.
    pub const ALL: [TopologyFamily; 3] = [
        TopologyFamily::Wan,
        TopologyFamily::FatTree,
        TopologyFamily::SmallWorld,
    ];

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyFamily::Wan => "wan-zoo",
            TopologyFamily::FatTree => "fat-tree",
            TopologyFamily::SmallWorld => "small-world",
        }
    }

    /// Generates a topology of roughly `size` switches from this family.
    pub fn generate(self, size: usize, seed: u64) -> NetworkGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            TopologyFamily::Wan => generators::waxman(size.max(4), 0.4, 0.15, &mut rng),
            TopologyFamily::FatTree => {
                // Choose the smallest even arity whose fat-tree has at least
                // `size` switches: 5k^2/4 switches for arity k.
                let mut k = 2;
                while 5 * k * k / 4 < size {
                    k += 2;
                }
                generators::fat_tree(k)
            }
            TopologyFamily::SmallWorld => generators::small_world(size.max(4), 4, 0.1, &mut rng),
        }
    }
}

/// A generated workload instance for one data point.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The scenario (topology + configurations + specification).
    pub scenario: UpdateScenario,
    /// The synthesis problem derived from the scenario.
    pub problem: UpdateProblem,
    /// Number of switches in the topology.
    pub switches: usize,
    /// Number of rules across initial and final configurations.
    pub rules: usize,
}

/// Generates a single-flow diamond workload.
pub fn diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    seed: u64,
) -> Workload {
    let graph = family.generate(size, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let scenario = diamond_scenario(&graph, kind, &mut rng)
        .or_else(|| {
            let mut retry = StdRng::seed_from_u64(seed.wrapping_add(1));
            diamond_scenario(&graph, kind, &mut retry)
        })
        .expect("generated topologies admit a diamond");
    let problem = UpdateProblem::from_scenario(&scenario);
    Workload {
        switches: graph.num_switches(),
        rules: scenario.total_rules(),
        problem,
        scenario,
    }
}

/// Generates a workload with several diamonds so that many switches update,
/// the knob used by the scalability experiments (Figure 8(g)).
pub fn multi_diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    flows: usize,
    seed: u64,
) -> Workload {
    let graph = family.generate(size, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    let scenario = multi_diamond_scenario(&graph, kind, flows, &mut rng)
        .expect("generated topologies admit diamonds");
    let problem = UpdateProblem::from_scenario(&scenario);
    Workload {
        switches: graph.num_switches(),
        rules: scenario.total_rules(),
        problem,
        scenario,
    }
}

/// Generates the double-diamond (infeasible at switch granularity) workload
/// used by Figure 8(h)/(i).
pub fn double_diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    seed: u64,
) -> Workload {
    let graph = family.generate(size, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
    let scenario = double_diamond_scenario(&graph, kind, &mut rng)
        .expect("generated topologies admit a double diamond");
    let problem = UpdateProblem::from_scenario(&scenario);
    Workload {
        switches: graph.num_switches(),
        rules: scenario.total_rules(),
        problem,
        scenario,
    }
}

/// Statistics of a constraint-proven infeasible run, recovered from the
/// engine's explanation side channel — the error path returns no
/// `UpdateSequence`, so [`UpdateEngine::last_explanation`] is the only place
/// an infeasible run's counters surface. `None` when the run succeeds, or
/// fails without an explanation (search space or budget exhausted).
pub fn infeasible_stats(problem: &UpdateProblem, options: &SynthesisOptions) -> Option<SynthStats> {
    let mut engine = UpdateEngine::for_problem(problem, options.clone());
    engine.solve(problem).err()?;
    engine.last_explanation().map(|e| e.stats.clone())
}

/// The result of one timed synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisMeasurement {
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The synthesis outcome: statistics on success, or the error.
    pub outcome: Result<SynthStats, SynthesisError>,
}

impl SynthesisMeasurement {
    /// Returns `true` if synthesis produced a sequence.
    pub fn succeeded(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Runs the synthesizer once with the given backend/granularity and measures
/// wall-clock time.
pub fn time_synthesis(
    problem: &UpdateProblem,
    backend: Backend,
    granularity: Granularity,
) -> SynthesisMeasurement {
    let options = SynthesisOptions::with_backend(backend).granularity(granularity);
    time_synthesis_with(problem, options)
}

/// Runs the synthesizer once with fully custom options and measures
/// wall-clock time.
pub fn time_synthesis_with(
    problem: &UpdateProblem,
    options: SynthesisOptions,
) -> SynthesisMeasurement {
    let synthesizer = Synthesizer::new(problem.clone()).with_options(options);
    let start = Instant::now();
    let result = synthesizer.synthesize();
    let elapsed = start.elapsed();
    SynthesisMeasurement {
        elapsed,
        outcome: result.map(|r| r.stats),
    }
}

/// Runs the synthesizer `runs` times and returns the wall-clock samples
/// (used by the figure-level benches to report `[min mean max]` series and
/// feed the machine-readable [`BenchReport`]).
pub fn sample_synthesis(
    problem: &UpdateProblem,
    backend: Backend,
    granularity: Granularity,
    runs: usize,
) -> Vec<Duration> {
    (0..runs.max(1))
        .map(|_| time_synthesis(problem, backend, granularity).elapsed)
        .collect()
}

/// Like [`sample_synthesis`], but with fully custom options (the figure
/// benches use this to sweep the strategy axis).
pub fn sample_synthesis_with(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    runs: usize,
) -> Vec<Duration> {
    (0..runs.max(1))
        .map(|_| time_synthesis_with(problem, options.clone()).elapsed)
        .collect()
}

/// Prints one row of a results table to standard error (so it is visible in
/// `cargo bench` output without interfering with Criterion's stdout).
pub fn print_row(columns: &[String]) {
    eprintln!("  {}", columns.join(" | "));
}

/// Prints a table header.
pub fn print_header(title: &str, columns: &[&str]) {
    eprintln!("\n== {title} ==");
    eprintln!("  {}", columns.join(" | "));
}

/// Formats a duration in milliseconds with two decimals.
pub fn fmt_ms(duration: Duration) -> String {
    format!("{:.2} ms", duration.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_generate_requested_sizes() {
        for family in TopologyFamily::ALL {
            let graph = family.generate(30, 7);
            assert!(graph.num_switches() >= 20, "{} too small", family.name());
            assert!(graph.is_connected());
        }
    }

    #[test]
    fn diamond_workload_is_deterministic() {
        let a = diamond_workload(
            TopologyFamily::SmallWorld,
            40,
            PropertyKind::Reachability,
            3,
        );
        let b = diamond_workload(
            TopologyFamily::SmallWorld,
            40,
            PropertyKind::Reachability,
            3,
        );
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.rules, b.rules);
        assert_eq!(
            a.scenario.pairs[0].initial_path,
            b.scenario.pairs[0].initial_path
        );
    }

    #[test]
    fn timed_synthesis_succeeds_on_a_small_diamond() {
        let workload = diamond_workload(TopologyFamily::FatTree, 20, PropertyKind::Reachability, 5);
        let measurement =
            time_synthesis(&workload.problem, Backend::Incremental, Granularity::Switch);
        assert!(measurement.succeeded());
        assert!(measurement.elapsed > Duration::ZERO);
    }

    #[test]
    fn double_diamond_workload_is_built() {
        let workload =
            double_diamond_workload(TopologyFamily::FatTree, 20, PropertyKind::Reachability, 17);
        assert_eq!(workload.scenario.pairs.len(), 2);
    }
}
