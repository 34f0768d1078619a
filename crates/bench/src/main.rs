//! The paper's evaluation tables (Figures 2, 7(a–f), 8(g–i), the §6 wait
//! counts and a §4.2 ablation): `cargo run --release -p netupd-bench`.
//!
//! A row prints its instance, the verdict, deterministic counters and the
//! median of [`RUNS`] fresh runs, which [`measure`] asserts agree. The counters
//! repeat on any machine; the times are indicative — `benchmark/` is the
//! performance gate. DESIGN.md §2 maps tables to figures.

#![warn(rust_2018_idioms)]

mod workloads;

use std::fmt::Display;
use std::time::Instant;

use netupd_mc::Backend;
use netupd_model::CommandSeq;
use netupd_synth::baselines::{naive_update, ordering_rule_overhead, two_phase_update};
use netupd_synth::exec::{run_with_probes, ProbeExperiment};
use netupd_synth::wait_removal::remove_unnecessary_waits;
use netupd_synth::Granularity::{self, Rule, Switch};
use netupd_synth::{
    SearchStrategy, SynthStats, SynthesisError, SynthesisOptions, UpdateEngine, UpdateProblem,
    UpdateUnit,
};
use netupd_topo::scenario::PropertyKind::{self, Reachability, ServiceChain, Waypoint};

use workloads::{
    diamond_workload, double_diamond_workload, multi_diamond_workload, TopologyFamily,
};

/// Fresh runs per row; the printed time is their median.
const RUNS: usize = 5;

/// Topology sizes of Figure 7(a–c) and Figure 8(h, i).
const SIZES: [usize; 3] = [20, 50, 100];
/// Small-World sizes of Figure 8(g) and the wait counts.
const SCALABILITY_SIZES: [usize; 3] = [50, 100, 200];
const PROPERTIES: [PropertyKind; 3] = [Reachability, Waypoint, ServiceChain { length: 3 }];

/// A counter column: its header and how to read it off a row's statistics
/// (the row itself holds the verdict).
type Counter = (&'static str, fn(&SynthStats, &Measured) -> String);

const CALLS: Counter = ("mc calls", |s, _| s.model_checker_calls.to_string());
const CHARGED: Counter = ("charged", |s, _| s.charged_calls.to_string());
const RELABELED: Counter = ("states relabeled", |s, _| s.states_relabeled.to_string());
const CEGIS: Counter = ("cegis iters", |s, _| s.cegis_iterations.to_string());
const CORE: Counter = ("unsat core", |_, m| match &m.outcome {
    Err(SynthesisError::NoOrderingExists { core, .. }) => core.len().to_string(),
    _ => "0".to_string(),
});
const STORE: Counter = ("store conflicts/decisions", |s, _| {
    format!("{}/{}", s.sat_conflicts, s.sat_decisions)
});
const WAITS_BEFORE: Counter = ("waits before", |s, _| s.waits_before_removal.to_string());
const WAITS_AFTER: Counter = ("waits after", |s, _| s.waits_after_removal.to_string());
const REMOVED: Counter = ("removed", |s, _| {
    (s.waits_before_removal.saturating_sub(s.waits_after_removal)).to_string()
});

/// What every run of one row agreed on, plus the median wall clock.
struct Measured {
    /// The committed commands, or the verdict that there are none.
    outcome: Result<CommandSeq, SynthesisError>,
    /// The units in the order applied; empty without a solution.
    order: Vec<UpdateUnit>,
    /// The sequence's or the failure's statistics; `None` only for an
    /// endpoint violation.
    stats: Option<SynthStats>,
    median_ms: f64,
}

/// The median wall clock of [`RUNS`] calls of `run`, in ms.
fn median_ms(mut run: impl FnMut()) -> f64 {
    let mut ms = [(); RUNS].map(|()| {
        let start = Instant::now();
        run();
        start.elapsed().as_secs_f64() * 1e3
    });
    ms.sort_by(f64::total_cmp);
    ms[RUNS / 2]
}

/// Solves `problem` [`RUNS`] times, each on a fresh [`UpdateEngine`], and
/// asserts that the runs agree.
fn measure(problem: &UpdateProblem, options: &SynthesisOptions) -> Measured {
    let (mut runs, mut engines) = (Vec::with_capacity(RUNS), Vec::with_capacity(RUNS));
    let median_ms = median_ms(|| {
        let mut engine = UpdateEngine::for_problem(problem, options.clone());
        runs.push(match engine.solve(problem) {
            Ok(update) => (Ok(update.commands), update.order, Some(update.stats)),
            Err(error) => {
                let stats = error.stats().cloned();
                (Err(error), Vec::new(), stats)
            }
        });
        engines.push(engine); // dropped off the clock
    });
    assert!(runs.iter().all(|run| *run == runs[0]), "runs disagree");
    let (outcome, order, stats) = runs.swap_remove(0);
    Measured {
        outcome,
        order,
        stats,
        median_ms,
    }
}

fn verdict(outcome: &Result<CommandSeq, SynthesisError>) -> String {
    match outcome {
        Ok(_) => "solved".to_string(),
        Err(SynthesisError::NoOrderingExists { core, .. }) if core.is_empty() => {
            "impossible (search exhausted)".to_string()
        }
        Err(SynthesisError::NoOrderingExists { .. }) => {
            "impossible (ordering constraints conflict)".to_string()
        }
        Err(other) => other.to_string(),
    }
}

/// A table of measured rows: the instance parameters, then the verdict, the
/// counters and the median wall clock.
struct Table {
    counters: Vec<Counter>,
    rows: Vec<Measured>,
}

impl Table {
    fn new(name: &str, params: &[&str], counters: &[Counter]) -> Table {
        let counter_names: Vec<_> = counters.iter().map(|(column, _)| *column).collect();
        let columns = [params, &["verdict"], &counter_names, &["median ms"]].concat();
        println!("\n== {name} ==\n  {}", columns.join(" | "));
        Table {
            counters: counters.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Prints one row. A run that reports no statistics prints `-` in every
    /// counter cell, never a zero that was not measured.
    fn row(&mut self, params: &[&dyn Display], m: Measured) {
        let mut cells: Vec<String> = params.iter().map(|p| p.to_string()).collect();
        cells.push(verdict(&m.outcome));
        for (_, read) in &self.counters {
            let cell = m.stats.as_ref().map(|s| read(s, &m));
            cells.push(cell.unwrap_or_else(|| "-".to_string()));
        }
        cells.push(format!("{:.2}", m.median_ms));
        println!("  {}", cells.join(" | "));
        self.rows.push(m);
    }
}

/// Figure 2: probes dropped by the naïve, synthesized-ordering and two-phase
/// updates (a), and the per-switch peak rules of two-phase vs ordering (b).
/// Returns the dropped counts in that order.
fn fig2() -> Vec<usize> {
    let workload = diamond_workload(TopologyFamily::FatTree, 20, Reachability, 2);
    let problem = &workload.problem;
    let ordering = measure(problem, &SynthesisOptions::default())
        .outcome
        .expect("an ordering update exists");
    let two_phase = two_phase_update(problem);
    let experiment = ProbeExperiment::for_problem(problem);

    println!("\n== Figure 2(a): probes received during the update ==");
    println!("  update | probes sent | delivered | dropped | delivery ratio");
    let mut dropped = Vec::new();
    for (name, commands) in [
        ("naive", &naive_update(problem)),
        ("ordering (synthesized)", &ordering),
        ("two-phase", &two_phase.commands),
    ] {
        let report = run_with_probes(problem, commands, &experiment).expect("simulation");
        let (sent, received) = (report.total_sent(), report.total_received());
        let (lost, ratio) = (report.total_dropped(), report.delivery_ratio());
        println!("  {name} | {sent} | {received} | {lost} | {ratio:.3}");
        dropped.push(lost);
    }

    println!("\n== Figure 2(b): per-switch rule overhead (peak rules, two-phase vs ordering) ==");
    println!("  switch | ordering peak | two-phase peak | overhead");
    for (sw, ordering_peak) in ordering_rule_overhead(problem) {
        let peak = two_phase.max_rules_per_switch.get(&sw).copied();
        let two_phase_peak = peak.unwrap_or(ordering_peak);
        let overhead = match ordering_peak {
            0 => 1.0,
            _ => two_phase_peak as f64 / ordering_peak as f64,
        };
        println!("  {sw} | {ordering_peak} | {two_phase_peak} | {overhead:.1}x");
    }
    dropped
}

/// Figure 7(a–c): Incremental vs the Batch and Product (NuSMV stand-in)
/// checkers, both strategies, on the three families. Rows run family, size,
/// backend, strategy, outermost first.
fn fig7(sizes: &[usize]) -> Vec<Measured> {
    let mut table = Table::new(
        "Figure 7(a-c): synthesis by backend (reachability)",
        &["family", "switches", "backend", "strategy"],
        &[CALLS, CHARGED, RELABELED, CEGIS],
    );
    for family in TopologyFamily::ALL {
        for &size in sizes {
            let workload = diamond_workload(family, size, Reachability, 42);
            let switches = workload.switches;
            for backend in [Backend::Incremental, Backend::Batch, Backend::Product] {
                // Product stays on the smaller instances, as the paper's timeout does.
                if backend == Backend::Product && size > 50 {
                    continue;
                }
                for strategy in SearchStrategy::ALL {
                    let options = SynthesisOptions::with_backend(backend).strategy(strategy);
                    let m = measure(&workload.problem, &options);
                    table.row(&[&family.name(), &switches, &backend, &strategy], m);
                }
            }
        }
    }
    table.rows
}

/// Figure 7(d–f): rule granularity, Incremental vs HeaderSpace (NetPlumber
/// stand-in), as the rule count grows. A topology can hold fewer flows than
/// asked; `flows placed` is what the instance has.
fn fig7_rules(flows: &[usize]) -> Vec<Measured> {
    let mut table = Table::new(
        "Figure 7(d-f): rule granularity, Incremental vs HeaderSpace",
        &["family", "flows asked", "flows placed", "rules", "backend"],
        &[CALLS, CHARGED, RELABELED],
    );
    for family in TopologyFamily::ALL {
        for &asked in flows {
            let workload = multi_diamond_workload(family, 40, Reachability, asked, 11);
            let (placed, rules) = (workload.scenario.pairs.len(), workload.rules);
            for backend in [Backend::Incremental, Backend::HeaderSpace] {
                let options = SynthesisOptions::with_backend(backend).granularity(Rule);
                let m = measure(&workload.problem, &options);
                table.row(&[&family.name(), &asked, &placed, &rules, &backend], m);
            }
        }
    }
    table.rows
}

/// Figure 8(g): Incremental scalability on Small-World topologies, three
/// properties, both strategies.
fn fig8(sizes: &[usize]) -> Vec<Measured> {
    let mut table = Table::new(
        "Figure 8(g): Incremental scalability on Small-World topologies",
        &["property", "switches", "updating switches", "strategy"],
        &[CALLS, CHARGED, RELABELED, CEGIS],
    );
    for property in PROPERTIES {
        for &size in sizes {
            let workload = multi_diamond_workload(TopologyFamily::SmallWorld, size, property, 4, 7);
            let (switches, updating) = (workload.switches, workload.scenario.updating_switches());
            for strategy in SearchStrategy::ALL {
                let options = SynthesisOptions::default().strategy(strategy);
                let m = measure(&workload.problem, &options);
                table.row(&[&property.name(), &switches, &updating, &strategy], m);
            }
        }
    }
    table.rows
}

/// Figure 8(h, i): double diamonds admit no switch-granularity ordering
/// (h), yet solve at rule granularity (i).
fn double_diamonds(granularity: Granularity, sizes: &[usize]) -> Vec<Measured> {
    let (name, counters) = match granularity {
        Switch => (
            "Figure 8(h): reporting 'impossible' at switch granularity",
            [CALLS, CHARGED, RELABELED, CORE].as_slice(),
        ),
        Rule => (
            "Figure 8(i): rule granularity on switch-impossible instances",
            [CALLS, CHARGED, RELABELED].as_slice(),
        ),
    };
    let mut table = Table::new(name, &["switches", "rules"], counters);
    for &size in sizes {
        let workload = double_diamond_workload(TopologyFamily::FatTree, size, Reachability, 17);
        let options = SynthesisOptions::default().granularity(granularity);
        let m = measure(&workload.problem, &options);
        table.row(&[&workload.switches, &workload.rules], m);
    }
    table.rows
}

/// §6 "Waits": waits in the careful sequence vs after wait removal, on the
/// Figure 8(g) instances. The time is the removal pass alone; `fig8`'s dfs
/// rows time these requests whole.
fn waits(sizes: &[usize]) -> Vec<Measured> {
    let mut table = Table::new(
        "Wait removal (Figure 8(g) instances; median ms of the removal pass)",
        &["property", "switches", "updates"],
        &[WAITS_BEFORE, WAITS_AFTER, REMOVED],
    );
    for property in PROPERTIES {
        for &size in sizes {
            let workload = multi_diamond_workload(TopologyFamily::SmallWorld, size, property, 4, 7);
            let mut m = measure(&workload.problem, &SynthesisOptions::default());
            m.median_ms = median_ms(|| drop(remove_unnecessary_waits(&workload.problem, &m.order)));
            let updates = m.outcome.as_ref().map(CommandSeq::num_updates);
            let updates = updates.map_or_else(|_| "-".to_string(), |n| n.to_string());
            table.row(&[&property.name(), &workload.switches, &updates], m);
        }
    }
    table.rows
}

/// The contribution of each §4.2 optimization, and of the strategy, on one
/// feasible and one infeasible instance.
fn ablation() -> Vec<Measured> {
    let mut table = Table::new(
        "Ablation: effect of each optimization",
        &["workload", "configuration"],
        &[CALLS, CHARGED, RELABELED, STORE, CORE, CEGIS],
    );
    let feasible = diamond_workload(TopologyFamily::SmallWorld, 100, Waypoint, 13);
    let infeasible = double_diamond_workload(TopologyFamily::FatTree, 50, Reachability, 17);
    use netupd_mc::Backend::Batch;
    use netupd_synth::SearchStrategy::SatGuided;
    let all = SynthesisOptions::default;
    let configurations = [
        ("all optimizations", all()),
        ("no counterexample pruning", all().counterexamples(false)),
        ("no early termination", all().early_termination(false)),
        ("batch checker", SynthesisOptions::with_backend(Batch)),
        ("sat-guided strategy", all().strategy(SatGuided)),
    ];
    for (name, workload) in [
        ("feasible diamond", &feasible),
        ("infeasible double-diamond", &infeasible),
    ] {
        for (configuration, options) in &configurations {
            // Without counterexample pruning an infeasible search enumerates every
            // order; the paper's tool always learns from counterexamples.
            if name.starts_with("infeasible") && *configuration == "no counterexample pruning" {
                continue;
            }
            table.row(&[&name, configuration], measure(&workload.problem, options));
        }
    }
    table.rows
}

fn main() {
    fig2();
    fig7(&SIZES);
    fig7_rules(&[1, 3, 6]);
    fig8(&SCALABILITY_SIZES);
    double_diamonds(Switch, &SIZES);
    double_diamonds(Rule, &SIZES);
    waits(&SCALABILITY_SIZES);
    ablation();
}

/// The paper's shapes, at each table's smallest size.
#[cfg(test)]
mod tests {
    use super::*;

    fn stats(m: &Measured) -> &SynthStats {
        m.stats.as_ref().expect("the run reports its statistics")
    }

    #[test]
    fn figure_2_only_the_naive_update_drops_probes() {
        let dropped = fig2();
        assert!(dropped[0] > 0, "the naive update drops no probes");
        assert_eq!(dropped[1..], [0, 0]);
    }

    #[test]
    fn figure_7_incremental_relabels_fewer_states_than_batch() {
        let rows = fig7(&SIZES[..1]);
        // Per family: incremental, batch, product; each dfs then sat-guided.
        assert_eq!(rows.len(), 3 * 6);
        for family in rows.chunks(6) {
            for (incremental, batch) in family[..2].iter().zip(&family[2..4]) {
                assert!(stats(incremental).states_relabeled < stats(batch).states_relabeled);
            }
        }
    }

    #[test]
    fn figure_8h_no_switch_ordering_exists_by_constraints() {
        for m in double_diamonds(Switch, &SIZES[..1]) {
            assert_eq!(
                verdict(&m.outcome),
                "impossible (ordering constraints conflict)"
            );
            assert_eq!(CORE.1(stats(&m), &m), "8");
        }
    }

    #[test]
    fn figure_8i_rule_granularity_solves() {
        let rows = double_diamonds(Rule, &SIZES[..1]);
        assert!(rows.iter().all(|m| m.outcome.is_ok()));
    }

    #[test]
    fn wait_removal_never_adds_waits() {
        for m in waits(&SCALABILITY_SIZES[..1]) {
            assert!(stats(&m).waits_after_removal <= stats(&m).waits_before_removal);
        }
    }
}
