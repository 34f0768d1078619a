//! Property test for the wait-removal heuristic (§4.2 C): removing waits
//! must never cause probe loss.
//!
//! The search orders the updates; the fully careful sequence of that order
//! has a `wait` between every pair of updates, and `wait_removal` keeps only
//! the waits its reachability analysis deems necessary. The safety claim is
//! operational: executing the minimized sequence against the
//! operational-semantics simulator drops no more probes than executing the
//! fully careful sequence. This replays both through the `exec` probe
//! harness over randomized scenarios and checks exactly that.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd::model::CommandSeq;
use netupd::synth::exec::{run_with_probes, ProbeExperiment};
use netupd::synth::{SearchStrategy, SynthesisOptions, Synthesizer, UpdateProblem, UpdateUnit};
use netupd::topo::generators;
use netupd::topo::scenario::{diamond_scenario, PropertyKind};

/// A deterministic randomized scenario per seed: topology family, property
/// kind, and the diamond flow all derive from the seed.
fn problem_for_seed(seed: u64) -> Option<UpdateProblem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match seed % 3 {
        0 => generators::fat_tree(4),
        1 => generators::small_world(16, 4, 0.1, &mut rng),
        _ => generators::waxman(12, 0.4, 0.15, &mut rng),
    };
    let kind = match seed % 2 {
        0 => PropertyKind::Reachability,
        _ => PropertyKind::Waypoint,
    };
    diamond_scenario(&graph, kind, &mut rng).map(|s| UpdateProblem::from_scenario(&s))
}

/// The fully careful sequence of a unit order: a `wait` between every two
/// updates (Definition 5).
fn careful_sequence(problem: &UpdateProblem, order: &[UpdateUnit]) -> CommandSeq {
    let mut commands = CommandSeq::new();
    let mut config = problem.initial.clone();
    for (i, unit) in order.iter().enumerate() {
        if i > 0 {
            commands.push_wait();
        }
        let table = unit.apply(&config);
        config.set_table(unit.switch(), table.clone());
        commands.push_update(unit.switch(), table);
    }
    commands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The minimized sequence loses no probes the fully careful sequence
    /// would deliver.
    #[test]
    fn wait_removal_loses_no_probes(seed in 0u64..64) {
        let Some(problem) = problem_for_seed(seed) else { return Ok(()); };
        let minimized = Synthesizer::new(problem.clone())
            .synthesize()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let careful = careful_sequence(&problem, &minimized.order);
        prop_assert!(careful.is_careful());
        prop_assert!(minimized.commands.num_waits() <= careful.num_waits());

        let experiment = ProbeExperiment::for_problem(&problem);
        let careful_report = run_with_probes(&problem, &careful, &experiment)
            .unwrap_or_else(|e| panic!("seed {seed}: careful replay: {e}"));
        let minimized_report = run_with_probes(&problem, &minimized.commands, &experiment)
            .unwrap_or_else(|e| panic!("seed {seed}: minimized replay: {e}"));

        prop_assert!(careful_report.total_sent() > 0);
        // The fully careful sequence is correct by construction, so it drops
        // nothing; the minimized sequence must not either.
        assert_eq!(
            careful_report.total_dropped(),
            0,
            "seed {seed}: careful sequence dropped probes"
        );
        assert_eq!(
            minimized_report.total_dropped(),
            0,
            "seed {seed}: wait removal caused probe loss"
        );
        prop_assert!(minimized_report.delivery_ratio() >= careful_report.delivery_ratio());
    }

    /// The same safety claim holds for sequences the SAT-guided strategy
    /// produces, which commit the DFS's order through a different search.
    #[test]
    fn wait_removal_is_safe_for_sat_guided_sequences(seed in 0u64..64) {
        let Some(problem) = problem_for_seed(seed) else { return Ok(()); };
        let minimized = Synthesizer::new(problem.clone())
            .with_options(SynthesisOptions::default().strategy(SearchStrategy::SatGuided))
            .synthesize()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let experiment = ProbeExperiment::for_problem(&problem);
        let report = run_with_probes(&problem, &minimized.commands, &experiment)
            .unwrap_or_else(|e| panic!("seed {seed}: replay: {e}"));
        prop_assert!(report.total_sent() > 0);
        assert_eq!(
            report.total_dropped(),
            0,
            "seed {seed}: sat-guided sequence with wait removal dropped probes"
        );
    }
}
