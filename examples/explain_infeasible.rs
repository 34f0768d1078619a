//! Explaining infeasibility: *why* does no simple update order exist?
//!
//! A double-diamond workload (Figure 8(h)/(i)) moves two flows across the
//! same fabric in opposite directions: each flow needs its egress-side
//! switches updated before its ingress-side ones, and the two requirements
//! collide — at switch granularity no total order works. The synthesizer
//! reports `NoOrderingExists`, and the verdict carries its *evidence*: the
//! ordering store's deletion-minimized core, a conflicting constraint set in
//! which every member is derived from a concrete counterexample trace or
//! failing prefix, and dropping any single member would make the rest
//! satisfiable.
//!
//! Run with: `cargo run --release --example explain_infeasible`

use netupd_synth::{
    Granularity, SearchStrategy, SynthesisError, SynthesisOptions, UpdateEngine, UpdateProblem,
};
use netupd_topo::generators;
use netupd_topo::scenario::{double_diamond_scenario, PropertyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    let graph = generators::fat_tree(4);
    let scenario = double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
        .expect("fat-tree topologies admit double diamonds");
    let problem = UpdateProblem::from_scenario(&scenario);
    println!(
        "double diamond on fat_tree(4): {} switches updating\n",
        problem.switches_to_update().len()
    );

    let options = SynthesisOptions::default().strategy(SearchStrategy::SatGuided);
    let mut engine = UpdateEngine::for_problem(&problem, options);
    let error = engine
        .solve(&problem)
        .expect_err("double diamonds have no switch-granularity order");
    println!("verdict: {error}");
    let SynthesisError::NoOrderingExists { core, stats } = &error else {
        panic!("expected no ordering, got {error:?}");
    };
    println!(
        "\n(proved in {} CEGIS iteration(s), {} learnt constraint(s), \
         core of {} after minimization)",
        stats.cegis_iterations,
        stats.sat_constraints,
        core.len(),
    );

    // The conflict is about switch-granularity atomicity, not the
    // configurations themselves: at rule granularity the flows' rules
    // decouple and the same request becomes solvable.
    let rule_options = SynthesisOptions::default()
        .strategy(SearchStrategy::SatGuided)
        .granularity(Granularity::Rule);
    let mut rule_engine = UpdateEngine::for_problem(&problem, rule_options);
    let update = rule_engine
        .solve(&problem)
        .expect("rule granularity decouples the flows");
    println!(
        "\nat rule granularity the request solves: {} commands ({} rule-level updates)",
        update.commands.len(),
        update.commands.num_updates(),
    );
}
