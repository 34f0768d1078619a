//! The SAT-guided (CEGIS) ordering strategy, side by side with the DFS.
//!
//! `SearchStrategy::SatGuided` completes the §4.2 B machinery into a
//! counterexample-guided loop: the ordering store *proposes* the lex-min
//! total order consistent with every precedence constraint learnt so far,
//! the configured backend verifies the candidate sequence prefix by prefix
//! up to its first failing prefix, and the failure is learnt back as one new
//! clause — until a proposal verifies (success) or no order is left (no
//! simple order exists). Both strategies commit the lex-min correct order,
//! so they commit the same sequence, and they issue the same model-checker
//! calls. The DFS is charged two checks per backtrack (the failed candidate
//! plus the label restore) where the SAT-guided loop is charged one per
//! walked prefix, so SAT-guided is charged fewer checks: it pays no undo.
//!
//! Run with: `cargo run --release --example sat_guided`

use netupd_mc::Backend;
use netupd_synth::{SearchStrategy, SynthesisOptions, Synthesizer, UpdateProblem, UpdateSequence};
use netupd_topo::generators;
use netupd_topo::scenario::{multi_diamond_scenario, PropertyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(problem: &UpdateProblem, strategy: SearchStrategy) -> UpdateSequence {
    let options = SynthesisOptions::with_backend(Backend::Incremental).strategy(strategy);
    Synthesizer::new(problem.clone())
        .with_options(options)
        .synthesize()
        .unwrap_or_else(|e| panic!("{strategy} failed: {e}"))
}

fn main() {
    // Several flows moving at once: enough ordering conflicts that both
    // strategies have real work to do.
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::small_world(60, 4, 0.1, &mut rng);
    let scenario = multi_diamond_scenario(&graph, PropertyKind::Waypoint, 3, &mut rng)
        .expect("small-world topologies admit diamonds");
    let problem = UpdateProblem::from_scenario(&scenario);
    println!(
        "{} switches, {} updating\n",
        graph.num_switches(),
        problem.switches_to_update().len()
    );

    for strategy in SearchStrategy::ALL {
        let result = run(&problem, strategy);
        println!(
            "{strategy:>10}: {} commands ({} waits), {} model-checker calls, \
             {} backtracks, {} ordering constraints",
            result.commands.len(),
            result.stats.waits_after_removal,
            result.stats.model_checker_calls,
            result.stats.backtracks,
            result.stats.sat_constraints,
        );
        if strategy == SearchStrategy::SatGuided {
            println!(
                "{:>10}  CEGIS converged in {} propose→verify→learn iteration(s)",
                "", result.stats.cegis_iterations
            );
        }
    }

    // The DFS's first success in index order and the last proposal of the
    // CEGIS loop are both the lex-min correct order.
    let dfs = run(&problem, SearchStrategy::Dfs);
    let sat = run(&problem, SearchStrategy::SatGuided);
    assert_eq!(
        dfs.commands, sat.commands,
        "the strategies committed different orders"
    );
    println!(
        "\nboth strategies commit the same {} commands",
        dfs.commands.len()
    );
}
