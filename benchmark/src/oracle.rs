//! The benchmark's own correctness check. It replays a command sequence
//! through the model's trace semantics and the finite-trace LTL semantics;
//! it shares no code with the Kripke encoder, the model checkers or the
//! search, which are the layers under measurement.

use netupd_ltl::semantics;
use netupd_model::{CommandSeq, Configuration, Network};
use netupd_synth::UpdateProblem;

/// Accepts `commands` iff every configuration the network passes through —
/// the initial one and the one after each update — satisfies the
/// specification on every trace from every ingress, and the last one has the
/// final configuration's tables.
pub fn check(problem: &UpdateProblem, commands: &CommandSeq) -> Result<(), String> {
    let mut config = problem.initial.clone();
    check_config(problem, &config, 0)?;
    for (applied, (switch, table)) in commands.updates().enumerate() {
        config.set_table(switch, table.clone());
        check_config(problem, &config, applied + 1)?;
    }
    for switch in problem.final_config.switches() {
        if !config
            .table(switch)
            .same_rules(&problem.final_config.table(switch))
        {
            return Err(format!("switch {switch} did not reach its final table"));
        }
    }
    Ok(())
}

fn check_config(
    problem: &UpdateProblem,
    config: &Configuration,
    updates: usize,
) -> Result<(), String> {
    let network = Network::new(problem.topology.clone(), config.clone());
    for class in &problem.classes {
        for host in &problem.ingress_hosts {
            let (switch, port) = problem
                .topology
                .switch_of_host(*host)
                .ok_or_else(|| format!("ingress host {host} is not attached"))?;
            for trace in network.traces_from(switch, port, class) {
                if !semantics::satisfies(&trace, &problem.spec) {
                    return Err(format!(
                        "after {updates} update(s) the spec fails on {trace}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_synth::Synthesizer;
    use netupd_topo::{
        generators,
        scenario::{diamond_scenario, PropertyKind},
    };
    use rand::{rngs::StdRng, SeedableRng};

    fn diamond() -> UpdateProblem {
        let graph = generators::fat_tree(4);
        let mut rng = StdRng::seed_from_u64(1);
        let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng)
            .expect("fat-tree admits a diamond");
        UpdateProblem::from_scenario(&scenario)
    }

    #[test]
    fn accepts_the_synthesized_order() {
        let problem = diamond();
        let update = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("a diamond is solvable");
        assert_eq!(check(&problem, &update.commands), Ok(()));
    }

    #[test]
    fn rejects_an_incomplete_update() {
        let problem = diamond();
        let error = check(&problem, &CommandSeq::new()).expect_err("nothing was updated");
        assert!(error.contains("did not reach its final table"), "{error}");
    }

    /// Updating along the initial path from the ingress on sends traffic onto
    /// the final path before any of its switches has a rule: it is dropped.
    #[test]
    fn rejects_ingress_first_on_a_diamond() {
        let problem = diamond();
        let update = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("a diamond is solvable");
        let mut reversed: Vec<_> = update
            .commands
            .updates()
            .map(|(sw, table)| (sw, table.clone()))
            .collect();
        reversed.reverse();
        let mut bad = CommandSeq::new();
        for (switch, table) in reversed {
            bad.push_update(switch, table);
            bad.push_wait();
        }
        let error = check(&problem, &bad).expect_err("the reversed order breaks reachability");
        assert!(error.contains("the spec fails"), "{error}");
    }
}
