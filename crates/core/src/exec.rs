//! Replaying command sequences against the model's own semantics.
//!
//! Two replays live here, and neither touches the Kripke encoder, a model
//! checker or the search:
//!
//! * [`check_on_traces`], the trace oracle: every configuration a sequence
//!   passes through is checked on its packet traces with
//!   [`netupd_ltl::semantics`];
//! * [`run_with_probes`], the substrate for Figure 2: a probe stream is
//!   injected at the source host while the controller executes an update
//!   sequence, and the report counts the probes sent, delivered and dropped.
//!   Figure 2(b)'s rule overhead comes from [`crate::baselines`], not from
//!   the simulator.

use netupd_ltl::semantics;
use netupd_model::trace::TraceEnd;
use netupd_model::{
    CommandSeq, Configuration, Field, HostId, Network, Packet, ProbeReport, Simulator,
    SimulatorOptions, TrafficClass,
};

use crate::problem::UpdateProblem;

/// Accepts `commands` iff every configuration the network passes through —
/// the initial one and the one after each update — satisfies the problem's
/// specification on every trace from every ingress (every host when the
/// problem lists none), and the last one has the final configuration's
/// tables (rule order among equal priorities may differ at rule
/// granularity).
///
/// # Errors
///
/// Describes the first violated configuration or unreached final table.
pub fn check_on_traces(problem: &UpdateProblem, commands: &CommandSeq) -> Result<(), String> {
    let ingress = match problem.ingress_hosts.as_slice() {
        [] => problem.topology.hosts(),
        listed => listed,
    };
    let check = |config: &Configuration, updates: usize| -> Result<(), String> {
        let net = Network::new(problem.topology.clone(), config.clone());
        for class in &problem.classes {
            for host in ingress {
                let (sw, pt) = problem
                    .topology
                    .switch_of_host(*host)
                    .ok_or_else(|| format!("ingress host {host} is not attached"))?;
                for trace in net.traces_from(sw, pt, class) {
                    if !semantics::satisfies(&trace, &problem.spec) {
                        return Err(format!(
                            "the configuration after {updates} update(s) violates the spec \
                             on {trace}"
                        ));
                    }
                }
            }
        }
        Ok(())
    };
    let mut config = problem.initial.clone();
    check(&config, 0)?;
    for (applied, (sw, table)) in commands.updates().enumerate() {
        config.set_table(sw, table.clone());
        check(&config, applied + 1)?;
    }
    for sw in problem.final_config.switches() {
        if !config.table(sw).same_rules(&problem.final_config.table(sw)) {
            return Err(format!("switch {sw} did not reach its final table"));
        }
    }
    Ok(())
}

/// Parameters of a probe experiment.
#[derive(Debug, Clone)]
pub struct ProbeExperiment {
    /// Host injecting probes.
    pub src_host: HostId,
    /// Probe packet (typically the representative of the flow's class with a
    /// `Typ` field marking it as a probe).
    pub probe: Packet,
    /// Ticks between consecutive probes.
    pub period: u64,
    /// Total simulated ticks.
    pub duration: u64,
    /// Simulator timing options.
    pub sim_options: SimulatorOptions,
}

impl ProbeExperiment {
    /// A probe experiment for the first flow of `problem`: ICMP-like probes
    /// of the first traffic class injected at the first ingress host.
    ///
    /// A problem that lists no ingress (which means every host) probes from
    /// the first host that is a source of that class: the first whose
    /// traces under the initial configuration all leave at another host.
    /// Probes from a host that is no source are dropped before and after
    /// any update, so they could not tell a good order from a bad one. With
    /// no such host, the topology's first host probes.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no hosts or the problem no traffic classes.
    pub fn for_problem(problem: &UpdateProblem) -> Self {
        let class = problem
            .classes
            .first()
            .expect("problem has a traffic class");
        let src_host = match problem.ingress_hosts.first() {
            Some(&host) => host,
            None => first_source(problem, class)
                .or(problem.topology.hosts().first().copied())
                .expect("the topology has a host"),
        };
        let probe = class.representative().with_field(Field::Typ, 1);
        ProbeExperiment {
            src_host,
            probe,
            period: 2,
            duration: 2_000,
            sim_options: SimulatorOptions::default(),
        }
    }
}

/// The first host of the topology whose `class` traces under the problem's
/// initial configuration all leave the network at another host.
fn first_source(problem: &UpdateProblem, class: &TrafficClass) -> Option<HostId> {
    let net = Network::new(problem.topology.clone(), problem.initial.clone());
    problem.topology.hosts().iter().copied().find(|&host| {
        problem
            .topology
            .switch_of_host(host)
            .is_some_and(|(sw, pt)| {
                let traces = net.traces_from(sw, pt, class);
                !traces.is_empty()
                    && (traces.iter())
                        .all(|trace| matches!(trace.end(), TraceEnd::Egress(to) if to != host))
            })
    })
}

/// Runs `commands` on the problem's initial configuration while injecting
/// probes, returning the simulator's report.
///
/// # Errors
///
/// Returns a [`netupd_model::ModelError`] if the simulation exceeds its step
/// budget (e.g. because the command sequence creates a forwarding loop).
pub fn run_with_probes(
    problem: &UpdateProblem,
    commands: &CommandSeq,
    experiment: &ProbeExperiment,
) -> Result<ProbeReport, netupd_model::ModelError> {
    let mut sim = Simulator::new(problem.topology.clone(), problem.initial.clone())
        .with_options(experiment.sim_options.clone());
    sim.add_probe_stream(
        experiment.src_host,
        experiment.probe.clone(),
        experiment.period,
    );
    sim.schedule_commands(commands.clone());
    sim.run(experiment.duration)?;
    Ok(sim.report().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines;
    use crate::problem::UpdateProblem;
    use crate::search::Synthesizer;
    use netupd_topo::generators;
    use netupd_topo::scenario::{diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_problem() -> UpdateProblem {
        let mut rng = StdRng::seed_from_u64(12);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).unwrap();
        UpdateProblem::from_scenario(&scenario)
    }

    #[test]
    fn the_trace_oracle_accepts_the_synthesized_order_only() {
        let problem = sample_problem();
        let update = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("solution");
        assert_eq!(check_on_traces(&problem, &update.commands), Ok(()));
        let error = check_on_traces(&problem, &CommandSeq::new()).expect_err("nothing updated");
        assert!(error.contains("did not reach its final table"), "{error}");
    }

    #[test]
    fn an_empty_ingress_list_is_checked_from_every_host() {
        // The naive order breaks reachability from the flow's source on
        // these diamonds. Listing no ingress means every host, the source
        // among them, so the oracle must reject it then too.
        let graph = generators::fat_tree(4);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).unwrap();
            let source_only = UpdateProblem::from_scenario(&scenario);
            let every_host = UpdateProblem {
                ingress_hosts: source_only.topology.hosts().to_vec(),
                ..source_only.clone()
            };
            let unlisted = UpdateProblem {
                ingress_hosts: Vec::new(),
                ..source_only.clone()
            };
            for (name, problem) in [
                ("source", &source_only),
                ("every host", &every_host),
                ("none listed", &unlisted),
            ] {
                let naive = baselines::naive_update(problem);
                assert!(
                    check_on_traces(problem, &naive).is_err(),
                    "seed {seed}, ingress {name}: the naive order passed"
                );
                let update = Synthesizer::new(problem.clone())
                    .synthesize()
                    .unwrap_or_else(|e| panic!("seed {seed}, ingress {name}: {e}"));
                assert_eq!(check_on_traces(problem, &update.commands), Ok(()));
            }
        }
    }

    #[test]
    fn synthesized_update_delivers_every_probe() {
        let problem = sample_problem();
        let result = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("solution");
        let experiment = ProbeExperiment::for_problem(&problem);
        let report = run_with_probes(&problem, &result.commands, &experiment).expect("simulation");
        // Probes still in flight at the end of the run are not counted as
        // lost; everything injected early enough must be delivered.
        assert!(report.total_sent() > 0);
        assert_eq!(report.total_dropped(), 0);
    }

    #[test]
    fn an_empty_ingress_list_probes_from_a_host() {
        let problem = UpdateProblem {
            ingress_hosts: Vec::new(),
            ..sample_problem()
        };
        let update = Synthesizer::new(problem.clone())
            .synthesize()
            .expect("solution");
        let experiment = ProbeExperiment::for_problem(&problem);
        let report = run_with_probes(&problem, &update.commands, &experiment).expect("simulation");
        // The probes come from a source of the flow, so they arrive.
        assert!(report.total_sent() > 0);
        assert!(report.total_received() > 0);
        assert_eq!(report.total_dropped(), 0);
    }

    #[test]
    fn naive_update_loses_probes_when_order_matters() {
        let problem = sample_problem();
        // Reverse switch-id order is a deliberately bad naive order: it
        // updates upstream switches before the downstream path is ready for
        // at least some scenarios; at minimum it must not beat the
        // synthesized update.
        let naive = baselines::naive_update(&problem);
        let synthesized = Synthesizer::new(problem.clone()).synthesize().unwrap();
        let experiment = ProbeExperiment::for_problem(&problem);
        let naive_report = run_with_probes(&problem, &naive, &experiment).unwrap();
        let good_report = run_with_probes(&problem, &synthesized.commands, &experiment).unwrap();
        assert!(good_report.total_dropped() <= naive_report.total_dropped());
        assert!(good_report.delivery_ratio() >= naive_report.delivery_ratio());
    }

    #[test]
    fn two_phase_plan_executes_without_loss() {
        let problem = sample_problem();
        let plan = baselines::two_phase_update(&problem);
        let experiment = ProbeExperiment::for_problem(&problem);
        let report = run_with_probes(&problem, &plan.commands, &experiment).unwrap();
        assert_eq!(report.total_dropped(), 0);
    }
}
