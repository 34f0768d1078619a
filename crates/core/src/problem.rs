//! The update synthesis problem (Definition 4 of the paper).

use std::sync::Arc;

use netupd_ltl::Ltl;
use netupd_model::{Configuration, HostId, Topology, TrafficClass};
use netupd_topo::UpdateScenario;

/// An instance of the update synthesis problem: a topology, the initial and
/// final configurations, the traffic classes of interest, the hosts at which
/// that traffic enters the network, and the LTL specification that must hold
/// throughout the update.
///
/// The topology is held behind an [`Arc`]: a request stream over one fixed
/// topology (the [`UpdateEngine`](crate::UpdateEngine) workload) and the
/// probe experiments of the execution layer share a single allocation instead
/// of deep-cloning the graph per problem and experiment.
#[derive(Debug, Clone)]
pub struct UpdateProblem {
    /// The network topology (does not change during the update).
    pub topology: Arc<Topology>,
    /// The currently-installed configuration.
    pub initial: Configuration,
    /// The configuration the update must reach.
    pub final_config: Configuration,
    /// Traffic classes the specification talks about.
    pub classes: Vec<TrafficClass>,
    /// Hosts at which traffic of those classes enters the network. When
    /// empty, every host is considered an ingress.
    pub ingress_hosts: Vec<HostId>,
    /// The invariant to preserve at every intermediate configuration.
    pub spec: Ltl,
}

impl UpdateProblem {
    /// Creates a problem from its parts.
    ///
    /// The topology is shared: passing an owned [`Topology`] wraps it in an
    /// [`Arc`] without copying, and passing an existing `Arc<Topology>`
    /// shares it.
    pub fn new(
        topology: impl Into<Arc<Topology>>,
        initial: Configuration,
        final_config: Configuration,
        classes: Vec<TrafficClass>,
        ingress_hosts: Vec<HostId>,
        spec: Ltl,
    ) -> Self {
        UpdateProblem {
            topology: topology.into(),
            initial,
            final_config,
            classes,
            ingress_hosts,
            spec,
        }
    }

    /// Builds a problem from a generated update scenario.
    pub fn from_scenario(scenario: &UpdateScenario) -> Self {
        Self::from_scenario_shared(scenario, Arc::new(scenario.topology().clone()))
    }

    /// Builds a problem from a scenario, sharing an already-lifted topology.
    ///
    /// Streams of scenarios over one topology (e.g.
    /// [`churn_scenarios`](netupd_topo::scenario::churn_scenarios)) lift the
    /// topology into an [`Arc`] once and share it across every problem, so
    /// compatibility checks in the engine reduce to a pointer comparison.
    pub fn from_scenario_shared(scenario: &UpdateScenario, topology: Arc<Topology>) -> Self {
        debug_assert_eq!(
            &*topology,
            scenario.topology(),
            "shared topology must match"
        );
        UpdateProblem {
            topology,
            initial: scenario.initial.clone(),
            final_config: scenario.final_config.clone(),
            classes: scenario.classes(),
            ingress_hosts: scenario.ingress_hosts(),
            spec: scenario.spec.clone(),
        }
    }

    /// The switches whose tables differ between the initial and final
    /// configurations — the switches the synthesizer must order.
    pub fn switches_to_update(&self) -> Vec<netupd_model::SwitchId> {
        self.initial.differing_switches(&self.final_config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_topo::{generators, scenario};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn problem_from_scenario_carries_all_parts() {
        let mut rng = StdRng::seed_from_u64(2);
        let graph = generators::fat_tree(4);
        let scenario =
            scenario::diamond_scenario(&graph, scenario::PropertyKind::Reachability, &mut rng)
                .unwrap();
        let problem = UpdateProblem::from_scenario(&scenario);
        assert_eq!(problem.classes.len(), scenario.pairs.len());
        assert_eq!(problem.ingress_hosts.len(), scenario.pairs.len());
        assert_eq!(
            problem.switches_to_update().len(),
            scenario.updating_switches()
        );
        assert!(!problem.switches_to_update().is_empty());
    }

    #[test]
    fn shared_topology_is_one_allocation() {
        let mut rng = StdRng::seed_from_u64(2);
        let graph = generators::fat_tree(4);
        let scenario =
            scenario::diamond_scenario(&graph, scenario::PropertyKind::Reachability, &mut rng)
                .unwrap();
        let shared = Arc::new(scenario.topology().clone());
        let a = UpdateProblem::from_scenario_shared(&scenario, Arc::clone(&shared));
        let b = UpdateProblem::from_scenario_shared(&scenario, Arc::clone(&shared));
        assert!(Arc::ptr_eq(&a.topology, &b.topology));
        // Cloning a problem shares the topology too.
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.topology, &c.topology));
    }
}
