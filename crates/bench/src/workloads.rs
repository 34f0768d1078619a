//! The seeded instances behind every table: a topology family, a scenario
//! shape and a seed fix the problem, so every run measures the same ones.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd_synth::UpdateProblem;
use netupd_topo::scenario::{
    diamond_scenario, double_diamond_scenario, multi_diamond_scenario, PropertyKind,
};
use netupd_topo::{generators, NetworkGraph, UpdateScenario};

/// The topology families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TopologyFamily {
    /// Waxman wide-area topologies (Topology Zoo stand-in).
    Wan,
    /// k-ary fat trees.
    FatTree,
    /// Watts–Strogatz small worlds.
    SmallWorld,
}

impl TopologyFamily {
    /// All families, in the order of the paper's Figure 7 columns.
    pub(crate) const ALL: [TopologyFamily; 3] = [Self::Wan, Self::FatTree, Self::SmallWorld];

    pub(crate) fn name(self) -> &'static str {
        match self {
            TopologyFamily::Wan => "wan-zoo",
            TopologyFamily::FatTree => "fat-tree",
            TopologyFamily::SmallWorld => "small-world",
        }
    }

    /// A topology of roughly `size` switches; a fat tree takes the smallest
    /// even arity `k` with at least `size` switches (`5k²/4`).
    fn generate(self, size: usize, seed: u64) -> NetworkGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            TopologyFamily::Wan => generators::waxman(size.max(4), 0.4, 0.15, &mut rng),
            TopologyFamily::FatTree => {
                let k = (2..).step_by(2).find(|k| 5 * k * k / 4 >= size);
                generators::fat_tree(k.expect("some arity is large enough"))
            }
            TopologyFamily::SmallWorld => generators::small_world(size.max(4), 4, 0.1, &mut rng),
        }
    }
}

/// One generated instance.
#[derive(Debug, Clone)]
pub(crate) struct Workload {
    pub(crate) scenario: UpdateScenario,
    pub(crate) problem: UpdateProblem,
    pub(crate) switches: usize,
    /// Across the initial and final configurations.
    pub(crate) rules: usize,
}

fn workload(
    family: TopologyFamily,
    size: usize,
    seed: u64,
    scenario: impl FnOnce(&NetworkGraph) -> Option<UpdateScenario>,
) -> Workload {
    let graph = family.generate(size, seed);
    let scenario = scenario(&graph).expect("generated topologies admit the scenario");
    Workload {
        switches: graph.num_switches(),
        rules: scenario.total_rules(),
        problem: UpdateProblem::from_scenario(&scenario),
        scenario,
    }
}

/// A single-flow diamond.
pub(crate) fn diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    seed: u64,
) -> Workload {
    workload(family, size, seed, |graph| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut retry = StdRng::seed_from_u64(seed.wrapping_add(1));
        diamond_scenario(graph, kind, &mut rng)
            .or_else(|| diamond_scenario(graph, kind, &mut retry))
    })
}

/// Up to `flows` diamonds, so that many switches update. A topology short of
/// disjoint paths holds fewer: `scenario.pairs.len()` is the placed count.
pub(crate) fn multi_diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    flows: usize,
    seed: u64,
) -> Workload {
    workload(family, size, seed, |graph| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        multi_diamond_scenario(graph, kind, flows, &mut rng)
    })
}

/// Two flows swapping paths in opposite directions: no switch-granularity
/// ordering exists (Figure 8(h)), a rule-granularity one does (Figure 8(i)).
pub(crate) fn double_diamond_workload(
    family: TopologyFamily,
    size: usize,
    kind: PropertyKind,
    seed: u64,
) -> Workload {
    workload(family, size, seed, |graph| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        double_diamond_scenario(graph, kind, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use PropertyKind::Reachability;

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
        let build = || diamond_workload(TopologyFamily::SmallWorld, 40, Reachability, 3);
        let (a, b) = (build(), build());
        assert_eq!((a.switches, a.rules), (b.switches, b.rules));
        let paths = |w: &Workload| w.scenario.pairs[0].initial_path.clone();
        assert_eq!(paths(&a), paths(&b));
    }

    #[test]
    fn double_diamond_workload_is_built() {
        let workload = double_diamond_workload(TopologyFamily::FatTree, 20, Reachability, 17);
        assert_eq!(workload.scenario.pairs.len(), 2);
    }
}
