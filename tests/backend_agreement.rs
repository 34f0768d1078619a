//! Cross-crate property tests: all model-checking backends agree on whether a
//! configuration satisfies a specification, they agree with themselves on
//! the update's footprint slice and on the whole topology, and the
//! incremental backend does strictly less relabeling work than the batch
//! backend during synthesis.

use std::collections::BTreeSet;

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_ltl::{builders, Prop};
use netupd_mc::Backend;
use netupd_model::{
    Action, Configuration, Field, Pattern, PortId, Priority, Rule, Table, Topology, TrafficClass,
};
use netupd_synth::units::plan_units;
use netupd_synth::{Granularity, SynthesisOptions, Synthesizer, UpdateProblem};
use netupd_topo::generators;
use netupd_topo::scenario::{diamond_scenario, PropertyKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario_problem(seed: u64, kind: PropertyKind) -> UpdateProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::small_world(24, 4, 0.15, &mut rng);
    let scenario = diamond_scenario(&graph, kind, &mut rng).expect("diamond");
    UpdateProblem::from_scenario(&scenario)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every backend agrees with every other on arbitrary intermediate
    /// configurations reached by updating a random subset of switches.
    #[test]
    fn backends_agree_on_intermediate_configurations(seed in 0u64..64, mask in 0u32..256) {
        let problem = scenario_problem(seed, PropertyKind::Reachability);
        let encoder = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
            .with_ingress_hosts(problem.ingress_hosts.iter().copied());
        // Build an arbitrary intermediate configuration.
        let mut config = problem.initial.clone();
        for (i, sw) in problem.switches_to_update().into_iter().enumerate() {
            if (mask >> (i % 8)) & 1 == 1 {
                config.set_table(sw, problem.final_config.table(sw));
            }
        }
        let kripke = encoder.encode(&config);
        let verdicts: Vec<bool> = Backend::ALL
            .iter()
            .map(|b| b.instantiate().check(&kripke, &problem.spec).holds)
            .collect();
        prop_assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "backends disagree: {verdicts:?}"
        );
    }
}

#[test]
fn incremental_relabels_fewer_states_than_batch_during_synthesis() {
    let problem = scenario_problem(5, PropertyKind::Reachability);
    let incremental = Synthesizer::new(problem.clone())
        .with_options(SynthesisOptions::with_backend(Backend::Incremental))
        .synthesize()
        .expect("incremental solution");
    let batch = Synthesizer::new(problem)
        .with_options(SynthesisOptions::with_backend(Backend::Batch))
        .synthesize()
        .expect("batch solution");
    assert!(
        incremental.stats.states_relabeled < batch.stats.states_relabeled,
        "incremental ({}) should relabel fewer states than batch ({})",
        incremental.stats.states_relabeled,
        batch.stats.states_relabeled
    );
}

/// The states reachable from an initial state.
fn reachable(kripke: &Kripke) -> BTreeSet<StateId> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<StateId> = kripke.initial_states().collect();
    while let Some(state) = stack.pop() {
        if seen.insert(state) {
            stack.extend_from_slice(kripke.successors(state));
        }
    }
    seen
}

/// A switch whose initial and final tables both shadow one rule: `s0`
/// forwards to `s1` initially and to `s3` finally, and a low-priority rule
/// to `s2` sits under both. At rule granularity, removing the old rule before adding
/// the new one exposes it, so the footprint must follow every matching rule,
/// not only each table's winner.
fn shadowed_rule_problem() -> UpdateProblem {
    let mut topo = Topology::new();
    let h0 = topo.add_host();
    let h1 = topo.add_host();
    let s = topo.add_switches(5);
    topo.attach_host(h0, s[0], PortId(1));
    for (i, via) in s[1..4].iter().enumerate() {
        let port = PortId(2 + i as u32);
        topo.add_duplex_link(s[0], port, *via, PortId(1));
        topo.add_duplex_link(*via, PortId(2), s[4], port);
    }
    topo.attach_host(h1, s[4], PortId(1));
    let to = |priority: u32, port: u32| {
        Rule::new(
            Priority(priority),
            Pattern::any().with_field(Field::Dst, 1),
            vec![Action::Forward(PortId(port))],
        )
    };
    // `s0` forwards out of `first` (toward `s[first - 1]`) over the shadowed
    // rule toward `s2`; the switches it can reach forward on to `s4`, and
    // `s4` to `h1`.
    let config = |first: u32| {
        Configuration::new()
            .with_table(s[0], Table::new(vec![to(10, first), to(5, 3)]))
            .with_table(s[first as usize - 1], Table::new(vec![to(1, 2)]))
            .with_table(s[2], Table::new(vec![to(1, 2)]))
            .with_table(s[4], Table::new(vec![to(1, 1)]))
    };
    UpdateProblem::new(
        topo,
        config(2),
        config(4),
        vec![TrafficClass::new().with_field(Field::Dst, 1)],
        vec![h0],
        builders::reachability(Prop::AtHost(h1)),
    )
}

/// The slice's skeleton, which the footprint closure builds without looking
/// at the rest of the topology, is the whole-topology skeleton restricted to
/// the slice's states: the same keys in the same order, with the same
/// initial marks and labels. Both are read off an encoding of the empty
/// configuration, where every arrival drops and no egress does.
fn assert_slice_is_the_restricted_skeleton(whole: &NetworkKripke, sliced: &NetworkKripke) {
    let (full, slice) = (
        whole.encode(&Configuration::new()),
        sliced.encode(&Configuration::new()),
    );
    let restricted: Vec<StateId> = (full.states())
        .filter(|s| slice.state_by_key(&full.key(*s)).is_some())
        .collect();
    let keys = |kripke: &Kripke, states: &[StateId]| -> Vec<_> {
        states.iter().map(|s| kripke.key(*s)).collect()
    };
    let slice_states: Vec<StateId> = slice.states().collect();
    assert_eq!(keys(&full, &restricted), keys(&slice, &slice_states));
    for (a, b) in restricted.into_iter().zip(slice_states) {
        let key = full.key(a);
        assert_eq!(
            full.is_initial(a),
            slice.is_initial(b),
            "initial mark of {key}"
        );
        let label = |kripke: &Kripke, s| kripke.label_props(s).collect::<BTreeSet<Prop>>();
        assert_eq!(label(&full, a), label(&slice, b), "label of {key}");
    }
}

/// The footprint slice is sound: on every configuration an update can pass
/// through — every unit subset, at both granularities, of small generated
/// problems and of the shadowed-rule one — every state reachable from an
/// initial state of the whole-topology structure is in the slice, and every
/// backend answers the same verdict and counterexample switches on both.
/// The slice's skeleton is the whole one restricted to the footprint.
#[test]
fn the_footprint_slice_keeps_every_reachable_state_and_every_verdict() {
    let mut problems = vec![shadowed_rule_problem()];
    for index in 0..24 {
        problems.extend(netupd_fuzz::generate_case(0x511ce, index).problems);
    }
    let mut rule_subsets = 0;
    for problem in &problems {
        let whole = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
            .with_ingress_hosts(problem.ingress_hosts.iter().copied());
        let mut sliced = whole.clone();
        sliced.cover(&[&problem.initial, &problem.final_config]);
        assert_slice_is_the_restricted_skeleton(&whole, &sliced);
        for granularity in [Granularity::Switch, Granularity::Rule] {
            let units = plan_units(problem, granularity);
            if units.len() > 8 {
                continue;
            }
            for subset in 0..1u32 << units.len() {
                let mut config = problem.initial.clone();
                for (i, unit) in units.iter().enumerate() {
                    if subset >> i & 1 == 1 {
                        config.set_table(unit.switch(), unit.apply(&config));
                    }
                }
                rule_subsets += usize::from(granularity == Granularity::Rule);
                let full = whole.encode(&config);
                let slice = sliced.encode(&config);
                for state in reachable(&full) {
                    let key = full.key(state);
                    assert!(
                        slice.state_by_key(&key).is_some(),
                        "{granularity:?} subset {subset:#b}: reachable {key} is not in the slice"
                    );
                }
                for backend in Backend::ALL {
                    let a = backend.instantiate().check(&full, &problem.spec);
                    let b = backend.instantiate().check(&slice, &problem.spec);
                    assert_eq!(a.holds, b.holds, "{backend} {granularity:?} {subset:#b}");
                    assert_eq!(
                        a.counterexample.map(|c| c.switches),
                        b.counterexample.map(|c| c.switches),
                        "{backend} {granularity:?} {subset:#b}"
                    );
                }
            }
        }
    }
    assert!(
        rule_subsets > 0,
        "no rule-granularity problem was small enough"
    );
}

#[test]
fn synthesized_orders_agree_across_backends_on_feasibility() {
    for seed in [3u64, 9, 21] {
        let problem = scenario_problem(seed, PropertyKind::Waypoint);
        let mut verdicts = Vec::new();
        for backend in Backend::ALL {
            let result = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::with_backend(backend))
                .synthesize();
            verdicts.push(result.is_ok());
        }
        assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "backends disagree on feasibility for seed {seed}: {verdicts:?}"
        );
    }
}
