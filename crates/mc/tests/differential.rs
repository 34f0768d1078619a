//! Differential property tests for the interned labeling engine.
//!
//! Two oracles pin down the refactored representation:
//!
//! * **Trace semantics.** For random small scenarios, the labeling — closure
//!   recurrences over interned label rows — must agree *state for state*
//!   with the finite-trace oracle in `netupd_ltl::semantics`, which evaluates
//!   the textbook definitions and shares no code with the closure: a state's
//!   label contains only satisfying assignments exactly when every simulator
//!   trace from that location satisfies the specification.
//! * **Incrementality.** After random sequences of switch updates (applies
//!   and reverts), [`Labeling::relabel`] must agree with a from-scratch
//!   [`Labeling::label_all`] on every state's assignment vector, and
//!   [`HeaderSpaceChecker`]'s recheck with a fresh check on the verdict, also
//!   where one switch forwards out of two ports, so updates make and fix
//!   loops. Under both, the rewiring step itself must leave the structure a
//!   fresh encode gives and report exactly the states it changed.
//!
//! Both oracles also run on specs padded with tautologies, so every
//! assignment spans two 64-bit words or more. The trace oracle runs once more
//! on configurations where one switch forwards out of two ports, so some
//! states have two successors, and some configurations loop.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use std::collections::BTreeSet;

use netupd_kripke::{Kripke, NetworkKripke, StateId, StateRole};
use netupd_ltl::semantics;
use netupd_ltl::{Ltl, Prop};
use netupd_mc::{HeaderSpaceChecker, Labeling, ModelChecker};
use netupd_model::{
    Action, Configuration, Endpoint, HostId, Network, Rule, SwitchId, Table, Topology, TrafficClass,
};
use netupd_topo::scenario::{diamond_scenario, PropertyKind};
use netupd_topo::{generators, UpdateScenario};

/// A deterministic small scenario for a seed: topology family, property
/// kind, and the diamond flow all derive from the seed.
fn scenario_for_seed(seed: u64) -> Option<UpdateScenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = if seed.is_multiple_of(2) {
        generators::fat_tree(4)
    } else {
        generators::small_world(12, 4, 0.1, &mut rng)
    };
    let kind = match seed % 3 {
        0 => PropertyKind::Reachability,
        1 => PropertyKind::Waypoint,
        _ => PropertyKind::ServiceChain { length: 2 },
    };
    diamond_scenario(&graph, kind, &mut rng)
}

fn encoder_for(scenario: &UpdateScenario) -> NetworkKripke {
    let ingress: Vec<HostId> = scenario.pairs.iter().map(|p| p.src_host).collect();
    NetworkKripke::new(scenario.topology().clone(), scenario.classes()).with_ingress_hosts(ingress)
}

/// The trace oracle for one state: every simulator trace from the state's
/// switch/port location satisfies `spec`.
fn oracle_all_traces_satisfy(
    topology: &Topology,
    config: &Configuration,
    class: &TrafficClass,
    sw: netupd_model::SwitchId,
    pt: netupd_model::PortId,
    spec: &Ltl,
) -> bool {
    let net = Network::new(topology.clone(), config.clone());
    net.traces_from(sw, pt, class)
        .iter()
        .all(|t| semantics::satisfies(t, spec))
}

/// A state's label says the specification holds on all traces from it iff
/// every assignment in the label satisfies the root formula.
fn label_says_holds(labeling: &Labeling, state: netupd_kripke::StateId) -> bool {
    labeling
        .label(state)
        .iter()
        .all(|a| labeling.closure().satisfies_root(a))
}

fn assert_labelings_equal(a: &Labeling, b: &Labeling, kripke: &Kripke, context: &str) {
    for state in kripke.states() {
        assert_eq!(
            a.label(state),
            b.label(state),
            "{context}: label of {} diverged",
            kripke.key(state)
        );
    }
}

/// `width` tautologies `G(sw_i ∨ ¬sw_i)` over distinct switch atoms, then
/// the scenario's spec: the same verdict everywhere, but a closure that spans
/// two words or more, with the spec's own subformulas past the first word
/// and some padding atoms read from real labels.
fn padded_spec(spec: &Ltl, width: u32) -> Ltl {
    let padding = (0..width).map(|i| {
        let sw = Prop::switch(i);
        Ltl::globally(Ltl::or(Ltl::prop(sw), Ltl::not_prop(sw)))
    });
    Ltl::and_all(padding.chain(std::iter::once(spec.clone())))
}

/// `scenario` with one switch of each configuration forwarding every packet
/// out of a second, switch-facing port as well: generated rules forward out
/// of one port only, so this is where states get two successors. A
/// configuration may loop now.
fn branched(scenario: &UpdateScenario, seed: u64) -> UpdateScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb2a2_c4ed);
    let topology = scenario.topology().clone();
    let mut branched = scenario.clone();
    for config in [&mut branched.initial, &mut branched.final_config] {
        let switches: Vec<_> = config.switches().collect();
        let Some(&sw) = switches.choose(&mut rng) else {
            continue;
        };
        let ports: Vec<_> = (topology.links_from_switch(sw))
            .filter_map(|(_, link)| match (link.src, link.dst) {
                (Endpoint::SwitchPort(_, port), Endpoint::SwitchPort(..)) => Some(port),
                _ => None,
            })
            .collect();
        let table = config.table(sw);
        let rules = table.iter().map(|rule| {
            let used: Vec<_> = rule
                .actions()
                .iter()
                .filter_map(Action::forward_port)
                .collect();
            let spare: Vec<_> = ports.iter().filter(|p| !used.contains(p)).collect();
            let mut actions = rule.actions().to_vec();
            actions.extend(spare.choose(&mut rng).map(|port| Action::Forward(**port)));
            Rule::new(rule.priority(), rule.pattern().clone(), actions)
        });
        config.set_table(sw, Table::new(rules.collect()));
    }
    branched
}

/// The labeling of `spec` agrees with the trace oracle, for both the initial
/// and the final configuration: on every arrival state of a DAG-like
/// structure, and on the verdict of one with a loop.
fn assert_labeling_matches_trace_oracle(scenario: &UpdateScenario, spec: &Ltl, seed: u64) {
    let encoder = encoder_for(scenario);
    for config in [&scenario.initial, &scenario.final_config] {
        let kripke = encoder.encode(config);
        let (labeling, _) = Labeling::label_all(&kripke, spec);
        let oracle = |state| {
            let key = kripke.key(state);
            let class = &scenario.classes()[key.class];
            oracle_all_traces_satisfy(
                scenario.topology(),
                config,
                class,
                key.switch,
                key.port,
                spec,
            )
        };
        if !kripke.is_dag_like() {
            assert_eq!(
                labeling.holds(&kripke),
                kripke.initial_states().all(oracle),
                "seed {seed}: the verdict on a loop disagrees with the trace oracle"
            );
            continue;
        }
        for state in kripke.states() {
            let key = kripke.key(state);
            // Egress states are not trace starting points; the oracle is
            // defined on arrival locations.
            if key.role != StateRole::Arrival {
                continue;
            }
            assert_eq!(
                label_says_holds(&labeling, state),
                oracle(state),
                "seed {seed}: state {key} disagrees with the trace oracle"
            );
        }
    }
}

/// A random walk over configurations from `scenario`'s initial one: each
/// step applies one switch's final table or reverts it to its initial table.
fn random_updates(scenario: &UpdateScenario, seed: u64) -> Vec<(SwitchId, Table)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ff_ee00);
    let mut switches: Vec<_> = scenario.final_config.switches().collect();
    switches.shuffle(&mut rng);
    (0..switches.len().min(8))
        .map(|round| {
            let sw = switches[round % switches.len()];
            let table = if rng.gen_bool(0.3) {
                scenario.initial.table(sw)
            } else {
                scenario.final_config.table(sw)
            };
            (sw, table)
        })
        .collect()
}

/// `relabel` agrees with `label_all` on every state's assignment vector
/// after a random walk of switch updates, including reverts.
fn assert_relabel_matches_label_all(scenario: &UpdateScenario, spec: &Ltl, seed: u64) {
    let encoder = encoder_for(scenario);
    let mut kripke = encoder.encode(&scenario.initial);
    let (mut labeling, _) = Labeling::label_all(&kripke, spec);
    for (round, (sw, table)) in random_updates(scenario, seed).into_iter().enumerate() {
        let changed = encoder.apply_switch_update(&mut kripke, sw, &table);
        labeling.relabel(&kripke, &changed);
        let (fresh, _) = Labeling::label_all(&kripke, spec);
        assert_labelings_equal(
            &labeling,
            &fresh,
            &kripke,
            &format!("seed {seed}, round {round}, switch {sw}"),
        );
    }
}

/// `HeaderSpaceChecker::recheck` agrees with a fresh check on the verdict
/// after every step of the random walk of [`random_updates`].
fn assert_headerspace_recheck_matches_check(scenario: &UpdateScenario, spec: &Ltl, seed: u64) {
    let encoder = encoder_for(scenario);
    let mut kripke = encoder.encode(&scenario.initial);
    let mut checker = HeaderSpaceChecker::new();
    checker.check(&kripke, spec);
    for (round, (sw, table)) in random_updates(scenario, seed).into_iter().enumerate() {
        let changed = encoder.apply_switch_update(&mut kripke, sw, &table);
        assert_eq!(
            checker.recheck(&kripke, spec, &changed).holds,
            HeaderSpaceChecker::new().check(&kripke, spec).holds,
            "seed {seed}, round {round}, switch {sw}: recheck and check disagree"
        );
    }
}

/// After every step of [`random_updates`], the rewired structure is the one
/// a fresh encode of the configuration reached gives — successor lists,
/// predecessor sets and labels, `Dropped` included — and the step returned
/// exactly the states whose successors or label it changed.
fn assert_rewiring_matches_a_fresh_encode(scenario: &UpdateScenario, seed: u64) {
    let encoder = encoder_for(scenario);
    let mut config = scenario.initial.clone();
    let mut kripke = encoder.encode(&config);
    let snapshot = |kripke: &Kripke| -> Vec<(Vec<StateId>, BTreeSet<Prop>)> {
        (kripke.states())
            .map(|s| {
                (
                    kripke.successors(s).to_vec(),
                    kripke.label_props(s).collect(),
                )
            })
            .collect()
    };
    for (round, (sw, table)) in random_updates(scenario, seed).into_iter().enumerate() {
        let context = format!("seed {seed}, round {round}, switch {sw}");
        let before = snapshot(&kripke);
        let changed = encoder.apply_switch_update(&mut kripke, sw, &table);
        config.set_table(sw, table);
        let after = snapshot(&kripke);
        let moved: Vec<StateId> = (kripke.states())
            .filter(|s| before[s.0] != after[s.0])
            .collect();
        let mut returned = changed.clone();
        returned.sort_unstable();
        assert_eq!(returned, moved, "{context}: the returned change set");
        assert_eq!(
            changed.len(),
            moved.len(),
            "{context}: a state returned twice"
        );

        let fresh = encoder.encode(&config);
        assert_eq!(kripke.len(), fresh.len(), "{context}");
        assert_eq!(after, snapshot(&fresh), "{context}: successors or labels");
        for state in kripke.states() {
            let mut ours = kripke.predecessors(state).to_vec();
            let mut theirs = fresh.predecessors(state).to_vec();
            ours.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(
                ours,
                theirs,
                "{context}: predecessors of {}",
                kripke.key(state)
            );
            assert_eq!(
                kripke.is_initial(state),
                fresh.is_initial(state),
                "{context}"
            );
        }
    }
}

/// HeaderSpace's recheck agrees with a fresh check after every step of the
/// same random walks as `relabel`'s test, and again once one switch of each
/// configuration forwards out of two ports, so steps make and fix loops.
/// Every seed of the range runs: the walks that make and then fix a loop
/// are few, and a sample of them misses a recheck that skips loop entries.
#[test]
fn headerspace_recheck_matches_a_fresh_check() {
    for seed in 0u64..64 {
        let Some(scenario) = scenario_for_seed(seed) else {
            continue;
        };
        assert_headerspace_recheck_matches_check(&scenario, &scenario.spec, seed);
        let branched = branched(&scenario, seed);
        assert_headerspace_recheck_matches_check(&branched, &scenario.spec, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interned labeling agrees with the trace-semantics oracle on every
    /// arrival state, for both the initial and the final configuration, and
    /// again once one switch of each forwards out of two ports.
    #[test]
    fn interned_labeling_matches_trace_oracle(seed in 0u64..64) {
        let Some(scenario) = scenario_for_seed(seed) else { return Ok(()); };
        assert_labeling_matches_trace_oracle(&scenario, &scenario.spec, seed);
        assert_labeling_matches_trace_oracle(&branched(&scenario, seed), &scenario.spec, seed);
    }

    /// `relabel` agrees with `label_all` after random sequences of switch
    /// updates, including reverts, on every state's assignment vector.
    #[test]
    fn relabel_matches_label_all_after_random_updates(seed in 0u64..64) {
        let Some(scenario) = scenario_for_seed(seed) else { return Ok(()); };
        assert_relabel_matches_label_all(&scenario, &scenario.spec, seed);
    }

    /// `apply_switch_update` rewires a structure into the one a fresh encode
    /// gives, and reports exactly the states it changed, after every step of
    /// the random walks, on each scenario and its two-port form.
    #[test]
    fn rewiring_matches_a_fresh_encode(seed in 0u64..64) {
        let Some(scenario) = scenario_for_seed(seed) else { return Ok(()); };
        assert_rewiring_matches_a_fresh_encode(&scenario, seed);
        assert_rewiring_matches_a_fresh_encode(&branched(&scenario, seed), seed);
    }

    /// Both properties again with labels two words wide or more: operands,
    /// successor bits and atom reads cross word boundaries.
    #[test]
    fn multi_word_labeling_matches_the_oracles(seed in 0u64..64, width in 14u32..40) {
        let Some(scenario) = scenario_for_seed(seed) else { return Ok(()); };
        let spec = padded_spec(&scenario.spec, width);
        let words = netupd_ltl::Closure::new(&spec).len().div_ceil(64);
        prop_assert!(words >= 2, "seed {seed}, width {width}: {words} word");
        assert_labeling_matches_trace_oracle(&scenario, &spec, seed);
        assert_relabel_matches_label_all(&scenario, &spec, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `check_sequence` agrees with a step-by-step `recheck` walk — same
    /// first failing prefix, same verdict per prefix, structure left at the
    /// same configuration — for every backend.
    #[test]
    fn check_sequence_matches_stepwise_recheck(seed in 0u64..48) {
        let Some(scenario) = scenario_for_seed(seed) else { return Ok(()); };
        let encoder = encoder_for(&scenario);
        // The update steps: install each differing switch's final table, in
        // switch-id order. Intermediate prefixes may well violate the spec —
        // exactly the interesting case.
        let steps: Vec<netupd_mc::SequenceStep> = scenario
            .initial
            .differing_switches(&scenario.final_config)
            .into_iter()
            .map(|sw| netupd_mc::SequenceStep {
                switch: sw,
                table: scenario.final_config.table(sw),
            })
            .collect();
        for backend in netupd_mc::Backend::ALL {
            // One-call walk.
            let mut seq_kripke = encoder.encode(&scenario.initial);
            let mut seq_checker = backend.instantiate();
            seq_checker.check(&seq_kripke, &scenario.spec);
            let outcome = seq_checker.check_sequence(
                &encoder,
                &mut seq_kripke,
                &scenario.spec,
                &[],
                &steps,
            );
            // Step-by-step walk with a second instance.
            let mut kripke = encoder.encode(&scenario.initial);
            let mut checker = backend.instantiate();
            checker.check(&kripke, &scenario.spec);
            let mut expected_failure = None;
            for (index, step) in steps.iter().enumerate() {
                let changed = encoder.apply_switch_update(&mut kripke, step.switch, &step.table);
                let check = checker.recheck(&kripke, &scenario.spec, &changed);
                if !check.holds {
                    expected_failure = Some((index, check.counterexample));
                    break;
                }
            }
            match (&outcome.first_failure, &expected_failure) {
                (Some(k), Some((expected, cex))) => {
                    assert_eq!(k, expected, "seed {seed}, {backend}: failing prefix diverged");
                    assert_eq!(outcome.steps_applied, k + 1, "seed {seed}, {backend}");
                    assert_eq!(
                        &outcome.counterexample, cex,
                        "seed {seed}, {backend}: counterexample diverged"
                    );
                }
                (None, None) => {
                    assert_eq!(outcome.steps_applied, steps.len(), "seed {seed}, {backend}");
                }
                other => panic!("seed {seed}, {backend}: verdicts diverged: {other:?}"),
            }
            assert_eq!(outcome.checks, outcome.steps_applied, "seed {seed}, {backend}");
        }
    }
}
