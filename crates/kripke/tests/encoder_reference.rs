//! The encoder against a reference written from the paper's semantics.
//!
//! `NetworkKripke` reads the forward ports of a matching rule and never
//! builds a packet. The reference here does what Definition 9 says: it runs
//! `Table::process` on the class's representative packet for each state's
//! successors and `Dropped` bit, and `Rule::apply` for every matching rule in
//! the footprint closure. The two must agree state for state, including on
//! tables whose rules rewrite header fields before and between forwards.

use std::collections::BTreeSet;

use netupd_kripke::{Kripke, NetworkKripke, StateKey, StateRole};
use netupd_ltl::Prop;
use netupd_model::{
    Action, Configuration, Endpoint, Field, HostId, Pattern, PortId, Priority, Rule, Table,
    Topology, TrafficClass,
};
use netupd_synth::baselines::two_phase_update;
use netupd_synth::units::plan_units;
use netupd_synth::{Granularity, UpdateProblem};

/// The reference's view of one problem's encoding.
struct Reference<'a> {
    topology: &'a Topology,
    classes: &'a [TrafficClass],
    ingress: &'a [HostId],
}

impl Reference<'_> {
    /// The state a packet at `key` reaches when it leaves out of `port`.
    fn next(&self, key: StateKey, port: PortId) -> Option<StateKey> {
        let (_, link) = self.topology.link_from_port(key.switch, port)?;
        Some(match link.dst {
            Endpoint::SwitchPort(sw, pt) => StateKey::arrival(sw, pt, key.class),
            Endpoint::Host(_) => StateKey::egress(key.switch, port, key.class),
        })
    }

    /// The states reachable from an admitted ingress port when a switch may
    /// forward by any matching rule of its table in any of `configs`.
    fn footprint(&self, configs: &[&Configuration]) -> BTreeSet<StateKey> {
        let mut reached = BTreeSet::new();
        for (class, traffic) in self.classes.iter().enumerate() {
            let packet = traffic.representative();
            let mut stack: Vec<StateKey> = (self.topology.links().iter())
                .filter_map(|link| match (link.src, link.dst) {
                    (Endpoint::Host(h), Endpoint::SwitchPort(sw, pt))
                        if self.ingress.is_empty() || self.ingress.contains(&h) =>
                    {
                        Some(StateKey::arrival(sw, pt, class))
                    }
                    _ => None,
                })
                .collect();
            while let Some(key) = stack.pop() {
                if !reached.insert(key) || key.role == StateRole::Egress {
                    continue;
                }
                let tables = configs.iter().filter_map(|c| c.table_ref(key.switch));
                for rule in tables.flat_map(Table::iter) {
                    if rule.matches(&packet, key.port) {
                        for (_, port) in rule.apply(&packet) {
                            stack.extend(self.next(key, port));
                        }
                    }
                }
            }
        }
        reached
    }

    /// The successors (sorted) and the `Dropped` bit of `key` under
    /// `config`, over the states in `states`.
    fn wiring(
        &self,
        config: &Configuration,
        key: StateKey,
        states: &BTreeSet<StateKey>,
    ) -> (Vec<StateKey>, bool) {
        if key.role == StateRole::Egress {
            return (vec![key], false);
        }
        let packet = self.classes[key.class].representative();
        let outputs = (config.table_ref(key.switch))
            .map_or_else(Vec::new, |table| table.process(&packet, key.port));
        let mut successors: Vec<StateKey> = (outputs.iter())
            .filter_map(|(_, port)| self.next(key, *port))
            .filter(|next| states.contains(next))
            .collect();
        let dropped = outputs.is_empty() || successors.is_empty();
        if successors.is_empty() {
            successors.push(key);
        }
        successors.sort_unstable();
        successors.dedup();
        (successors, dropped)
    }

    /// Asserts that `kripke`, encoded from `config`, is the reference's
    /// wiring on the same states.
    fn assert_encodes(&self, kripke: &Kripke, config: &Configuration, context: &str) {
        let states: BTreeSet<StateKey> = kripke.states().map(|s| kripke.key(s)).collect();
        assert_eq!(states.len(), kripke.len(), "{context}: repeated keys");
        for state in kripke.states() {
            let key = kripke.key(state);
            let mut successors: Vec<StateKey> = (kripke.successors(state).iter())
                .map(|s| kripke.key(*s))
                .collect();
            successors.sort_unstable();
            successors.dedup();
            let dropped = kripke.has_prop(state, &Prop::Dropped);
            assert_eq!(
                (successors, dropped),
                self.wiring(config, key, &states),
                "{context}: state {key}"
            );
        }
    }

    /// Checks the encoder on `configs`: the whole topology, and the slice
    /// covering all of them, which must hold exactly the reference footprint.
    fn check(&self, configs: &[&Configuration], context: &str) {
        let whole = NetworkKripke::new(self.topology.clone(), self.classes.to_vec());
        let whole = match self.ingress {
            [] => whole,
            hosts => whole.with_ingress_hosts(hosts.iter().copied()),
        };
        let mut sliced = whole.clone();
        sliced.cover(configs);
        let footprint = self.footprint(configs);
        for (i, config) in configs.iter().enumerate() {
            let context = format!("{context} config {i}");
            self.assert_encodes(&whole.encode(config), config, &format!("{context} whole"));
            let kripke = sliced.encode(config);
            let covered: BTreeSet<StateKey> = kripke.states().map(|s| kripke.key(s)).collect();
            assert_eq!(covered, footprint, "{context}: footprint");
            self.assert_encodes(&kripke, config, &format!("{context} sliced"));
        }
    }
}

fn reference(problem: &UpdateProblem) -> Reference<'_> {
    Reference {
        topology: &problem.topology,
        classes: &problem.classes,
        ingress: &problem.ingress_hosts,
    }
}

/// The configurations an update passes through at rule granularity, where a
/// partial table can expose a rule both full tables shadow.
fn rule_granularity_configurations(problem: &UpdateProblem) -> Vec<Configuration> {
    let mut config = problem.initial.clone();
    let mut configs = vec![config.clone()];
    for unit in plan_units(problem, Granularity::Rule) {
        config.set_table(unit.switch(), unit.apply(&config));
        configs.push(config.clone());
    }
    configs
}

#[test]
fn the_encoder_matches_the_reference_on_fuzz_generated_configurations() {
    let mut states = 0;
    for index in 0..24 {
        for problem in netupd_fuzz::generate_case(0x6b1e, index).problems {
            let configs = rule_granularity_configurations(&problem);
            let configs: Vec<&Configuration> = configs.iter().collect();
            let reference = reference(&problem);
            reference.check(&configs, &format!("case {index}"));
            states += reference.footprint(&configs).len();
        }
    }
    assert!(states > 0);
}

#[test]
fn the_encoder_matches_the_reference_on_two_phase_version_stamping_tables() {
    let mut stamped = 0;
    for index in 0..16 {
        for problem in netupd_fuzz::generate_case(0x2f4a, index).problems {
            let plan = two_phase_update(&problem);
            let mut config = problem.initial.clone();
            let mut configs = vec![config.clone()];
            for (sw, table) in plan.commands.updates() {
                config.set_table(sw, table.clone());
                configs.push(config.clone());
            }
            stamped += (configs.iter().flat_map(|c| c.iter()))
                .flat_map(|(_, table)| table.iter())
                .filter(|rule| (rule.actions().iter()).any(|a| matches!(a, Action::SetField(..))))
                .count();
            let configs: Vec<&Configuration> = configs.iter().collect();
            reference(&problem).check(&configs, &format!("case {index}"));
        }
    }
    assert!(stamped > 0, "no version-stamping rule was encoded");
}

/// `h0 → s0`, which forwards to `s1` (port 2) and `s2` (port 3), each with a
/// host on its port 2, and `s1`'s port 3 leading back into `s0`'s port 4.
/// `s0` holds a rule that rewrites fields before and between two forwards,
/// a drop rule, and a rule restricted to packets arriving on port 4.
#[test]
fn the_encoder_matches_the_reference_on_field_rewrites_drops_and_in_ports() {
    let mut topo = Topology::new();
    let hosts: Vec<HostId> = (0..3).map(|_| topo.add_host()).collect();
    let s = topo.add_switches(3);
    topo.attach_host(hosts[0], s[0], PortId(1));
    topo.add_duplex_link(s[0], PortId(2), s[1], PortId(1));
    topo.add_duplex_link(s[0], PortId(3), s[2], PortId(1));
    topo.add_duplex_link(s[1], PortId(3), s[0], PortId(4));
    topo.attach_host(hosts[1], s[1], PortId(2));
    topo.attach_host(hosts[2], s[2], PortId(2));
    let dst = |d: u64| Pattern::any().with_field(Field::Dst, d);
    let fwd = |port: u32| Action::Forward(PortId(port));
    let s0_rules = vec![
        Rule::new(
            Priority(9),
            dst(1).with_in_port(PortId(1)),
            vec![
                Action::SetField(Field::Tag, 7),
                fwd(2),
                Action::SetField(Field::Src, 5),
                fwd(3),
            ],
        ),
        Rule::drop(Priority(8), dst(2)),
        Rule::new(
            Priority(5),
            Pattern::any().with_in_port(PortId(4)),
            vec![fwd(3)],
        ),
        Rule::new(Priority(1), Pattern::any(), vec![fwd(2)]),
    ];
    let full = Configuration::new()
        .with_table(s[0], Table::new(s0_rules.clone()))
        .with_table(
            s[1],
            Table::new(vec![
                Rule::new(Priority(2), dst(3), vec![fwd(3)]),
                Rule::new(Priority(1), Pattern::any(), vec![fwd(2)]),
            ]),
        )
        .with_table(
            s[2],
            Table::new(vec![Rule::new(Priority(1), Pattern::any(), vec![fwd(2)])]),
        );
    // The full tables, and `s0` without each of its rules in turn.
    let mut configs = vec![full.clone()];
    for skip in 0..s0_rules.len() {
        let rules = (s0_rules.iter().enumerate())
            .filter(|(i, _)| *i != skip)
            .map(|(_, rule)| rule.clone())
            .collect();
        configs.push(full.updated(s[0], Table::new(rules)));
    }
    let classes: Vec<TrafficClass> = (1..=4)
        .map(|d| TrafficClass::new().with_field(Field::Dst, d))
        .collect();
    let reference = Reference {
        topology: &topo,
        classes: &classes,
        ingress: &hosts[..1],
    };
    let configs: Vec<&Configuration> = configs.iter().collect();
    reference.check(&configs, "hand-built");

    // The rewriting rule forwards class 0 both ways, the drop rule holds
    // class 1, and class 2 reaches `s2` only through the in-port rule.
    let encoder = NetworkKripke::new(topo.clone(), classes.clone()).with_ingress_hosts([hosts[0]]);
    let kripke = encoder.encode(&full);
    let at = |sw, pt, class| {
        (kripke.state_by_key(&StateKey::arrival(sw, PortId(pt), class))).expect("state")
    };
    assert_eq!(kripke.successors(at(s[0], 1, 0)).len(), 2);
    assert!(kripke.has_prop(at(s[0], 1, 1), &Prop::Dropped));
    assert_eq!(
        kripke.successors(at(s[0], 4, 2)),
        [at(s[2], 1, 2)],
        "the in-port rule"
    );
    assert!(!kripke.has_prop(at(s[0], 1, 3), &Prop::Dropped));
}
