//! The wait-removal heuristic (§4.2 C).
//!
//! The search emits fully careful sequences — a `wait` between every pair of
//! switch updates. Most of those waits are unnecessary: a wait before
//! updating switch `s` is only needed if a packet that was forwarded by some
//! switch updated since the previous (kept) wait could still be in flight and
//! reach `s`. This pass replays the sequence, tracks the switches updated
//! since the last kept wait, and keeps a wait only when the next switch is
//! reachable from one of them in the (conservative) union of the forwarding
//! graphs of the configurations seen in that window.
//!
//! The window is kept as an overlay on the current configuration's edges.
//! Only the switches updated in the window carry window edges of their own:
//! the union of their edges over every table they held since the last kept
//! wait. Every other switch's window edges are its current ones, computed
//! from its table on the first visit and replaced when a unit updates it. A
//! kept wait clears the overlay, so nothing is copied per wait and only the
//! switches a search reaches are ever looked at. "Does a window switch reach
//! the next one?" is one breadth-first search from all of them at once.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use netupd_model::{CommandSeq, Configuration, SwitchId, Table};

use crate::problem::UpdateProblem;
use crate::units::UpdateUnit;

/// The switch-level forwarding edges out of `sw` under `table`, restricted
/// to the problem's traffic classes: `sw → b` if some rule that can match
/// one of the classes forwards out a port whose link leads to `b`.
fn switch_edges(problem: &UpdateProblem, sw: SwitchId, table: &Table) -> BTreeSet<SwitchId> {
    let mut nexts = BTreeSet::new();
    for rule in table.iter() {
        let relevant = problem
            .classes
            .iter()
            .any(|class| rule.overlaps_class(class, None));
        if !relevant {
            continue;
        }
        for port in rule.actions().iter().filter_map(|a| a.forward_port()) {
            if let Some((_, link)) = problem.topology.link_from_port(sw, port) {
                nexts.extend(link.dst.switch());
            }
        }
    }
    nexts
}

/// The edges of `sw` under its table in `config`, computed on first ask and
/// kept in `current`.
fn current_edges<'c>(
    problem: &UpdateProblem,
    config: &Configuration,
    current: &'c mut HashMap<SwitchId, BTreeSet<SwitchId>>,
    sw: SwitchId,
) -> &'c BTreeSet<SwitchId> {
    current.entry(sw).or_insert_with(|| {
        let table = config.table_ref(sw).cloned().unwrap_or_default();
        switch_edges(problem, sw, &table)
    })
}

/// Whether some switch of `window` reaches `target` (a switch reaches
/// itself): one breadth-first search from all of them, over each window
/// switch's window edges and every other switch's current edges.
fn window_reaches(
    problem: &UpdateProblem,
    config: &Configuration,
    current: &mut HashMap<SwitchId, BTreeSet<SwitchId>>,
    window: &BTreeMap<SwitchId, BTreeSet<SwitchId>>,
    target: SwitchId,
) -> bool {
    if window.contains_key(&target) {
        return true;
    }
    let mut seen: HashSet<SwitchId> = window.keys().copied().collect();
    let mut queue: VecDeque<SwitchId> = window.keys().copied().collect();
    while let Some(sw) = queue.pop_front() {
        let nexts = match window.get(&sw) {
            Some(edges) => edges,
            None => current_edges(problem, config, current, sw),
        };
        for &next in nexts {
            if next == target {
                return true;
            }
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    false
}

/// Rebuilds the command sequence for `order`, keeping only the waits that are
/// needed for correctness according to the reachability heuristic.
pub fn remove_unnecessary_waits(problem: &UpdateProblem, order: &[UpdateUnit]) -> CommandSeq {
    let mut commands = CommandSeq::new();
    let mut config = problem.initial.clone();
    // Each visited switch's edges under its table in `config`.
    let mut current = HashMap::new();
    // The switches updated since the last kept wait, each with the union of
    // its edges over the tables it held since then.
    let mut window: BTreeMap<SwitchId, BTreeSet<SwitchId>> = BTreeMap::new();
    for unit in order {
        let switch = unit.switch();
        if window_reaches(problem, &config, &mut current, &window, switch) {
            commands.push_wait();
            window.clear();
        }
        let table = unit.apply(&config);
        let nexts = switch_edges(problem, switch, &table);
        (window.entry(switch))
            .or_insert_with(|| current_edges(problem, &config, &mut current, switch).clone())
            .extend(nexts.iter().copied());
        current.insert(switch, nexts);
        config.set_table(switch, table.clone());
        commands.push_update(switch, table);
    }
    commands
}

/// The fully careful command sequence for a unit order: one
/// table-replacement command per unit, separated by waits (Definition 5). It
/// is the reference [`remove_unnecessary_waits`] is tested against.
#[cfg(test)]
pub(crate) fn build_command_sequence(initial: &Configuration, order: &[UpdateUnit]) -> CommandSeq {
    let mut commands = CommandSeq::new();
    let mut config = initial.clone();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Granularity;
    use crate::units::plan_units;
    use netupd_ltl::Ltl;
    use netupd_model::{
        Action, Command, Configuration, Pattern, PortId, Priority, Rule, Topology, TrafficClass,
    };
    use netupd_topo::generators;
    use netupd_topo::scenario::{diamond_scenario, multi_diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The whole-configuration pass the per-switch one replaced, kept as its
    /// reference: the forwarding edges of every configuration in the window
    /// recomputed whole, and merged in, after every unit.
    fn reference_remove_unnecessary_waits(
        problem: &UpdateProblem,
        order: &[UpdateUnit],
    ) -> CommandSeq {
        type Edges = BTreeMap<SwitchId, BTreeSet<SwitchId>>;
        fn reachable(edges: &Edges, from: SwitchId, to: SwitchId) -> bool {
            if from == to {
                return true;
            }
            let mut seen = BTreeSet::from([from]);
            let mut queue = VecDeque::from([from]);
            while let Some(sw) = queue.pop_front() {
                for next in edges.get(&sw).into_iter().flatten() {
                    if *next == to {
                        return true;
                    }
                    if seen.insert(*next) {
                        queue.push_back(*next);
                    }
                }
            }
            false
        }
        fn forwarding_edges(problem: &UpdateProblem, config: &Configuration) -> Edges {
            let mut edges = Edges::new();
            for (sw, table) in config.iter() {
                for rule in table.iter() {
                    let relevant =
                        (problem.classes.iter()).any(|class| rule.overlaps_class(class, None));
                    if !relevant {
                        continue;
                    }
                    for action in rule.actions() {
                        let Some(port) = action.forward_port() else {
                            continue;
                        };
                        if let Some((_, link)) = problem.topology.link_from_port(sw, port) {
                            if let Some(next) = link.dst.switch() {
                                edges.entry(sw).or_default().insert(next);
                            }
                        }
                    }
                }
            }
            edges
        }
        fn merge_edges(into: &mut Edges, from: &Edges) {
            for (sw, nexts) in from {
                into.entry(*sw).or_default().extend(nexts.iter().copied());
            }
        }

        let mut commands = CommandSeq::new();
        let mut config = problem.initial.clone();
        let mut window_switches: BTreeSet<SwitchId> = BTreeSet::new();
        let mut window_edges = forwarding_edges(problem, &config);
        for unit in order {
            let switch = unit.switch();
            let needs_wait =
                (window_switches.iter()).any(|updated| reachable(&window_edges, *updated, switch));
            if needs_wait {
                commands.push_wait();
                window_switches.clear();
                window_edges = forwarding_edges(problem, &config);
            }
            let table = unit.apply(&config);
            config.set_table(switch, table.clone());
            commands.push_update(switch, table);
            window_switches.insert(switch);
            merge_edges(&mut window_edges, &forwarding_edges(problem, &config));
        }
        commands
    }

    /// The updates and waits of a sequence, as `s1 wait s0 …`.
    fn shape(commands: &CommandSeq) -> String {
        (commands.iter())
            .filter_map(|command| match command {
                Command::Update(sw, _) => Some(sw.to_string()),
                Command::Flush => Some("wait".to_string()),
                Command::Incr => None,
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The overlay pass builds the reference's command sequence on
    /// fuzz-generated problems, and on two-flow diamonds over a 200-switch
    /// small world (where the pass visits few of the switches), at both
    /// granularities, under random unit orders — most of them orders no
    /// search would commit, and at rule granularity many with one switch
    /// taking several tables in a row.
    #[test]
    fn per_switch_edges_give_the_whole_configuration_sequence_on_random_orders() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut problems = Vec::new();
        for index in 0..24 {
            for generated in netupd_fuzz::generate_case(0x3a175, index).problems {
                // The generator links its own build of this crate; rebuild
                // the problem from its parts.
                let problem = UpdateProblem::new(
                    generated.topology,
                    generated.initial,
                    generated.final_config,
                    generated.classes,
                    generated.ingress_hosts,
                    generated.spec,
                );
                problems.push((format!("case {index}"), problem));
            }
        }
        for seed in 0..3 {
            let mut draw = StdRng::seed_from_u64(seed);
            let graph = generators::small_world(200, 4, 0.1, &mut draw);
            let scenario = multi_diamond_scenario(&graph, PropertyKind::Reachability, 2, &mut draw)
                .expect("two disjoint diamonds fit");
            let problem = UpdateProblem::from_scenario(&scenario);
            problems.push((format!("small world {seed}"), problem));
        }
        let mut compared = [0usize; 2];
        for (name, problem) in &problems {
            for (g, granularity) in [Granularity::Switch, Granularity::Rule]
                .into_iter()
                .enumerate()
            {
                let mut order = plan_units(problem, granularity);
                for round in 0..4 {
                    order.shuffle(&mut rng);
                    let commands = remove_unnecessary_waits(problem, &order);
                    let reference = reference_remove_unnecessary_waits(problem, &order);
                    let context = format!("{name} {granularity:?} round {round}");
                    assert_eq!(shape(&commands), shape(&reference), "{context}");
                    assert_eq!(commands, reference, "{context}");
                    compared[g] += usize::from(order.len() > 1);
                }
            }
        }
        assert!(compared.iter().all(|n| *n > 0), "{compared:?}");
    }

    /// At rule granularity `s1` takes three tables in a row, a kept wait
    /// resetting the window between each. The window after the last reset
    /// must hold `s1`'s current edges only: its removed rule toward `s2`
    /// would make `s0 → s1 → s2` a path and keep a wait before `s2`.
    #[test]
    fn a_switch_taking_three_tables_in_a_row_resets_the_window_to_its_current_edges() {
        let mut topo = Topology::new();
        let hosts: Vec<_> = (0..3).map(|_| topo.add_host()).collect();
        let s = topo.add_switches(4);
        topo.attach_host(hosts[0], s[0], PortId(1));
        topo.add_duplex_link(s[0], PortId(2), s[1], PortId(1));
        topo.add_duplex_link(s[1], PortId(2), s[2], PortId(1));
        topo.add_duplex_link(s[1], PortId(3), s[3], PortId(1));
        topo.attach_host(hosts[1], s[2], PortId(2));
        topo.attach_host(hosts[2], s[3], PortId(2));
        let fwd = |priority: u32, port: u32| {
            Rule::new(
                Priority(priority),
                Pattern::any(),
                vec![Action::Forward(PortId(port))],
            )
        };
        let initial = Configuration::new()
            .with_table(s[0], Table::new(vec![fwd(1, 2)]))
            .with_table(s[1], Table::new(vec![fwd(1, 2)]))
            .with_table(s[2], Table::new(vec![fwd(1, 2)]))
            .with_table(s[3], Table::new(vec![fwd(1, 2)]));
        let final_config = Configuration::new()
            .with_table(s[0], Table::new(vec![fwd(2, 2)]))
            .with_table(s[1], Table::new(vec![fwd(2, 3), fwd(3, 3)]))
            .with_table(s[2], Table::new(vec![fwd(2, 2)]))
            .with_table(s[3], Table::new(vec![fwd(1, 2)]));
        let problem = UpdateProblem::new(
            topo,
            initial,
            final_config,
            vec![TrafficClass::new()],
            vec![hosts[0]],
            Ltl::True,
        );
        let add = |sw: usize, priority: u32, port: u32| UpdateUnit::AddRule {
            switch: s[sw],
            rule: fwd(priority, port),
        };
        let remove = |sw: usize, priority: u32, port: u32| UpdateUnit::RemoveRule {
            switch: s[sw],
            rule: fwd(priority, port),
        };
        let order = vec![
            add(1, 2, 3),
            add(1, 3, 3),
            remove(1, 1, 2),
            add(0, 2, 2),
            remove(0, 1, 2),
            add(2, 2, 2),
            remove(2, 1, 2),
        ];
        let planned = plan_units(&problem, Granularity::Rule);
        assert_eq!(planned.len(), order.len());
        assert!(order.iter().all(|unit| planned.contains(unit)));

        let commands = remove_unnecessary_waits(&problem, &order);
        assert_eq!(
            commands,
            reference_remove_unnecessary_waits(&problem, &order)
        );
        assert_eq!(shape(&commands), "s1 wait s1 wait s1 s0 wait s0 s2 wait s2");
    }

    fn sample_problem() -> (UpdateProblem, Vec<UpdateUnit>) {
        let mut rng = StdRng::seed_from_u64(4);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).unwrap();
        let problem = UpdateProblem::from_scenario(&scenario);
        let units = plan_units(&problem, Granularity::Switch);
        (problem, units)
    }

    #[test]
    fn wait_removal_preserves_updates_and_order() {
        let (problem, units) = sample_problem();
        let full = build_command_sequence(&problem.initial, &units);
        let trimmed = remove_unnecessary_waits(&problem, &units);
        assert_eq!(full.num_updates(), trimmed.num_updates());
        let order_full: Vec<SwitchId> = full.updates().map(|(sw, _)| sw).collect();
        let order_trimmed: Vec<SwitchId> = trimmed.updates().map(|(sw, _)| sw).collect();
        assert_eq!(order_full, order_trimmed);
        assert!(trimmed.num_waits() <= full.num_waits());
    }

    #[test]
    fn removes_most_waits_on_diamond_updates() {
        let (problem, units) = sample_problem();
        let full = build_command_sequence(&problem.initial, &units);
        let trimmed = remove_unnecessary_waits(&problem, &units);
        // The paper reports ~99.9% of waits removed; on a single diamond we
        // at least expect strictly fewer waits than the fully careful
        // sequence whenever more than two switches are updated.
        if full.num_updates() > 2 {
            assert!(trimmed.num_waits() < full.num_waits());
        }
    }

    #[test]
    fn keeps_a_wait_when_updated_switch_feeds_the_next_one() {
        // Build a tiny chain problem where s0 forwards to s1 in both
        // configurations; updating s0 then s1 must keep a wait because s1 can
        // still receive packets forwarded by the old s0.
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s = topo.add_switches(2);
        topo.attach_host(h0, s[0], PortId(1));
        topo.add_duplex_link(s[0], PortId(2), s[1], PortId(1));
        topo.attach_host(h1, s[1], PortId(2));
        let fwd = |pri: u32, port: u32| {
            Table::new(vec![Rule::new(
                Priority(pri),
                Pattern::any(),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let initial = Configuration::new()
            .with_table(s[0], fwd(1, 2))
            .with_table(s[1], fwd(1, 2));
        let final_config = Configuration::new()
            .with_table(s[0], fwd(2, 2))
            .with_table(s[1], fwd(2, 2));
        let problem = UpdateProblem::new(
            topo,
            initial,
            final_config,
            vec![TrafficClass::new()],
            vec![h0],
            Ltl::True,
        );
        let units = plan_units(&problem, Granularity::Switch);
        let trimmed = remove_unnecessary_waits(&problem, &units);
        // s0 feeds s1 (or vice versa depending on unit order), so one wait
        // must remain between the two updates.
        assert_eq!(trimmed.num_waits(), 1);
    }
}
