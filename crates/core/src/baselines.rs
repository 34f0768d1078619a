//! Baseline update mechanisms: naïve updates and two-phase (versioned)
//! consistent updates, used for the Figure 2 comparison.

use std::collections::BTreeMap;

use netupd_model::{Action, CommandSeq, Field, Priority, Rule, SwitchId, Table};

use crate::problem::UpdateProblem;

/// The version tag value stamped on packets after a two-phase flip.
pub const TWO_PHASE_NEW_VERSION: u64 = 2;

/// The naïve update: install every final table in switch-identifier order,
/// with no synchronization at all. This is what an operator gets by simply
/// pushing the new configuration, and it is the blue line of Figure 2(a).
pub fn naive_update(problem: &UpdateProblem) -> CommandSeq {
    let mut commands = CommandSeq::new();
    for switch in problem.switches_to_update() {
        commands.push_update(switch, problem.final_config.table(switch));
    }
    commands
}

/// A two-phase update plan: the command sequence plus the maximum number of
/// rules each switch holds at any point during the transition (the overhead
/// reported in Figure 2(b)).
#[derive(Debug, Clone)]
pub struct TwoPhasePlan {
    /// The commands implementing the two-phase update.
    pub commands: CommandSeq,
    /// Peak rule count per switch during the transition.
    pub max_rules_per_switch: BTreeMap<SwitchId, usize>,
}

/// Builds a two-phase (versioned) consistent update [Reitblatt et al. 2012]:
///
/// 1. every internal switch installs the new rules *in addition to* the old
///    ones, with the new rules guarded by a version-tag match;
/// 2. after a wait, the ingress switches are flipped: they stamp incoming
///    packets with the new version and forward them according to the new
///    configuration;
/// 3. after a second wait (all old-version packets have drained), the old
///    rules are removed, leaving exactly the final configuration.
///
/// The returned plan records the per-switch peak rule count, which is the
/// sum of the old and new rule counts on switches that carry both versions.
pub fn two_phase_update(problem: &UpdateProblem) -> TwoPhasePlan {
    let ingress_switches: Vec<SwitchId> = problem
        .ingress_hosts
        .iter()
        .filter_map(|h| problem.topology.switch_of_host(*h).map(|(sw, _)| sw))
        .collect();

    let mut all_switches: Vec<SwitchId> = problem
        .initial
        .switches()
        .chain(problem.final_config.switches())
        .collect();
    all_switches.sort_unstable();
    all_switches.dedup();

    let mut commands = CommandSeq::new();
    let mut max_rules: BTreeMap<SwitchId, usize> = BTreeMap::new();
    let mut combined_tables: BTreeMap<SwitchId, Table> = BTreeMap::new();

    // Phase 1: install tagged new rules alongside the old rules everywhere
    // except the ingress switches (which flip in phase 2).
    for switch in &all_switches {
        let old = problem.initial.table(*switch);
        let new = problem.final_config.table(*switch);
        if old == new {
            max_rules.insert(*switch, old.len());
            continue;
        }
        let mut combined = old.clone();
        combined.extend(new.iter().map(tag_guarded));
        max_rules.insert(*switch, combined.len());
        if !ingress_switches.contains(switch) {
            commands.push_update(*switch, combined.clone());
        }
        combined_tables.insert(*switch, combined);
    }
    commands.push_wait();

    // Phase 2: flip the ingress switches — stamp the new version on ingress
    // and use the new configuration's forwarding.
    for switch in &ingress_switches {
        let new = problem.final_config.table(*switch);
        let old = problem.initial.table(*switch);
        if old == new {
            continue;
        }
        let flipped: Table = new.iter().map(stamp_version).collect();
        let peak = max_rules.entry(*switch).or_insert(0);
        *peak = (*peak).max(old.len() + flipped.len()).max(flipped.len());
        commands.push_update(*switch, flipped);
    }
    commands.push_wait();

    // Phase 3: clean up — install exactly the final tables everywhere.
    for switch in &all_switches {
        let new = problem.final_config.table(*switch);
        let old = problem.initial.table(*switch);
        if old == new || ingress_switches.contains(switch) {
            continue;
        }
        commands.push_update(*switch, new);
    }

    TwoPhasePlan {
        commands,
        max_rules_per_switch: max_rules,
    }
}

/// Guards a rule so it only applies to packets carrying the new version tag.
fn tag_guarded(rule: &Rule) -> Rule {
    let mut pattern = rule.pattern().clone();
    pattern = pattern.with_field(Field::Tag, TWO_PHASE_NEW_VERSION);
    Rule::new(
        Priority(rule.priority().0 + 1000),
        pattern,
        rule.actions().to_vec(),
    )
}

/// Prepends a version-stamping action to a rule (used on ingress switches).
fn stamp_version(rule: &Rule) -> Rule {
    let mut actions = vec![Action::SetField(Field::Tag, TWO_PHASE_NEW_VERSION)];
    actions.extend(rule.actions().iter().copied());
    Rule::new(rule.priority(), rule.pattern().clone(), actions)
}

/// Peak rule count per switch for an *ordering* update: each switch holds at
/// most `max(|old|, |new|)` rules plus, transiently, both tables while the
/// single replacement command installs (counted as `|old| + |new|` only at
/// the moment of its own update). The steady-state figure the paper plots is
/// simply the larger of the two tables, which is what this helper reports.
pub fn ordering_rule_overhead(problem: &UpdateProblem) -> BTreeMap<SwitchId, usize> {
    let mut all_switches: Vec<SwitchId> = problem
        .initial
        .switches()
        .chain(problem.final_config.switches())
        .collect();
    all_switches.sort_unstable();
    all_switches.dedup();
    all_switches
        .into_iter()
        .map(|sw| {
            let old = problem.initial.rules_on(sw);
            let new = problem.final_config.rules_on(sw);
            (sw, old.max(new))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UpdateProblem;
    use netupd_topo::generators;
    use netupd_topo::scenario::{diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_problem() -> UpdateProblem {
        let mut rng = StdRng::seed_from_u64(6);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).unwrap();
        UpdateProblem::from_scenario(&scenario)
    }

    #[test]
    fn naive_update_touches_every_differing_switch_without_waits() {
        let problem = sample_problem();
        let commands = naive_update(&problem);
        assert_eq!(commands.num_updates(), problem.switches_to_update().len());
        assert_eq!(commands.len(), commands.num_updates());
    }

    #[test]
    fn two_phase_doubles_rules_on_shared_switches() {
        let problem = sample_problem();
        let plan = two_phase_update(&problem);
        let ordering = ordering_rule_overhead(&problem);
        // On at least one switch the two-phase peak strictly exceeds the
        // ordering-update peak (that is the point of Figure 2(b)).
        let mut some_overhead = false;
        for (sw, peak) in &plan.max_rules_per_switch {
            let baseline = ordering.get(sw).copied().unwrap_or(0);
            assert!(*peak >= baseline);
            if *peak > baseline {
                some_overhead = true;
            }
        }
        assert!(some_overhead);
    }

    #[test]
    fn two_phase_sequence_has_two_waits_and_ends_in_final_config() {
        let problem = sample_problem();
        let plan = two_phase_update(&problem);
        assert_eq!(plan.commands.num_waits(), 2);
        // Replaying the commands yields the final configuration (modulo the
        // ingress switches, which keep their version-stamping rules; their
        // forwarding behaviour matches the final configuration).
        let mut config = problem.initial.clone();
        for (sw, table) in plan.commands.updates() {
            config.set_table(sw, table.clone());
        }
        for sw in problem.switches_to_update() {
            let is_ingress = problem
                .ingress_hosts
                .iter()
                .filter_map(|h| problem.topology.switch_of_host(*h).map(|(s, _)| s))
                .any(|s| s == sw);
            if !is_ingress {
                assert_eq!(config.table(sw), problem.final_config.table(sw));
            }
        }
    }

    #[test]
    fn tag_guard_and_stamp_helpers() {
        let rule = Rule::new(
            Priority(5),
            netupd_model::Pattern::any(),
            vec![Action::Forward(netupd_model::PortId(1))],
        );
        let guarded = tag_guarded(&rule);
        assert_eq!(
            guarded.pattern().field(Field::Tag),
            Some(TWO_PHASE_NEW_VERSION)
        );
        assert!(guarded.priority() > rule.priority());
        let stamped = stamp_version(&rule);
        assert_eq!(
            stamped.actions()[0],
            Action::SetField(Field::Tag, TWO_PHASE_NEW_VERSION)
        );
    }
}
