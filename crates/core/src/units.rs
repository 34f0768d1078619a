//! Atomic update units: the steps the search orders, and [`UnitSet`], the one
//! representation of "which of them are applied".

use netupd_model::{Configuration, Rule, SwitchId, Table};

use crate::options::Granularity;
use crate::problem::UpdateProblem;

/// One atomic step of an update.
///
/// At switch granularity a unit replaces the whole table of one switch with
/// its final table; at rule granularity a unit adds or removes a single rule.
/// Either way, applying a unit to a configuration yields the next
/// configuration, and the unit is expressed to the data plane as a whole-table
/// replacement command for its switch (the model's update primitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateUnit {
    /// Replace the whole table of a switch with its final table.
    ReplaceTable {
        /// The switch to update.
        switch: SwitchId,
        /// The table to install.
        table: Table,
    },
    /// Add a single rule to a switch.
    AddRule {
        /// The switch to update.
        switch: SwitchId,
        /// The rule to add.
        rule: Rule,
    },
    /// Remove a single rule from a switch.
    RemoveRule {
        /// The switch to update.
        switch: SwitchId,
        /// The rule to remove.
        rule: Rule,
    },
}

impl UpdateUnit {
    /// The switch this unit modifies.
    pub fn switch(&self) -> SwitchId {
        match self {
            UpdateUnit::ReplaceTable { switch, .. }
            | UpdateUnit::AddRule { switch, .. }
            | UpdateUnit::RemoveRule { switch, .. } => *switch,
        }
    }

    /// Applies this unit to `config`, returning the switch's new table.
    pub fn apply(&self, config: &Configuration) -> Table {
        match self {
            UpdateUnit::ReplaceTable { table, .. } => table.clone(),
            UpdateUnit::AddRule { switch, rule } => {
                let mut table = config.table(*switch);
                table.add_rule(rule.clone());
                table
            }
            UpdateUnit::RemoveRule { switch, rule } => {
                let mut table = config.table(*switch);
                table.remove_rule(rule);
                table
            }
        }
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            UpdateUnit::ReplaceTable { switch, table } => {
                format!("replace table of {switch} ({} rules)", table.len())
            }
            UpdateUnit::AddRule { switch, rule } => format!("add rule to {switch}: {rule}"),
            UpdateUnit::RemoveRule { switch, rule } => format!("remove rule from {switch}: {rule}"),
        }
    }
}

/// Decomposes an update problem into atomic units at the requested
/// granularity.
///
/// At rule granularity, additions are listed before removals for each switch
/// so that a plain left-to-right application keeps the switch functional
/// (make-before-break); the search is still free to reorder them.
pub fn plan_units(problem: &UpdateProblem, granularity: Granularity) -> Vec<UpdateUnit> {
    let mut units = Vec::new();
    for switch in problem.switches_to_update() {
        let old = problem.initial.table(switch);
        let new = problem.final_config.table(switch);
        match granularity {
            Granularity::Switch => units.push(UpdateUnit::ReplaceTable { switch, table: new }),
            Granularity::Rule => {
                let (removed, added) = old.diff(&new);
                for rule in added {
                    units.push(UpdateUnit::AddRule { switch, rule });
                }
                for rule in removed {
                    units.push(UpdateUnit::RemoveRule { switch, rule });
                }
            }
        }
    }
    units
}

/// A set of unit indices: one fixed-width row of `u64` words, sized once
/// from the request's unit count and never grown.
///
/// Every "which units are applied" in the search is one of these — the DFS's
/// current prefix, the rows of the visited set `V`, the SAT-guided strategy's
/// verified prefixes, the ordering store's rows and the sets its walk
/// visits — so `V` is a plain `HashSet<UnitSet>` and the wrong-set test
/// ([`UnitOrdering::excludes`](crate::constraints::UnitOrdering::excludes))
/// is two word-wise passes per clause. Sets compared with each other must
/// come from the same unit count.
///
/// A small type of its own rather than a generic over label rows
/// ([`PropSetRef`](netupd_ltl::intern::PropSetRef)) / `StateSet`: those are
/// typed over their own ids, and `StateSet` grows on insert and has no `Hash`;
/// sharing one bitset would make ltl, kripke and mc branch on their caller
/// for forty lines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitSet {
    words: Box<[u64]>,
}

impl UnitSet {
    /// The empty set over units `0..n`.
    pub fn new(n: usize) -> Self {
        UnitSet {
            words: vec![0; n.div_ceil(64)].into(),
        }
    }

    /// The set over units `0..n` holding `units`.
    pub fn of(n: usize, units: impl IntoIterator<Item = usize>) -> Self {
        let mut set = UnitSet::new(n);
        for unit in units {
            set.insert(unit);
        }
        set
    }

    /// Adds `unit`.
    pub fn insert(&mut self, unit: usize) {
        self.words[unit / 64] |= 1 << (unit % 64);
    }

    /// Removes `unit`.
    pub fn remove(&mut self, unit: usize) {
        self.words[unit / 64] &= !(1 << (unit % 64));
    }

    /// Membership test.
    pub fn contains(&self, unit: usize) -> bool {
        self.words[unit / 64] & (1 << (unit % 64)) != 0
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &UnitSet) -> bool {
        (self.words.iter().zip(other.words.iter())).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no unit.
    pub fn is_disjoint(&self, other: &UnitSet) -> bool {
        (self.words.iter().zip(other.words.iter())).all(|(a, b)| a & b == 0)
    }

    /// Adds every unit of `other`.
    pub fn union_with(&mut self, other: &UnitSet) {
        (self.words.iter_mut().zip(other.words.iter())).for_each(|(a, b)| *a |= b);
    }

    /// The units in both sets.
    pub fn intersection(&self, other: &UnitSet) -> UnitSet {
        UnitSet {
            words: (self.words.iter().zip(other.words.iter()))
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Number of units in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no unit is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over the units present, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_ltl::Ltl;
    use netupd_model::{Action, Pattern, PortId, Priority, Topology, TrafficClass};

    fn rule(dst: u64, port: u32) -> Rule {
        Rule::new(
            Priority(1),
            Pattern::any().with_field(netupd_model::Field::Dst, dst),
            vec![Action::Forward(PortId(port))],
        )
    }

    fn sample_problem() -> UpdateProblem {
        let mut topo = Topology::new();
        let s = topo.add_switches(2);
        let initial = Configuration::new()
            .with_table(s[0], Table::new(vec![rule(1, 1)]))
            .with_table(s[1], Table::new(vec![rule(1, 1)]));
        let final_config = Configuration::new()
            .with_table(s[0], Table::new(vec![rule(1, 2)]))
            .with_table(s[1], Table::new(vec![rule(1, 1)]));
        UpdateProblem::new(
            topo,
            initial,
            final_config,
            vec![TrafficClass::new()],
            Vec::new(),
            Ltl::True,
        )
    }

    #[test]
    fn switch_granularity_plans_one_unit_per_differing_switch() {
        let problem = sample_problem();
        let units = plan_units(&problem, Granularity::Switch);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].switch(), problem.switches_to_update()[0]);
    }

    #[test]
    fn rule_granularity_plans_adds_and_removes() {
        let problem = sample_problem();
        let units = plan_units(&problem, Granularity::Rule);
        assert_eq!(units.len(), 2);
        assert!(matches!(units[0], UpdateUnit::AddRule { .. }));
        assert!(matches!(units[1], UpdateUnit::RemoveRule { .. }));
    }

    #[test]
    fn applying_units_reaches_final_table() {
        let problem = sample_problem();
        let switch = problem.switches_to_update()[0];
        for granularity in [Granularity::Switch, Granularity::Rule] {
            let mut config = problem.initial.clone();
            for unit in plan_units(&problem, granularity) {
                let table = unit.apply(&config);
                config.set_table(unit.switch(), table);
            }
            assert_eq!(config.table(switch), problem.final_config.table(switch));
        }
    }

    #[test]
    fn describe_is_nonempty() {
        let problem = sample_problem();
        for unit in plan_units(&problem, Granularity::Rule) {
            assert!(!unit.describe().is_empty());
        }
    }

    #[test]
    fn unit_sets_work_across_the_word_boundary() {
        for n in [64, 65, 130] {
            let mut set = UnitSet::new(n);
            assert!(set.is_empty());
            for unit in [0, 63, n - 1] {
                set.insert(unit);
                assert!(set.contains(unit), "{n}: {unit}");
            }
            let mut expected = vec![0, 63, n - 1];
            expected.dedup();
            assert_eq!(set.iter().collect::<Vec<_>>(), expected, "{n}");
            assert_eq!(set.len(), expected.len(), "{n}");
            assert_eq!(set, UnitSet::of(n, expected.iter().copied()), "{n}");

            // Subset and disjointness see the last word too.
            let last = UnitSet::of(n, [n - 1]);
            assert!(last.is_subset(&set) && !set.is_subset(&last), "{n}");
            assert!(!last.is_disjoint(&set), "{n}");
            assert_eq!(set.intersection(&last), last, "{n}");
            set.remove(n - 1);
            assert!(!set.contains(n - 1) && !last.is_subset(&set), "{n}");
            assert!(last.is_disjoint(&set), "{n}");
            assert!(set.intersection(&last).is_empty(), "{n}");
            set.union_with(&last);
            assert!(last.is_subset(&set), "{n}");
        }
    }

    #[test]
    fn visited_rows_and_the_wrong_set_at_130_units() {
        use crate::constraints::UnitOrdering;
        use std::collections::HashSet;

        let n = 130;
        // `V`: sets that differ only beyond the first (or second) word are
        // different rows, and a probe built in place finds its row.
        let mut visited: HashSet<UnitSet> = HashSet::new();
        assert!(visited.insert(UnitSet::of(n, [3, 64])));
        assert!(visited.insert(UnitSet::of(n, [3, 129])));
        assert!(!visited.insert(UnitSet::of(n, [129, 3])));
        let mut probe = UnitSet::of(n, [3]);
        assert!(!visited.contains(&probe));
        probe.insert(64);
        assert!(visited.contains(&probe));
        probe.remove(64);
        probe.insert(65);
        assert!(!visited.contains(&probe));

        // `W`: a clause whose sides sit in different words.
        let mut store = UnitOrdering::new(n);
        assert!(store.require_some_before(&[70, 129], &[2, 64]));
        assert!(store.excludes(&UnitSet::of(n, [2, 64])));
        assert!(store.excludes(&UnitSet::of(n, [2, 64, 128])));
        assert!(!store.excludes(&UnitSet::of(n, [2])));
        assert!(!store.excludes(&UnitSet::of(n, [2, 64, 129])));
        assert!(!store.excludes(&UnitSet::of(n, [2, 64, 70])));
    }
}
