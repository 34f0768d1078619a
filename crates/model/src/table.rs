//! Forwarding tables and their denotational semantics `[[tbl]]`.

use std::fmt;
use std::sync::Arc;

use crate::packet::Packet;
use crate::rule::Rule;
use crate::types::PortId;

/// A forwarding table: a set of prioritized rules.
///
/// The semantic function [`Table::process`] maps a `(packet, port)` pair to
/// the multiset of `(packet, port)` pairs produced by the highest-priority
/// matching rule, or to the empty multiset (drop) when no rule matches.
///
/// Rules are kept sorted by descending priority; among rules with equal
/// priority the one added first wins, which makes the semantics deterministic
/// (the paper allows any choice among equal-priority matches).
///
/// A table is an immutable rule list shared behind an `Arc`: cloning one (a
/// configuration, a command, an update unit's result) bumps a count instead
/// of copying patterns and action lists, and the editing methods build a new
/// list. Equality compares the lists, pointers first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Table {
    rules: Arc<[Rule]>,
}

impl Table {
    /// Creates a table from a collection of rules.
    pub fn new(mut rules: Vec<Rule>) -> Self {
        // Stable sort: equal priorities keep insertion order.
        rules.sort_by_key(|r| std::cmp::Reverse(r.priority()));
        Table {
            rules: rules.into(),
        }
    }

    /// The empty table (drops every packet).
    pub fn empty() -> Self {
        Table::default()
    }

    /// Adds a rule, keeping the table sorted by priority.
    pub fn add_rule(&mut self, rule: Rule) {
        self.extend([rule]);
    }

    /// Removes all rules equal to `rule`, returning how many were removed.
    pub fn remove_rule(&mut self, rule: &Rule) -> usize {
        let removed = self.rules.iter().filter(|r| *r == rule).count();
        if removed > 0 {
            *self = self.rules.iter().filter(|r| *r != rule).cloned().collect();
        }
        removed
    }

    /// The rules, ordered by descending priority.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules in the table.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the table contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Returns an iterator over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// The semantic function `[[tbl]]`: processes `packet` arriving on `port`.
    ///
    /// Finds the highest-priority rule whose pattern matches and applies its
    /// actions; if no rule matches, the packet is dropped and the empty vector
    /// is returned.
    pub fn process(&self, packet: &Packet, port: PortId) -> Vec<(Packet, PortId)> {
        match self.matching_rule(packet, port) {
            Some(rule) => rule.apply(packet),
            None => Vec::new(),
        }
    }

    /// Returns the highest-priority rule matching `packet` on `port`, if any.
    pub fn matching_rule(&self, packet: &Packet, port: PortId) -> Option<&Rule> {
        self.rules.iter().find(|r| r.matches(packet, port))
    }

    /// Returns `true` if the two tables contain the same set of rules,
    /// regardless of insertion order among equal-priority rules.
    pub fn same_rules(&self, other: &Table) -> bool {
        let mut a = self.rules.to_vec();
        let mut b = other.rules.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Computes the symmetric difference with `other` as (removed, added) rules.
    pub fn diff(&self, other: &Table) -> (Vec<Rule>, Vec<Rule>) {
        let removed = self
            .rules
            .iter()
            .filter(|r| !other.rules.contains(r))
            .cloned()
            .collect();
        let added = other
            .rules
            .iter()
            .filter(|r| !self.rules.contains(r))
            .cloned()
            .collect();
        (removed, added)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() {
            return write!(f, "(empty table)");
        }
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Table {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Table::new(iter.into_iter().collect())
    }
}

impl Extend<Rule> for Table {
    fn extend<I: IntoIterator<Item = Rule>>(&mut self, iter: I) {
        *self = Table::new(self.rules.iter().cloned().chain(iter).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    use crate::action::Action;
    use crate::packet::Field;
    use crate::pattern::Pattern;
    use crate::types::Priority;

    fn fwd_rule(pri: u32, dst: u64, port: u32) -> Rule {
        Rule::new(
            Priority(pri),
            Pattern::any().with_field(Field::Dst, dst),
            vec![Action::Forward(PortId(port))],
        )
    }

    #[test]
    fn empty_table_drops() {
        let table = Table::empty();
        assert!(table.process(&Packet::new(), PortId(0)).is_empty());
    }

    #[test]
    fn highest_priority_rule_wins() {
        let table = Table::new(vec![fwd_rule(1, 3, 1), fwd_rule(10, 3, 2)]);
        let pkt = Packet::new().with_field(Field::Dst, 3);
        let out = table.process(&pkt, PortId(0));
        assert_eq!(out, vec![(pkt, PortId(2))]);
    }

    #[test]
    fn equal_priority_is_first_added() {
        let table = Table::new(vec![fwd_rule(5, 3, 7), fwd_rule(5, 3, 8)]);
        let pkt = Packet::new().with_field(Field::Dst, 3);
        assert_eq!(table.process(&pkt, PortId(0))[0].1, PortId(7));
    }

    #[test]
    fn non_matching_packet_dropped() {
        let table = Table::new(vec![fwd_rule(1, 3, 1)]);
        let pkt = Packet::new().with_field(Field::Dst, 4);
        assert!(table.process(&pkt, PortId(0)).is_empty());
    }

    #[test]
    fn add_and_remove_rule() {
        let mut table = Table::empty();
        let rule = fwd_rule(1, 3, 1);
        table.add_rule(rule.clone());
        assert_eq!(table.len(), 1);
        assert_eq!(table.remove_rule(&rule), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn editing_a_clone_leaves_the_original_unchanged() {
        let original = Table::new(vec![fwd_rule(5, 3, 1), fwd_rule(1, 4, 2)]);
        let snapshot = original.rules().to_vec();

        let mut added = original.clone();
        added.add_rule(fwd_rule(9, 5, 3));
        let mut removed = original.clone();
        assert_eq!(removed.remove_rule(&fwd_rule(5, 3, 1)), 1);
        let mut extended = original.clone();
        extended.extend([fwd_rule(2, 6, 4), fwd_rule(7, 7, 5)]);

        assert_eq!(original.rules(), &snapshot[..]);
        assert_eq!((added.len(), removed.len(), extended.len()), (3, 1, 4));
        assert_eq!(added.rules()[0], fwd_rule(9, 5, 3));
        assert_eq!(removed.rules(), &[fwd_rule(1, 4, 2)]);
        let priorities: Vec<u32> = extended.iter().map(|r| r.priority().0).collect();
        assert_eq!(priorities, [7, 5, 2, 1]);
    }

    #[test]
    fn equal_rule_lists_from_separate_allocations_are_equal_and_hash_equal() {
        let a = Table::new(vec![fwd_rule(5, 3, 1), fwd_rule(1, 4, 2)]);
        let b: Table = [fwd_rule(1, 4, 2), fwd_rule(5, 3, 1)].into_iter().collect();
        let mut c = Table::empty();
        c.add_rule(fwd_rule(1, 4, 2));
        c.add_rule(fwd_rule(5, 3, 1));
        let hasher = std::hash::RandomState::new();
        for other in [&b, &c] {
            assert!(!std::ptr::eq(a.rules(), other.rules()));
            assert_eq!(&a, other);
            assert_eq!(hasher.hash_one(&a), hasher.hash_one(other));
        }
        assert_ne!(a, Table::new(vec![fwd_rule(5, 3, 1)]));
    }

    #[test]
    fn equal_priorities_keep_insertion_order_after_add_rule() {
        let mut table = Table::new(vec![fwd_rule(5, 3, 1), fwd_rule(9, 3, 2)]);
        table.add_rule(fwd_rule(5, 3, 3));
        table.add_rule(fwd_rule(9, 3, 4));
        table.add_rule(fwd_rule(5, 3, 5));
        let ports: Vec<PortId> = (table.iter())
            .flat_map(|r| r.actions().iter().filter_map(Action::forward_port))
            .collect();
        assert_eq!(ports, [2, 4, 1, 3, 5].map(PortId));
    }

    #[test]
    fn removing_an_absent_rule_changes_nothing() {
        let mut table = Table::new(vec![fwd_rule(5, 3, 1), fwd_rule(1, 4, 2)]);
        let before = table.clone();
        assert_eq!(table.remove_rule(&fwd_rule(5, 3, 9)), 0);
        assert_eq!(table, before);
        let mut empty = Table::empty();
        assert_eq!(empty.remove_rule(&fwd_rule(1, 1, 1)), 0);
        assert_eq!(empty, Table::empty());
    }

    #[test]
    fn diff_detects_added_and_removed() {
        let old = Table::new(vec![fwd_rule(1, 3, 1), fwd_rule(1, 4, 2)]);
        let new = Table::new(vec![fwd_rule(1, 3, 1), fwd_rule(1, 5, 2)]);
        let (removed, added) = old.diff(&new);
        assert_eq!(removed.len(), 1);
        assert_eq!(added.len(), 1);
        assert_eq!(removed[0].pattern().field(Field::Dst), Some(4));
        assert_eq!(added[0].pattern().field(Field::Dst), Some(5));
    }

    #[test]
    fn collect_from_iterator() {
        let table: Table = vec![fwd_rule(2, 3, 1), fwd_rule(9, 3, 2)]
            .into_iter()
            .collect();
        assert_eq!(table.rules()[0].priority(), Priority(9));
    }
}
