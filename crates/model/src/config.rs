//! Network configurations: the data plane as a map from switches to tables.

use std::collections::BTreeMap;
use std::fmt;

use crate::table::Table;
use crate::types::SwitchId;

/// A (static) network configuration: each switch's forwarding table.
///
/// Switches not present in the map have the empty table and therefore drop
/// every packet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Configuration {
    tables: BTreeMap<SwitchId, Table>,
}

impl Configuration {
    /// Creates an empty configuration (all switches drop everything).
    pub fn new() -> Self {
        Configuration::default()
    }

    /// Sets the forwarding table of `sw`, returning the table it replaced
    /// (`None` if none was set).
    pub fn set_table(&mut self, sw: SwitchId, table: Table) -> Option<Table> {
        self.tables.insert(sw, table)
    }

    /// Builder-style variant of [`Configuration::set_table`].
    #[must_use]
    pub fn with_table(mut self, sw: SwitchId, table: Table) -> Self {
        self.set_table(sw, table);
        self
    }

    /// The table of `sw` (empty if never set).
    pub fn table(&self, sw: SwitchId) -> Table {
        self.tables.get(&sw).cloned().unwrap_or_default()
    }

    /// A reference to the table of `sw`, if one was explicitly set.
    pub fn table_ref(&self, sw: SwitchId) -> Option<&Table> {
        self.tables.get(&sw)
    }

    /// Iterates over `(switch, table)` pairs in switch order.
    pub fn iter(&self) -> impl Iterator<Item = (SwitchId, &Table)> {
        self.tables.iter().map(|(sw, t)| (*sw, t))
    }

    /// Switches that have an explicitly set table.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.tables.keys().copied()
    }

    /// Number of switches with an explicitly set table.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Returns `true` if no switch has a table.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of rules across all switches.
    pub fn total_rules(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Number of rules installed on `sw`.
    pub fn rules_on(&self, sw: SwitchId) -> usize {
        self.tables.get(&sw).map_or(0, Table::len)
    }

    /// The functional update `N[sw <- tbl]` of the paper: a copy of this
    /// configuration with the table of `sw` replaced.
    #[must_use]
    pub fn updated(&self, sw: SwitchId, table: Table) -> Configuration {
        let mut next = self.clone();
        next.set_table(sw, table);
        next
    }

    /// Switches whose tables differ between `self` and `other`.
    ///
    /// This is the set of switches the synthesizer must update to move from
    /// one configuration to the other.
    ///
    /// One merge walk over the two switch-ordered maps, so the result is in
    /// switch order. A switch set on one side only differs iff its table
    /// has rules: an unset switch has the empty table.
    pub fn differing_switches(&self, other: &Configuration) -> Vec<SwitchId> {
        let mut differing = Vec::new();
        let mut ours = self.tables.iter().peekable();
        let mut theirs = other.tables.iter().peekable();
        loop {
            let (sw, differs) = match (ours.peek(), theirs.peek()) {
                (None, None) => return differing,
                (Some(&(a, ta)), Some(&(b, tb))) if a == b => {
                    ours.next();
                    theirs.next();
                    (*a, ta != tb)
                }
                (Some(&(a, ta)), Some(&(b, _))) if a < b => {
                    ours.next();
                    (*a, !ta.is_empty())
                }
                (Some(&(a, ta)), None) => {
                    ours.next();
                    (*a, !ta.is_empty())
                }
                (_, Some(&(b, tb))) => {
                    theirs.next();
                    (*b, !tb.is_empty())
                }
            };
            if differs {
                differing.push(sw);
            }
        }
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "configuration({} switches, {} rules)",
            self.len(),
            self.total_rules()
        )
    }
}

impl FromIterator<(SwitchId, Table)> for Configuration {
    fn from_iter<I: IntoIterator<Item = (SwitchId, Table)>>(iter: I) -> Self {
        Configuration {
            tables: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::pattern::Pattern;
    use crate::rule::Rule;
    use crate::types::{PortId, Priority};
    use proptest::prelude::*;

    fn simple_table(port: u32) -> Table {
        Table::new(vec![Rule::new(
            Priority(1),
            Pattern::any(),
            vec![Action::Forward(PortId(port))],
        )])
    }

    #[test]
    fn unset_switch_has_empty_table() {
        let config = Configuration::new();
        assert!(config.table(SwitchId(7)).is_empty());
        assert_eq!(config.rules_on(SwitchId(7)), 0);
    }

    #[test]
    fn set_and_get_table() {
        let config = Configuration::new().with_table(SwitchId(1), simple_table(2));
        assert_eq!(config.table(SwitchId(1)).len(), 1);
        assert_eq!(config.total_rules(), 1);
    }

    #[test]
    fn updated_does_not_mutate_original() {
        let config = Configuration::new().with_table(SwitchId(1), simple_table(2));
        let updated = config.updated(SwitchId(1), simple_table(3));
        assert_ne!(config.table(SwitchId(1)), updated.table(SwitchId(1)));
        assert_eq!(config.table(SwitchId(1)), simple_table(2));
    }

    #[test]
    fn differing_switches_detects_changes() {
        let a = Configuration::new()
            .with_table(SwitchId(1), simple_table(2))
            .with_table(SwitchId(2), simple_table(3));
        let b = a.clone().updated(SwitchId(2), simple_table(4));
        assert_eq!(a.differing_switches(&b), vec![SwitchId(2)]);
        assert!(a.differing_switches(&a).is_empty());
    }

    #[test]
    fn differing_switches_detects_new_switch() {
        let a = Configuration::new();
        let b = Configuration::new().with_table(SwitchId(3), simple_table(1));
        assert_eq!(a.differing_switches(&b), vec![SwitchId(3)]);
    }

    #[test]
    fn differing_switches_treats_unset_as_the_empty_table() {
        let unset = Configuration::new().with_table(SwitchId(1), simple_table(2));
        let explicit = unset.clone().with_table(SwitchId(3), Table::empty());
        assert!(unset.differing_switches(&explicit).is_empty());
        assert!(explicit.differing_switches(&unset).is_empty());
    }

    /// The definition the merge walk must meet: every switch set on either
    /// side, sorted and without repeats, whose tables differ when an unset
    /// switch reads as the empty table.
    fn differing_by_definition(a: &Configuration, b: &Configuration) -> Vec<SwitchId> {
        let mut switches: Vec<SwitchId> = a.switches().chain(b.switches()).collect();
        switches.sort_unstable();
        switches.dedup();
        let empty = Table::default();
        switches
            .into_iter()
            .filter(|sw| a.table_ref(*sw).unwrap_or(&empty) != b.table_ref(*sw).unwrap_or(&empty))
            .collect()
    }

    /// The table a slot of the property below puts on a switch: unset, the
    /// empty table two ways, a table shared by pointer with the other side,
    /// an equal table built apart, or a different one.
    fn slot_table(slot: u8, shared: &Table) -> Option<Table> {
        match slot {
            0 => None,
            1 => Some(Table::empty()),
            2 => Some(Table::new(Vec::new())),
            3 => Some(shared.clone()),
            4 => Some(simple_table(2)),
            _ => Some(simple_table(3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `differing_switches` against its definition, both ways round, on
        /// switches set on one side only or on both, unset against empty,
        /// and tables shared, equal but apart, or different.
        #[test]
        fn differing_switches_meets_its_definition(
            slots in proptest::collection::vec((0u32..12, 0u8..6, 0u8..6), 0..12)
        ) {
            let shared = simple_table(2);
            let (mut a, mut b) = (Configuration::new(), Configuration::new());
            for (sw, left, right) in slots {
                if let Some(table) = slot_table(left, &shared) {
                    a.set_table(SwitchId(sw), table);
                }
                if let Some(table) = slot_table(right, &shared) {
                    b.set_table(SwitchId(sw), table);
                }
            }
            prop_assert_eq!(a.differing_switches(&b), differing_by_definition(&a, &b));
            prop_assert_eq!(b.differing_switches(&a), differing_by_definition(&b, &a));
            prop_assert!(a.differing_switches(&a).is_empty());
        }
    }
}
