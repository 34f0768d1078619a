//! Property-based tests for the forwarding-table semantics and command
//! sequences.

use proptest::prelude::*;

use netupd_model::{
    Action, Command, CommandSeq, Field, Packet, Pattern, PortId, Priority, Rule, SwitchId, Table,
};

fn arb_packet() -> impl Strategy<Value = Packet> {
    (0u64..4, 0u64..4, 0u64..2).prop_map(|(src, dst, typ)| {
        Packet::new()
            .with_field(Field::Src, src)
            .with_field(Field::Dst, dst)
            .with_field(Field::Typ, typ)
    })
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (
        proptest::option::of(0u64..4),
        proptest::option::of(0u64..4),
        proptest::option::of(0u32..3),
    )
        .prop_map(|(src, dst, port)| {
            let mut pattern = Pattern::any();
            if let Some(src) = src {
                pattern = pattern.with_field(Field::Src, src);
            }
            if let Some(dst) = dst {
                pattern = pattern.with_field(Field::Dst, dst);
            }
            if let Some(port) = port {
                pattern = pattern.with_in_port(PortId(port));
            }
            pattern
        })
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (
        0u32..8,
        arb_pattern(),
        proptest::collection::vec(0u32..4, 0..3),
    )
        .prop_map(|(priority, pattern, ports)| {
            Rule::new(
                Priority(priority),
                pattern,
                ports
                    .into_iter()
                    .map(|p| Action::Forward(PortId(p)))
                    .collect(),
            )
        })
}

fn arb_table() -> impl Strategy<Value = Table> {
    // Deduplicate so that set-based properties (diff/roundtrip) are exact.
    proptest::collection::vec(arb_rule(), 0..8).prop_map(|mut rules| {
        rules.sort();
        rules.dedup();
        Table::new(rules)
    })
}

proptest! {
    /// The rule chosen by the table is always a highest-priority matching rule.
    #[test]
    fn matching_rule_has_maximal_priority(table in arb_table(), packet in arb_packet(), port in 0u32..3) {
        let port = PortId(port);
        if let Some(chosen) = table.matching_rule(&packet, port) {
            prop_assert!(chosen.matches(&packet, port));
            for rule in table.iter() {
                if rule.matches(&packet, port) {
                    prop_assert!(rule.priority() <= chosen.priority());
                }
            }
        } else {
            // No rule matched at all.
            prop_assert!(table.iter().all(|r| !r.matches(&packet, port)));
        }
    }

    /// Processing never invents output ports that the matched rule does not forward to.
    #[test]
    fn outputs_come_from_the_matched_rule(table in arb_table(), packet in arb_packet(), port in 0u32..3) {
        let port = PortId(port);
        let outputs = table.process(&packet, port);
        match table.matching_rule(&packet, port) {
            None => prop_assert!(outputs.is_empty()),
            Some(rule) => {
                let allowed: Vec<PortId> = rule
                    .actions()
                    .iter()
                    .filter_map(|a| a.forward_port())
                    .collect();
                prop_assert_eq!(outputs.len(), allowed.len());
                for (_, out_port) in outputs {
                    prop_assert!(allowed.contains(&out_port));
                }
            }
        }
    }

    /// Applying a table diff to the old table yields the new table (as a rule set).
    #[test]
    fn diff_roundtrips(old in arb_table(), new in arb_table()) {
        let (removed, added) = old.diff(&new);
        let mut patched = old.clone();
        for rule in &removed {
            patched.remove_rule(rule);
        }
        for rule in added {
            patched.add_rule(rule);
        }
        prop_assert!(patched.same_rules(&new));
    }

    /// A sequence of updates interleaved with waits is always careful and simple.
    #[test]
    fn generated_sequences_are_careful(switches in proptest::collection::btree_set(0u32..16, 1..6)) {
        let mut seq = CommandSeq::new();
        for (i, sw) in switches.iter().enumerate() {
            if i > 0 {
                seq.push_wait();
            }
            seq.push_update(SwitchId(*sw), Table::empty());
        }
        prop_assert!(seq.is_careful());
        prop_assert!(seq.is_simple());
        prop_assert_eq!(seq.num_updates(), switches.len());
        // Dropping all waits keeps it simple but (for >1 update) not careful.
        let without_waits: CommandSeq = seq
            .iter()
            .filter(|c| matches!(c, Command::Update(..)))
            .cloned()
            .collect();
        prop_assert!(without_waits.is_simple());
        if switches.len() > 1 {
            prop_assert!(!without_waits.is_careful());
        }
    }
}
