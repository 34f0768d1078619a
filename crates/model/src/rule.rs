//! Prioritized forwarding rules.

use std::fmt;

use crate::action::Action;
use crate::packet::{Packet, TrafficClass};
use crate::pattern::Pattern;
use crate::types::{PortId, Priority};

/// A forwarding rule `{pri; pat; acts}`.
///
/// The highest-priority rule whose pattern matches an incoming packet
/// determines how the packet is processed; rules with no `Forward` action drop
/// matching packets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    priority: Priority,
    pattern: Pattern,
    actions: Vec<Action>,
}

impl Rule {
    /// Creates a rule from its parts.
    pub fn new(priority: Priority, pattern: Pattern, actions: Vec<Action>) -> Self {
        Rule {
            priority,
            pattern,
            actions,
        }
    }

    /// A rule that explicitly drops packets matching `pattern`.
    pub fn drop(priority: Priority, pattern: Pattern) -> Self {
        Rule::new(priority, pattern, Vec::new())
    }

    /// The rule's priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The rule's match pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The rule's action list, in application order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Returns `true` if the rule matches `packet` arriving on `port`.
    pub fn matches(&self, packet: &Packet, port: PortId) -> bool {
        self.pattern.matches(packet, port)
    }

    /// Returns `true` if the rule could match some packet of `class`.
    pub fn overlaps_class(&self, class: &TrafficClass, port: Option<PortId>) -> bool {
        self.pattern.overlaps_class(class, port)
    }

    /// Applies the rule's actions to `packet`, producing the multiset of
    /// `(packet, out_port)` pairs emitted by the rule.
    ///
    /// Field modifications apply to all subsequent forwards, mirroring
    /// OpenFlow action-list semantics. A rule with no forward action produces
    /// the empty multiset (i.e. drops the packet).
    pub fn apply(&self, packet: &Packet) -> Vec<(Packet, PortId)> {
        let mut current = packet.clone();
        let mut out = Vec::new();
        for action in &self.actions {
            match action {
                Action::SetField(field, value) => current.set_field(*field, *value),
                Action::Forward(port) => out.push((current.clone(), *port)),
            }
        }
        out
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} -> ", self.priority, self.pattern)?;
        if self.actions.is_empty() {
            write!(f, "drop")
        } else {
            let acts: Vec<String> = self.actions.iter().map(ToString::to_string).collect();
            write!(f, "{}", acts.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Field;

    #[test]
    fn apply_forwards_packet() {
        let rule = Rule::new(
            Priority(1),
            Pattern::any(),
            vec![Action::Forward(PortId(5))],
        );
        let pkt = Packet::new().with_field(Field::Dst, 3);
        let out = rule.apply(&pkt);
        assert_eq!(out, vec![(pkt, PortId(5))]);
    }

    #[test]
    fn apply_modification_before_forward() {
        let rule = Rule::new(
            Priority(1),
            Pattern::any(),
            vec![
                Action::SetField(Field::Tag, 2),
                Action::Forward(PortId(1)),
                Action::Forward(PortId(2)),
            ],
        );
        let out = rule.apply(&Packet::new());
        assert_eq!(out.len(), 2);
        for (pkt, _) in &out {
            assert_eq!(pkt.field(Field::Tag), Some(2));
        }
    }

    #[test]
    fn modification_after_forward_does_not_affect_earlier_output() {
        let rule = Rule::new(
            Priority(1),
            Pattern::any(),
            vec![
                Action::Forward(PortId(1)),
                Action::SetField(Field::Tag, 9),
                Action::Forward(PortId(2)),
            ],
        );
        let out = rule.apply(&Packet::new());
        assert_eq!(out[0].0.field(Field::Tag), None);
        assert_eq!(out[1].0.field(Field::Tag), Some(9));
    }

    #[test]
    fn drop_rule_emits_nothing() {
        let rule = Rule::drop(Priority(10), Pattern::any());
        assert!(rule.apply(&Packet::new()).is_empty());
    }

    #[test]
    fn display() {
        let rule = Rule::new(
            Priority(7),
            Pattern::any().with_field(Field::Dst, 3),
            vec![Action::Forward(PortId(2))],
        );
        assert_eq!(rule.to_string(), "[pri7] <dst=3> -> fwd p2");
        assert_eq!(
            Rule::drop(Priority(1), Pattern::any()).to_string(),
            "[pri1] <*> -> drop"
        );
    }
}
