//! Match patterns for forwarding rules.

use std::fmt;

use crate::packet::{Field, Packet, TrafficClass};
use crate::types::PortId;

/// A pattern `{pt?; f1?; ..; fk?}`: an optional ingress port together with a
/// partial assignment of header fields.
///
/// A packet arriving on a port matches the pattern if the pattern's port (when
/// present) equals the arrival port and every constrained field of the pattern
/// equals the packet's value for that field.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pattern {
    in_port: Option<PortId>,
    /// Sorted by field, one entry per field: the order, equality and hash of
    /// a `BTreeMap<Field, u64>`, in one small allocation per rule.
    fields: Vec<(Field, u64)>,
}

impl Pattern {
    /// The wildcard pattern that matches every packet on every port.
    pub fn any() -> Self {
        Pattern::default()
    }

    /// Builder-style constraint on the ingress port.
    #[must_use]
    pub fn with_in_port(mut self, port: PortId) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Builder-style constraint on a header field.
    #[must_use]
    pub fn with_field(mut self, field: Field, value: u64) -> Self {
        match self.fields.binary_search_by_key(&field, |&(f, _)| f) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (field, value)),
        }
        self
    }

    /// Constructs a pattern matching exactly the packets of `class`
    /// (on any ingress port).
    pub fn from_class(class: &TrafficClass) -> Self {
        Pattern {
            in_port: None,
            fields: class.iter().collect(),
        }
    }

    /// The ingress-port constraint, if any.
    pub fn in_port(&self) -> Option<PortId> {
        self.in_port
    }

    /// The constrained value for `field`, if any.
    pub fn field(&self, field: Field) -> Option<u64> {
        self.fields
            .iter()
            .find(|&&(f, _)| f == field)
            .map(|&(_, v)| v)
    }

    /// Iterates over field constraints in a deterministic order.
    pub fn fields(&self) -> impl Iterator<Item = (Field, u64)> + '_ {
        self.fields.iter().copied()
    }

    /// Returns `true` if `packet` arriving on `port` matches this pattern.
    pub fn matches(&self, packet: &Packet, port: PortId) -> bool {
        if let Some(p) = self.in_port {
            if p != port {
                return false;
            }
        }
        self.fields.iter().all(|&(f, v)| packet.field(f) == Some(v))
    }

    /// Returns `true` if this pattern can match *some* packet of `class`
    /// arriving on `port` (ignoring port if `port` is `None`).
    ///
    /// A pattern overlaps a class unless it constrains a field to a value that
    /// contradicts the class's constraint on the same field.
    pub fn overlaps_class(&self, class: &TrafficClass, port: Option<PortId>) -> bool {
        if let (Some(p), Some(q)) = (self.in_port, port) {
            if p != q {
                return false;
            }
        }
        self.fields.iter().all(|&(f, v)| match class.field(f) {
            Some(cv) => cv == v,
            None => true,
        })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        let mut first = true;
        if let Some(p) = self.in_port {
            write!(f, "in={p}")?;
            first = false;
        }
        for (field, value) in &self.fields {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{field}={value}")?;
            first = false;
        }
        if first {
            write!(f, "*")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matches_everything() {
        let pat = Pattern::any();
        assert!(pat.matches(&Packet::new(), PortId(1)));
        assert!(pat.matches(&Packet::new().with_field(Field::Src, 9), PortId(2)));
    }

    #[test]
    fn port_constraint_respected() {
        let pat = Pattern::any().with_in_port(PortId(1));
        assert!(pat.matches(&Packet::new(), PortId(1)));
        assert!(!pat.matches(&Packet::new(), PortId(2)));
    }

    #[test]
    fn field_constraint_respected() {
        let pat = Pattern::any().with_field(Field::Dst, 3);
        let hit = Packet::new().with_field(Field::Dst, 3);
        let miss = Packet::new().with_field(Field::Dst, 4);
        let absent = Packet::new();
        assert!(pat.matches(&hit, PortId(0)));
        assert!(!pat.matches(&miss, PortId(0)));
        assert!(!pat.matches(&absent, PortId(0)));
    }

    #[test]
    fn from_class_matches_class_members() {
        let class = TrafficClass::flow(1, 3);
        let pat = Pattern::from_class(&class);
        assert!(pat.matches(&class.representative(), PortId(7)));
        assert!(!pat.matches(&Packet::new().with_field(Field::Src, 1), PortId(7)));
    }

    #[test]
    fn overlap_with_class() {
        let class = TrafficClass::flow(1, 3);
        let same = Pattern::any().with_field(Field::Dst, 3);
        let other = Pattern::any().with_field(Field::Dst, 4);
        let unconstrained = Pattern::any().with_field(Field::Typ, 5);
        assert!(same.overlaps_class(&class, None));
        assert!(!other.overlaps_class(&class, None));
        assert!(unconstrained.overlaps_class(&class, None));
    }

    #[test]
    fn overlap_respects_port() {
        let class = TrafficClass::flow(1, 3);
        let pat = Pattern::any().with_in_port(PortId(2));
        assert!(pat.overlaps_class(&class, Some(PortId(2))));
        assert!(!pat.overlaps_class(&class, Some(PortId(3))));
        assert!(pat.overlaps_class(&class, None));
    }

    #[test]
    fn field_constraints_are_a_sorted_map() {
        // Insertion order does not matter, and a field set twice keeps its
        // last value.
        let one = Pattern::any()
            .with_field(Field::Typ, 1)
            .with_field(Field::Src, 2)
            .with_field(Field::Typ, 5);
        let other = Pattern::any()
            .with_field(Field::Src, 2)
            .with_field(Field::Typ, 5);
        assert_eq!(one, other);
        assert_eq!(one.field(Field::Typ), Some(5));
        let fields: Vec<_> = one.fields().collect();
        assert_eq!(fields, vec![(Field::Src, 2), (Field::Typ, 5)]);
    }

    #[test]
    fn display_format() {
        let pat = Pattern::any()
            .with_in_port(PortId(1))
            .with_field(Field::Dst, 3);
        assert_eq!(pat.to_string(), "<in=p1, dst=3>");
        assert_eq!(Pattern::any().to_string(), "<*>");
    }
}
