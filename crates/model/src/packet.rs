//! Packets, header fields, and traffic classes.
//!
//! A packet is a record of header fields (source, destination, protocol type,
//! and an opaque tag used for e.g. two-phase version stamping). A *traffic
//! class* is a partial assignment of header fields identifying the set of
//! packets that agree on those fields; the Kripke encoding of a network keeps
//! one disjoint component per traffic class.

use std::collections::BTreeMap;
use std::fmt;

/// A packet header field.
///
/// The model uses a small, fixed set of fields; `Custom` leaves room for
/// application-specific headers (e.g. VLAN, MPLS labels) without changing the
/// crate's API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Source address.
    Src,
    /// Destination address.
    Dst,
    /// Protocol type (e.g. 1 for ICMP-like probes).
    Typ,
    /// Version tag used by two-phase updates.
    Tag,
    /// An application-specific field.
    Custom(u8),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Src => write!(f, "src"),
            Field::Dst => write!(f, "dst"),
            Field::Typ => write!(f, "typ"),
            Field::Tag => write!(f, "tag"),
            Field::Custom(n) => write!(f, "fld{n}"),
        }
    }
}

/// A concrete packet: a total assignment of values to the fields it carries.
///
/// Fields that are absent behave as "don't care" both when matching patterns
/// (an absent field only matches patterns that do not constrain it) and when
/// comparing packets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Packet {
    fields: BTreeMap<Field, u64>,
}

impl Packet {
    /// Creates an empty packet with no fields set.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Builder-style setter for a field value.
    #[must_use]
    pub fn with_field(mut self, field: Field, value: u64) -> Self {
        self.fields.insert(field, value);
        self
    }

    /// Sets a field value in place (functional update `{r with f = v}` in the paper).
    pub fn set_field(&mut self, field: Field, value: u64) {
        self.fields.insert(field, value);
    }

    /// Returns the value of `field`, if the packet carries it.
    pub fn field(&self, field: Field) -> Option<u64> {
        self.fields.get(&field).copied()
    }

    /// Iterates over `(field, value)` pairs in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, u64)> + '_ {
        self.fields.iter().map(|(f, v)| (*f, *v))
    }

    /// Number of fields carried by this packet.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the packet carries no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Returns `true` if this packet belongs to `class`, i.e. agrees with every
    /// field the class constrains.
    pub fn in_class(&self, class: &TrafficClass) -> bool {
        class
            .iter()
            .all(|(f, v)| self.field(f).is_some_and(|pv| pv == v))
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (field, value) in &self.fields {
            if !first {
                write!(f, "; ")?;
            }
            write!(f, "{field}={value}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Field, u64)> for Packet {
    fn from_iter<I: IntoIterator<Item = (Field, u64)>>(iter: I) -> Self {
        Packet {
            fields: iter.into_iter().collect(),
        }
    }
}

/// A traffic class: a partial assignment of header fields.
///
/// In the paper, traffic classes are elements of `2^AP` — sets of packets that
/// agree on the values of particular header fields. The network-to-Kripke
/// encoding builds one disjoint sub-structure per traffic class of interest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrafficClass {
    constraints: BTreeMap<Field, u64>,
}

impl TrafficClass {
    /// Creates the universal traffic class (matches every packet).
    pub fn new() -> Self {
        TrafficClass::default()
    }

    /// Convenience constructor for flows identified by source/destination.
    pub fn flow(src: u64, dst: u64) -> Self {
        TrafficClass::new()
            .with_field(Field::Src, src)
            .with_field(Field::Dst, dst)
    }

    /// Builder-style constraint on a field.
    #[must_use]
    pub fn with_field(mut self, field: Field, value: u64) -> Self {
        self.constraints.insert(field, value);
        self
    }

    /// Returns the constrained value for `field`, if any.
    pub fn field(&self, field: Field) -> Option<u64> {
        self.constraints.get(&field).copied()
    }

    /// Iterates over `(field, value)` constraints in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Field, u64)> + '_ {
        self.constraints.iter().map(|(f, v)| (*f, *v))
    }

    /// Number of constrained fields.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if the class places no constraints (matches everything).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// A representative concrete packet of this class.
    ///
    /// Unconstrained fields are simply absent from the representative; since
    /// the model does not rewrite packets across classes, the representative
    /// is sufficient for computing the class's forwarding behaviour.
    pub fn representative(&self) -> Packet {
        self.constraints
            .iter()
            .map(|(f, v)| (*f, *v))
            .collect::<Packet>()
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class[")?;
        let mut first = true;
        for (field, value) in &self.constraints {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{field}={value}")?;
            first = false;
        }
        write!(f, "]")
    }
}

impl FromIterator<(Field, u64)> for TrafficClass {
    fn from_iter<I: IntoIterator<Item = (Field, u64)>>(iter: I) -> Self {
        TrafficClass {
            constraints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_field_roundtrip() {
        let pkt = Packet::new()
            .with_field(Field::Src, 1)
            .with_field(Field::Dst, 3);
        assert_eq!(pkt.field(Field::Src), Some(1));
        assert_eq!(pkt.field(Field::Dst), Some(3));
        assert_eq!(pkt.field(Field::Typ), None);
        assert_eq!(pkt.len(), 2);
    }

    #[test]
    fn packet_set_field_overwrites() {
        let mut pkt = Packet::new().with_field(Field::Tag, 0);
        pkt.set_field(Field::Tag, 1);
        assert_eq!(pkt.field(Field::Tag), Some(1));
        assert_eq!(pkt.len(), 1);
    }

    #[test]
    fn class_membership() {
        let class = TrafficClass::flow(1, 3);
        let in_pkt = Packet::new()
            .with_field(Field::Src, 1)
            .with_field(Field::Dst, 3)
            .with_field(Field::Typ, 6);
        let out_pkt = Packet::new()
            .with_field(Field::Src, 1)
            .with_field(Field::Dst, 4);
        assert!(in_pkt.in_class(&class));
        assert!(!out_pkt.in_class(&class));
    }

    #[test]
    fn representative_is_in_class() {
        let class = TrafficClass::flow(9, 12).with_field(Field::Typ, 1);
        assert!(class.representative().in_class(&class));
    }

    #[test]
    fn universal_class_matches_everything() {
        let class = TrafficClass::new();
        assert!(Packet::new().in_class(&class));
        assert!(Packet::new().with_field(Field::Src, 5).in_class(&class));
    }

    #[test]
    fn display_formats() {
        let pkt = Packet::new().with_field(Field::Src, 1);
        assert_eq!(pkt.to_string(), "{src=1}");
        let class = TrafficClass::flow(1, 2);
        assert_eq!(class.to_string(), "class[src=1, dst=2]");
    }
}
