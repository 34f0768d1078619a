//! Atomic propositions over packet observations.

use std::fmt;

use netupd_model::{Field, HostId, PortId, SwitchId};

/// An atomic proposition, evaluated at a single packet observation.
///
/// The paper's propositions test "the value of a switch, port, or packet
/// field"; we additionally expose two derived observations that make common
/// properties easy to state: `Dropped` holds at the sink state of a packet
/// that was dropped inside the network, and `AtHost(h)` holds at the sink
/// state of a packet that egressed to host `h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prop {
    /// The packet is currently being processed at this switch.
    Switch(SwitchId),
    /// The packet is currently being processed at this ingress port.
    Port(PortId),
    /// The packet's header field has this value.
    FieldIs(Field, u64),
    /// The packet was dropped (it is at a drop sink state).
    Dropped,
    /// The packet has egressed the network at this host.
    AtHost(HostId),
}

impl Prop {
    /// Convenience constructor: the packet is at switch `n`.
    pub fn switch(n: u32) -> Prop {
        Prop::Switch(SwitchId(n))
    }

    /// Convenience constructor: the packet is at port `n`.
    pub fn port(n: u32) -> Prop {
        Prop::Port(PortId(n))
    }

    /// Convenience constructor: the packet has reached host `n`.
    pub fn at_host(n: u32) -> Prop {
        Prop::AtHost(HostId(n))
    }
}

impl fmt::Display for Prop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prop::Switch(sw) => write!(f, "{sw}"),
            Prop::Port(pt) => write!(f, "{pt}"),
            Prop::FieldIs(field, v) => write!(f, "{field}={v}"),
            Prop::Dropped => write!(f, "dropped"),
            Prop::AtHost(h) => write!(f, "at({h})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Prop::switch(3), Prop::Switch(SwitchId(3)));
        assert_eq!(Prop::port(2), Prop::Port(PortId(2)));
        assert_eq!(Prop::at_host(1), Prop::AtHost(HostId(1)));
    }

    #[test]
    fn display() {
        assert_eq!(Prop::switch(3).to_string(), "s3");
        assert_eq!(Prop::FieldIs(Field::Dst, 9).to_string(), "dst=9");
        assert_eq!(Prop::Dropped.to_string(), "dropped");
        assert_eq!(Prop::at_host(4).to_string(), "at(h4)");
    }

    #[test]
    fn ordering_is_total() {
        let mut props = [Prop::Dropped, Prop::switch(1), Prop::port(0)];
        props.sort();
        assert_eq!(props.len(), 3);
    }
}
