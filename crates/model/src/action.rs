//! Forwarding-rule actions.

use std::fmt;

use crate::packet::Field;
use crate::types::PortId;

/// An action of a forwarding rule: either forward the packet out of a port, or
/// modify a header field.
///
/// Actions are applied in list order; field modifications affect the packet
/// seen by all subsequent `Forward` actions of the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// `fwd pt`: output the (current) packet on port `pt`.
    Forward(PortId),
    /// `f := n`: set header field `f` to `n`.
    SetField(Field, u64),
}

impl Action {
    /// Returns the output port if this is a `Forward` action.
    pub fn forward_port(&self) -> Option<PortId> {
        match self {
            Action::Forward(pt) => Some(*pt),
            Action::SetField(..) => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Forward(pt) => write!(f, "fwd {pt}"),
            Action::SetField(field, v) => write!(f, "{field}:={v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_port_extraction() {
        assert_eq!(Action::Forward(PortId(3)).forward_port(), Some(PortId(3)));
        assert_eq!(Action::SetField(Field::Tag, 1).forward_port(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Action::Forward(PortId(2)).to_string(), "fwd p2");
        assert_eq!(Action::SetField(Field::Tag, 1).to_string(), "tag:=1");
    }
}
