//! Newtype identifiers for switches, ports, hosts, priorities, and epochs.
//!
//! Every network element in the paper's model is identified by a natural
//! number; we wrap those numbers in distinct newtypes so that a switch
//! identifier can never be confused with a port or a host identifier.

use std::fmt;

/// Identifier of a switch.
///
/// ```
/// use netupd_model::SwitchId;
/// let s = SwitchId(3);
/// assert_eq!(format!("{s}"), "s3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwitchId(pub u32);

/// Identifier of a port on a switch.
///
/// Ports are only meaningful relative to a switch: `(SwitchId, PortId)` pairs
/// identify a physical attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u32);

/// Identifier of an end host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u32);

/// Priority of a forwarding rule; higher priorities win.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u32);

/// Controller epoch used to reason about in-flight packets.
///
/// Packets are stamped with the epoch current at ingress; the `flush` command
/// blocks the controller until all packets from earlier epochs have left the
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The initial epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// Returns the next epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pri{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

impl From<u32> for SwitchId {
    fn from(v: u32) -> Self {
        SwitchId(v)
    }
}

impl From<u32> for PortId {
    fn from(v: u32) -> Self {
        PortId(v)
    }
}

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

impl From<u32> for Priority {
    fn from(v: u32) -> Self {
        Priority(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_next_increments() {
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
        assert_eq!(Epoch(41).next(), Epoch(42));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId(1).to_string(), "s1");
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(Priority(4).to_string(), "pri4");
        assert_eq!(Epoch(5).to_string(), "ep5");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SwitchId(2) < SwitchId(10));
        assert!(Priority(1) < Priority(2));
        assert!(Epoch(0) < Epoch(1));
    }

    #[test]
    fn from_u32_conversions() {
        assert_eq!(SwitchId::from(7), SwitchId(7));
        assert_eq!(PortId::from(7), PortId(7));
        assert_eq!(HostId::from(7), HostId(7));
        assert_eq!(Priority::from(7), Priority(7));
    }
}
