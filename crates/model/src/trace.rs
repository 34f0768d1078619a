//! Single-packet traces and observations (Definitions 1 and 8 of the paper).

use std::fmt;

use crate::packet::Packet;
use crate::types::{HostId, PortId, SwitchId};

/// An observation `(sw, pt, pkt)`: a packet being processed at a switch port.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Observation {
    /// The switch processing the packet.
    pub switch: SwitchId,
    /// The port on which the packet arrived.
    pub port: PortId,
    /// The packet being processed.
    pub packet: Packet,
}

impl Observation {
    /// Creates an observation.
    pub fn new(switch: SwitchId, port: PortId, packet: Packet) -> Self {
        Observation {
            switch,
            port,
            packet,
        }
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.switch, self.port, self.packet)
    }
}

/// How a single-packet trace terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEnd {
    /// The packet exited the network at the given host (rule OUT).
    Egress(HostId),
    /// The packet was dropped: no rule matched, a drop rule matched, or the
    /// output port had no attached link.
    Dropped,
    /// The packet revisited a `(switch, port, packet)` observation — the
    /// configuration contains a forwarding loop for this packet.
    Loop,
}

/// A single-packet trace: the end-to-end path one packet takes through a
/// static network, plus how it terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    observations: Vec<Observation>,
    end: TraceEnd,
}

impl Trace {
    /// Creates a trace from its observations and terminal status.
    pub fn new(observations: Vec<Observation>, end: TraceEnd) -> Self {
        Trace { observations, end }
    }

    /// The observations, in order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// How the trace terminated.
    pub fn end(&self) -> TraceEnd {
        self.end
    }

    /// Number of observations (hops).
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Returns `true` if the trace contains no observations.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Returns `true` if the packet exited the network at `host`.
    pub fn reaches_host(&self, host: HostId) -> bool {
        self.end == TraceEnd::Egress(host)
    }

    /// Returns `true` if the packet was dropped inside the network.
    pub fn is_dropped(&self) -> bool {
        self.end == TraceEnd::Dropped
    }

    /// Returns `true` if the trace revisits an observation (forwarding loop).
    pub fn has_loop(&self) -> bool {
        self.end == TraceEnd::Loop
    }

    /// The sequence of switches visited, in order (with repeats, if any).
    pub fn switch_path(&self) -> Vec<SwitchId> {
        self.observations.iter().map(|o| o.switch).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hops: Vec<String> = self
            .observations
            .iter()
            .map(|o| o.switch.to_string())
            .collect();
        let end = match self.end {
            TraceEnd::Egress(h) => format!("-> {h}"),
            TraceEnd::Dropped => "-> drop".to_string(),
            TraceEnd::Loop => "-> LOOP".to_string(),
        };
        write!(f, "{} {}", hops.join(" -> "), end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Field;

    fn obs(sw: u32, pt: u32) -> Observation {
        Observation::new(
            SwitchId(sw),
            PortId(pt),
            Packet::new().with_field(Field::Dst, 3),
        )
    }

    #[test]
    fn trace_end_queries() {
        let t = Trace::new(vec![obs(1, 1), obs(2, 1)], TraceEnd::Egress(HostId(3)));
        assert!(t.reaches_host(HostId(3)));
        assert!(!t.reaches_host(HostId(4)));
        assert!(!t.is_dropped());
        assert!(!t.has_loop());
    }

    #[test]
    fn trace_switch_path() {
        let t = Trace::new(vec![obs(1, 1), obs(2, 1)], TraceEnd::Dropped);
        assert_eq!(t.switch_path(), vec![SwitchId(1), SwitchId(2)]);
    }

    #[test]
    fn loop_detection() {
        let looping = Trace::new(vec![obs(1, 1), obs(2, 1), obs(1, 1)], TraceEnd::Loop);
        assert!(looping.has_loop());
    }

    #[test]
    fn display() {
        let t = Trace::new(vec![obs(1, 1), obs(2, 1)], TraceEnd::Egress(HostId(3)));
        assert_eq!(t.to_string(), "s1 -> s2 -> h3");
        let d = Trace::new(vec![obs(1, 1)], TraceEnd::Dropped);
        assert_eq!(d.to_string(), "s1 -> drop");
    }
}
