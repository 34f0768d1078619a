//! Static networks: a topology paired with a configuration.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::config::Configuration;
use crate::packet::TrafficClass;
use crate::topology::{Endpoint, Topology};
use crate::trace::{Observation, Trace, TraceEnd};
use crate::types::{PortId, SwitchId};

/// A static network: a topology together with the forwarding tables currently
/// installed on its switches (and no pending controller commands).
///
/// Static networks are the objects the synthesizer reasons about: each
/// intermediate step of an update is a static network, and correctness of a
/// careful command sequence reduces to correctness of each static network it
/// induces (Lemma 2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    topology: Arc<Topology>,
    config: Configuration,
}

impl Network {
    /// Creates a static network.
    ///
    /// The topology is shared (`Arc`); passing an owned [`Topology`] wraps it
    /// without copying, and the many intermediate networks an update induces
    /// all share one topology allocation.
    pub fn new(topology: impl Into<Arc<Topology>>, config: Configuration) -> Self {
        Network {
            topology: topology.into(),
            config,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The installed configuration.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// The functional update `N[sw <- tbl]` (shares the topology).
    #[must_use]
    pub fn updated(&self, sw: SwitchId, table: crate::table::Table) -> Network {
        Network {
            topology: Arc::clone(&self.topology),
            config: self.config.updated(sw, table),
        }
    }

    /// Enumerates all single-packet traces of packets in `class`
    /// (Definition 1): one trace per ingress link at which a packet of the
    /// class may enter the network.
    ///
    /// The representative packet of the class is followed hop by hop; the
    /// trace records every `(switch, port, packet)` observation until the
    /// packet exits at a host, is dropped, or revisits an observation
    /// (forwarding loop). Since the model checks properties per traffic class
    /// and rules may fan out (multicast), each ingress can yield several
    /// traces; all of them are returned.
    pub fn single_packet_traces(&self, class: &TrafficClass) -> Vec<Trace> {
        let mut traces = Vec::new();
        for (_, link) in self.topology.ingress_links() {
            if let Endpoint::SwitchPort(sw, pt) = link.dst {
                self.collect_traces_from(sw, pt, class, &mut traces);
            }
        }
        traces
    }

    /// Enumerates traces of `class` packets starting at a specific switch
    /// ingress point rather than at a host (unconstrained traces,
    /// Definition 8).
    pub fn traces_from(&self, sw: SwitchId, pt: PortId, class: &TrafficClass) -> Vec<Trace> {
        let mut traces = Vec::new();
        self.collect_traces_from(sw, pt, class, &mut traces);
        traces
    }

    fn collect_traces_from(
        &self,
        sw: SwitchId,
        pt: PortId,
        class: &TrafficClass,
        out: &mut Vec<Trace>,
    ) {
        let packet = class.representative();
        let mut path = Vec::new();
        let mut visited = BTreeSet::new();
        self.walk(sw, pt, &packet, &mut path, &mut visited, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        sw: SwitchId,
        pt: PortId,
        packet: &crate::packet::Packet,
        path: &mut Vec<Observation>,
        visited: &mut BTreeSet<Observation>,
        out: &mut Vec<Trace>,
    ) {
        let obs = Observation::new(sw, pt, packet.clone());
        if visited.contains(&obs) {
            out.push(Trace::new(path.clone(), TraceEnd::Loop));
            return;
        }
        visited.insert(obs.clone());
        path.push(obs.clone());

        let outputs = self.config.table(sw).process(packet, pt);
        if outputs.is_empty() {
            out.push(Trace::new(path.clone(), TraceEnd::Dropped));
        } else {
            for (next_packet, out_port) in outputs {
                match self.topology.link_from_port(sw, out_port) {
                    None => out.push(Trace::new(path.clone(), TraceEnd::Dropped)),
                    Some((_, link)) => match link.dst {
                        Endpoint::Host(h) => {
                            out.push(Trace::new(path.clone(), TraceEnd::Egress(h)))
                        }
                        Endpoint::SwitchPort(next_sw, next_pt) => {
                            self.walk(next_sw, next_pt, &next_packet, path, visited, out);
                        }
                    },
                }
            }
        }

        path.pop();
        visited.remove(&obs);
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "network({}, {})", self.topology, self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::packet::Field;
    use crate::pattern::Pattern;
    use crate::rule::Rule;
    use crate::table::Table;
    use crate::types::{HostId, Priority};

    /// h0 -- s0 -- s1 -- h1, forwarding dst=1 from h0 to h1.
    fn line_network() -> (Network, HostId, HostId, SwitchId, SwitchId) {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        topo.attach_host(h1, s1, PortId(2));

        let fwd = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any().with_field(Field::Dst, 1),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s0, fwd(2))
            .with_table(s1, fwd(2));
        (Network::new(topo, config), h0, h1, s0, s1)
    }

    #[test]
    fn traces_reach_destination() {
        let (net, _h0, h1, s0, s1) = line_network();
        let class = TrafficClass::new().with_field(Field::Dst, 1);
        let traces = net.single_packet_traces(&class);
        // Packets may enter at either host's ingress link; the class is
        // destination-based so both ingresses produce traces.
        assert!(!traces.is_empty());
        let from_h0 = traces
            .iter()
            .find(|t| t.observations()[0].switch == s0)
            .expect("trace from h0 side");
        assert!(from_h0.reaches_host(h1));
        assert_eq!(from_h0.switch_path(), vec![s0, s1]);
    }

    #[test]
    fn unmatched_class_is_dropped() {
        let (net, ..) = line_network();
        let class = TrafficClass::new().with_field(Field::Dst, 99);
        let traces = net.single_packet_traces(&class);
        assert!(traces.iter().all(Trace::is_dropped));
    }

    #[test]
    fn loop_detection() {
        // s0 and s1 forward to each other forever.
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        let loop_rule = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any(),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s0, loop_rule(2))
            .with_table(s1, loop_rule(1));
        let net = Network::new(topo, config);
        let class = TrafficClass::new();
        assert!(net.single_packet_traces(&class).iter().any(Trace::has_loop));
    }

    #[test]
    fn multicast_produces_multiple_traces() {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let h2 = topo.add_host();
        let s0 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.attach_host(h1, s0, PortId(2));
        topo.attach_host(h2, s0, PortId(3));
        let table = Table::new(vec![Rule::new(
            Priority(1),
            Pattern::any().with_in_port(PortId(1)),
            vec![Action::Forward(PortId(2)), Action::Forward(PortId(3))],
        )]);
        let net = Network::new(topo, Configuration::new().with_table(s0, table));
        let traces = net.traces_from(s0, PortId(1), &TrafficClass::new());
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().any(|t| t.reaches_host(h1)));
        assert!(traces.iter().any(|t| t.reaches_host(h2)));
    }
}
