//! Network topologies: switches, hosts, and the links connecting them.

use std::collections::BTreeMap;
use std::fmt;

use crate::types::{HostId, PortId, SwitchId};

/// One end of a link: either a host or a `(switch, port)` pair.
///
/// This is the `loc` of the paper's link records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// An end host.
    Host(HostId),
    /// A port on a switch.
    SwitchPort(SwitchId, PortId),
}

impl Endpoint {
    /// Convenience constructor for a host endpoint.
    pub fn host(h: HostId) -> Self {
        Endpoint::Host(h)
    }

    /// Convenience constructor for a switch-port endpoint.
    pub fn port(sw: SwitchId, pt: PortId) -> Self {
        Endpoint::SwitchPort(sw, pt)
    }

    /// The switch of this endpoint, if it is a switch port.
    pub fn switch(&self) -> Option<SwitchId> {
        match self {
            Endpoint::SwitchPort(sw, _) => Some(*sw),
            Endpoint::Host(_) => None,
        }
    }

    /// The host of this endpoint, if it is a host.
    pub fn as_host(&self) -> Option<HostId> {
        match self {
            Endpoint::Host(h) => Some(*h),
            Endpoint::SwitchPort(..) => None,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host(h) => write!(f, "{h}"),
            Endpoint::SwitchPort(sw, pt) => write!(f, "{sw}:{pt}"),
        }
    }
}

/// Identifier of a (directed) link within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// A directed link from `src` to `dst`.
///
/// The paper's links carry a queue of in-flight packets; the queues live in
/// the simulator ([`crate::sim::Simulator`]), keeping the topology itself
/// purely structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
}

/// A network topology: a directed graph over switches and hosts.
///
/// Bidirectional physical cables are modeled as a pair of directed links; use
/// [`Topology::add_duplex_link`] for that common case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Topology {
    switches: Vec<SwitchId>,
    hosts: Vec<HostId>,
    links: Vec<Link>,
    /// Outgoing links indexed by source switch.
    out_by_switch: BTreeMap<SwitchId, Vec<LinkId>>,
    /// Incoming links indexed by destination switch.
    in_by_switch: BTreeMap<SwitchId, Vec<LinkId>>,
    next_switch: u32,
    next_host: u32,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a fresh switch and returns its identifier.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.switches.push(id);
        id
    }

    /// Adds `n` fresh switches and returns their identifiers.
    pub fn add_switches(&mut self, n: usize) -> Vec<SwitchId> {
        (0..n).map(|_| self.add_switch()).collect()
    }

    /// Adds a fresh host and returns its identifier.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(self.next_host);
        self.next_host += 1;
        self.hosts.push(id);
        id
    }

    /// Adds a directed link and returns its identifier.
    pub fn add_link(&mut self, src: Endpoint, dst: Endpoint) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link { src, dst });
        if let Some(sw) = src.switch() {
            self.out_by_switch.entry(sw).or_default().push(id);
        }
        if let Some(sw) = dst.switch() {
            self.in_by_switch.entry(sw).or_default().push(id);
        }
        id
    }

    /// Adds a pair of directed links modelling a bidirectional cable between
    /// two switches, using the given port numbers on each side.
    ///
    /// Returns the two link identifiers (a→b, b→a).
    pub fn add_duplex_link(
        &mut self,
        a: SwitchId,
        a_port: PortId,
        b: SwitchId,
        b_port: PortId,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(Endpoint::port(a, a_port), Endpoint::port(b, b_port));
        let ba = self.add_link(Endpoint::port(b, b_port), Endpoint::port(a, a_port));
        (ab, ba)
    }

    /// Attaches a host to a switch port with links in both directions.
    pub fn attach_host(&mut self, host: HostId, sw: SwitchId, port: PortId) -> (LinkId, LinkId) {
        let h2s = self.add_link(Endpoint::host(host), Endpoint::port(sw, port));
        let s2h = self.add_link(Endpoint::port(sw, port), Endpoint::host(host));
        (h2s, s2h)
    }

    /// All switches, in creation order.
    pub fn switches(&self) -> &[SwitchId] {
        &self.switches
    }

    /// All hosts, in creation order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// All links, in creation order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this topology.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Links whose source is a port of `sw`.
    pub fn links_from_switch(&self, sw: SwitchId) -> impl Iterator<Item = (LinkId, &Link)> {
        self.out_by_switch
            .get(&sw)
            .into_iter()
            .flatten()
            .map(move |id| (*id, &self.links[id.0]))
    }

    /// Links whose destination is a port of `sw`.
    pub fn links_to_switch(&self, sw: SwitchId) -> impl Iterator<Item = (LinkId, &Link)> {
        self.in_by_switch
            .get(&sw)
            .into_iter()
            .flatten()
            .map(move |id| (*id, &self.links[id.0]))
    }

    /// Ingress links: links whose source is a host.
    pub fn ingress_links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.src, Endpoint::Host(_)))
            .map(|(i, l)| (LinkId(i), l))
    }

    /// Egress links: links whose destination is a host.
    pub fn egress_links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.dst, Endpoint::Host(_)))
            .map(|(i, l)| (LinkId(i), l))
    }

    /// The link leaving `(sw, out_port)`, if one exists.
    ///
    /// Forwarding out of a port that has no attached link silently drops the
    /// packet, mirroring real switch behaviour.
    pub fn link_from_port(&self, sw: SwitchId, out_port: PortId) -> Option<(LinkId, &Link)> {
        self.links_from_switch(sw)
            .find(|(_, l)| l.src == Endpoint::port(sw, out_port))
    }

    /// The switch adjacent to `host`, with the port and direction host→switch.
    pub fn switch_of_host(&self, host: HostId) -> Option<(SwitchId, PortId)> {
        self.links.iter().find_map(|l| {
            if l.src == Endpoint::host(host) {
                match l.dst {
                    Endpoint::SwitchPort(sw, pt) => Some((sw, pt)),
                    Endpoint::Host(_) => None,
                }
            } else {
                None
            }
        })
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology({} switches, {} hosts, {} links)",
            self.num_switches(),
            self.num_hosts(),
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology() -> (Topology, HostId, SwitchId, SwitchId, HostId) {
        // h0 -- s0 -- s1 -- h1
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        topo.attach_host(h1, s1, PortId(2));
        (topo, h0, s0, s1, h1)
    }

    #[test]
    fn counts() {
        let (topo, ..) = line_topology();
        assert_eq!(topo.num_switches(), 2);
        assert_eq!(topo.num_hosts(), 2);
        assert_eq!(topo.num_links(), 6);
    }

    #[test]
    fn ingress_and_egress_links() {
        let (topo, h0, _, _, h1) = line_topology();
        let ingress: Vec<_> = topo.ingress_links().map(|(_, l)| l.src).collect();
        assert!(ingress.contains(&Endpoint::host(h0)));
        assert!(ingress.contains(&Endpoint::host(h1)));
        assert_eq!(topo.egress_links().count(), 2);
    }

    #[test]
    fn link_from_port_lookup() {
        let (topo, _, s0, s1, _) = line_topology();
        let (_, link) = topo.link_from_port(s0, PortId(2)).expect("link exists");
        assert_eq!(link.dst, Endpoint::port(s1, PortId(1)));
        assert!(topo.link_from_port(s0, PortId(9)).is_none());
    }

    #[test]
    fn switch_of_host_lookup() {
        let (topo, h0, s0, s1, h1) = line_topology();
        assert_eq!(topo.switch_of_host(h0), Some((s0, PortId(1))));
        assert_eq!(topo.switch_of_host(h1), Some((s1, PortId(2))));
    }

    #[test]
    fn add_switches_bulk() {
        let mut topo = Topology::new();
        let ids = topo.add_switches(5);
        assert_eq!(ids.len(), 5);
        assert_eq!(topo.num_switches(), 5);
        // Identifiers are distinct.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }
}
