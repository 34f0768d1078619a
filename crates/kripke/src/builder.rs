//! The network-to-Kripke encoding (Definition 9 of the paper).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, OnceLock};

use netupd_ltl::{Prop, PropId};
use netupd_model::{
    Action, Configuration, Endpoint, HostId, LinkId, Packet, PortId, Rule, SwitchId, Table,
    Topology, TrafficClass,
};

use crate::stateset::StateSet;
use crate::structure::{Kripke, StateId, StateKey, StateRole};

/// Where a state sits in the whole-topology enumeration: its class, its role
/// (every arrival of a class before its egresses), and the link that places
/// it — the first link into an arrival's port, the link out of an egress's.
type Place = (usize, StateRole, LinkId);

/// One state of the skeleton as the enumeration yields it: its key, and the
/// host its links touch — for an arrival, an admitted host whose packets
/// enter there (the state is then initial); for an egress, the host the
/// packet leaves to (its `AtHost` label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SkeletonState {
    key: StateKey,
    host: Option<HostId>,
}

/// Encoder from network configurations to Kripke structures.
///
/// The encoder fixes a topology and a set of traffic classes; [`encode`]
/// builds the Kripke structure of a configuration, and
/// [`apply_switch_update`] re-encodes a single switch in place, returning the
/// set of states whose outgoing transitions changed — exactly the `swUpdate`
/// operation the synthesis algorithm feeds to the incremental model checker.
///
/// The encoding is split into an immutable *skeleton* and a per-request
/// *rewiring* step. The skeleton — the state space, the interned base labels,
/// and the initial-state marks — depends only on the `(topology, classes,
/// ingress)` triple the encoder was built with and on the footprint it was
/// asked to [`cover`], and is computed once, lazily, then shared by every
/// [`encode`] call; only the transitions and the `Dropped` label bits depend
/// on the configuration. [`reset_to`] exposes the rewiring step directly so a
/// long-lived engine can re-point an existing structure at a new
/// configuration in place, reusing the label arena and state index instead
/// of reallocating them.
///
/// Encoding, following Definition 9 (with the `Dropped` / `AtHost`
/// propositions made explicit so properties can refer to them), over the
/// states of the covered footprint — of the whole topology if the encoder was
/// never asked to cover anything:
///
/// * one state per `(switch, ingress port, class)`, for every link whose
///   destination is that switch port;
/// * one state per `(switch, egress port, class)`, for every link from that
///   switch port to a host — these states carry an `AtHost` label and a
///   self-loop;
/// * a state is initial iff its port is reachable directly from an admitted
///   ingress host (every initial state is in every footprint);
/// * transitions follow the forward ports of the rule of the state's switch
///   that matches the class's representative packet, to the successor states
///   in the structure;
/// * states whose packet is dropped (no matching rule, a rule with no
///   forward action, or no successor in the structure) get a `Dropped` label
///   and a self-loop.
///
/// Packet modifications stay within the traffic class (the paper likewise
/// keeps classes disjoint and leaves cross-class rewriting to future work),
/// so a successor depends only on the switch, the out port and the class:
/// the encoder reads a matching rule's forward ports and never applies its
/// field modifications, and it computes each class's representative packet
/// once.
///
/// [`cover`]: NetworkKripke::cover
/// [`encode`]: NetworkKripke::encode
/// [`reset_to`]: NetworkKripke::reset_to
/// [`apply_switch_update`]: NetworkKripke::apply_switch_update
#[derive(Debug, Clone)]
pub struct NetworkKripke {
    topology: Arc<Topology>,
    classes: Vec<TrafficClass>,
    /// Each class's representative packet, the one its states match rules on.
    representatives: Vec<Packet>,
    ingress_hosts: Option<BTreeSet<HostId>>,
    /// The states the skeleton holds, in skeleton order: `None` for every
    /// state of the topology, else the union of the footprints covered so
    /// far (see [`cover`](NetworkKripke::cover)).
    footprint: Option<BTreeMap<Place, SkeletonState>>,
    /// The lazily-built configuration-independent skeleton (see the type
    /// docs). Cloning the encoder clones the cached skeleton along with it.
    skeleton: OnceLock<Kripke>,
}

impl NetworkKripke {
    /// Creates an encoder for the given topology and traffic classes.
    ///
    /// The topology is shared (`Arc`); passing an owned [`Topology`] wraps it
    /// without copying.
    pub fn new(topology: impl Into<Arc<Topology>>, classes: Vec<TrafficClass>) -> Self {
        NetworkKripke {
            topology: topology.into(),
            representatives: classes.iter().map(TrafficClass::representative).collect(),
            classes,
            ingress_hosts: None,
            footprint: None,
            skeleton: OnceLock::new(),
        }
    }

    /// Restricts the initial states to packets entering at the given hosts.
    ///
    /// By default every host-adjacent arrival state is initial; update
    /// scenarios that move a single flow (e.g. the paper's diamond workloads)
    /// restrict attention to the flow's source host.
    #[must_use]
    pub fn with_ingress_hosts<I: IntoIterator<Item = HostId>>(mut self, hosts: I) -> Self {
        self.ingress_hosts = Some(hosts.into_iter().collect());
        // The skeleton's initial-state marks and the footprint's roots
        // depend on the ingress set.
        self.footprint = None;
        self.skeleton = OnceLock::new();
        self
    }

    /// Restricts the state space to the *footprint* of `configs`, unioned
    /// with whatever earlier calls covered: the states reachable from an
    /// initial state when each switch may forward by *any* matching rule of
    /// its table in any of `configs`, not only by the winning one.
    ///
    /// A configuration whose every table holds only rules of the covered
    /// configurations' tables — every configuration an update between them
    /// passes through, at switch or at rule granularity, where a partial
    /// table can expose a rule that both full tables shadow — reaches only
    /// footprint states from an initial state. States outside are
    /// unreachable and labels are computed bottom-up, so a check of such a
    /// configuration on the slice answers what a whole-topology check would.
    /// The slice keeps the whole-topology state order, so counterexamples
    /// walk the same paths; the closure places each state it reaches in that
    /// order itself, so neither it nor the skeleton built from it scans the
    /// topology.
    ///
    /// Returns `true` when the state space changed — on the first call, and
    /// whenever the footprint grew: structures encoded before are stale
    /// then. An encoder never asked to cover anything encodes the whole
    /// topology.
    pub fn cover(&mut self, configs: &[&Configuration]) -> bool {
        let footprint = self.footprint(configs);
        match &mut self.footprint {
            Some(covered) if footprint.keys().all(|place| covered.contains_key(place)) => {
                return false
            }
            Some(covered) => covered.extend(footprint),
            None => self.footprint = Some(footprint),
        }
        self.skeleton = OnceLock::new();
        true
    }

    /// The topology the encoder was built with.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The traffic classes the encoder tracks.
    pub fn classes(&self) -> &[TrafficClass] {
        &self.classes
    }

    /// The configuration-independent skeleton: all states with their base
    /// labels and initial marks interned (plus the dynamic `Dropped`
    /// proposition), but no transitions yet. Built once, shared by every
    /// [`encode`](NetworkKripke::encode) call.
    fn skeleton(&self) -> &Kripke {
        self.skeleton.get_or_init(|| {
            let mut kripke = Kripke::new();
            // Intern the dynamic proposition first, so it is `DROPPED` in
            // every structure this encoder builds.
            let dropped = kripke.intern_prop(Prop::Dropped);
            debug_assert_eq!(dropped, DROPPED);
            self.add_states(&mut kripke);
            kripke
        })
    }

    /// Builds the Kripke structure of `config`: a clone of the shared
    /// skeleton rewired against the configuration.
    pub fn encode(&self, config: &Configuration) -> Kripke {
        let mut kripke = self.skeleton().clone();
        self.reset_to(&mut kripke, config);
        kripke
    }

    /// Re-points an existing structure (produced by this encoder) at
    /// `config`, in place: every state's outgoing transitions and `Dropped`
    /// bit are recomputed against the configuration, while the label arena,
    /// the state index, and the per-state successor storage are reused.
    ///
    /// Returns the states whose transitions or labels actually changed —
    /// the change set an incremental checker needs to relabel. A long-lived
    /// engine uses this (or per-switch [`apply_switch_update`]) to carry one
    /// structure across a stream of requests instead of re-encoding.
    ///
    /// [`apply_switch_update`]: NetworkKripke::apply_switch_update
    pub fn reset_to(&self, kripke: &mut Kripke, config: &Configuration) -> Vec<StateId> {
        debug_assert_eq!(kripke.props().lookup(&Prop::Dropped), Some(DROPPED));
        let empty = Table::empty();
        let mut changed = Vec::new();
        for state in kripke.states() {
            let switch = kripke.key(state).switch;
            let table = config.table_ref(switch).unwrap_or(&empty);
            if self.encode_state(kripke, state, table) {
                changed.push(state);
            }
        }
        changed
    }

    /// Re-encodes the states of `switch` against `new_table`, mutating
    /// `kripke` in place.
    ///
    /// Returns the states whose outgoing transitions changed (the set `U`
    /// passed to the incremental model checker). Labels of the re-encoded
    /// states are refreshed as well, since a table change can turn a
    /// forwarding state into a dropping one and vice versa.
    pub fn apply_switch_update(
        &self,
        kripke: &mut Kripke,
        switch: SwitchId,
        new_table: &Table,
    ) -> Vec<StateId> {
        let mut changed = Vec::new();
        self.apply_switch_update_into(kripke, switch, new_table, &mut changed);
        changed
    }

    /// [`apply_switch_update`](Self::apply_switch_update), appending the
    /// changed states to `changed` instead of returning a new list: a step
    /// costs the switch's own states, with no allocation of its own.
    pub fn apply_switch_update_into(
        &self,
        kripke: &mut Kripke,
        switch: SwitchId,
        new_table: &Table,
        changed: &mut Vec<StateId>,
    ) {
        debug_assert_eq!(kripke.props().lookup(&Prop::Dropped), Some(DROPPED));
        let index = kripke.switch_index();
        for &state in index.states(switch) {
            if self.encode_state(kripke, state, new_table) {
                changed.push(state);
            }
        }
    }

    // ---- internals ---------------------------------------------------------

    /// Whether packets entering at `host` start an initial state.
    fn admits(&self, host: HostId) -> bool {
        self.ingress_hosts
            .as_ref()
            .is_none_or(|hosts| hosts.contains(&host))
    }

    /// The footprint of `configs` (see [`cover`](Self::cover)), keyed by
    /// each state's place in the whole-topology enumeration: a worklist
    /// closure from the admitted ingress states over every matching rule.
    ///
    /// Once a covered footprint's skeleton is built, a reached state it
    /// already holds is walked on but neither placed nor returned: the map
    /// holds the new states alone, so a covered request costs its walk.
    fn footprint(&self, configs: &[&Configuration]) -> BTreeMap<Place, SkeletonState> {
        // The roots, once for every class: the ports admitted hosts' packets
        // enter at, each with the link that enters there.
        let roots: Vec<(LinkId, SwitchId, PortId)> = (self.topology.ingress_links())
            .filter_map(|(id, link)| match (link.src, link.dst) {
                (Endpoint::Host(h), Endpoint::SwitchPort(sw, pt)) if self.admits(h) => {
                    Some((id, sw, pt))
                }
                _ => None,
            })
            .collect();
        let covered = self.footprint.as_ref().and(self.skeleton.get());
        let mut slice = BTreeMap::new();
        let mut reached = HashSet::new();
        let mut reached_covered = StateSet::with_capacity(covered.map_or(0, Kripke::len));
        for (class_idx, packet) in self.representatives.iter().enumerate() {
            // Each entry carries the link its packet took to get there.
            let mut worklist: Vec<(LinkId, StateKey)> = (roots.iter())
                .map(|&(id, sw, pt)| (id, StateKey::arrival(sw, pt, class_idx)))
                .collect();
            while let Some((via, key)) = worklist.pop() {
                match covered.and_then(|skeleton| skeleton.state_by_key(&key)) {
                    Some(state) => {
                        if !reached_covered.insert(state) {
                            continue;
                        }
                    }
                    None => {
                        if !reached.insert(key.packed()) {
                            continue;
                        }
                        let (place, state) = self.place(key, via);
                        slice.insert(place, state);
                    }
                }
                if key.role == StateRole::Egress {
                    continue;
                }
                let tables = configs.iter().filter_map(|c| c.table_ref(key.switch));
                for rule in tables.flat_map(Table::iter) {
                    if rule.matches(packet, key.port) {
                        let ports = rule.actions().iter().filter_map(Action::forward_port);
                        worklist.extend(ports.filter_map(|port| self.successor(key, port)));
                    }
                }
            }
        }
        slice
    }

    /// Where the enumeration of [`all_states`](Self::all_states) puts `key`,
    /// which a packet reached over link `via`, and the state it yields
    /// there. An arrival sits at the first link into its port and is initial
    /// if any link into the port comes from an admitted host; an egress sits
    /// at `via`, the link out of its port, and leaves to that link's host.
    fn place(&self, key: StateKey, via: LinkId) -> (Place, SkeletonState) {
        let (link, host) = match key.role {
            StateRole::Arrival => {
                let port = Endpoint::port(key.switch, key.port);
                let into_port = || {
                    (self.topology.links_to_switch(key.switch)).filter(move |(_, l)| l.dst == port)
                };
                let first = into_port().next().map_or(via, |(id, _)| id);
                let admitted =
                    into_port().find_map(|(_, l)| l.src.as_host().filter(|h| self.admits(*h)));
                (first, admitted)
            }
            StateRole::Egress => (via, self.topology.link(via).dst.as_host()),
        };
        ((key.class, key.role, link), SkeletonState { key, host })
    }

    /// Every state of the topology in skeleton order, with repeats where
    /// several links touch one port: for each class, an arrival per link
    /// into a switch port, then an egress per link from a switch port to a
    /// host. The first occurrence of a key fixes its place.
    fn all_states(&self) -> impl Iterator<Item = SkeletonState> + '_ {
        (0..self.classes.len()).flat_map(move |class| {
            let arrivals = (self.topology.links().iter()).filter_map(move |link| {
                let Endpoint::SwitchPort(sw, pt) = link.dst else {
                    return None;
                };
                Some(SkeletonState {
                    key: StateKey::arrival(sw, pt, class),
                    host: link.src.as_host().filter(|h| self.admits(*h)),
                })
            });
            let egresses = (self.topology.egress_links()).filter_map(move |(_, link)| {
                let Endpoint::SwitchPort(sw, pt) = link.src else {
                    return None;
                };
                Some(SkeletonState {
                    key: StateKey::egress(sw, pt, class),
                    host: link.dst.as_host(),
                })
            });
            arrivals.chain(egresses)
        })
    }

    /// Adds the states of the footprint (of the whole topology without one)
    /// in skeleton order, so a slice's ids keep the whole-topology order.
    fn add_states(&self, kripke: &mut Kripke) {
        match &self.footprint {
            Some(slice) => (slice.values()).for_each(|state| self.add_state(kripke, *state)),
            None => self
                .all_states()
                .for_each(|state| self.add_state(kripke, state)),
        }
    }

    /// Adds one state (a repeated key only adds its initial mark).
    fn add_state(&self, kripke: &mut Kripke, SkeletonState { key, host }: SkeletonState) {
        let class = &self.classes[key.class];
        let label = self.base_label(key.switch, key.port, class);
        match key.role {
            StateRole::Arrival => {
                let id = kripke.add_state(key, label);
                if host.is_some() {
                    kripke.mark_initial(id);
                }
            }
            StateRole::Egress => {
                kripke.add_state(key, label.chain(host.map(Prop::AtHost)));
            }
        }
    }

    /// The state a packet at `key` moves to when forwarded out of
    /// `out_port`, with the link it takes there, or `None` if no link leaves
    /// that port.
    fn successor(&self, key: StateKey, out_port: PortId) -> Option<(LinkId, StateKey)> {
        let (id, link) = self.topology.link_from_port(key.switch, out_port)?;
        Some((
            id,
            match link.dst {
                Endpoint::SwitchPort(sw, pt) => StateKey::arrival(sw, pt, key.class),
                Endpoint::Host(_) => StateKey::egress(key.switch, out_port, key.class),
            },
        ))
    }

    fn base_label<'a>(
        &'a self,
        sw: SwitchId,
        pt: PortId,
        class: &'a TrafficClass,
    ) -> impl Iterator<Item = Prop> + 'a {
        [Prop::Switch(sw), Prop::Port(pt)].into_iter().chain(
            class
                .iter()
                .map(|(field, value)| Prop::FieldIs(field, value)),
        )
    }

    /// Recomputes the outgoing transitions (and drop labeling) of one state.
    /// Returns `true` if the transitions or the label changed.
    fn encode_state(&self, kripke: &mut Kripke, state: StateId, table: &Table) -> bool {
        let key = kripke.key(state);

        // Egress states keep their self-loop regardless of the table: the
        // packet has already left the switch.
        if key.role == StateRole::Egress {
            return kripke.set_successors(state, &[state]);
        }

        let rule = table.matching_rule(&self.representatives[key.class], key.port);
        let mut successors = Successors::default();
        (rule.map_or(&[][..], Rule::actions).iter())
            .filter_map(Action::forward_port)
            .filter_map(|out_port| self.successor(key, out_port))
            .filter_map(|(_, succ)| kripke.state_by_key(&succ))
            .for_each(|succ| successors.push(succ));
        let is_dropped = successors.len == 0;
        if is_dropped {
            // Every output dangled (or left the slice — only on states no
            // initial state reaches), or there were none: the packet is stuck
            // here. Definition 9 gives such states a self-loop; we also label
            // them as dropped so drop-freedom properties can see it.
            successors.push(state);
        }

        // Only the Dropped proposition is dynamic; toggling one interned bit
        // replaces the old clone-modify-store of the whole label set.
        let label_changed = kripke.set_label_bit(state, DROPPED, is_dropped);
        kripke.set_successors(state, successors.sorted()) || label_changed
    }
}

/// The id of [`Prop::Dropped`] in every structure the encoder builds: the
/// skeleton interns it before anything else.
const DROPPED: PropId = PropId(0);

/// How many successors of one state [`Successors`] holds on the stack.
const INLINE_SUCCESSORS: usize = 8;

/// The successors of one state as the rewiring step collects them: on the
/// stack up to [`INLINE_SUCCESSORS`] of them (a rule forwards out of one or
/// two ports), in a `Vec` past that.
struct Successors {
    inline: [StateId; INLINE_SUCCESSORS],
    spilled: Vec<StateId>,
    len: usize,
}

impl Default for Successors {
    fn default() -> Self {
        Successors {
            inline: [StateId(0); INLINE_SUCCESSORS],
            spilled: Vec::new(),
            len: 0,
        }
    }
}

impl Successors {
    fn push(&mut self, state: StateId) {
        if self.len < INLINE_SUCCESSORS {
            self.inline[self.len] = state;
        } else {
            if self.spilled.is_empty() {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(state);
        }
        self.len += 1;
    }

    /// The successors sorted, without repeats.
    fn sorted(&mut self) -> &[StateId] {
        let all = if self.len <= INLINE_SUCCESSORS {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled[..]
        };
        all.sort_unstable();
        let mut distinct = 0;
        for at in 0..all.len() {
            if distinct == 0 || all[at] != all[distinct - 1] {
                all[distinct] = all[at];
                distinct += 1;
            }
        }
        &all[..distinct]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_model::{Action, Field, Pattern, Priority, Rule};

    /// The small line topology h0 - s0 - s1 - h1 with destination-based
    /// forwarding toward h1 for dst=1.
    fn line() -> (Topology, Configuration, SwitchId, SwitchId) {
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
        (topo, config, s0, s1)
    }

    fn class() -> TrafficClass {
        TrafficClass::new().with_field(Field::Dst, 1)
    }

    #[test]
    fn encoding_is_complete_and_dag_like() {
        let (topo, config, ..) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let kripke = encoder.encode(&config);
        assert!(kripke.is_complete());
        assert!(kripke.is_dag_like());
        assert!(kripke.initial_states().count() >= 1);
    }

    #[test]
    fn forwarding_path_is_represented() {
        let (topo, config, s0, s1) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let kripke = encoder.encode(&config);
        // The initial state at s0 port 1 should reach, transitively, a state
        // labeled AtHost(h1).
        let start = kripke
            .initial_states()
            .find(|s| kripke.key(*s).switch == s0)
            .expect("initial state at s0");
        let mut stack = vec![start];
        let mut seen = std::collections::BTreeSet::new();
        let mut reaches_host = false;
        while let Some(state) = stack.pop() {
            if !seen.insert(state) {
                continue;
            }
            if kripke
                .label_props(state)
                .any(|p| matches!(p, Prop::AtHost(_)))
            {
                reaches_host = true;
            }
            for succ in kripke.successors(state) {
                stack.push(*succ);
            }
        }
        assert!(reaches_host);
        let _ = s1;
    }

    #[test]
    fn empty_config_drops_everywhere() {
        let (topo, _config, ..) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let kripke = encoder.encode(&Configuration::new());
        // Every non-egress state must be labeled Dropped and self-loop.
        for state in kripke.states() {
            let is_egress = kripke
                .label_props(state)
                .any(|p| matches!(p, Prop::AtHost(_)));
            if !is_egress {
                assert!(
                    kripke.has_prop(state, &Prop::Dropped),
                    "state {} not dropped",
                    kripke.key(state)
                );
                assert!(kripke.is_sink(state));
            }
        }
    }

    #[test]
    fn apply_switch_update_reports_changed_states() {
        let (topo, config, s0, _) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let mut kripke = encoder.encode(&config);
        // Updating s0 to the empty table changes the transitions of its states.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &Table::empty());
        assert!(!changed.is_empty());
        assert!(changed.iter().all(|s| kripke.key(*s).switch == s0));
        // The structure remains complete and DAG-like after the update.
        assert!(kripke.is_complete());
        assert!(kripke.is_dag_like());
        // Updating again with the same table is a no-op.
        let changed_again = encoder.apply_switch_update(&mut kripke, s0, &Table::empty());
        assert!(changed_again.is_empty());
    }

    #[test]
    fn update_matches_fresh_encoding() {
        let (topo, config, s0, _) = line();
        let encoder = NetworkKripke::new(topo.clone(), vec![class()]);
        let mut incremental = encoder.encode(&config);
        let new_config = config.updated(s0, Table::empty());
        encoder.apply_switch_update(&mut incremental, s0, &Table::empty());
        let fresh = encoder.encode(&new_config);
        assert_eq!(incremental.len(), fresh.len());
        for state in incremental.states() {
            let key = incremental.key(state);
            let other = fresh.state_by_key(&key).expect("same state space");
            let a: std::collections::BTreeSet<Prop> = incremental.label_props(state).collect();
            let b: std::collections::BTreeSet<Prop> = fresh.label_props(other).collect();
            assert_eq!(a, b, "label of {key}");
            let mut a: Vec<_> = incremental
                .successors(state)
                .iter()
                .map(|s| incremental.key(*s))
                .collect();
            let mut b: Vec<_> = fresh
                .successors(other)
                .iter()
                .map(|s| fresh.key(*s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "successors of {key}");
        }
    }

    #[test]
    fn reset_to_matches_fresh_encoding() {
        let (topo, config, s0, _) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let mut reused = encoder.encode(&config);
        // Re-pointing at a different configuration in place must agree with a
        // fresh encoding of that configuration, state for state.
        let new_config = config.updated(s0, Table::empty());
        let changed = encoder.reset_to(&mut reused, &new_config);
        assert!(!changed.is_empty());
        let fresh = encoder.encode(&new_config);
        assert_eq!(reused.len(), fresh.len());
        for state in reused.states() {
            let key = reused.key(state);
            let other = fresh.state_by_key(&key).expect("same state space");
            let a: std::collections::BTreeSet<Prop> = reused.label_props(state).collect();
            let b: std::collections::BTreeSet<Prop> = fresh.label_props(other).collect();
            assert_eq!(a, b, "label of {key}");
            let mut a: Vec<_> = reused
                .successors(state)
                .iter()
                .map(|s| reused.key(*s))
                .collect();
            let mut b: Vec<_> = fresh
                .successors(other)
                .iter()
                .map(|s| fresh.key(*s))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "successors of {key}");
        }
        // Resetting to the configuration the structure already encodes
        // changes nothing — and a switch with no table set at all is that
        // same configuration (unset ≡ empty).
        assert!(encoder.reset_to(&mut reused, &new_config).is_empty());
        let mut unset = Configuration::new();
        for (sw, table) in config.iter().filter(|(sw, _)| *sw != s0) {
            unset.set_table(sw, table.clone());
        }
        assert!(unset.table_ref(s0).is_none());
        assert!(encoder.reset_to(&mut reused, &unset).is_empty());
        assert!(!encoder.reset_to(&mut reused, &config).is_empty());
        assert_eq!(encoder.reset_to(&mut reused, &unset), changed);
    }

    #[test]
    fn skeleton_is_shared_across_encodes() {
        let (topo, config, s0, _) = line();
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let a = encoder.encode(&config);
        let b = encoder.encode(&config.updated(s0, Table::empty()));
        // Same state space, same ids, same initial marks — only wiring
        // differs.
        assert_eq!(a.len(), b.len());
        for state in a.states() {
            assert_eq!(a.key(state), b.key(state));
            assert_eq!(a.is_initial(state), b.is_initial(state));
        }
    }

    #[test]
    fn a_covered_footprint_grows_only_and_keeps_the_skeleton_order() {
        let (topo, config, ..) = line();
        let other_class = TrafficClass::new().with_field(Field::Dst, 2);
        let whole = NetworkKripke::new(topo, vec![class(), other_class]);
        let keys = |encoder: &NetworkKripke| -> Vec<StateKey> {
            let skeleton = encoder.skeleton();
            skeleton.states().map(|s| skeleton.key(s)).collect()
        };
        let mut sliced = whole.clone();
        // With nothing forwarding, the footprint is the ingress states.
        assert!(sliced.cover(&[&Configuration::new()]));
        assert_eq!(sliced.skeleton().len(), 4);
        // Class 0 reaches s1 and h1; class 1 still matches nothing.
        assert!(sliced.cover(&[&config]));
        assert!(!sliced.cover(&[&config]));
        assert!(!sliced.cover(&[&Configuration::new(), &config]));
        let (all, slice) = (keys(&whole), keys(&sliced));
        assert_eq!((all.len(), slice.len()), (12, 6));
        let mut rest = all.iter();
        assert!(
            slice.iter().all(|key| rest.any(|k| k == key)),
            "not a subsequence"
        );
        for key in &slice {
            let is_initial = |e: &NetworkKripke| {
                let skeleton = e.skeleton();
                skeleton.is_initial(skeleton.state_by_key(key).expect("state"))
            };
            assert_eq!(is_initial(&whole), is_initial(&sliced), "{key}");
        }
        let kripke = sliced.encode(&config);
        assert!(kripke.is_complete() && kripke.is_dag_like());
    }

    /// The per-switch index against a linear scan, for every
    /// switch with a state and one without.
    fn assert_switch_index_matches_scan(kripke: &Kripke, context: &str) {
        let mut switches: Vec<SwitchId> = kripke.states().map(|s| kripke.key(s).switch).collect();
        switches.push(SwitchId(9_999));
        for sw in switches {
            let scanned: Vec<StateId> = kripke
                .states()
                .filter(|s| kripke.key(*s).switch == sw)
                .collect();
            assert_eq!(kripke.switch_index().states(sw), scanned, "{context}: {sw}");
        }
    }

    #[test]
    fn switch_index_matches_a_scan_through_every_rewiring() {
        let (topo, config, s0, s1) = line();
        let other_class = TrafficClass::new().with_field(Field::Dst, 2);
        let encoder = NetworkKripke::new(topo, vec![class(), other_class]);
        assert_switch_index_matches_scan(encoder.skeleton(), "skeleton");

        let mut kripke = encoder.encode(&config);
        assert_switch_index_matches_scan(&kripke, "encoded clone");
        for sw in [s0, s1] {
            assert_eq!(
                kripke.switch_index().states(sw),
                encoder.skeleton().switch_index().states(sw),
                "a clone sees its skeleton's index"
            );
            assert!(!kripke.switch_index().states(sw).is_empty());
        }

        assert!(!encoder
            .apply_switch_update(&mut kripke, s0, &Table::empty())
            .is_empty());
        assert_switch_index_matches_scan(&kripke, "after apply_switch_update");
        assert!(!encoder
            .apply_switch_update(&mut kripke, s0, &config.table(s0))
            .is_empty());
        assert_switch_index_matches_scan(&kripke, "after the update back");
        assert!(!encoder
            .reset_to(&mut kripke, &Configuration::new())
            .is_empty());
        assert_switch_index_matches_scan(&kripke, "after reset_to");
    }

    /// A star: h0 enters s0 at port 0, and s0's ports 1..=n lead each to a
    /// switch of its own with a host behind it.
    fn star(n: u32) -> (Topology, SwitchId) {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let s0 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(0));
        for port in 1..=n {
            let (h, s) = (topo.add_host(), topo.add_switch());
            topo.add_duplex_link(s0, PortId(port), s, PortId(1));
            topo.attach_host(h, s, PortId(2));
        }
        (topo, s0)
    }

    #[test]
    fn a_rule_with_more_exits_than_the_stack_holds_rewires_like_a_fresh_encode() {
        let n = 2 * INLINE_SUCCESSORS as u32 + 1;
        let (topo, s0) = star(n);
        let flood = |ports: &mut dyn Iterator<Item = u32>| {
            let actions = ports.map(|port| Action::Forward(PortId(port)));
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any().with_field(Field::Dst, 1),
                actions.collect(),
            )])
        };
        // Out of every port, in descending order, and out of two twice.
        let wide = flood(&mut (1..=n).rev().chain([3, 1]));
        let narrow = flood(&mut [2, 1].into_iter());
        let encoder = NetworkKripke::new(topo, vec![class()]);
        let mut kripke = encoder.encode(&Configuration::new().with_table(s0, narrow.clone()));
        let entry = kripke
            .state_by_key(&StateKey::arrival(s0, PortId(0), 0))
            .expect("the entry state");
        assert_eq!(kripke.successors(entry).len(), 2);
        for (table, exits) in [(&wide, n as usize), (&narrow, 2), (&wide, n as usize)] {
            let changed = encoder.apply_switch_update(&mut kripke, s0, table);
            assert!(changed.contains(&entry));
            let fresh = encoder.encode(&Configuration::new().with_table(s0, table.clone()));
            let successors = kripke.successors(entry);
            assert_eq!(successors.len(), exits);
            assert!(successors.windows(2).all(|pair| pair[0] < pair[1]));
            assert_eq!(successors, fresh.successors(entry));
            for succ in successors {
                assert!(kripke.predecessors(*succ).contains(&entry));
            }
            assert!(!kripke.has_prop(entry, &Prop::Dropped));
        }
    }

    #[test]
    fn per_class_components_are_disjoint() {
        let (topo, config, ..) = line();
        let other_class = TrafficClass::new().with_field(Field::Dst, 2);
        let encoder = NetworkKripke::new(topo, vec![class(), other_class]);
        let kripke = encoder.encode(&config);
        for state in kripke.states() {
            for succ in kripke.successors(state) {
                assert_eq!(kripke.key(state).class, kripke.key(*succ).class);
            }
        }
    }
}
