//! The Kripke structure representation.
//!
//! Labels are stored in an *interned, dense* form: the structure owns a
//! [`PropTable`] that maps every proposition appearing in it to a
//! [`PropId`], and all state labels live in one flat `Vec<u64>` arena with a
//! fixed per-state stride. [`Kripke::label`] hands out a borrowed
//! [`PropSetRef`] view — no allocation, membership is a bit probe — which is
//! what the model checkers consume on their hot paths. The state index is
//! keyed by a packed 128-bit encoding of [`StateKey`] instead of hashing the
//! four-field struct.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use netupd_ltl::{Prop, PropId, PropSetRef, PropTable};
use netupd_model::{PortId, SwitchId};

use crate::stateset::StateSet;

/// Index of a state within a [`Kripke`] structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

/// Whether a state represents a packet arriving at a switch port (about to be
/// processed) or a packet that has been forwarded out of an egress port
/// toward a host.
///
/// The distinction matters on ports that face a host: such a port is both an
/// ingress (packets from the host arrive there and must be processed) and an
/// egress (packets forwarded out of it have left the network), and the two
/// situations are different states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum StateRole {
    /// The packet arrived on this port and is about to be processed.
    #[default]
    Arrival,
    /// The packet was forwarded out of this port to an adjacent host.
    Egress,
}

/// The key identifying a state: a switch-port location for packets of a
/// particular traffic class, distinguished by arrival/egress role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateKey {
    /// The switch at which the packet is located.
    pub switch: SwitchId,
    /// The port at which the packet arrived (or is leaving, for egress states).
    pub port: PortId,
    /// Index of the traffic class this state belongs to.
    pub class: usize,
    /// Whether the packet is arriving at the port or leaving through it.
    pub role: StateRole,
}

impl StateKey {
    /// An arrival state key.
    pub fn arrival(switch: SwitchId, port: PortId, class: usize) -> Self {
        StateKey {
            switch,
            port,
            class,
            role: StateRole::Arrival,
        }
    }

    /// An egress state key.
    pub fn egress(switch: SwitchId, port: PortId, class: usize) -> Self {
        StateKey {
            switch,
            port,
            class,
            role: StateRole::Egress,
        }
    }

    /// A compact, collision-free 128-bit encoding of the key, used as the
    /// state-index key so lookups hash a single integer instead of a
    /// four-field struct.
    #[inline]
    pub fn packed(&self) -> u128 {
        debug_assert!(self.class < (1 << 62), "traffic class index too large");
        (self.switch.0 as u128)
            | ((self.port.0 as u128) << 32)
            | ((self.class as u128) << 64)
            | (match self.role {
                StateRole::Arrival => 0u128,
                StateRole::Egress => 1u128,
            } << 127)
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let role = match self.role {
            StateRole::Arrival => "in",
            StateRole::Egress => "out",
        };
        write!(
            f,
            "({}, {}, c{}, {role})",
            self.switch, self.port, self.class
        )
    }
}

/// The states of each switch, in id order: a list per switch id (switch ids
/// are dense), so a lookup is an index, not a hash.
#[derive(Debug, Clone, Default)]
pub(crate) struct SwitchIndex(Vec<Vec<StateId>>);

impl SwitchIndex {
    /// The states of `switch` (none for a switch without states).
    pub(crate) fn states(&self, switch: SwitchId) -> &[StateId] {
        self.0.get(switch.0 as usize).map_or(&[], Vec::as_slice)
    }

    fn push(&mut self, switch: SwitchId, state: StateId) {
        let at = switch.0 as usize;
        if self.0.len() <= at {
            self.0.resize_with(at + 1, Vec::new);
        }
        self.0[at].push(state);
    }
}

/// A finite Kripke structure `(Q, Q0, δ, λ)` with proposition labels.
///
/// The structures produced by the network encoding are *complete* (every
/// state has a successor) and *DAG-like* (the only cycles are self-loops on
/// sink states); [`Kripke::is_complete`] and [`Kripke::is_dag_like`] verify
/// those invariants.
///
/// Labels are interned: the structure owns the [`PropTable`] for its
/// propositions and stores all labels in a dense arena (see
/// [`Kripke::label`]). Prop ids are stable for the lifetime of the
/// structure, so callers may cache them across queries.
#[derive(Debug, Clone)]
pub struct Kripke {
    props: PropTable,
    keys: Vec<StateKey>,
    index: HashMap<u128, StateId>,
    /// The states of each switch in id order, filled by `add_state`. Shared
    /// rather than deep-copied by `clone` — the encoder's skeleton fixes the
    /// state space, so its per-`encode` clones never write to it.
    by_switch: Arc<SwitchIndex>,
    /// Arena stride: number of `u64` words each state's label row occupies.
    /// Grows (rarely — at 64-proposition boundaries) via `ensure_stride`.
    label_words: usize,
    /// Dense label arena: `keys.len() * label_words` words.
    labels: Vec<u64>,
    /// Each state's successors, sorted and without repeats (both mutators
    /// keep them so).
    successors: Vec<Vec<StateId>>,
    predecessors: Vec<Vec<StateId>>,
    initial: BTreeSet<StateId>,
}

impl Default for Kripke {
    fn default() -> Self {
        Kripke {
            props: PropTable::new(),
            keys: Vec::new(),
            index: HashMap::new(),
            by_switch: Arc::default(),
            label_words: 1,
            labels: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
            initial: BTreeSet::new(),
        }
    }
}

impl Kripke {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Kripke::default()
    }

    /// The proposition table of this structure.
    pub fn props(&self) -> &PropTable {
        &self.props
    }

    /// Interns a proposition into this structure's table, widening the label
    /// arena if the proposition universe outgrew the current stride.
    pub fn intern_prop(&mut self, prop: Prop) -> PropId {
        let id = self.props.intern(prop);
        self.ensure_stride();
        id
    }

    /// Widens every arena row when the table needs more words per label.
    fn ensure_stride(&mut self) {
        let needed = self.props.words();
        if needed <= self.label_words {
            return;
        }
        let old = self.label_words;
        let mut widened = vec![0u64; self.keys.len() * needed];
        for state in 0..self.keys.len() {
            widened[state * needed..state * needed + old]
                .copy_from_slice(&self.labels[state * old..(state + 1) * old]);
        }
        self.labels = widened;
        self.label_words = needed;
    }

    /// Adds a state with the given key and label propositions (interned into
    /// this structure's table), returning its id.
    ///
    /// Adding a key that already exists returns the existing id and leaves the
    /// label untouched.
    pub fn add_state<I: IntoIterator<Item = Prop>>(&mut self, key: StateKey, label: I) -> StateId {
        if let Some(&id) = self.index.get(&key.packed()) {
            return id;
        }
        let id = StateId(self.keys.len());
        self.keys.push(key);
        self.index.insert(key.packed(), id);
        Arc::make_mut(&mut self.by_switch).push(key.switch, id);
        self.labels.resize(self.labels.len() + self.label_words, 0);
        for prop in label {
            let prop = self.intern_prop(prop);
            self.set_label_bit(id, prop, true);
        }
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        id
    }

    /// Marks a state as initial.
    pub fn mark_initial(&mut self, state: StateId) {
        self.initial.insert(state);
    }

    /// Adds a transition `from → to` (idempotent), keeping `from`'s
    /// successor list sorted.
    pub fn add_transition(&mut self, from: StateId, to: StateId) {
        let successors = &mut self.successors[from.0];
        if let Err(at) = successors.binary_search(&to) {
            successors.insert(at, to);
            self.predecessors[to.0].push(from);
        }
    }

    /// Replaces the outgoing transitions of `state` with `new`, which must
    /// be sorted and free of repeats, maintaining predecessor lists. Returns
    /// `true` if the successor set actually changed.
    ///
    /// Successor lists are always sorted, so an unchanged list is one slice
    /// comparison, and a changed one is copied into the old list's storage.
    pub fn set_successors(&mut self, state: StateId, new: &[StateId]) -> bool {
        debug_assert!(
            new.windows(2).all(|pair| pair[0] < pair[1]),
            "successors must be sorted and distinct"
        );
        if self.successors[state.0] == new {
            return false;
        }
        let mut list = std::mem::take(&mut self.successors[state.0]);
        for succ in &list {
            self.predecessors[succ.0].retain(|p| *p != state);
        }
        for succ in new {
            self.predecessors[succ.0].push(state);
        }
        list.clear();
        list.extend_from_slice(new);
        self.successors[state.0] = list;
        true
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the structure has no states.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of transitions (including self-loops).
    pub fn num_transitions(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// The key of a state.
    pub fn key(&self, state: StateId) -> StateKey {
        self.keys[state.0]
    }

    /// The id of the state with the given key, if it exists.
    pub fn state_by_key(&self, key: &StateKey) -> Option<StateId> {
        self.index.get(&key.packed()).copied()
    }

    /// The label of a state, as a borrowed view into the dense label arena.
    #[inline]
    pub fn label(&self, state: StateId) -> PropSetRef<'_> {
        let start = state.0 * self.label_words;
        PropSetRef::new(&self.labels[start..start + self.label_words])
    }

    /// The label of a state resolved back to propositions (diagnostics and
    /// tests; the checking hot path stays on [`Kripke::label`]).
    pub fn label_props(&self, state: StateId) -> impl Iterator<Item = Prop> + '_ {
        self.label(state).props(&self.props)
    }

    /// Returns `true` if the state's label contains `prop`.
    pub fn has_prop(&self, state: StateId, prop: &Prop) -> bool {
        self.props
            .lookup(prop)
            .is_some_and(|id| self.label(state).contains(id))
    }

    /// Sets or clears one proposition in a state's label; returns `true` if
    /// the label changed. The id must come from this structure's table.
    pub fn set_label_bit(&mut self, state: StateId, id: PropId, value: bool) -> bool {
        debug_assert!(id.index() < self.props.len(), "foreign prop id");
        let word = state.0 * self.label_words + id.index() / 64;
        let mask = 1u64 << (id.index() % 64);
        let was_set = self.labels[word] & mask != 0;
        if value {
            self.labels[word] |= mask;
        } else {
            self.labels[word] &= !mask;
        }
        was_set != value
    }

    /// The successors of a state, in id order.
    pub fn successors(&self, state: StateId) -> &[StateId] {
        &self.successors[state.0]
    }

    /// The predecessors of a state.
    pub fn predecessors(&self, state: StateId) -> &[StateId] {
        &self.predecessors[state.0]
    }

    /// The initial states.
    pub fn initial_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.initial.iter().copied()
    }

    /// Returns `true` if `state` is initial.
    pub fn is_initial(&self, state: StateId) -> bool {
        self.initial.contains(&state)
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.keys.len()).map(StateId)
    }

    /// Returns `true` if `state` is a sink: its only outgoing transition (if
    /// any) is a self-loop.
    pub fn is_sink(&self, state: StateId) -> bool {
        self.successors[state.0].iter().all(|s| *s == state)
    }

    /// Returns `true` if every state has at least one successor.
    pub fn is_complete(&self) -> bool {
        self.successors.iter().all(|s| !s.is_empty())
    }

    /// Returns `true` if the structure is DAG-like: the only cycles are
    /// self-loops on sink states.
    pub fn is_dag_like(&self) -> bool {
        let all: StateSet = self.states().collect();
        self.topological_order(&all, &mut Vec::new(), &mut Vec::new())
            .is_none()
    }

    /// Fills `order` with a topological order of the subgraph induced by
    /// `region`, ignoring self-loops and the edges that leave the region.
    ///
    /// The order lists every state after all of its (non-self) successors in
    /// the region, so sinks come first: the evaluation order the labeling
    /// algorithms need. It leaves out the region states that reach a cycle
    /// inside the region; they are returned, or `None` if there are none.
    ///
    /// `remaining` (per-state counters) and `order` are caller-owned, so a
    /// caller that keeps them orders without allocating. Only the counters
    /// of region members are written and read, so they never need clearing,
    /// and an order over a small region costs O(region), not O(states).
    /// `order` doubles as Kahn's queue: states are appended as they become
    /// ready and taken in that order.
    pub fn topological_order(
        &self,
        region: &StateSet,
        remaining: &mut Vec<u32>,
        order: &mut Vec<StateId>,
    ) -> Option<StateSet> {
        if remaining.len() < self.len() {
            remaining.resize(self.len(), 0);
        }
        order.clear();
        let mut size = 0;
        for state in region.iter() {
            remaining[state.0] = self.successors[state.0]
                .iter()
                .filter(|s| **s != state && region.contains(**s))
                .count() as u32;
            size += 1;
        }
        order.extend(region.iter().filter(|s| remaining[s.0] == 0));
        let mut next = 0;
        while let Some(&state) = order.get(next) {
            next += 1;
            for pred in &self.predecessors[state.0] {
                if *pred == state || !region.contains(*pred) {
                    continue;
                }
                remaining[pred.0] -= 1;
                if remaining[pred.0] == 0 {
                    order.push(*pred);
                }
            }
        }
        // A state is left out iff it keeps a successor that is left out.
        (order.len() < size).then(|| region.iter().filter(|s| remaining[s.0] > 0).collect())
    }

    /// Fills `ancestors` with the ancestors of the states in `seeds`
    /// (including the seeds themselves): every state from which some seed
    /// is reachable. `work` is a caller-owned worklist, left empty.
    pub fn ancestors(&self, seeds: &[StateId], ancestors: &mut StateSet, work: &mut Vec<StateId>) {
        ancestors.clear();
        work.clear();
        for seed in seeds {
            if ancestors.insert(*seed) {
                work.push(*seed);
            }
        }
        while let Some(state) = work.pop() {
            for pred in &self.predecessors[state.0] {
                if ancestors.insert(*pred) {
                    work.push(*pred);
                }
            }
        }
    }

    /// The per-switch state index (the states whose key refers to each
    /// switch, in id order), shared: a handle that outlives a mutable borrow
    /// of the structure, so a rewiring step can walk a switch's states while
    /// it rewires them, without copying the list.
    pub(crate) fn switch_index(&self) -> Arc<SwitchIndex> {
        Arc::clone(&self.by_switch)
    }
}

impl fmt::Display for Kripke {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kripke({} states, {} transitions, {} initial)",
            self.len(),
            self.num_transitions(),
            self.initial.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sw: u32, pt: u32) -> StateKey {
        StateKey::arrival(SwitchId(sw), PortId(pt), 0)
    }

    fn label(sw: u32) -> [Prop; 1] {
        [Prop::switch(sw)]
    }

    /// A diamond: 0 -> {1, 2} -> 3(sink with self-loop).
    fn diamond() -> (Kripke, [StateId; 4]) {
        let mut k = Kripke::new();
        let a = k.add_state(key(0, 1), label(0));
        let b = k.add_state(key(1, 1), label(1));
        let c = k.add_state(key(2, 1), label(2));
        let d = k.add_state(key(3, 1), label(3));
        k.mark_initial(a);
        k.add_transition(a, b);
        k.add_transition(a, c);
        k.add_transition(b, d);
        k.add_transition(c, d);
        k.add_transition(d, d);
        (k, [a, b, c, d])
    }

    #[test]
    fn construction_and_counts() {
        let (k, _) = diamond();
        assert_eq!(k.len(), 4);
        assert_eq!(k.num_transitions(), 5);
        assert_eq!(k.initial_states().count(), 1);
    }

    #[test]
    fn duplicate_key_returns_same_state() {
        let mut k = Kripke::new();
        let a = k.add_state(key(0, 1), label(0));
        let b = k.add_state(key(0, 1), label(9));
        assert_eq!(a, b);
        assert_eq!(k.len(), 1);
        let props: Vec<Prop> = k.label_props(a).collect();
        assert_eq!(props, vec![Prop::switch(0)]);
    }

    #[test]
    fn labels_are_interned_bit_probes() {
        let (k, [a, b, ..]) = diamond();
        assert!(k.has_prop(a, &Prop::switch(0)));
        assert!(!k.has_prop(a, &Prop::switch(1)));
        assert!(k.has_prop(b, &Prop::switch(1)));
        // A never-interned proposition is simply absent.
        assert!(!k.has_prop(a, &Prop::Dropped));
        let id0 = k.props().lookup(&Prop::switch(0)).unwrap();
        assert!(k.label(a).contains(id0));
        assert!(!k.label(b).contains(id0));
    }

    #[test]
    fn set_label_bit_reports_changes() {
        let (mut k, [a, ..]) = diamond();
        let dropped = k.intern_prop(Prop::Dropped);
        assert!(k.set_label_bit(a, dropped, true));
        assert!(!k.set_label_bit(a, dropped, true));
        assert!(k.has_prop(a, &Prop::Dropped));
        assert!(k.set_label_bit(a, dropped, false));
        assert!(!k.has_prop(a, &Prop::Dropped));
    }

    #[test]
    fn arena_restrides_past_64_props() {
        let mut k = Kripke::new();
        let a = k.add_state(key(0, 1), label(0));
        // Intern propositions past the one-word boundary; the arena widens
        // and existing labels survive.
        for n in 0..70 {
            k.intern_prop(Prop::port(n));
        }
        assert!(k.has_prop(a, &Prop::switch(0)));
        let high = k.intern_prop(Prop::at_host(99));
        assert!(high.index() >= 64);
        assert!(k.set_label_bit(a, high, true));
        assert!(k.has_prop(a, &Prop::at_host(99)));
        assert!(k.has_prop(a, &Prop::switch(0)));
    }

    #[test]
    fn packed_keys_are_injective_on_roles_and_classes() {
        let arrival = StateKey::arrival(SwitchId(1), PortId(2), 3);
        let egress = StateKey::egress(SwitchId(1), PortId(2), 3);
        let other_class = StateKey::arrival(SwitchId(1), PortId(2), 4);
        assert_ne!(arrival.packed(), egress.packed());
        assert_ne!(arrival.packed(), other_class.packed());
        let mut k = Kripke::new();
        let a = k.add_state(arrival, []);
        let e = k.add_state(egress, []);
        assert_ne!(a, e);
        assert_eq!(k.state_by_key(&arrival), Some(a));
        assert_eq!(k.state_by_key(&egress), Some(e));
    }

    #[test]
    fn completeness_and_dagness() {
        let (k, [_, _, _, d]) = diamond();
        assert!(k.is_complete());
        assert!(k.is_dag_like());
        assert!(k.is_sink(d));
        let sinks: Vec<StateId> = k.states().filter(|&s| k.is_sink(s)).collect();
        assert_eq!(sinks, vec![d]);
    }

    #[test]
    fn incomplete_structure_detected() {
        let mut k = Kripke::new();
        let a = k.add_state(key(0, 1), label(0));
        let b = k.add_state(key(1, 1), label(1));
        k.add_transition(a, b);
        assert!(!k.is_complete());
    }

    #[test]
    fn cycle_detected() {
        let mut k = Kripke::new();
        let a = k.add_state(key(0, 1), label(0));
        let b = k.add_state(key(1, 1), label(1));
        k.add_transition(a, b);
        k.add_transition(b, a);
        assert!(!k.is_dag_like());
        let all: StateSet = k.states().collect();
        let mut order = Vec::new();
        let looping = k.topological_order(&all, &mut Vec::new(), &mut order);
        assert!(order.is_empty());
        assert_eq!(looping.map(|l| l.count()), Some(2));
    }

    #[test]
    fn topological_order_lists_sinks_first() {
        let (k, [a, _, _, d]) = diamond();
        let all: StateSet = k.states().collect();
        let mut order = vec![d];
        let looping = k.topological_order(&all, &mut Vec::new(), &mut order);
        assert!(looping.is_none());
        assert_eq!(order.len(), k.len());
        let pos = |s: StateId| order.iter().position(|x| *x == s).unwrap();
        assert!(pos(d) < pos(a));
        for state in k.states() {
            for succ in k.successors(state) {
                if *succ != state {
                    assert!(pos(*succ) < pos(state));
                }
            }
        }
    }

    #[test]
    fn ancestors_computation() {
        let (k, [a, b, c, d]) = diamond();
        let (mut anc, mut work) = (StateSet::new(), Vec::new());
        k.ancestors(&[d], &mut anc, &mut work);
        assert_eq!(anc.count(), 4);
        // The same storage again: the set is refilled, not added to.
        k.ancestors(&[b], &mut anc, &mut work);
        assert!(anc.contains(a) && anc.contains(b));
        assert!(!anc.contains(c) && !anc.contains(d));
        assert!(work.is_empty());
    }

    #[test]
    fn set_successors_updates_predecessors() {
        let (mut k, [a, b, c, d]) = diamond();
        // Re-route a to go only to c.
        let changed = k.set_successors(a, &[c]);
        assert!(changed);
        assert_eq!(k.successors(a), &[c]);
        assert!(!k.predecessors(b).contains(&a));
        assert!(k.predecessors(c).contains(&a));
        // Setting the same successors again reports no change.
        assert!(!k.set_successors(a, &[c]));
        assert!(k.is_dag_like());
        let _ = d;
    }

    #[test]
    fn switch_index_lists_each_switch_s_states() {
        let (k, [a, ..]) = diamond();
        assert_eq!(k.switch_index().states(SwitchId(0)), &[a]);
        assert!(k.switch_index().states(SwitchId(9)).is_empty());
    }

    #[test]
    fn a_clone_shares_the_switch_index_until_it_adds_a_state() {
        let (k, [a, ..]) = diamond();
        let mut clone = k.clone();
        assert!(Arc::ptr_eq(&k.by_switch, &clone.by_switch));
        let extra = clone.add_state(key(0, 2), label(0));
        assert_eq!(clone.switch_index().states(SwitchId(0)), &[a, extra]);
        assert_eq!(k.switch_index().states(SwitchId(0)), &[a]);
    }
}
