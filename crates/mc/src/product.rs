//! A monolithic explicit-state tableau-product checker (NuSMV stand-in).
//!
//! This backend implements the classical automata-theoretic approach: the
//! specification is negated, the negation's closure induces a tableau of
//! *atoms* (maximally-consistent assignments), and the checker searches the
//! product of the Kripke structure with that tableau for a self-fulfilling
//! lasso. Because the structures produced by the network encoding are
//! DAG-like, every lasso is a path ending in a sink self-loop, so the search
//! is a simple DFS.
//!
//! The point of this backend is its *cost profile*, which matches the
//! external symbolic checker the paper compares against: it is a
//! general-purpose LTL checker that rebuilds its product from scratch on
//! every query and reuses nothing but the spec's closure between the
//! closely-related queries the synthesizer issues. Like NuSMV, it does
//! produce counterexamples.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use netupd_kripke::{Kripke, StateId};
use netupd_ltl::{Assignment, Closure, Ltl, Node, PropSetRef, ResolvedProps};

use crate::checker::{CheckOutcome, CheckStats, Counterexample, ModelChecker};
use crate::spec::SpecCache;

/// Monolithic tableau-product model checker.
///
/// The checker owns the per-query atom cache (cleared at the start of every
/// [`check`](ModelChecker::check), preserving the from-scratch cost profile)
/// and the negated spec's closure and resolution, which it rebuilds only when
/// the spec or the table key changes. Atom vectors are shared between
/// same-label states via [`Arc`], so the checker is `Send`.
#[derive(Debug, Default)]
pub struct ProductChecker {
    cache: AtomCache,
    negated: Option<SpecCache>,
}

impl ProductChecker {
    /// Creates a product checker.
    pub fn new() -> Self {
        ProductChecker::default()
    }
}

impl ModelChecker for ProductChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        // The negated spec's closure (and its resolution against this
        // structure's table) is kept across queries; the product itself is
        // still rebuilt from scratch per query — the cost profile this
        // backend exists to model.
        let negated = SpecCache::reuse(self.negated.take(), &phi.negated(), kripke);
        let tableau = Tableau::new(self.negated.insert(negated));
        self.cache.reset(kripke.len());
        let stats = CheckStats {
            states_labeled: kripke.len(),
            total_states: kripke.len(),
            incremental: false,
        };
        match tableau.find_violation(kripke, &mut self.cache) {
            None => CheckOutcome::success(stats),
            Some(path) => {
                CheckOutcome::failure(Some(Counterexample::from_states(kripke, path)), stats)
            }
        }
    }
}

/// The atom cache for one query: a dense per-state slot array plus a sharing
/// index from interned label to the atoms enumerated against it.
///
/// Owned by the [`ProductChecker`] (not the per-query tableau) so the backing
/// allocations are reused across the synthesizer's query series while the
/// *contents* are rebuilt from scratch every query, and so the sharing uses
/// thread-safe [`Arc`] handles rather than `Rc`/`RefCell` interior
/// mutability.
#[derive(Debug, Default)]
struct AtomCache {
    /// Dense per-state atom cache: one slot per state id.
    state_atoms: Vec<Option<Arc<Vec<Assignment>>>>,
    /// Sharing index from a label row's words to the atoms enumerated
    /// against it. Every row of one structure has the same stride, so equal
    /// words are equal labels.
    by_label: HashMap<Vec<u64>, Arc<Vec<Assignment>>>,
}

impl AtomCache {
    /// Clears the cache and resizes the per-state slots for a structure of
    /// `states` states.
    fn reset(&mut self, states: usize) {
        self.state_atoms.clear();
        self.state_atoms.resize(states, None);
        self.by_label.clear();
    }
}

/// The tableau of the negated specification.
struct Tableau<'a> {
    closure: &'a Closure,
    /// The closure's atomic subformulas resolved against the structure's
    /// proposition table, so atom enumeration probes label bits directly.
    resolved: &'a ResolvedProps,
    /// Indices of the temporal subformulas whose truth value must be guessed
    /// when enumerating atoms.
    temporal: Vec<usize>,
    /// Per formula id: its position in `temporal` (`usize::MAX` otherwise),
    /// so atom enumeration avoids a linear scan per node per mask.
    temporal_pos: Vec<usize>,
    /// `(until_id, rhs_id)` pairs used for the self-fulfillment check.
    untils: Vec<(usize, usize)>,
}

impl<'a> Tableau<'a> {
    fn new(negated: &'a SpecCache) -> Self {
        let SpecCache {
            closure, resolved, ..
        } = negated;
        let nodes = closure.nodes().iter().enumerate();
        let temporal: Vec<usize> = (nodes.clone())
            .filter(|(_, node)| matches!(node, Node::Next(_) | Node::Until(..) | Node::Release(..)))
            .map(|(id, _)| id)
            .collect();
        let mut temporal_pos = vec![usize::MAX; closure.len()];
        for (pos, id) in temporal.iter().enumerate() {
            temporal_pos[*id] = pos;
        }
        let untils: Vec<(usize, usize)> = nodes
            .filter_map(|(id, node)| match node {
                Node::Until(_, rhs) => Some((id, *rhs)),
                _ => None,
            })
            .collect();
        Tableau {
            closure,
            resolved,
            temporal,
            temporal_pos,
            untils,
        }
    }

    /// The atoms consistent with a state's label, from the dense per-state
    /// cache (falling back to the by-label sharing index, then enumeration).
    fn atoms_for_state(
        &self,
        kripke: &Kripke,
        cache: &mut AtomCache,
        state: StateId,
    ) -> Arc<Vec<Assignment>> {
        if let Some(cached) = &cache.state_atoms[state.0] {
            return Arc::clone(cached);
        }
        let label = kripke.label(state);
        let atoms = match cache.by_label.get(label.words()) {
            Some(shared) => Arc::clone(shared),
            None => {
                let enumerated = Arc::new(self.enumerate_atoms(label));
                cache
                    .by_label
                    .insert(label.words().to_vec(), Arc::clone(&enumerated));
                enumerated
            }
        };
        cache.state_atoms[state.0] = Some(Arc::clone(&atoms));
        atoms
    }

    /// Enumerates the atoms consistent with a state label: every combination
    /// of truth values for the temporal subformulas, with propositional truth
    /// fixed by the label and boolean connectives derived bottom-up.
    fn enumerate_atoms(&self, label: PropSetRef<'_>) -> Vec<Assignment> {
        let t = self.temporal.len();
        let mut atoms = Vec::with_capacity(1 << t.min(16));
        for mask in 0u64..(1u64 << t.min(20)) {
            let mut assignment = self.closure.empty_assignment();
            for (id, node) in self.closure.nodes().iter().enumerate() {
                let value = match *node {
                    Node::True => true,
                    Node::False => false,
                    Node::Prop(_) => self.resolved.prop_in_label(id, label),
                    Node::NotProp(_) => !self.resolved.prop_in_label(id, label),
                    Node::And(a, b) => assignment.get(a) && assignment.get(b),
                    Node::Or(a, b) => assignment.get(a) || assignment.get(b),
                    Node::Next(_) | Node::Until(..) | Node::Release(..) => {
                        (mask >> self.temporal_pos[id]) & 1 == 1
                    }
                };
                assignment.set(id, value);
            }
            // Enforce the expansion laws locally: an Until that claims to hold
            // must have its rhs now or its lhs now; a Release that claims to
            // hold must have its rhs now. This prunes clearly inconsistent
            // atoms early (the `follows` relation enforces the rest).
            if self.locally_plausible(&assignment) {
                atoms.push(assignment);
            }
        }
        atoms.sort_unstable();
        atoms.dedup();
        atoms
    }

    fn locally_plausible(&self, m: &Assignment) -> bool {
        for (id, node) in self.closure.nodes().iter().enumerate() {
            match *node {
                Node::Until(a, b) => {
                    let a = m.get(a);
                    let b = m.get(b);
                    if m.get(id) && !a && !b {
                        return false;
                    }
                    if !m.get(id) && b {
                        return false;
                    }
                }
                Node::Release(_, b) => {
                    let b = m.get(b);
                    if m.get(id) && !b {
                        return false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Returns `true` if the atom is self-fulfilling at a sink: it can repeat
    /// forever (follows itself) and every Until it asserts is discharged.
    fn self_fulfilling(&self, m: &Assignment) -> bool {
        if !self.closure.follows(m, m) {
            return false;
        }
        self.untils
            .iter()
            .all(|(until, rhs)| !m.get(*until) || m.get(*rhs))
    }

    /// Searches for a path from an initial state, paired with an atom
    /// asserting the negated specification, to a self-fulfilling sink atom.
    /// Returns the state path if found (i.e. the original property fails).
    fn find_violation(&self, kripke: &Kripke, cache: &mut AtomCache) -> Option<Vec<StateId>> {
        let root = self.closure.root_id();
        let mut visited: HashSet<(StateId, Assignment)> = HashSet::new();
        for initial in kripke.initial_states() {
            let atoms = self.atoms_for_state(kripke, cache, initial);
            for atom in atoms.iter() {
                if !atom.get(root) {
                    continue;
                }
                let mut path = Vec::new();
                if self.dfs(kripke, cache, initial, atom, &mut visited, &mut path) {
                    return Some(path);
                }
            }
        }
        None
    }

    fn dfs(
        &self,
        kripke: &Kripke,
        cache: &mut AtomCache,
        state: StateId,
        atom: &Assignment,
        visited: &mut HashSet<(StateId, Assignment)>,
        path: &mut Vec<StateId>,
    ) -> bool {
        if !visited.insert((state, atom.clone())) {
            return false;
        }
        path.push(state);
        if kripke.is_sink(state) && self.self_fulfilling(atom) {
            return true;
        }
        for succ in kripke.successors(state) {
            if *succ == state {
                continue;
            }
            let next_atoms = self.atoms_for_state(kripke, cache, *succ);
            for next_atom in next_atoms.iter() {
                if self.closure.follows(atom, next_atom)
                    && self.dfs(kripke, cache, *succ, next_atom, visited, path)
                {
                    return true;
                }
            }
        }
        path.pop();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchChecker;
    use netupd_kripke::NetworkKripke;
    use netupd_ltl::{builders, Prop};
    use netupd_model::prelude::*;

    /// A diamond network: h0 - s0 - {s1, s2} - s3 - h1.
    fn diamond(use_upper: bool) -> (NetworkKripke, Configuration, HostId) {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s = topo.add_switches(4);
        topo.attach_host(h0, s[0], PortId(1));
        topo.add_duplex_link(s[0], PortId(2), s[1], PortId(1));
        topo.add_duplex_link(s[0], PortId(3), s[2], PortId(1));
        topo.add_duplex_link(s[1], PortId(2), s[3], PortId(1));
        topo.add_duplex_link(s[2], PortId(2), s[3], PortId(2));
        topo.attach_host(h1, s[3], PortId(3));
        let fwd = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any().with_field(Field::Dst, 1),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s[0], fwd(if use_upper { 2 } else { 3 }))
            .with_table(s[1], fwd(2))
            .with_table(s[2], fwd(2))
            .with_table(s[3], fwd(3));
        let class = TrafficClass::new().with_field(Field::Dst, 1);
        let encoder = NetworkKripke::new(topo, vec![class]).with_ingress_hosts([h0]);
        (encoder, config, h1)
    }

    #[test]
    fn agrees_with_batch_on_reachability() {
        let (encoder, config, h1) = diamond(true);
        let kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut product = ProductChecker::new();
        let mut batch = BatchChecker::new();
        assert_eq!(
            product.check(&kripke, &spec).holds,
            batch.check(&kripke, &spec).holds
        );
        assert!(product.check(&kripke, &spec).holds);
    }

    #[test]
    fn agrees_with_batch_on_waypointing() {
        let (encoder, config, h1) = diamond(true);
        let kripke = encoder.encode(&config);
        // Traffic goes through s1 (the upper path).
        let good = builders::waypoint(Prop::switch(1), Prop::AtHost(h1));
        let bad = builders::waypoint(Prop::switch(2), Prop::AtHost(h1));
        let mut product = ProductChecker::new();
        let mut batch = BatchChecker::new();
        for spec in [&good, &bad] {
            assert_eq!(
                product.check(&kripke, spec).holds,
                batch.check(&kripke, spec).holds,
                "disagreement on {spec}"
            );
        }
        assert!(product.check(&kripke, &good).holds);
        let failure = product.check(&kripke, &bad);
        assert!(!failure.holds);
        assert!(failure.counterexample.is_some());
    }

    #[test]
    fn agrees_with_batch_on_drop_freedom() {
        let (encoder, config, _h1) = diamond(false);
        let kripke = encoder.encode(&config);
        let spec = builders::no_drops();
        let mut product = ProductChecker::new();
        let mut batch = BatchChecker::new();
        assert_eq!(
            product.check(&kripke, &spec).holds,
            batch.check(&kripke, &spec).holds
        );
        // Breaking a switch in the middle of the active path introduces drops.
        let broken = config.updated(SwitchId(2), Table::empty());
        let kripke = encoder.encode(&broken);
        assert_eq!(
            product.check(&kripke, &spec).holds,
            batch.check(&kripke, &spec).holds
        );
        assert!(!product.check(&kripke, &spec).holds);
    }
}
