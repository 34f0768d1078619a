//! The state-labeling engine shared by the incremental and batch checkers.
//!
//! Following §5.1 of the paper, every state `q` is labeled with the set of
//! maximally-consistent subsets `M ⊆ ecl(ϕ)` for which some trace starting at
//! `q` satisfies every formula in `M`. Labels are computed bottom-up over the
//! DAG (sinks first); for sinks the unique stuttering trace determines a
//! single assignment, and for internal states each successor assignment
//! induces exactly one assignment at the state.
//!
//! [`Labeling::relabel`] implements the incremental step: after an update
//! changes the transitions of a set `U` of states, only the ancestors of `U`
//! can have different labels, and relabeling stops propagating as soon as a
//! recomputed label is unchanged (the Figure 6 optimization).
//!
//! Representation: per-state assignment vectors live in one flat backing
//! `Vec<Assignment>` addressed through `(offset, len)` spans, and the
//! region/dirty bookkeeping of `relabel` runs over dense [`StateSet`]
//! bitmaps — no per-state allocation, no tree-set churn on the hot path.
//! Atomic-proposition tests go through the closure's interned resolution
//! against the structure's [`PropTable`](netupd_ltl::PropTable), so each
//! label probe is a single bit test.

use std::collections::VecDeque;

use netupd_kripke::{Kripke, StateId, StateSet};
use netupd_ltl::{Assignment, Closure, Ltl};

use crate::checker::{CheckOutcome, CheckStats, Counterexample};
use crate::spec::SpecCache;

/// A correct labeling of a Kripke structure with respect to a specification.
#[derive(Debug, Clone)]
pub struct Labeling {
    /// The specification's closure and its resolution against the
    /// structure's table; the owning checker hands it on to its next
    /// labeling, so a query series builds the closure once.
    spec: SpecCache,
    /// Per-state `(offset, len)` span into `backing`.
    spans: Vec<(u32, u32)>,
    /// Flat backing storage for all per-state assignment vectors.
    backing: Vec<Assignment>,
    /// Number of superseded (dead) assignments still occupying `backing`;
    /// when they outnumber the live ones the storage is compacted.
    dead: usize,
    /// Reusable per-state counters for `region_topological_order`, so a
    /// relabel of a small region does not pay an O(total-states) allocation.
    /// Entries are only meaningful for the current call's region members.
    scratch_remaining: Vec<u32>,
}

impl Labeling {
    /// Computes a labeling of `kripke` with respect to `phi` from scratch.
    ///
    /// Returns the labeling and the number of states labeled (always the size
    /// of the structure).
    ///
    /// # Panics
    ///
    /// Panics if `kripke` is not DAG-like (has a cycle that is not a sink
    /// self-loop); the synthesizer rejects such configurations before
    /// checking them.
    pub fn label_all(kripke: &Kripke, phi: &Ltl) -> (Labeling, usize) {
        Labeling::with_spec(kripke, SpecCache::reuse(None, phi, kripke))
    }

    /// [`label_all`](Self::label_all) for the spec `spec` memoizes, which
    /// must be resolved against `kripke`'s table.
    pub(crate) fn with_spec(kripke: &Kripke, spec: SpecCache) -> (Labeling, usize) {
        let mut labeling = Labeling {
            spec,
            spans: Vec::new(),
            backing: Vec::with_capacity(kripke.len()),
            dead: 0,
            scratch_remaining: Vec::new(),
        };
        let count = labeling.recompute(kripke);
        (labeling, count)
    }

    /// Gives up the labels, keeping the spec memo for the next labeling.
    pub(crate) fn into_spec(self) -> SpecCache {
        self.spec
    }

    /// Labels every state of `kripke` bottom-up, reusing the backing storage.
    fn recompute(&mut self, kripke: &Kripke) -> usize {
        self.spans.clear();
        self.spans.resize(kripke.len(), (0, 0));
        self.backing.clear();
        self.dead = 0;
        let order = kripke
            .topological_order()
            .expect("network Kripke structures are DAG-like");
        for state in &order {
            let label = self.compute_label(kripke, *state);
            self.spans[state.0] = (self.backing.len() as u32, label.len() as u32);
            self.backing.extend(label);
        }
        kripke.len()
    }

    /// The specification closure this labeling was computed for.
    pub fn closure(&self) -> &Closure {
        &self.spec.closure
    }

    /// The label of a state.
    #[inline]
    pub fn label(&self, state: StateId) -> &[Assignment] {
        let (offset, len) = self.spans[state.0];
        &self.backing[offset as usize..(offset + len) as usize]
    }

    /// Recomputes labels after the outgoing transitions of `changed` states
    /// were modified, walking ancestors and stopping early when a label is
    /// unchanged. Returns the number of states whose label was recomputed.
    pub fn relabel(&mut self, kripke: &Kripke, changed: &[StateId]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        if self.spans.len() != kripke.len() {
            // The state space itself changed; fall back to a full relabel
            // (reusing this labeling's storage).
            self.spec.resolve(kripke);
            return self.recompute(kripke);
        }
        // The table only grows and ids are stable, so a resolution stays
        // valid until the table key changes (a newly interned proposition).
        self.spec.resolve(kripke);

        // Restrict attention to ancestors of the changed states and process
        // them in an order where successors-in-the-region come first.
        let region = kripke.ancestors(changed);
        let order = region_topological_order(kripke, &region, &mut self.scratch_remaining);

        let mut dirty: StateSet = changed.iter().copied().collect();
        let mut relabeled = 0;
        for state in order {
            if !dirty.contains(state) {
                continue;
            }
            let new_label = self.compute_label(kripke, state);
            relabeled += 1;
            if new_label.as_slice() != self.label(state) {
                self.replace_label(state, new_label);
                for pred in kripke.predecessors(state) {
                    if *pred != state {
                        dirty.insert(*pred);
                    }
                }
            }
        }
        relabeled
    }

    /// Returns the first initial state (and offending assignment) whose label
    /// contains an assignment violating the specification, if any.
    pub fn violating_initial(&self, kripke: &Kripke) -> Option<(StateId, Assignment)> {
        for state in kripke.initial_states() {
            for assignment in self.label(state) {
                if !self.spec.closure.satisfies_root(assignment) {
                    return Some((state, assignment.clone()));
                }
            }
        }
        None
    }

    /// The checker outcome this labeling answers: success, or a failure
    /// with the counterexample [`extract_path`](Self::extract_path) walks.
    pub(crate) fn outcome(&self, kripke: &Kripke, stats: CheckStats) -> CheckOutcome {
        match self.violating_initial(kripke) {
            None => CheckOutcome::success(stats),
            Some((initial, assignment)) => {
                let path = self.extract_path(kripke, initial, &assignment);
                CheckOutcome::failure(Some(Counterexample::from_states(kripke, path)), stats)
            }
        }
    }

    /// Returns `true` if every trace from every initial state satisfies the
    /// specification.
    pub fn holds(&self, kripke: &Kripke) -> bool {
        self.violating_initial(kripke).is_none()
    }

    /// Extracts a violating path starting at `state`, whose label contains
    /// `assignment` (typically obtained from [`violating_initial`]).
    ///
    /// The path follows, at each step, a successor whose label contains an
    /// assignment that *explains* the current one (in the sense of the
    /// `follows` relation); it ends at a sink state.
    ///
    /// [`violating_initial`]: Labeling::violating_initial
    pub fn extract_path(
        &self,
        kripke: &Kripke,
        state: StateId,
        assignment: &Assignment,
    ) -> Vec<StateId> {
        let mut path = vec![state];
        let mut current_state = state;
        let mut current = assignment.clone();
        loop {
            if kripke.is_sink(current_state) {
                return path;
            }
            let label = kripke.label(current_state);
            let mut advanced = false;
            'succ: for succ in kripke.successors(current_state) {
                if *succ == current_state {
                    continue;
                }
                for candidate in self.label(*succ) {
                    let implied = self.spec.closure.successor_assignment(
                        label,
                        candidate,
                        &self.spec.resolved,
                    );
                    if implied == current {
                        path.push(*succ);
                        current_state = *succ;
                        current = candidate.clone();
                        advanced = true;
                        break 'succ;
                    }
                }
            }
            if !advanced {
                // The labeling is correct by construction, so this only
                // happens if the caller passed an assignment that is not in
                // the state's label; return what we have.
                return path;
            }
        }
    }

    // ---- internals ---------------------------------------------------------

    fn compute_label(&self, kripke: &Kripke, state: StateId) -> Vec<Assignment> {
        let label = kripke.label(state);
        if kripke.is_sink(state) {
            return vec![self
                .spec
                .closure
                .sink_assignment(label, &self.spec.resolved)];
        }
        let mut assignments: Vec<Assignment> = Vec::new();
        for succ in kripke.successors(state) {
            if *succ == state {
                continue;
            }
            for successor_assignment in self.label(*succ) {
                assignments.push(self.spec.closure.successor_assignment(
                    label,
                    successor_assignment,
                    &self.spec.resolved,
                ));
            }
        }
        assignments.sort_unstable();
        assignments.dedup();
        assignments
    }

    /// Replaces one state's span. Same-length labels are overwritten in
    /// place; different lengths append to the backing and leave the old span
    /// dead until the next compaction.
    fn replace_label(&mut self, state: StateId, new: Vec<Assignment>) {
        let (offset, len) = self.spans[state.0];
        if new.len() == len as usize {
            for (dst, src) in self.backing[offset as usize..].iter_mut().zip(new) {
                *dst = src;
            }
            return;
        }
        self.dead += len as usize;
        self.spans[state.0] = (self.backing.len() as u32, new.len() as u32);
        self.backing.extend(new);
        if self.dead > self.backing.len() / 2 && self.backing.len() > 1024 {
            self.compact();
        }
    }

    /// Rewrites `backing` keeping only live spans, in state order.
    fn compact(&mut self) {
        let live = self.backing.len() - self.dead;
        let mut compacted = Vec::with_capacity(live);
        for span in &mut self.spans {
            let (offset, len) = *span;
            let start = compacted.len() as u32;
            compacted.extend_from_slice(&self.backing[offset as usize..(offset + len) as usize]);
            *span = (start, len);
        }
        self.backing = compacted;
        self.dead = 0;
    }
}

/// A topological order (successors first) of the subgraph induced by
/// `region`, ignoring self-loops. Edges leaving the region are ignored: those
/// successors already have correct labels.
///
/// `remaining` is a caller-owned scratch buffer of per-state counters; only
/// the entries of region members are written and read, so it never needs
/// clearing — a relabel of a small region stays O(region), not O(states).
fn region_topological_order(
    kripke: &Kripke,
    region: &StateSet,
    remaining: &mut Vec<u32>,
) -> Vec<StateId> {
    if remaining.len() < kripke.len() {
        remaining.resize(kripke.len(), 0);
    }
    let mut size = 0;
    for state in region.iter() {
        remaining[state.0] = kripke
            .successors(state)
            .iter()
            .filter(|s| **s != state && region.contains(**s))
            .count() as u32;
        size += 1;
    }
    let mut queue: VecDeque<StateId> = region.iter().filter(|s| remaining[s.0] == 0).collect();
    let mut order = Vec::with_capacity(size);
    while let Some(state) = queue.pop_front() {
        order.push(state);
        for pred in kripke.predecessors(state) {
            if *pred == state || !region.contains(*pred) {
                continue;
            }
            remaining[pred.0] -= 1;
            if remaining[pred.0] == 0 {
                queue.push_back(*pred);
            }
        }
    }
    debug_assert_eq!(order.len(), size, "region must be acyclic");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_ltl::{builders, Prop};
    use netupd_model::{PortId, SwitchId};

    fn key(sw: u32) -> netupd_kripke::StateKey {
        netupd_kripke::StateKey::arrival(SwitchId(sw), PortId(1), 0)
    }

    fn label(sw: u32) -> [Prop; 1] {
        [Prop::switch(sw)]
    }

    /// Figure-6-style structure: H -> {I, J}; I -> {K, L}; J -> {M, N};
    /// K, L, M, N are sinks.
    fn figure6() -> (Kripke, Vec<StateId>) {
        let mut k = Kripke::new();
        let h = k.add_state(key(0), label(0));
        let i = k.add_state(key(1), label(1));
        let j = k.add_state(key(2), label(2));
        let kk = k.add_state(key(3), label(3));
        let l = k.add_state(key(4), label(4));
        let m = k.add_state(key(5), label(5));
        let n = k.add_state(key(6), label(6));
        k.mark_initial(h);
        k.add_transition(h, i);
        k.add_transition(h, j);
        k.add_transition(i, kk);
        k.add_transition(i, l);
        k.add_transition(j, m);
        k.add_transition(j, n);
        for sink in [kk, l, m, n] {
            k.add_transition(sink, sink);
        }
        (k, vec![h, i, j, kk, l, m, n])
    }

    #[test]
    fn label_all_reachability() {
        let (k, _) = figure6();
        // Not all traces reach s3 (only the path through I-K does).
        let phi = builders::reachability(Prop::switch(3));
        let (labeling, count) = Labeling::label_all(&k, &phi);
        assert_eq!(count, 7);
        assert!(!labeling.holds(&k));
        // All traces eventually reach *some* sink labeled 3..6: s3 | s4 | s5 | s6.
        let any = Ltl::eventually(Ltl::or_all((3..=6).map(|n| Ltl::prop(Prop::switch(n)))));
        let (labeling, _) = Labeling::label_all(&k, &any);
        assert!(labeling.holds(&k));
    }

    #[test]
    fn counterexample_extraction_reaches_a_sink() {
        let (k, ids) = figure6();
        let phi = builders::reachability(Prop::switch(3));
        let (labeling, _) = Labeling::label_all(&k, &phi);
        let (state, assignment) = labeling.violating_initial(&k).expect("violation");
        assert_eq!(state, ids[0]);
        let path = labeling.extract_path(&k, state, &assignment);
        assert!(path.len() >= 2);
        let last = *path.last().unwrap();
        assert!(k.is_sink(last));
        // The violating path must not go through K (s3).
        assert!(path.iter().all(|s| k.key(*s).switch != SwitchId(3)));
    }

    #[test]
    fn relabel_matches_full_relabel() {
        let (mut k, ids) = figure6();
        let phi = builders::reachability(Prop::switch(3));
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        // Redirect J to only reach N, as in the paper's Figure 6 example.
        let j = ids[2];
        let n = ids[6];
        k.set_successors(j, vec![n]);
        let relabeled = labeling.relabel(&k, &[j]);
        assert!(relabeled >= 1);
        let (fresh, _) = Labeling::label_all(&k, &phi);
        for state in k.states() {
            assert_eq!(labeling.label(state), fresh.label(state));
        }
    }

    #[test]
    fn relabel_stops_when_labels_do_not_change() {
        let (mut k, ids) = figure6();
        // Property "eventually reach an odd-labeled or even-labeled sink" that
        // is insensitive to which sink J points to.
        let phi = Ltl::eventually(Ltl::or_all((3..=6).map(|n| Ltl::prop(Prop::switch(n)))));
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        let j = ids[2];
        let n = ids[6];
        k.set_successors(j, vec![n]);
        let relabeled = labeling.relabel(&k, &[j]);
        // Only J itself needs recomputation: its label does not change, so the
        // propagation stops before reaching H.
        assert_eq!(relabeled, 1);
        assert!(labeling.holds(&k));
    }

    #[test]
    fn relabel_with_empty_change_set_is_free() {
        let (k, _) = figure6();
        let phi = builders::reachability(Prop::switch(3));
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        assert_eq!(labeling.relabel(&k, &[]), 0);
    }

    #[test]
    fn repeated_relabels_stay_consistent_under_compaction() {
        // Flip J's successors back and forth; span replacement and
        // compaction must preserve agreement with the from-scratch labeling.
        let (mut k, ids) = figure6();
        let phi = builders::reachability(Prop::switch(3));
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        let (j, m, n) = (ids[2], ids[5], ids[6]);
        for round in 0..64 {
            let target = if round % 2 == 0 { vec![n] } else { vec![m, n] };
            k.set_successors(j, target);
            labeling.relabel(&k, &[j]);
            let (fresh, _) = Labeling::label_all(&k, &phi);
            for state in k.states() {
                assert_eq!(labeling.label(state), fresh.label(state), "round {round}");
            }
        }
    }

    #[test]
    fn waypoint_labeling() {
        // Chain 0 -> 1 -> 2(sink): waypointing through s1 before s2 holds.
        let mut k = Kripke::new();
        let a = k.add_state(key(0), label(0));
        let b = k.add_state(key(1), label(1));
        let c = k.add_state(key(2), label(2));
        k.mark_initial(a);
        k.add_transition(a, b);
        k.add_transition(b, c);
        k.add_transition(c, c);
        let phi = builders::waypoint(Prop::switch(1), Prop::switch(2));
        let (labeling, _) = Labeling::label_all(&k, &phi);
        assert!(labeling.holds(&k));
        // Skipping the waypoint violates it.
        let mut k2 = Kripke::new();
        let a = k2.add_state(key(0), label(0));
        let c = k2.add_state(key(2), label(2));
        k2.mark_initial(a);
        k2.add_transition(a, c);
        k2.add_transition(c, c);
        let (labeling, _) = Labeling::label_all(&k2, &phi);
        assert!(!labeling.holds(&k2));
        let _ = b;
    }
}
