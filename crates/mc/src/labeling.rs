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
//! The labels are defined only on DAG-like structures. A configuration with
//! a forwarding loop yields a structure with a longer cycle; a trace that
//! enters a loop never ends, and it satisfies no specification. The states
//! that reach a loop are exactly those a topological order leaves out, so
//! they get no label: an initial state among them fails the check with a
//! lasso round the loop as its counterexample, and the next relabel starts
//! from scratch.
//!
//! Representation: one assignment vector per state, and the region/dirty
//! bookkeeping of `relabel` runs over dense [`StateSet`] bitmaps.
//! Atomic-proposition tests go through the closure's interned resolution
//! against the structure's [`PropTable`](netupd_ltl::PropTable), so each
//! label probe is a single bit test. A label is computed into one scratch
//! vector and copied into the stored label's own storage only when it
//! differs; that vector, the region, the evaluation order, the dirty set and
//! the topological sort's counters stay on the labeling between rechecks.
//! With the inline rows of a closure of at most 64 subformulas, a warm
//! recheck whose outcome holds therefore allocates nothing.

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
    /// The label of each state, indexed by state id.
    labels: Vec<Vec<Assignment>>,
    /// The storage a (re)labeling works in, kept between calls.
    scratch: Scratch,
    /// The states that reach a forwarding loop, when the last (re)labeling
    /// met one. They have no label.
    looping: Option<StateSet>,
}

/// The working storage of [`Labeling::relabel`] and a full labeling, kept
/// on the labeling so that, once its buffers have grown to the sizes a
/// query series needs, a relabel whose outcome holds allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The label being computed, compared with the stored one and copied
    /// into its storage only when they differ.
    label: Vec<Assignment>,
    /// The states to (re)label: the ancestors of the changed states.
    region: StateSet,
    /// The region in evaluation order (the ancestors' worklist before it).
    order: Vec<StateId>,
    /// The region states whose label may have changed.
    dirty: StateSet,
    /// Per-state counters for [`Kripke::topological_order`]; only region
    /// members' entries mean anything.
    remaining: Vec<u32>,
}

impl Labeling {
    /// Computes a labeling of `kripke` with respect to `phi` from scratch.
    ///
    /// Returns the labeling and the number of states labeled: the size of
    /// the structure, less the states that reach a forwarding loop.
    pub fn label_all(kripke: &Kripke, phi: &Ltl) -> (Labeling, usize) {
        Labeling::with_spec(kripke, SpecCache::reuse(None, phi, kripke))
    }

    /// [`label_all`](Self::label_all) for the spec `spec` memoizes, which
    /// must be resolved against `kripke`'s table.
    pub(crate) fn with_spec(kripke: &Kripke, spec: SpecCache) -> (Labeling, usize) {
        let mut labeling = Labeling {
            spec,
            labels: Vec::new(),
            scratch: Scratch::default(),
            looping: None,
        };
        let count = labeling.recompute(kripke);
        (labeling, count)
    }

    /// Gives up the labels, keeping the spec memo for the next labeling.
    pub(crate) fn into_spec(self) -> SpecCache {
        self.spec
    }

    /// Labels every state of `kripke` bottom-up, into the storage the
    /// labels already have.
    fn recompute(&mut self, kripke: &Kripke) -> usize {
        self.labels.resize(kripke.len(), Vec::new());
        self.labels.iter_mut().for_each(Vec::clear);
        let scratch = &mut self.scratch;
        scratch.region.clear();
        for state in kripke.states() {
            scratch.region.insert(state);
        }
        self.looping =
            kripke.topological_order(&scratch.region, &mut scratch.remaining, &mut scratch.order);
        for &state in &scratch.order {
            compute_label(&self.spec, &self.labels, kripke, state, &mut scratch.label);
            self.labels[state.0].clone_from(&scratch.label);
        }
        scratch.order.len()
    }

    /// The specification closure this labeling was computed for.
    pub fn closure(&self) -> &Closure {
        &self.spec.closure
    }

    /// The label of a state; empty for a state that reaches a forwarding
    /// loop.
    #[inline]
    pub fn label(&self, state: StateId) -> &[Assignment] {
        &self.labels[state.0]
    }

    /// Recomputes labels after the outgoing transitions of `changed` states
    /// were modified, walking ancestors and stopping early when a label is
    /// unchanged. Returns the number of states whose label was recomputed.
    pub fn relabel(&mut self, kripke: &Kripke, changed: &[StateId]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        if self.labels.len() != kripke.len() || self.looping.is_some() {
            // The state space itself changed, or the last labeling left the
            // states that reach a loop unlabeled; fall back to a full
            // relabel.
            self.spec.resolve(kripke);
            return self.recompute(kripke);
        }
        // The table only grows and ids are stable, so a resolution stays
        // valid until the table key changes (a newly interned proposition).
        self.spec.resolve(kripke);

        // Restrict attention to ancestors of the changed states and process
        // them in an order where successors-in-the-region come first. The
        // structure was loop-free, so a loop now runs through a changed state
        // and every state that reaches it is in the region.
        let Scratch {
            label,
            region,
            order,
            dirty,
            remaining,
        } = &mut self.scratch;
        kripke.ancestors(changed, region, order);
        self.looping = kripke.topological_order(region, remaining, order);

        dirty.clear();
        for state in changed {
            dirty.insert(*state);
        }
        let mut relabeled = 0;
        for &state in order.iter() {
            if !dirty.contains(state) {
                continue;
            }
            compute_label(&self.spec, &self.labels, kripke, state, label);
            relabeled += 1;
            if *label != self.labels[state.0] {
                self.labels[state.0].clone_from(label);
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
    /// contains an assignment violating the specification, if any. An initial
    /// state that reaches a forwarding loop has no label: see
    /// [`holds`](Self::holds).
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
    /// whose counterexample is a lasso round a forwarding loop or the path
    /// [`extract_path`](Self::extract_path) walks.
    pub(crate) fn outcome(&self, kripke: &Kripke, stats: CheckStats) -> CheckOutcome {
        let path = match self.lasso(kripke) {
            Some(lasso) => lasso,
            None => match self.violating_initial(kripke) {
                None => return CheckOutcome::success(stats),
                Some((initial, assignment)) => self.extract_path(kripke, initial, &assignment),
            },
        };
        CheckOutcome::failure(Some(Counterexample::from_states(kripke, path)), stats)
    }

    /// Returns `true` if every trace from every initial state satisfies the
    /// specification: none enters a forwarding loop, and every one that ends
    /// satisfies it.
    pub fn holds(&self, kripke: &Kripke) -> bool {
        self.lasso(kripke).is_none() && self.violating_initial(kripke).is_none()
    }

    /// A path from the first initial state that reaches a forwarding loop
    /// round the loop, ending at the first state it repeats; `None` if no
    /// initial state reaches a loop.
    fn lasso(&self, kripke: &Kripke) -> Option<Vec<StateId>> {
        let looping = self.looping.as_ref()?;
        let mut state = kripke.initial_states().find(|s| looping.contains(*s))?;
        let mut path = vec![state];
        let mut seen = StateSet::with_capacity(kripke.len());
        seen.insert(state);
        // A state reaches a loop iff one of its other successors does.
        while let Some(&next) = kripke
            .successors(state)
            .iter()
            .find(|s| **s != state && looping.contains(**s))
        {
            path.push(next);
            if !seen.insert(next) {
                break;
            }
            state = next;
        }
        Some(path)
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
}

/// Writes the label of `state` into `out`, from the labels of its
/// successors, sorted and without duplicates.
fn compute_label(
    spec: &SpecCache,
    labels: &[Vec<Assignment>],
    kripke: &Kripke,
    state: StateId,
    out: &mut Vec<Assignment>,
) {
    out.clear();
    let label = kripke.label(state);
    if kripke.is_sink(state) {
        out.push(spec.closure.sink_assignment(label, &spec.resolved));
        return;
    }
    for succ in kripke.successors(state) {
        if *succ == state {
            continue;
        }
        for successor_assignment in &labels[succ.0] {
            out.push(spec.closure.successor_assignment(
                label,
                successor_assignment,
                &spec.resolved,
            ));
        }
    }
    out.sort_unstable();
    out.dedup();
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
        k.set_successors(j, &[n]);
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
        k.set_successors(j, &[n]);
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
    fn repeated_relabels_stay_consistent() {
        // Flip J's successors back and forth; every relabel must agree with
        // the from-scratch labeling.
        let (mut k, ids) = figure6();
        let phi = builders::reachability(Prop::switch(3));
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        let (j, m, n) = (ids[2], ids[5], ids[6]);
        for round in 0..64 {
            let target: &[StateId] = if round % 2 == 0 { &[n] } else { &[m, n] };
            k.set_successors(j, target);
            labeling.relabel(&k, &[j]);
            let (fresh, _) = Labeling::label_all(&k, &phi);
            for state in k.states() {
                assert_eq!(labeling.label(state), fresh.label(state), "round {round}");
            }
        }
    }

    /// Figure 6 with J pointed at a new state X that forwards back to J: the
    /// loop J <-> X is reachable from H.
    fn figure6_with_a_loop() -> (Kripke, Vec<StateId>) {
        let (mut k, mut ids) = figure6();
        let x = k.add_state(key(7), label(7));
        k.add_transition(x, ids[2]);
        ids.push(x);
        (k, ids)
    }

    #[test]
    fn a_reachable_loop_fails_with_a_lasso() {
        let (mut k, ids) = figure6_with_a_loop();
        let (h, j, x) = (ids[0], ids[2], ids[7]);
        // Any spec, even one every ending trace satisfies.
        let phi = Ltl::True;
        let (mut labeling, _) = Labeling::label_all(&k, &phi);
        assert!(labeling.holds(&k), "no loop yet");
        k.set_successors(j, &[x]);
        labeling.relabel(&k, &[j]);
        assert!(!labeling.holds(&k));
        let (fresh, labeled) = Labeling::label_all(&k, &phi);
        assert!(!fresh.holds(&k));
        assert_eq!(labeled, k.len() - 3, "H, J and X reach the loop");
        let stats = CheckStats::default();
        let lasso = fresh.outcome(&k, stats).counterexample.expect("a lasso");
        assert_eq!(lasso.states, [h, j, x, j]);
        assert_eq!(labeling.outcome(&k, stats), fresh.outcome(&k, stats));
        // Out of the loop again: the next relabel starts from scratch.
        k.set_successors(j, &[ids[5], ids[6]]);
        assert_eq!(labeling.relabel(&k, &[j]), k.len());
        let (fresh, _) = Labeling::label_all(&k, &phi);
        for state in k.states() {
            assert_eq!(labeling.label(state), fresh.label(state));
        }
        assert!(labeling.holds(&k));
    }

    #[test]
    fn a_loop_no_initial_state_reaches_is_no_violation() {
        let (mut k, ids) = figure6_with_a_loop();
        let (j, x) = (ids[2], ids[7]);
        // H no longer reaches J; J <-> X loops on its own.
        k.set_successors(ids[0], &[ids[1]]);
        k.set_successors(j, &[x]);
        let phi = builders::reachability(Prop::switch(3));
        let (labeling, _) = Labeling::label_all(&k, &Ltl::True);
        assert!(labeling.holds(&k));
        let (labeling, _) = Labeling::label_all(&k, &phi);
        assert!(!labeling.holds(&k), "H -> I -> L misses s3");
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
