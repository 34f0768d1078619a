//! The one store of learnt facts every [`SearchStrategy`](crate::SearchStrategy)
//! builds on: the counterexample→precedence-constraint learning of §4.2 B,
//! which is also the wrong-set `W` of §4.1.
//!
//! A configuration is abstracted by the set of update units already applied
//! (a [`UnitSet`]). A counterexample observed at some configuration says
//! "some not-yet-updated switch on the trace must be updated before some
//! updated one"; every strategy learns that clause into a [`UnitOrdering`]
//! through one function (`UnitOrdering::learn_counterexample`) and the store
//! answers all three questions the paper asks of it:
//!
//! * **`W`** — [`excludes`](UnitOrdering::excludes): the clause rules out
//!   *every* configuration that agrees with the counterexample on which of
//!   its switches are updated and which are not, so the DFS skips those
//!   without a check;
//! * **early termination** — [`propose`](UnitOrdering::propose) returning
//!   `None`: no total order is left, the DFS stops;
//! * **the next candidate** — the order `propose` does return, which the
//!   SAT-guided strategy hands to the model checker, learning the failure
//!   back as a new clause.
//!
//! All three are questions about applied-unit sets, answered on the same
//! list of clauses: the store holds no propositional encoding and calls no
//! solver.
//!
//! The visited set `V` needs no type of its own: it is a
//! `HashSet<UnitSet>` in the DFS.

use std::collections::{HashMap, HashSet};

use netupd_model::SwitchId;

use crate::units::UnitSet;

/// Effort counters of a [`UnitOrdering`]'s walks, in the shape the layer
/// replay reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderingStats {
    /// Unit sets a walk entered and then backed out of, having found no
    /// completion through them.
    pub decisions: u64,
    /// Walks that found no order.
    pub conflicts: u64,
    /// Distinct learnt clauses.
    pub clauses: usize,
    /// Units the store orders.
    pub vars: usize,
}

/// One learnt clause "some unit of `before` precedes some unit of `after`",
/// kept as the set test it is: with disjoint sides, an order violates the
/// clause exactly when one of its prefix sets holds all of `after` and none
/// of `before`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Clause {
    pub(crate) before: UnitSet,
    pub(crate) after: UnitSet,
}

impl Clause {
    fn excludes(&self, applied: &UnitSet) -> bool {
        self.after.is_subset(applied) && self.before.is_disjoint(applied)
    }
}

/// The ordering store of every strategy: precedence constraints over *update
/// units* (§4.2 B), with a canonical order extractor.
///
/// ## One kind of clause
///
/// Every learnt fact is a clause `(after, before)` of disjoint unit sets,
/// deduplicated as a whole. The §4.2 B clause "some unit of `B` precedes
/// some unit of `A`" has `after = A`, `before = B`: an order violates it
/// exactly when some prefix of the order contains all of `A` and none of
/// `B`. Blocking a violating prefix set `S`
/// ([`block_prefix_set`](UnitOrdering::block_prefix_set)) is the clause with
/// `after = S`, `before` = the complement of `S`, which matches `S` alone —
/// sound for any granularity and backend, because applying a set of units
/// yields the same configuration in any order. So an order satisfies the
/// store exactly when none of its prefix sets `∅, {σ₀}, {σ₀, σ₁}, …, all` is
/// [`excluded`](UnitOrdering::excludes), and every question the store is
/// asked is a question about paths from `∅` to the full set through unit
/// sets no clause excludes. An empty side makes the root or the full set
/// excluded, so it correctly means "no order".
///
/// ## The lex-min proposal rule
///
/// [`propose`](UnitOrdering::propose) returns the **lexicographically
/// minimal** total order consistent with every learnt clause: a depth-first
/// walk from `∅` that visits children in unit-index order, skips excluded
/// sets, and remembers the sets it found no completion through. Ordered
/// children enumerate paths lexicographically and the memo cuts only sets
/// without a completion, so the first full path is the lex-min order.
/// Because every clause the search learns is *entailed* — it never excludes
/// a correct order — the order the CEGIS loop finally commits is the lex-min
/// **correct** order, independent of which entailed clauses happen to be in
/// the store.
///
/// Whether a set completes depends only on its *named* part, its
/// intersection with the union of the clauses' sides: a unit no clause
/// names never changes whether a set is excluded, and can always be
/// appended last. So the dead-set memo is keyed on the named part, and a
/// walk backs out of at most one chain of free units per dead named part:
/// exponential in the named units at worst. A blocked prefix set names
/// every unit, so a store that holds one keys its memo on whole sets.
///
/// ## Unsat cores
///
/// When no order is left the store deletion-minimizes its clauses, newest
/// first: a clause stays in the core only if the core becomes feasible
/// without it, each trial one fresh walk. The result, in learn order, is a
/// *minimal* conflicting set — dropping any single member makes it
/// feasible.
#[derive(Debug)]
pub struct UnitOrdering {
    n: usize,
    /// Every distinct learnt clause, in learn order.
    rows: Vec<Clause>,
    /// Minimal conflicting clause set, populated when
    /// [`UnitOrdering::propose`] proves infeasibility.
    core: Vec<Clause>,
    decisions: u64,
    conflicts: u64,
}

impl UnitOrdering {
    /// Creates an empty store over `n` units.
    pub fn new(n: usize) -> Self {
        UnitOrdering {
            n,
            rows: Vec::new(),
            core: Vec::new(),
            decisions: 0,
            conflicts: 0,
        }
    }

    /// Effort counters of the store's walks.
    pub fn solver_stats(&self) -> OrderingStats {
        OrderingStats {
            decisions: self.decisions,
            conflicts: self.conflicts,
            clauses: self.rows.len(),
            vars: self.n,
        }
    }

    /// Returns the *lexicographically minimal* total order consistent with
    /// every clause learnt so far (see the type-level docs). Returns `None`
    /// when no simple order of the units exists, in which case the store
    /// holds the minimal conflicting clause set.
    pub fn propose(&mut self) -> Option<Vec<usize>> {
        let rows: Vec<&Clause> = self.rows.iter().collect();
        let order = lex_first(self.n, &rows, &mut self.decisions);
        if order.is_none() {
            self.conflicts += 1;
            self.core = self.minimal_core();
        }
        order
    }

    /// Deletion-minimizes the (infeasible) clause list, newest clause first:
    /// a clause is dropped whenever the clauses left stay infeasible without
    /// it. Every kept clause was needed by a superset of the final core, so
    /// the core is minimal.
    fn minimal_core(&mut self) -> Vec<Clause> {
        let mut core: Vec<&Clause> = self.rows.iter().collect();
        for dropped in (0..core.len()).rev() {
            let row = core.remove(dropped);
            if lex_first(self.n, &core, &mut self.decisions).is_some() {
                core.insert(dropped, row);
            } else {
                self.conflicts += 1;
            }
        }
        core.into_iter().cloned().collect()
    }

    /// The minimal conflicting set of learnt clauses once
    /// [`UnitOrdering::propose`] has returned `None` (dropping any single
    /// member makes the remainder satisfiable); empty before that.
    pub(crate) fn infeasibility_core(&self) -> &[Clause] {
        &self.core
    }

    /// Learns that the unit set `applied` must never be exactly the units of
    /// a prefix: some unit outside the set has to precede some unit inside
    /// it. Sound whenever the configuration produced by applying `applied`
    /// (in any order — unit applications commute) violates the
    /// specification. Returns `false` if the clause was already known.
    pub fn block_prefix_set(&mut self, applied: &UnitSet) -> bool {
        let before = UnitSet::of(self.n, (0..self.n).filter(|&u| !applied.contains(u)));
        self.learn(Clause {
            before,
            after: applied.clone(),
        })
    }

    /// Learns the §4.2 B constraint: some unit of `before_units` must precede
    /// some unit of `after_units`. Returns `false` if the clause was already
    /// known.
    ///
    /// # Panics
    ///
    /// If the sides share a unit. The store holds only clauses that are one
    /// prefix-set test, and a clause with a shared unit in general is not:
    /// "1 or 2 before 0 or 1" holds in every order of three units but
    /// `[0, 1, 2]`.
    pub fn require_some_before(&mut self, before_units: &[usize], after_units: &[usize]) -> bool {
        let mask = |units: &[usize]| UnitSet::of(self.n, units.iter().copied());
        let clause = Clause {
            before: mask(before_units),
            after: mask(after_units),
        };
        assert!(
            clause.after.is_disjoint(&clause.before),
            "a clause's sides overlap"
        );
        self.learn(clause)
    }

    /// Adds `clause` unless it is already known.
    fn learn(&mut self, clause: Clause) -> bool {
        let known = self.rows.contains(&clause);
        if !known {
            self.rows.push(clause);
        }
        !known
    }

    /// The wrong-set `W` of §4.1, read off the learnt clauses: `true` when
    /// the configuration with exactly the units of `applied` applied is ruled
    /// out by some counterexample already seen — every `after` unit of the
    /// clause applied and no `before` unit, which is the updated /
    /// not-updated split of the trace the clause was learnt from, so the same
    /// trace exists in this configuration too.
    pub fn excludes(&self, applied: &UnitSet) -> bool {
        self.rows.iter().any(|row| row.excludes(applied))
    }

    /// Learns the §4.2 B constraint of a counterexample `trace` observed in
    /// the configuration with exactly the units of `applied` applied: some
    /// unit of a not-yet-updated trace switch must precede some unit of an
    /// updated one. `unit_of` is the plan's switch → unit index (one unit per
    /// switch); trace switches without a unit never update, so they can be
    /// "updated before" nothing and are left out. Returns `false`, learning
    /// nothing, when either side comes out empty (the trace does not depend
    /// on the order) or the clause was already known.
    ///
    /// A search run's one refutation site goes through here, so a trace
    /// means the same clause to both strategies.
    pub(crate) fn learn_counterexample(
        &mut self,
        trace: &[SwitchId],
        applied: &UnitSet,
        unit_of: &HashMap<SwitchId, usize>,
    ) -> bool {
        let (mut before, mut after) = (Vec::new(), Vec::new());
        for &unit in trace.iter().filter_map(|switch| unit_of.get(switch)) {
            if applied.contains(unit) {
                after.push(unit);
            } else {
                before.push(unit);
            }
        }
        !before.is_empty() && !after.is_empty() && self.require_some_before(&before, &after)
    }
}

/// The lex-first path from `∅` to the full set of `0..n` through unit sets
/// no clause of `rows` excludes — the lex-min order satisfying `rows` — or
/// `None` when there is none. Adds to `backed_out` every set the walk
/// entered and then left without a completion.
fn lex_first(n: usize, rows: &[&Clause], backed_out: &mut u64) -> Option<Vec<usize>> {
    let excluded = |applied: &UnitSet| rows.iter().any(|row| row.excludes(applied));
    let mut named = UnitSet::new(n);
    for row in rows {
        named.union_with(&row.after);
        named.union_with(&row.before);
    }
    // Sets found to have no completion, keyed on their named part.
    let mut dead: HashSet<UnitSet> = HashSet::new();
    let mut applied = UnitSet::new(n);
    let mut order = Vec::with_capacity(n);
    if excluded(&applied) {
        return None;
    }
    // The smallest unit still to try as the next step from `applied`.
    let mut next = 0;
    while order.len() < n {
        let step = (next..n).find(|&unit| {
            if applied.contains(unit) {
                return false;
            }
            applied.insert(unit);
            let open = !excluded(&applied)
                && (dead.is_empty() || !dead.contains(&applied.intersection(&named)));
            applied.remove(unit);
            open
        });
        if let Some(unit) = step {
            applied.insert(unit);
            order.push(unit);
            next = 0;
        } else {
            // `applied` has no completion: back out of it.
            let last = order.pop()?;
            *backed_out += 1;
            dead.insert(applied.intersection(&named));
            applied.remove(last);
            next = last + 1;
        }
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A learnt fact as a test states it, fed to the store through the
    /// public entry point that produces it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum LearntConstraint {
        /// Some unit of `before` must be applied before some unit of `after`.
        SomeBefore {
            before: Vec<usize>,
            after: Vec<usize>,
        },
        /// The units of `applied` must not be exactly the units of a prefix.
        PrefixSet { applied: UnitSet },
    }

    impl LearntConstraint {
        /// A store clause read back as the precedence constraint it is.
        fn of_clause(clause: &Clause) -> Self {
            LearntConstraint::SomeBefore {
                before: clause.before.iter().collect(),
                after: clause.after.iter().collect(),
            }
        }
    }

    fn sw(n: u32) -> SwitchId {
        SwitchId(n)
    }

    // ---- the wrong-set W, read off the store (§4.1) ---------------------------

    /// The wrong-set as it was kept before the store answered for it: one
    /// formula per counterexample, over switches. The reference `excludes`
    /// is compared against.
    #[derive(Default)]
    struct FormulaListReference {
        /// `(updated, not_updated)` trace switches per distinct formula.
        formulas: Vec<(BTreeSet<SwitchId>, BTreeSet<SwitchId>)>,
    }

    impl FormulaListReference {
        fn learn(&mut self, cex_switches: &[SwitchId], updated: &BTreeSet<SwitchId>) {
            let formula = (cex_switches.iter().copied()).partition(|sw| updated.contains(sw));
            if !self.formulas.contains(&formula) {
                self.formulas.push(formula);
            }
        }

        fn excludes(&self, updated: &BTreeSet<SwitchId>) -> bool {
            self.formulas.iter().any(|(on, off)| {
                on.iter().all(|sw| updated.contains(sw))
                    && off.iter().all(|sw| !updated.contains(sw))
            })
        }
    }

    /// Units `0..n` update switches `1..=n`: unit `i` is switch `i + 1`.
    fn one_unit_per_switch(n: usize) -> HashMap<SwitchId, usize> {
        (0..n).map(|i| (sw(i as u32 + 1), i)).collect()
    }

    #[test]
    fn excludes_matches_configurations_that_agree_with_the_counterexample() {
        let unit_of = one_unit_per_switch(8);
        let mut store = UnitOrdering::new(8);
        // Counterexample visited A1 (updated) and C2 (not updated), as in the
        // paper's red/green example.
        assert!(store.learn_counterexample(&[sw(1), sw(2)], &UnitSet::of(8, [0]), &unit_of));
        // Any configuration with s1 updated and s2 not updated is excluded...
        assert!(store.excludes(&UnitSet::of(8, [0])));
        assert!(store.excludes(&UnitSet::of(8, [0, 6])));
        // ...but once s2 is updated (or s1 is not), it no longer matches.
        assert!(!store.excludes(&UnitSet::of(8, [0, 1])));
        assert!(!store.excludes(&UnitSet::new(8)));
    }

    #[test]
    fn a_repeated_counterexample_is_one_wrong_set_entry() {
        let unit_of = one_unit_per_switch(4);
        let mut store = UnitOrdering::new(4);
        let applied = UnitSet::of(4, [0]);
        assert!(store.learn_counterexample(&[sw(1), sw(2)], &applied, &unit_of));
        assert!(!store.learn_counterexample(&[sw(2), sw(1)], &applied, &unit_of));
        assert_eq!(store.rows.len(), 1);
    }

    proptest! {
        /// `excludes` is `W`: over every unit set of a small universe, the
        /// store answers what the per-counterexample formula list answered,
        /// for counterexamples whose traces also cross switches that never
        /// update (switch 0 here).
        #[test]
        fn excludes_is_the_wrong_set_of_the_learnt_counterexamples(
            (n, cexes) in (2usize..=8).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec(
                    (proptest::collection::vec(0..=n as u32, 1..6), 0u32..1 << n),
                    0..6,
                ),
            ))
        ) {
            let unit_of = one_unit_per_switch(n);
            let set_of = |bits: u32| UnitSet::of(n, (0..n).filter(|u| bits >> u & 1 == 1));
            let switches_of = |bits: u32| -> BTreeSet<SwitchId> {
                set_of(bits).iter().map(|u| sw(u as u32 + 1)).collect()
            };
            let mut store = UnitOrdering::new(n);
            let mut reference = FormulaListReference::default();
            for (trace, observed_at) in &cexes {
                let trace: Vec<SwitchId> = trace.iter().map(|&s| sw(s)).collect();
                // A trace all of whose updating switches are on one side
                // exists in the initial or final configuration, which the
                // entry checks accepted: the search never sees one.
                let on = trace.iter().filter_map(|s| unit_of.get(s));
                let (updated, pending): (Vec<usize>, Vec<usize>) =
                    on.partition(|&&u| observed_at >> u & 1 == 1);
                if updated.is_empty() || pending.is_empty() {
                    continue;
                }
                store.learn_counterexample(&trace, &set_of(*observed_at), &unit_of);
                reference.learn(&trace, &switches_of(*observed_at));
            }
            for bits in 0u32..1 << n {
                prop_assert!(
                    store.excludes(&set_of(bits)) == reference.excludes(&switches_of(bits)),
                    "unit set {bits:#b}"
                );
            }
        }
    }

    // ---- unit ordering (§4.2 B) -----------------------------------------------

    #[test]
    fn unconstrained_proposal_is_the_identity_order() {
        let mut store = UnitOrdering::new(4);
        // The lex-min order of an empty store is the identity, and proposing
        // twice without learning is stable.
        let first = store.propose().expect("no constraints");
        let second = store.propose().expect("still satisfiable");
        assert_eq!(first, vec![0, 1, 2, 3]);
        assert_eq!(first, second);
        assert_eq!(store.solver_stats().clauses, 0);
    }

    #[test]
    fn require_some_before_steers_the_proposal() {
        let mut store = UnitOrdering::new(3);
        assert!(store.require_some_before(&[2], &[0]));
        assert!(store.require_some_before(&[2], &[1]));
        let order = store.propose().expect("satisfiable");
        let pos = |u: usize| order.iter().position(|&x| x == u).unwrap();
        assert!(pos(2) < pos(0));
        assert!(pos(2) < pos(1));
    }

    #[test]
    fn contradictory_unit_constraints_are_unsat() {
        let mut store = UnitOrdering::new(2);
        assert!(store.require_some_before(&[0], &[1]));
        assert!(store.require_some_before(&[1], &[0]));
        assert!(store.propose().is_none());
    }

    #[test]
    fn block_prefix_set_excludes_the_prefix() {
        let mut store = UnitOrdering::new(3);
        // Forbid {0} as a prefix set: unit 0 must not come first.
        assert!(store.block_prefix_set(&UnitSet::of(3, [0])));
        // Blocking each proposed first element in turn must never re-propose
        // a blocked one, and exhausts the three alternatives.
        let mut blocked = 1;
        while let Some(order) = store.propose() {
            assert_ne!(order[0], 0);
            assert!(
                store.block_prefix_set(&UnitSet::of(3, [order[0]])),
                "re-proposed an already blocked prefix"
            );
            blocked += 1;
            assert!(blocked <= 3, "more first elements than units");
        }
        assert_eq!(blocked, 3);
    }

    #[test]
    fn blocking_all_prefixes_proves_infeasibility() {
        let mut store = UnitOrdering::new(2);
        assert!(store.block_prefix_set(&UnitSet::of(2, [0])));
        assert!(store.block_prefix_set(&UnitSet::of(2, [1])));
        assert!(store.propose().is_none());
    }

    #[test]
    fn a_blocked_prefix_set_is_the_clause_of_its_complement() {
        // Blocking {0, 2} of four units is "1 or 3 before 0 or 2": whichever
        // is learnt first, the other is already known.
        let (inside, outside) = ([0, 2], [1, 3]);
        let mut blocked_first = UnitOrdering::new(4);
        assert!(blocked_first.block_prefix_set(&UnitSet::of(4, inside)));
        assert!(!blocked_first.require_some_before(&outside, &inside));
        let mut clause_first = UnitOrdering::new(4);
        assert!(clause_first.require_some_before(&outside, &inside));
        assert!(!clause_first.block_prefix_set(&UnitSet::of(4, inside)));
        assert_eq!(blocked_first.rows, clause_first.rows);
    }

    #[test]
    fn counterexample_traces_become_clauses_over_updating_switches() {
        // Units 0, 1, 2 update switches 4, 5, 6; switch 9 never updates.
        let unit_of: HashMap<SwitchId, usize> = [(sw(4), 0), (sw(5), 1), (sw(6), 2)].into();
        let updated = UnitSet::of(3, [1]);
        let mut store = UnitOrdering::new(3);
        assert!(store.learn_counterexample(&[sw(9), sw(5), sw(6)], &updated, &unit_of));
        assert_eq!(
            store.rows,
            vec![Clause {
                before: UnitSet::of(3, [2]),
                after: UnitSet::of(3, [1]),
            }]
        );
        // The same trace again is the same clause.
        assert!(!store.learn_counterexample(&[sw(6), sw(5)], &updated, &unit_of));
        // A side left empty by the mapping carries no ordering information:
        // nothing updated on the trace, nothing left to update on it, or the
        // only other switch on it has no unit.
        assert!(!store.learn_counterexample(&[sw(4), sw(6)], &updated, &unit_of));
        assert!(!store.learn_counterexample(&[sw(5)], &updated, &unit_of));
        assert!(!store.learn_counterexample(&[sw(9), sw(5)], &updated, &unit_of));
        assert_eq!(store.solver_stats().clauses, 1);
        assert_eq!(store.propose(), Some(vec![0, 2, 1]));
    }

    #[test]
    fn learnt_clauses_are_deduplicated() {
        let mut store = UnitOrdering::new(3);
        assert!(store.require_some_before(&[0], &[1, 2]));
        assert!(!store.require_some_before(&[0], &[1, 2]));
        assert_eq!(store.solver_stats().clauses, 1);
    }

    #[test]
    fn proposals_are_lexicographically_minimal() {
        let mut store = UnitOrdering::new(3);
        // Only constraint: unit 2 before unit 0. The lex-min consistent
        // order is [1, 2, 0] (0 cannot lead; 1 can; then 0 still cannot
        // precede 2).
        assert!(store.require_some_before(&[2], &[0]));
        assert_eq!(store.propose(), Some(vec![1, 2, 0]));
    }

    #[test]
    fn entailed_clauses_do_not_change_the_proposal() {
        // Adding clauses entailed by the existing ones must leave the lex-min
        // proposal untouched.
        let mut plain = UnitOrdering::new(4);
        assert!(plain.require_some_before(&[3], &[0]));
        let mut preloaded = UnitOrdering::new(4);
        assert!(preloaded.require_some_before(&[3], &[0]));
        // Entailed: weaker disjunction of the same constraint, and a prefix
        // block already excluded by `before(3, 0)`.
        assert!(preloaded.require_some_before(&[3], &[0, 1]));
        assert!(preloaded.block_prefix_set(&UnitSet::of(4, [0])));
        assert_eq!(plain.propose(), preloaded.propose());
        assert_eq!(plain.propose(), Some(vec![1, 2, 3, 0]));
    }

    #[test]
    fn unit_infeasibility_core_names_only_the_conflict() {
        let mut store = UnitOrdering::new(4);
        // Irrelevant constraint over units 2 and 3...
        assert!(store.require_some_before(&[2], &[3]));
        // ...and a contradiction over units 0 and 1.
        assert!(store.require_some_before(&[0], &[1]));
        assert!(store.require_some_before(&[1], &[0]));
        assert!(store.propose().is_none());
        let core = store.infeasibility_core();
        assert_eq!(core.len(), 2);
        for clause in core {
            let mentioned: BTreeSet<usize> =
                clause.before.iter().chain(clause.after.iter()).collect();
            assert_eq!(mentioned, [0, 1].into_iter().collect::<BTreeSet<_>>());
        }
    }

    /// Brute-force reference for [`UnitOrdering::propose`]: the
    /// lexicographically smallest permutation of `0..n` satisfying every
    /// learnt constraint, or `None`.
    fn brute_force_lex_min(n: usize, learnt: &[LearntConstraint]) -> Option<Vec<usize>> {
        fn permutations(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![Vec::new()];
            }
            let mut all = Vec::new();
            for rest in permutations(n - 1) {
                for pos in 0..=rest.len() {
                    let mut p: Vec<usize> = rest.iter().map(|&x| x + 1).collect();
                    p.insert(pos, 0);
                    all.push(p);
                }
            }
            all
        }
        let mut all = permutations(n);
        all.sort_unstable();
        all.into_iter().find(|order| {
            let pos = |u: usize| order.iter().position(|&x| x == u).unwrap();
            learnt.iter().all(|c| match c {
                LearntConstraint::SomeBefore { before, after } => before
                    .iter()
                    .any(|&b| after.iter().any(|&a| b != a && pos(b) < pos(a))),
                LearntConstraint::PrefixSet { applied } => {
                    UnitSet::of(n, order[..applied.len()].iter().copied()) != *applied
                }
            })
        })
    }

    /// Feeds `constraint` to the store through the public entry point that
    /// produces it. Returns whether the clause was new.
    fn learn(store: &mut UnitOrdering, constraint: &LearntConstraint) -> bool {
        match constraint {
            LearntConstraint::SomeBefore { before, after } => {
                store.require_some_before(before, after)
            }
            LearntConstraint::PrefixSet { applied } => store.block_prefix_set(applied),
        }
    }

    #[test]
    fn proposals_match_the_brute_force_lex_min_reference() {
        // Exercise the walk against an exhaustive reference over several
        // constraint mixes, including cycles that only transitivity refutes.
        let scenarios: Vec<Vec<LearntConstraint>> = vec![
            vec![],
            vec![LearntConstraint::SomeBefore {
                before: vec![4],
                after: vec![0],
            }],
            vec![
                LearntConstraint::SomeBefore {
                    before: vec![3, 4],
                    after: vec![0, 1],
                },
                LearntConstraint::PrefixSet {
                    applied: UnitSet::of(5, [1, 2]),
                },
                LearntConstraint::SomeBefore {
                    before: vec![2],
                    after: vec![4],
                },
            ],
            vec![
                LearntConstraint::SomeBefore {
                    before: vec![1],
                    after: vec![0],
                },
                LearntConstraint::SomeBefore {
                    before: vec![2],
                    after: vec![1],
                },
                LearntConstraint::SomeBefore {
                    before: vec![3],
                    after: vec![2],
                },
                LearntConstraint::PrefixSet {
                    applied: UnitSet::of(5, [3, 4]),
                },
            ],
            // "2 or 3 before 1" and "1 before 2": satisfiable via 3 before 1.
            vec![
                LearntConstraint::SomeBefore {
                    before: vec![2, 3],
                    after: vec![1],
                },
                LearntConstraint::SomeBefore {
                    before: vec![1],
                    after: vec![2],
                },
            ],
            // Unsatisfiable: a precedence 2-cycle.
            vec![
                LearntConstraint::SomeBefore {
                    before: vec![0],
                    after: vec![1],
                },
                LearntConstraint::SomeBefore {
                    before: vec![1],
                    after: vec![0],
                },
            ],
            // Unsatisfiable only through transitivity: a 3-cycle.
            vec![
                LearntConstraint::SomeBefore {
                    before: vec![2],
                    after: vec![1],
                },
                LearntConstraint::SomeBefore {
                    before: vec![3],
                    after: vec![2],
                },
                LearntConstraint::SomeBefore {
                    before: vec![1],
                    after: vec![3],
                },
            ],
        ];
        for learnt in &scenarios {
            let n = 5;
            let mut store = UnitOrdering::new(n);
            for c in learnt {
                learn(&mut store, c);
            }
            let expected = brute_force_lex_min(n, learnt);
            assert_eq!(store.propose(), expected, "constraints: {learnt:?}");
            // Both unsatisfiable scenarios are cycles: every clause is needed.
            let core_len = if expected.is_none() { learnt.len() } else { 0 };
            assert_eq!(
                store.infeasibility_core().len(),
                core_len,
                "constraints: {learnt:?}"
            );
        }
    }

    #[test]
    fn every_proposal_is_a_permutation_and_loop_terminates() {
        // Block whatever is proposed; the store must enumerate distinct
        // permutations and eventually go unsatisfiable (after at most 3! = 6
        // proposals).
        let mut store = UnitOrdering::new(3);
        let mut seen = HashSet::new();
        let mut rounds = 0;
        while let Some(order) = store.propose() {
            rounds += 1;
            assert!(rounds <= 6, "more proposals than permutations");
            assert!(seen.insert(order.clone()), "re-proposed {order:?}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            // Refute the exact order: block its first two prefix sets and the
            // full set minus the last element... blocking the 2-element
            // prefix alone kills 2 of the 6 orders per round.
            store.block_prefix_set(&UnitSet::of(3, order[..2].iter().copied()));
        }
        assert!(rounds >= 3, "blocked too aggressively: {rounds}");
    }

    #[test]
    fn pinning_chain_stays_out_of_the_solver() {
        // The benchmark's layer replay: pin a fixed order one adjacent pair
        // at a time, proposing after each pin. A set the chain leaves open is
        // closed under "predecessor in the chain", and every such set can be
        // extended, so no walk ever backs out of a set.
        let permutation = [
            17, 3, 22, 8, 0, 13, 19, 5, 11, 23, 1, 15, 7, 20, 9, 2, 18, 12, 4, 21, 6, 14, 10, 16,
        ];
        let mut store = UnitOrdering::new(permutation.len());
        let mut proposal = store.propose();
        for pair in permutation.windows(2) {
            assert!(store.require_some_before(&pair[..1], &pair[1..]));
            proposal = store.propose();
        }
        assert_eq!(proposal.as_deref(), Some(&permutation[..]));
        assert_eq!(store.solver_stats().decisions, 0);
    }

    #[test]
    fn a_two_cycle_over_forty_units_is_refuted_without_enumerating_the_free_units() {
        // Rows ({0}, {1}) and ({1}, {0}) exclude every set holding exactly
        // one of units 0 and 1, so no order exists. No row names the other
        // 38 units: a memo keyed on whole sets would enter every subset of
        // them, one keyed on the named part enters each chain of them once.
        let n = 40;
        let mut store = UnitOrdering::new(n);
        assert!(store.require_some_before(&[1], &[0]));
        assert!(store.require_some_before(&[0], &[1]));
        assert_eq!(store.propose(), None);
        assert_eq!(store.infeasibility_core().len(), 2);
        let backed_out = store.solver_stats().decisions;
        assert!(
            backed_out <= (n * n) as u64,
            "backed out of {backed_out} sets"
        );
    }

    #[test]
    #[should_panic(expected = "a clause's sides overlap")]
    fn a_clause_whose_sides_overlap_is_refused() {
        // Meant as "0 before 1"; the store takes it only in that form.
        UnitOrdering::new(2).require_some_before(&[0, 1], &[1]);
    }

    // ---- stateful lex-min property test ------------------------------------

    /// One step of a random session against a [`UnitOrdering`].
    #[derive(Debug, Clone)]
    enum Op {
        Learn(LearntConstraint),
        /// Re-issue the constraint learnt `.0` steps ago (a duplicate).
        Repeat(usize),
        /// Re-issue it with unit `.1` added to a side the other side does not
        /// hold — a clause the original entails.
        Weaken(usize, usize),
        /// Block the last proposal's prefix set of this length, as the CEGIS
        /// loop does after a failed verification.
        Refute(usize),
        Propose,
    }

    fn arb_constraint(n: usize) -> BoxedStrategy<LearntConstraint> {
        let units = || proptest::collection::vec(0..n, 1..4);
        prop_oneof![
            // The store's sides are disjoint; an `after` left empty is the
            // clause no order satisfies.
            (units(), units()).prop_map(|(before, after)| {
                let after = after.into_iter().filter(|u| !before.contains(u)).collect();
                LearntConstraint::SomeBefore { before, after }
            }),
            proptest::collection::vec(0..n, 1..n).prop_map(move |applied| {
                LearntConstraint::PrefixSet {
                    applied: UnitSet::of(n, applied),
                }
            }),
        ]
        .boxed()
    }

    fn arb_op(n: usize) -> BoxedStrategy<Op> {
        prop_oneof![
            arb_constraint(n).prop_map(Op::Learn),
            arb_constraint(n).prop_map(Op::Learn),
            (0usize..8).prop_map(Op::Repeat),
            (0usize..8, 0..n).prop_map(|(back, unit)| Op::Weaken(back, unit)),
            (1..n).prop_map(Op::Refute),
            (1..n).prop_map(Op::Refute),
            Just(Op::Propose),
            Just(Op::Propose),
        ]
        .boxed()
    }

    /// A session: the unit count, constraints pre-loaded before the first
    /// proposal, and the interleaving that follows.
    fn arb_session() -> BoxedStrategy<(usize, Vec<LearntConstraint>, Vec<Op>)> {
        (2usize..7).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(arb_constraint(n), 0..5),
                proptest::collection::vec(arb_op(n), 1..24),
            )
        })
    }

    proptest! {
        /// Every proposal of a long-lived store — under constraints learnt
        /// in any interleaving — is the
        /// brute-force lex-min order of everything learnt so far, and the
        /// core reported at the end is a minimal conflicting set.
        #[test]
        fn stateful_proposals_match_the_brute_force_reference(
            (n, preload, ops) in arb_session()
        ) {
            let mut store = UnitOrdering::new(n);
            let mut learnt: Vec<LearntConstraint> = Vec::new();
            let mut last: Option<Vec<usize>> = None;
            // The reference holds duplicates too; they change nothing.
            let issue = |store: &mut UnitOrdering,
                             learnt: &mut Vec<LearntConstraint>,
                             constraint: LearntConstraint| {
                let fresh = learn(store, &constraint);
                learnt.push(constraint);
                fresh
            };
            for constraint in preload {
                issue(&mut store, &mut learnt, constraint);
            }
            // The random interleaving, then refute every proposal until the
            // store goes unsatisfiable (each refutation excludes at least
            // the order it was learnt from, so this terminates).
            let drive = (0..).flat_map(|round| [Op::Propose, Op::Refute(1 + round % (n - 1))]);
            for op in ops.into_iter().chain(drive) {
                match op {
                    Op::Learn(constraint) => {
                        issue(&mut store, &mut learnt, constraint);
                    }
                    Op::Repeat(back) => {
                        if let Some(constraint) = learnt.iter().rev().nth(back).cloned() {
                            prop_assert!(!issue(&mut store, &mut learnt, constraint));
                        }
                    }
                    Op::Weaken(back, unit) => {
                        if let Some(mut constraint) = learnt.iter().rev().nth(back).cloned() {
                            if let LearntConstraint::SomeBefore { before, after } =
                                &mut constraint
                            {
                                if !after.contains(&unit) {
                                    before.push(unit);
                                }
                                if !before.contains(&unit) {
                                    after.push(unit);
                                }
                                issue(&mut store, &mut learnt, constraint);
                            }
                        }
                    }
                    Op::Refute(len) => {
                        if let Some(order) = &last {
                            let applied = UnitSet::of(n, order[..len].iter().copied());
                            let refutation = LearntConstraint::PrefixSet { applied };
                            issue(&mut store, &mut learnt, refutation);
                        }
                    }
                    Op::Propose => {
                        last = store.propose();
                        prop_assert_eq!(&last, &brute_force_lex_min(n, &learnt));
                        if last.is_none() {
                            break;
                        }
                    }
                }
            }
            let core: Vec<LearntConstraint> =
                (store.infeasibility_core().iter()).map(LearntConstraint::of_clause).collect();
            prop_assert!(!core.is_empty(), "no core after unsat");
            prop_assert_eq!(brute_force_lex_min(n, &core), None);
            for dropped in 0..core.len() {
                let mut rest = core.clone();
                rest.remove(dropped);
                prop_assert!(
                    brute_force_lex_min(n, &rest).is_some(),
                    "core {core:?} stays unsatisfiable without member {dropped}"
                );
            }
        }
    }
}
