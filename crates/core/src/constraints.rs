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
//! The visited set `V` needs no type of its own: it is a
//! `HashSet<UnitSet>` in the DFS.

use std::collections::{HashMap, HashSet};

use netupd_model::SwitchId;
use netupd_sat::{Lit, SolveResult, Solver, SolverStats, Var};

use crate::search::SynthStats;
use crate::units::UnitSet;

/// Provenance of one learnt [`UnitOrdering`] clause, in unit indices.
///
/// Kept alongside the selector variable guarding the clause, so that an
/// infeasibility verdict can be explained as the minimal conflicting set of
/// counterexample-level facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearntConstraint {
    /// Some unit of `before` must be applied before some unit of `after`
    /// (the §4.2 B counterexample constraint).
    SomeBefore {
        /// Units not yet applied when the counterexample was observed.
        before: Vec<usize>,
        /// Units already applied when the counterexample was observed.
        after: Vec<usize>,
    },
    /// The units of `applied` must not be exactly the units of a prefix of
    /// the order.
    PrefixSet {
        /// The violating prefix set.
        applied: UnitSet,
    },
    /// This exact total order is excluded.
    Order {
        /// The excluded order.
        order: Vec<usize>,
    },
}

impl LearntConstraint {
    /// Evaluates this constraint's clause under a placement: `position[u]`
    /// is where unit `u` sits, `usize::MAX` meaning "after every placed unit,
    /// order unknown" (placed units fill positions `0..m`). The literal
    /// "`b` before `a`" is decided false exactly when
    /// `position[b] > position[a]`. Returns whether some literal is *not*
    /// decided false — for a full placement, whether the order satisfies
    /// the constraint.
    fn is_open(&self, position: &[usize]) -> bool {
        let may_precede = |b: usize, a: usize| b != a && position[b] <= position[a];
        match self {
            LearntConstraint::SomeBefore { before, after } => before
                .iter()
                .any(|&b| after.iter().any(|&a| may_precede(b, a))),
            // Some outside unit may precede the latest inside unit unless the
            // inside units fill exactly the first `applied.len()` positions.
            LearntConstraint::PrefixSet { applied } => {
                let inside = applied.len();
                inside < position.len() && applied.iter().any(|u| position[u] >= inside)
            }
            LearntConstraint::Order { order } => {
                order.windows(2).any(|pair| may_precede(pair[1], pair[0]))
            }
        }
    }
}

/// The position of every unit of `0..n` in `order`; `usize::MAX` for the
/// units `order` leaves out.
fn positions_in(n: usize, order: &[usize]) -> Vec<usize> {
    let mut position = vec![usize::MAX; n];
    for (at, &unit) in order.iter().enumerate() {
        position[unit] = at;
    }
    position
}

/// The position of every unit in the permutation `order`.
fn positions(order: &[usize]) -> Vec<usize> {
    positions_in(order.len(), order)
}

/// The ordering store of every strategy: precedence constraints over *update
/// units* (§4.2 B), with a canonical order extractor.
///
/// `before(i, j)` variables are allocated for every unit pair up front (one
/// variable per unordered pair — `before(j, i)` is its negation, so
/// antisymmetry and totality are free), transitivity axioms are
/// materialized *lazily* (see below), and
/// [`propose`](UnitOrdering::propose) extracts a concrete total order. The
/// SAT-guided strategy hands that order to the model checker; the DFS
/// strategy only needs to know that one exists — its early-termination
/// question "is any total order still consistent with the counterexamples?"
/// is `propose().is_none()`, answered from the kept previous order for as
/// long as no new clause refutes it. Failed verifications come back
/// through [`block_prefix_set`](UnitOrdering::block_prefix_set) (sound for
/// any granularity and backend: applying a set of units yields the same
/// configuration in any order, so a violating prefix *set* refutes every
/// order that realizes it) or the stronger
/// [`require_some_before`](UnitOrdering::require_some_before)
/// (the §4.2 B switch-set constraint, available when the backend produced a
/// counterexample at switch granularity). Both clause forms exclude the
/// order they were learnt from, so the loop never re-proposes an order and
/// terminates; unsatisfiability proves no simple order exists.
///
/// ## The lex-min proposal rule
///
/// [`propose`](UnitOrdering::propose) does not return an arbitrary model:
/// it returns the **lexicographically minimal** total order consistent with
/// every learnt clause, built greedily (fix the smallest unit that can still
/// go first, then the smallest that can go second, ...).
/// Because every clause the CEGIS loop learns is *entailed* — it never
/// excludes a correct order — the order the loop finally commits is the
/// lex-min **correct** order, independent of which entailed clauses happen
/// to be in the store.
///
/// ## Answering fixing questions on concrete orders
///
/// "Can `candidate` go next after the fixed prefix?" is a question about
/// total orders, and the learnt clauses keep their provenance
/// ([`LearntConstraint`]), so most answers come from evaluating the clauses
/// against explicit (partial) orders with a position array. Each step gives
/// the verdict the solver would, so proposals do not change:
///
/// 1. **Warm start.** The store only gains clauses, so the new lex-min order
///    is ≥ the previous proposal. While the fixed prefix equals the previous
///    proposal's, every unit below the previous choice at this position was
///    infeasible under a subset of today's clauses and is skipped.
/// 2. **Direct refutation.** Under "prefix, then `candidate`, then the rest
///    in unknown order", the literal `before(b, a)` is false exactly when `a`
///    is placed and `b` is unplaced or placed later. A clause with every
///    literal false is the conflict the solver would reach while installing
///    the same assumptions.
/// 3. **Witness by completion.** A concrete total order satisfying every
///    learnt clause is a model of the eager encoding, so one that starts
///    with prefix-then-candidate proves the candidate feasible and becomes
///    the *witness*: its unit at each later position is feasible without a
///    question. Tried first is the witness with the candidate moved to the
///    front of its tail (the previous proposal while there is no witness);
///    if that closes a clause, a greedy retry places, position by position,
///    the first remaining unit that closes none.
///
/// Only a candidate neither refuted nor completed reaches the solver, which
/// stays the complete oracle and the source of the unsat core.
///
/// ## Lazy transitivity
///
/// The eager encoding needs two clauses per unordered triple — `2·C(n, 3)`,
/// nearly 30 000 clauses at 45 units — and every solve pays propagation over
/// all of them, even though the *learnt* constraint set is typically a few
/// dozen clauses.
/// Instead, the store solves over the learnt clauses alone and checks each
/// satisfying assignment for acyclicity: every pair variable is assigned, so
/// the model is a tournament, and a tournament is a total order exactly when
/// its score sequence is the permutation `0..n` — an `O(n²)` test. Cyclic
/// models get the two axioms of every violated triple added and the solve
/// repeats (`solve_acyclic`).
///
/// This is *verdict-equivalent* to the eager encoding, which is what the
/// lex-min argument above needs: an unsatisfiable answer under a subset of
/// the axioms is unsatisfiable under all of them, and a satisfiable answer
/// is only ever reported for an acyclic model, which is a genuine total
/// order. Since proposals are a pure function of the per-candidate
/// feasibility verdicts, the proposals (and every downstream CEGIS step)
/// are byte-identical to the eager encoding — only solver effort changes.
///
/// ## Selectors and unsat cores
///
/// Every learnt clause is guarded by a fresh selector variable (the order
/// axioms stay hard) and every solve assumes all selectors. When the clause
/// set goes unsatisfiable, the solver's assumption core — deletion-minimized
/// — names the minimal conflicting constraint set, readable through
/// [`infeasibility_core`](UnitOrdering::infeasibility_core) with full
/// [`LearntConstraint`] provenance.
#[derive(Debug)]
pub struct UnitOrdering {
    solver: Solver,
    n: usize,
    /// Variable for the pair `(i, j)` with `i < j`: positive polarity means
    /// unit `i` precedes unit `j`. Indexed by [`UnitOrdering::pair_index`].
    pair_vars: Vec<Var>,
    /// Canonicalized learnt clauses, for deduplication.
    seen: HashSet<Vec<Lit>>,
    /// Selector variable and provenance per learnt clause, in learn order.
    selectors: Vec<(Var, LearntConstraint)>,
    /// The `(after, before)` unit masks of every distinct `SomeBefore`
    /// clause: what [`UnitOrdering::excludes`] reads.
    wrong: Vec<(UnitSet, UnitSet)>,
    /// Minimal conflicting constraint set, populated when
    /// [`UnitOrdering::propose`] proves infeasibility.
    core: Option<Vec<LearntConstraint>>,
    /// Unordered triples `(i, j, k)` with `i < j < k` whose two transitivity
    /// axioms have been materialized (lazily, by
    /// [`UnitOrdering::solve_acyclic`]).
    axiom_triples: HashSet<(usize, usize, usize)>,
    /// The last order [`UnitOrdering::propose`] returned (the identity
    /// before the first): the lex-min order of a subset of today's clauses,
    /// which the next proposal warm-starts from.
    last_proposal: Vec<usize>,
    constraints: usize,
    proposals: usize,
}

impl UnitOrdering {
    /// Creates a store over `n` units, with all precedence variables in
    /// place. Transitivity axioms are *not* added here — they materialize
    /// lazily as `solve_acyclic` encounters cyclic models.
    /// The variable numbering is a pure function of `n`, which keeps every
    /// downstream model — and therefore every proposed order — deterministic.
    pub fn new(n: usize) -> Self {
        let mut solver = Solver::new();
        let pair_vars: Vec<Var> = (0..n * n.saturating_sub(1) / 2)
            .map(|_| solver.new_var())
            .collect();
        UnitOrdering {
            solver,
            n,
            pair_vars,
            seen: HashSet::new(),
            selectors: Vec::new(),
            wrong: Vec::new(),
            core: None,
            axiom_triples: HashSet::new(),
            last_proposal: (0..n).collect(),
            constraints: 0,
            proposals: 0,
        }
    }

    /// Number of *distinct* learnt constraint clauses.
    pub fn num_constraints(&self) -> usize {
        self.constraints
    }

    /// Number of [`propose`](UnitOrdering::propose) calls made (the
    /// SAT-guided strategy's CEGIS iteration count).
    pub fn proposals(&self) -> usize {
        self.proposals
    }

    /// Effort counters of the underlying solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Row-major upper triangle: row i starts after the first i rows,
        // which hold (n-1) + (n-2) + ... + (n-i) entries.
        i * (2 * self.n - i - 1) / 2 + (j - i - 1)
    }

    /// The literal asserting "unit `a` precedes unit `b`".
    fn before_lit(&self, a: usize, b: usize) -> Lit {
        debug_assert_ne!(a, b);
        if a < b {
            Lit::pos(self.pair_vars[self.pair_index(a, b)])
        } else {
            Lit::neg(self.pair_vars[self.pair_index(b, a)])
        }
    }

    /// Solves under `assumptions` with the transitivity axioms materialized
    /// lazily: a satisfying assignment whose precedence tournament is cyclic
    /// gets the axioms of every violated triple added and the solve repeats,
    /// so `Sat` is only ever reported for a genuine total order. The
    /// verdict is exactly the eager encoding's (see the type-level docs);
    /// termination is immediate from the finite axiom supply — every
    /// repair round adds at least one new triple.
    fn solve_acyclic(&mut self, assumptions: &[Lit]) -> SolveResult {
        loop {
            match self.solver.solve_with_assumptions(assumptions) {
                SolveResult::Unsat => return SolveResult::Unsat,
                SolveResult::Sat => {
                    if self.repair_model_cycles() == 0 {
                        return SolveResult::Sat;
                    }
                }
            }
        }
    }

    /// Checks the solver's current model for transitivity violations and
    /// materializes the axioms of every violated triple. Returns the number
    /// of triples repaired (zero means the model is a total order).
    ///
    /// The fast path is `O(n²)`: the model assigns every pair variable, so
    /// it is a tournament, and a tournament is transitive exactly when its
    /// score sequence is a permutation of `0..n`. Only a cyclic model pays
    /// the `O(n³)` violated-triple scan — and at most once per materialized
    /// triple over the store's whole lifetime.
    fn repair_model_cycles(&mut self) -> usize {
        let model = self.solver.model_snapshot();
        // The model decides every pair variable, so this is a tournament.
        let before: Vec<bool> = (0..self.n)
            .flat_map(|i| (i + 1..self.n).map(move |j| (i, j)))
            .map(|(i, j)| model.value(self.pair_vars[self.pair_index(i, j)]) == Some(true))
            .collect();
        let i_first = |idx: usize| before[idx];
        let mut score = vec![0usize; self.n];
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if i_first(self.pair_index(i, j)) {
                    score[i] += 1;
                } else {
                    score[j] += 1;
                }
            }
        }
        let mut seen_score = vec![false; self.n];
        if score
            .iter()
            .all(|&s| !std::mem::replace(&mut seen_score[s], true))
        {
            return 0;
        }
        let mut repaired = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                for k in (j + 1)..self.n {
                    let (ij, jk, ik) = (
                        i_first(self.pair_index(i, j)),
                        i_first(self.pair_index(j, k)),
                        i_first(self.pair_index(i, k)),
                    );
                    // The two cyclic assignments: i<j<k<i and its reverse.
                    if (ij && jk && !ik) || (!ij && !jk && ik) {
                        let ij = self.before_lit(i, j);
                        let jk = self.before_lit(j, k);
                        let ik = self.before_lit(i, k);
                        self.solver.add_clause([ij.negated(), jk.negated(), ik]);
                        self.solver.add_clause([ij, jk, ik.negated()]);
                        let fresh = self.axiom_triples.insert((i, j, k));
                        debug_assert!(fresh, "materialized axioms cannot be violated");
                        repaired += 1;
                    }
                }
            }
        }
        debug_assert!(
            repaired > 0,
            "non-permutation score sequence implies a cycle"
        );
        repaired
    }

    /// Returns the *lexicographically minimal* total order consistent with
    /// every constraint learnt so far (see the type-level docs for why
    /// lex-min, and for the concrete-order steps that answer most fixing
    /// questions without the solver). Returns `None` when the constraints
    /// are unsatisfiable — no simple order of the units exists — in which
    /// case [`UnitOrdering::infeasibility_core`] holds the minimal
    /// conflicting constraint set.
    pub fn propose(&mut self) -> Option<Vec<usize>> {
        self.proposals += 1;
        let previous = self.last_proposal.clone();
        // A total order that satisfies every learnt constraint and starts
        // with `order`. The previous proposal is one if no clause learnt
        // since excludes it.
        let mut witness = self.admits(&positions(&previous)).then(|| previous.clone());
        let mut order = Vec::with_capacity(self.n);
        // Position of every fixed unit; `usize::MAX` while unplaced.
        let mut placed = vec![usize::MAX; self.n];
        // Warm start: the store only gains clauses, so while `order` is a
        // prefix of the previous (lex-min) proposal, every unit below the
        // previous proposal's choice was already proven unable to go next.
        let mut on_previous = true;
        while order.len() < self.n {
            let at = order.len();
            let floor = if on_previous { previous[at] } else { 0 };
            let chosen = (floor..self.n)
                .filter(|&unit| placed[unit] == usize::MAX)
                .find(|&candidate| {
                    let template = match &witness {
                        Some(witness) if witness[at] == candidate => return true,
                        Some(witness) => witness,
                        None => &previous,
                    };
                    let found = self.witness_through(&order, candidate, template);
                    let feasible = found.is_some();
                    if feasible {
                        witness = found;
                    }
                    feasible
                });
            let Some(candidate) = chosen else {
                // No unit can go next: the clause set is unsatisfiable
                // (reachable only before any position is fixed — a fixed
                // prefix always has a feasible next unit, the witness's).
                // Solve over the selectors alone so the unsat core ranges
                // over whole constraints.
                let selectors = self.selector_lits();
                return match self.solve_acyclic(&selectors) {
                    SolveResult::Sat => {
                        debug_assert!(false, "greedy fixing failed on a satisfiable store");
                        Some(self.decode())
                    }
                    SolveResult::Unsat => {
                        self.extract_core();
                        None
                    }
                };
            };
            on_previous &= candidate == floor;
            placed[candidate] = at;
            order.push(candidate);
        }
        self.last_proposal.clone_from(&order);
        Some(order)
    }

    /// Decides whether some total order consistent with every learnt
    /// constraint starts with `order` followed by `candidate`, and returns
    /// one if so. `template` (a permutation) suggests how to order the rest.
    fn witness_through(
        &mut self,
        order: &[usize],
        candidate: usize,
        template: &[usize],
    ) -> Option<Vec<usize>> {
        let head: Vec<usize> = order.iter().copied().chain([candidate]).collect();
        let placed = positions_in(self.n, &head);
        // Direct refutation: a clause with every literal decided false by
        // "`order`, then `candidate`, then everything else" is the conflict
        // the solver would reach while installing the same assumptions.
        if !self.admits(&placed) {
            return None;
        }
        // A concrete order that satisfies every constraint is a model of the
        // eager encoding: the candidate is feasible, no solve.
        if let Some(found) = self.complete(&head, &placed, template) {
            return Some(found);
        }
        // Inconclusive: ask the complete oracle, assuming every fixed unit
        // (and the candidate) before everything after it.
        let mut assumptions = self.selector_lits();
        for (at, &unit) in head.iter().enumerate() {
            assumptions.extend(
                (0..self.n)
                    .filter(|&later| placed[later] > at)
                    .map(|later| self.before_lit(unit, later)),
            );
        }
        (self.solve_acyclic(&assumptions) == SolveResult::Sat).then(|| self.decode())
    }

    /// Tries to extend `order` (positions in `placed`) to a total order
    /// satisfying every learnt constraint: first by appending the remaining
    /// units in `template` order, then greedily — always the first unplaced
    /// template unit that closes no clause. `None` is inconclusive.
    fn complete(
        &self,
        order: &[usize],
        placed: &[usize],
        template: &[usize],
    ) -> Option<Vec<usize>> {
        let straight: Vec<usize> = (order.iter())
            .chain(template.iter().filter(|&&unit| placed[unit] == usize::MAX))
            .copied()
            .collect();
        if self.admits(&positions(&straight)) {
            return Some(straight);
        }
        let (mut order, mut placed) = (order.to_vec(), placed.to_vec());
        while order.len() < self.n {
            let next = template.iter().copied().find(|&unit| {
                if placed[unit] != usize::MAX {
                    return false;
                }
                placed[unit] = order.len();
                let open = self.admits(&placed);
                if !open {
                    placed[unit] = usize::MAX;
                }
                open
            })?;
            order.push(next);
        }
        Some(order)
    }

    /// The assumptions that switch every learnt clause on.
    fn selector_lits(&self) -> Vec<Lit> {
        self.selectors.iter().map(|(v, _)| Lit::pos(*v)).collect()
    }

    /// Returns `false` iff some learnt clause has every literal decided
    /// false under `position` (see [`LearntConstraint::is_open`]). For a
    /// total order that is exactly "the order satisfies every constraint".
    fn admits(&self, position: &[usize]) -> bool {
        self.selectors.iter().all(|(_, c)| c.is_open(position))
    }

    /// Extracts and deletion-minimizes the selector core after an
    /// unsatisfiable solve, storing it as provenance: literals are dropped
    /// one at a time (in core order) and kept out whenever the remainder
    /// still refutes, so the result is a *minimal* core — removing any
    /// single member makes it satisfiable. Deterministic: the scan order is
    /// the assumption install order. The trial solves go through
    /// [`UnitOrdering::solve_acyclic`]: a trial that looks satisfiable only
    /// because a transitivity axiom is still missing must not keep its
    /// literal in the core, or the minimality claim would hold for the
    /// partial encoding rather than the real one.
    fn extract_core(&mut self) {
        let mut core: Vec<Lit> = self.solver.unsat_core().to_vec();
        let mut i = 0;
        while i < core.len() {
            let mut trial = core.clone();
            trial.remove(i);
            if self.solve_acyclic(&trial) == SolveResult::Unsat {
                // The refined core is a subset of `trial`, so it strictly
                // shrinks; restarting the scan terminates.
                core = self.solver.unsat_core().to_vec();
                i = 0;
            } else {
                i += 1;
            }
        }
        let by_var: HashMap<u32, &LearntConstraint> =
            self.selectors.iter().map(|(v, c)| (v.0, c)).collect();
        self.core = Some(
            core.iter()
                .filter_map(|l| by_var.get(&l.var().0).map(|&c| c.clone()))
                .collect(),
        );
    }

    /// The minimal conflicting set of learnt constraints, available after
    /// [`UnitOrdering::propose`] has returned `None`: dropping any single
    /// member makes the remainder satisfiable.
    pub fn infeasibility_core(&self) -> Option<&[LearntConstraint]> {
        self.core.as_deref()
    }

    /// Decodes the solver's current model into the total order it describes:
    /// unit `i`'s rank is the number of units the model places before it.
    /// Called only after [`UnitOrdering::solve_acyclic`] answered `Sat`, so
    /// the relation is a strict total order and the ranks are a permutation.
    fn decode(&self) -> Vec<usize> {
        let mut rank = vec![0usize; self.n];
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let var = self.pair_vars[self.pair_index(i, j)];
                if self.solver.value(var) == Some(true) {
                    rank[j] += 1;
                } else {
                    rank[i] += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&i| rank[i]);
        debug_assert!(
            order.windows(2).all(|w| rank[w[0]] < rank[w[1]]),
            "an acyclic model decodes to a total order"
        );
        order
    }

    /// Learns that the unit set `applied` must never be exactly the units of
    /// a prefix: some unit outside the set has to precede some unit inside
    /// it. Sound whenever the configuration produced by applying `applied`
    /// (in any order — unit applications commute) violates the
    /// specification. Returns `false` if the clause was already known.
    pub fn block_prefix_set(&mut self, applied: &UnitSet) -> bool {
        let mut clause = Vec::new();
        for outside in (0..self.n).filter(|&u| !applied.contains(u)) {
            for inside in applied.iter() {
                clause.push(self.before_lit(outside, inside));
            }
        }
        self.learn(
            clause,
            LearntConstraint::PrefixSet {
                applied: applied.clone(),
            },
        )
    }

    /// Learns the §4.2 B constraint: some unit of `before_units` must precede
    /// some unit of `after_units`. Returns `false` if the clause was already
    /// known.
    pub fn require_some_before(&mut self, before_units: &[usize], after_units: &[usize]) -> bool {
        let mut clause = Vec::with_capacity(before_units.len() * after_units.len());
        for &c in before_units {
            for &a in after_units {
                if c == a {
                    continue;
                }
                clause.push(self.before_lit(c, a));
            }
        }
        let fresh = self.learn(
            clause,
            LearntConstraint::SomeBefore {
                before: before_units.to_vec(),
                after: after_units.to_vec(),
            },
        );
        if fresh {
            let mask = |units: &[usize]| UnitSet::of(self.n, units.iter().copied());
            self.wrong.push((mask(after_units), mask(before_units)));
        }
        fresh
    }

    /// The wrong-set `W` of §4.1, read off the learnt `SomeBefore` clauses:
    /// `true` when the configuration with exactly the units of `applied`
    /// applied is ruled out by some counterexample already seen — every
    /// `after` unit of the clause applied and no `before` unit, which is the
    /// updated / not-updated split of the trace the clause was learnt from,
    /// so the same trace exists in this configuration too.
    pub fn excludes(&self, applied: &UnitSet) -> bool {
        (self.wrong.iter())
            .any(|(after, before)| after.is_subset(applied) && before.is_disjoint(applied))
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
    /// Every strategy's learn site goes through here, so a trace means the
    /// same clause to all of them.
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

    /// Copies the store's clause count and its solver's effort counters into
    /// the run's statistics.
    pub(crate) fn fill_solver_stats(&self, stats: &mut SynthStats) {
        stats.sat_constraints = self.constraints;
        let solver = self.solver.stats();
        stats.sat_conflicts = solver.conflicts;
        stats.sat_clauses = solver.clauses;
        stats.sat_decisions = solver.decisions;
    }

    /// Learns that exactly this total order must never be proposed again:
    /// some adjacent pair has to swap. The weakest possible clause — used
    /// only as the progress safety net when the stronger clause forms turn
    /// out to be already known. Returns `false` if the clause was already
    /// known.
    pub fn block_order(&mut self, order: &[usize]) -> bool {
        let clause: Vec<Lit> = order
            .windows(2)
            .map(|pair| self.before_lit(pair[1], pair[0]))
            .collect();
        self.learn(
            clause,
            LearntConstraint::Order {
                order: order.to_vec(),
            },
        )
    }

    /// Adds a learnt clause after canonicalization and deduplication,
    /// guarded by a fresh selector variable carrying its provenance.
    /// An *empty* clause is rejected up front by callers' soundness
    /// arguments; if one slips through it correctly makes the store
    /// unsatisfiable (the guarded clause reduces to the negated selector).
    fn learn(&mut self, mut clause: Vec<Lit>, provenance: LearntConstraint) -> bool {
        clause.sort_unstable();
        clause.dedup();
        if !self.seen.insert(clause.clone()) {
            return false;
        }
        let selector = self.solver.new_var();
        clause.push(Lit::neg(selector));
        self.solver.add_clause(clause);
        self.selectors.push((selector, provenance));
        self.constraints += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert_eq!(store.wrong.len(), 1);
        assert_eq!(store.num_constraints(), 1);
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
        assert_eq!(store.proposals(), 2);
        assert_eq!(store.num_constraints(), 0);
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
    fn counterexample_traces_become_clauses_over_updating_switches() {
        // Units 0, 1, 2 update switches 4, 5, 6; switch 9 never updates.
        let unit_of: HashMap<SwitchId, usize> = [(sw(4), 0), (sw(5), 1), (sw(6), 2)].into();
        let updated = UnitSet::of(3, [1]);
        let mut store = UnitOrdering::new(3);
        assert!(store.learn_counterexample(&[sw(9), sw(5), sw(6)], &updated, &unit_of));
        assert_eq!(
            store.selectors.iter().map(|(_, c)| c).collect::<Vec<_>>(),
            vec![&LearntConstraint::SomeBefore {
                before: vec![2],
                after: vec![1],
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
        assert_eq!(store.num_constraints(), 1);
        assert_eq!(store.propose(), Some(vec![0, 2, 1]));
    }

    #[test]
    fn learnt_clauses_are_deduplicated() {
        let mut store = UnitOrdering::new(3);
        assert!(store.require_some_before(&[0], &[1, 2]));
        assert!(!store.require_some_before(&[0], &[1, 2]));
        assert_eq!(store.num_constraints(), 1);
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
        let core = store.infeasibility_core().expect("core after unsat");
        assert_eq!(core.len(), 2);
        for constraint in core {
            match constraint {
                LearntConstraint::SomeBefore { before, after } => {
                    let mentioned: BTreeSet<usize> =
                        before.iter().chain(after.iter()).copied().collect();
                    assert_eq!(mentioned, [0, 1].into_iter().collect::<BTreeSet<_>>());
                }
                other => panic!("unexpected core member {other:?}"),
            }
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
                LearntConstraint::Order { order: blocked } => order != blocked,
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
            LearntConstraint::Order { order } => store.block_order(order),
        }
    }

    #[test]
    fn proposals_match_the_brute_force_lex_min_reference() {
        // Exercise the lazy-transitivity solve against an exhaustive
        // reference over several constraint mixes, including ones whose
        // natural-phase models are cyclic and force axiom materialization.
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
            assert_eq!(
                store.infeasibility_core().map(<[_]>::len),
                expected.is_none().then_some(learnt.len()),
                "constraints: {learnt:?}"
            );
        }
    }

    #[test]
    fn transitivity_axioms_stay_lazy() {
        // An unconstrained store proposes without materializing a single
        // transitivity axiom: the all-false default phases already describe
        // a total order, so every witness model is acyclic. The solver holds
        // exactly the learnt clauses (here: none).
        let mut store = UnitOrdering::new(12);
        let order = store.propose().expect("no constraints");
        assert_eq!(order.len(), 12);
        assert_eq!(store.solver_stats().clauses, 0, "no axioms, no clauses");
        // Learning and re-proposing materializes at most what cyclic models
        // demand — far below the eager 2·C(12,3) = 440 clauses.
        assert!(store.require_some_before(&[11], &[0]));
        store.propose().expect("satisfiable");
        assert!(
            store.solver_stats().clauses < 100,
            "lazy encoding stayed small: {}",
            store.solver_stats().clauses
        );
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
        // at a time, proposing after each pin. Every proposal warm-starts
        // from the one before it, repairs it into a witness by completion
        // and extends that by move-to-front, so the solver is never asked.
        // The parent commit (one assumption solve per fixing question) spent
        // 11 411 decisions on this chain, this one 0; the ceiling is a
        // quarter of the parent's.
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
        let decisions = store.solver_stats().decisions;
        assert!(decisions <= 2852, "fast path stopped firing: {decisions}");
    }

    // ---- stateful lex-min property test ------------------------------------

    /// One step of a random session against a [`UnitOrdering`].
    #[derive(Debug, Clone)]
    enum Op {
        Learn(LearntConstraint),
        /// Re-issue the constraint learnt `.0` steps ago (a duplicate).
        Repeat(usize),
        /// Re-issue it with unit `.1` added to every disjunct side it has —
        /// a clause the original entails.
        Weaken(usize, usize),
        /// Block the last proposal's prefix set of this length, as the CEGIS
        /// loop does after a failed verification.
        Refute(usize),
        Propose,
    }

    fn arb_permutation(n: usize) -> BoxedStrategy<Vec<usize>> {
        proptest::collection::vec(0u32..1000, n..n + 1).prop_map(|keys| {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&u| (keys[u], u));
            order
        })
    }

    fn arb_constraint(n: usize) -> BoxedStrategy<LearntConstraint> {
        let units = || proptest::collection::vec(0..n, 1..4);
        prop_oneof![
            (units(), units())
                .prop_map(|(before, after)| LearntConstraint::SomeBefore { before, after }),
            proptest::collection::vec(0..n, 1..n).prop_map(move |applied| {
                LearntConstraint::PrefixSet {
                    applied: UnitSet::of(n, applied),
                }
            }),
            arb_permutation(n).prop_map(|order| LearntConstraint::Order { order }),
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
        /// Every proposal of a long-lived store — warm-started from the one
        /// before it, under constraints learnt in any interleaving — is the
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
                                before.push(unit);
                                after.push(unit);
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
            let core = store.infeasibility_core().expect("core after unsat").to_vec();
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
