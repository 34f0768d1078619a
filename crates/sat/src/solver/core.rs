//! The CDCL solve loop: two-literal watching, first-UIP conflict analysis,
//! assumption handling, and unsat-core extraction.
//!
//! Everything here is deterministic by construction: branching order is the
//! EVSIDS heap (ties broken by variable index), restarts follow the Luby
//! schedule on conflict counts, and learnt-DB reduction orders victims by
//! `(lbd, len, index)`. Two solvers fed the same call sequence perform the
//! same search, which is what lets synthesis statistics stay byte-identical
//! across thread counts.

use super::clause_db::ClauseDb;
use super::restart::RestartPolicy;
use super::vsids::ActivityHeap;
use super::{Lit, Model, SolveResult, SolverStats, Value, Var};

const UNDEF_CLAUSE: usize = usize::MAX;

/// Live learnt clauses before the first reduction; each reduction raises the
/// threshold by [`REDUCE_STEP`].
const REDUCE_BASE: usize = 200;
const REDUCE_STEP: usize = 100;

/// An incremental CDCL SAT solver. See the [crate documentation](crate) for an
/// overview and example.
#[derive(Debug)]
pub struct Solver {
    db: ClauseDb,
    /// For each literal index, the clauses watching that literal.
    watches: Vec<Vec<usize>>,
    /// Current assignment per variable.
    values: Vec<Value>,
    /// Decision level at which each variable was assigned.
    levels: Vec<u32>,
    /// Clause that implied each variable (or `UNDEF_CLAUSE` for decisions).
    reasons: Vec<usize>,
    /// EVSIDS activity heap driving branching decisions.
    heap: ActivityHeap,
    /// Assignment trail and per-level offsets.
    trail: Vec<Lit>,
    trail_limits: Vec<usize>,
    /// Head of the propagation queue within the trail.
    propagated: usize,
    /// Set when an empty clause or a top-level conflict makes the instance
    /// permanently unsatisfiable.
    unsat: bool,
    conflicts: u64,
    restarts: u64,
    decisions: u64,
    /// Literals dropped from learnt clauses by self-subsumption minimization.
    clause_lits_removed: u64,
    /// Live learnt clauses that trigger the next DB reduction.
    reduce_threshold: usize,
    /// Last assigned polarity per variable (phase saving). Decisions re-use
    /// the saved polarity, so successive `solve` calls of an incremental
    /// series restart warm: the parts of the previous model untouched by the
    /// newly added clauses are rediscovered without search.
    saved_phase: Vec<bool>,
    /// Assumption subset extracted from the last unsatisfiable
    /// `solve_with_assumptions` call.
    last_core: Vec<Lit>,
    /// Assumptions currently realized as the leading decision levels of the
    /// trail (trail saving). A solve whose assumptions share a prefix with
    /// the previous call backtracks to the divergence point instead of level
    /// 0, skipping the re-install and re-propagation of the shared prefix.
    /// Kept in sync by [`backtrack_to`](Solver::backtrack_to) (truncated to
    /// the surviving levels) and cleared by `add_clause` (which backtracks to
    /// level 0 before touching the clause set).
    installed_assumptions: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            db: ClauseDb::default(),
            watches: Vec::new(),
            values: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            heap: ActivityHeap::new(),
            trail: Vec::new(),
            trail_limits: Vec::new(),
            propagated: 0,
            unsat: false,
            conflicts: 0,
            restarts: 0,
            decisions: 0,
            clause_lits_removed: 0,
            reduce_threshold: REDUCE_BASE,
            saved_phase: Vec::new(),
            last_core: Vec::new(),
            installed_assumptions: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = self.heap.push_var();
        debug_assert_eq!(var.0 as usize, self.values.len());
        self.values.push(Value::Unassigned);
        self.levels.push(0);
        self.reasons.push(UNDEF_CLAUSE);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        // `false` matches the solver's historical always-negative first
        // decision, so phase saving only changes *later* visits to a
        // variable.
        self.saved_phase.push(false);
        var
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of live clauses stored (including learnt clauses, excluding
    /// clauses deleted by DB reduction).
    pub fn num_clauses(&self) -> usize {
        self.db.num_live()
    }

    /// Number of conflicts encountered so far (a rough effort measure).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of learnt clauses currently stored.
    pub fn num_learnt(&self) -> usize {
        self.db.num_learnt_live()
    }

    /// The subset of the assumptions that the last unsatisfiable
    /// [`solve_with_assumptions`](Solver::solve_with_assumptions) call proved
    /// jointly inconsistent with the clause set (an *unsat core*, in
    /// assumption-install order). Empty when the clause set is unsatisfiable
    /// on its own, or after a satisfiable call.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Adds a clause. Returns `false` if the solver is already known to be
    /// unsatisfiable (adding the empty clause, or deriving a top-level
    /// conflict).
    ///
    /// Clauses may be added between `solve` calls (incremental use).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, literals: I) -> bool {
        if self.unsat {
            return false;
        }
        // Work at decision level 0.
        self.backtrack_to(0);
        let mut literals: Vec<Lit> = literals.into_iter().collect();
        literals.sort_unstable();
        literals.dedup();
        // A clause containing both a literal and its negation is a tautology.
        if literals.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true;
        }
        // Remove literals already false at level 0; a clause with a literal
        // already true at level 0 is satisfied.
        let mut reduced = Vec::with_capacity(literals.len());
        for lit in literals {
            match self.literal_value(lit) {
                Value::True => return true,
                Value::False => {}
                Value::Unassigned => reduced.push(lit),
            }
        }
        match reduced.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(reduced[0], UNDEF_CLAUSE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(reduced, false, 0);
                true
            }
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumptions (literals forced true for this call
    /// only). The clause database and learnt clauses persist across calls.
    ///
    /// On an unsatisfiable result, [`unsat_core`](Solver::unsat_core) reports
    /// the subset of the assumptions that participated in the refutation.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.last_core.clear();
        if self.unsat {
            return SolveResult::Unsat;
        }
        // Trail saving: keep the decision levels of the assumption prefix
        // shared with the previous call. The kept levels hold exactly the
        // assignments a re-install would reproduce (propagation is a
        // deterministic fixpoint of the trail prefix), so skipping them
        // changes no verdict and no model.
        let keep = self
            .installed_assumptions
            .iter()
            .zip(assumptions)
            .take_while(|(a, b)| a == b)
            .count();
        self.backtrack_to(keep as u32);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }

        let mut restart_policy = RestartPolicy::new();
        let mut restart_pending = false;

        loop {
            // Install every assumption (as its own decision level) before
            // making any free decisions; a conflict or falsified assumption
            // at this stage means unsatisfiability under the assumptions.
            let mut conflict = None;
            while self.trail_limits.len() < assumptions.len() && conflict.is_none() {
                let assumption = assumptions[self.trail_limits.len()];
                match self.literal_value(assumption) {
                    Value::True => {
                        // Already implied; open an empty level to keep the
                        // assumption/level correspondence simple.
                        self.trail_limits.push(self.trail.len());
                        self.installed_assumptions.push(assumption);
                    }
                    Value::False => {
                        self.last_core = self.analyze_final_falsified(assumption);
                        self.backtrack_to(0);
                        return SolveResult::Unsat;
                    }
                    Value::Unassigned => {
                        self.trail_limits.push(self.trail.len());
                        self.installed_assumptions.push(assumption);
                        self.enqueue(assumption, UNDEF_CLAUSE);
                        conflict = self.propagate();
                    }
                }
            }

            if conflict.is_none() {
                conflict = self.propagate();
            }

            if let Some(conflict_clause) = conflict {
                self.conflicts += 1;
                restart_pending |= restart_policy.on_conflict();
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict that does not involve a free decision: the
                    // instance is unsatisfiable under the assumptions.
                    if assumptions.is_empty() {
                        self.unsat = true;
                    } else {
                        self.last_core = self.analyze_final_conflict(conflict_clause);
                    }
                    self.backtrack_to(0);
                    return SolveResult::Unsat;
                }
                let (learnt, backtrack_level, lbd) = self.analyze(conflict_clause);
                let backtrack_level = backtrack_level.max(assumptions.len() as u32);
                self.backtrack_to(backtrack_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, UNDEF_CLAUSE);
                } else {
                    let clause_idx = self.attach_clause(learnt, true, lbd);
                    self.enqueue(asserting, clause_idx);
                }
                self.heap.decay();
            } else if restart_pending {
                // Luby restart, preserving assumptions semantics by
                // backtracking to level 0 (assumptions are re-installed).
                // Phase saving makes the restart warm: the next descent
                // re-assigns the saved polarities without search. Restarts
                // are also the point where the learnt DB is reduced — at
                // level 0 no learnt clause above the trail is a reason.
                restart_pending = false;
                self.restarts += 1;
                self.backtrack_to(0);
                self.maybe_reduce_learnt_db();
            } else {
                match self.pick_branch_var() {
                    None => return SolveResult::Sat,
                    Some(var) => {
                        self.decisions += 1;
                        let lit = if self.saved_phase[var.0 as usize] {
                            Lit::pos(var)
                        } else {
                            Lit::neg(var)
                        };
                        self.trail_limits.push(self.trail.len());
                        self.enqueue(lit, UNDEF_CLAUSE);
                    }
                }
            }
        }
    }

    /// The value assigned to `var` by the most recent satisfiable solve, if
    /// it was assigned.
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.values[var.0 as usize] {
            Value::Unassigned => None,
            Value::True => Some(true),
            Value::False => Some(false),
        }
    }

    /// Snapshots the current assignment as an immutable [`Model`].
    ///
    /// Meaningful immediately after a [`solve`](Solver::solve) that returned
    /// [`SolveResult::Sat`]; the snapshot survives later `add_clause`/`solve`
    /// calls (which destroy the live assignment [`value`](Solver::value)
    /// reads).
    pub fn model_snapshot(&self) -> Model {
        Model {
            values: (0..self.values.len() as u32)
                .map(|i| self.value(Var(i)))
                .collect(),
        }
    }

    /// Aggregate effort counters (variables, clauses, learnt clauses,
    /// conflicts, restarts, decisions, deleted learnt clauses).
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            vars: self.num_vars(),
            clauses: self.num_clauses(),
            learnt: self.num_learnt(),
            conflicts: self.conflicts,
            restarts: self.restarts,
            decisions: self.decisions,
            learnt_deleted: self.db.num_deleted(),
            clause_lits_removed: self.clause_lits_removed,
        }
    }

    // ---- internals ---------------------------------------------------------

    fn literal_value(&self, lit: Lit) -> Value {
        match self.values[lit.var().0 as usize] {
            Value::Unassigned => Value::Unassigned,
            Value::True => Value::from_bool(lit.is_positive()),
            Value::False => Value::from_bool(!lit.is_positive()),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_limits.len() as u32
    }

    fn attach_clause(&mut self, literals: Vec<Lit>, learnt: bool, lbd: u32) -> usize {
        debug_assert!(literals.len() >= 2);
        let idx = self.db.push(literals, learnt, lbd);
        let clause = self.db.get(idx);
        let (w0, w1) = (clause.literals[0], clause.literals[1]);
        self.watches[w0.negated().index()].push(idx);
        self.watches[w1.negated().index()].push(idx);
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: usize) {
        debug_assert_eq!(self.literal_value(lit), Value::Unassigned);
        let var = lit.var().0 as usize;
        self.values[var] = Value::from_bool(lit.is_positive());
        self.levels[var] = self.decision_level();
        self.reasons[var] = reason;
        self.trail.push(lit);
    }

    fn backtrack_to(&mut self, level: u32) {
        // Assumption levels above the target are gone; free-decision levels
        // (beyond the installed assumptions) leave the prefix untouched.
        let kept = (level as usize).min(self.installed_assumptions.len());
        self.installed_assumptions.truncate(kept);
        while self.decision_level() > level {
            let limit = self.trail_limits.pop().expect("limit exists");
            while self.trail.len() > limit {
                let lit = self.trail.pop().expect("trail non-empty");
                let var = lit.var().0 as usize;
                self.saved_phase[var] = self.values[var] == Value::True;
                self.values[var] = Value::Unassigned;
                self.reasons[var] = UNDEF_CLAUSE;
                self.heap.insert(lit.var());
            }
        }
        self.propagated = self.propagated.min(self.trail.len());
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.propagated < self.trail.len() {
            let lit = self.trail[self.propagated];
            self.propagated += 1;
            // Clauses watching `lit` (i.e. containing `!lit`) must be checked.
            let mut watch_list = std::mem::take(&mut self.watches[lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let clause_idx = watch_list[i];
                match self.propagate_clause(clause_idx, lit) {
                    PropagationOutcome::KeepWatch => i += 1,
                    PropagationOutcome::WatchMoved => {
                        watch_list.swap_remove(i);
                    }
                    PropagationOutcome::Conflict => {
                        // Put the whole remaining watch list back (including
                        // the clause that conflicted) before bailing out.
                        self.watches[lit.index()].append(&mut watch_list);
                        self.propagated = self.trail.len();
                        return Some(clause_idx);
                    }
                }
            }
            self.watches[lit.index()].extend(watch_list);
        }
        None
    }

    fn propagate_clause(&mut self, clause_idx: usize, lit: Lit) -> PropagationOutcome {
        let false_lit = lit.negated();
        // Normalize: the falsified literal goes to position 1.
        {
            let clause = self.db.get_mut(clause_idx);
            if clause.literals[0] == false_lit {
                clause.literals.swap(0, 1);
            }
        }
        let first = self.db.get(clause_idx).literals[0];
        if self.literal_value(first) == Value::True {
            return PropagationOutcome::KeepWatch;
        }
        // Look for a new literal to watch.
        let len = self.db.get(clause_idx).literals.len();
        for k in 2..len {
            let candidate = self.db.get(clause_idx).literals[k];
            if self.literal_value(candidate) != Value::False {
                self.db.get_mut(clause_idx).literals.swap(1, k);
                self.watches[candidate.negated().index()].push(clause_idx);
                return PropagationOutcome::WatchMoved;
            }
        }
        // Clause is unit or conflicting.
        if self.literal_value(first) == Value::False {
            PropagationOutcome::Conflict
        } else {
            self.enqueue(first, clause_idx);
            PropagationOutcome::KeepWatch
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's LBD.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32, u32) {
        let current_level = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.values.len()];
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut asserting = None;
        let mut clause_idx = conflict;

        loop {
            let literals: Vec<Lit> = self.db.get(clause_idx).literals.clone();
            let skip = usize::from(asserting.is_some());
            for lit in literals.into_iter().skip(skip) {
                let var = lit.var().0 as usize;
                if seen[var] || self.levels[var] == 0 {
                    continue;
                }
                seen[var] = true;
                self.heap.bump(lit.var());
                if self.levels[var] >= current_level {
                    counter += 1;
                } else {
                    learnt.push(lit);
                }
            }
            // Find the next seen literal on the trail at the current level.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if seen[lit.var().0 as usize] {
                    asserting = Some(lit);
                    break;
                }
            }
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause_idx = self.reasons[asserting.expect("asserting literal").var().0 as usize];
            debug_assert_ne!(clause_idx, UNDEF_CLAUSE);
        }

        // Self-subsumption minimization: a non-asserting literal is redundant
        // when every other literal of its reason clause was already visited
        // by the resolution above (or sits at level 0) — resolving the learnt
        // clause with that reason removes the literal and introduces nothing
        // new. One local pass (no recursive reason-chasing): the removal must
        // stay cheap relative to the tiny ordering clauses it minimizes.
        let before_minimize = learnt.len();
        let (reasons, levels, db) = (&self.reasons, &self.levels, &self.db);
        learnt.retain(|lit| {
            let var = lit.var().0 as usize;
            let reason = reasons[var];
            if reason == UNDEF_CLAUSE {
                return true;
            }
            db.get(reason).literals.iter().any(|other| {
                let v = other.var().0 as usize;
                v != var && !seen[v] && levels[v] > 0
            })
        });
        self.clause_lits_removed += (before_minimize - learnt.len()) as u64;

        let asserting = asserting.expect("asserting literal").negated();
        let backtrack_level = learnt
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(asserting);
        clause.extend(learnt);
        // Put a literal from the backtrack level in the second watch slot so
        // the clause stays watched correctly after backtracking.
        if clause.len() > 2 {
            let mut best = 1;
            for (i, lit) in clause.iter().enumerate().skip(1) {
                if self.levels[lit.var().0 as usize] > self.levels[clause[best].var().0 as usize] {
                    best = i;
                }
            }
            clause.swap(1, best);
        }
        // LBD: number of distinct decision levels among the clause literals
        // (read before backtracking, while all of them are still assigned).
        let mut lbd_levels: Vec<u32> = clause
            .iter()
            .map(|l| self.levels[l.var().0 as usize])
            .collect();
        lbd_levels.sort_unstable();
        lbd_levels.dedup();
        let lbd = lbd_levels.len() as u32;
        (clause, backtrack_level, lbd)
    }

    /// Traces the reason graph of every marked variable down to decision
    /// literals (which, below the assumption levels, are exactly the
    /// installed assumptions) and returns them in assumption-install order.
    fn collect_marked_assumptions(&self, seen: &mut [bool]) -> Vec<Lit> {
        let mut out = Vec::new();
        let start = self
            .trail_limits
            .first()
            .copied()
            .unwrap_or(self.trail.len());
        for idx in (start..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let var = lit.var().0 as usize;
            if !seen[var] {
                continue;
            }
            if self.reasons[var] == UNDEF_CLAUSE {
                out.push(lit);
            } else {
                for l in &self.db.get(self.reasons[var]).literals {
                    let v = l.var().0 as usize;
                    if v != var && self.levels[v] > 0 {
                        seen[v] = true;
                    }
                }
            }
        }
        out.reverse();
        out
    }

    /// Unsat core when installing `assumption` found it already false: the
    /// assumption itself, plus the assumptions whose propagation falsified
    /// it.
    fn analyze_final_falsified(&self, assumption: Lit) -> Vec<Lit> {
        let var = assumption.var().0 as usize;
        let mut core = vec![assumption];
        if self.levels[var] > 0 {
            let mut seen = vec![false; self.values.len()];
            seen[var] = true;
            core.extend(self.collect_marked_assumptions(&mut seen));
        }
        core
    }

    /// Unsat core when propagation conflicted with no free decision on the
    /// trail: every assumption reachable from the conflict clause's reason
    /// graph.
    fn analyze_final_conflict(&self, conflict: usize) -> Vec<Lit> {
        let mut seen = vec![false; self.values.len()];
        for lit in &self.db.get(conflict).literals {
            let var = lit.var().0 as usize;
            if self.levels[var] > 0 {
                seen[var] = true;
            }
        }
        self.collect_marked_assumptions(&mut seen)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.heap.pop_max() {
            if self.values[var.0 as usize] == Value::Unassigned {
                return Some(var);
            }
        }
        None
    }

    /// Reduces the learnt database once it outgrows the current threshold:
    /// detaches and tombstones the worse half of the reducible learnt
    /// clauses (see [`ClauseDb::reduction_victims`]). Runs at restart points
    /// only, so the trail holds at most level-0 assignments, whose reason
    /// clauses are protected by the lock check.
    fn maybe_reduce_learnt_db(&mut self) {
        if self.db.num_learnt_live() < self.reduce_threshold {
            return;
        }
        let reasons = &self.reasons;
        let victims = self
            .db
            .reduction_victims(|idx, clause| reasons[clause.literals[0].var().0 as usize] == idx);
        for idx in victims {
            let clause = self.db.get(idx);
            let (w0, w1) = (clause.literals[0], clause.literals[1]);
            self.watches[w0.negated().index()].retain(|&c| c != idx);
            self.watches[w1.negated().index()].retain(|&c| c != idx);
            self.db.delete(idx);
        }
        self.reduce_threshold += REDUCE_STEP;
    }
}

enum PropagationOutcome {
    KeepWatch,
    WatchMoved,
    Conflict,
}
