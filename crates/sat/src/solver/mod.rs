//! The CDCL solver implementation.
//!
//! The solver is split into focused modules:
//!
//! - `core` — the solve loop: propagation, conflict analysis,
//!   assumption handling, and unsat-core extraction;
//! - `vsids` — the EVSIDS decision heuristic (activity-ordered binary heap
//!   with deterministic tie-breaking);
//! - `clause_db` — clause storage, LBD (glue) tracking, and periodic
//!   learnt-clause reduction;
//! - `restart` — the Luby restart schedule.
//!
//! This module owns the small public vocabulary types ([`Var`], [`Lit`],
//! [`SolveResult`], [`Model`], [`SolverStats`]) and re-exports [`Solver`].

use std::fmt;

mod clause_db;
mod core;
mod restart;
mod vsids;

pub use self::core::Solver;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complement of this literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "!x{}", self.var().0)
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query [`Solver::value`] to read it).
    Sat,
    /// The clauses (under the given assumptions, if any) are unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }
}

/// An immutable snapshot of the satisfying assignment found by the most
/// recent [`Solver::solve`] call.
///
/// [`Solver::value`] reads the live assignment, which the next `add_clause`
/// or `solve` call destroys (both backtrack to decision level 0). Callers
/// that need to *use* a model while also extending the clause set — the
/// CEGIS loop of the SAT-guided ordering synthesizer decodes an order from
/// the model, verifies it, and then learns a clause refuting it — take a
/// snapshot first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    pub(crate) values: Vec<Option<bool>>,
}

impl Model {
    /// The value the model assigns to `var`, if any. Variables not assigned
    /// by the solve (possible under assumptions) read as `None`.
    pub fn value(&self, var: Var) -> Option<bool> {
        self.values.get(var.0 as usize).copied().flatten()
    }

    /// Number of variables covered by the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the snapshot covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Aggregate effort counters of a [`Solver`], for surfacing SAT work in
/// synthesis statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Variables allocated.
    pub vars: usize,
    /// Live clauses stored (problem clauses plus CDCL-learnt clauses).
    pub clauses: usize,
    /// CDCL-learnt clauses currently stored.
    pub learnt: usize,
    /// Conflicts encountered across all `solve` calls.
    pub conflicts: u64,
    /// Restarts performed across all `solve` calls.
    pub restarts: u64,
    /// Branching decisions made across all `solve` calls.
    pub decisions: u64,
    /// Learnt clauses deleted by LBD-based database reduction.
    pub learnt_deleted: u64,
    /// Literals removed from learnt clauses by self-subsumption
    /// minimization before install.
    pub clause_lits_removed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value {
    Unassigned,
    True,
    False,
}

impl Value {
    pub(crate) fn from_bool(b: bool) -> Value {
        if b {
            Value::True
        } else {
            Value::False
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let var = solver_vars[(i.unsigned_abs() as usize) - 1];
        if i > 0 {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    fn make_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivially_sat() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 1);
        solver.add_clause([lit(&vars, 1)]);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.value(vars[0]), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 1);
        solver.add_clause([lit(&vars, 1)]);
        assert!(!solver.add_clause([lit(&vars, -1)]));
        assert!(!solver.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut solver = Solver::new();
        assert!(!solver.add_clause(std::iter::empty()));
        assert!(!solver.solve().is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        // (a) & (!a | b) & (!b | c) forces c.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 3);
        solver.add_clause([lit(&vars, 1)]);
        solver.add_clause([lit(&vars, -1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, -2), lit(&vars, 3)]);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.value(vars[2]), Some(true));
    }

    #[test]
    fn simple_conflict_learning() {
        // Pigeonhole-ish: (a|b) & (!a|b) & (a|!b) & (!a|!b) is unsat.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 2);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, -1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, 1), lit(&vars, -2)]);
        solver.add_clause([lit(&vars, -1), lit(&vars, -2)]);
        assert!(!solver.solve().is_sat());
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 1);
        assert!(solver.add_clause([lit(&vars, 1), lit(&vars, -1)]));
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn satisfiable_3sat_instance() {
        // A small satisfiable instance with several solutions.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 5);
        let clauses: &[&[i32]] = &[
            &[1, 2, -3],
            &[-1, 3, 4],
            &[2, -4, 5],
            &[-2, -5, 1],
            &[3, 4, 5],
            &[-3, -4, -5],
        ];
        for clause in clauses {
            solver.add_clause(clause.iter().map(|i| lit(&vars, *i)));
        }
        assert!(solver.solve().is_sat());
        // Verify the model satisfies every clause.
        for clause in clauses {
            assert!(clause.iter().any(|i| {
                let value = solver.value(vars[(i.unsigned_abs() as usize) - 1]).unwrap();
                if *i > 0 {
                    value
                } else {
                    !value
                }
            }));
        }
    }

    #[test]
    fn unsat_ordering_cycle() {
        // Precedence cycle: before(a,b) & before(b,c) & before(c,a) with
        // transitivity is unsatisfiable when antisymmetry clauses are added.
        let mut solver = Solver::new();
        // Variables x_ab, x_bc, x_ca, x_ba, x_cb, x_ac.
        let vars = make_vars(&mut solver, 6);
        let (ab, bc, ca, ba, cb, ac) = (1, 2, 3, 4, 5, 6);
        // Required orderings.
        for v in [ab, bc, ca] {
            solver.add_clause([lit(&vars, v)]);
        }
        // Antisymmetry: !(x_ab & x_ba) etc.
        for (x, y) in [(ab, ba), (bc, cb), (ca, ac)] {
            solver.add_clause([lit(&vars, -x), lit(&vars, -y)]);
        }
        // Transitivity: ab & bc -> ac; bc & ca -> ba; ca & ab -> cb.
        solver.add_clause([lit(&vars, -ab), lit(&vars, -bc), lit(&vars, ac)]);
        solver.add_clause([lit(&vars, -bc), lit(&vars, -ca), lit(&vars, ba)]);
        solver.add_clause([lit(&vars, -ca), lit(&vars, -ab), lit(&vars, cb)]);
        // ac contradicts ca via antisymmetry only if both present; add it.
        solver.add_clause([lit(&vars, -ac), lit(&vars, -ca)]);
        assert!(!solver.solve().is_sat());
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 2);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        // Assuming !a and !b is inconsistent with the clause.
        assert!(!solver
            .solve_with_assumptions(&[lit(&vars, -1), lit(&vars, -2)])
            .is_sat());
        // Without assumptions the instance is still satisfiable.
        assert!(solver.solve().is_sat());
        // Assuming only !a forces b.
        assert!(solver.solve_with_assumptions(&[lit(&vars, -1)]).is_sat());
        assert_eq!(solver.value(vars[1]), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 3);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        assert!(solver.solve().is_sat());
        solver.add_clause([lit(&vars, -1)]);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.value(vars[1]), Some(true));
        solver.add_clause([lit(&vars, -2)]);
        assert!(!solver.solve().is_sat());
        // Once unsat, further solves stay unsat.
        assert!(!solver.solve().is_sat());
    }

    #[test]
    fn larger_random_style_instance_is_handled() {
        // A structured satisfiable instance: chain of implications plus a few
        // "xor-ish" side constraints, 40 variables.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 40);
        for i in 1..40 {
            solver.add_clause([lit(&vars, -i), lit(&vars, i + 1)]);
        }
        solver.add_clause([lit(&vars, 1)]);
        for i in (2..38).step_by(5) {
            solver.add_clause([lit(&vars, -i), lit(&vars, i + 2), lit(&vars, -(i + 1))]);
        }
        assert!(solver.solve().is_sat());
        // The chain forces everything true.
        assert_eq!(solver.value(vars[39]), Some(true));
    }

    #[test]
    fn model_snapshot_survives_clause_addition() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 3);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, -1)]);
        assert!(solver.solve().is_sat());
        let model = solver.model_snapshot();
        assert_eq!(model.len(), 3);
        assert!(!model.is_empty());
        assert_eq!(model.value(vars[0]), Some(false));
        assert_eq!(model.value(vars[1]), Some(true));
        // Adding a clause backtracks the live assignment, but the snapshot
        // is unaffected.
        solver.add_clause([lit(&vars, 3)]);
        assert_eq!(model.value(vars[1]), Some(true));
    }

    #[test]
    fn phase_saving_is_deterministic_across_incremental_calls() {
        // Two identically-built solvers produce identical models at every
        // step of an incremental series.
        let build = || {
            let mut solver = Solver::new();
            let vars = make_vars(&mut solver, 6);
            for i in 1..6 {
                solver.add_clause([lit(&vars, -i), lit(&vars, i + 1), lit(&vars, -(i % 3 + 1))]);
            }
            (solver, vars)
        };
        let (mut a, vars_a) = build();
        let (mut b, vars_b) = build();
        for extra in [2i32, -4, 5] {
            a.add_clause([lit(&vars_a, extra)]);
            b.add_clause([lit(&vars_b, extra)]);
            assert_eq!(a.solve(), b.solve());
            assert_eq!(a.model_snapshot(), b.model_snapshot());
        }
    }

    #[test]
    fn stats_reflect_effort() {
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 2);
        solver.add_clause([lit(&vars, 1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, -1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, 1), lit(&vars, -2)]);
        assert!(solver.solve().is_sat());
        let stats = solver.stats();
        assert_eq!(stats.vars, 2);
        assert_eq!(stats.clauses, solver.num_clauses());
        assert_eq!(stats.learnt, solver.num_learnt());
        assert_eq!(stats.conflicts, solver.num_conflicts());
        assert!(stats.decisions > 0, "a free decision was made");
    }

    #[test]
    fn display_of_literals() {
        let v = Var(3);
        assert_eq!(Lit::pos(v).to_string(), "x3");
        assert_eq!(Lit::neg(v).to_string(), "!x3");
        assert_eq!(Lit::pos(v).negated(), Lit::neg(v));
        assert!(Lit::pos(v).is_positive());
        assert_eq!(Lit::neg(v).var(), v);
    }

    #[test]
    fn unsat_core_is_a_subset_of_the_assumptions() {
        // (a -> b), (b -> c): assuming a, !c, d is unsat and the core must
        // name a and !c but never the irrelevant d.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 4);
        solver.add_clause([lit(&vars, -1), lit(&vars, 2)]);
        solver.add_clause([lit(&vars, -2), lit(&vars, 3)]);
        let assumptions = [lit(&vars, 1), lit(&vars, -3), lit(&vars, 4)];
        assert!(!solver.solve_with_assumptions(&assumptions).is_sat());
        let core: Vec<Lit> = solver.unsat_core().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "core literal {l} not assumed");
        }
        assert!(!core.contains(&lit(&vars, 4)), "irrelevant assumption kept");
        // Re-asserting the core alone is still unsat.
        let mut replay = Solver::new();
        let replay_vars = make_vars(&mut replay, 4);
        replay.add_clause([lit(&replay_vars, -1), lit(&replay_vars, 2)]);
        replay.add_clause([lit(&replay_vars, -2), lit(&replay_vars, 3)]);
        let remapped: Vec<Lit> = core
            .iter()
            .map(|l| {
                let v = replay_vars[l.var().0 as usize];
                if l.is_positive() {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        assert!(!replay.solve_with_assumptions(&remapped).is_sat());
    }

    #[test]
    fn core_of_a_falsified_assumption_names_it() {
        // Unit clause !a makes assuming a immediately false: the core is {a}.
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, 2);
        solver.add_clause([lit(&vars, -1)]);
        assert!(!solver
            .solve_with_assumptions(&[lit(&vars, 2), lit(&vars, 1)])
            .is_sat());
        assert_eq!(solver.unsat_core(), &[lit(&vars, 1)]);
    }

    #[test]
    fn learnt_db_reduction_keeps_the_solver_sound() {
        // A hard unsat instance (pigeonhole: 7 pigeons, 6 holes) generates
        // enough conflicts to trigger LBD-based reduction; the verdict must
        // still be unsat and the deletion counter must move.
        let (pigeons, holes) = (7usize, 6usize);
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, pigeons * holes);
        let var_at = |p: usize, h: usize| (p * holes + h + 1) as i32;
        for p in 0..pigeons {
            solver.add_clause((0..holes).map(|h| lit(&vars, var_at(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    solver.add_clause([lit(&vars, -var_at(p1, h)), lit(&vars, -var_at(p2, h))]);
                }
            }
        }
        assert!(!solver.solve().is_sat());
        let stats = solver.stats();
        assert!(stats.conflicts > 300, "pigeonhole is conflict-heavy");
        assert!(stats.restarts > 0, "restarts fired");
        assert!(stats.learnt_deleted > 0, "reduction fired");
    }

    #[test]
    fn self_subsumption_minimizes_learnt_clauses() {
        // The same conflict-heavy pigeonhole instance: first-UIP clauses over
        // the at-most-one ladder routinely carry literals whose reasons are
        // already subsumed, so the minimization counter must move — and
        // removing redundant literals must not change the verdict.
        let (pigeons, holes) = (7usize, 6usize);
        let mut solver = Solver::new();
        let vars = make_vars(&mut solver, pigeons * holes);
        let var_at = |p: usize, h: usize| (p * holes + h + 1) as i32;
        for p in 0..pigeons {
            solver.add_clause((0..holes).map(|h| lit(&vars, var_at(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    solver.add_clause([lit(&vars, -var_at(p1, h)), lit(&vars, -var_at(p2, h))]);
                }
            }
        }
        assert!(!solver.solve().is_sat());
        let stats = solver.stats();
        assert!(
            stats.clause_lits_removed > 0,
            "self-subsumption removed no literals across {} conflicts",
            stats.conflicts
        );
    }
}
