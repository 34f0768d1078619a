//! The `OrderUpdate` depth-first search strategy (§4 of the paper).
//!
//! Beside its `Run`, the search state is the [`UnitSet`] of applied units,
//! the path that built it and the visited rows `V`. Each counterexample is
//! learnt into the run's store once, as "some not-yet-updated switch on the
//! trace before some updated one", and the store answers for it twice: as
//! the wrong-set `W` ([`excludes`](crate::constraints::UnitOrdering::excludes))
//! it prunes candidates before they are checked, and as the ordering
//! constraints of §4.2 B it ends the search as soon as it has no total order
//! left to propose — one walk over the applied-unit sets the learnt clauses
//! leave open, whose refutation is also the minimal core the
//! `NoOrderingExists` verdict carries.

use std::collections::HashSet;

use super::{Run, Stop};
use crate::units::UnitSet;

/// Runs the DFS after the endpoint checks. They leave the structure at the
/// final configuration and the search starts from the initial one; the way
/// back is a deferred sync, relabeled by the first physical check.
pub(super) fn search(run: &mut Run<'_>) -> Result<Vec<usize>, Stop> {
    let problem = run.problem;
    run.sync(&problem.initial);
    let n = run.units.len();
    let mut search = DfsSearch {
        run,
        applied: UnitSet::new(n),
        path: Vec::with_capacity(n),
        visited: HashSet::new(),
    };
    if search.dfs()? {
        Ok(search.path)
    } else {
        Err(Stop::NoOrder)
    }
}

/// The mutable state of one DFS run beside its `Run`.
struct DfsSearch<'r, 'a> {
    run: &'r mut Run<'a>,
    /// The units applied in the context's current configuration.
    applied: UnitSet,
    /// The same units in the order they were applied: the committed order
    /// once it holds them all.
    path: Vec<usize>,
    /// The set `V` of §4.1: every applied set a check was spent on.
    visited: HashSet<UnitSet>,
}

impl DfsSearch<'_, '_> {
    /// Extends the current prefix to a full order, leaving it in `path`;
    /// `false` when every extension fails.
    fn dfs(&mut self) -> Result<bool, Stop> {
        let n = self.run.units.len();
        if self.path.len() == n {
            return Ok(true);
        }
        for idx in 0..n {
            if self.applied.contains(idx) {
                continue;
            }
            if !self.run.affords(1) {
                return Err(Stop::Budget);
            }

            // Pre-checks against V and W (line 6 of the paper's algorithm),
            // on the candidate set built in place.
            self.applied.insert(idx);
            let seen = self.visited.contains(&self.applied);
            if !seen {
                self.visited.insert(self.applied.clone());
            }
            if seen || self.run.store.excludes(&self.applied) {
                self.applied.remove(idx);
                self.run.stats.configurations_pruned += 1;
                continue;
            }

            let old = self.run.apply(idx);
            self.path.push(idx);
            let outcome = self.run.check();
            if outcome.holds {
                if self.dfs()? {
                    return Ok(true);
                }
            } else if self.run.refute(&outcome, &self.applied)
                && self.run.options.early_termination
                && self.run.store.propose().is_none()
            {
                return Err(Stop::NoOrder);
            }

            self.applied.remove(idx);
            self.path.pop();
            self.run.undo(idx, old);
        }
        Ok(false)
    }
}
