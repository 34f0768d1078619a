//! The `OrderUpdate` depth-first search strategy (§4 of the paper).
//!
//! A request's search state is three things: the [`CheckContext`] it steps
//! and rechecks, the [`UnitSet`] of applied units (with the path that built
//! it and the visited rows `V`), and the one store of learnt facts, a
//! [`UnitOrdering`]. Each counterexample is learnt into the store once, as
//! "some not-yet-updated switch on the trace before some updated one", and
//! the store answers for it twice: as the wrong-set `W`
//! ([`excludes`](UnitOrdering::excludes)) it prunes candidates before they
//! are checked, and as the ordering constraints of §4.2 B it ends the search
//! as soon as it has no total order left to propose — one walk over the
//! applied-unit sets the learnt clauses leave open, whose refutation is also
//! the minimal core the `NoOrderingExists` verdict carries.

use std::collections::{HashMap, HashSet};

use netupd_kripke::NetworkKripke;
use netupd_model::SwitchId;

use crate::constraints::UnitOrdering;
use crate::context::CheckContext;
use crate::options::SynthesisOptions;
use crate::problem::UpdateProblem;
use crate::search::{finish_sequence, SynthStats, SynthesisError, UpdateSequence};
use crate::strategy::counterexample_units;
use crate::units::{UnitSet, UpdateUnit};

/// Runs the DFS over the engine's persistent context, after the entry checks
/// (`stats` is what they charged). They leave the structure at the final
/// configuration and the search starts from the initial one; the way back is
/// a deferred sync, relabeled by the first physical recheck. The context is
/// left wherever the search ended, which the next request syncs from by
/// diff.
pub(crate) fn solve(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    encoder: &NetworkKripke,
    ctx: &mut CheckContext,
    stats: SynthStats,
) -> Result<UpdateSequence, SynthesisError> {
    ctx.sync_deferred(encoder, &problem.initial);
    let unit_of = counterexample_units(options, units);
    let mut search = DfsSearch {
        problem,
        options,
        units,
        encoder,
        ctx,
        applied: UnitSet::new(units.len()),
        path: Vec::with_capacity(units.len()),
        visited: HashSet::new(),
        // A run that never learns keeps an empty store.
        ordering: UnitOrdering::new(if unit_of.is_some() { units.len() } else { 0 }),
        unit_of,
        stats,
    };
    let outcome = search.dfs();
    // The store outlives the search: when the DFS aborted because the
    // constraints went unsatisfiable, it holds the minimal core.
    let DfsSearch {
        ordering,
        mut stats,
        path,
        ..
    } = search;
    ordering.fill_stats(&mut stats);
    match outcome {
        Ok(true) => Ok(finish_sequence(problem, units, &path, stats)),
        Ok(false) | Err(Stop::NoOrderLeft) => {
            Err(SynthesisError::no_ordering(&ordering, units, stats))
        }
        Err(Stop::Budget) => Err(SynthesisError::SearchBudgetExhausted {
            stats: Box::new(stats),
        }),
    }
}

/// Why the DFS stopped before trying every extension.
enum Stop {
    /// The charged checks reached `max_checks`.
    Budget,
    /// Early termination: the learnt constraints admit no order.
    NoOrderLeft,
}

/// The mutable state of one DFS run.
///
/// The context belongs to the [`UpdateEngine`](crate::UpdateEngine) (its
/// labels carry over from the previous request; a one-shot run hands in a
/// cold one). The DFS moves it only by [`CheckContext::step`] and asks it
/// only [`CheckContext::recheck`], so structure, checker and recorded
/// configuration stay consistent wherever the search stops.
///
/// # Budget accounting
///
/// `stats.charged_calls` is the budgeted schedule: +1 per applied-prefix
/// check, +1 per undo — the calls the paper's algorithm issues.
/// `stats.model_checker_calls` counts the checks physically issued, one per
/// applied prefix: the deferred-undo discipline folds each undo's relabel
/// into the next check instead of issuing it.
struct DfsSearch<'a> {
    problem: &'a UpdateProblem,
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    encoder: &'a NetworkKripke,
    ctx: &'a mut CheckContext,
    /// The unit of each updating switch; `None` when counterexamples are not
    /// learnt.
    unit_of: Option<HashMap<SwitchId, usize>>,
    /// The units applied in the context's current configuration.
    applied: UnitSet,
    /// The same units in the order they were applied: the committed order
    /// once it holds them all.
    path: Vec<usize>,
    /// The set `V` of §4.1: every applied set a check was spent on.
    visited: HashSet<UnitSet>,
    ordering: UnitOrdering,
    stats: SynthStats,
}

impl DfsSearch<'_> {
    /// Extends the current prefix to a full order, leaving it in `path`;
    /// `false` when every extension fails.
    fn dfs(&mut self) -> Result<bool, Stop> {
        if self.path.len() == self.units.len() {
            return Ok(true);
        }
        for idx in 0..self.units.len() {
            if self.applied.contains(idx) {
                continue;
            }
            if self.stats.charged_calls >= self.options.max_checks {
                return Err(Stop::Budget);
            }

            // Pre-checks against V and W (line 6 of the paper's algorithm),
            // on the candidate set built in place.
            self.applied.insert(idx);
            let seen = self.visited.contains(&self.applied);
            if !seen {
                self.visited.insert(self.applied.clone());
            }
            if seen || self.ordering.excludes(&self.applied) {
                self.applied.remove(idx);
                self.stats.configurations_pruned += 1;
                continue;
            }

            // Apply the unit (swUpdate) and re-check.
            let unit = &self.units[idx];
            let switch = unit.switch();
            let old_table = self.ctx.config().table(switch);
            let new_table = unit.apply(self.ctx.config());
            self.ctx.step(self.encoder, switch, new_table);
            self.path.push(idx);
            self.stats.charged_calls += 1;
            self.stats.model_checker_calls += 1;
            let outcome = self.ctx.recheck(&self.problem.spec);
            self.stats.states_relabeled += outcome.stats.states_labeled;

            if outcome.holds {
                if self.dfs()? {
                    return Ok(true);
                }
            } else {
                self.stats.backtracks += 1;
                if let (Some(unit_of), Some(cex)) = (&self.unit_of, &outcome.counterexample) {
                    self.stats.counterexamples_learnt += 1;
                    let fresh =
                        self.ordering
                            .learn_counterexample(&cex.switches, &self.applied, unit_of);
                    if fresh && self.options.early_termination && self.ordering.propose().is_none()
                    {
                        return Err(Stop::NoOrderLeft);
                    }
                }
            }

            // Undo the unit — the same step, back to the old table — and
            // *defer* the relabel: the undone states stay in the context's
            // pending set, consumed by the next physical recheck, so the
            // undo issues no query. The schedule still charges it — the
            // paper's search pays a restore recheck here.
            self.applied.remove(idx);
            self.path.pop();
            self.ctx.step(self.encoder, switch, old_table);
            self.stats.charged_calls += 1;
        }
        Ok(false)
    }
}
