//! The `OrderUpdate` depth-first search strategy (§4 of the paper).
//!
//! Early termination (§4.2 B) runs on the ordering store every strategy
//! shares: each counterexample is learnt into a
//! [`UnitOrdering`](crate::constraints::UnitOrdering) as "some not-yet-updated
//! switch on the trace before some updated one", and the search stops as soon
//! as the store has no total order left to propose. While the order it last
//! found survives the new clause that answer costs one pass over the learnt
//! clauses; the CDCL solver is the fallback and the source of the minimal
//! core behind [`UpdateEngine::last_explanation`](crate::UpdateEngine).

use std::collections::BTreeSet;

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_mc::{CheckOutcome, ModelChecker};
use netupd_model::{Configuration, SwitchId};

use crate::constraints::{UnitOrdering, VisitedSet, WrongSet};
use crate::options::{Granularity, SynthesisOptions};
use crate::problem::UpdateProblem;
use crate::search::{updated_switches, SynthStats, SynthesisError};
use crate::units::UpdateUnit;

/// The ordering store the DFS stops early on: over every unit when the
/// options make the run learn into it and consult it, empty — no pair
/// variables allocated — when they do not.
fn early_termination_store(options: &SynthesisOptions, units: &[UpdateUnit]) -> UnitOrdering {
    let consulted = options.use_counterexamples
        && options.early_termination
        && options.granularity == Granularity::Switch;
    UnitOrdering::new(if consulted { units.len() } else { 0 })
}

/// The mutable state of one DFS run.
///
/// The structure, checker, and configuration are *borrowed* from the
/// [`UpdateEngine`](crate::UpdateEngine)'s persistent context (whose labels
/// carry over from the previous request; a one-shot run hands in a cold
/// one). The DFS leaves `kripke`/`checker`/`config` mutually consistent at
/// whatever configuration the search ended on — modulo the `carried` change
/// set, which the owning context folds into its next recheck — which is what
/// makes the context reusable for the next request's sync-by-diff.
///
/// # Budget accounting
///
/// `stats.charged_calls` is the budgeted schedule: +1 per applied-prefix
/// check, +1 per undo — the calls the paper's algorithm issues.
/// `stats.model_checker_calls` counts the checks physically issued, one per
/// applied prefix: the deferred-undo discipline folds each undo's relabel
/// into the next check instead of issuing it.
pub(crate) struct DfsSearch<'a> {
    pub(crate) problem: &'a UpdateProblem,
    pub(crate) options: &'a SynthesisOptions,
    pub(crate) units: &'a [UpdateUnit],
    pub(crate) encoder: &'a NetworkKripke,
    pub(crate) kripke: &'a mut Kripke,
    pub(crate) checker: &'a mut dyn ModelChecker,
    /// States rewired without an intervening recheck (the engine's deferred
    /// sync, then deferred undos), folded into the next recheck's change set.
    /// Borrowed from the owning context so unconsumed states survive the run.
    pub(crate) carried: &'a mut Vec<StateId>,
    pub(crate) config: Configuration,
    pub(crate) applied: BTreeSet<usize>,
    pub(crate) visited: VisitedSet,
    pub(crate) wrong: WrongSet,
    pub(crate) ordering: UnitOrdering,
    pub(crate) stats: SynthStats,
}

impl<'a> DfsSearch<'a> {
    /// Sets up a DFS run over borrowed checking state, starting from the
    /// problem's initial configuration with empty visited/wrong sets.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        problem: &'a UpdateProblem,
        options: &'a SynthesisOptions,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        kripke: &'a mut Kripke,
        checker: &'a mut dyn ModelChecker,
        carried: &'a mut Vec<StateId>,
        stats: SynthStats,
    ) -> Self {
        DfsSearch {
            problem,
            options,
            units,
            encoder,
            kripke,
            checker,
            carried,
            config: problem.initial.clone(),
            applied: BTreeSet::new(),
            visited: VisitedSet::new(),
            wrong: WrongSet::new(),
            ordering: early_termination_store(options, units),
            stats,
        }
    }

    /// Switches considered "updated" in the current configuration: those for
    /// which every planned unit has been applied.
    fn updated_switches(&self) -> BTreeSet<SwitchId> {
        updated_switches(self.units, &self.applied)
    }

    /// Rechecks the current configuration after `changed` states were
    /// rewired, folding in the deferred undos.
    fn check_current(&mut self, changed: Vec<StateId>) -> CheckOutcome {
        let mut change_set = std::mem::take(self.carried);
        change_set.extend(changed);
        change_set.sort_unstable();
        change_set.dedup();
        self.stats.model_checker_calls += 1;
        let outcome = self
            .checker
            .recheck(self.kripke, &self.problem.spec, &change_set);
        self.stats.states_relabeled += outcome.stats.states_labeled;
        outcome
    }

    pub(crate) fn dfs(&mut self) -> Result<Option<Vec<usize>>, SynthesisError> {
        if self.applied.len() == self.units.len() {
            return Ok(Some(Vec::new()));
        }
        for idx in 0..self.units.len() {
            if self.applied.contains(&idx) {
                continue;
            }
            if self.stats.charged_calls >= self.options.max_checks {
                return Err(SynthesisError::SearchBudgetExhausted);
            }
            let unit = &self.units[idx];
            let switch = unit.switch();

            // Pre-checks against V and W (line 6 of the paper's algorithm).
            let mut candidate = self.applied.clone();
            candidate.insert(idx);
            if self.visited.contains(&candidate) {
                self.stats.configurations_pruned += 1;
                continue;
            }
            self.visited.insert(&candidate);
            if self.options.use_counterexamples && self.options.granularity == Granularity::Switch {
                let mut updated = self.updated_switches();
                updated.insert(switch);
                if self.wrong.excludes(&updated) {
                    self.stats.configurations_pruned += 1;
                    continue;
                }
            }

            // Apply the unit (swUpdate) and re-check. The switch's arena
            // rows are captured first so the undo is a plain delta restore
            // instead of a re-encode.
            let old_table = self.config.table(switch);
            let new_table = unit.apply(&self.config);
            let delta = self
                .kripke
                .capture_delta(&self.kripke.states_of_switch(switch));
            self.config.set_table(switch, new_table.clone());
            self.applied.insert(idx);
            let changed = self
                .encoder
                .apply_switch_update(self.kripke, switch, &new_table);
            self.stats.charged_calls += 1;
            let outcome = self.check_current(changed);

            if outcome.holds {
                if let Some(mut rest) = self.dfs()? {
                    rest.insert(0, idx);
                    return Ok(Some(rest));
                }
            } else {
                self.stats.backtracks += 1;
                if self.options.use_counterexamples
                    && self.options.granularity == Granularity::Switch
                {
                    if let Some(cex) = &outcome.counterexample {
                        let updated = self.updated_switches();
                        self.wrong.learn(&cex.switches, &updated);
                        self.stats.counterexamples_learnt += 1;
                        if self.options.early_termination
                            && self.ordering.learn_counterexample(
                                &cex.switches,
                                &updated,
                                self.units,
                            )
                            && self.ordering.propose().is_none()
                        {
                            return Err(SynthesisError::NoOrderingExists {
                                proven_by_constraints: true,
                            });
                        }
                    }
                }
            }

            // Undo the unit by restoring the captured arena delta (falling
            // back to a re-encode if the arena changed shape underneath it)
            // and *defer* the relabel: the undone states join the carried
            // change set consumed by the next physical recheck, so the undo
            // issues no query. The schedule still charges it — the paper's
            // search pays a restore recheck here.
            self.applied.remove(&idx);
            self.config.set_table(switch, old_table.clone());
            self.stats.charged_calls += 1;
            let restored = match self.kripke.restore_delta(&delta) {
                Some(changed) => changed,
                None => self
                    .encoder
                    .apply_switch_update(self.kripke, switch, &old_table),
            };
            self.carried.extend(restored);
        }
        Ok(None)
    }
}
