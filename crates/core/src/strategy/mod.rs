//! The pluggable search strategies behind [`SearchStrategy`].
//!
//! Both strategies solve the same problem — order the update units so that
//! every intermediate configuration satisfies the specification — by the
//! same loop: apply a unit, check the configuration, learn the failure,
//! decide what to try next. One request's run of that loop is a `Run`: it
//! owns the sync-by-diff `CheckContext` the engine persists across requests,
//! the one store of learnt facts ([`UnitOrdering`], learnt into through one
//! counterexample→clause function, read as the wrong-set `W` and as the
//! ordering constraints) and the run's [`SynthStats`], and every event of a
//! request — an endpoint check, a step, a check, a refutation, the verdict —
//! happens in one of its methods. A strategy is a `search` function over a
//! `Run` that only decides which unit to try next and returns the order it
//! commits, or why it stopped.
//!
//! * `dfs` is the paper's `OrderUpdate` depth-first search (§4): it
//!   explores prefixes one candidate unit at a time, prunes with the visited
//!   rows and the store's [`excludes`](UnitOrdering::excludes), and otherwise
//!   asks the store only whether any total order is left — when none is, the
//!   search terminates early.
//! * `sat_guided` runs the same store forward as a CEGIS loop (§4.2 B):
//!   the store *proposes* the lex-min total order consistent with every
//!   learnt precedence clause, the configured backend verifies the candidate
//!   sequence prefix by prefix up to its first failing prefix, and the
//!   failure is learnt back as one new clause — until a proposal verifies
//!   (success) or the clause set goes unsatisfiable (infeasible, strictly
//!   subsuming the DFS's early termination).
//!
//! Each is one propose / check / learn loop on the calling thread; the search
//! is single-threaded because a step is a ~1.6 µs incremental recheck
//! (`mc.recheck_us` 1.51–1.74 µs in three of the repo benchmark's traced
//! `oneshot-dfs` runs, `--seed 7 --seconds 5 --trace 1`, on a 2-core Xeon
//! container), cheaper than handing it to another thread (EXPERIMENTS.md,
//! "Earn-or-remove audit").
//!
//! Each strategy is individually deterministic: for a fixed problem and
//! options, commands, unit order, verdict, and statistics are byte-identical
//! across runs. The strategies agree on the verdict and commit the *same*
//! order: the DFS's first success in index order is the lex-min correct
//! order, which is what `propose` commits.

use std::collections::HashMap;

use netupd_kripke::NetworkKripke;
use netupd_mc::CheckOutcome;
use netupd_model::{CommandSeq, Configuration, SwitchId, Table};

use crate::constraints::UnitOrdering;
use crate::context::CheckContext;
use crate::explain::ConflictConstraint;
use crate::options::{Granularity, SearchStrategy, SynthesisOptions};
use crate::problem::UpdateProblem;
use crate::search::{SynthStats, SynthesisError, UpdateSequence};
use crate::units::{UnitSet, UpdateUnit};
use crate::wait_removal;

mod dfs;
mod sat_guided;

/// Solves one request over the engine's persistent context: the endpoint
/// checks, the configured strategy's search, and the verdict. The context is
/// left wherever the run ended, which the next request syncs from by diff.
pub(crate) fn solve(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    encoder: &NetworkKripke,
    ctx: &mut CheckContext,
) -> Result<UpdateSequence, SynthesisError> {
    let mut run = Run::new(problem, options, units, encoder, ctx);
    if let Some(trivial) = run.check_endpoints()? {
        return Ok(trivial);
    }
    let outcome = match options.strategy {
        SearchStrategy::Dfs => dfs::search(&mut run),
        SearchStrategy::SatGuided => sat_guided::search(&mut run),
    };
    run.finish(outcome)
}

/// Why a search stopped without an order.
enum Stop {
    /// The charged checks reached `max_checks`.
    Budget,
    /// No order is left: the learnt constraints admit none, or the search
    /// tried every extension.
    NoOrder,
}

/// One request's search: everything a strategy reads and every event it
/// causes.
///
/// The context belongs to the [`UpdateEngine`](crate::UpdateEngine) (its
/// labels carry over from the previous request; a one-shot run hands in a
/// cold one). A run moves it only by `CheckContext::step` and asks it only
/// `CheckContext::recheck`, so structure, checker and recorded configuration
/// stay consistent wherever the search stops.
///
/// # Budget accounting
///
/// `stats.charged_calls` is the budgeted schedule: +1 per `check`, +1 per
/// `undo` — the calls the paper's algorithm issues.
/// `stats.model_checker_calls` counts the checks physically issued: the
/// deferred-undo discipline folds each undo's relabel into the next check
/// instead of issuing it.
pub(crate) struct Run<'a> {
    problem: &'a UpdateProblem,
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    encoder: &'a NetworkKripke,
    ctx: &'a mut CheckContext,
    /// The one store of learnt facts.
    store: UnitOrdering,
    /// The unit of each updating switch; `None` when counterexamples are not
    /// learnt — a counterexample is a statement about switches, so it needs
    /// every unit to be a switch, and the ablation can turn learning off.
    unit_of: Option<HashMap<SwitchId, usize>>,
    stats: SynthStats,
}

impl<'a> Run<'a> {
    pub(crate) fn new(
        problem: &'a UpdateProblem,
        options: &'a SynthesisOptions,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        ctx: &'a mut CheckContext,
    ) -> Self {
        let unit_of = (options.use_counterexamples && options.granularity == Granularity::Switch)
            .then(|| {
                (units.iter().enumerate())
                    .map(|(i, unit)| (unit.switch(), i))
                    .collect()
            });
        Run {
            problem,
            options,
            units,
            encoder,
            ctx,
            store: UnitOrdering::new(units.len()),
            unit_of,
            stats: SynthStats::default(),
        }
    }

    /// The checks every request opens with: the initial configuration (line
    /// 7 of the paper's algorithm; across a churn stream it is usually where
    /// the previous request left the structure, so the sync is an empty
    /// diff), the trivial-update return, then the final configuration — by
    /// diff on the same structure, which is left *at* `final_config`.
    ///
    /// Returns the empty sequence when there is nothing to update.
    pub(crate) fn check_endpoints(&mut self) -> Result<Option<UpdateSequence>, SynthesisError> {
        let problem = self.problem;
        self.sync(&problem.initial);
        if !self.check().holds {
            return Err(SynthesisError::InitialConfigurationViolates);
        }
        if self.units.is_empty() {
            return Ok(Some(UpdateSequence {
                commands: CommandSeq::new(),
                order: Vec::new(),
                stats: std::mem::take(&mut self.stats),
            }));
        }
        // Every complete sequence of a problem whose target violates the
        // specification would end in a violating state.
        self.sync(&problem.final_config);
        if !self.check().holds {
            return Err(SynthesisError::FinalConfigurationViolates);
        }
        Ok(None)
    }

    /// Whether the budget still covers `checks` more charged checks.
    fn affords(&self, checks: usize) -> bool {
        self.stats.charged_calls + checks <= self.options.max_checks
    }

    /// Moves the structure to `config` without checking it; the rewired
    /// states are relabeled by the next check.
    fn sync(&mut self, config: &Configuration) {
        self.ctx.sync_deferred(self.encoder, config);
    }

    /// Applies unit `index` to the current configuration (swUpdate) and
    /// returns the table it replaced.
    fn apply(&mut self, index: usize) -> Table {
        let unit = &self.units[index];
        let new = unit.apply(self.ctx.config());
        self.ctx.step(self.encoder, unit.switch(), new)
    }

    /// Undoes unit `index` — the same step, back to the `old` table — and
    /// *defers* the relabel: the undone states stay in the context's pending
    /// set, consumed by the next physical check, so the undo issues no
    /// query. The schedule still charges it — the paper's search pays a
    /// restore recheck here.
    fn undo(&mut self, index: usize, old: Table) {
        self.ctx.step(self.encoder, self.units[index].switch(), old);
        self.stats.charged_calls += 1;
    }

    /// Checks the configuration the structure stands at.
    fn check(&mut self) -> CheckOutcome {
        let outcome = self.ctx.recheck(&self.problem.spec);
        self.stats.charged_calls += 1;
        self.stats.model_checker_calls += 1;
        self.stats.states_relabeled += outcome.stats.states_labeled;
        outcome
    }

    /// Backtracks from the `failed` check of the configuration with exactly
    /// the units of `applied` applied, learning its counterexample when the
    /// run learns any. Returns `true` if a new clause was learnt.
    fn refute(&mut self, failed: &CheckOutcome, applied: &UnitSet) -> bool {
        self.stats.backtracks += 1;
        match (&self.unit_of, &failed.counterexample) {
            (Some(unit_of), Some(cex)) => {
                self.stats.counterexamples_learnt += 1;
                (self.store).learn_counterexample(&cex.switches, applied, unit_of)
            }
            _ => false,
        }
    }

    /// The verdict of a search that returned `outcome`: the committed order
    /// with its unnecessary waits removed, `NoOrderingExists` with the
    /// store's minimal core rendered in switch terms (empty when the search
    /// exhausted the space before a walk found no order), or
    /// `SearchBudgetExhausted`.
    fn finish(self, outcome: Result<Vec<usize>, Stop>) -> Result<UpdateSequence, SynthesisError> {
        let (units, mut stats) = (self.units, self.stats);
        let solver = self.store.solver_stats();
        stats.sat_constraints = solver.clauses;
        stats.sat_conflicts = solver.conflicts;
        stats.sat_decisions = solver.decisions;
        match outcome {
            Ok(indices) => {
                let order: Vec<UpdateUnit> = indices.iter().map(|&i| units[i].clone()).collect();
                // The careful sequence has a wait between every two updates.
                stats.waits_before_removal = order.len().saturating_sub(1);
                let commands = wait_removal::remove_unnecessary_waits(self.problem, &order);
                stats.waits_after_removal = commands.num_waits();
                Ok(UpdateSequence {
                    commands,
                    order,
                    stats,
                })
            }
            Err(Stop::NoOrder) => Err(SynthesisError::NoOrderingExists {
                core: (self.store.infeasibility_core().iter())
                    .map(|clause| ConflictConstraint::from_clause(clause, units))
                    .collect(),
                stats: Box::new(stats),
            }),
            Err(Stop::Budget) => Err(SynthesisError::SearchBudgetExhausted {
                stats: Box::new(stats),
            }),
        }
    }
}
