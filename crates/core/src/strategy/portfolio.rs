//! The portfolio strategy: DFS and SAT-guided raced under a deterministic
//! budget-ordered winner rule.
//!
//! The two parent strategies have complementary strengths — the SAT-guided
//! CEGIS loop wins on structure-rich instances where a few learnt clauses
//! pin down a verifying order, while the DFS wins where greedy prefix
//! extension succeeds almost immediately (and on instances whose failures
//! produce weak clauses). A portfolio should pay `min` of the two, but a
//! naïve wall-clock race would make the verdict, the committed sequence, and
//! the statistics depend on thread scheduling. This module races the
//! strategies on *logical* time instead:
//!
//! * Each strategy runs as a **resumable sequential lane** ([`DfsLane`],
//!   [`SatLane`]) on the calling thread: a small state machine whose
//!   [`advance`](DfsLane::advance) performs (at most) one charged action of
//!   the standalone strategy's deterministic schedule. A lane's verdict,
//!   committed order, and charge trajectory are byte-identical to its
//!   standalone `threads == 1` run — the DFS lane replays
//!   [`strategy::dfs`](super::dfs) branch for branch (via the same
//!   sync-by-diff [`PrefixExplorer`] the parallel workers use, so failed
//!   candidates cost a diff, not an undo-and-restore recheck), and the SAT
//!   lane replays [`strategy::sat_guided`](super::sat_guided) proposal for
//!   proposal, walking each candidate order one step per advance.
//! * Each lane accrues a **charge**: the model-checker calls the standalone
//!   strategy's sequential schedule issues — exactly what
//!   [`SynthStats::charged_calls`](crate::SynthStats) reports for the parent
//!   strategies, so charges are comparable across strategies and thread
//!   counts.
//! * The lanes advance in **lockstep by charge** (the lane with the smaller
//!   charge moves next; ties advance DFS), until one completes. The other
//!   lane is then granted exactly the budget needed to beat it: DFS wins
//!   unless SAT-guided *completes within a strictly smaller* charge; a lane
//!   that gives up (budget exhausted, infeasibility proven) counts as
//!   completed at its final charge. The winner's verdict and sequence are
//!   committed.
//!
//! Every decision above is a function of the two deterministic charge
//! trajectories — the thread count is never consulted — so the portfolio's
//! result is byte-identical at every thread count, and the winner's charge
//! is `min(charge(DFS), charge(SatGuided))` by construction (the loser
//! either completed at a strictly larger charge or failed to complete within
//! the winner's).
//!
//! [`SynthStats::model_checker_calls`](crate::SynthStats) reports the *real*
//! work of both lanes at the deterministic stop point (the price of the
//! race); `charged_calls` reports the winner's charge; and
//! `portfolio_dfs_budget` / `portfolio_sat_budget` record both lanes'
//! charges for the ablation bench. `checks_per_worker` attributes real
//! checks as `[dfs, sat]` — a lane is one logical worker here.

use std::collections::{BTreeSet, HashSet};

use netupd_kripke::NetworkKripke;
use netupd_mc::SequenceStep;
use netupd_model::{CommandSeq, Configuration};

use crate::checkpoint::CheckpointCache;
use crate::constraints::{UnitOrdering, VisitedSet, WrongSet};
use crate::options::{Granularity, SynthesisOptions};
use crate::parallel::{PrefixExplorer, WorkerContext};
use crate::problem::UpdateProblem;
use crate::search::{
    finish_sequence, updated_switches, SearchMode, SynthStats, SynthesisError, UpdateSequence,
};
use crate::strategy::dfs::early_termination_store;
use crate::strategy::sat_guided::materialize;
use crate::units::UpdateUnit;

/// Runs the portfolio over the engine's two persistent lane contexts. Each
/// lane owns its own context (the lanes explore different configurations, so
/// sharing a structure would thrash the diff-sync); both contexts are handed
/// back on every path, so the next request of a churn stream resumes both
/// lanes warm.
pub(crate) fn solve(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    encoder: &NetworkKripke,
    cache: &CheckpointCache,
    dfs_ctx: &mut Option<WorkerContext>,
    sat_ctx: &mut Option<WorkerContext>,
) -> Result<UpdateSequence, SynthesisError> {
    if units.is_empty() {
        // Nothing to race over: one initial-configuration check decides.
        let mut ctx = dfs_ctx
            .take()
            .unwrap_or_else(|| WorkerContext::fresh(options.backend));
        let outcome = ctx.check_config(encoder, &problem.initial, &problem.spec);
        let states_relabeled = outcome.stats.states_labeled;
        let holds = outcome.holds;
        *dfs_ctx = Some(ctx);
        if !holds {
            return Err(SynthesisError::InitialConfigurationViolates);
        }
        return Ok(UpdateSequence {
            commands: CommandSeq::new(),
            order: Vec::new(),
            stats: SynthStats {
                model_checker_calls: 1,
                states_relabeled,
                checks_per_worker: vec![1, 0],
                charged_calls: 1,
                portfolio_dfs_budget: 1,
                search_mode: SearchMode::Portfolio,
                ..SynthStats::default()
            },
        });
    }

    let mut dfs = DfsLane::new(problem, options, units, encoder, cache, {
        dfs_ctx
            .take()
            .unwrap_or_else(|| WorkerContext::fresh(options.backend))
    });
    let mut sat = SatLane::new(problem, options, units, encoder, cache, {
        sat_ctx
            .take()
            .unwrap_or_else(|| WorkerContext::fresh(options.backend))
    });

    // Lockstep race: advance the cheaper lane (ties advance DFS) until one
    // completes, then grant the other exactly the budget needed to beat it.
    let dfs_wins = loop {
        if dfs.done() {
            while !sat.done() && sat.charge < dfs.charge {
                sat.advance();
            }
            break !(sat.done() && sat.charge < dfs.charge);
        }
        if sat.done() {
            while !dfs.done() && dfs.charge <= sat.charge {
                dfs.advance();
            }
            break dfs.done() && dfs.charge <= sat.charge;
        }
        if dfs.charge <= sat.charge {
            dfs.advance();
        } else {
            sat.advance();
        }
    };

    let mut stats = SynthStats {
        search_mode: SearchMode::Portfolio,
        charged_calls: if dfs_wins { dfs.charge } else { sat.charge },
        portfolio_dfs_budget: dfs.charge,
        portfolio_sat_budget: sat.charge,
        ..SynthStats::default()
    };
    if dfs_wins {
        stats.backtracks = dfs.backtracks;
        stats.counterexamples_learnt = dfs.counterexamples_learnt;
        stats.configurations_pruned = dfs.configurations_pruned;
        dfs.ordering.fill_solver_stats(&mut stats);
    } else {
        stats.backtracks = sat.backtracks;
        stats.counterexamples_learnt = sat.counterexamples_learnt;
        stats.cegis_iterations = sat.store.proposals();
        sat.store.fill_solver_stats(&mut stats);
    }
    let dfs_real = dfs.explorer.calls();
    stats.model_checker_calls = dfs_real + sat.real;
    stats.states_relabeled = dfs.explorer.relabeled() + sat.relabeled;
    stats.checks_per_worker = vec![dfs_real, sat.real];

    let winner_result = if dfs_wins {
        dfs.result.take()
    } else {
        sat.result.take()
    };
    *dfs_ctx = Some(dfs.explorer.into_context());
    *sat_ctx = Some(sat.ctx);

    match winner_result.expect("the winning lane completed") {
        Ok(order) => Ok(finish_sequence(problem, options, units, &order, stats)),
        Err(error) => Err(error),
    }
}

/// The DFS lane: the `OrderUpdate` depth-first search of
/// [`strategy::dfs`](super::dfs) as a resumable state machine over a
/// [`PrefixExplorer`]. The candidate scan, the visited/wrong pruning, the
/// counterexample learning, and the budget accounting mirror the standalone
/// strategy branch for branch, so verdict, order, and charge trajectory are
/// byte-identical to a standalone `threads == 1` DFS run.
struct DfsLane<'a> {
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    explorer: PrefixExplorer<'a>,
    /// The committed prefix (unit indices, in order).
    seq: Vec<usize>,
    applied: BTreeSet<usize>,
    /// One scan cursor per DFS depth (the iterative form of the standalone
    /// recursion).
    cursors: Vec<usize>,
    visited: VisitedSet,
    wrong: WrongSet,
    ordering: UnitOrdering,
    /// The standalone strategy's `model_checker_calls` mirror: +1 per check
    /// and +1 per undo-and-restore recheck the sequential search would pay
    /// (the explorer itself syncs by diff and skips the restores).
    charge: usize,
    phase: Phase,
    result: Option<Result<Vec<usize>, SynthesisError>>,
    backtracks: usize,
    counterexamples_learnt: usize,
    configurations_pruned: usize,
}

/// Lane lifecycle. `Propose`/`Walk` are the SAT lane's CEGIS sub-phases; the
/// DFS lane only uses `Start`/`Probe`/`Search`/`Done`.
#[derive(PartialEq, Eq)]
enum Phase {
    /// Initial-configuration check pending.
    Start,
    /// Final-configuration probe pending.
    Probe,
    /// DFS lane: scanning candidates.
    Search,
    /// SAT lane: asking the solver for the next candidate order.
    Propose,
    /// SAT lane: walking the current candidate one step per advance.
    Walk,
    /// Lane completed (result is set).
    Done,
}

impl<'a> DfsLane<'a> {
    fn new(
        problem: &'a UpdateProblem,
        options: &'a SynthesisOptions,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        cache: &'a CheckpointCache,
        ctx: WorkerContext,
    ) -> Self {
        DfsLane {
            options,
            units,
            explorer: PrefixExplorer::new(problem, units, encoder, cache, ctx),
            seq: Vec::new(),
            applied: BTreeSet::new(),
            cursors: Vec::new(),
            visited: VisitedSet::new(),
            wrong: WrongSet::new(),
            ordering: early_termination_store(options, units),
            charge: 0,
            phase: Phase::Start,
            result: None,
            backtracks: 0,
            counterexamples_learnt: 0,
            configurations_pruned: 0,
        }
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn finish(&mut self, result: Result<Vec<usize>, SynthesisError>) {
        self.result = Some(result);
        self.phase = Phase::Done;
    }

    fn advance(&mut self) {
        match self.phase {
            Phase::Start => {
                let holds = self.explorer.startup_check();
                self.charge += 1;
                if holds {
                    self.phase = Phase::Probe;
                } else {
                    self.finish(Err(SynthesisError::InitialConfigurationViolates));
                }
            }
            Phase::Probe => {
                let outcome = self.explorer.final_probe();
                self.charge += 1;
                if outcome.holds {
                    self.cursors.push(0);
                    self.phase = Phase::Search;
                } else {
                    self.finish(Err(SynthesisError::FinalConfigurationViolates));
                }
            }
            Phase::Search => self.step(),
            Phase::Done => {}
            Phase::Propose | Phase::Walk => unreachable!("SAT-only phases"),
        }
    }

    /// One charged action of the DFS schedule: scan (pruning is free, as in
    /// the standalone search) up to the next real check, perform it, and
    /// either descend or learn-and-backtrack; or, with the depth exhausted,
    /// pay the restore of backtracking to the parent.
    fn step(&mut self) {
        let n = self.units.len();
        if self.applied.len() == n {
            let order = self.seq.clone();
            self.finish(Ok(order));
            return;
        }
        let depth = self.cursors.len() - 1;
        let mut idx = self.cursors[depth];
        while idx < n {
            if self.applied.contains(&idx) {
                idx += 1;
                continue;
            }
            if self.charge >= self.options.max_checks {
                self.finish(Err(SynthesisError::SearchBudgetExhausted));
                return;
            }
            let switch = self.units[idx].switch();
            let mut candidate = self.applied.clone();
            candidate.insert(idx);
            if self.visited.contains(&candidate) {
                self.configurations_pruned += 1;
                idx += 1;
                continue;
            }
            self.visited.insert(&candidate);
            if self.options.use_counterexamples && self.options.granularity == Granularity::Switch {
                let mut updated = updated_switches(self.units, &self.applied);
                updated.insert(switch);
                if self.wrong.excludes(&updated) {
                    self.configurations_pruned += 1;
                    idx += 1;
                    continue;
                }
            }

            let mut prefix = self.seq.clone();
            prefix.push(idx);
            let result = self.explorer.check_prefix(&prefix);
            self.charge += 1;
            self.cursors[depth] = idx + 1;

            if result.holds {
                self.seq.push(idx);
                self.applied.insert(idx);
                self.cursors.push(0);
                return;
            }

            self.backtracks += 1;
            if self.options.use_counterexamples && self.options.granularity == Granularity::Switch {
                if let Some(cex_switches) = &result.cex_switches {
                    // The candidate unit counts as applied while the
                    // counterexample is learnt, as in the standalone search.
                    let updated = updated_switches(self.units, &candidate);
                    self.wrong.learn(cex_switches, &updated);
                    self.counterexamples_learnt += 1;
                    if self.options.early_termination
                        && self
                            .ordering
                            .learn_counterexample(cex_switches, &updated, self.units)
                        && self.ordering.propose().is_none()
                    {
                        // The standalone search aborts before paying the
                        // restore recheck.
                        self.finish(Err(SynthesisError::NoOrderingExists {
                            proven_by_constraints: true,
                        }));
                        return;
                    }
                }
            }
            // The standalone search's undo-and-restore recheck.
            self.charge += 1;
            return;
        }
        // Depth exhausted: backtrack to the parent.
        self.cursors.pop();
        if self.cursors.is_empty() {
            self.finish(Err(SynthesisError::NoOrderingExists {
                proven_by_constraints: false,
            }));
            return;
        }
        let undone = self.seq.pop().expect("one applied unit per depth");
        self.applied.remove(&undone);
        // The restore recheck after an exhausted subtree.
        self.charge += 1;
    }
}

/// The SAT lane: the CEGIS loop of [`strategy::sat_guided`](super::sat_guided)
/// as a resumable state machine. Proposals, the verified-prefix skip, the
/// budget demand, and the clause learning mirror the standalone strategy;
/// the only structural difference is that a candidate order is walked *one
/// step per advance* (each step is one charged check, so the race stays
/// charge-granular) instead of in one batch call — the walk outcome and the
/// learnt clauses are identical either way, because each prefix verdict is a
/// pure function of the prefix.
struct SatLane<'a> {
    problem: &'a UpdateProblem,
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    encoder: &'a NetworkKripke,
    cache: &'a CheckpointCache,
    ctx: WorkerContext,
    store: UnitOrdering,
    /// Prefix *sets* already verified to hold (see the standalone strategy).
    verified: HashSet<BTreeSet<usize>>,
    /// The standalone strategy's deterministic budget mirror (one check per
    /// walked prefix).
    charge: usize,
    /// Real model-checker calls performed.
    real: usize,
    relabeled: usize,
    phase: Phase,
    result: Option<Result<Vec<usize>, SynthesisError>>,
    backtracks: usize,
    counterexamples_learnt: usize,
    // Walk state (meaningful in `Phase::Walk`): the candidate order, its
    // materialized steps, the configuration before step `k`, and the set of
    // units held so far.
    order: Vec<usize>,
    steps: Vec<SequenceStep>,
    base: Configuration,
    k: usize,
    held_set: BTreeSet<usize>,
}

impl<'a> SatLane<'a> {
    fn new(
        problem: &'a UpdateProblem,
        options: &'a SynthesisOptions,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        cache: &'a CheckpointCache,
        ctx: WorkerContext,
    ) -> Self {
        SatLane {
            problem,
            options,
            units,
            encoder,
            cache,
            ctx,
            store: UnitOrdering::new(units.len()),
            verified: HashSet::new(),
            charge: 0,
            real: 0,
            relabeled: 0,
            phase: Phase::Start,
            result: None,
            backtracks: 0,
            counterexamples_learnt: 0,
            order: Vec::new(),
            steps: Vec::new(),
            base: Configuration::new(),
            k: 0,
            held_set: BTreeSet::new(),
        }
    }

    fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn finish(&mut self, result: Result<Vec<usize>, SynthesisError>) {
        self.result = Some(result);
        self.phase = Phase::Done;
    }

    fn advance(&mut self) {
        match self.phase {
            Phase::Start => {
                let outcome = self.ctx.check_config_cached(
                    self.encoder,
                    &self.problem.initial,
                    &self.problem.spec,
                    self.cache,
                );
                self.charge += 1;
                if let Some(outcome) = &outcome {
                    self.real += 1;
                    self.relabeled += outcome.stats.states_labeled;
                }
                if outcome.as_ref().is_none_or(|o| o.holds) {
                    self.phase = Phase::Probe;
                } else {
                    self.finish(Err(SynthesisError::InitialConfigurationViolates));
                }
            }
            Phase::Probe => {
                let outcome = self.ctx.probe_config(
                    self.encoder,
                    &self.problem.final_config,
                    &self.problem.spec,
                );
                self.charge += 1;
                self.real += 1;
                self.relabeled += outcome.stats.states_labeled;
                if outcome.holds {
                    self.phase = Phase::Propose;
                } else {
                    self.finish(Err(SynthesisError::FinalConfigurationViolates));
                }
            }
            Phase::Propose => self.propose(),
            Phase::Walk => self.walk_step(),
            Phase::Done => {}
            Phase::Search => unreachable!("DFS-only phase"),
        }
    }

    /// One CEGIS proposal: charge-free (the SAT solve is not a checker
    /// call), and bounded — every learnt clause excludes the model it was
    /// learnt from, so `Propose` cannot repeat without an intervening
    /// charged `Walk` failure.
    fn propose(&mut self) {
        let n = self.units.len();
        let Some(order) = self.store.propose() else {
            self.finish(Err(SynthesisError::NoOrderingExists {
                proven_by_constraints: true,
            }));
            return;
        };
        // Skip the longest already-verified prefix.
        let mut start = 0;
        let mut prefix_set = BTreeSet::new();
        while start < n {
            prefix_set.insert(order[start]);
            if !self.verified.contains(&prefix_set) {
                break;
            }
            start += 1;
        }

        // The standalone strategy demands the whole pass's budget up front.
        if self.charge + (n - start) > self.options.max_checks {
            self.finish(Err(SynthesisError::SearchBudgetExhausted));
            return;
        }
        if start == n {
            self.finish(Ok(order));
            return;
        }

        let (steps, base) = materialize(self.problem, self.units, &order, start);
        self.held_set = order[..start].iter().copied().collect();
        self.order = order;
        self.steps = steps;
        self.base = base;
        self.k = start;
        self.phase = Phase::Walk;
    }

    /// One step of the candidate walk: check the prefix through step `k`.
    /// After a held step the context already sits at the step's
    /// configuration, so the next call's diff-sync is empty.
    fn walk_step(&mut self) {
        let n = self.units.len();
        let outcome = self.ctx.verify_sequence_cached(
            self.encoder,
            &self.base,
            &self.problem.spec,
            &self.steps[self.k..self.k + 1],
            self.cache,
        );
        self.charge += 1;
        self.real += outcome.checks;
        self.relabeled += outcome.states_labeled;

        if outcome.first_failure.is_none() {
            let step = &self.steps[self.k];
            self.base.set_table(step.switch, step.table.clone());
            self.held_set.insert(self.order[self.k]);
            self.verified.insert(self.held_set.clone());
            self.k += 1;
            if self.k == n {
                let order = std::mem::take(&mut self.order);
                self.finish(Ok(order));
            }
            return;
        }

        // The prefix through step `k` fails: learn exactly what the
        // standalone strategy learns from `first_failure == k`.
        self.backtracks += 1;
        let applied: BTreeSet<usize> = self.order[..=self.k].iter().copied().collect();
        let mut learnt = false;
        if self.options.use_counterexamples && self.options.granularity == Granularity::Switch {
            if let Some(cex) = outcome.counterexample.map(|c| c.switches) {
                self.counterexamples_learnt += 1;
                let updated = updated_switches(self.units, &applied);
                learnt = self.store.learn_counterexample(&cex, &updated, self.units);
            }
        }
        // Dual-clause learning, mirroring the standalone SAT-guided loop
        // exactly — the lanes must issue identical schedules for the
        // budget-ordered race to stay comparable with the standalone runs.
        let blocked = self.store.block_prefix_set(&applied);
        if !learnt && !blocked {
            self.store.block_order(&self.order);
        }
        self.phase = Phase::Propose;
    }
}
