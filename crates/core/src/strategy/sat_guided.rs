//! The SAT-guided (CEGIS) ordering strategy.
//!
//! The DFS strategy already derives precedence constraints from every
//! counterexample (§4.2 B) but only uses them *negatively*: it stops when the
//! store has no order left, and discards the order the store does have. This
//! strategy runs the same store forward:
//!
//! 1. **Propose.** Ask the store for the lex-min total order of the update
//!    units consistent with every learnt precedence clause
//!    ([`UnitOrdering::propose`]): one lex-first walk over the applied-unit
//!    sets no learnt clause excludes.
//! 2. **Verify.** Check the candidate sequence with the configured backend
//!    through the first-failing-prefix entry
//!    ([`ModelChecker::check_sequence`](netupd_mc::ModelChecker)): walk the
//!    order, recheck incrementally after every step, stop at the first
//!    violating prefix and extract its counterexample trace — one call per
//!    candidate.
//! 3. **Learn.** Refute the failure: at switch granularity with a
//!    counterexample in hand, the §4.2 B clause "some not-yet-updated switch
//!    on the trace must precede some updated one"; otherwise (rule
//!    granularity, counterexample-free backends, or ablations) the exact
//!    prefix-set blocking clause "some unit outside the failing set must
//!    precede some unit inside it" — sound because unit applications
//!    commute, so the violating configuration is a function of the applied
//!    *set*, not the order.
//!
//! The loop ends with a verified proposal (success) or a store with no order
//! left (infeasible — strictly subsuming the DFS's early termination, which
//! proves infeasibility only from the counterexamples its own search path
//! happens to produce). A proposal satisfies every learnt clause, so none of
//! its prefix sets is blocked yet: the block of its failing prefix is always
//! new and excludes the proposal, so the loop visits each total order at
//! most once and terminates.
//!
//! # Determinism
//!
//! For a fixed problem and options the run is byte-identical: the proposal
//! is a pure function of the learnt clauses (the lex-min rule) and every
//! prefix verdict is a pure function of the prefix (DESIGN.md §5). Every
//! walked prefix is one charged check and one checker call, so
//! `charged_calls == model_checker_calls` on every request, warm or cold.

use std::collections::HashSet;

use netupd_kripke::NetworkKripke;
use netupd_mc::SequenceStep;
use netupd_model::Configuration;

use crate::constraints::UnitOrdering;
use crate::context::CheckContext;
use crate::options::SynthesisOptions;
use crate::problem::UpdateProblem;
use crate::search::{finish_sequence, SynthStats, SynthesisError, UpdateSequence};
use crate::strategy::counterexample_units;
use crate::units::{UnitSet, UpdateUnit};

/// Runs the SAT-guided strategy over the engine's persistent context, after
/// the entry checks (`stats` is what they charged). They leave the structure
/// at the final configuration; every verification walk below starts by
/// syncing to its own base.
pub(crate) fn solve(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    encoder: &NetworkKripke,
    ctx: &mut CheckContext,
    mut stats: SynthStats,
) -> Result<UpdateSequence, SynthesisError> {
    let n = units.len();
    let mut store = UnitOrdering::new(n);
    let unit_of = counterexample_units(options, units);
    // Prefix *sets* already verified to hold. A prefix verdict is a pure
    // function of the applied unit set (unit applications commute and check
    // outcomes are pure functions of the configuration), so a prefix a
    // previous iteration walked through never needs re-checking — and
    // successive proposals share long prefixes, because each learnt clause
    // only perturbs the tail it refuted.
    let mut verified: HashSet<UnitSet> = HashSet::new();
    loop {
        let Some(order) = store.propose() else {
            fill_cegis_stats(&mut stats, &store);
            return Err(SynthesisError::no_ordering(&store, units, stats));
        };

        // Skip the longest already-verified prefix: the walk starts at the
        // first prefix whose unit set has not been checked before. `applied`
        // holds the units of `order[..start]`.
        let mut start = 0;
        let mut applied = UnitSet::new(n);
        while start < n {
            applied.insert(order[start]);
            if !verified.contains(&applied) {
                applied.remove(order[start]);
                break;
            }
            start += 1;
        }

        // A verification pass may need one check per remaining unit; demand
        // the budget up front.
        if stats.charged_calls + (n - start) > options.max_checks {
            fill_cegis_stats(&mut stats, &store);
            return Err(SynthesisError::SearchBudgetExhausted {
                stats: Box::new(stats),
            });
        }

        let first_failure = if start == n {
            // Every prefix of this order was verified in earlier iterations.
            None
        } else {
            // Materialize the candidate: one table-install step per unit,
            // and the configuration the walk starts from (the initial one
            // with the skipped prefix applied).
            let (steps, base) = materialize(problem, units, &order, start);
            let outcome = ctx.verify_sequence(encoder, &base, &problem.spec, &steps[start..]);
            stats.model_checker_calls += outcome.checks;
            stats.states_relabeled += outcome.states_labeled;
            outcome.first_failure.map(|local| {
                (
                    start + local,
                    outcome.counterexample.map(|cex| cex.switches),
                )
            })
        };

        // Record the prefixes this iteration proved to hold.
        let held_through = match &first_failure {
            Some((failing, _)) => *failing,
            None => n,
        };
        for &index in &order[start..held_through] {
            applied.insert(index);
            verified.insert(applied.clone());
        }

        match first_failure {
            None => {
                fill_cegis_stats(&mut stats, &store);
                // Every failing pass charged `failing + 1 - start` as it was
                // learnt; this verifying pass walked `n - start` prefixes.
                stats.charged_calls += n - start;
                return Ok(finish_sequence(problem, options, units, &order, stats));
            }
            Some((failing, cex_switches)) => {
                stats.charged_calls += failing + 1 - start;
                stats.backtracks += 1;
                applied.insert(order[failing]);
                if let (Some(unit_of), Some(cex)) = (&unit_of, &cex_switches) {
                    stats.counterexamples_learnt += 1;
                    store.learn_counterexample(cex, &applied, unit_of);
                }
                // Dual-clause learning: the prefix-set block is learnt
                // alongside the counterexample clause. Both are entailed and
                // exclude the proposal they were learnt from, so the loop
                // strictly progresses. The clause excludes this set too, so
                // the walk leaves the block out; without a clause the block
                // is the whole refutation. A trace through every unit's
                // switch learns the block itself as its clause.
                store.block_prefix_set(&applied);
                debug_assert!(store.excludes(&applied), "a failing prefix is excluded");
            }
        }
    }
}

/// Copies the store's counters and the CEGIS iteration count into the run's
/// statistics. Shared by every exit.
fn fill_cegis_stats(stats: &mut SynthStats, store: &UnitOrdering) {
    store.fill_stats(stats);
    stats.cegis_iterations = store.proposals();
}

/// Builds the candidate's step sequence — one table-install per unit — and
/// the configuration before step `start`, with a single clone of the initial
/// configuration: steps before `start` walk that clone, later ones walk an
/// overlay holding only the switches they touch (a unit reads no table but
/// its own switch's).
fn materialize(
    problem: &UpdateProblem,
    units: &[UpdateUnit],
    order: &[usize],
    start: usize,
) -> (Vec<SequenceStep>, Configuration) {
    let mut base = problem.initial.clone();
    let mut overlay = Configuration::new();
    let mut steps = Vec::with_capacity(order.len());
    for (k, &index) in order.iter().enumerate() {
        let unit = &units[index];
        let switch = unit.switch();
        let config = if k < start {
            &mut base
        } else {
            if overlay.table_ref(switch).is_none() {
                overlay.set_table(switch, base.table(switch));
            }
            &mut overlay
        };
        let table = unit.apply(config);
        config.set_table(switch, table.clone());
        steps.push(SequenceStep { switch, table });
    }
    (steps, base)
}
