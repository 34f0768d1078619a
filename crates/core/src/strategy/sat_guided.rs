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
//! 2. **Verify.** Walk the candidate with the configured backend by the
//!    move the DFS is made of: one `step` and one incremental `recheck` per
//!    prefix, stopping at the first violating prefix and taking its
//!    counterexample trace.
//! 3. **Learn.** Refute the failure with one clause: at switch granularity
//!    with a counterexample in hand, the §4.2 B clause "some not-yet-updated
//!    switch on the trace must precede some updated one"; otherwise (rule
//!    granularity, counterexample-free backends, or ablations) the
//!    prefix-set clause "some unit outside the failing set must precede some
//!    unit inside it" — sound because unit applications commute, so the
//!    violating configuration is a function of the applied *set*, not the
//!    order.
//!
//! The loop ends with a verified proposal (success) or a store with no order
//! left (infeasible — strictly subsuming the DFS's early termination, which
//! proves infeasibility only from the counterexamples its own search path
//! happens to produce). A proposal passes through no excluded set, so the
//! clause learnt from its failing prefix is always new and excludes the
//! proposal: the loop visits each total order at most once and terminates.
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
        stats.cegis_iterations += 1;
        let Some(order) = store.propose() else {
            store.fill_stats(&mut stats);
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
            store.fill_stats(&mut stats);
            return Err(SynthesisError::SearchBudgetExhausted {
                stats: Box::new(stats),
            });
        }

        // Walk the candidate from its first unverified prefix: sync to the
        // initial configuration with `order[..start]` applied (its rewired
        // states fold into the first recheck, so no baseline query is
        // paid), then one step and one recheck per unit, stopping at the
        // first violating prefix.
        let mut first_failure = None;
        if start < n {
            ctx.sync_deferred(encoder, &applied_config(problem, units, &order[..start]));
            for (k, &index) in order.iter().enumerate().skip(start) {
                let unit = &units[index];
                let table = unit.apply(ctx.config());
                ctx.step(encoder, unit.switch(), table);
                let outcome = ctx.recheck(&problem.spec);
                stats.model_checker_calls += 1;
                stats.states_relabeled += outcome.stats.states_labeled;
                if !outcome.holds {
                    first_failure = Some((k, outcome.counterexample.map(|cex| cex.switches)));
                    break;
                }
            }
        }

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
                store.fill_stats(&mut stats);
                // Every failing pass charged `failing + 1 - start` as it was
                // learnt; this verifying pass walked `n - start` prefixes.
                stats.charged_calls += n - start;
                return Ok(finish_sequence(problem, units, &order, stats));
            }
            Some((failing, cex_switches)) => {
                stats.charged_calls += failing + 1 - start;
                stats.backtracks += 1;
                applied.insert(order[failing]);
                // One clause per failure: the counterexample's, else the
                // failing prefix set's.
                let learnt = match (&unit_of, &cex_switches) {
                    (Some(unit_of), Some(cex)) => {
                        stats.counterexamples_learnt += 1;
                        store.learn_counterexample(cex, &applied, unit_of)
                    }
                    _ => false,
                };
                if !learnt {
                    store.block_prefix_set(&applied);
                }
                debug_assert!(store.excludes(&applied), "a failing prefix is excluded");
            }
        }
    }
}

/// The initial configuration with the units of `prefix` applied in order.
fn applied_config(
    problem: &UpdateProblem,
    units: &[UpdateUnit],
    prefix: &[usize],
) -> Configuration {
    let mut config = problem.initial.clone();
    for &index in prefix {
        let unit = &units[index];
        let table = unit.apply(&config);
        config.set_table(unit.switch(), table);
    }
    config
}
