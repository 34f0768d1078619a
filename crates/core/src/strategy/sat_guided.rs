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
//!    moves the DFS is made of: one apply and one check per prefix, stopping
//!    at the first violating prefix and taking its counterexample trace.
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
//!
//! [`UnitOrdering::propose`]: crate::constraints::UnitOrdering::propose

use std::collections::HashSet;

use netupd_model::Configuration;

use super::{Run, Stop};
use crate::problem::UpdateProblem;
use crate::units::{UnitSet, UpdateUnit};

/// Runs the CEGIS loop after the endpoint checks. They leave the structure
/// at the final configuration; every verification walk below starts by
/// syncing to its own base.
pub(super) fn search(run: &mut Run<'_>) -> Result<Vec<usize>, Stop> {
    let n = run.units.len();
    // Prefix *sets* already verified to hold. A prefix verdict is a pure
    // function of the applied unit set (unit applications commute and check
    // outcomes are pure functions of the configuration), so a prefix a
    // previous iteration walked through never needs re-checking — and
    // successive proposals share long prefixes, because each learnt clause
    // only perturbs the tail it refuted.
    let mut verified: HashSet<UnitSet> = HashSet::new();
    loop {
        run.stats.cegis_iterations += 1;
        let order = run.store.propose().ok_or(Stop::NoOrder)?;

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
        if !run.affords(n - start) {
            return Err(Stop::Budget);
        }

        // Walk the candidate from its first unverified prefix: sync to the
        // initial configuration with `order[..start]` applied (its rewired
        // states fold into the first check, so no baseline query is paid),
        // then one apply and one check per unit, stopping at the first
        // violating prefix.
        let mut failure = None;
        if start < n {
            run.sync(&applied_config(run.problem, run.units, &order[..start]));
            for (k, &index) in order.iter().enumerate().skip(start) {
                run.apply(index);
                let outcome = run.check();
                if !outcome.holds {
                    failure = Some((k, outcome));
                    break;
                }
            }
        }

        // Record the prefixes this iteration proved to hold.
        let held_through = failure.as_ref().map_or(n, |(failing, _)| *failing);
        for &index in &order[start..held_through] {
            applied.insert(index);
            verified.insert(applied.clone());
        }

        let Some((failing, outcome)) = failure else {
            return Ok(order);
        };
        // One clause per failure: the counterexample's, else the failing
        // prefix set's.
        applied.insert(order[failing]);
        if !run.refute(&outcome, &applied) {
            run.store.block_prefix_set(&applied);
        }
        debug_assert!(run.store.excludes(&applied), "a failing prefix is excluded");
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
