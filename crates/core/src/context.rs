//! The checking context: one Kripke structure and one checker, kept in step.
//!
//! Every strategy asks the same question — "does this configuration satisfy
//! the specification?" — about configurations that differ from the last one
//! asked about in a handful of switches. A [`CheckContext`] answers it by
//! rewiring its structure one differing switch at a time (`step`; a sync is
//! a loop over it) and rechecking over exactly the rewired states, so the
//! cost of a question follows the size of the diff, not of the network (the
//! paper's Figure 7).
//! The [`UpdateEngine`](crate::UpdateEngine) keeps its context across the
//! requests of a series, which is what makes a churn stream cheap; a new
//! series (a rebuild, or a grown footprint) gets a new context.
//!
//! # Purity
//!
//! A check outcome is a pure function of `(configuration, spec)`: the encoder
//! fixes the state space for a series (the footprint it covers only grows,
//! and a growth starts a new series; updates only rewire transitions, ids
//! are stable) and the labeling engines keep labels in canonical sorted
//! form, so `holds` and the extracted counterexample do not depend on the
//! history of rechecks that led to a configuration. Engine reuse and the
//! deferred-undo discipline of the DFS both rest on this.

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_ltl::Ltl;
use netupd_mc::{Backend, CheckOutcome, ModelChecker};
use netupd_model::{Configuration, SwitchId, Table};

/// The persistent checking state of an engine: a Kripke structure pinned to
/// a known configuration and a checker whose cached labels describe that
/// structure.
///
/// A context lives for one series: the [`UpdateEngine`] keeps it and hands
/// it back in for the next request, which syncs *by diff* from wherever the
/// previous request left the structure instead of re-encoding and
/// re-labeling from scratch. A new series gets a new context, whose first
/// check labels the whole structure — exactly the cold start of a one-shot
/// run.
///
/// [`UpdateEngine`]: crate::UpdateEngine
pub(crate) struct CheckContext {
    /// The search structure.
    kripke: Kripke,
    /// The configuration `kripke` currently encodes.
    config: Configuration,
    /// The search checker; its cached labels always describe `kripke`.
    checker: Box<dyn ModelChecker>,
    /// States of the search structure rewired without an intervening recheck
    /// — deferred syncs and undos leave the checker's labels behind the
    /// structure by exactly this set, which is folded into the next recheck's
    /// change set (the same recheck-from-diff discipline the cross-request
    /// sync uses).
    pending: Vec<StateId>,
}

impl CheckContext {
    /// A context for `backend` whose structure encodes `config`, with
    /// nothing labeled yet: its first recheck is a full check.
    pub(crate) fn new(backend: Backend, encoder: &NetworkKripke, config: &Configuration) -> Self {
        CheckContext {
            kripke: encoder.encode(config),
            config: config.clone(),
            checker: backend.instantiate(),
            pending: Vec::new(),
        }
    }

    /// The configuration the search structure encodes.
    pub(crate) fn config(&self) -> &Configuration {
        &self.config
    }

    /// Rewires one switch of the search structure to `table` without
    /// checking: the one move every walk over configurations is made of —
    /// a DFS apply, a DFS undo, each switch of a sync. The rewired states
    /// join the pending set and are relabeled by the next physical recheck
    /// (the deferred-undo discipline), so a there-and-back costs no query.
    /// Returns the table it replaced.
    pub(crate) fn step(
        &mut self,
        encoder: &NetworkKripke,
        switch: SwitchId,
        table: Table,
    ) -> Table {
        encoder.apply_switch_update_into(&mut self.kripke, switch, &table, &mut self.pending);
        self.config.set_table(switch, table).unwrap_or_default()
    }

    /// Moves the search structure to `config` without checking it: one
    /// [`step`](Self::step) per differing switch.
    pub(crate) fn sync_deferred(&mut self, encoder: &NetworkKripke, config: &Configuration) {
        for switch in self.config.differing_switches(config) {
            self.step(encoder, switch, config.table(switch));
        }
    }

    /// Physically rechecks `spec` over the structure as it stands, relabeling
    /// from the pending set: a full check on a cold context, an incremental
    /// one on a warm context. The outcome is a pure function of the encoded
    /// configuration and `spec` either way (see the module docs on purity).
    /// The pending set is sorted and cleared in place, so its buffer serves
    /// every step of the series.
    pub(crate) fn recheck(&mut self, spec: &Ltl) -> CheckOutcome {
        self.pending.sort_unstable();
        self.pending.dedup();
        let outcome = self.checker.recheck(&self.kripke, spec, &self.pending);
        self.pending.clear();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Granularity, SynthesisOptions};
    use crate::problem::UpdateProblem;
    use crate::strategy::Run;
    use netupd_topo::generators;
    use netupd_topo::scenario::{diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The final-configuration check goes to `final` by diff on the one
    /// structure; wherever the context is taken next — straight on, or back
    /// to `initial` by deferred sync as the DFS does, and then through the
    /// DFS's apply / check / undo of another switch — the next recheck must
    /// report what a cold full check of that configuration reports, verdict
    /// and counterexample state for state.
    #[test]
    fn the_final_check_leaves_the_context_agreeing_with_a_cold_one() {
        let mut rng = StdRng::seed_from_u64(2024);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, PropertyKind::ServiceChain { length: 2 }, &mut rng)
            .expect("fat-trees admit diamond scenarios");
        let problem = UpdateProblem::from_scenario(&scenario);
        let encoder = NetworkKripke::new(problem.topology.clone(), problem.classes.clone())
            .with_ingress_hosts(problem.ingress_hosts.iter().copied());
        let units = crate::units::plan_units(&problem, Granularity::Switch);

        let mut violations = 0;
        let switches = problem.switches_to_update();
        for backend in Backend::ALL {
            let options = SynthesisOptions::with_backend(backend);
            for (i, &sw) in switches.iter().enumerate() {
                let next = problem.initial.updated(sw, problem.final_config.table(sw));
                let cold = CheckContext::new(backend, &encoder, &next).recheck(&problem.spec);
                violations += usize::from(cold.counterexample.is_some());
                for via_initial in [false, true] {
                    let mut ctx = CheckContext::new(backend, &encoder, &problem.initial);
                    let entry =
                        Run::new(&problem, &options, &units, &encoder, &mut ctx).check_endpoints();
                    assert!(matches!(entry, Ok(None)));
                    assert_eq!(ctx.config, problem.final_config);
                    assert!(ctx.pending.is_empty());
                    if via_initial {
                        ctx.sync_deferred(&encoder, &problem.initial);
                        assert!(!ctx.pending.is_empty());
                    }
                    ctx.sync_deferred(&encoder, &next);
                    let warm = ctx.recheck(&problem.spec);
                    assert_eq!(warm.holds, cold.holds, "{backend} {sw}");
                    assert_eq!(warm.counterexample, cold.counterexample, "{backend} {sw}");

                    // One more switch there (checked) and back (the undo: a
                    // step with no recheck of its own).
                    let other = switches[(i + 1) % switches.len()];
                    ctx.step(&encoder, other, problem.final_config.table(other));
                    ctx.recheck(&problem.spec);
                    ctx.step(&encoder, other, problem.initial.table(other));
                    assert!(ctx.config().differing_switches(&next).is_empty());
                    assert!(!ctx.pending.is_empty());
                    let undone = ctx.recheck(&problem.spec);
                    assert_eq!(undone.holds, cold.holds, "{backend} {sw}");
                    assert_eq!(undone.counterexample, cold.counterexample, "{backend} {sw}");
                }
            }
        }
        assert!(violations > 0, "no intermediate configuration violated");
    }
}
