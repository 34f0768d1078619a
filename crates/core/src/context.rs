//! The checking context: one Kripke structure and one checker, kept in step.
//!
//! Every strategy asks the same question — "does this configuration satisfy
//! the specification?" — about configurations that differ from the last one
//! asked about in a handful of switches. A [`CheckContext`] answers it by
//! rewiring its structure one differing switch at a time (`diff_sync`) and
//! rechecking over exactly the rewired states, so the cost of a question
//! follows the size of the diff, not of the network (the paper's Figure 7).
//! The [`UpdateEngine`](crate::UpdateEngine) keeps its context across
//! requests, which is what makes a churn stream cheap.
//!
//! # Purity
//!
//! A check outcome is a pure function of `(configuration, spec)`: the encoder
//! fixes the state space up front (updates only rewire transitions, ids are
//! stable) and the labeling engines keep labels in canonical sorted form, so
//! `holds` and the extracted counterexample do not depend on the history of
//! rechecks that led to a configuration. Engine reuse, the checkpoint cache
//! and the deferred-undo discipline of the DFS all rest on this.

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_ltl::Ltl;
use netupd_mc::{Backend, CheckOutcome, ModelChecker, SequenceOutcome, SequenceStep};
use netupd_model::Configuration;

use crate::checkpoint::CheckpointCache;

/// The persistent checking state of an engine: a Kripke structure pinned to
/// a known configuration, a checker whose cached labels describe that
/// structure, and the analogous pair for the final-configuration probe.
///
/// A context outlives a single request: the [`UpdateEngine`] keeps it and
/// hands it back in for the next request, which syncs *by diff* from wherever
/// the previous request left the structure instead of re-encoding and
/// re-labeling from scratch. A freshly created context (`kripke: None`)
/// reproduces the cold-start behavior of a one-shot run exactly.
///
/// [`UpdateEngine`]: crate::UpdateEngine
pub(crate) struct CheckContext {
    /// The search structure, encoded lazily on first use.
    kripke: Option<Kripke>,
    /// The configuration `kripke` currently encodes (meaningful only while
    /// `kripke` is `Some`).
    config: Configuration,
    /// The search checker; its cached labels always describe `kripke`.
    checker: Box<dyn ModelChecker>,
    /// The final-configuration probe structure, encoded lazily.
    probe_kripke: Option<Kripke>,
    /// The configuration `probe_kripke` currently encodes.
    probe_config: Configuration,
    /// The probe checker (kept separate so probing never disturbs the search
    /// checker's incremental labels — the same isolation the one-shot path's
    /// fresh probe instance provided).
    probe_checker: Box<dyn ModelChecker>,
    /// States of the search structure rewired without an intervening recheck
    /// — checkpoint verdict-hits and deferred undos leave the checker's
    /// labels behind the structure by exactly this set, which is folded into
    /// the next recheck's change set (the same recheck-from-diff discipline
    /// the cross-request sync uses).
    pending: Vec<StateId>,
}

impl CheckContext {
    /// A cold context for `backend`: nothing encoded, nothing labeled.
    pub(crate) fn fresh(backend: Backend) -> Self {
        CheckContext {
            kripke: None,
            config: Configuration::new(),
            checker: backend.instantiate(),
            probe_kripke: None,
            probe_config: Configuration::new(),
            probe_checker: backend.instantiate(),
            pending: Vec::new(),
        }
    }

    /// Ensures the search structure encodes `config`, syncing by per-switch
    /// diff when one already exists. Returns the states whose wiring changed
    /// (empty after a fresh encode, where the checker holds no labels yet and
    /// the next recheck falls back to a full check anyway).
    fn sync_main(&mut self, encoder: &NetworkKripke, config: &Configuration) -> Vec<StateId> {
        let changed = match &mut self.kripke {
            None => {
                self.kripke = Some(encoder.encode(config));
                Vec::new()
            }
            Some(kripke) => diff_sync(encoder, kripke, &self.config, config),
        };
        self.config = config.clone();
        changed
    }

    /// Syncs the search structure to `config` and (re)checks `spec` over it,
    /// through the checkpoint cache: returns `None` when the configuration is
    /// checkpointed as passing (no model-checker call — the sync's rewired
    /// states either vanish under a snapshot restore or stay pending for the
    /// next physical recheck), and `Some(outcome)` when a physical check ran:
    /// a full check on a cold context, an incremental recheck over the diff
    /// on a warm one. The outcome is a pure function of `(config, spec)`
    /// either way (see the module docs on purity). A passing physical check
    /// is published back to the cache.
    pub(crate) fn check_config_cached(
        &mut self,
        encoder: &NetworkKripke,
        config: &Configuration,
        spec: &Ltl,
        cache: &CheckpointCache,
    ) -> Option<CheckOutcome> {
        let mut changed = std::mem::take(&mut self.pending);
        changed.extend(self.sync_main(encoder, config));
        if let Some(snapshot) = cache.lookup(spec, config) {
            if snapshot.as_ref().is_some_and(|s| self.checker.restore(s)) {
                cache.note_restore();
            } else {
                self.pending = changed;
            }
            return None;
        }
        changed.sort_unstable();
        changed.dedup();
        let kripke = self.kripke.as_ref().expect("synced above");
        let outcome = self.checker.recheck(kripke, spec, &changed);
        if outcome.holds {
            cache.publish(spec, config, || self.checker.snapshot());
        }
        Some(outcome)
    }

    /// The probe-side, uncached analogue of
    /// [`CheckContext::check_config_cached`].
    pub(crate) fn probe_config(
        &mut self,
        encoder: &NetworkKripke,
        config: &Configuration,
        spec: &Ltl,
    ) -> CheckOutcome {
        let changed = match &mut self.probe_kripke {
            None => {
                self.probe_kripke = Some(encoder.encode(config));
                Vec::new()
            }
            Some(kripke) => diff_sync(encoder, kripke, &self.probe_config, config),
        };
        self.probe_config = config.clone();
        let kripke = self.probe_kripke.as_ref().expect("synced above");
        self.probe_checker.recheck(kripke, spec, &changed)
    }

    /// The mutable search structure, checker, and pending change set, for
    /// callers (the sequential DFS) that drive them directly. The caller must
    /// record the configuration it leaves the structure at via
    /// [`CheckContext::set_config`], and leave any states it rewired without
    /// rechecking in the pending set.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been encoded yet (call
    /// [`CheckContext::check_config_cached`] first).
    pub(crate) fn checking_parts_mut(
        &mut self,
    ) -> (&mut Kripke, &mut dyn ModelChecker, &mut Vec<StateId>) {
        (
            self.kripke.as_mut().expect("structure encoded"),
            self.checker.as_mut(),
            &mut self.pending,
        )
    }

    /// Records the configuration the search structure was left at.
    pub(crate) fn set_config(&mut self, config: Configuration) {
        self.config = config;
    }

    /// Verifies an update-step sequence starting from `base` on the search
    /// structure: syncs to `base` by per-switch diff (or cold-encodes it),
    /// then walks the steps through the checker's first-failing-prefix entry
    /// ([`ModelChecker::check_sequence`]), folding the sync's rewired states
    /// into the first recheck so no separate baseline query is paid.
    ///
    /// The context's tracked configuration is updated to wherever the walk
    /// stopped (base plus the applied steps), which is what lets the next
    /// CEGIS iteration (or the next request) sync by diff again.
    pub(crate) fn verify_sequence(
        &mut self,
        encoder: &NetworkKripke,
        base: &Configuration,
        spec: &Ltl,
        steps: &[SequenceStep],
    ) -> SequenceOutcome {
        let mut carried = std::mem::take(&mut self.pending);
        carried.extend(self.sync_main(encoder, base));
        let kripke = self.kripke.as_mut().expect("synced above");
        let outcome = self
            .checker
            .check_sequence(encoder, kripke, spec, &carried, steps);
        // `sync_main` left `self.config` at `base`; advance it by the steps
        // the walk actually applied.
        for step in &steps[..outcome.steps_applied] {
            self.config.set_table(step.switch, step.table.clone());
        }
        outcome
    }

    /// [`CheckContext::verify_sequence`] through the checkpoint cache: each
    /// step's configuration is looked up first, and a known-passing one is
    /// skipped — its rewired states join the pending set consumed by the next
    /// physical recheck (or are discharged entirely when the checkpoint's
    /// snapshot restores). Verdicts are pure functions of `(config, spec)`,
    /// so the outcome — first failure, counterexample, steps applied — is
    /// byte-identical to the uncached walk; only `checks`/`states_labeled`
    /// (work counters) shrink.
    pub(crate) fn verify_sequence_cached(
        &mut self,
        encoder: &NetworkKripke,
        base: &Configuration,
        spec: &Ltl,
        steps: &[SequenceStep],
        cache: &CheckpointCache,
    ) -> SequenceOutcome {
        if !cache.enabled() {
            return self.verify_sequence(encoder, base, spec, steps);
        }
        let mut carried = std::mem::take(&mut self.pending);
        carried.extend(self.sync_main(encoder, base));
        let kripke = self.kripke.as_mut().expect("synced above");
        let mut checks = 0;
        let mut states_labeled = 0;
        for (index, step) in steps.iter().enumerate() {
            let changed = encoder.apply_switch_update(kripke, step.switch, &step.table);
            self.config.set_table(step.switch, step.table.clone());
            if let Some(snapshot) = cache.lookup(spec, &self.config) {
                if snapshot.as_ref().is_some_and(|s| self.checker.restore(s)) {
                    cache.note_restore();
                    carried.clear();
                } else {
                    carried.extend(changed);
                }
                continue;
            }
            let mut change_set = std::mem::take(&mut carried);
            change_set.extend(changed);
            change_set.sort_unstable();
            change_set.dedup();
            let outcome = self.checker.recheck(kripke, spec, &change_set);
            checks += 1;
            states_labeled += outcome.stats.states_labeled;
            if !outcome.holds {
                self.pending = carried;
                return SequenceOutcome {
                    first_failure: Some(index),
                    counterexample: outcome.counterexample,
                    steps_applied: index + 1,
                    checks,
                    states_labeled,
                };
            }
            cache.publish(spec, &self.config, || self.checker.snapshot());
        }
        self.pending = carried;
        SequenceOutcome {
            first_failure: None,
            counterexample: None,
            steps_applied: steps.len(),
            checks,
            states_labeled,
        }
    }

    /// Resets the context for a new `(topology, classes)` series: the
    /// structures are dropped (their state space no longer applies) while the
    /// checkers are kept and told to forget their cached results
    /// ([`ModelChecker::begin_query`]), recycling their backing storage.
    pub(crate) fn begin_new_series(&mut self) {
        self.kripke = None;
        self.probe_kripke = None;
        self.config = Configuration::new();
        self.probe_config = Configuration::new();
        self.pending.clear();
        self.checker.begin_query();
        self.probe_checker.begin_query();
    }
}

/// Rewires `kripke` (currently encoding `from`) to encode `to`, one differing
/// switch at a time, returning the sorted, deduplicated set of states whose
/// wiring changed.
fn diff_sync(
    encoder: &NetworkKripke,
    kripke: &mut Kripke,
    from: &Configuration,
    to: &Configuration,
) -> Vec<StateId> {
    let mut changed = Vec::new();
    for sw in from.differing_switches(to) {
        changed.extend(encoder.apply_switch_update(kripke, sw, &to.table(sw)));
    }
    changed.sort_unstable();
    changed.dedup();
    changed
}
