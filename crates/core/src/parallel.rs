//! Parallel ordering search: the `OrderUpdate` DFS fanned out across worker
//! threads.
//!
//! # Architecture
//!
//! The parallel mode keeps the *search schedule* — which candidate orderings
//! are considered, in which order, and what is learnt from each — exactly as
//! the sequential search defines it, and moves the *model checking* onto a
//! pool of workers:
//!
//! * **Workers.** Each of the `threads` workers owns a full checking context:
//!   its own [`Kripke`] structure (encoded once at startup) and its own
//!   checker instance ([`Backend::instantiate`](netupd_mc::Backend) — the
//!   backends are `Send` and cheaply instantiable per worker). A task names
//!   an *ordered prefix* of unit indices; the worker syncs its structure to
//!   that prefix by undoing/applying the differing units and answers with one
//!   `recheck` over the union of changed states.
//! * **Work-stealing scheduler.** Tasks are routed into per-worker
//!   double-ended queues (`TaskPool`) by a locality cost model (tasks chase
//!   the worker whose structure is cheapest to sync), but an idle worker
//!   *steals* from the back of its siblings' queues instead of sleeping, so a
//!   routing misprediction costs one extra sync rather than an idle core.
//!   Steals change only *which context* answers a check, never the answer
//!   (check outcomes are pure functions of the prefix, see below).
//! * **Speculation.** The calling thread replays the sequential DFS control
//!   flow byte for byte — the same visited-set, wrong-set, SAT-constraint,
//!   and budget bookkeeping — but instead of calling a checker it *fetches*
//!   each needed check result from the pool. While blocked it keeps the pool
//!   busy with speculative tasks: the prefixes an **incremental predictor**
//!   (`Predictor`) expects the replay to need next. The predictor simulates
//!   the replay forward assuming unknown checks hold (the common case) and
//!   keeps its simulation state *across* scheduler rounds; it only reseeds
//!   from the real replay state when an assumption is refuted (a consumed
//!   check failed, or the replay backtracked past a frame).
//! * **Sharded prune-log.** Counterexample formulas and refuted ("dead")
//!   prefixes learnt by any worker are published to that worker's own
//!   append-only log shard (`SharedPruneSet`); a shard's mutex is touched
//!   only by its owner on publish and by readers that observed (via the
//!   shard's atomic publish counter) entries they have not yet absorbed.
//!   Each worker keeps a private `PruneCursor` — a per-shard read position,
//!   a materialized wrong-set, and a packed hash-set of dead prefixes — and
//!   consults it before executing a *speculative* task, skipping tasks whose
//!   configuration is already refuted. Mandatory fetches are never skipped,
//!   which preserves the deterministic schedule.
//!
//! # Determinism
//!
//! The committed [`UpdateSequence`] (commands, unit order) and the verdict
//! are identical for every thread count, because
//!
//! 1. the replay consumes check results in exactly the sequential order, and
//! 2. a check outcome is a pure function of the ordered prefix: the state
//!    space of the structure is fixed by the encoder (updates only rewire
//!    transitions, ids are stable) and the labeling engines keep labels in
//!    canonical sorted form, so `holds` and the extracted counterexample do
//!    not depend on the history of rechecks that led to a configuration — or
//!    on which worker's context performed them.
//!
//! Work counters ([`SynthStats::model_checker_calls`],
//! [`SynthStats::states_relabeled`], [`SynthStats::checks_per_worker`], and
//! the scheduler counters `tasks_stolen` / `speculative_*` /
//! `prune_*`) report the real — partly speculative — work performed and
//! therefore vary with thread count; the schedule counters (and
//! [`SynthStats::charged_calls`], the sequential-equivalent schedule cost)
//! match the sequential run, which is what
//! [`SynthStats::schedule_view`](crate::SynthStats) normalizes to.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_ltl::Ltl;
use netupd_mc::{Backend, CheckOutcome, ModelChecker, SequenceOutcome, SequenceStep};
use netupd_model::{Configuration, SwitchId, Table};

use crate::checkpoint::CheckpointCache;
use crate::constraints::{UnitOrdering, VisitedSet, WrongSet};
use crate::options::{Granularity, SynthesisOptions};
use crate::problem::UpdateProblem;
use crate::search::{
    finish_sequence, updated_switches, SearchMode, SynthStats, SynthesisError, UpdateSequence,
};
use crate::strategy::dfs::early_termination_store;
use crate::units::UpdateUnit;

/// Upper bound on simulated replay steps per speculation round, so
/// prediction stays negligible next to a model-checker call.
const PREDICT_STEP_LIMIT: usize = 512;

/// What [`Scheduler::shutdown`] hands back: per-worker call counts, total
/// states relabeled, and the persistent contexts returned by the workers.
type ShutdownReport = (Vec<usize>, usize, Vec<(usize, Box<WorkerContext>)>);

/// The persistent checking state of one worker (or of the engine's
/// sequential path): a Kripke structure pinned to a known configuration, a
/// checker whose cached labels describe that structure, and the analogous
/// pair for the final-configuration probe.
///
/// A context outlives a single request: the [`UpdateEngine`] keeps one per
/// worker slot and hands them back in for the next request, so workers sync
/// *by diff* from wherever the previous request left their structure instead
/// of re-encoding and re-labeling from scratch. A freshly created context
/// (`kripke: None`) reproduces the cold-start behavior of a one-shot run
/// exactly.
///
/// [`UpdateEngine`]: crate::UpdateEngine
pub(crate) struct WorkerContext {
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

impl WorkerContext {
    /// A cold context for `backend`: nothing encoded, nothing labeled.
    pub(crate) fn fresh(backend: Backend) -> Self {
        WorkerContext {
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

    /// Syncs the search structure to `config` and (re)checks `spec` over it:
    /// a full check on a cold context, an incremental recheck over the diff
    /// on a warm one. The outcome is a pure function of `(config, spec)`
    /// either way (see the module docs on determinism).
    pub(crate) fn check_config(
        &mut self,
        encoder: &NetworkKripke,
        config: &Configuration,
        spec: &Ltl,
    ) -> CheckOutcome {
        let mut changed = std::mem::take(&mut self.pending);
        changed.extend(self.sync_main(encoder, config));
        changed.sort_unstable();
        changed.dedup();
        let kripke = self.kripke.as_ref().expect("synced above");
        self.checker.recheck(kripke, spec, &changed)
    }

    /// [`WorkerContext::check_config`] through the checkpoint cache: returns
    /// `None` when the configuration is checkpointed as passing (no
    /// model-checker call — the sync's rewired states either vanish under a
    /// snapshot restore or stay pending for the next physical recheck), and
    /// `Some(outcome)` when a physical check ran. A passing physical check is
    /// published back to the cache.
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

    /// The probe-side analogue of [`WorkerContext::check_config`].
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
    /// [`WorkerContext::set_config`], and leave any states it rewired without
    /// rechecking in the pending set.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been encoded yet (call
    /// [`WorkerContext::check_config`] first).
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

    /// [`WorkerContext::verify_sequence`] through the checkpoint cache: each
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

// ---- prefix explorer -------------------------------------------------------

/// A [`WorkerContext`] plus the per-request bookkeeping needed to sync it to
/// any ordered prefix of the request's units: the prefix currently applied,
/// the table each applied unit replaced (so undoing restores exact state),
/// and the states carried over from the cross-request sync.
///
/// This is the sync-by-diff substrate shared by the parallel [`Worker`]s and
/// the portfolio's inline DFS lane
/// ([`strategy::portfolio`](crate::strategy)): both answer "does the
/// configuration at this prefix satisfy the spec?" with one incremental
/// recheck over exactly the states the prefix change rewired.
pub(crate) struct PrefixExplorer<'a> {
    problem: &'a UpdateProblem,
    units: &'a [UpdateUnit],
    encoder: &'a NetworkKripke,
    /// The shared checkpoint cache: known-passing prefix configurations are
    /// taken from it without a model-checker call, and every passing recheck
    /// is published back.
    cache: &'a CheckpointCache,
    /// The persistent context. Its structure may still encode the *previous*
    /// request's configuration; [`PrefixExplorer::ensure_synced`] rewires it
    /// to this request's initial configuration on first use (lazily, so idle
    /// workers on undersubscribed machines never pay for a structure they
    /// will not use).
    ctx: WorkerContext,
    /// Whether `ctx` has been synced to this request's initial configuration.
    synced: bool,
    /// States rewired by the cross-request sync, not yet seen by the
    /// checker; merged into the change set of the next recheck.
    carried: Vec<StateId>,
    /// The ordered prefix currently applied to the context (on top of this
    /// request's initial configuration).
    seq: Vec<usize>,
    /// Per applied unit, the table its switch held before the unit (a stack
    /// parallel to `seq`, so undoing restores exact table states).
    saved: Vec<Table>,
    applied: BTreeSet<usize>,
    calls: usize,
    relabeled: usize,
}

impl<'a> PrefixExplorer<'a> {
    pub(crate) fn new(
        problem: &'a UpdateProblem,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        cache: &'a CheckpointCache,
        ctx: WorkerContext,
    ) -> Self {
        PrefixExplorer {
            problem,
            units,
            encoder,
            cache,
            ctx,
            synced: false,
            carried: Vec::new(),
            seq: Vec::new(),
            saved: Vec::new(),
            applied: BTreeSet::new(),
            calls: 0,
            relabeled: 0,
        }
    }

    /// Real model-checker calls performed so far.
    pub(crate) fn calls(&self) -> usize {
        self.calls
    }

    /// States (re)labeled so far.
    pub(crate) fn relabeled(&self) -> usize {
        self.relabeled
    }

    /// The set of units currently applied to the context.
    pub(crate) fn applied(&self) -> &BTreeSet<usize> {
        &self.applied
    }

    /// Hands the persistent context back (for return to the engine's slots),
    /// folding any still-unconsumed carried states into its pending set so
    /// the next request's first recheck sees them.
    pub(crate) fn into_context(mut self) -> WorkerContext {
        self.ctx.pending.append(&mut self.carried);
        self.ctx
    }

    /// Syncs the persistent context to this request's initial configuration
    /// (first use only): a cold context encodes it, a warm one is rewired by
    /// per-switch diff from wherever the previous request left it, with the
    /// rewired states carried into the next recheck's change set.
    fn ensure_synced(&mut self) {
        if self.synced {
            return;
        }
        self.synced = true;
        self.carried = std::mem::take(&mut self.ctx.pending);
        let synced = self.ctx.sync_main(self.encoder, &self.problem.initial);
        self.carried.extend(synced);
    }

    /// The search's initial-configuration check, performed on the synced
    /// context. Returns whether the specification holds.
    pub(crate) fn startup_check(&mut self) -> bool {
        self.ensure_synced();
        if let Some(snapshot) = self.cache.lookup(&self.problem.spec, &self.ctx.config) {
            if snapshot
                .as_ref()
                .is_some_and(|s| self.ctx.checker.restore(s))
            {
                self.cache.note_restore();
                self.carried.clear();
            }
            return true;
        }
        let mut changed = std::mem::take(&mut self.carried);
        changed.sort_unstable();
        changed.dedup();
        let kripke = self.ctx.kripke.as_ref().expect("synced above");
        let outcome = self
            .ctx
            .checker
            .recheck(kripke, &self.problem.spec, &changed);
        self.calls += 1;
        self.relabeled += outcome.stats.states_labeled;
        if outcome.holds {
            self.cache
                .publish(&self.problem.spec, &self.ctx.config, || {
                    self.ctx.checker.snapshot()
                });
        }
        outcome.holds
    }

    /// Syncs the structure to `target` (undoing and applying the differing
    /// units) and rechecks over the union of changed states — including any
    /// states carried over from the cross-request sync.
    pub(crate) fn check_prefix(&mut self, target: &[usize]) -> CheckLite {
        self.ensure_synced();
        let kripke = self.ctx.kripke.as_mut().expect("synced above");
        let encoder = self.encoder;
        let mut common = 0;
        while common < self.seq.len() && common < target.len() && self.seq[common] == target[common]
        {
            common += 1;
        }
        let mut changed: Vec<StateId> = std::mem::take(&mut self.carried);
        while self.seq.len() > common {
            let idx = self.seq.pop().expect("non-empty");
            let old = self.saved.pop().expect("saved table per applied unit");
            let switch = self.units[idx].switch();
            self.applied.remove(&idx);
            self.ctx.config.set_table(switch, old.clone());
            changed.extend(encoder.apply_switch_update(kripke, switch, &old));
        }
        for &idx in &target[common..] {
            let unit = &self.units[idx];
            let switch = unit.switch();
            let old = self.ctx.config.table(switch);
            let new = unit.apply(&self.ctx.config);
            self.seq.push(idx);
            self.saved.push(old);
            self.applied.insert(idx);
            self.ctx.config.set_table(switch, new.clone());
            changed.extend(encoder.apply_switch_update(kripke, switch, &new));
        }
        changed.sort_unstable();
        changed.dedup();

        if let Some(snapshot) = self.cache.lookup(&self.problem.spec, &self.ctx.config) {
            // Known-passing configuration: no model-checker call. Either the
            // snapshot restores the checker to full consistency, or the
            // rewired states stay carried for the next physical recheck.
            if snapshot
                .as_ref()
                .is_some_and(|s| self.ctx.checker.restore(s))
            {
                self.cache.note_restore();
            } else {
                self.carried = changed;
            }
            return CheckLite {
                holds: true,
                cex_switches: None,
            };
        }
        let outcome = self
            .ctx
            .checker
            .recheck(kripke, &self.problem.spec, &changed);
        self.calls += 1;
        self.relabeled += outcome.stats.states_labeled;
        if outcome.holds {
            self.cache
                .publish(&self.problem.spec, &self.ctx.config, || {
                    self.ctx.checker.snapshot()
                });
        }
        CheckLite {
            holds: outcome.holds,
            cex_switches: outcome.counterexample.map(|c| c.switches),
        }
    }

    /// The search's final-configuration probe, on the context's dedicated
    /// probe structure and checker (so the search checker's incremental
    /// labels stay untouched). A cold probe context encodes and fully checks
    /// — exactly the one-shot path's fresh-instance probe — while a warm one
    /// syncs by diff from the previous request's final configuration.
    pub(crate) fn final_probe(&mut self) -> CheckLite {
        let outcome =
            self.ctx
                .probe_config(self.encoder, &self.problem.final_config, &self.problem.spec);
        self.calls += 1;
        self.relabeled += outcome.stats.states_labeled;
        CheckLite {
            holds: outcome.holds,
            cex_switches: outcome.counterexample.map(|c| c.switches),
        }
    }
}

// ---- work-stealing task pool -----------------------------------------------

/// A std-only work-stealing pool: one double-ended queue per worker, a
/// generation counter, and a condvar.
///
/// Producers [`push`](TaskPool::push) to a specific worker's queue (the
/// scheduler routes by sync locality); a worker [`pop`](TaskPool::pop)s from
/// the *front* of its own queue (preserving the scheduler's issue order, which
/// the locality routing relies on) and, when empty, steals from the *back* of
/// a sibling's queue — the classic stealing end, taking the task its owner
/// would reach last.
///
/// The lost-wakeup hazard of "check queues, then sleep" is closed by the
/// generation counter: `pop` snapshots the generation *before* scanning the
/// queues and only blocks if no push has bumped it since, so a push that
/// lands mid-scan is never slept through.
struct TaskPool<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    generation: Mutex<u64>,
    available: Condvar,
    closed: AtomicBool,
    stolen: AtomicUsize,
}

impl<T> TaskPool<T> {
    fn new(workers: usize) -> Self {
        TaskPool {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            generation: Mutex::new(0),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            stolen: AtomicUsize::new(0),
        }
    }

    /// Appends a task to `worker`'s queue and wakes every sleeping worker
    /// (any of them may legitimately steal it).
    fn push(&self, worker: usize, task: T) {
        self.queues[worker]
            .lock()
            .expect("task queue lock")
            .push_back(task);
        *self.generation.lock().expect("generation lock") += 1;
        self.available.notify_all();
    }

    /// Marks the pool closed: workers drain the remaining queued tasks and
    /// then observe `None` instead of blocking.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        *self.generation.lock().expect("generation lock") += 1;
        self.available.notify_all();
    }

    /// Next task for `worker`: its own queue front first, then a steal from
    /// the back of a sibling's queue, then (pool still open) a blocking wait.
    /// Returns `None` once the pool is closed and every queue is empty.
    fn pop(&self, worker: usize) -> Option<T> {
        loop {
            let snapshot = *self.generation.lock().expect("generation lock");
            if let Some(task) = self.queues[worker]
                .lock()
                .expect("task queue lock")
                .pop_front()
            {
                return Some(task);
            }
            for offset in 1..self.queues.len() {
                let victim = (worker + offset) % self.queues.len();
                if let Some(task) = self.queues[victim]
                    .lock()
                    .expect("task queue lock")
                    .pop_back()
                {
                    self.stolen.fetch_add(1, Ordering::Relaxed);
                    return Some(task);
                }
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let guard = self.generation.lock().expect("generation lock");
            if *guard == snapshot {
                drop(
                    self.available
                        .wait(guard)
                        .expect("generation lock poisoned"),
                );
            }
        }
    }

    /// Total tasks taken from a queue other than their routed worker's.
    fn stolen(&self) -> usize {
        self.stolen.load(Ordering::Relaxed)
    }
}

/// Outstanding tasks per worker the scheduler aims for: one executing, one
/// queued.
const TASKS_PER_WORKER: usize = 2;

/// How many tasks the scheduler keeps in flight for speculation.
///
/// Speculation only pays off when the hardware can actually execute checks
/// concurrently: on an oversubscribed machine every speculative check steals
/// CPU from the mandatory path. The cap therefore scales with the machine's
/// available parallelism (one hardware thread is notionally reserved for the
/// scheduler's mandatory path), and `NETUPD_SEARCH_SPECULATION` overrides it
/// — tests use the override to exercise the speculative machinery on
/// single-core CI runners.
fn speculation_cap(threads: usize) -> usize {
    if let Some(cap) = std::env::var("NETUPD_SEARCH_SPECULATION")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return cap;
    }
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hardware.min(threads).saturating_sub(1) * TASKS_PER_WORKER
}

// ---- sharded prune-log -----------------------------------------------------

/// One prune fact, published once and immutable thereafter.
enum PruneEvent {
    /// A counterexample formula (the paper's wrong-set entry): the switches
    /// on the trace and the updated-switch set it was observed at.
    Formula {
        cex: Vec<SwitchId>,
        updated: BTreeSet<SwitchId>,
    },
    /// A refuted ordered prefix — no extension of it is ever descended into,
    /// so speculative work beyond it is wasted by construction.
    Dead(Vec<usize>),
}

/// One worker's append-only publication log. The mutex is touched by the
/// owner on publish and by a reader only after the atomic `published` counter
/// told it there are entries it has not absorbed yet — the common "nothing
/// new" probe is one relaxed-ordering load per shard.
struct PruneShard {
    log: Mutex<Vec<PruneEvent>>,
    published: AtomicUsize,
}

/// The prune state shared across workers: one append-only [`PruneShard`] per
/// worker (so publishes never contend with each other), plus global
/// observability counters. Workers read through a private [`PruneCursor`],
/// which absorbs new events incrementally and answers membership queries
/// from its own materialized structures — a packed hash-set for dead
/// prefixes (replacing the former linear scan under an `RwLock`) and a plain
/// [`WrongSet`] for formulas.
struct SharedPruneSet {
    shards: Vec<PruneShard>,
    publishes: AtomicUsize,
    consults: AtomicUsize,
}

impl SharedPruneSet {
    fn new(shards: usize) -> Self {
        SharedPruneSet {
            shards: (0..shards.max(1))
                .map(|_| PruneShard {
                    log: Mutex::new(Vec::new()),
                    published: AtomicUsize::new(0),
                })
                .collect(),
            publishes: AtomicUsize::new(0),
            consults: AtomicUsize::new(0),
        }
    }

    /// Appends an event to `shard`'s log and makes it visible to cursors.
    fn publish(&self, shard: usize, event: PruneEvent) {
        let shard = &self.shards[shard % self.shards.len()];
        let mut log = shard.log.lock().expect("prune shard lock");
        log.push(event);
        shard.published.store(log.len(), Ordering::Release);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Hash of an ordered prefix, used for the packed dead-prefix set. A
/// collision can only cause an extra speculative *skip*, never a wrong
/// result: skipped tasks the replay turns out to need are re-issued as
/// mandatory and always executed.
fn prefix_hash(prefix: &[usize]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for &unit in prefix {
        hasher.write_usize(unit);
    }
    hasher.finish()
}

/// One worker's private view of the [`SharedPruneSet`]: read positions per
/// shard plus the materialized prune structures. Refreshing is incremental —
/// only events published since the last refresh are absorbed.
struct PruneCursor {
    per_shard: Vec<usize>,
    /// Formulas absorbed so far.
    wrong: WrongSet,
    /// Hashes of every dead prefix absorbed so far.
    dead_hashes: HashSet<u64>,
    /// The distinct lengths of absorbed dead prefixes: a candidate prefix
    /// extends a dead one iff one of its leading slices of these lengths
    /// hashes into `dead_hashes`, so the membership test is one rolling hash
    /// over the candidate with a lookup per distinct dead length.
    dead_lens: BTreeSet<usize>,
}

impl PruneCursor {
    fn new(shards: usize) -> Self {
        PruneCursor {
            per_shard: vec![0; shards.max(1)],
            wrong: WrongSet::new(),
            dead_hashes: HashSet::new(),
            dead_lens: BTreeSet::new(),
        }
    }

    /// Absorbs every event published since the last refresh.
    fn refresh(&mut self, prune: &SharedPruneSet) {
        for (index, shard) in prune.shards.iter().enumerate() {
            let published = shard.published.load(Ordering::Acquire);
            if published <= self.per_shard[index] {
                continue;
            }
            let log = shard.log.lock().expect("prune shard lock");
            for event in &log[self.per_shard[index]..published] {
                match event {
                    PruneEvent::Formula { cex, updated } => self.wrong.learn(cex, updated),
                    PruneEvent::Dead(prefix) => {
                        self.dead_hashes.insert(prefix_hash(prefix));
                        self.dead_lens.insert(prefix.len());
                    }
                }
            }
            self.per_shard[index] = published;
        }
    }

    /// Returns `true` if `prefix` extends (or is) an absorbed dead prefix.
    fn extends_dead(&self, prefix: &[usize]) -> bool {
        if self.dead_hashes.is_empty() {
            return false;
        }
        let mut hasher = DefaultHasher::new();
        let mut lens = self.dead_lens.iter();
        let mut next_len = lens.next().copied();
        for (applied, &unit) in prefix.iter().enumerate() {
            hasher.write_usize(unit);
            if next_len == Some(applied + 1) {
                if self.dead_hashes.contains(&hasher.finish()) {
                    return true;
                }
                next_len = lens.next().copied();
            }
        }
        false
    }
}

// ---- tasks and messages ----------------------------------------------------

/// What a worker is asked to check.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TaskKey {
    /// The configuration reached by applying the given units, in order, to
    /// the initial configuration.
    Prefix(Vec<usize>),
    /// The problem's final configuration, checked on the context's dedicated
    /// probe pair (the sequential search's final-configuration probe).
    FinalProbe,
}

struct Task {
    key: TaskKey,
    /// Mandatory tasks are results the deterministic replay needs; they are
    /// always executed. Speculative tasks may be skipped via the shared
    /// prune-set.
    mandatory: bool,
    /// The worker whose queue the task was routed to (its outstanding count
    /// was charged); echoed back in the result so the charge is released even
    /// when another worker stole and executed the task.
    routed: usize,
}

/// The part of a check outcome the replay consumes. Both fields are pure
/// functions of the checked configuration (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CheckLite {
    pub(crate) holds: bool,
    /// The switches on the counterexample trace, when the property fails and
    /// the backend produces counterexamples.
    pub(crate) cex_switches: Option<Vec<SwitchId>>,
}

enum Msg {
    /// Worker finished its startup check of the initial configuration.
    Ready { initial_holds: bool },
    /// Worker finished (or skipped, `outcome: None`) a task.
    Result {
        routed: usize,
        mandatory: bool,
        key: TaskKey,
        outcome: Option<CheckLite>,
    },
    /// Worker exited; final work counters plus its persistent checking
    /// context, handed back for reuse by the next request.
    Done {
        worker: usize,
        calls: usize,
        relabeled: usize,
        context: Box<WorkerContext>,
    },
    /// Worker panicked; the scheduler fails fast instead of waiting on a
    /// result that will never arrive.
    Panicked { worker: usize },
}

/// Runs the parallel search over persistent worker contexts. `units` is
/// non-empty and `options.threads > 1` (the sequential path handles the
/// rest).
///
/// `contexts` is grown to `options.threads` slots as needed; each worker
/// takes its slot's context (an empty slot means a cold start), syncs it by
/// diff to this request, and hands it back on shutdown — a slot stays `None`
/// only if its worker panicked and the context was lost. A one-shot caller
/// passes an empty vector (all-cold contexts reproduce the from-scratch
/// behavior exactly); the [`UpdateEngine`](crate::UpdateEngine) passes the
/// same vector for every request of a stream, which is where the
/// cross-request amortization comes from.
///
/// When the hardware offers no usable concurrency (see [`speculation_cap`]),
/// the scheduler degrades to *inline single-flight* mode
/// ([`SearchMode::Inline`]): the same deterministic schedule drives the same
/// worker sync machinery on the calling thread, with no worker threads or
/// queues. Even then the work-queue formulation wins over the sequential
/// search, because syncing by diff subsumes the undo-and-restore recheck the
/// sequential loop pays after every failed candidate.
pub(crate) fn synthesize_with_contexts(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    encoder: &NetworkKripke,
    cache: &CheckpointCache,
    contexts: &mut Vec<Option<WorkerContext>>,
) -> Result<UpdateSequence, SynthesisError> {
    let threads = options.threads;
    contexts.resize_with(threads.max(contexts.len()), || None);
    let spec_cap = speculation_cap(threads);
    let prune = SharedPruneSet::new(threads);
    let stop = AtomicBool::new(false);

    if spec_cap == 0 {
        let ctx = contexts[0]
            .take()
            .unwrap_or_else(|| WorkerContext::fresh(options.backend));
        let (_unused_tx, result_rx) = channel::<Msg>();
        let worker = Worker::new(
            0, problem, options, units, encoder, cache, &prune, &stop, ctx,
        );
        let mut scheduler = Scheduler {
            options,
            units,
            pool: None,
            result_rx,
            stop: &stop,
            inline_worker: Some(worker),
            pending: HashMap::new(),
            outstanding: Vec::new(),
            last_pos: Vec::new(),
            spec_cap,
            seq: Vec::new(),
            applied: BTreeSet::new(),
            frames: Vec::new(),
            visited: VisitedSet::new(),
            wrong: WrongSet::new(),
            ordering: early_termination_store(options, units),
            predictor: Predictor::new(),
            budget_calls: 0,
            stats: SynthStats {
                search_mode: SearchMode::Inline,
                ..SynthStats::default()
            },
        };
        let outcome = scheduler.run();
        let (checks_per_worker, states_relabeled, returned) = scheduler.shutdown();
        for (index, ctx) in returned {
            contexts[index] = Some(*ctx);
        }
        scheduler.stats.prune_publishes = prune.publishes.load(Ordering::Relaxed);
        scheduler.stats.prune_consults = prune.consults.load(Ordering::Relaxed);
        return commit(
            problem,
            options,
            units,
            scheduler,
            outcome,
            checks_per_worker,
            states_relabeled,
        );
    }

    let taken: Vec<WorkerContext> = (0..threads)
        .map(|i| {
            contexts[i]
                .take()
                .unwrap_or_else(|| WorkerContext::fresh(options.backend))
        })
        .collect();
    let pool = TaskPool::<Task>::new(threads);
    let (result_tx, result_rx) = channel::<Msg>();
    std::thread::scope(|scope| {
        for (index, ctx) in taken.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            let (pool, prune, stop) = (&pool, &prune, &stop);
            scope.spawn(move || {
                // A panicking worker must not strand the scheduler: the
                // surviving workers keep the result channel open, so a bare
                // unwind would leave a mandatory fetch blocked forever.
                // Poison the channel first, then re-raise so the scope still
                // reports the original panic.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Worker::new(
                        index, problem, options, units, encoder, cache, prune, stop, ctx,
                    )
                    .run(pool, result_tx.clone());
                }));
                if let Err(payload) = run {
                    let _ = result_tx.send(Msg::Panicked { worker: index });
                    std::panic::resume_unwind(payload);
                }
            });
        }
        drop(result_tx);

        let mut scheduler = Scheduler {
            options,
            units,
            pool: Some(&pool),
            result_rx,
            stop: &stop,
            inline_worker: None,
            pending: HashMap::new(),
            outstanding: vec![0; threads],
            last_pos: vec![Vec::new(); threads],
            spec_cap,
            seq: Vec::new(),
            applied: BTreeSet::new(),
            frames: Vec::new(),
            visited: VisitedSet::new(),
            wrong: WrongSet::new(),
            ordering: early_termination_store(options, units),
            predictor: Predictor::new(),
            budget_calls: 0,
            stats: SynthStats {
                search_mode: SearchMode::Speculative,
                ..SynthStats::default()
            },
        };
        let outcome = scheduler.run();
        let (checks_per_worker, states_relabeled, returned) = scheduler.shutdown();
        for (index, ctx) in returned {
            contexts[index] = Some(*ctx);
        }
        scheduler.stats.tasks_stolen = pool.stolen();
        scheduler.stats.prune_publishes = prune.publishes.load(Ordering::Relaxed);
        scheduler.stats.prune_consults = prune.consults.load(Ordering::Relaxed);
        commit(
            problem,
            options,
            units,
            scheduler,
            outcome,
            checks_per_worker,
            states_relabeled,
        )
    })
}

/// Builds the final result from the replay outcome and the aggregated worker
/// counters.
fn commit(
    problem: &UpdateProblem,
    options: &SynthesisOptions,
    units: &[UpdateUnit],
    scheduler: Scheduler<'_>,
    outcome: Result<Option<Vec<usize>>, SynthesisError>,
    checks_per_worker: Vec<usize>,
    states_relabeled: usize,
) -> Result<UpdateSequence, SynthesisError> {
    match outcome? {
        Some(order_indices) => {
            let mut stats = scheduler.stats;
            scheduler.ordering.fill_solver_stats(&mut stats);
            stats.model_checker_calls = checks_per_worker.iter().sum();
            stats.states_relabeled = states_relabeled;
            stats.checks_per_worker = checks_per_worker;
            stats.charged_calls = scheduler.budget_calls;
            Ok(finish_sequence(
                problem,
                options,
                units,
                &order_indices,
                stats,
            ))
        }
        None => Err(SynthesisError::NoOrderingExists {
            proven_by_constraints: false,
        }),
    }
}

// ---- worker ----------------------------------------------------------------

/// One search worker: a [`PrefixExplorer`] over its persistent context, plus
/// the prune-log glue — it publishes every refutation to its own shard and
/// consults its private cursor before executing speculative tasks.
struct Worker<'a> {
    index: usize,
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    prune: &'a SharedPruneSet,
    stop: &'a AtomicBool,
    explorer: PrefixExplorer<'a>,
    cursor: PruneCursor,
}

impl<'a> Worker<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: usize,
        problem: &'a UpdateProblem,
        options: &'a SynthesisOptions,
        units: &'a [UpdateUnit],
        encoder: &'a NetworkKripke,
        cache: &'a CheckpointCache,
        prune: &'a SharedPruneSet,
        stop: &'a AtomicBool,
        ctx: WorkerContext,
    ) -> Self {
        Worker {
            index,
            options,
            units,
            prune,
            stop,
            explorer: PrefixExplorer::new(problem, units, encoder, cache, ctx),
            cursor: PruneCursor::new(prune.shards.len()),
        }
    }

    fn run(mut self, pool: &TaskPool<Task>, results: Sender<Msg>) {
        // Worker 0 eagerly syncs to the initial configuration; the outcome
        // doubles as the search's initial-configuration check. The other
        // workers warm up lazily — their first recheck falls back to a full
        // check (cold context) or replays the carried diff (warm context) —
        // so undersubscribed runs do not pay one sync per idle worker.
        if self.index == 0 {
            let initial_holds = self.explorer.startup_check();
            let _ = results.send(Msg::Ready { initial_holds });
        }

        while let Some(task) = pool.pop(self.index) {
            let outcome = if self.stop.load(Ordering::Relaxed) {
                None
            } else {
                match &task.key {
                    TaskKey::FinalProbe => Some(self.explorer.final_probe()),
                    TaskKey::Prefix(prefix) => {
                        if !task.mandatory && self.speculation_refuted(prefix) {
                            None
                        } else {
                            Some(self.check_prefix(prefix))
                        }
                    }
                }
            };
            if results
                .send(Msg::Result {
                    routed: task.routed,
                    mandatory: task.mandatory,
                    key: task.key,
                    outcome,
                })
                .is_err()
            {
                break;
            }
        }
        let _ = results.send(Msg::Done {
            worker: self.index,
            calls: self.explorer.calls,
            relabeled: self.explorer.relabeled,
            context: Box::new(self.explorer.into_context()),
        });
    }

    /// The inline-mode initial-configuration check.
    fn startup_check(&mut self) -> bool {
        self.explorer.startup_check()
    }

    /// Whether the prune-log already refutes the configuration a speculative
    /// task would check: either the prefix extends a refuted prefix, or
    /// (with counterexample pruning at switch granularity) an absorbed
    /// formula excludes its configuration.
    fn speculation_refuted(&mut self, prefix: &[usize]) -> bool {
        self.prune.consults.fetch_add(1, Ordering::Relaxed);
        self.cursor.refresh(self.prune);
        if self.cursor.extends_dead(prefix) {
            return true;
        }
        if !self.options.use_counterexamples || self.options.granularity != Granularity::Switch {
            return false;
        }
        let set: BTreeSet<usize> = prefix.iter().copied().collect();
        self.cursor
            .wrong
            .excludes(&updated_switches(self.units, &set))
    }

    /// Checks a prefix and publishes any refutation to this worker's shard,
    /// so other workers stop speculating into configurations this one just
    /// refuted.
    fn check_prefix(&mut self, target: &[usize]) -> CheckLite {
        let result = self.explorer.check_prefix(target);
        if !result.holds {
            self.prune
                .publish(self.index, PruneEvent::Dead(target.to_vec()));
            if self.options.use_counterexamples && self.options.granularity == Granularity::Switch {
                if let Some(cex) = &result.cex_switches {
                    let updated = updated_switches(self.units, self.explorer.applied());
                    self.prune.publish(
                        self.index,
                        PruneEvent::Formula {
                            cex: cex.clone(),
                            updated,
                        },
                    );
                }
            }
        }
        result
    }

    /// The inline-mode final probe.
    fn final_probe(&mut self) -> CheckLite {
        self.explorer.final_probe()
    }
}

// ---- scheduler -------------------------------------------------------------

enum Pending {
    InFlight {
        speculative: bool,
    },
    Done {
        result: CheckLite,
        speculative: bool,
    },
    /// A speculative task the worker skipped (prune-log or stop flag);
    /// re-issued as mandatory if the replay turns out to need it.
    Skipped,
}

/// One frame of the iterative DFS replay: the next candidate index to try at
/// this depth.
struct Frame {
    cursor: usize,
}

/// The incremental speculation predictor: a persistent forward simulation of
/// the replay.
///
/// The simulation follows known check results and assumes unknown ones hold
/// (the common case — the search is mostly greedy). Instead of re-simulating
/// from the replay's state on every speculation round (the old design, which
/// cloned the visited/wrong sets per round), the simulation state *persists*
/// across rounds and keeps advancing from wherever it stopped. It stays
/// consistent with the real replay as long as its assumptions hold; the
/// replay invalidates it (forcing a reseed from real state on the next
/// round) exactly when an assumption breaks — a consumed check failed, or
/// the replay exhausted a frame and backtracked.
struct Predictor {
    seq: Vec<usize>,
    applied: BTreeSet<usize>,
    visited: VisitedSet,
    wrong: WrongSet,
    cursors: Vec<usize>,
    /// Predicted prefixes produced by the simulation but not yet issued
    /// (every worker queue was full when they surfaced); drained before the
    /// simulation is advanced further. Cleared on reseed — a stale backlog
    /// belongs to a refuted assumption path.
    backlog: VecDeque<Vec<usize>>,
    valid: bool,
}

impl Predictor {
    fn new() -> Self {
        Predictor {
            seq: Vec::new(),
            applied: BTreeSet::new(),
            visited: VisitedSet::new(),
            wrong: WrongSet::new(),
            cursors: Vec::new(),
            backlog: VecDeque::new(),
            valid: false,
        }
    }
}

struct Scheduler<'a> {
    options: &'a SynthesisOptions,
    units: &'a [UpdateUnit],
    /// The work-stealing pool tasks are routed into (`None` in inline mode).
    pool: Option<&'a TaskPool<Task>>,
    result_rx: Receiver<Msg>,
    stop: &'a AtomicBool,
    /// Inline single-flight mode: tasks execute directly on this worker, on
    /// the calling thread, with no speculation.
    inline_worker: Option<Worker<'a>>,
    /// Issued tasks and their results. Consumed entries are removed;
    /// mispredicted speculative results stay until shutdown (bounded by the
    /// total checks performed — the map is the cheap part of that waste).
    pending: HashMap<TaskKey, Pending>,
    /// Tasks routed to but not yet answered for each worker (a stolen task
    /// still releases its *routed* worker's charge).
    outstanding: Vec<usize>,
    /// The prefix each worker was last routed (its position after draining
    /// its queue), used to route tasks to the worker with the cheapest sync.
    last_pos: Vec<Vec<usize>>,
    /// In-flight budget for speculative tasks (see [`speculation_cap`]).
    spec_cap: usize,
    // Deterministic replay state — mirrors `strategy::dfs` exactly.
    seq: Vec<usize>,
    applied: BTreeSet<usize>,
    frames: Vec<Frame>,
    visited: VisitedSet,
    wrong: WrongSet,
    ordering: UnitOrdering,
    predictor: Predictor,
    /// Mirror of the sequential `stats.model_checker_calls` counter, used
    /// for the deterministic budget decision and reported as
    /// [`SynthStats::charged_calls`].
    budget_calls: usize,
    stats: SynthStats,
}

impl Scheduler<'_> {
    fn run(&mut self) -> Result<Option<Vec<usize>>, SynthesisError> {
        // Initial-configuration check (performed by worker 0 at startup, or
        // directly in inline mode).
        let initial_holds = if let Some(worker) = &mut self.inline_worker {
            worker.startup_check()
        } else {
            loop {
                match self.recv() {
                    Msg::Ready { initial_holds } => break initial_holds,
                    msg => self.record(msg),
                }
            }
        };
        self.budget_calls += 1;
        if !initial_holds {
            return Err(SynthesisError::InitialConfigurationViolates);
        }

        // Final-configuration probe.
        self.budget_calls += 1;
        let final_outcome = self.fetch(TaskKey::FinalProbe);
        if !final_outcome.holds {
            return Err(SynthesisError::FinalConfigurationViolates);
        }

        self.replay()
    }

    /// The sequential DFS, replayed iteratively; every branch condition and
    /// counter mirrors `strategy::dfs::DfsSearch::dfs`.
    fn replay(&mut self) -> Result<Option<Vec<usize>>, SynthesisError> {
        let n = self.units.len();
        self.frames.push(Frame { cursor: 0 });
        loop {
            if self.applied.len() == n {
                return Ok(Some(self.seq.clone()));
            }
            let mut idx = self.frames.last().expect("frame per depth").cursor;
            let mut descended = false;
            while idx < n {
                if self.applied.contains(&idx) {
                    idx += 1;
                    continue;
                }
                if self.budget_calls >= self.options.max_checks {
                    return Err(SynthesisError::SearchBudgetExhausted);
                }
                let switch = self.units[idx].switch();

                let mut candidate = self.applied.clone();
                candidate.insert(idx);
                if self.visited.contains(&candidate) {
                    self.stats.configurations_pruned += 1;
                    idx += 1;
                    continue;
                }
                self.visited.insert(&candidate);
                if self.options.use_counterexamples
                    && self.options.granularity == Granularity::Switch
                {
                    let mut updated = updated_switches(self.units, &self.applied);
                    updated.insert(switch);
                    if self.wrong.excludes(&updated) {
                        self.stats.configurations_pruned += 1;
                        idx += 1;
                        continue;
                    }
                }

                let mut prefix = self.seq.clone();
                prefix.push(idx);
                let result = self.fetch(TaskKey::Prefix(prefix));
                self.budget_calls += 1;
                // Keep the frame cursor in sync with every consumed check, so
                // the predictor (when it reseeds from the cursors) never
                // reconsiders a candidate whose result was already consumed.
                self.frames.last_mut().expect("frame per depth").cursor = idx + 1;

                if result.holds {
                    self.seq.push(idx);
                    self.applied.insert(idx);
                    self.frames.push(Frame { cursor: 0 });
                    descended = true;
                    break;
                }

                // A consumed check failed: the predictor assumed it held, so
                // its simulated state is now on a refuted path.
                self.predictor.valid = false;
                self.stats.backtracks += 1;
                if self.options.use_counterexamples
                    && self.options.granularity == Granularity::Switch
                {
                    if let Some(cex_switches) = &result.cex_switches {
                        // In the sequential search the candidate unit is
                        // still applied when the counterexample is learnt.
                        let updated = updated_switches(self.units, &candidate);
                        self.wrong.learn(cex_switches, &updated);
                        self.stats.counterexamples_learnt += 1;
                        if self.options.early_termination
                            && self.ordering.learn_counterexample(
                                cex_switches,
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
                // The sequential search's undo-and-restore recheck.
                self.budget_calls += 1;
                idx += 1;
            }
            if descended {
                continue;
            }
            // This depth is exhausted: backtrack to the parent. The
            // predictor simulated past this frame assuming a candidate held;
            // it must reseed.
            self.predictor.valid = false;
            self.frames.pop();
            if self.frames.is_empty() {
                return Ok(None);
            }
            let undone = self.seq.pop().expect("one applied unit per frame");
            self.applied.remove(&undone);
            // The restore recheck after an exhausted subtree.
            self.budget_calls += 1;
        }
    }

    /// Blocks until the result for `key` is available, issuing it as a
    /// mandatory task if it is not already in flight (and re-issuing it if a
    /// worker skipped it speculatively). Keeps speculation topped up while
    /// waiting.
    fn fetch(&mut self, key: TaskKey) -> CheckLite {
        if let Some(worker) = &mut self.inline_worker {
            return match &key {
                TaskKey::FinalProbe => worker.final_probe(),
                TaskKey::Prefix(prefix) => worker.check_prefix(prefix),
            };
        }
        loop {
            match self.pending.get(&key) {
                Some(Pending::Done { .. }) => {
                    // Top up speculation while the result is still visible to
                    // the predictor, then consume it.
                    self.top_up();
                    let Some(Pending::Done {
                        result,
                        speculative,
                    }) = self.pending.remove(&key)
                    else {
                        unreachable!("matched Done above");
                    };
                    if speculative {
                        self.stats.speculative_hits += 1;
                    }
                    return result;
                }
                Some(Pending::Skipped) => {
                    self.pending.remove(&key);
                    self.issue(key.clone(), true);
                }
                Some(Pending::InFlight { .. }) => {}
                None => {
                    self.issue(key.clone(), true);
                }
            }
            self.top_up();
            if matches!(self.pending.get(&key), Some(Pending::InFlight { .. })) {
                let msg = self.recv();
                self.record(msg);
            }
        }
    }

    fn recv(&mut self) -> Msg {
        self.result_rx
            .recv()
            .expect("search worker terminated unexpectedly")
    }

    fn record(&mut self, msg: Msg) {
        match msg {
            Msg::Result {
                routed,
                mandatory,
                key,
                outcome,
            } => {
                self.outstanding[routed] -= 1;
                let entry = match outcome {
                    Some(result) => Pending::Done {
                        result,
                        speculative: !mandatory,
                    },
                    None => Pending::Skipped,
                };
                self.pending.insert(key, entry);
            }
            Msg::Panicked { worker } => {
                panic!("search worker {worker} panicked; aborting the parallel search")
            }
            // Ready messages are consumed by `run`; Done messages only
            // arrive during shutdown.
            Msg::Ready { .. } | Msg::Done { .. } => {}
        }
    }

    /// Routes a task into the pool, respecting the backend's cost model.
    ///
    /// Incremental backends pay per *diff* between a worker's position and
    /// the task, so tasks chase the worker with the longest common prefix
    /// (the "line worker" keeps extending its own line with one-unit syncs,
    /// and when the search moves to a sibling branch the worker positioned
    /// there takes over the line). Per-check-cost backends (batch, product)
    /// pay the same wherever they run, so tasks spread by load. Either way
    /// the routing is only a *preference*: an idle worker steals the task
    /// from its routed queue rather than sleeping.
    ///
    /// Speculative tasks refuse to queue onto a full worker (returns `false`
    /// and issues nothing); mandatory tasks always go out.
    fn issue(&mut self, key: TaskKey, mandatory: bool) -> bool {
        let pool = self.pool.expect("issue is only called in threaded mode");
        let prefix: &[usize] = match &key {
            TaskKey::Prefix(p) => p,
            TaskKey::FinalProbe => &[],
        };
        let locality_first = matches!(
            self.options.backend,
            netupd_mc::Backend::Incremental | netupd_mc::Backend::HeaderSpace
        );
        let worker = (0..self.outstanding.len())
            .min_by_key(|w| {
                let lcp = self.last_pos[*w]
                    .iter()
                    .zip(prefix)
                    .take_while(|(a, b)| a == b)
                    .count();
                // A worker whose position *is* a prefix of the task syncs by
                // only applying units; anyone else also undoes their own
                // divergent suffix. Model the sync cost as that total diff.
                let diff = (self.last_pos[*w].len() - lcp) + (prefix.len() - lcp);
                if locality_first {
                    (self.outstanding[*w] / TASKS_PER_WORKER, diff, *w)
                } else {
                    (self.outstanding[*w], diff, *w)
                }
            })
            .expect("at least one worker");
        if !mandatory && self.outstanding[worker] >= TASKS_PER_WORKER {
            return false;
        }
        self.outstanding[worker] += 1;
        if let TaskKey::Prefix(p) = &key {
            self.last_pos[worker] = p.clone();
        }
        self.pending.insert(
            key.clone(),
            Pending::InFlight {
                speculative: !mandatory,
            },
        );
        if !mandatory {
            self.stats.speculative_issued += 1;
        }
        pool.push(
            worker,
            Task {
                key,
                mandatory,
                routed: worker,
            },
        );
        true
    }

    /// Issues speculative tasks for the prefixes the predictor expects the
    /// replay to need next, keeping every worker's queue filled.
    fn top_up(&mut self) {
        let cap = self.spec_cap;
        let in_flight: usize = self.outstanding.iter().sum();
        if in_flight >= cap {
            return;
        }
        let mut budget = cap - in_flight;
        // Advance the simulation only when the backlog cannot cover the
        // budget; leftovers wait in the backlog for the next round.
        if self.predictor.backlog.len() < budget {
            let need = budget - self.predictor.backlog.len();
            let fresh = self.predict(need);
            self.predictor.backlog.extend(fresh);
        }
        while budget > 0 {
            let Some(prefix) = self.predictor.backlog.pop_front() else {
                return;
            };
            let key = TaskKey::Prefix(prefix);
            if self.pending.contains_key(&key) {
                continue;
            }
            if !self.issue(key.clone(), false) {
                // Every queue is full; keep the prediction for later.
                if let TaskKey::Prefix(p) = key {
                    self.predictor.backlog.push_front(p);
                }
                return;
            }
            budget -= 1;
        }
    }

    /// Advances the predictor's persistent simulation and returns up to
    /// `limit` new unknown-result prefixes, in a priority order for
    /// speculation.
    ///
    /// Two kinds of predictions come out of the simulation:
    ///
    /// * **line** checks: the checks the replay needs if every assumption
    ///   holds (the common case — the search is mostly greedy), and
    /// * **sibling** checks: for each assumed-holds step, the next viable
    ///   candidate at the same depth — the check the replay needs instead if
    ///   that step fails, so a backtrack finds its alternative already
    ///   checked.
    ///
    /// The merged order front-loads the line (its early entries are near
    /// certain to be needed) and then interleaves siblings.
    fn predict(&mut self, limit: usize) -> Vec<Vec<usize>> {
        let n = self.units.len();
        if !self.predictor.valid {
            // Reseed from the real replay state: clone once per refuted
            // assumption instead of once per speculation round.
            self.predictor.seq = self.seq.clone();
            self.predictor.applied = self.applied.clone();
            self.predictor.visited = self.visited.clone();
            self.predictor.wrong = self.wrong.clone();
            self.predictor.cursors = self.frames.iter().map(|f| f.cursor).collect();
            if self.predictor.cursors.is_empty() {
                // Prediction before the replay started (during the final
                // probe): the first DFS frame.
                self.predictor.cursors.push(0);
            }
            self.predictor.backlog.clear();
            self.predictor.valid = true;
        }
        let mut line: Vec<Vec<usize>> = Vec::new();
        let mut siblings: Vec<Vec<usize>> = Vec::new();
        let pred = &mut self.predictor;
        let mut steps = 0;
        'outer: while line.len() < limit && steps < PREDICT_STEP_LIMIT {
            steps += 1;
            if pred.applied.len() == n {
                break;
            }
            let Some(depth) = pred.cursors.len().checked_sub(1) else {
                break;
            };
            let mut idx = pred.cursors[depth];
            while idx < n {
                steps += 1;
                if pred.applied.contains(&idx) {
                    idx += 1;
                    continue;
                }
                let switch = self.units[idx].switch();
                let mut candidate = pred.applied.clone();
                candidate.insert(idx);
                if pred.visited.contains(&candidate) {
                    idx += 1;
                    continue;
                }
                if self.options.use_counterexamples
                    && self.options.granularity == Granularity::Switch
                {
                    let mut updated = updated_switches(self.units, &pred.applied);
                    updated.insert(switch);
                    if pred.wrong.excludes(&updated) {
                        idx += 1;
                        continue;
                    }
                }
                let mut prefix = pred.seq.clone();
                prefix.push(idx);
                let known = match self.pending.get(&TaskKey::Prefix(prefix.clone())) {
                    Some(Pending::Done { result, .. }) => Some(result.clone()),
                    Some(Pending::InFlight { .. }) | Some(Pending::Skipped) => None,
                    None => {
                        line.push(prefix.clone());
                        None
                    }
                };
                match known {
                    Some(result) if !result.holds => {
                        // Follow the fail branch: learn into the simulated
                        // wrong-set and try the next candidate.
                        pred.visited.insert(&candidate);
                        if self.options.use_counterexamples
                            && self.options.granularity == Granularity::Switch
                        {
                            if let Some(cex_switches) = &result.cex_switches {
                                let updated = updated_switches(self.units, &candidate);
                                pred.wrong.learn(cex_switches, &updated);
                            }
                        }
                        idx += 1;
                    }
                    // Known-holds and unknown (assumed to hold): descend,
                    // remembering the fail-branch alternative.
                    _ => {
                        if known.is_none() {
                            if let Some(sibling) = next_viable(
                                self.units,
                                self.options,
                                &pred.applied,
                                &pred.visited,
                                &pred.wrong,
                                idx + 1,
                            ) {
                                let mut alt = pred.seq.clone();
                                alt.push(sibling);
                                if !self.pending.contains_key(&TaskKey::Prefix(alt.clone())) {
                                    siblings.push(alt);
                                }
                            }
                        }
                        pred.visited.insert(&candidate);
                        pred.cursors[depth] = idx + 1;
                        pred.seq.push(idx);
                        pred.applied.insert(idx);
                        pred.cursors.push(0);
                        continue 'outer;
                    }
                }
            }
            // Simulated frame exhausted: simulated backtrack.
            pred.cursors.pop();
            if pred.cursors.is_empty() {
                break;
            }
            if let Some(undone) = pred.seq.pop() {
                pred.applied.remove(&undone);
            }
        }
        // Merge: the first two line entries, then alternate sibling/line.
        let mut out = Vec::with_capacity(limit);
        let mut line = line.into_iter();
        let mut siblings = siblings.into_iter();
        out.extend(line.by_ref().take(2));
        loop {
            let sibling = siblings.next();
            let next_line = line.next();
            if sibling.is_none() && next_line.is_none() {
                break;
            }
            out.extend(sibling);
            out.extend(next_line);
            if out.len() >= limit {
                break;
            }
        }
        out.truncate(limit);
        out
    }

    /// Stops the workers, drains the result channel, and returns the
    /// per-worker call counts, the total states relabeled, and the
    /// persistent contexts handed back by the workers (indexed by worker;
    /// a panicked worker's context is lost and its slot simply stays cold).
    /// Also settles the speculation-waste counter: every speculative result
    /// still pending was work the replay never consumed.
    fn shutdown(&mut self) -> ShutdownReport {
        if let Some(worker) = self.inline_worker.take() {
            return (
                vec![worker.explorer.calls],
                worker.explorer.relabeled,
                vec![(0, Box::new(worker.explorer.into_context()))],
            );
        }
        for entry in self.pending.values() {
            if matches!(
                entry,
                Pending::Done {
                    speculative: true,
                    ..
                } | Pending::InFlight { speculative: true }
            ) {
                self.stats.speculative_wasted += 1;
            }
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(pool) = self.pool {
            pool.close();
        }
        let workers = self.outstanding.len();
        let mut calls = vec![0; workers];
        let mut relabeled = 0;
        let mut contexts = Vec::with_capacity(workers);
        while let Ok(msg) = self.result_rx.recv() {
            if let Msg::Done {
                worker,
                calls: c,
                relabeled: r,
                context,
            } = msg
            {
                calls[worker] = c;
                relabeled += r;
                contexts.push((worker, context));
            }
        }
        (calls, relabeled, contexts)
    }
}

// ---- candidate-order verification (SAT-guided strategy) --------------------

/// Work-item granularity of the parallel candidate-order verification: the
/// steps are pre-split into about this many grains per worker, so a worker
/// that drew short grains (its failures came early) steals remaining grains
/// from slower siblings instead of idling at a chunk barrier.
const GRAINS_PER_WORKER: usize = 4;

/// The outcome of a (possibly parallel) candidate-order verification.
pub(crate) struct OrderVerification {
    /// The first failing prefix: the step index and, when the backend
    /// produced one, the switches on the counterexample trace.
    pub(crate) first_failure: Option<(usize, Option<Vec<SwitchId>>)>,
    /// Checks performed per worker. The *total* is deterministic (each grain
    /// walks to its own local failure regardless of who executes it); the
    /// per-worker attribution depends on stealing and is excluded from the
    /// determinism assertions.
    pub(crate) checks_per_worker: Vec<usize>,
    /// Total states (re)labeled across all workers.
    pub(crate) states_relabeled: usize,
    /// Grains executed by a worker other than the one they were routed to.
    pub(crate) tasks_stolen: usize,
}

/// Verifies a candidate-order step sequence across the persistent worker
/// contexts: the steps are pre-split into fixed-size grains (a pure function
/// of `steps.len()` and the thread count), seeded round-robin into the
/// work-stealing pool, and each grain is walked from its precomputed base
/// configuration with the backend's first-failing-prefix entry.
///
/// Determinism: the grain boundaries are deterministic, each prefix verdict
/// is a pure function of the prefix (module docs), and a grain stops only at
/// a failure *inside itself* — there is no cross-grain abort whose timing
/// could leak into the verdict or the total check count. The first failure
/// overall is the first failing grain's failure, because the grains
/// partition the steps in order. Only the per-worker *attribution* of checks
/// varies with stealing.
pub(crate) fn verify_order_with_contexts(
    options: &SynthesisOptions,
    spec: &Ltl,
    encoder: &NetworkKripke,
    cache: &CheckpointCache,
    contexts: &mut Vec<Option<WorkerContext>>,
    base: &Configuration,
    steps: &[SequenceStep],
) -> OrderVerification {
    let n = steps.len();
    let threads = options.threads.min(n).max(1);
    contexts.resize_with(threads.max(contexts.len()), || None);

    if threads == 1 {
        // Single worker: no point paying thread spawns or grain splits.
        let mut ctx = contexts[0]
            .take()
            .unwrap_or_else(|| WorkerContext::fresh(options.backend));
        let outcome = ctx.verify_sequence_cached(encoder, base, spec, steps, cache);
        contexts[0] = Some(ctx);
        return OrderVerification {
            first_failure: outcome
                .first_failure
                .map(|local| (local, outcome.counterexample.map(|cex| cex.switches))),
            checks_per_worker: vec![outcome.checks],
            states_relabeled: outcome.states_labeled,
            tasks_stolen: 0,
        };
    }

    let grain = n.div_ceil(threads * GRAINS_PER_WORKER).max(1);
    let bounds: Vec<(usize, usize)> = (0..n)
        .step_by(grain)
        .map(|lo| (lo, (lo + grain).min(n)))
        .collect();
    // Each grain starts from its own base configuration: `base` with the
    // preceding grains' steps applied. One running walk snapshots every
    // boundary configuration.
    let grain_bases: Vec<Configuration> = {
        let mut bases = Vec::with_capacity(bounds.len());
        let mut running = base.clone();
        let mut applied = 0;
        for &(lo, _) in &bounds {
            for step in &steps[applied..lo] {
                running.set_table(step.switch, step.table.clone());
            }
            applied = lo;
            bases.push(running.clone());
        }
        bases
    };
    let taken: Vec<WorkerContext> = (0..threads)
        .map(|w| {
            contexts[w]
                .take()
                .unwrap_or_else(|| WorkerContext::fresh(options.backend))
        })
        .collect();

    // Seed the grains round-robin and close the pool: workers drain their
    // own queues front-first (keeping their grains contiguous for cheap
    // syncs) and steal from siblings' backs once dry.
    let pool = TaskPool::<usize>::new(threads);
    for grain_index in 0..bounds.len() {
        pool.push(grain_index % threads, grain_index);
    }
    pool.close();
    let slots: Vec<Mutex<Option<SequenceOutcome>>> =
        bounds.iter().map(|_| Mutex::new(None)).collect();

    let per_worker: Vec<(WorkerContext, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = taken
            .into_iter()
            .enumerate()
            .map(|(w, mut ctx)| {
                let (pool, bounds, grain_bases, slots) = (&pool, &bounds, &grain_bases, &slots);
                scope.spawn(move || {
                    let mut checks = 0;
                    let mut relabeled = 0;
                    while let Some(grain_index) = pool.pop(w) {
                        let (lo, hi) = bounds[grain_index];
                        let outcome = ctx.verify_sequence_cached(
                            encoder,
                            &grain_bases[grain_index],
                            spec,
                            &steps[lo..hi],
                            cache,
                        );
                        checks += outcome.checks;
                        relabeled += outcome.states_labeled;
                        *slots[grain_index].lock().expect("grain slot lock") = Some(outcome);
                    }
                    (ctx, checks, relabeled)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("verification worker panicked"))
            .collect()
    });

    let mut verification = OrderVerification {
        first_failure: None,
        checks_per_worker: vec![0; threads],
        states_relabeled: 0,
        tasks_stolen: pool.stolen(),
    };
    for (worker, (ctx, checks, relabeled)) in per_worker.into_iter().enumerate() {
        contexts[worker] = Some(ctx);
        verification.checks_per_worker[worker] = checks;
        verification.states_relabeled += relabeled;
    }
    for (grain_index, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .expect("grain slot lock poisoned")
            .expect("every grain is executed before the pool drains");
        if let Some(local) = outcome.first_failure {
            verification.first_failure = Some((
                bounds[grain_index].0 + local,
                outcome.counterexample.map(|cex| cex.switches),
            ));
            break;
        }
    }
    verification
}

/// The first candidate at or after `from` that the replay's candidate scan
/// would not prune — the sibling a failed check falls through to. Mirrors the
/// scan conditions of `Scheduler::replay`.
fn next_viable(
    units: &[UpdateUnit],
    options: &SynthesisOptions,
    applied: &BTreeSet<usize>,
    visited: &VisitedSet,
    wrong: &WrongSet,
    from: usize,
) -> Option<usize> {
    for idx in from..units.len() {
        if applied.contains(&idx) {
            continue;
        }
        let mut candidate = applied.clone();
        candidate.insert(idx);
        if visited.contains(&candidate) {
            continue;
        }
        if options.use_counterexamples && options.granularity == Granularity::Switch {
            let mut updated = updated_switches(units, applied);
            updated.insert(units[idx].switch());
            if wrong.excludes(&updated) {
                continue;
            }
        }
        return Some(idx);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::Synthesizer;
    use netupd_mc::Backend;
    use netupd_model::Configuration;
    use netupd_topo::generators;
    use netupd_topo::scenario::{diamond_scenario, double_diamond_scenario, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fat_tree_problem(kind: PropertyKind, seed: u64) -> UpdateProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::fat_tree(4);
        let scenario = diamond_scenario(&graph, kind, &mut rng).expect("diamond");
        UpdateProblem::from_scenario(&scenario)
    }

    fn sw(n: u32) -> SwitchId {
        SwitchId(n)
    }

    #[test]
    fn task_pool_serves_own_queue_front_and_steals_from_the_back() {
        let pool = TaskPool::<usize>::new(2);
        pool.push(0, 1);
        pool.push(0, 2);
        pool.push(0, 3);
        pool.close();
        // Worker 1 steals from the back of worker 0's queue.
        assert_eq!(pool.pop(1), Some(3));
        // Worker 0 drains its own queue front-first.
        assert_eq!(pool.pop(0), Some(1));
        assert_eq!(pool.pop(0), Some(2));
        assert_eq!(pool.pop(0), None);
        assert_eq!(pool.pop(1), None);
        assert_eq!(pool.stolen(), 1);
    }

    #[test]
    fn prune_cursor_absorbs_published_formulas() {
        let prune = SharedPruneSet::new(2);
        let mut cursor = PruneCursor::new(2);
        let updated: BTreeSet<SwitchId> = [sw(1)].into_iter().collect();
        cursor.refresh(&prune);
        assert!(!cursor.wrong.excludes(&updated));
        prune.publish(
            0,
            PruneEvent::Formula {
                cex: vec![sw(1), sw(2)],
                updated: updated.clone(),
            },
        );
        cursor.refresh(&prune);
        assert!(cursor.wrong.excludes(&[sw(1)].into_iter().collect()));
        assert!(!cursor.wrong.excludes(&[sw(1), sw(2)].into_iter().collect()));
        assert_eq!(prune.publishes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn prune_cursor_tracks_dead_prefixes_through_the_hash_set() {
        let prune = SharedPruneSet::new(3);
        let mut cursor = PruneCursor::new(3);
        assert!(!cursor.extends_dead(&[0, 1]));
        prune.publish(2, PruneEvent::Dead(vec![0, 1]));
        prune.publish(1, PruneEvent::Dead(vec![4]));
        cursor.refresh(&prune);
        assert!(cursor.extends_dead(&[0, 1]));
        assert!(cursor.extends_dead(&[0, 1, 2]));
        assert!(cursor.extends_dead(&[4, 0, 1]));
        assert!(!cursor.extends_dead(&[0]));
        assert!(!cursor.extends_dead(&[0, 2, 1]));
        // A second refresh absorbs nothing new.
        cursor.refresh(&prune);
        assert_eq!(cursor.dead_hashes.len(), 2);
    }

    #[test]
    fn parallel_commits_the_sequential_result_per_backend() {
        let problem = fat_tree_problem(PropertyKind::Reachability, 8);
        for backend in Backend::ALL {
            let sequential = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::with_backend(backend))
                .synthesize()
                .unwrap_or_else(|e| panic!("{backend} sequential failed: {e}"));
            let parallel = Synthesizer::new(problem.clone())
                .with_options(SynthesisOptions::with_backend(backend).threads(3))
                .synthesize()
                .unwrap_or_else(|e| panic!("{backend} parallel failed: {e}"));
            assert_eq!(sequential.commands, parallel.commands, "{backend}");
            assert_eq!(sequential.order, parallel.order, "{backend}");
            // The schedule counters are deterministic and identical; the
            // normalized views must agree byte for byte.
            assert_eq!(
                sequential.stats.schedule_view(),
                parallel.stats.schedule_view(),
                "{backend}"
            );
            // The parallel run charges exactly the sequential schedule.
            assert_eq!(
                parallel.stats.charged_calls, sequential.stats.charged_calls,
                "{backend}"
            );
            // Work attribution covers every check performed. (Inline
            // single-flight mode reports one worker; threaded mode one entry
            // per worker thread.)
            let per_worker = &parallel.stats.checks_per_worker;
            assert!(
                per_worker.len() == 1 || per_worker.len() == 3,
                "{backend}: {per_worker:?}"
            );
            assert_eq!(
                per_worker.iter().sum::<usize>(),
                parallel.stats.model_checker_calls,
                "{backend}"
            );
        }
    }

    #[test]
    fn parallel_rejects_violating_initial_configuration() {
        let mut problem = fat_tree_problem(PropertyKind::Reachability, 3);
        problem.initial = Configuration::new();
        let result = Synthesizer::new(problem)
            .with_options(SynthesisOptions::default().threads(2))
            .synthesize();
        assert_eq!(
            result.unwrap_err(),
            SynthesisError::InitialConfigurationViolates
        );
    }

    #[test]
    fn parallel_rejects_violating_final_configuration() {
        let mut problem = fat_tree_problem(PropertyKind::Reachability, 3);
        problem.final_config = Configuration::new();
        assert!(!problem.switches_to_update().is_empty());
        let result = Synthesizer::new(problem)
            .with_options(SynthesisOptions::default().threads(2))
            .synthesize();
        assert_eq!(
            result.unwrap_err(),
            SynthesisError::FinalConfigurationViolates
        );
    }

    #[test]
    fn parallel_agrees_on_infeasibility() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = generators::fat_tree(4);
        let scenario =
            double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("double");
        let problem = UpdateProblem::from_scenario(&scenario);
        let sequential = Synthesizer::new(problem.clone()).synthesize();
        let parallel = Synthesizer::new(problem)
            .with_options(SynthesisOptions::default().threads(4))
            .synthesize();
        match (&sequential, &parallel) {
            (
                Err(SynthesisError::NoOrderingExists { .. }),
                Err(SynthesisError::NoOrderingExists { .. }),
            ) => {}
            other => panic!("expected agreement on infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn parallel_solves_at_rule_granularity() {
        let mut rng = StdRng::seed_from_u64(17);
        let graph = generators::fat_tree(4);
        let scenario =
            double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng).expect("double");
        let problem = UpdateProblem::from_scenario(&scenario);
        let options = SynthesisOptions::default().granularity(Granularity::Rule);
        let sequential = Synthesizer::new(problem.clone())
            .with_options(options.clone())
            .synthesize()
            .expect("rule granularity solves the double diamond");
        let parallel = Synthesizer::new(problem)
            .with_options(options.threads(4))
            .synthesize()
            .expect("parallel rule granularity");
        assert_eq!(sequential.commands, parallel.commands);
        assert_eq!(sequential.order, parallel.order);
    }

    #[test]
    fn speculation_cap_scales_with_hardware_and_thread_count() {
        // Whatever the host, a single worker never speculates (there is no
        // second worker to speculate on).
        if std::env::var("NETUPD_SEARCH_SPECULATION").is_err() {
            assert_eq!(speculation_cap(1), 0);
        }
    }
}
