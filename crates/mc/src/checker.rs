//! The common interface implemented by every model-checking backend.

use std::fmt;

use netupd_kripke::{Kripke, NetworkKripke, StateId};
use netupd_ltl::Ltl;
use netupd_model::{SwitchId, Table};

/// A counterexample trace: a path through the Kripke structure from an
/// initial state that violates the specification.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counterexample {
    /// The states along the violating path, starting from an initial state.
    pub states: Vec<StateId>,
    /// The switches visited along the path, in order and deduplicated.
    pub switches: Vec<SwitchId>,
}

impl Counterexample {
    /// Builds a counterexample from a state path, deriving the switch path
    /// from the Kripke structure's state keys.
    pub fn from_states(kripke: &Kripke, states: Vec<StateId>) -> Self {
        let mut switches: Vec<SwitchId> = (states.iter())
            .map(|&state| kripke.key(state).switch)
            .collect();
        switches.dedup();
        Counterexample { states, switches }
    }

    /// Number of states in the counterexample path.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the counterexample is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Counters describing the work a check performed, used by the benchmark
/// harness to report incrementality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Number of states whose label was (re)computed.
    pub states_labeled: usize,
    /// Number of states in the structure at the time of the check.
    pub total_states: usize,
}

/// The outcome of a model-checking query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether every trace from every initial state satisfies the
    /// specification.
    pub holds: bool,
    /// A violating trace, when the property does not hold and the backend
    /// supports counterexamples.
    pub counterexample: Option<Counterexample>,
    /// Work counters.
    pub stats: CheckStats,
}

impl CheckOutcome {
    /// A successful outcome.
    pub fn success(stats: CheckStats) -> Self {
        CheckOutcome {
            holds: true,
            counterexample: None,
            stats,
        }
    }

    /// A failed outcome, optionally with a counterexample.
    pub fn failure(counterexample: Option<Counterexample>, stats: CheckStats) -> Self {
        CheckOutcome {
            holds: false,
            counterexample,
            stats,
        }
    }
}

/// One step of a prefix-sequence verification: install `table` on `switch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceStep {
    /// The switch whose table the step replaces.
    pub switch: SwitchId,
    /// The table the step installs.
    pub table: Table,
}

/// The outcome of a prefix-sequence verification
/// ([`ModelChecker::check_sequence`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceOutcome {
    /// Index (into the step slice) of the first step after which the
    /// specification fails, or `None` if every prefix holds.
    pub first_failure: Option<usize>,
    /// A violating trace for the failing prefix, when the backend supports
    /// counterexamples.
    pub counterexample: Option<Counterexample>,
    /// Number of steps actually applied to the structure: `first_failure + 1`
    /// on failure, the full step count otherwise. The structure is left at
    /// the configuration those steps produce.
    pub steps_applied: usize,
    /// Model-checker queries issued (one per applied step).
    pub checks: usize,
    /// Total states (re)labeled across the walk.
    pub states_labeled: usize,
}

/// A model checker for DAG-like Kripke structures.
///
/// Backends may keep per-structure state (labels) between calls; the
/// synthesizer calls [`check`](ModelChecker::check) once for the initial
/// configuration and [`recheck`](ModelChecker::recheck) after each switch
/// update, passing the set of states whose transitions changed.
///
/// Checkers are `Send`: `netupd-serve` moves engines, and the checkers they
/// own, across its worker threads, so backend state must not contain
/// thread-bound shared ownership (`Rc`/`RefCell`).
pub trait ModelChecker: Send {
    /// Checks `kripke` against `phi` from scratch.
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome;

    /// Re-checks after the outgoing transitions (or labels) of `changed`
    /// states were modified.
    ///
    /// The default implementation performs a full check; incremental backends
    /// override it.
    fn recheck(&mut self, kripke: &Kripke, phi: &Ltl, changed: &[StateId]) -> CheckOutcome {
        let _ = changed;
        self.check(kripke, phi)
    }

    /// Verifies an update sequence prefix by prefix, returning the first
    /// failing prefix (and its counterexample trace) in one call.
    ///
    /// The walk starts from whatever configuration `kripke` currently
    /// encodes: each step rewires the structure through the encoder's
    /// incremental [`apply_switch_update`](NetworkKripke::apply_switch_update)
    /// and re-checks over exactly the rewired states, so every backend
    /// verifies the sequence at its own incremental cost model (the
    /// incremental and header-space checkers relabel only affected states,
    /// batch pays a full check per step). `carried` is folded into
    /// the first step's change set — callers that synced the structure to the
    /// walk's starting configuration by diff (a
    /// [`reset_to`](NetworkKripke::reset_to) re-point, say) pass the states
    /// that sync rewired, so no separate "establish the baseline" query is
    /// needed.
    ///
    /// On return the structure encodes the configuration after
    /// [`steps_applied`](SequenceOutcome::steps_applied) steps: all of them
    /// when every prefix holds, the failing prefix otherwise.
    fn check_sequence(
        &mut self,
        encoder: &NetworkKripke,
        kripke: &mut Kripke,
        phi: &Ltl,
        carried: &[StateId],
        steps: &[SequenceStep],
    ) -> SequenceOutcome {
        let mut carried: Vec<StateId> = carried.to_vec();
        let mut checks = 0;
        let mut states_labeled = 0;
        for (index, step) in steps.iter().enumerate() {
            let mut changed = std::mem::take(&mut carried);
            changed.extend(encoder.apply_switch_update(kripke, step.switch, &step.table));
            changed.sort_unstable();
            changed.dedup();
            let outcome = self.recheck(kripke, phi, &changed);
            checks += 1;
            states_labeled += outcome.stats.states_labeled;
            if !outcome.holds {
                return SequenceOutcome {
                    first_failure: Some(index),
                    counterexample: outcome.counterexample,
                    steps_applied: index + 1,
                    checks,
                    states_labeled,
                };
            }
        }
        SequenceOutcome {
            first_failure: None,
            counterexample: None,
            steps_applied: steps.len(),
            checks,
            states_labeled,
        }
    }
}

/// The backends available to the synthesizer and benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The incremental labeling checker (the paper's contribution).
    Incremental,
    /// The same labeling engine, run from scratch each call.
    Batch,
    /// The header-space reachability checker (NetPlumber stand-in).
    HeaderSpace,
}

impl Backend {
    /// All backends, in a stable order.
    pub const ALL: [Backend; 3] = [Backend::Incremental, Backend::Batch, Backend::HeaderSpace];

    /// Instantiates the backend.
    ///
    /// Instantiation is cheap (no per-structure state is allocated until the
    /// first check), and every checker is `Send` (a supertrait of
    /// [`ModelChecker`]).
    pub fn instantiate(self) -> Box<dyn ModelChecker> {
        match self {
            Backend::Incremental => Box::new(crate::IncrementalChecker::new()),
            Backend::Batch => Box::new(crate::BatchChecker::new()),
            Backend::HeaderSpace => Box::new(crate::HeaderSpaceChecker::new()),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Backend::Incremental => "incremental",
            Backend::Batch => "batch",
            Backend::HeaderSpace => "headerspace",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_display_and_instantiate() {
        for backend in Backend::ALL {
            let mut checker = backend.instantiate();
            assert!(!backend.to_string().is_empty());
            assert!(checker.check(&Kripke::new(), &Ltl::False).holds);
        }
    }

    #[test]
    fn outcome_constructors() {
        let ok = CheckOutcome::success(CheckStats::default());
        assert!(ok.holds);
        assert!(ok.counterexample.is_none());
        let bad = CheckOutcome::failure(None, CheckStats::default());
        assert!(!bad.holds);
    }
}
