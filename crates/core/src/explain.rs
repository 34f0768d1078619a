//! Infeasibility explanations.
//!
//! When synthesis fails with
//! [`SynthesisError::NoOrderingExists`](crate::SynthesisError) and
//! `proven_by_constraints` is `true`, the verdict came from the ordering
//! store ([`UnitOrdering`]): the accumulated precedence constraints admit no
//! total order. The store's deletion-minimized core pins that verdict on a
//! *minimal conflicting set* of learnt facts —
//! dropping any one member would make the remainder satisfiable — and this
//! module renders that set in switch-level terms an operator can act on.
//!
//! Explanations are a side channel: [`SynthesisError`](crate::SynthesisError)
//! stays a small comparable enum, and the engine records the most recent
//! explanation behind
//! [`UpdateEngine::last_explanation`](crate::UpdateEngine::last_explanation).
//! Both strategies produce them through
//! `InfeasibilityExplanation::from_store`.

use std::collections::BTreeSet;
use std::fmt;

use netupd_model::SwitchId;

use crate::constraints::{LearntConstraint, UnitOrdering};
use crate::search::SynthStats;
use crate::units::UpdateUnit;

/// One member of the minimal conflicting constraint set, in switch terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictConstraint {
    /// The §4.2 B counterexample constraint: some switch of `before` must be
    /// updated before some switch of `after`.
    SomeBefore {
        /// Switches not yet updated when the counterexample was observed.
        before: BTreeSet<SwitchId>,
        /// Switches already updated when the counterexample was observed.
        after: BTreeSet<SwitchId>,
    },
    /// Updating exactly the switches of `applied` (and nothing else) violates
    /// the specification, so no order may realize this set as a prefix.
    PrefixSet {
        /// The violating prefix set.
        applied: BTreeSet<SwitchId>,
    },
}

impl ConflictConstraint {
    /// Renders a unit-level constraint of the ordering store in switch
    /// terms. At switch granularity the mapping is one-to-one; at rule
    /// granularity several units collapse onto their switch.
    pub(crate) fn from_learnt(constraint: &LearntConstraint, units: &[UpdateUnit]) -> Self {
        let switches = |indices: &[usize]| indices.iter().map(|&i| units[i].switch()).collect();
        match constraint {
            LearntConstraint::SomeBefore { before, after } => ConflictConstraint::SomeBefore {
                before: switches(before),
                after: switches(after),
            },
            LearntConstraint::PrefixSet { applied } => ConflictConstraint::PrefixSet {
                applied: applied.iter().map(|i| units[i].switch()).collect(),
            },
        }
    }
}

fn write_switch_set(f: &mut fmt::Formatter<'_>, set: &BTreeSet<SwitchId>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, sw) in set.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{sw}")?;
    }
    write!(f, "}}")
}

impl fmt::Display for ConflictConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictConstraint::SomeBefore { before, after } => {
                write!(f, "some of ")?;
                write_switch_set(f, before)?;
                write!(f, " must be updated before some of ")?;
                write_switch_set(f, after)
            }
            ConflictConstraint::PrefixSet { applied } => {
                write!(f, "updating exactly ")?;
                write_switch_set(f, applied)?;
                write!(f, " violates the specification")
            }
        }
    }
}

/// Why no simple order exists: the minimal conflicting set of learnt
/// constraints behind a `NoOrderingExists { proven_by_constraints: true }`
/// verdict, plus the statistics of the run that proved it (including
/// [`SynthStats::unsat_core_size`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibilityExplanation {
    /// The minimal conflicting constraints: every member is a fact derived
    /// from a concrete counterexample or failing prefix, and dropping any
    /// single one makes the remainder satisfiable.
    pub constraints: Vec<ConflictConstraint>,
    /// Work counters of the run that proved infeasibility. The error path
    /// returns no [`UpdateSequence`](crate::UpdateSequence), so this is where
    /// an infeasible run's statistics surface.
    pub stats: SynthStats,
}

impl InfeasibilityExplanation {
    /// Renders the minimal conflicting set `store` extracted when its
    /// [`propose`](UnitOrdering::propose) returned `None`, and records its
    /// size in the run's `stats`.
    pub(crate) fn from_store(
        store: &UnitOrdering,
        units: &[UpdateUnit],
        mut stats: SynthStats,
    ) -> Self {
        let core = store.infeasibility_core().unwrap_or(&[]);
        stats.unsat_core_size = core.len();
        InfeasibilityExplanation {
            constraints: core
                .iter()
                .map(|c| ConflictConstraint::from_learnt(c, units))
                .collect(),
            stats,
        }
    }
}

impl fmt::Display for InfeasibilityExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no simple order exists; {} constraint(s) conflict:",
            self.constraints.len()
        )?;
        for constraint in &self.constraints {
            writeln!(f, "  - {constraint}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<SwitchId> {
        ids.iter().map(|&n| SwitchId(n)).collect()
    }

    #[test]
    fn display_is_readable() {
        let explanation = InfeasibilityExplanation {
            constraints: vec![
                ConflictConstraint::SomeBefore {
                    before: set(&[2]),
                    after: set(&[1]),
                },
                ConflictConstraint::PrefixSet { applied: set(&[2]) },
            ],
            stats: SynthStats::default(),
        };
        let text = explanation.to_string();
        assert!(text.contains("2 constraint(s) conflict"));
        assert!(text.contains("some of {s2} must be updated before some of {s1}"));
        assert!(text.contains("updating exactly {s2} violates"));
    }
}
