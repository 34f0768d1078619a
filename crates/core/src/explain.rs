//! Infeasibility explanations.
//!
//! When synthesis fails with
//! [`SynthesisError::NoOrderingExists`](crate::SynthesisError) and a
//! non-empty `core`, the verdict came from the ordering store
//! ([`UnitOrdering`](crate::constraints::UnitOrdering)): the accumulated
//! precedence constraints admit no total order. The store's
//! deletion-minimized core pins that verdict on a *minimal conflicting set*
//! of learnt facts — dropping any one member would make the remainder
//! satisfiable — and this module renders that set in switch-level terms an
//! operator can act on.
//!
//! The verdict carries its evidence and the run's statistics itself; both
//! strategies reach it through the one verdict site of a search run
//! (`strategy::Run::finish`).

use std::collections::BTreeSet;
use std::fmt;

use netupd_model::SwitchId;

use crate::constraints::Clause;
use crate::units::{UnitSet, UpdateUnit};

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
    /// Renders a clause of the ordering store in switch terms. At switch
    /// granularity the mapping is one-to-one; at rule granularity several
    /// units collapse onto their switch. A clause that names every unit
    /// excludes exactly one set, its `after` side, so it reads as that
    /// prefix set.
    pub(crate) fn from_clause(clause: &Clause, units: &[UpdateUnit]) -> Self {
        let switches = |set: &UnitSet| set.iter().map(|i| units[i].switch()).collect();
        if clause.before.len() + clause.after.len() == units.len() {
            ConflictConstraint::PrefixSet {
                applied: switches(&clause.after),
            }
        } else {
            ConflictConstraint::SomeBefore {
                before: switches(&clause.before),
                after: switches(&clause.after),
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SynthesisError;

    fn set(ids: &[u32]) -> BTreeSet<SwitchId> {
        ids.iter().map(|&n| SwitchId(n)).collect()
    }

    #[test]
    fn display_is_readable() {
        let verdict = SynthesisError::NoOrderingExists {
            core: vec![
                ConflictConstraint::SomeBefore {
                    before: set(&[2]),
                    after: set(&[1]),
                },
                ConflictConstraint::PrefixSet { applied: set(&[2]) },
            ],
            stats: Box::default(),
        };
        let text = verdict.to_string();
        assert!(text.contains("2 ordering constraint(s) conflict"));
        assert!(text.contains("some of {s2} must be updated before some of {s1}"));
        assert!(text.contains("updating exactly {s2} violates"));
    }
}
