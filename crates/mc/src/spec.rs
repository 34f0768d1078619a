//! A checker's memo of the specification it checks.

use netupd_kripke::Kripke;
use netupd_ltl::{Closure, Ltl, ResolvedProps};

/// The closure of one spec, and its atomic subformulas resolved against the
/// proposition table of the structure last checked.
///
/// Each checker owns one, so a query series over one spec builds the closure
/// once: it is rebuilt only when the spec changes, and re-resolved only when
/// the table key ([`netupd_ltl::PropTable::cache_key`]) does — a different
/// structure, or a table that interned new propositions.
#[derive(Debug, Clone)]
pub(crate) struct SpecCache {
    pub(crate) closure: Closure,
    pub(crate) resolved: ResolvedProps,
    table_key: (u64, usize),
}

impl SpecCache {
    /// The memo for checking `phi` on `kripke`, reusing what `previous`
    /// already built for the same spec.
    pub(crate) fn reuse(previous: Option<SpecCache>, phi: &Ltl, kripke: &Kripke) -> SpecCache {
        match previous {
            Some(mut spec) if spec.closure.root() == phi => {
                spec.resolve(kripke);
                spec
            }
            _ => {
                let closure = Closure::new(phi);
                let resolved = closure.resolve_props(kripke.props());
                SpecCache {
                    closure,
                    resolved,
                    table_key: kripke.props().cache_key(),
                }
            }
        }
    }

    /// Re-resolves the closure against `kripke`'s table iff its key changed.
    pub(crate) fn resolve(&mut self, kripke: &Kripke) {
        let key = kripke.props().cache_key();
        if key != self.table_key {
            self.resolved = self.closure.resolve_props(kripke.props());
            self.table_key = key;
        }
    }
}
