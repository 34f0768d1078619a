//! The batch checker: the labeling engine run from scratch on every query.

use netupd_kripke::Kripke;
use netupd_ltl::Ltl;

use crate::checker::{CheckOutcome, CheckStats, ModelChecker};
use crate::labeling::Labeling;
use crate::spec::SpecCache;

/// Non-incremental labeling checker (the paper's "Batch" baseline).
///
/// Identical labeling algorithm to [`crate::IncrementalChecker`], but every
/// call — including [`recheck`](ModelChecker::recheck), whose default body is
/// a full check — relabels the whole structure. Comparing the two isolates
/// the benefit of incrementality.
///
/// Between calls the checker keeps only its spec memo (the closure and its
/// resolution), so the from-scratch labeling does not rebuild the closure.
#[derive(Debug, Default)]
pub struct BatchChecker {
    spec: Option<SpecCache>,
}

impl BatchChecker {
    /// Creates a batch checker.
    pub fn new() -> Self {
        BatchChecker::default()
    }
}

impl ModelChecker for BatchChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        let spec = SpecCache::reuse(self.spec.take(), phi, kripke);
        let (labeling, labeled) = Labeling::with_spec(kripke, spec);
        let stats = CheckStats {
            states_labeled: labeled,
            total_states: kripke.len(),
        };
        let outcome = labeling.outcome(kripke, stats);
        self.spec = Some(labeling.into_spec());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_kripke::NetworkKripke;
    use netupd_ltl::{builders, Prop};
    use netupd_model::prelude::*;

    #[test]
    fn batch_checker_agrees_with_direct_labeling() {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s0 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.attach_host(h1, s0, PortId(2));
        let table = Table::new(vec![Rule::new(
            Priority(1),
            Pattern::any().with_in_port(PortId(1)),
            vec![Action::Forward(PortId(2))],
        )]);
        let config = Configuration::new().with_table(s0, table);
        let encoder = NetworkKripke::new(topo, vec![TrafficClass::new()]).with_ingress_hosts([h0]);
        let kripke = encoder.encode(&config);

        let mut checker = BatchChecker::new();
        let good = builders::reachability(Prop::AtHost(h1));
        assert!(checker.check(&kripke, &good).holds);
        let bad = builders::reachability(Prop::switch(99));
        let outcome = checker.check(&kripke, &bad);
        assert!(!outcome.holds);
        assert!(outcome.counterexample.is_some());
        // Recheck always relabels everything.
        let again = checker.recheck(&kripke, &good, &[]);
        assert_eq!(again.stats.states_labeled, kripke.len());
    }
}
