//! The batch checker: the labeling engine run from scratch on every query.

use netupd_kripke::{Kripke, StateId};
use netupd_ltl::Ltl;

use crate::checker::{CheckOutcome, CheckStats, Counterexample, ModelChecker};
use crate::labeling::Labeling;

/// Non-incremental labeling checker (the paper's "Batch" baseline).
///
/// Identical labeling algorithm to [`crate::IncrementalChecker`], but every
/// call — including [`recheck`](ModelChecker::recheck) — relabels the whole
/// structure. Comparing the two isolates the benefit of incrementality.
///
/// The checker keeps one [`Labeling`] across calls purely as recycled
/// *storage*: every query still recomputes all labels from scratch (the
/// baseline's cost profile), but the span/backing vectors are reused instead
/// of reallocated, which matters when a long-lived engine funnels thousands
/// of queries through one instance.
#[derive(Debug, Default)]
pub struct BatchChecker {
    scratch: Option<Labeling>,
}

impl BatchChecker {
    /// Creates a batch checker.
    pub fn new() -> Self {
        BatchChecker::default()
    }
}

impl ModelChecker for BatchChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        let labeled = match &mut self.scratch {
            Some(labeling) => labeling.relabel_all(kripke, phi),
            None => {
                let (labeling, labeled) = Labeling::label_all(kripke, phi);
                self.scratch = Some(labeling);
                labeled
            }
        };
        let labeling = self.scratch.as_ref().expect("labeling present");
        let stats = CheckStats {
            states_labeled: labeled,
            total_states: kripke.len(),
            incremental: false,
        };
        match labeling.violating_initial(kripke) {
            None => CheckOutcome::success(stats),
            Some((initial, assignment)) => {
                let path = labeling.extract_path(kripke, initial, &assignment);
                CheckOutcome::failure(Some(Counterexample::from_states(kripke, path)), stats)
            }
        }
    }

    fn recheck(&mut self, kripke: &Kripke, phi: &Ltl, _changed: &[StateId]) -> CheckOutcome {
        self.check(kripke, phi)
    }

    fn name(&self) -> &'static str {
        "batch"
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
        assert!(!again.stats.incremental);
    }
}
