//! The incremental model checker (the paper's §5 contribution).

use netupd_kripke::{Kripke, StateId};
use netupd_ltl::Ltl;

use crate::checker::{CheckOutcome, CheckStats, ModelChecker};
use crate::labeling::Labeling;
use crate::spec::SpecCache;

/// Incremental LTL checker for DAG-like Kripke structures.
///
/// The first [`check`](ModelChecker::check) labels the whole structure; each
/// subsequent [`recheck`](ModelChecker::recheck) relabels only the ancestors
/// of the states whose transitions changed, stopping as soon as labels stop
/// changing. The labeling is kept across calls, which is what makes the
/// synthesis loop fast: each switch update triggers one small relabeling
/// instead of a full model-checking run.
///
/// A full check (the first query, a new spec, or a changed state space)
/// labels from scratch and hands the previous labeling's spec memo on, so the
/// closure is built once per spec.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    labeling: Option<Labeling>,
}

impl IncrementalChecker {
    /// Creates a checker with no cached labeling.
    pub fn new() -> Self {
        IncrementalChecker::default()
    }
}

impl ModelChecker for IncrementalChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        let previous = self.labeling.take().map(Labeling::into_spec);
        let spec = SpecCache::reuse(previous, phi, kripke);
        let (labeling, labeled) = Labeling::with_spec(kripke, spec);
        let stats = CheckStats {
            states_labeled: labeled,
            total_states: kripke.len(),
        };
        self.labeling.insert(labeling).outcome(kripke, stats)
    }

    fn recheck(&mut self, kripke: &Kripke, phi: &Ltl, changed: &[StateId]) -> CheckOutcome {
        let labeling = match &mut self.labeling {
            Some(labeling) if labeling.closure().root() == phi => labeling,
            _ => return self.check(kripke, phi),
        };
        let stats = CheckStats {
            states_labeled: labeling.relabel(kripke, changed),
            total_states: kripke.len(),
        };
        labeling.outcome(kripke, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_kripke::NetworkKripke;
    use netupd_ltl::{builders, Prop};
    use netupd_model::prelude::*;

    /// Two-switch line with a direct and an indirect path: h0 - s0 - s1 - h1.
    fn line() -> (NetworkKripke, Configuration, SwitchId, SwitchId, HostId) {
        let mut topo = Topology::new();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        topo.attach_host(h0, s0, PortId(1));
        topo.add_duplex_link(s0, PortId(2), s1, PortId(1));
        topo.attach_host(h1, s1, PortId(2));
        let fwd = |port: u32| {
            Table::new(vec![Rule::new(
                Priority(1),
                Pattern::any().with_field(Field::Dst, 1),
                vec![Action::Forward(PortId(port))],
            )])
        };
        let config = Configuration::new()
            .with_table(s0, fwd(2))
            .with_table(s1, fwd(2));
        let class = TrafficClass::new().with_field(Field::Dst, 1);
        (NetworkKripke::new(topo, vec![class]), config, s0, s1, h1)
    }

    #[test]
    fn check_then_incremental_recheck() {
        let (encoder, config, s0, _s1, h1) = line();
        let mut kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut checker = IncrementalChecker::new();

        let first = checker.check(&kripke, &spec);
        assert!(first.holds);
        assert_eq!(first.stats.states_labeled, kripke.len());

        // Break forwarding at s0: the property should now fail, and the
        // recheck should touch only part of the structure.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &Table::empty());
        let second = checker.recheck(&kripke, &spec, &changed);
        assert!(!second.holds);
        assert!(second.stats.states_labeled < kripke.len());
        let cex = second.counterexample.expect("counterexample");
        assert!(cex.switches.contains(&s0));
    }

    #[test]
    fn recheck_with_different_formula_falls_back_to_full_check() {
        let (encoder, config, _s0, _s1, h1) = line();
        let kripke = encoder.encode(&config);
        let mut checker = IncrementalChecker::new();
        let spec_a = builders::reachability(Prop::AtHost(h1));
        checker.check(&kripke, &spec_a);
        let spec_b = builders::no_drops();
        let outcome = checker.recheck(&kripke, &spec_b, &[]);
        assert_eq!(outcome.stats.states_labeled, kripke.len());
        assert!(outcome.holds);
    }

    #[test]
    fn recheck_without_prior_check_is_a_full_check() {
        let (encoder, config, _s0, _s1, h1) = line();
        let kripke = encoder.encode(&config);
        let mut checker = IncrementalChecker::new();
        let spec = builders::reachability(Prop::AtHost(h1));
        let outcome = checker.recheck(&kripke, &spec, &[]);
        assert!(outcome.holds);
        assert_eq!(outcome.stats.states_labeled, kripke.len());
    }

    #[test]
    fn check_relabels_everything_after_an_out_of_band_change() {
        let (encoder, config, s0, _s1, h1) = line();
        let mut kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut checker = IncrementalChecker::new();
        checker.check(&kripke, &spec);
        // Mutate the structure out of band (no change set retained).
        encoder.reset_to(&mut kripke, &config.updated(s0, Table::empty()));
        let outcome = checker.check(&kripke, &spec);
        assert_eq!(outcome.stats.states_labeled, kripke.len());
        assert!(!outcome.holds);
        // Subsequent rechecks are incremental again.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &config.table(s0));
        let back = checker.recheck(&kripke, &spec, &changed);
        assert!(back.stats.states_labeled < kripke.len());
        assert!(back.holds);
    }
}
