//! The incremental model checker (the paper's §5 contribution).

use netupd_kripke::{Kripke, StateId};
use netupd_ltl::Ltl;

use crate::checker::{CheckOutcome, CheckStats, Counterexample, ModelChecker};
use crate::labeling::Labeling;

/// Incremental LTL checker for DAG-like Kripke structures.
///
/// The first [`check`](ModelChecker::check) labels the whole structure; each
/// subsequent [`recheck`](ModelChecker::recheck) relabels only the ancestors
/// of the states whose transitions changed, stopping as soon as labels stop
/// changing. The labeling is kept across calls, which is what makes the
/// synthesis loop fast: each switch update triggers one small relabeling
/// instead of a full model-checking run.
///
/// The checker is reusable across query series: a full re-check (a new spec,
/// a [`begin_query`](ModelChecker::begin_query) reset, or a changed state
/// space) recycles the labeling's span/backing storage instead of
/// reallocating it, and the cross-request path — recheck with an accurate
/// change set after the structure was synced by diff — keeps full
/// incrementality.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    state: Option<CheckerState>,
    /// Set by [`ModelChecker::begin_query`]: the cached labeling's *results*
    /// may no longer describe the structure, so the next query must relabel
    /// everything (while still recycling the labeling's storage).
    stale: bool,
}

#[derive(Debug)]
struct CheckerState {
    phi: Ltl,
    labeling: Labeling,
}

impl IncrementalChecker {
    /// Creates a checker with no cached labeling.
    pub fn new() -> Self {
        IncrementalChecker::default()
    }

    /// Discards any cached labeling (e.g. when the synthesizer backtracks to
    /// a configuration whose labeling is no longer available).
    pub fn reset(&mut self) {
        self.state = None;
        self.stale = false;
    }

    fn outcome(&self, kripke: &Kripke, stats: CheckStats) -> CheckOutcome {
        let state = self.state.as_ref().expect("labeling present");
        match state.labeling.violating_initial(kripke) {
            None => CheckOutcome::success(stats),
            Some((initial, assignment)) => {
                let path = state.labeling.extract_path(kripke, initial, &assignment);
                CheckOutcome::failure(Some(Counterexample::from_states(kripke, path)), stats)
            }
        }
    }
}

impl ModelChecker for IncrementalChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        self.stale = false;
        let labeled = match &mut self.state {
            // Recycle the previous labeling's storage for the full relabel.
            Some(state) => {
                let labeled = state.labeling.relabel_all(kripke, phi);
                state.phi = phi.clone();
                labeled
            }
            None => {
                let (labeling, labeled) = Labeling::label_all(kripke, phi);
                self.state = Some(CheckerState {
                    phi: phi.clone(),
                    labeling,
                });
                labeled
            }
        };
        let stats = CheckStats {
            states_labeled: labeled,
            total_states: kripke.len(),
            incremental: false,
        };
        self.outcome(kripke, stats)
    }

    fn recheck(&mut self, kripke: &Kripke, phi: &Ltl, changed: &[StateId]) -> CheckOutcome {
        let can_reuse = !self.stale && self.state.as_ref().is_some_and(|s| s.phi == *phi);
        if !can_reuse {
            return self.check(kripke, phi);
        }
        let labeled = {
            let state = self.state.as_mut().expect("labeling present");
            state.labeling.relabel(kripke, changed)
        };
        let stats = CheckStats {
            states_labeled: labeled,
            total_states: kripke.len(),
            incremental: true,
        };
        self.outcome(kripke, stats)
    }

    fn begin_query(&mut self) {
        self.stale = true;
    }

    fn name(&self) -> &'static str {
        "incremental"
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
        assert!(!first.stats.incremental);

        // Break forwarding at s0: the property should now fail, and the
        // recheck should touch only part of the structure.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &Table::empty());
        let second = checker.recheck(&kripke, &spec, &changed);
        assert!(!second.holds);
        assert!(second.stats.incremental);
        assert!(second.stats.states_labeled <= kripke.len());
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
        assert!(!outcome.stats.incremental);
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
        assert!(!outcome.stats.incremental);
    }

    #[test]
    fn begin_query_forces_a_full_relabel_with_recycled_storage() {
        let (encoder, config, s0, _s1, h1) = line();
        let mut kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut checker = IncrementalChecker::new();
        checker.check(&kripke, &spec);
        // Mutate the structure out of band (no change set retained).
        encoder.reset_to(&mut kripke, &config.updated(s0, Table::empty()));
        checker.begin_query();
        let outcome = checker.recheck(&kripke, &spec, &[]);
        // Without begin_query an empty change set would relabel nothing and
        // the stale labels would still claim the property holds.
        assert!(!outcome.stats.incremental);
        assert_eq!(outcome.stats.states_labeled, kripke.len());
        assert!(!outcome.holds);
        // Subsequent rechecks are incremental again.
        let changed = encoder.apply_switch_update(&mut kripke, s0, &config.table(s0));
        assert!(checker.recheck(&kripke, &spec, &changed).stats.incremental);
    }

    #[test]
    fn reset_clears_cached_labels() {
        let (encoder, config, _s0, _s1, h1) = line();
        let kripke = encoder.encode(&config);
        let mut checker = IncrementalChecker::new();
        let spec = builders::reachability(Prop::AtHost(h1));
        checker.check(&kripke, &spec);
        checker.reset();
        let outcome = checker.recheck(&kripke, &spec, &[]);
        assert!(!outcome.stats.incremental);
    }
}
