//! A NetPlumber-style incremental header-space path checker.
//!
//! NetPlumber maintains, for designated probe nodes, the set of header-space
//! paths that can reach them, and updates those sets incrementally as rules
//! are inserted or removed. This backend reproduces that style of checking
//! over the network Kripke structure:
//!
//! * per initial state it maintains the set of forwarding paths (sequences of
//!   states) through the structure;
//! * properties are evaluated over those paths with the finite-trace LTL
//!   semantics; a path that runs into a forwarding loop satisfies none;
//! * on [`recheck`](crate::ModelChecker::recheck) only the paths of initial
//!   states affected by the change are recomputed — an initial state is
//!   affected if one of its cached paths touches a changed state or if a
//!   changed state is reachable from it in the updated structure;
//! * like NetPlumber, it reports **no counterexamples**, which deprives the
//!   synthesizer of counterexample-based pruning when this backend is chosen
//!   (exactly the handicap discussed in the paper's evaluation).

use std::collections::HashMap;

use netupd_kripke::{Kripke, StateId, StateSet};
use netupd_ltl::Ltl;

use crate::checker::{CheckOutcome, CheckStats, ModelChecker};
use crate::spec::SpecCache;

/// Maximum number of distinct paths tracked per initial state. Network
/// configurations synthesized from the diamond workloads are far below this;
/// the cap only guards against pathological inputs.
const MAX_PATHS_PER_INGRESS: usize = 16_384;

/// NetPlumber-style incremental header-space path checker.
#[derive(Debug, Default)]
pub struct HeaderSpaceChecker {
    cache: Option<PathCache>,
    /// The spec's closure and resolution, rebuilt only when the spec or the
    /// table key changes.
    spec: Option<SpecCache>,
}

#[derive(Debug)]
struct PathCache {
    /// Cached paths per initial state; `None` for one whose forwarding runs
    /// into a loop.
    paths: HashMap<StateId, Option<Vec<Vec<StateId>>>>,
    /// Number of states in the structure when the cache was built.
    states: usize,
}

impl HeaderSpaceChecker {
    /// Creates a header-space checker with an empty cache.
    pub fn new() -> Self {
        HeaderSpaceChecker::default()
    }

    fn evaluate(&mut self, kripke: &Kripke, phi: &Ltl, stats: CheckStats) -> CheckOutcome {
        // Finite-trace semantics with final-state stuttering, evaluated
        // backward over each cached path directly against the interned state
        // labels — no label materialization per path.
        let spec = SpecCache::reuse(self.spec.take(), phi, kripke);
        let SpecCache {
            closure, resolved, ..
        } = self.spec.insert(spec);
        let cache = self.cache.as_ref().expect("cache present");
        let path_holds = |path: &Vec<StateId>| {
            let Some((last, prefix)) = path.split_last() else {
                return true;
            };
            let mut assignment = closure.sink_assignment(kripke.label(*last), resolved);
            for state in prefix.iter().rev() {
                assignment =
                    closure.successor_assignment(kripke.label(*state), &assignment, resolved);
            }
            closure.satisfies_root(&assignment)
        };
        let holds = cache.paths.values().all(|paths| {
            paths
                .as_ref()
                .is_some_and(|paths| paths.iter().all(path_holds))
        });
        if holds {
            CheckOutcome::success(stats)
        } else {
            // NetPlumber reports violations without counterexample traces.
            CheckOutcome::failure(None, stats)
        }
    }

    /// The forwarding paths from `initial`, or `None` if one runs into a
    /// loop.
    fn compute_paths(kripke: &Kripke, initial: StateId) -> Option<Vec<Vec<StateId>>> {
        let mut paths = Vec::new();
        let mut current = Vec::new();
        collect_paths(kripke, initial, &mut current, &mut paths)?;
        Some(paths)
    }
}

/// Appends the paths from `state` that extend `current` to `out`; `None` as
/// soon as one revisits a state of its own path.
fn collect_paths(
    kripke: &Kripke,
    state: StateId,
    current: &mut Vec<StateId>,
    out: &mut Vec<Vec<StateId>>,
) -> Option<()> {
    if current.contains(&state) {
        return None;
    }
    if out.len() >= MAX_PATHS_PER_INGRESS {
        return Some(());
    }
    current.push(state);
    if kripke.is_sink(state) {
        out.push(current.clone());
    } else {
        for succ in kripke.successors(state) {
            if *succ != state {
                collect_paths(kripke, *succ, current, out)?;
            }
        }
    }
    current.pop();
    Some(())
}

impl ModelChecker for HeaderSpaceChecker {
    fn check(&mut self, kripke: &Kripke, phi: &Ltl) -> CheckOutcome {
        let mut paths = HashMap::new();
        let mut visited_states = 0;
        for initial in kripke.initial_states() {
            let ingress_paths = Self::compute_paths(kripke, initial);
            visited_states += ingress_paths.iter().flatten().map(Vec::len).sum::<usize>();
            paths.insert(initial, ingress_paths);
        }
        self.cache = Some(PathCache {
            paths,
            states: kripke.len(),
        });
        let stats = CheckStats {
            states_labeled: visited_states,
            total_states: kripke.len(),
            incremental: false,
        };
        self.evaluate(kripke, phi, stats)
    }

    fn recheck(&mut self, kripke: &Kripke, phi: &Ltl, changed: &[StateId]) -> CheckOutcome {
        let Some(cache) = self.cache.as_ref() else {
            return self.check(kripke, phi);
        };
        if cache.states != kripke.len() {
            return self.check(kripke, phi);
        }
        let changed_set: StateSet = changed.iter().copied().collect();
        // Initial states whose forwarding can be affected: either a cached
        // path touches a changed state, or a changed state is reachable from
        // the initial state in the updated structure.
        let ancestors_of_changed = kripke.ancestors(changed);
        let affected: Vec<StateId> = cache
            .paths
            .iter()
            .filter(|(initial, paths)| {
                ancestors_of_changed.contains(**initial)
                    || paths
                        .iter()
                        .flatten()
                        .any(|p| p.iter().any(|s| changed_set.contains(*s)))
            })
            .map(|(initial, _)| *initial)
            .collect();

        let mut visited_states = 0;
        let mut updated_paths = Vec::with_capacity(affected.len());
        for initial in &affected {
            let ingress_paths = Self::compute_paths(kripke, *initial);
            visited_states += ingress_paths.iter().flatten().map(Vec::len).sum::<usize>();
            updated_paths.push((*initial, ingress_paths));
        }
        let cache = self.cache.as_mut().expect("cache present");
        for (initial, paths) in updated_paths {
            cache.paths.insert(initial, paths);
        }
        let stats = CheckStats {
            states_labeled: visited_states,
            total_states: kripke.len(),
            incremental: true,
        };
        self.evaluate(kripke, phi, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalChecker;
    use netupd_kripke::NetworkKripke;
    use netupd_ltl::{builders, Prop};
    use netupd_model::prelude::*;

    fn line() -> (NetworkKripke, Configuration, SwitchId, HostId) {
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
        (NetworkKripke::new(topo, vec![class]), config, s0, h1)
    }

    #[test]
    fn agrees_with_incremental_but_gives_no_counterexamples() {
        let (encoder, config, s0, h1) = line();
        let mut kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));

        let mut hs = HeaderSpaceChecker::new();
        let mut inc = IncrementalChecker::new();
        assert_eq!(
            hs.check(&kripke, &spec).holds,
            inc.check(&kripke, &spec).holds
        );

        let changed = encoder.apply_switch_update(&mut kripke, s0, &Table::empty());
        let hs_out = hs.recheck(&kripke, &spec, &changed);
        let inc_out = inc.recheck(&kripke, &spec, &changed);
        assert_eq!(hs_out.holds, inc_out.holds);
        assert!(!hs_out.holds);
        assert!(
            hs_out.counterexample.is_none(),
            "NetPlumber-style backends give no traces"
        );
        assert!(inc_out.counterexample.is_some());
        assert!(hs_out.stats.incremental);
    }

    #[test]
    fn recheck_without_cache_falls_back_to_full_check() {
        let (encoder, config, _s0, h1) = line();
        let kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut hs = HeaderSpaceChecker::new();
        let outcome = hs.recheck(&kripke, &spec, &[]);
        assert!(outcome.holds);
        assert!(!outcome.stats.incremental);
    }

    #[test]
    fn check_recomputes_every_path_after_an_out_of_band_change() {
        let (encoder, config, s0, h1) = line();
        let mut kripke = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut hs = HeaderSpaceChecker::new();
        assert!(hs.check(&kripke, &spec).holds);
        // Mutate the structure out of band; an empty change set would
        // recompute nothing, a check recomputes everything.
        encoder.reset_to(&mut kripke, &config.updated(s0, Table::empty()));
        let outcome = hs.check(&kripke, &spec);
        assert!(!outcome.stats.incremental);
        assert!(!outcome.holds);
    }

    #[test]
    fn unaffected_ingresses_are_not_recomputed() {
        let (encoder, config, s0, h1) = line();
        let kripke_before = encoder.encode(&config);
        let spec = builders::reachability(Prop::AtHost(h1));
        let mut hs = HeaderSpaceChecker::new();
        hs.check(&kripke_before, &spec);
        // Rechecking with an empty change set recomputes nothing.
        let outcome = hs.recheck(&kripke_before, &spec, &[]);
        assert_eq!(outcome.stats.states_labeled, 0);
        assert!(outcome.holds);
        let _ = s0;
    }
}
