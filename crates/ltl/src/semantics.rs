//! Finite-trace LTL semantics with final-state stuttering.
//!
//! Single-packet traces are finite; the paper interprets them as infinite
//! traces in which the final observation repeats forever. This module
//! evaluates formulas directly over such traces, both for testing the model
//! checkers against a ground truth and for checking individual simulator runs.
//!
//! It is the reference semantics, so it shares no code with the checkers'
//! closure: each subformula is evaluated at every position by its textbook
//! definition, not by the backward recurrences the checkers label with.

use std::collections::BTreeSet;

use netupd_model::trace::TraceEnd;
use netupd_model::{Observation, Trace};

use crate::ast::Ltl;
use crate::prop::Prop;

/// The atomic propositions that hold at a single observation.
pub fn observation_label(obs: &Observation) -> BTreeSet<Prop> {
    let mut label = BTreeSet::new();
    label.insert(Prop::Switch(obs.switch));
    label.insert(Prop::Port(obs.port));
    for (field, value) in obs.packet.iter() {
        label.insert(Prop::FieldIs(field, value));
    }
    label
}

/// The label sequence of a trace, with the final label augmented by the
/// trace's terminal status (`AtHost` for egress, `Dropped` for drops).
///
/// Returns an empty sequence for traces with no observations.
pub fn trace_labels(trace: &Trace) -> Vec<BTreeSet<Prop>> {
    let mut labels: Vec<BTreeSet<Prop>> =
        trace.observations().iter().map(observation_label).collect();
    if let Some(last) = labels.last_mut() {
        match trace.end() {
            TraceEnd::Egress(h) => {
                last.insert(Prop::AtHost(h));
            }
            TraceEnd::Dropped => {
                last.insert(Prop::Dropped);
            }
            TraceEnd::Loop => {}
        }
    }
    labels
}

/// Evaluates `phi` over a finite label sequence, stuttering the final label
/// forever. Returns `true` for the empty sequence (there is nothing to
/// violate).
pub fn satisfies_labels(labels: &[BTreeSet<Prop>], phi: &Ltl) -> bool {
    labels.is_empty() || truth(labels, phi)[0]
}

/// The truth of `phi` at each position `0..n` of the non-empty `labels`.
///
/// Every position from `n - 1` on starts the same suffix (the final label
/// forever), so a quantifier over later positions stops at `n - 1` exactly.
fn truth(labels: &[BTreeSet<Prop>], phi: &Ltl) -> Vec<bool> {
    let n = labels.len();
    let pointwise = |a: &Ltl, b: &Ltl, op: fn(bool, bool) -> bool| {
        let (a, b) = (truth(labels, a), truth(labels, b));
        (0..n).map(|i| op(a[i], b[i])).collect()
    };
    match phi {
        Ltl::True => vec![true; n],
        Ltl::False => vec![false; n],
        Ltl::Prop(p) => labels.iter().map(|label| label.contains(p)).collect(),
        Ltl::NotProp(p) => labels.iter().map(|label| !label.contains(p)).collect(),
        Ltl::And(a, b) => pointwise(a, b, |a, b| a && b),
        Ltl::Or(a, b) => pointwise(a, b, |a, b| a || b),
        Ltl::Next(a) => {
            let a = truth(labels, a);
            (0..n).map(|i| a[(i + 1).min(n - 1)]).collect()
        }
        // Some `j ≥ i` has `b`, and `a` holds at every `k` in `[i, j)`.
        Ltl::Until(a, b) => {
            let (a, b) = (truth(labels, a), truth(labels, b));
            (0..n)
                .map(|i| (i..n).any(|j| b[j] && a[i..j].iter().all(|&x| x)))
                .collect()
        }
        // Every `j ≥ i` has `b`, or `a` at some `k` in `[i, j)`.
        Ltl::Release(a, b) => {
            let (a, b) = (truth(labels, a), truth(labels, b));
            (0..n)
                .map(|i| (i..n).all(|j| b[j] || a[i..j].iter().any(|&x| x)))
                .collect()
        }
    }
}

/// Evaluates `phi` over a single-packet trace (`t ⊨ ϕ` in the paper).
///
/// A trace that enters a forwarding loop never ends, and satisfies no
/// formula: the model checkers read it the same way.
pub fn satisfies(trace: &Trace, phi: &Ltl) -> bool {
    !trace.has_loop() && satisfies_labels(&trace_labels(trace), phi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_model::{Field, Packet, PortId, SwitchId};

    fn obs(sw: u32) -> Observation {
        Observation::new(
            SwitchId(sw),
            PortId(1),
            Packet::new().with_field(Field::Dst, 3),
        )
    }

    fn egress_trace(switches: &[u32], host: u32) -> Trace {
        Trace::new(
            switches.iter().map(|s| obs(*s)).collect(),
            TraceEnd::Egress(netupd_model::HostId(host)),
        )
    }

    #[test]
    fn reachability_on_trace() {
        let trace = egress_trace(&[1, 2, 3], 9);
        assert!(satisfies(
            &trace,
            &Ltl::eventually(Ltl::prop(Prop::switch(3)))
        ));
        assert!(!satisfies(
            &trace,
            &Ltl::eventually(Ltl::prop(Prop::switch(4)))
        ));
        assert!(satisfies(
            &trace,
            &Ltl::eventually(Ltl::prop(Prop::at_host(9)))
        ));
    }

    #[test]
    fn globally_on_trace() {
        let trace = egress_trace(&[1, 2], 9);
        let stays_low = Ltl::globally(Ltl::or(
            Ltl::prop(Prop::switch(1)),
            Ltl::prop(Prop::switch(2)),
        ));
        assert!(satisfies(&trace, &stays_low));
        assert!(!satisfies(
            &trace,
            &Ltl::globally(Ltl::prop(Prop::switch(1)))
        ));
    }

    #[test]
    fn until_on_trace() {
        let trace = egress_trace(&[1, 1, 2], 9);
        let phi = Ltl::until(Ltl::prop(Prop::switch(1)), Ltl::prop(Prop::switch(2)));
        assert!(satisfies(&trace, &phi));
        let never = Ltl::until(Ltl::prop(Prop::switch(1)), Ltl::prop(Prop::switch(7)));
        assert!(!satisfies(&trace, &never));
    }

    #[test]
    fn next_on_trace() {
        let trace = egress_trace(&[1, 2], 9);
        assert!(satisfies(&trace, &Ltl::next(Ltl::prop(Prop::switch(2)))));
        // At the final (stuttering) state, X means "still here".
        let trace1 = egress_trace(&[1], 9);
        assert!(satisfies(&trace1, &Ltl::next(Ltl::prop(Prop::switch(1)))));
    }

    #[test]
    fn dropped_label_appears() {
        let trace = Trace::new(vec![obs(1), obs(2)], TraceEnd::Dropped);
        assert!(satisfies(
            &trace,
            &Ltl::eventually(Ltl::prop(Prop::Dropped))
        ));
        assert!(!satisfies(
            &trace,
            &Ltl::globally(Ltl::not_prop(Prop::Dropped))
        ));
        let ok = egress_trace(&[1, 2], 9);
        assert!(satisfies(&ok, &Ltl::globally(Ltl::not_prop(Prop::Dropped))));
    }

    #[test]
    fn field_propositions() {
        let trace = egress_trace(&[1], 9);
        assert!(satisfies(
            &trace,
            &Ltl::globally(Ltl::prop(Prop::FieldIs(Field::Dst, 3)))
        ));
        assert!(!satisfies(
            &trace,
            &Ltl::eventually(Ltl::prop(Prop::FieldIs(Field::Dst, 4)))
        ));
    }

    #[test]
    fn a_looping_trace_satisfies_nothing() {
        let trace = Trace::new(vec![obs(1), obs(2)], TraceEnd::Loop);
        assert!(!satisfies(&trace, &Ltl::True));
        assert!(!satisfies(
            &trace,
            &Ltl::globally(Ltl::not_prop(Prop::Dropped))
        ));
    }

    #[test]
    fn empty_trace_satisfies_everything() {
        let trace = Trace::new(Vec::new(), TraceEnd::Dropped);
        assert!(satisfies(&trace, &Ltl::False));
    }
}
