//! Property-based tests for the LTL machinery: semantic laws over random
//! formulas and random traces.

use proptest::prelude::*;

use netupd_ltl::semantics::satisfies_labels;
use netupd_ltl::{builders, Assignment, Closure, Ltl, Node, Prop, PropId, PropSetRef, PropTable};
use netupd_model::Field;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A small pool of atomic propositions.
fn arb_prop() -> impl Strategy<Value = Prop> {
    (0u32..4).prop_map(Prop::switch)
}

/// Atoms of every kind: switches, ports, hosts, header fields, and the
/// dropped sink.
fn arb_rich_prop() -> impl Strategy<Value = Prop> {
    prop_oneof![
        (0u32..6).prop_map(Prop::switch),
        (0u32..4).prop_map(Prop::port),
        (0u32..4).prop_map(Prop::at_host),
        Just(Prop::Dropped),
        (0u64..10).prop_map(|v| Prop::FieldIs(Field::Src, v)),
        (0u64..10).prop_map(|v| Prop::FieldIs(Field::Dst, v)),
        (0u64..10).prop_map(|v| Prop::FieldIs(Field::Typ, v)),
        (0u64..10).prop_map(|v| Prop::FieldIs(Field::Tag, v)),
    ]
}

/// Random NNF formulas of bounded depth.
fn arb_formula() -> impl Strategy<Value = Ltl> {
    let leaf = prop_oneof![
        Just(Ltl::True),
        Just(Ltl::False),
        arb_prop().prop_map(Ltl::prop),
        arb_prop().prop_map(Ltl::not_prop),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ltl::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ltl::or(a, b)),
            inner.clone().prop_map(Ltl::next),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ltl::until(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Ltl::release(a, b)),
            inner.clone().prop_map(Ltl::eventually),
            inner.prop_map(Ltl::globally),
        ]
    })
}

/// Spec-shaped formulas from the enriched builder grammar: nested until
/// chains, fairness-shaped recurrence, and response properties over the full
/// atom pool. Filtered to structurally interesting sizes so the corpus does
/// not collapse onto bare atoms.
fn arb_builder_formula() -> impl Strategy<Value = Ltl> {
    let stages = proptest::collection::vec(arb_rich_prop().prop_map(Ltl::prop), 1..4);
    prop_oneof![
        (stages, arb_formula()).prop_map(|(stages, goal)| builders::until_chain(&stages, goal)),
        arb_rich_prop().prop_map(builders::infinitely_often),
        (arb_rich_prop(), arb_rich_prop()).prop_map(|(t, r)| builders::response(t, r)),
        (arb_rich_prop(), arb_rich_prop()).prop_map(|(w, d)| builders::waypoint(w, d)),
        (
            proptest::collection::vec(arb_rich_prop(), 1..3),
            arb_rich_prop()
        )
            .prop_map(|(ways, dst)| builders::service_chain(&ways, dst)),
    ]
    .prop_filter("builder formula should not collapse to an atom", |phi| {
        phi.size() > 1
    })
}

/// Random traces: non-empty sequences of label sets over the proposition pool.
fn arb_trace() -> impl Strategy<Value = Vec<BTreeSet<Prop>>> {
    proptest::collection::vec(proptest::collection::btree_set(arb_prop(), 0..3), 1..6)
}

/// The first padding atom; `arb_prop` stays below it.
const PAD_BASE: u32 = 100;

/// Formulas whose closure spans two words or more: 4–10 `arb_formula()`s,
/// each after 4–6 tautologies `G(p ∨ ¬p)` over atoms of its own, so random
/// subformulas land in every word. Each tautology adds five nodes. The
/// conjunction is built without constant folding, so a `false` conjunct
/// cannot fold the padding away.
fn arb_wide_formula() -> impl Strategy<Value = Ltl> {
    proptest::collection::vec((arb_formula(), 4u32..7), 4..11).prop_map(|parts| {
        let mut atom = PAD_BASE;
        let mut conjuncts = Vec::new();
        for (phi, width) in parts {
            conjuncts.extend((atom..atom + width).map(|k| {
                let p = Prop::switch(k);
                Ltl::globally(Ltl::or(Ltl::prop(p), Ltl::not_prop(p)))
            }));
            conjuncts.push(phi);
            atom += width;
        }
        conjuncts
            .into_iter()
            .reduce(|a, b| Ltl::And(Arc::new(a), Arc::new(b)))
            .expect("at least four conjuncts")
    })
}

/// Traces whose labels also hold padding atoms, so atomic subformulas past
/// the first word are true somewhere.
fn arb_wide_trace() -> impl Strategy<Value = Vec<BTreeSet<Prop>>> {
    let atom = prop_oneof![arb_prop(), (PAD_BASE..PAD_BASE + 60).prop_map(Prop::switch)];
    proptest::collection::vec(proptest::collection::btree_set(atom, 0..5), 1..6)
}

/// The assignments `closure` gives positions `0..n` of the stuttering trace
/// over `trace`, its labels interned into one table as a structure's are.
fn closure_assignments(closure: &Closure, trace: &[BTreeSet<Prop>]) -> Vec<Assignment> {
    let mut table = PropTable::new();
    let ids: Vec<Vec<PropId>> = trace
        .iter()
        .map(|label| label.iter().map(|p| table.intern(*p)).collect())
        .collect();
    let resolved = closure.resolve_props(&table);
    let mut assignments: Vec<Assignment> = Vec::with_capacity(trace.len());
    for label in ids.iter().rev() {
        let mut row = vec![0u64; table.words()];
        for id in label {
            row[id.index() / 64] |= 1 << (id.index() % 64);
        }
        let row = PropSetRef::new(&row);
        let assignment = match assignments.last() {
            None => closure.sink_assignment(row, &resolved),
            Some(next) => closure.successor_assignment(row, next, &resolved),
        };
        assignments.push(assignment);
    }
    assignments.reverse();
    assignments
}

/// The closure, run over interned label rows as a checker runs it, agrees
/// with the reference semantics on every suffix of the trace, and every
/// assignment it builds is locally and label-consistent.
fn agrees_with_semantics(
    closure: &Closure,
    phi: &Ltl,
    trace: &[BTreeSet<Prop>],
) -> Result<(), TestCaseError> {
    for (i, assignment) in closure_assignments(closure, trace).iter().enumerate() {
        prop_assert!(closure.is_locally_consistent(assignment));
        for (id, node) in closure.nodes().iter().enumerate() {
            match node {
                Node::Prop(p) => prop_assert_eq!(assignment.get(id), trace[i].contains(p)),
                Node::NotProp(p) => prop_assert_eq!(assignment.get(id), !trace[i].contains(p)),
                _ => {}
            }
        }
        prop_assert!(
            closure.satisfies_root(assignment) == satisfies_labels(&trace[i..], phi),
            "the closure and the semantics disagree on suffix {i} of {trace:?}"
        );
    }
    Ok(())
}

/// Cases of `wide_closure_property` whose closure spans three words or more.
static THREE_WORD_CASES: AtomicUsize = AtomicUsize::new(0);

/// `closure_assignments_are_consistent` past the first word: operands,
/// successor bits and label reads cross word boundaries. Every closure spans
/// two words or more, and some span three.
#[test]
fn wide_closure_assignments_are_consistent() {
    wide_closure_property();
    assert!(
        THREE_WORD_CASES.load(Ordering::Relaxed) > 0,
        "no closure spanned three words"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn wide_closure_property(phi in arb_wide_formula(), trace in arb_wide_trace()) {
        let closure = Closure::new(&phi);
        prop_assert!(closure.len() > 64, "{} nodes fit in one word", closure.len());
        if closure.len() > 128 {
            THREE_WORD_CASES.fetch_add(1, Ordering::Relaxed);
        }
        agrees_with_semantics(&closure, &phi, &trace)?;
    }
}

/// One position is the whole trace out of a sink: `a R b` and `a U b` read
/// as `b` there, and `X a` as `a`, in the closure and the semantics alike.
#[test]
fn sink_readings_agree() {
    let (a, b) = (Prop::switch(1), Prop::switch(2));
    let readings = [
        (Ltl::release(Ltl::prop(a), Ltl::prop(b)), b),
        (Ltl::until(Ltl::prop(a), Ltl::prop(b)), b),
        (Ltl::next(Ltl::prop(a)), a),
    ];
    for label in [vec![], vec![a], vec![b], vec![a, b]] {
        let trace = [label.iter().copied().collect::<BTreeSet<Prop>>()];
        for (phi, reading) in &readings {
            let expected = label.contains(reading);
            let closure = Closure::new(phi);
            let sink = &closure_assignments(&closure, &trace)[0];
            assert_eq!(
                closure.satisfies_root(sink),
                expected,
                "closure: {phi} on {label:?}"
            );
            assert_eq!(
                satisfies_labels(&trace, phi),
                expected,
                "semantics: {phi} on {label:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A formula and its negation never both hold (and never both fail) on
    /// the same trace.
    #[test]
    fn negation_is_complementary(phi in arb_formula(), trace in arb_trace()) {
        let pos = satisfies_labels(&trace, &phi);
        let neg = satisfies_labels(&trace, &phi.negated());
        prop_assert_ne!(pos, neg);
    }

    /// Double negation is syntactically the identity on NNF formulas.
    #[test]
    fn double_negation_identity(phi in arb_formula()) {
        prop_assert_eq!(phi.negated().negated(), phi);
    }

    /// Conjunction and disjunction behave pointwise.
    #[test]
    fn boolean_connectives_are_pointwise(a in arb_formula(), b in arb_formula(), trace in arb_trace()) {
        let sa = satisfies_labels(&trace, &a);
        let sb = satisfies_labels(&trace, &b);
        prop_assert_eq!(satisfies_labels(&trace, &Ltl::and(a.clone(), b.clone())), sa && sb);
        prop_assert_eq!(satisfies_labels(&trace, &Ltl::or(a, b)), sa || sb);
    }

    /// `F` is monotone in trace extension: if `F p` holds on a prefix it holds
    /// on any extension; and `G p` failing on a prefix fails on any extension.
    #[test]
    fn eventually_monotone_under_extension(p in arb_prop(), trace in arb_trace(), extra in proptest::collection::btree_set(arb_prop(), 0..3)) {
        let f = Ltl::eventually(Ltl::prop(p));
        let g = Ltl::globally(Ltl::prop(p));
        let mut extended = trace.clone();
        extended.push(extra);
        if satisfies_labels(&trace[..trace.len() - 1], &f) {
            prop_assert!(satisfies_labels(&extended[..extended.len() - 1], &f) || trace.len() == 1);
        }
        // G on the full trace implies G on every non-empty prefix.
        if satisfies_labels(&trace, &g) {
            for end in 1..=trace.len() {
                prop_assert!(satisfies_labels(&trace[..end], &g));
            }
        }
    }

    /// The reference semantics agrees with the expansion laws:
    /// `a U b  ≡  b ∨ (a ∧ X(a U b))` and `a R b ≡ b ∧ (a ∨ X(a R b))`.
    #[test]
    fn until_and_release_expansion_laws(a in arb_formula(), b in arb_formula(), trace in arb_trace()) {
        let until = Ltl::until(a.clone(), b.clone());
        let expanded_until = Ltl::or(
            b.clone(),
            Ltl::and(a.clone(), Ltl::next(until.clone())),
        );
        prop_assert_eq!(
            satisfies_labels(&trace, &until),
            satisfies_labels(&trace, &expanded_until)
        );
        let release = Ltl::release(a.clone(), b.clone());
        let expanded_release = Ltl::and(b, Ltl::or(a, Ltl::next(release.clone())));
        prop_assert_eq!(
            satisfies_labels(&trace, &release),
            satisfies_labels(&trace, &expanded_release)
        );
    }

    /// The closure, run over interned label rows as a checker runs it,
    /// agrees with the reference semantics on every suffix of the trace, and
    /// every assignment it builds is locally and label-consistent.
    #[test]
    fn closure_assignments_are_consistent(phi in arb_formula(), trace in arb_trace()) {
        agrees_with_semantics(&Closure::new(&phi), &phi, &trace)?;
    }

    /// Negation stays complementary on the enriched grammar as well.
    #[test]
    fn builder_grammar_negation_is_complementary(phi in arb_builder_formula(), trace in arb_trace()) {
        let pos = satisfies_labels(&trace, &phi);
        let neg = satisfies_labels(&trace, &phi.negated());
        prop_assert_ne!(pos, neg);
    }
}
