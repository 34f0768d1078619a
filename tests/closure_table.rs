//! The closure's node table numbers subformulas exactly as the closure built
//! by hashing whole subtrees did.
//!
//! `FormulaId` order is observable: it fixes the bits of every assignment,
//! the order labels sort in, which counterexample a checker extracts, and so
//! every statistic and digest downstream. The reference builder below is the
//! one the node table replaced — a `HashMap<Ltl, FormulaId>` filled children
//! first — kept here so the two can be compared id for id on every spec the
//! fuzz corpus generates and on every builder family.

use std::collections::HashMap;

use netupd::ltl::{builders, Closure, Ltl, Node, Prop};
use netupd_fuzz::generate_case;

/// The closure as the subtree-hashing builder numbered it: each distinct
/// subformula once, children before parents, in first-visit order.
fn reference_ids(root: &Ltl) -> (Vec<Ltl>, HashMap<Ltl, usize>) {
    fn add(phi: &Ltl, formulas: &mut Vec<Ltl>, index: &mut HashMap<Ltl, usize>) {
        if index.contains_key(phi) {
            return;
        }
        for child in phi.children() {
            add(child, formulas, index);
        }
        index.insert(phi.clone(), formulas.len());
        formulas.push(phi.clone());
    }
    let (mut formulas, mut index) = (Vec::new(), HashMap::new());
    add(root, &mut formulas, &mut index);
    (formulas, index)
}

/// The reference numbering written as a node table.
fn reference_nodes(root: &Ltl) -> Vec<Node> {
    let (formulas, index) = reference_ids(root);
    let id = |phi: &Ltl| index[phi];
    formulas
        .iter()
        .map(|phi| match phi {
            Ltl::True => Node::True,
            Ltl::False => Node::False,
            Ltl::Prop(p) => Node::Prop(*p),
            Ltl::NotProp(p) => Node::NotProp(*p),
            Ltl::And(a, b) => Node::And(id(a), id(b)),
            Ltl::Or(a, b) => Node::Or(id(a), id(b)),
            Ltl::Next(a) => Node::Next(id(a)),
            Ltl::Until(a, b) => Node::Until(id(a), id(b)),
            Ltl::Release(a, b) => Node::Release(id(a), id(b)),
        })
        .collect()
}

/// A spec and its negation both number their subformulas as the reference
/// does.
fn assert_same_ids(spec: &Ltl) {
    for phi in [spec.clone(), spec.negated()] {
        let closure = Closure::new(&phi);
        assert_eq!(closure.nodes(), reference_nodes(&phi), "closure of {phi}");
        assert_eq!(closure.root_id(), closure.len() - 1, "root of {phi}");
    }
}

#[test]
fn the_fuzz_corpus_specs_keep_their_ids() {
    let mut specs = 0;
    for index in 0..240 {
        for problem in generate_case(0x5eed_cafe, index).problems {
            assert_same_ids(&problem.spec);
            specs += 1;
        }
    }
    assert!(specs >= 240, "only {specs} specs generated");
}

#[test]
fn the_builder_families_keep_their_ids() {
    let sw = Prop::switch;
    let chain: Vec<Prop> = (1..=4).map(sw).collect();
    let specs = [
        builders::reachability(sw(9)),
        builders::reachability_from(sw(1), sw(9)),
        builders::waypoint(sw(2), sw(9)),
        builders::waypoint_from(sw(1), sw(2), sw(9)),
        builders::service_chain(&chain, sw(9)),
        builders::service_chain_from(sw(0), &chain, sw(9)),
        builders::no_drops(),
        builders::always_avoids(sw(5)),
        builders::one_of_waypoints(&chain, sw(9)),
        builders::infinitely_often(Prop::at_host(3)),
        builders::response(sw(2), sw(4)),
        builders::until_chain(
            &[
                Ltl::prop(sw(1)),
                Ltl::not_prop(sw(2)),
                Ltl::next(Ltl::prop(sw(1))),
            ],
            builders::reachability(sw(9)),
        ),
        builders::all_of([
            builders::service_chain(&chain, sw(9)),
            builders::no_drops(),
            builders::waypoint(sw(3), sw(9)),
        ]),
    ];
    for spec in &specs {
        assert_same_ids(spec);
    }
}
