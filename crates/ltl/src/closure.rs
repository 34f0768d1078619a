//! The extended closure `ecl(ϕ)` and truth assignments over it.
//!
//! The incremental model checker labels every Kripke state with a set of
//! *maximally-consistent subsets* of the extended closure of the
//! specification. Because a maximally-consistent set contains exactly one of
//! `ψ` / `¬ψ` for every subformula `ψ`, it is fully determined by the truth
//! value it assigns to each (positive) subformula; we therefore represent it
//! as a compact bitset — an [`Assignment`] — indexed by the [`Closure`].
//! An assignment owns its word row, built in place with no reference count:
//! nothing shares a row.
//!
//! The closure itself is one flat table of [`Node`]s, children first, whose
//! operands are the ids of earlier nodes. Two operations drive the checker,
//! both over a state's interned label row:
//!
//! * [`Closure::sink_assignment`] — the unique assignment satisfied by the
//!   single (stuttering) trace out of a sink state, i.e. the `Holds0`
//!   function of the paper;
//! * [`Closure::successor_assignment`] — given a state's label and the
//!   assignment of one of its successors along a trace, the unique
//!   assignment satisfied at the state by that trace (the `Holds` function).
//!
//! Note on sinks: the trace out of a sink repeats one label forever, so
//! `φ₁ U φ₂` and `φ₁ R φ₂` both read as `φ₂` there, and `X φ` as `φ`.
//! The paper's `Holds0` evaluates `φ₁ R φ₂` as `φ₁ ∨ φ₂`; we implement the
//! standard semantics, which [`crate::semantics`] shares (the crate's
//! proptests pin the three readings), and derived `G` behaves identically
//! under both readings.

use std::collections::HashMap;
use std::fmt;

use crate::ast::Ltl;
use crate::intern::{PropId, PropSetRef, PropTable};
use crate::prop::Prop;

/// Index of a subformula within a [`Closure`].
pub type FormulaId = usize;

/// One subformula of a [`Closure`]; operator nodes name their operands by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// An atomic proposition.
    Prop(Prop),
    /// A negated atomic proposition.
    NotProp(Prop),
    /// Conjunction.
    And(FormulaId, FormulaId),
    /// Disjunction.
    Or(FormulaId, FormulaId),
    /// Next.
    Next(FormulaId),
    /// Until (strong).
    Until(FormulaId, FormulaId),
    /// Release.
    Release(FormulaId, FormulaId),
}

/// The closure of an LTL specification: all of its distinct subformulas,
/// indexed bottom-up (children receive smaller indices than their parents).
#[derive(Debug, Clone)]
pub struct Closure {
    root: Ltl,
    /// Subformulas in bottom-up order; the root is last.
    nodes: Vec<Node>,
}

impl Closure {
    /// Builds the closure of `root`.
    pub fn new(root: &Ltl) -> Self {
        let mut nodes = Vec::new();
        add(root, &mut nodes, &mut HashMap::new());
        Closure {
            root: root.clone(),
            nodes,
        }
    }

    /// The specification this closure was built from.
    pub fn root(&self) -> &Ltl {
        &self.root
    }

    /// The index of the root formula.
    pub fn root_id(&self) -> FormulaId {
        self.nodes.len() - 1
    }

    /// Number of distinct subformulas.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the closure is empty (never the case for a valid formula).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The subformulas in bottom-up order, indexed by [`FormulaId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Creates an all-false assignment sized for this closure.
    pub fn empty_assignment(&self) -> Assignment {
        Assignment::new(self.len())
    }

    /// Resolves the `Prop` / `NotProp` subformulas of this closure against an
    /// interning table, so the assignment functions can test label
    /// membership with a single bit probe instead of a set lookup.
    ///
    /// A proposition absent from the table never occurs in any label built
    /// over it, so it resolves to "never holds".
    pub fn resolve_props(&self, table: &PropTable) -> ResolvedProps {
        ResolvedProps {
            ids: self
                .nodes
                .iter()
                .map(|node| match node {
                    Node::Prop(p) | Node::NotProp(p) => table.lookup(p),
                    _ => None,
                })
                .collect(),
        }
    }

    /// The unique assignment satisfied by the stuttering trace `q^ω` out of a
    /// sink state labeled `label` (the `Holds0` / `HoldsSink` functions).
    pub fn sink_assignment(&self, label: PropSetRef<'_>, resolved: &ResolvedProps) -> Assignment {
        self.evaluate(label, None, resolved)
    }

    /// The unique assignment satisfied at a non-sink state labeled `label` by
    /// a trace whose tail (from the chosen successor) satisfies `successor`
    /// (the `Holds` function lifted to full assignments). Panics if
    /// `successor` is not sized for this closure.
    pub fn successor_assignment(
        &self,
        label: PropSetRef<'_>,
        successor: &Assignment,
        resolved: &ResolvedProps,
    ) -> Assignment {
        assert_eq!(successor.capacity(), self.len());
        self.evaluate(label, Some(&successor.bits), resolved)
    }

    /// Builds a row children first, each bit written straight into its word;
    /// `next` is the successor's row, `None` at a sink. Operand ids come from
    /// the node table, so they are in range.
    fn evaluate(
        &self,
        label: PropSetRef<'_>,
        next: Option<&[u64]>,
        resolved: &ResolvedProps,
    ) -> Assignment {
        debug_assert_eq!(resolved.ids.len(), self.len());
        let mut assignment = self.empty_assignment();
        let row = &mut assignment.bits;
        for (id, node) in self.nodes.iter().enumerate() {
            let value = match (*node, next) {
                (Node::True, _) => true,
                (Node::False, _) => false,
                (Node::Prop(_), _) => resolved.prop_in_label(id, label),
                (Node::NotProp(_), _) => !resolved.prop_in_label(id, label),
                (Node::And(a, b), _) => bit(row, a) && bit(row, b),
                (Node::Or(a, b), _) => bit(row, a) || bit(row, b),
                (Node::Next(a), Some(next)) => bit(next, a),
                (Node::Until(a, b), Some(next)) => bit(row, b) || (bit(row, a) && bit(next, id)),
                (Node::Release(a, b), Some(next)) => bit(row, b) && (bit(row, a) || bit(next, id)),
                // At a sink "next" is "now", and U and R read their right side.
                (Node::Next(x) | Node::Until(_, x) | Node::Release(_, x), None) => bit(row, x),
            };
            row[id / 64] |= u64::from(value) << (id % 64);
        }
        assignment
    }

    /// The `follows(M₁, M₂)` relation of the paper: does the temporal
    /// structure allow `m2` to be the successor of `m1`?
    ///
    /// `successor_assignment` constructs assignments that satisfy this by
    /// construction; the explicit check is exposed for testing.
    pub fn follows(&self, m1: &Assignment, m2: &Assignment) -> bool {
        self.nodes.iter().enumerate().all(|(id, node)| match *node {
            Node::Next(a) => m1.get(id) == m2.get(a),
            Node::Until(a, b) => m1.get(id) == (m1.get(b) || (m1.get(a) && m2.get(id))),
            Node::Release(a, b) => m1.get(id) == (m1.get(b) && (m1.get(a) || m2.get(id))),
            _ => true,
        })
    }

    /// Returns `true` if the assignment makes the boolean structure of every
    /// subformula consistent with its children (maximal consistency).
    pub fn is_locally_consistent(&self, m: &Assignment) -> bool {
        self.nodes.iter().enumerate().all(|(id, node)| match *node {
            Node::True => m.get(id),
            Node::False => !m.get(id),
            Node::And(a, b) => m.get(id) == (m.get(a) && m.get(b)),
            Node::Or(a, b) => m.get(id) == (m.get(a) || m.get(b)),
            _ => true,
        })
    }

    /// Returns `true` if the assignment satisfies the root specification.
    pub fn satisfies_root(&self, m: &Assignment) -> bool {
        m.get(self.root_id())
    }
}

/// Bit `id` of an assignment's word row.
fn bit(row: &[u64], id: FormulaId) -> bool {
    (row[id / 64] >> (id % 64)) & 1 == 1
}

/// Appends `phi`'s subformulas to `nodes` children first, skipping any
/// already present, and returns `phi`'s id. `ids` indexes `nodes`.
fn add(phi: &Ltl, nodes: &mut Vec<Node>, ids: &mut HashMap<Node, FormulaId>) -> FormulaId {
    let node = match phi {
        Ltl::True => Node::True,
        Ltl::False => Node::False,
        Ltl::Prop(p) => Node::Prop(*p),
        Ltl::NotProp(p) => Node::NotProp(*p),
        Ltl::And(a, b) => Node::And(add(a, nodes, ids), add(b, nodes, ids)),
        Ltl::Or(a, b) => Node::Or(add(a, nodes, ids), add(b, nodes, ids)),
        Ltl::Next(a) => Node::Next(add(a, nodes, ids)),
        Ltl::Until(a, b) => Node::Until(add(a, nodes, ids), add(b, nodes, ids)),
        Ltl::Release(a, b) => Node::Release(add(a, nodes, ids), add(b, nodes, ids)),
    };
    *ids.entry(node).or_insert_with(|| {
        nodes.push(node);
        nodes.len() - 1
    })
}

/// The `Prop` / `NotProp` subformulas of a [`Closure`] resolved to interned
/// [`PropId`]s against a particular [`PropTable`].
///
/// Built once per (closure, table) pair via [`Closure::resolve_props`]; the
/// assignment functions then test label membership with one bit probe per
/// atomic subformula. Prop ids are stable per table, so a resolution stays
/// valid as long as the closure and table are both alive — even while the
/// table keeps interning new propositions.
#[derive(Debug, Clone)]
pub struct ResolvedProps {
    /// Per formula id: the interned proposition for `Prop`/`NotProp` nodes
    /// (`None` for non-atomic nodes and for propositions absent from the
    /// table, which can never appear in a label).
    ids: Vec<Option<PropId>>,
}

impl ResolvedProps {
    /// Whether the proposition of atomic subformula `id` holds in `label`.
    #[inline]
    pub fn prop_in_label(&self, id: FormulaId, label: PropSetRef<'_>) -> bool {
        self.ids[id].is_some_and(|pid| label.contains(pid))
    }
}

/// A truth assignment over the subformulas of a [`Closure`]: the compact
/// representation of a maximally-consistent subset of `ecl(ϕ)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assignment {
    bits: Box<[u64]>,
    len: usize,
}

impl Assignment {
    /// Creates an all-false assignment for `len` subformulas.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64).max(1);
        Assignment {
            bits: vec![0u64; words].into(),
            len,
        }
    }

    /// Number of subformulas this assignment covers.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// The truth value of subformula `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: FormulaId) -> bool {
        assert!(id < self.len, "formula id {id} out of range ({})", self.len);
        bit(&self.bits, id)
    }

    /// Sets the truth value of subformula `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: FormulaId, value: bool) {
        assert!(id < self.len, "formula id {id} out of range ({})", self.len);
        let word = &mut self.bits[id / 64];
        *word = (*word & !(1 << (id % 64))) | (u64::from(value) << (id % 64));
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Assignment[")?;
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn sw(n: u32) -> Prop {
        Prop::switch(n)
    }

    /// The assignments `closure` gives each position of the stuttering trace
    /// over `trace`, its labels interned into one table as a checker sees them.
    fn assignments(closure: &Closure, trace: &[&[Prop]]) -> Vec<Assignment> {
        let mut table = PropTable::new();
        let rows: Vec<Vec<PropId>> = trace
            .iter()
            .map(|label| label.iter().map(|p| table.intern(*p)).collect())
            .collect();
        let rows: Vec<Vec<u64>> = rows
            .iter()
            .map(|ids| {
                let mut words = vec![0; table.words()];
                for id in ids {
                    words[id.index() / 64] |= 1 << (id.index() % 64);
                }
                words
            })
            .collect();
        let resolved = closure.resolve_props(&table);
        let (last, prefix) = rows.split_last().expect("a non-empty trace");
        let mut out = vec![closure.sink_assignment(PropSetRef::new(last), &resolved)];
        for row in prefix.iter().rev() {
            let next = closure.successor_assignment(PropSetRef::new(row), &out[0], &resolved);
            out.insert(0, next);
        }
        out
    }

    fn holds(phi: &Ltl, trace: &[&[Prop]]) -> bool {
        let closure = Closure::new(phi);
        closure.satisfies_root(&assignments(&closure, trace)[0])
    }

    #[test]
    fn closure_orders_children_first() {
        let phi = Ltl::until(Ltl::prop(sw(1)), Ltl::prop(sw(2)));
        let closure = Closure::new(&phi);
        assert_eq!(
            closure.nodes(),
            [Node::Prop(sw(1)), Node::Prop(sw(2)), Node::Until(0, 1)]
        );
        assert_eq!(closure.root_id(), 2);
    }

    #[test]
    fn closure_deduplicates_shared_subformulas() {
        let p = Ltl::prop(sw(1));
        let phi = Ltl::and(p.clone(), Ltl::or(p.clone(), p));
        let closure = Closure::new(&phi);
        assert_eq!(
            closure.nodes(),
            [Node::Prop(sw(1)), Node::Or(0, 0), Node::And(0, 1)]
        );
    }

    #[test]
    fn sink_assignment_eventually_and_globally() {
        let eventually = Ltl::eventually(Ltl::prop(sw(1)));
        assert!(holds(&eventually, &[&[sw(1)]]));
        assert!(!holds(&eventually, &[&[sw(2)]]));
        let globally = Ltl::globally(Ltl::prop(sw(1)));
        assert!(holds(&globally, &[&[sw(1)]]));
        assert!(!holds(&globally, &[&[sw(2)]]));
    }

    #[test]
    fn successor_assignment_propagates_until_and_next() {
        let eventually = Ltl::eventually(Ltl::prop(sw(2)));
        assert!(holds(&eventually, &[&[sw(1)], &[sw(2)]]));
        assert!(!holds(&eventually, &[&[sw(1)], &[sw(3)]]));
        let next = Ltl::next(Ltl::prop(sw(2)));
        assert!(holds(&next, &[&[sw(1)], &[sw(2)]]));
        assert!(!holds(&next, &[&[sw(1)], &[sw(9)]]));
    }

    #[test]
    fn constructed_assignments_are_consistent_and_follow() {
        let phi = Ltl::until(
            Ltl::not_prop(sw(3)),
            Ltl::and(Ltl::prop(sw(2)), Ltl::eventually(Ltl::prop(sw(4)))),
        );
        let closure = Closure::new(&phi);
        // `sw(3)` never occurs in a label, so the table never interns it.
        let trace: [&[Prop]; 4] = [&[sw(1)], &[sw(1), sw(2)], &[sw(2)], &[sw(4)]];
        let all = assignments(&closure, &trace);
        for m in &all {
            assert!(closure.is_locally_consistent(m));
        }
        for pair in all.windows(2) {
            assert!(closure.follows(&pair[0], &pair[1]));
        }
        assert!(closure.satisfies_root(&all[0]));
    }

    #[test]
    fn assignment_bitset_works_past_64_bits() {
        let mut m = Assignment::new(130);
        m.set(0, true);
        m.set(64, true);
        m.set(129, true);
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(65));
        m.set(64, false);
        assert!(!m.get(64) && m.get(129));
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `compute_label` sorts and deduplicates assignments, and the order
        /// reaches counterexamples and digests: `cmp`, `==` and `Hash` are
        /// those of the word row, on one-word and two-word assignments that
        /// are equal or differ in a bit or two.
        #[test]
        fn assignment_order_is_the_word_order(
            len in 1usize..129,
            bits in proptest::collection::vec(any::<bool>(), 128..129),
            flips in proptest::collection::vec(0usize..128, 0..3),
        ) {
            let mut a = Assignment::new(len);
            for (id, value) in bits.iter().take(len).enumerate() {
                a.set(id, *value);
            }
            let mut b = a.clone();
            for flip in flips {
                b.set(flip % len, !b.get(flip % len));
            }
            prop_assert_eq!(a.cmp(&b), a.bits.cmp(&b.bits));
            prop_assert_eq!(a == b, a.bits == b.bits);
            prop_assert_eq!(hash_of(&a) == hash_of(&b), a.bits == b.bits);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignment_out_of_range_panics() {
        let m = Assignment::new(4);
        let _ = m.get(4);
    }
}
