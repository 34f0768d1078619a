//! Interned propositions and dense bitset labels.
//!
//! The checking hot path manipulates state labels constantly: every labeling
//! step asks "does this label contain proposition `p`?", every atom-cache
//! lookup hashes a whole label, and every re-encoding clones label sets. With
//! labels represented as `BTreeSet<Prop>` those operations allocate, chase
//! pointers, and compare enum variants; at production topology sizes the
//! constant factor dominates the incremental algorithm's asymptotic win.
//!
//! This module fixes the representation once and for all:
//!
//! * a [`PropTable`] interns every [`Prop`] that appears in a problem to a
//!   dense [`PropId`] (a `u32` index, stable for the lifetime of the table);
//! * a [`PropSet`] is a bitset over those ids, mirroring the existing
//!   [`Assignment`](crate::Assignment) bitset, with O(words) membership,
//!   subset, intersection, and equality;
//! * a [`PropSetRef`] is a borrowed view over raw label words, so structures
//!   that store many labels can keep them in a single flat arena and hand out
//!   views without cloning.
//!
//! Invariants:
//!
//! * **Prop ids are stable per problem.** A table only ever grows; interning
//!   the same proposition twice returns the same id, so ids can be cached
//!   across queries (the incremental checker relies on this).
//! * **Width is checked at interning time.** [`PropTable::intern`] refuses to
//!   allocate an id beyond [`PropTable::MAX_PROPS`], so every id fits the
//!   fixed-width `u64`-word representation and `PropSet` words can be indexed
//!   without overflow checks on the hot path.
//! * **Canonical form.** An owned [`PropSet`] never stores trailing zero
//!   words, so derived hashing stays consistent with the logical (zero-
//!   padded) equality used everywhere; all comparison helpers additionally
//!   tolerate trailing zeros so arena-backed [`PropSetRef`] views of a wider
//!   stride compare correctly against canonical sets.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::prop::Prop;

/// Source of unique [`PropTable`] identities (see [`PropTable::cache_key`]).
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Index of an interned proposition within a [`PropTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropId(pub u32);

impl PropId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PropId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An interning table mapping [`Prop`]s to dense [`PropId`]s.
///
/// The table is append-only: ids handed out are stable for its lifetime.
///
/// Every table carries a process-unique identity (see
/// [`PropTable::cache_key`]); clones receive a fresh identity because two
/// clones may subsequently intern *different* propositions and diverge while
/// staying at equal lengths.
#[derive(Debug)]
pub struct PropTable {
    props: Vec<Prop>,
    index: HashMap<Prop, PropId>,
    id: u64,
}

impl Default for PropTable {
    fn default() -> Self {
        PropTable {
            props: Vec::new(),
            index: HashMap::new(),
            id: fresh_table_id(),
        }
    }
}

impl Clone for PropTable {
    fn clone(&self) -> Self {
        PropTable {
            props: self.props.clone(),
            index: self.index.clone(),
            id: fresh_table_id(),
        }
    }
}

impl PropTable {
    /// The maximum number of distinct propositions a table can intern.
    ///
    /// Far above any realistic problem (a 10k-switch topology with 64 ports
    /// per switch interns under a million props); the bound exists so that
    /// the width check in [`intern`](PropTable::intern) is explicit.
    pub const MAX_PROPS: usize = u32::MAX as usize;

    /// Creates an empty table.
    pub fn new() -> Self {
        PropTable::default()
    }

    /// Interns a proposition, returning its stable id.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds [`PropTable::MAX_PROPS`]
    /// propositions (the width check).
    pub fn intern(&mut self, prop: Prop) -> PropId {
        if let Some(&id) = self.index.get(&prop) {
            return id;
        }
        assert!(
            self.props.len() < Self::MAX_PROPS,
            "proposition universe exceeds the fixed bitset width"
        );
        let id = PropId(self.props.len() as u32);
        self.props.push(prop);
        self.index.insert(prop, id);
        id
    }

    /// The id of a proposition, if it has been interned.
    #[inline]
    pub fn lookup(&self, prop: &Prop) -> Option<PropId> {
        self.index.get(prop).copied()
    }

    /// The proposition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[inline]
    pub fn prop(&self, id: PropId) -> Prop {
        self.props[id.index()]
    }

    /// Number of interned propositions.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Number of `u64` words a full-width bitset over this table needs.
    pub fn words(&self) -> usize {
        self.props.len().div_ceil(64).max(1)
    }

    /// A key identifying the current *contents* of this table: the table's
    /// process-unique identity plus its length.
    ///
    /// Because tables are append-only and clones get fresh identities, two
    /// equal keys imply an identical `Prop → PropId` mapping. A checker that
    /// keeps a [`ResolvedProps`](crate::ResolvedProps) compares keys to tell
    /// whether it is looking at a different table or at one that interned
    /// new propositions since it resolved, and re-resolves if so.
    #[inline]
    pub fn cache_key(&self) -> (u64, usize) {
        (self.id, self.props.len())
    }

    /// Iterates over `(id, prop)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PropId, Prop)> + '_ {
        self.props
            .iter()
            .enumerate()
            .map(|(i, p)| (PropId(i as u32), *p))
    }

    /// Builds a set from propositions, interning each.
    pub fn set_of<I: IntoIterator<Item = Prop>>(&mut self, props: I) -> PropSet {
        let mut set = PropSet::new();
        for prop in props {
            set.insert(self.intern(prop));
        }
        set
    }
}

// ---- word-level set algebra (tolerant of trailing zeros) -------------------

#[inline]
fn word_of(words: &[u64], id: PropId) -> u64 {
    words.get(id.index() / 64).copied().unwrap_or(0)
}

#[inline]
pub(crate) fn words_contains(words: &[u64], id: PropId) -> bool {
    (word_of(words, id) >> (id.index() % 64)) & 1 == 1
}

fn words_eq(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().max(b.len());
    (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
}

fn words_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, w)| w & !b.get(i).copied().unwrap_or(0) == 0)
}

fn words_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
}

fn words_count(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

fn words_iter(a: &[u64]) -> impl Iterator<Item = PropId> + '_ {
    a.iter().enumerate().flat_map(|(i, w)| {
        let mut w = *w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(PropId((i * 64 + bit) as u32))
        })
    })
}

/// A borrowed view over the raw words of a proposition bitset.
///
/// Arena-backed structures (the Kripke label arena) store labels as rows of a
/// flat `Vec<u64>` and hand out `PropSetRef`s; all operations treat missing
/// high words as zero, so a view of any stride compares correctly against a
/// canonical [`PropSet`].
#[derive(Debug, Clone, Copy)]
pub struct PropSetRef<'a> {
    words: &'a [u64],
}

impl<'a> PropSetRef<'a> {
    /// Wraps raw bitset words.
    #[inline]
    pub fn new(words: &'a [u64]) -> Self {
        PropSetRef { words }
    }

    /// The underlying words (may carry trailing zeros).
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, id: PropId) -> bool {
        words_contains(self.words, id)
    }

    /// Number of propositions in the set.
    pub fn count(self) -> usize {
        words_count(self.words)
    }

    /// Returns `true` if no proposition is present.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(self, other: PropSetRef<'_>) -> bool {
        words_subset(self.words, other.words)
    }

    /// Returns `true` if the sets share a proposition.
    pub fn intersects(self, other: PropSetRef<'_>) -> bool {
        words_intersect(self.words, other.words)
    }

    /// Iterates over the ids present, in increasing order.
    pub fn iter(self) -> impl Iterator<Item = PropId> + 'a {
        words_iter(self.words)
    }

    /// Copies the view into an owned, canonical [`PropSet`].
    pub fn to_owned(self) -> PropSet {
        let mut bits = self.words.to_vec();
        while bits.last() == Some(&0) {
            bits.pop();
        }
        PropSet { bits }
    }

    /// Iterates over the propositions present, resolved against `table`.
    pub fn props(self, table: &'a PropTable) -> impl Iterator<Item = Prop> + 'a {
        self.iter().map(|id| table.prop(id))
    }
}

impl PartialEq for PropSetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        words_eq(self.words, other.words)
    }
}

impl Eq for PropSetRef<'_> {}

/// An owned set of interned propositions, stored as a bitset.
///
/// Kept in canonical form (no trailing zero words) so that the derived-style
/// `Hash` is consistent with logical equality.
#[derive(Clone, Default, PartialOrd, Ord)]
pub struct PropSet {
    bits: Vec<u64>,
}

impl PropSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PropSet::default()
    }

    /// Creates an empty set with capacity for ids below `words * 64`.
    pub fn with_words(words: usize) -> Self {
        let mut set = PropSet::new();
        set.bits.reserve(words);
        set
    }

    /// A borrowed view of this set.
    #[inline]
    pub fn as_ref(&self) -> PropSetRef<'_> {
        PropSetRef { words: &self.bits }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: PropId) -> bool {
        words_contains(&self.bits, id)
    }

    /// Inserts an id; returns `true` if it was absent.
    pub fn insert(&mut self, id: PropId) -> bool {
        let word = id.index() / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (id.index() % 64);
        let was_absent = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        was_absent
    }

    /// Removes an id; returns `true` if it was present.
    pub fn remove(&mut self, id: PropId) -> bool {
        let word = id.index() / 64;
        if word >= self.bits.len() {
            return false;
        }
        let mask = 1u64 << (id.index() % 64);
        let was_present = self.bits[word] & mask != 0;
        self.bits[word] &= !mask;
        while self.bits.last() == Some(&0) {
            self.bits.pop();
        }
        was_present
    }

    /// Number of propositions in the set.
    pub fn count(&self) -> usize {
        words_count(&self.bits)
    }

    /// Returns `true` if no proposition is present.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &PropSet) -> bool {
        words_subset(&self.bits, &other.bits)
    }

    /// Returns `true` if the sets share a proposition.
    pub fn intersects(&self, other: &PropSet) -> bool {
        words_intersect(&self.bits, &other.bits)
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: PropSetRef<'_>) {
        let mut other_words = other.words();
        while other_words.last() == Some(&0) {
            other_words = &other_words[..other_words.len() - 1];
        }
        if other_words.len() > self.bits.len() {
            self.bits.resize(other_words.len(), 0);
        }
        for (dst, src) in self.bits.iter_mut().zip(other_words) {
            *dst |= src;
        }
    }

    /// Iterates over the ids present, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = PropId> + '_ {
        words_iter(&self.bits)
    }

    /// The canonical words of the set.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }
}

impl PartialEq for PropSet {
    fn eq(&self, other: &Self) -> bool {
        // Canonical form makes word-wise equality exact, but stay tolerant.
        words_eq(&self.bits, &other.bits)
    }
}

impl Eq for PropSet {}

impl std::hash::Hash for PropSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Canonical form: hashing the word vector is consistent with Eq.
        self.bits.hash(state);
    }
}

impl FromIterator<PropId> for PropSet {
    fn from_iter<I: IntoIterator<Item = PropId>>(iter: I) -> Self {
        let mut set = PropSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl fmt::Debug for PropSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut table = PropTable::new();
        let a = table.intern(Prop::switch(1));
        let b = table.intern(Prop::switch(2));
        assert_eq!(a, PropId(0));
        assert_eq!(b, PropId(1));
        assert_eq!(table.intern(Prop::switch(1)), a);
        assert_eq!(table.len(), 2);
        assert_eq!(table.prop(a), Prop::switch(1));
        assert_eq!(table.lookup(&Prop::switch(2)), Some(b));
        assert_eq!(table.lookup(&Prop::Dropped), None);
    }

    #[test]
    fn set_membership_insert_remove() {
        let mut set = PropSet::new();
        assert!(set.insert(PropId(3)));
        assert!(!set.insert(PropId(3)));
        assert!(set.insert(PropId(130)));
        assert!(set.contains(PropId(3)) && set.contains(PropId(130)));
        assert!(!set.contains(PropId(4)));
        assert_eq!(set.count(), 2);
        assert!(set.remove(PropId(130)));
        assert!(!set.remove(PropId(130)));
        assert_eq!(set.count(), 1);
        // Canonical form: removing the high bit trims trailing words.
        assert_eq!(set.words().len(), 1);
    }

    #[test]
    fn equality_ignores_trailing_zeros() {
        let mut a = PropSet::new();
        a.insert(PropId(1));
        let wide = [a.words()[0], 0, 0];
        assert_eq!(PropSetRef::new(&wide), a.as_ref());
        let mut b = a.clone();
        b.insert(PropId(200));
        b.remove(PropId(200));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &PropSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn subset_and_intersection() {
        let small: PropSet = [PropId(1), PropId(70)].into_iter().collect();
        let big: PropSet = [PropId(1), PropId(2), PropId(70)].into_iter().collect();
        let other: PropSet = [PropId(5)].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.intersects(&big));
        assert!(!small.intersects(&other));
        assert!(PropSet::new().is_subset(&other));
    }

    #[test]
    fn iteration_is_ordered() {
        let set: PropSet = [PropId(70), PropId(0), PropId(65)].into_iter().collect();
        let ids: Vec<u32> = set.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 65, 70]);
    }

    #[test]
    fn set_of_interns_and_collects() {
        let mut table = PropTable::new();
        let set = table.set_of([Prop::switch(1), Prop::Dropped]);
        assert_eq!(set.count(), 2);
        assert!(set.contains(table.lookup(&Prop::Dropped).unwrap()));
        let props: Vec<Prop> = set.as_ref().props(&table).collect();
        assert!(props.contains(&Prop::Dropped));
    }

    #[test]
    fn cache_keys_distinguish_tables_and_lengths() {
        let mut a = PropTable::new();
        let before = a.cache_key();
        a.intern(Prop::switch(1));
        let after = a.cache_key();
        assert_ne!(before, after, "interning must change the key");
        // A clone diverges identity-wise even though contents match.
        let b = a.clone();
        assert_ne!(a.cache_key(), b.cache_key());
        // Without further interning the key is stable.
        assert_eq!(a.cache_key(), after);
    }

    #[test]
    fn union_with_widens() {
        let mut a: PropSet = [PropId(1)].into_iter().collect();
        let b: PropSet = [PropId(100)].into_iter().collect();
        a.union_with(b.as_ref());
        assert!(a.contains(PropId(1)) && a.contains(PropId(100)));
    }
}
