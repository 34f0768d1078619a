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
//! * a label is a row of `u64` words, a bitset over those ids, and a
//!   [`PropSetRef`] is the one way to read it: structures that store many
//!   labels keep them in a single flat arena and hand out views without
//!   cloning.
//!
//! Invariants:
//!
//! * **Prop ids are stable per problem.** A table only ever grows; interning
//!   the same proposition twice returns the same id, so ids can be cached
//!   across queries (the incremental checker relies on this).
//! * **Width is checked at interning time.** [`PropTable::intern`] refuses to
//!   allocate an id beyond [`PropTable::MAX_PROPS`], so every id fits the
//!   fixed-width `u64`-word representation and label rows can be indexed
//!   without overflow checks on the hot path.

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
}

/// A borrowed view of one label row: the raw `u64` words of a bitset over a
/// [`PropTable`]'s ids.
///
/// Labels live only as rows of an arena (the Kripke label arena stores every
/// state's row at one stride) and are read through this view; a word past
/// the row's end reads as zero.
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

    /// The underlying words.
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, id: PropId) -> bool {
        let word = self.words.get(id.index() / 64).copied().unwrap_or(0);
        (word >> (id.index() % 64)) & 1 == 1
    }

    /// Iterates over the ids present, in increasing order.
    pub fn iter(self) -> impl Iterator<Item = PropId> + 'a {
        self.words.iter().enumerate().flat_map(|(i, w)| {
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

    /// Iterates over the propositions present, resolved against `table`.
    pub fn props(self, table: &'a PropTable) -> impl Iterator<Item = Prop> + 'a {
        self.iter().map(|id| table.prop(id))
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
    fn row_views_probe_and_iterate_in_id_order() {
        let mut table = PropTable::new();
        let ids: Vec<PropId> = (0..70).map(|n| table.intern(Prop::port(n))).collect();
        let mut row = vec![0u64; table.words()];
        for id in [ids[65], ids[0], ids[69]] {
            row[id.index() / 64] |= 1 << (id.index() % 64);
        }
        let label = PropSetRef::new(&row);
        assert!(label.contains(ids[0]) && label.contains(ids[65]));
        assert!(!label.contains(ids[1]));
        let present: Vec<u32> = label.iter().map(|p| p.0).collect();
        assert_eq!(present, vec![0, 65, 69]);
        let props: Vec<Prop> = label.props(&table).collect();
        assert_eq!(props, vec![Prop::port(0), Prop::port(65), Prop::port(69)]);
        // A word past the row's end reads as zero.
        assert!(!PropSetRef::new(&row[..1]).contains(ids[65]));
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
}
