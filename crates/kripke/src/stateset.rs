//! A dense bitmap over [`StateId`]s.
//!
//! Region and dirty tracking during incremental relabeling touches the same
//! states many times; a `Vec<u64>` bitmap makes membership and insertion a
//! single bit probe and keeps the whole set in a few cache lines, where a
//! `BTreeSet<StateId>` pays an allocation and a pointer chase per node.

use std::fmt;

use crate::structure::StateId;

/// A set of states, stored as a bitmap indexed by [`StateId`].
#[derive(Clone, Default)]
pub struct StateSet {
    words: Vec<u64>,
}

impl PartialEq for StateSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for StateSet {}

impl StateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StateSet::default()
    }

    /// Creates an empty set pre-sized for states `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        StateSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts a state; returns `true` if it was absent.
    pub fn insert(&mut self, state: StateId) -> bool {
        let word = state.0 / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (state.0 % 64);
        let was_absent = self.words[word] & mask == 0;
        self.words[word] |= mask;
        was_absent
    }

    /// Removes every state, keeping the storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, state: StateId) -> bool {
        self.words
            .get(state.0 / 64)
            .is_some_and(|w| (w >> (state.0 % 64)) & 1 == 1)
    }

    /// Number of states in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over the states present, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(StateId(i * 64 + bit))
            })
        })
    }
}

impl FromIterator<StateId> for StateSet {
    fn from_iter<I: IntoIterator<Item = StateId>>(iter: I) -> Self {
        let mut set = StateSet::new();
        for state in iter {
            set.insert(state);
        }
        set
    }
}

impl fmt::Debug for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|s| s.0)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_iterate() {
        let mut set = StateSet::with_capacity(10);
        assert!(set.insert(StateId(3)));
        assert!(!set.insert(StateId(3)));
        assert!(set.insert(StateId(100)));
        assert!(set.contains(StateId(3)));
        assert!(!set.contains(StateId(4)));
        assert_eq!(set.count(), 2);
        let ids: Vec<usize> = set.iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![3, 100]);
        set.clear();
        assert!(set.is_empty() && !set.contains(StateId(100)));
        assert_eq!(set, StateSet::new());
    }

    #[test]
    fn from_iterator_and_equality() {
        let a: StateSet = [StateId(1), StateId(2)].into_iter().collect();
        let mut b = StateSet::with_capacity(4);
        b.insert(StateId(2));
        b.insert(StateId(1));
        assert_eq!(a.count(), b.count());
        assert!(a.iter().eq(b.iter()));
        assert!(StateSet::new().is_empty());
        assert!(!a.is_empty());
    }
}
