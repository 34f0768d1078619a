//! The prefix-checkpoint cache shared by every search strategy.
//!
//! Unit applications commute, so the configuration a prefix of update units
//! produces — and therefore its check verdict, which is a pure function of
//! `(configuration, spec)` (DESIGN.md §5) — depends only on the *set* of
//! applied units, not their order. The cache exploits this: every passing
//! intermediate configuration is published as a checkpoint (keyed by the
//! configuration itself, the canonical representation of the applied set).
//! A later walk that reaches the same configuration — a DFS re-exploring a
//! permuted prefix, a SAT proposal sharing a prefix set with an earlier
//! iteration, or the next churn request — takes the verdict without a
//! model-checker call.
//!
//! One checkpoint per request additionally carries a restorable checker
//! snapshot ([`ModelChecker::snapshot`](netupd_mc::ModelChecker)): the
//! *snapshot target*, set by the engine to the request's final
//! configuration. Within a request a verdict-only hit folds the skipped
//! diff into the next recheck for free, so cloning checker state for every
//! passing prefix would be pure overhead; across churn requests the
//! previous final configuration is the next initial one, and restoring its
//! snapshot replaces the cross-request context resync — the one capture
//! that pays for its clone.
//!
//! # Soundness
//!
//! * Only *passing* configurations are published; failures are never cached
//!   (the search needs their counterexamples, and failure handling is what
//!   drives learning).
//! * A hit requires full [`Configuration`] equality against the stored key —
//!   the fingerprint only selects the bucket — so hash collisions cannot
//!   produce wrong verdicts.
//! * Entries are per-spec: the cache stores the spec it was filled under and
//!   clears itself when a different spec arrives.
//! * A verdict taken without a physical recheck leaves the caller's checker
//!   unsynced; the caller either restores the entry's snapshot (full
//!   consistency) or folds the skipped change set into the next recheck's
//!   change set (the carried-diff discipline cross-request sync already
//!   relies on). Both keep later verdicts exact, so results are
//!   byte-identical with the cache on or off.
//!
//! # Bounds and invalidation
//!
//! Residency is bounded by [`SynthesisOptions::checkpoint_budget`]
//! (bytes; 0 disables the cache): over budget, least-recently-used entries
//! are dropped. Across churn requests the engine keeps the cache and calls
//! [`CheckpointCache::retain_for`], which evicts entries touching switch
//! tables outside the new request's `{initial, final}` mixture space —
//! entries over unchanged switches survive and keep paying.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use netupd_ltl::Ltl;
use netupd_mc::CheckerSnapshot;
use netupd_model::{Configuration, SwitchId, Table};

/// The shared, bounded checkpoint store (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct CheckpointCache {
    /// Byte budget for resident entries; 0 disables the cache entirely.
    budget: usize,
    inner: Mutex<CacheInner>,
    /// Verdicts served from the cache (no model-checker call issued).
    hits: AtomicUsize,
    /// Snapshot restores performed by consumers on cache hits.
    restores: AtomicUsize,
    /// Checkpoints published (first-time inserts, not refreshes).
    publishes: AtomicUsize,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// The spec every resident entry was verified under.
    spec: Option<Ltl>,
    /// Buckets by configuration fingerprint; entries verify full equality.
    entries: HashMap<u64, Vec<Entry>>,
    /// Monotonic use counter for LRU eviction.
    tick: u64,
    /// Total estimated resident bytes across all entries.
    bytes: usize,
    /// The one configuration worth snapshotting (fingerprint + key): the
    /// current request's final configuration. Within a request a verdict
    /// hit folds the skipped diff into the next recheck at no extra cost,
    /// so capturing checker state for every passing prefix only burns
    /// clone time; across churn requests the previous final configuration
    /// *is* the next initial one, and restoring its snapshot replaces the
    /// cross-request context resync — so that is the only capture that
    /// pays for itself.
    snapshot_target: Option<(u64, Configuration)>,
}

#[derive(Debug)]
struct Entry {
    config: Configuration,
    snapshot: Option<CheckerSnapshot>,
    bytes: usize,
    last_used: u64,
}

/// Fingerprint of a configuration: XOR of independent per-switch hashes, so
/// it can be maintained incrementally by callers that mutate one switch at a
/// time (XOR out the old table's hash, XOR in the new one's).
pub(crate) fn fingerprint(config: &Configuration) -> u64 {
    config
        .iter()
        .map(|(sw, table)| switch_table_hash(sw, table))
        .fold(0u64, |acc, h| acc ^ h)
}

/// The per-switch component of [`fingerprint`].
pub(crate) fn switch_table_hash(switch: SwitchId, table: &Table) -> u64 {
    let mut hasher = DefaultHasher::new();
    switch.hash(&mut hasher);
    table.hash(&mut hasher);
    hasher.finish()
}

/// Rough resident-size estimate of a configuration key.
fn config_bytes(config: &Configuration) -> usize {
    config.len() * 48 + config.total_rules() * 96
}

impl CheckpointCache {
    /// Creates a cache with the given byte budget (0 disables it).
    pub(crate) fn new(budget: usize) -> Self {
        CheckpointCache {
            budget,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicUsize::new(0),
            restores: AtomicUsize::new(0),
            publishes: AtomicUsize::new(0),
        }
    }

    /// Whether the cache is enabled at all.
    pub(crate) fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Declares the configuration whose checkpoint should carry a checker
    /// snapshot — the current request's final configuration (see
    /// `CacheInner::snapshot_target`). The engine calls this at the start of
    /// every request; publishes of any other configuration store
    /// verdict-only entries.
    pub(crate) fn set_snapshot_target(&self, config: &Configuration) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("checkpoint cache lock");
        inner.snapshot_target = Some((fingerprint(config), config.clone()));
    }

    /// Looks up a configuration's checkpoint under `spec`. `None` is a miss;
    /// `Some(snapshot)` means the configuration is known to satisfy the spec,
    /// with the checker snapshot (if one was captured) to restore from.
    pub(crate) fn lookup(
        &self,
        spec: &Ltl,
        config: &Configuration,
    ) -> Option<Option<CheckerSnapshot>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock().expect("checkpoint cache lock");
        if inner.spec.as_ref() != Some(spec) {
            return None;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let bucket = inner.entries.get_mut(&fingerprint(config))?;
        let entry = bucket.iter_mut().find(|e| e.config == *config)?;
        entry.last_used = tick;
        let snapshot = entry.snapshot.clone();
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(snapshot)
    }

    /// Publishes a configuration verified to satisfy `spec`. The snapshot
    /// closure is invoked only when a snapshot is actually stored — on a
    /// first-time insert or to fill in a missing one — so callers can hand in
    /// `|| checker.snapshot()` without paying the clone on every re-publish.
    pub(crate) fn publish(
        &self,
        spec: &Ltl,
        config: &Configuration,
        snapshot: impl FnOnce() -> Option<CheckerSnapshot>,
    ) {
        if !self.enabled() {
            return;
        }
        if config_bytes(config) > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("checkpoint cache lock");
        if inner.spec.as_ref() != Some(spec) {
            inner.entries.clear();
            inner.bytes = 0;
            inner.spec = Some(spec.clone());
        }
        inner.tick += 1;
        let tick = inner.tick;
        let key = fingerprint(config);
        // Snapshot capture is a checker-state clone — worth it only for the
        // snapshot target (the request's final configuration); every other
        // checkpoint stores its verdict alone.
        let capture = inner
            .snapshot_target
            .as_ref()
            .is_some_and(|(fp, target)| *fp == key && target == config);
        let bucket = inner.entries.entry(key).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.config == *config) {
            entry.last_used = tick;
            if capture && entry.snapshot.is_none() {
                if let Some(snap) = snapshot() {
                    let delta = snap.bytes();
                    if entry.bytes + delta <= self.budget {
                        entry.snapshot = Some(snap);
                        entry.bytes += delta;
                        inner.bytes += delta;
                    }
                }
            }
        } else {
            let snap = if capture { snapshot() } else { None };
            let entry_bytes =
                config_bytes(config) + snap.as_ref().map_or(0, CheckerSnapshot::bytes);
            if entry_bytes > self.budget {
                return;
            }
            bucket.push(Entry {
                config: config.clone(),
                snapshot: snap,
                bytes: entry_bytes,
                last_used: tick,
            });
            inner.bytes += entry_bytes;
            self.publishes.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_over_budget(&mut inner);
    }

    /// Drops least-recently-used entries until the budget holds again.
    fn evict_over_budget(&self, inner: &mut CacheInner) {
        while inner.bytes > self.budget {
            let victim = inner
                .entries
                .iter()
                .flat_map(|(key, bucket)| bucket.iter().map(move |e| (*key, e.last_used)))
                .min_by_key(|(_, used)| *used);
            let Some((key, used)) = victim else {
                inner.bytes = 0;
                return;
            };
            let bucket = inner.entries.get_mut(&key).expect("victim bucket");
            let index = bucket
                .iter()
                .position(|e| e.last_used == used)
                .expect("victim entry");
            let entry = bucket.swap_remove(index);
            inner.bytes = inner.bytes.saturating_sub(entry.bytes);
            if bucket.is_empty() {
                inner.entries.remove(&key);
            }
        }
    }

    /// Records that a consumer restored a snapshot handed out by
    /// [`lookup`](CheckpointCache::lookup).
    pub(crate) fn note_restore(&self) {
        self.restores.fetch_add(1, Ordering::Relaxed);
    }

    /// Evicts entries outside the `{initial, final}` per-switch mixture space
    /// of a new request — every reachable intermediate configuration mixes
    /// per-switch tables from those two, so anything else can never hit
    /// again. Called by the engine at the start of each churn request;
    /// entries over unchanged switches survive.
    pub(crate) fn retain_for(&self, initial: &Configuration, final_config: &Configuration) {
        if !self.enabled() {
            return;
        }
        let in_space = |sw: SwitchId, table: &Table| {
            let matches = |c: &Configuration| match c.table_ref(sw) {
                Some(t) => t == table,
                None => *table == Table::default(),
            };
            matches(initial) || matches(final_config)
        };
        let mut inner = self.inner.lock().expect("checkpoint cache lock");
        let mut freed = 0usize;
        inner.entries.retain(|_, bucket| {
            bucket.retain(|entry| {
                let keep = entry.config.iter().all(|(sw, table)| in_space(sw, table));
                if !keep {
                    freed += entry.bytes;
                }
                keep
            });
            !bucket.is_empty()
        });
        inner.bytes = inner.bytes.saturating_sub(freed);
    }

    /// Drops every entry (engine rebuild / re-pin: the problem triple
    /// changed wholesale).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().expect("checkpoint cache lock");
        inner.entries.clear();
        inner.bytes = 0;
        inner.spec = None;
        inner.snapshot_target = None;
    }

    /// Cumulative verdicts served from the cache.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative snapshot restores performed by consumers.
    pub(crate) fn restores(&self) -> usize {
        self.restores.load(Ordering::Relaxed)
    }

    /// Current estimated resident bytes.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("checkpoint cache lock").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_ltl::{builders, Prop};
    use netupd_model::prelude::*;

    fn spec() -> Ltl {
        builders::reachability(Prop::AtHost(HostId(1)))
    }

    fn config(port: u32) -> Configuration {
        let table = Table::new(vec![Rule::new(
            Priority(1),
            Pattern::any().with_field(Field::Dst, 1),
            vec![Action::Forward(PortId(port))],
        )]);
        Configuration::new().with_table(SwitchId(0), table)
    }

    #[test]
    fn lookup_misses_then_hits_after_publish() {
        let cache = CheckpointCache::new(1 << 20);
        let spec = spec();
        assert!(cache.lookup(&spec, &config(1)).is_none());
        cache.publish(&spec, &config(1), || None);
        assert!(cache.lookup(&spec, &config(1)).is_some());
        assert!(cache.lookup(&spec, &config(2)).is_none());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn zero_budget_disables_everything() {
        let cache = CheckpointCache::new(0);
        let spec = spec();
        cache.publish(&spec, &config(1), || None);
        assert!(cache.lookup(&spec, &config(1)).is_none());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn spec_change_clears_the_cache() {
        let cache = CheckpointCache::new(1 << 20);
        let a = spec();
        let b = builders::reachability(Prop::AtHost(HostId(7)));
        cache.publish(&a, &config(1), || None);
        cache.publish(&b, &config(2), || None);
        assert!(cache.lookup(&a, &config(1)).is_none(), "spec b evicted a");
        assert!(cache.lookup(&b, &config(2)).is_some());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Budget fits roughly one entry; publishing a second evicts the
        // first (older) one.
        let spec = spec();
        let one = config_bytes(&config(1));
        let cache = CheckpointCache::new(one + one / 2);
        cache.publish(&spec, &config(1), || None);
        cache.publish(&spec, &config(2), || None);
        assert!(cache.resident_bytes() <= one + one / 2);
        assert!(cache.lookup(&spec, &config(1)).is_none(), "LRU evicted");
        assert!(cache.lookup(&spec, &config(2)).is_some());
    }

    #[test]
    fn retain_for_evicts_out_of_space_entries() {
        let cache = CheckpointCache::new(1 << 20);
        let spec = spec();
        cache.publish(&spec, &config(1), || None);
        cache.publish(&spec, &config(2), || None);
        // New request whose mixture space is {config(2), config(3)}.
        cache.retain_for(&config(2), &config(3));
        assert!(cache.lookup(&spec, &config(1)).is_none());
        assert!(cache.lookup(&spec, &config(2)).is_some());
    }

    #[test]
    fn snapshots_are_captured_only_for_the_target_configuration() {
        use netupd_mc::CheckerSnapshot;
        let cache = CheckpointCache::new(1 << 20);
        let spec = spec();
        cache.set_snapshot_target(&config(2));
        // Non-target publish: the closure must not even run.
        cache.publish(&spec, &config(1), || {
            panic!("non-target configurations must not capture snapshots")
        });
        assert!(
            cache.lookup(&spec, &config(1)).expect("hit").is_none(),
            "non-target entry is verdict-only"
        );
        // Target publish captures; the hit hands the snapshot back.
        cache.publish(&spec, &config(2), || Some(CheckerSnapshot::new(7u32, 64)));
        let snapshot = cache
            .lookup(&spec, &config(2))
            .expect("hit")
            .expect("target entry carries a snapshot");
        assert_eq!(snapshot.downcast::<u32>(), Some(&7));
    }

    #[test]
    fn fingerprint_is_order_independent_and_incremental() {
        let t1 = config(1).table(SwitchId(0));
        let t2 = config(2).table(SwitchId(0));
        let ab = Configuration::new()
            .with_table(SwitchId(0), t1.clone())
            .with_table(SwitchId(1), t2.clone());
        let ba = Configuration::new()
            .with_table(SwitchId(1), t2.clone())
            .with_table(SwitchId(0), t1.clone());
        assert_eq!(fingerprint(&ab), fingerprint(&ba));
        // XOR maintenance: swap switch 1's table from t2 to t1.
        let swapped = ab.updated(SwitchId(1), t1.clone());
        let maintained = fingerprint(&ab)
            ^ switch_table_hash(SwitchId(1), &t2)
            ^ switch_table_hash(SwitchId(1), &t1);
        assert_eq!(fingerprint(&swapped), maintained);
    }
}
