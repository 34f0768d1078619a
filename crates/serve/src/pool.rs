//! The sharded engine pool: long-lived [`UpdateEngine`]s keyed by tenant,
//! with LRU eviction under a per-shard cap.
//!
//! A tenant's engine is *taken out* of the pool for the duration of a
//! request and returned afterwards, so the pool locks are never held across
//! a synthesis call. Per-tenant FIFO (enforced by the scheduler, see
//! [`crate::server`]) guarantees at most one in-flight request per tenant,
//! so an engine can never be taken twice concurrently.
//!
//! **Eviction is invisible in results.** An evicted tenant's next request
//! misses the pool and runs on a cold engine — which, by the engine ≡ fresh
//! invariant (DESIGN.md §6), returns exactly what the warm engine would
//! have. Eviction costs work (the amortization is lost), never correctness.
//! An evicted engine is dropped; a miss builds a new one.

use std::collections::HashMap;
use std::sync::Mutex;

use netupd_synth::{SynthesisOptions, UpdateEngine, UpdateProblem};

use crate::config::TenantId;
use crate::metrics::EngineUse;

/// What [`EnginePool::acquire`] produced, and how.
pub struct AcquiredEngine {
    /// The engine to serve the request with; return it via
    /// [`EnginePool::release`].
    pub engine: UpdateEngine,
    /// Whether a warm engine was found ([`EngineUse::Hit`]) or one had to be
    /// built ([`EngineUse::Miss`]).
    pub engine_use: EngineUse,
}

/// A sharded pool of per-tenant [`UpdateEngine`]s (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct EnginePool {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
}

#[derive(Debug, Default)]
struct Shard {
    engines: HashMap<TenantId, Entry>,
    /// Monotonic use counter; entries carry the tick of their last use, and
    /// the smallest tick is the LRU victim.
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    engine: UpdateEngine,
    last_used: u64,
}

impl EnginePool {
    /// Creates a pool with `shards` shards of at most `per_shard_cap`
    /// resident engines each (both clamped to ≥ 1). Every engine holds at
    /// most one checking context, so the engine count is the memory bound.
    pub fn new(shards: usize, per_shard_cap: usize) -> Self {
        EnginePool {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard_cap: per_shard_cap.max(1),
        }
    }

    /// The shard a tenant maps to.
    fn shard(&self, tenant: TenantId) -> &Mutex<Shard> {
        &self.shards[(tenant.0 % self.shards.len() as u64) as usize]
    }

    /// Takes the tenant's engine out of the pool, building one for
    /// `problem`'s triple on a miss; the caller must
    /// [`release`](EnginePool::release) it after the request.
    pub fn acquire(
        &self,
        tenant: TenantId,
        problem: &UpdateProblem,
        options: &SynthesisOptions,
    ) -> AcquiredEngine {
        let resident = self
            .shard(tenant)
            .lock()
            .expect("pool shard lock")
            .engines
            .remove(&tenant);
        match resident {
            Some(entry) => AcquiredEngine {
                engine: entry.engine,
                engine_use: EngineUse::Hit,
            },
            None => AcquiredEngine {
                engine: UpdateEngine::for_problem(problem, options.clone()),
                engine_use: EngineUse::Miss,
            },
        }
    }

    /// Returns a tenant's engine to the pool, stamping its recency and
    /// evicting least-recently-used engines while the shard is over its
    /// engine-count cap. Returns the number of engines evicted (and
    /// dropped).
    pub fn release(&self, tenant: TenantId, engine: UpdateEngine) -> usize {
        let mut shard = self.shard(tenant).lock().expect("pool shard lock");
        shard.tick += 1;
        let tick = shard.tick;
        shard.engines.insert(
            tenant,
            Entry {
                engine,
                last_used: tick,
            },
        );
        let mut evicted = 0;
        while shard.engines.len() > self.per_shard_cap {
            let victim = shard
                .engines
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(t, _)| *t)
                .expect("over-cap shard is non-empty");
            shard.engines.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// Total resident engines across all shards (excluding engines currently
    /// taken out for in-flight requests).
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("pool shard lock").engines.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_synth::UpdateProblem;
    use netupd_topo::generators;
    use netupd_topo::scenario::{churn_scenarios, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Two problems over *different* diamond flows on one fat tree — distinct
    /// tenants' workloads.
    fn two_problems() -> (UpdateProblem, UpdateProblem) {
        let graph = generators::fat_tree(4);
        let topology = Arc::new(graph.topology().clone());
        let mut rng = StdRng::seed_from_u64(5);
        let a = churn_scenarios(&graph, PropertyKind::Reachability, 1, &mut rng).unwrap();
        let b = churn_scenarios(&graph, PropertyKind::Waypoint, 1, &mut rng).unwrap();
        (
            UpdateProblem::from_scenario_shared(&a[0], Arc::clone(&topology)),
            UpdateProblem::from_scenario_shared(&b[0], Arc::clone(&topology)),
        )
    }

    #[test]
    fn acquire_misses_cold_and_hits_after_release() {
        let (problem, _) = two_problems();
        let pool = EnginePool::new(2, 4);
        let options = SynthesisOptions::default();
        let tenant = TenantId(3);

        let acquired = pool.acquire(tenant, &problem, &options);
        assert_eq!(acquired.engine_use, EngineUse::Miss);
        assert_eq!(pool.release(tenant, acquired.engine), 0);
        assert_eq!(pool.resident(), 1);

        let again = pool.acquire(tenant, &problem, &options);
        assert_eq!(again.engine_use, EngineUse::Hit);
        assert_eq!(pool.resident(), 0, "taken engines leave the pool");
        pool.release(tenant, again.engine);
    }

    #[test]
    fn over_cap_shard_evicts_the_lru_engine() {
        let (problem_a, problem_b) = two_problems();
        // One shard, cap 1: the second tenant's release evicts the first.
        let pool = EnginePool::new(1, 1);
        let options = SynthesisOptions::default();
        let (t1, t2) = (TenantId(1), TenantId(2));

        let a = pool.acquire(t1, &problem_a, &options);
        pool.release(t1, a.engine);
        let b = pool.acquire(t2, &problem_b, &options);
        assert_eq!(b.engine_use, EngineUse::Miss);
        let evicted = pool.release(t2, b.engine);
        assert_eq!(evicted, 1, "t1's engine is the LRU victim");
        assert_eq!(pool.resident(), 1);

        // t1's engine was dropped: its next acquire misses.
        let a2 = pool.acquire(t1, &problem_a, &options);
        assert_eq!(a2.engine_use, EngineUse::Miss);
        pool.release(t1, a2.engine);
    }

    #[test]
    fn recency_is_updated_on_release() {
        let (problem_a, problem_b) = two_problems();
        let pool = EnginePool::new(1, 2);
        let options = SynthesisOptions::default();
        let (t1, t2, t3) = (TenantId(1), TenantId(2), TenantId(3));

        for (t, p) in [(t1, &problem_a), (t2, &problem_b)] {
            let acquired = pool.acquire(t, p, &options);
            pool.release(t, acquired.engine);
        }
        // Touch t1 so t2 becomes the LRU entry.
        let touched = pool.acquire(t1, &problem_a, &options);
        pool.release(t1, touched.engine);
        // Inserting t3 must evict t2, not t1.
        let third = pool.acquire(t3, &problem_b, &options);
        assert_eq!(pool.release(t3, third.engine), 1);
        assert_eq!(
            pool.acquire(t1, &problem_a, &options).engine_use,
            EngineUse::Hit,
            "t1 was touched more recently than t2 and must survive"
        );
    }
}
