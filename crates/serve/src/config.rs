//! Server configuration: tenant identity, pool sizing, worker fleet size,
//! and admission-control limits.

use std::fmt;

use netupd_synth::SynthesisOptions;

/// Identifies one tenant: a `(topology, classes, ingress)` request stream
/// served by its own long-lived engine.
///
/// Tenant ids are opaque to the server — the id picks the pool shard
/// (`id % shards`) and the per-tenant FIFO queue; nothing else is derived
/// from it. Two tenants with identical problems are still two tenants: each
/// gets its own engine and its own queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Configuration of an [`UpdateServer`](crate::UpdateServer).
///
/// The defaults are sized for tests and examples; a serving deployment tunes
/// the caps to its memory budget (each resident engine holds a Kripke
/// skeleton plus one warm checking context — the per-shard engine cap is the
/// memory knob) and the queue limits to its latency target (queued work is
/// future latency; shedding early is cheaper than timing out late).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Synthesis options every request is solved with. A solve runs on the
    /// one worker thread that picked it up; the server scales across tenants.
    pub options: SynthesisOptions,
    /// Number of worker threads draining the cross-tenant queue. Clamped to
    /// at least 1.
    pub worker_threads: usize,
    /// Number of engine-pool shards. More shards mean less lock contention on
    /// the pool; the shard of a tenant is `tenant.0 % shards`. Clamped to at
    /// least 1.
    pub shards: usize,
    /// Maximum resident engines per shard — the memory cap. When a shard
    /// exceeds it, the least-recently-used engine is evicted (its tenant's
    /// next request cold-starts, results unchanged). Clamped to at least 1.
    pub engines_per_shard: usize,
    /// Maximum *queued* (not yet started) requests per tenant. A submit that
    /// would exceed it is shed with
    /// [`AdmissionError::TenantQueueFull`](crate::AdmissionError).
    pub tenant_queue_limit: usize,
    /// Maximum queued requests across all tenants. A submit that would exceed
    /// it is shed with [`AdmissionError::Overloaded`](crate::AdmissionError).
    pub global_queue_limit: usize,
    /// Start with the worker fleet paused: requests are admitted (and shed)
    /// by the normal rules but none is served until
    /// [`UpdateServer::resume`](crate::UpdateServer::resume) is called.
    /// Deterministic queue-buildup for backpressure tests and benches.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            options: SynthesisOptions::default(),
            worker_threads: 4,
            shards: 8,
            engines_per_shard: 64,
            tenant_queue_limit: 64,
            global_queue_limit: 4096,
            start_paused: false,
        }
    }
}

impl ServeConfig {
    /// Builder-style setter for the synthesis options.
    #[must_use]
    pub fn options(mut self, options: SynthesisOptions) -> Self {
        self.options = options;
        self
    }

    /// Builder-style setter for the worker fleet size (clamped to ≥ 1).
    #[must_use]
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers.max(1);
        self
    }

    /// Builder-style setter for the shard count (clamped to ≥ 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style setter for the per-shard engine cap (clamped to ≥ 1).
    #[must_use]
    pub fn engines_per_shard(mut self, cap: usize) -> Self {
        self.engines_per_shard = cap.max(1);
        self
    }

    /// Builder-style setter for the per-tenant queue limit.
    #[must_use]
    pub fn tenant_queue_limit(mut self, limit: usize) -> Self {
        self.tenant_queue_limit = limit;
        self
    }

    /// Builder-style setter for the global queue limit.
    #[must_use]
    pub fn global_queue_limit(mut self, limit: usize) -> Self {
        self.global_queue_limit = limit;
        self
    }

    /// Builder-style setter for starting paused (see
    /// [`ServeConfig::start_paused`]).
    #[must_use]
    pub fn paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// The worker-thread count after clamping.
    pub(crate) fn effective_workers(&self) -> usize {
        self.worker_threads.max(1)
    }

    /// The shard count after clamping.
    pub(crate) fn effective_shards(&self) -> usize {
        self.shards.max(1)
    }

    /// The per-shard engine cap after clamping.
    pub(crate) fn effective_engines_per_shard(&self) -> usize {
        self.engines_per_shard.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let config = ServeConfig::default();
        assert!(config.worker_threads >= 1);
        assert!(config.shards >= 1);
        assert!(config.engines_per_shard >= 1);
        assert!(config.tenant_queue_limit >= 1);
        assert!(config.global_queue_limit >= config.tenant_queue_limit);
        assert!(!config.start_paused);
    }

    #[test]
    fn builders_clamp_to_one() {
        let config = ServeConfig::default()
            .worker_threads(0)
            .shards(0)
            .engines_per_shard(0);
        assert_eq!(config.effective_workers(), 1);
        assert_eq!(config.effective_shards(), 1);
        assert_eq!(config.effective_engines_per_shard(), 1);
    }

    #[test]
    fn tenant_id_displays_stably() {
        assert_eq!(TenantId(17).to_string(), "tenant-17");
    }
}
