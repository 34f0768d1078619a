//! Per-request metrics and server-level aggregation.
//!
//! Every served request reports a [`RequestMetrics`]: how long it queued,
//! how long synthesis took, and whether a warm engine was found in the pool.
//! The synthesis core's work counters travel in the result itself, on
//! success and on failure alike. The server
//! additionally counts admissions, completions, sheds, engine hits and
//! evictions into a [`MetricsSnapshot`]. It keeps no per-request samples, so
//! its memory does not grow with the requests it serves; a caller that wants
//! latency percentiles computes them from the [`RequestMetrics`] it receives.

use std::sync::Mutex;
use std::time::Duration;

use crate::config::TenantId;

/// Whether a request found a warm engine in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUse {
    /// A resident engine for the tenant was taken from the pool — the
    /// request syncs persistent state by diff.
    Hit,
    /// No resident engine: a new one was built and the request ran cold.
    /// First requests and post-eviction requests land here.
    Miss,
}

impl EngineUse {
    /// A short, stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineUse::Hit => "hit",
            EngineUse::Miss => "miss",
        }
    }
}

/// Metrics for one served request, returned alongside its result in
/// [`ServeOutcome`](crate::ServeOutcome).
#[derive(Debug, Clone)]
pub struct RequestMetrics {
    /// The tenant the request belongs to.
    pub tenant: TenantId,
    /// Time between admission and a worker starting synthesis.
    pub queue_wait: Duration,
    /// Wall-clock time of the synthesis call itself.
    pub service_time: Duration,
    /// Whether the request found a warm engine in the pool.
    pub engine: EngineUse,
}

/// A point-in-time snapshot of the server's aggregated metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Requests admitted (shed requests are not counted here).
    pub submitted: usize,
    /// Requests fully served (result delivered, success or typed failure).
    pub completed: usize,
    /// Requests shed because their tenant's queue was at its limit.
    pub shed_tenant: usize,
    /// Requests shed because the global queue was at its limit.
    pub shed_global: usize,
    /// Requests that found a warm engine in the pool.
    pub engine_hits: usize,
    /// Requests that built an engine.
    pub engine_misses: usize,
    /// Engines evicted from the pool under the per-shard cap.
    pub engines_evicted: usize,
}

/// The server's live metrics aggregator. Counters behind one mutex — touched once per request completion and once per shed,
/// which is negligible next to a synthesis call.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    inner: Mutex<MetricsInner>,
}

#[derive(Debug, Default)]
struct MetricsInner {
    submitted: usize,
    completed: usize,
    shed_tenant: usize,
    shed_global: usize,
    engine_hits: usize,
    engine_misses: usize,
    engines_evicted: usize,
}

impl Metrics {
    pub(crate) fn record_submitted(&self) {
        self.inner.lock().expect("metrics lock").submitted += 1;
    }

    pub(crate) fn record_shed_tenant(&self) {
        self.inner.lock().expect("metrics lock").shed_tenant += 1;
    }

    pub(crate) fn record_shed_global(&self) {
        self.inner.lock().expect("metrics lock").shed_global += 1;
    }

    /// Records one completed request: its engine hit/miss, and the pool
    /// evictions observed while returning the engine.
    pub(crate) fn record_completed(&self, metrics: &RequestMetrics, evicted: usize) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.completed += 1;
        match metrics.engine {
            EngineUse::Hit => inner.engine_hits += 1,
            EngineUse::Miss => inner.engine_misses += 1,
        }
        inner.engines_evicted += evicted;
    }

    /// Summarizes everything recorded so far.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            submitted: inner.submitted,
            completed: inner.completed,
            shed_tenant: inner.shed_tenant,
            shed_global: inner.shed_global,
            engine_hits: inner.engine_hits,
            engine_misses: inner.engine_misses,
            engines_evicted: inner.engines_evicted,
        }
    }
}
