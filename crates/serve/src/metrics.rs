//! Per-request metrics and server-level aggregation.
//!
//! Every served request reports a [`RequestMetrics`]: how long it queued,
//! how long synthesis took, and whether a warm engine was found in the pool.
//! The synthesis core's work counters travel in the result itself, on
//! success and on failure alike. The server
//! additionally aggregates every completed request into a
//! [`MetricsSnapshot`] — counters plus p50/p99 [`LatencySummary`]s.
//!
//! Percentiles use the nearest-rank definition over the full recorded sample
//! set (no histogram bucketing), so `p50 ≤ p99 ≤ max` holds exactly.

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

/// Nearest-rank percentile summary of a latency sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub samples: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// 50th percentile (nearest rank).
    pub p50: Duration,
    /// 99th percentile (nearest rank).
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes a sample set. Sorts a copy; `p50 ≤ p99 ≤ max` by
    /// construction. An empty set summarizes to all-zero.
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        LatencySummary {
            samples: sorted.len(),
            mean: total / sorted.len() as u32,
            p50: nearest_rank(&sorted, 0.50),
            p99: nearest_rank(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// The nearest-rank percentile of an ascending-sorted non-empty sample set:
/// the `ceil(q · n)`-th smallest sample (1-indexed).
fn nearest_rank(sorted: &[Duration], q: f64) -> Duration {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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
    /// Queue-wait summary over all completed requests.
    pub queue_wait: LatencySummary,
    /// Service-time summary over all completed requests.
    pub service_time: LatencySummary,
}

/// The server's live metrics aggregator. Counters and raw latency samples
/// behind one mutex — touched once per request completion and once per shed,
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
    queue_waits: Vec<Duration>,
    service_times: Vec<Duration>,
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

    /// Records one completed request: its latencies, its engine hit/miss,
    /// and the pool evictions observed while returning the engine.
    pub(crate) fn record_completed(&self, metrics: &RequestMetrics, evicted: usize) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.completed += 1;
        match metrics.engine {
            EngineUse::Hit => inner.engine_hits += 1,
            EngineUse::Miss => inner.engine_misses += 1,
        }
        inner.engines_evicted += evicted;
        inner.queue_waits.push(metrics.queue_wait);
        inner.service_times.push(metrics.service_time);
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
            queue_wait: LatencySummary::from_samples(&inner.queue_waits),
            service_time: LatencySummary::from_samples(&inner.service_times),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn empty_summary_is_zero() {
        let summary = LatencySummary::from_samples(&[]);
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.p99, Duration::ZERO);
    }

    #[test]
    fn nearest_rank_percentiles_are_ordered() {
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        let summary = LatencySummary::from_samples(&samples);
        assert_eq!(summary.p50, ms(50));
        assert_eq!(summary.p99, ms(99));
        assert_eq!(summary.max, ms(100));
        assert!(summary.p50 <= summary.p99 && summary.p99 <= summary.max);
    }

    #[test]
    fn single_sample_collapses_all_percentiles() {
        let summary = LatencySummary::from_samples(&[ms(7)]);
        assert_eq!(summary.p50, ms(7));
        assert_eq!(summary.p99, ms(7));
        assert_eq!(summary.max, ms(7));
        assert_eq!(summary.mean, ms(7));
    }

    #[test]
    fn summary_is_order_independent() {
        let a = LatencySummary::from_samples(&[ms(3), ms(1), ms(2)]);
        let b = LatencySummary::from_samples(&[ms(1), ms(2), ms(3)]);
        assert_eq!(a, b);
    }
}
