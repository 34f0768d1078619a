//! The serving front end: admission control, the fair cross-tenant
//! scheduler, and the bounded worker fleet.
//!
//! # Scheduling
//!
//! Each tenant owns a FIFO queue of admitted requests. A tenant with queued
//! work and no in-flight request is *ready*; ready tenants sit in a global
//! round-robin ring. A free worker pops the next ready tenant, takes the
//! *front* request of its queue, marks the tenant active, and serves the
//! request outside any lock. When it finishes, the tenant rejoins the back
//! of the ring if more work is queued. Two invariants fall out:
//!
//! * **fairness** — each ready tenant gets one request per ring turn, so no
//!   tenant's burst starves the rest;
//! * **per-tenant FIFO** — a tenant is never in the ring while active, so at
//!   most one of its requests is in flight and they complete in submission
//!   order. This is what the engine-reuse determinism contract needs: the
//!   per-tenant request sequence the engine observes is the submission
//!   sequence (see the [crate docs](crate)).
//!
//! # Admission
//!
//! Backpressure is applied at submit time, never later: a request that would
//! push its tenant's queue past [`ServeConfig::tenant_queue_limit`] or the
//! global backlog past [`ServeConfig::global_queue_limit`] is rejected with a
//! typed [`AdmissionError`] and counted in the metrics. A shed request is
//! never enqueued, so it cannot perturb the order of the requests that were
//! admitted — shedding is invisible to a tenant's committed stream.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use netupd_synth::{SynthesisError, UpdateProblem, UpdateSequence};

use crate::config::{ServeConfig, TenantId};
use crate::metrics::{Metrics, MetricsSnapshot, RequestMetrics};
use crate::pool::EnginePool;

/// Why a request was shed at submit time.
///
/// Shed requests are reported here and counted in
/// [`MetricsSnapshot::shed_tenant`] / [`MetricsSnapshot::shed_global`]; they
/// are never enqueued, so they never affect the results of admitted
/// requests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The tenant's own queue is at [`ServeConfig::tenant_queue_limit`].
    TenantQueueFull {
        /// The tenant whose queue is full.
        tenant: TenantId,
        /// The tenant's queue depth at rejection time.
        depth: usize,
        /// The configured per-tenant limit.
        limit: usize,
    },
    /// The global backlog is at [`ServeConfig::global_queue_limit`].
    Overloaded {
        /// Queued requests across all tenants at rejection time.
        pending: usize,
        /// The configured global limit.
        limit: usize,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::TenantQueueFull {
                tenant,
                depth,
                limit,
            } => write!(f, "{tenant} queue full ({depth} queued, limit {limit})"),
            AdmissionError::Overloaded { pending, limit } => {
                write!(f, "server overloaded ({pending} queued, limit {limit})")
            }
            AdmissionError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl Error for AdmissionError {}

/// The result of one served request: the synthesis verdict plus the
/// request's metrics.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The synthesis result — exactly what a fresh per-request synthesizer
    /// would have returned for this problem, failures included, except for
    /// the statistics' `states_relabeled`, which engine reuse shrinks.
    pub result: Result<UpdateSequence, SynthesisError>,
    /// Timing and engine-reuse metrics for this request.
    pub metrics: RequestMetrics,
}

/// A handle to one admitted request's eventual [`ServeOutcome`].
#[derive(Debug)]
pub struct ResponseHandle {
    receiver: mpsc::Receiver<ServeOutcome>,
}

impl ResponseHandle {
    /// Blocks until the request is served and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the server was torn down without serving the request —
    /// admitted requests are always drained on an orderly
    /// [`shutdown`](UpdateServer::shutdown), so this indicates a worker
    /// panic.
    pub fn wait(self) -> ServeOutcome {
        self.receiver
            .recv()
            .expect("server dropped an admitted request (worker panicked?)")
    }
}

/// One admitted, not-yet-served request.
struct QueuedRequest {
    problem: UpdateProblem,
    enqueued: Instant,
    reply: mpsc::Sender<ServeOutcome>,
}

/// A tenant's scheduler state. The entry exists only while the tenant has
/// queued or in-flight work, so idle tenants cost nothing.
#[derive(Default)]
struct TenantState {
    queue: VecDeque<QueuedRequest>,
    /// Whether a worker is currently serving this tenant's front request.
    /// An active tenant is never in the ready ring — per-tenant FIFO.
    active: bool,
}

/// The mutexed scheduler core.
///
/// Invariant: a tenant id is in `ready` iff its state exists, is not
/// `active`, and has a non-empty queue — each id at most once.
#[derive(Default)]
struct Sched {
    tenants: HashMap<TenantId, TenantState>,
    /// Round-robin ring of ready tenants.
    ready: VecDeque<TenantId>,
    /// Queued (admitted, not started) requests across all tenants.
    pending: usize,
    paused: bool,
    shutdown: bool,
}

struct Inner {
    config: ServeConfig,
    sched: Mutex<Sched>,
    /// Signalled when work may be available, on resume, and on shutdown.
    work_ready: Condvar,
    pool: EnginePool,
    metrics: Metrics,
}

/// The multi-tenant update server: a bounded worker fleet over a sharded
/// engine pool (see the [module docs](self) and the [crate docs](crate)).
///
/// Dropping the server performs an orderly [`shutdown`](Self::shutdown)
/// (draining all admitted requests) if one was not done explicitly.
#[derive(Debug)]
pub struct UpdateServer {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("workers", &self.config.effective_workers())
            .field("resident_engines", &self.pool.resident())
            .finish_non_exhaustive()
    }
}

impl UpdateServer {
    /// Starts a server with `config.worker_threads` workers.
    pub fn start(config: ServeConfig) -> Self {
        let workers = config.effective_workers();
        let pool = EnginePool::new(
            config.effective_shards(),
            config.effective_engines_per_shard(),
        );
        let paused = config.start_paused;
        let inner = Arc::new(Inner {
            config,
            sched: Mutex::new(Sched {
                paused,
                ..Sched::default()
            }),
            work_ready: Condvar::new(),
            pool,
            metrics: Metrics::default(),
        });
        let workers = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("netupd-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        UpdateServer { inner, workers }
    }

    /// Submits a request for a tenant. Returns a [`ResponseHandle`] if
    /// admitted, or the typed shed reason if backpressure rejects it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::TenantQueueFull`] when the tenant's queue is at its
    /// limit, [`AdmissionError::Overloaded`] when the global backlog is at
    /// its limit, [`AdmissionError::ShuttingDown`] after
    /// [`shutdown`](Self::shutdown) has begun.
    pub fn submit(
        &self,
        tenant: TenantId,
        problem: UpdateProblem,
    ) -> Result<ResponseHandle, AdmissionError> {
        let mut sched = self.inner.sched.lock().expect("scheduler lock");
        if sched.shutdown {
            return Err(AdmissionError::ShuttingDown);
        }
        if sched.pending >= self.inner.config.global_queue_limit {
            let error = AdmissionError::Overloaded {
                pending: sched.pending,
                limit: self.inner.config.global_queue_limit,
            };
            drop(sched);
            self.inner.metrics.record_shed_global();
            return Err(error);
        }
        let state = sched.tenants.entry(tenant).or_default();
        if state.queue.len() >= self.inner.config.tenant_queue_limit {
            let error = AdmissionError::TenantQueueFull {
                tenant,
                depth: state.queue.len(),
                limit: self.inner.config.tenant_queue_limit,
            };
            drop(sched);
            self.inner.metrics.record_shed_tenant();
            return Err(error);
        }
        let (reply, receiver) = mpsc::channel();
        let was_idle = state.queue.is_empty() && !state.active;
        state.queue.push_back(QueuedRequest {
            problem,
            enqueued: Instant::now(),
            reply,
        });
        sched.pending += 1;
        if was_idle {
            sched.ready.push_back(tenant);
        }
        drop(sched);
        self.inner.metrics.record_submitted();
        self.inner.work_ready.notify_one();
        Ok(ResponseHandle { receiver })
    }

    /// Submits a request and blocks until it is served — the synchronous
    /// convenience path.
    ///
    /// # Errors
    ///
    /// The same admission errors as [`submit`](Self::submit).
    pub fn serve(
        &self,
        tenant: TenantId,
        problem: UpdateProblem,
    ) -> Result<ServeOutcome, AdmissionError> {
        self.submit(tenant, problem).map(ResponseHandle::wait)
    }

    /// Resumes a worker fleet started paused
    /// ([`ServeConfig::start_paused`](crate::ServeConfig::start_paused)).
    pub fn resume(&self) {
        self.inner.sched.lock().expect("scheduler lock").paused = false;
        self.inner.work_ready.notify_all();
    }

    /// Engines currently resident in the pool (not counting engines checked
    /// out by in-flight requests).
    pub fn resident_engines(&self) -> usize {
        self.inner.pool.resident()
    }

    /// A snapshot of the server's aggregated metrics so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Shuts down: stops admitting, drains every already-admitted request,
    /// joins the workers, and returns the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.inner.metrics.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut sched = self.inner.sched.lock().expect("scheduler lock");
            sched.shutdown = true;
            // A paused fleet still drains on shutdown; leaving it paused
            // would deadlock the join below.
            sched.paused = false;
        }
        self.inner.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("serve worker panicked");
        }
    }
}

impl Drop for UpdateServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_in_place();
        }
    }
}

/// One worker: pop the next ready tenant, serve its front request outside
/// the lock, repeat until shutdown and drained.
fn worker_loop(inner: &Inner) {
    loop {
        let (tenant, request) = {
            let mut sched = inner.sched.lock().expect("scheduler lock");
            loop {
                if !sched.paused {
                    if let Some(tenant) = sched.ready.pop_front() {
                        let state = sched
                            .tenants
                            .get_mut(&tenant)
                            .expect("ready tenant has state");
                        let request = state.queue.pop_front().expect("ready tenant has work");
                        state.active = true;
                        sched.pending -= 1;
                        break (tenant, request);
                    }
                    if sched.shutdown && sched.pending == 0 {
                        return;
                    }
                }
                sched = inner
                    .work_ready
                    .wait(sched)
                    .expect("scheduler lock poisoned");
            }
        };

        let queue_wait = request.enqueued.elapsed();
        let acquired = inner
            .pool
            .acquire(tenant, &request.problem, &inner.config.options);
        let mut engine = acquired.engine;
        let service_start = Instant::now();
        let result = engine.solve(&request.problem);
        let service_time = service_start.elapsed();
        let evicted = inner.pool.release(tenant, engine);

        let metrics = RequestMetrics {
            tenant,
            queue_wait,
            service_time,
            engine: acquired.engine_use,
        };
        inner.metrics.record_completed(&metrics, evicted);
        // A dropped ResponseHandle is a caller that stopped caring — fine.
        let _ = request.reply.send(ServeOutcome { result, metrics });

        let mut sched = inner.sched.lock().expect("scheduler lock");
        let state = sched
            .tenants
            .get_mut(&tenant)
            .expect("active tenant has state");
        state.active = false;
        if state.queue.is_empty() {
            sched.tenants.remove(&tenant);
        } else {
            sched.ready.push_back(tenant);
            inner.work_ready.notify_one();
        }
        if sched.shutdown && sched.pending == 0 {
            // Wake the fleet so every worker observes the drained state.
            inner.work_ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netupd_synth::{Synthesizer, UpdateProblem};
    use netupd_topo::generators;
    use netupd_topo::scenario::{multi_tenant_churn_streams, PropertyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tenant_problems(tenants: usize, steps: usize, seed: u64) -> Vec<Vec<UpdateProblem>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::fat_tree(4);
        let streams = multi_tenant_churn_streams(
            &graph,
            PropertyKind::Reachability,
            tenants,
            steps,
            &mut rng,
        )
        .expect("streams generate");
        let topology = Arc::new(graph.topology().clone());
        streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|s| UpdateProblem::from_scenario_shared(s, Arc::clone(&topology)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn serves_concurrent_tenants_identically_to_fresh_synthesis() {
        let streams = tenant_problems(3, 2, 41);
        let server = UpdateServer::start(ServeConfig::default().worker_threads(3));
        let mut handles = Vec::new();
        for (t, stream) in streams.iter().enumerate() {
            for problem in stream {
                let handle = server
                    .submit(TenantId(t as u64), problem.clone())
                    .expect("admitted");
                handles.push((problem.clone(), handle));
            }
        }
        for (problem, handle) in handles {
            let outcome = handle.wait();
            let served = outcome.result.expect("serves");
            let fresh = Synthesizer::new(problem)
                .synthesize()
                .expect("fresh solves");
            assert_eq!(served.commands, fresh.commands);
            assert_eq!(served.order, fresh.order);
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.submitted, 6);
        assert_eq!(metrics.completed, 6);
        assert_eq!(metrics.shed_tenant + metrics.shed_global, 0);
        // Step 2 of each tenant reuses the engine step 1 built.
        assert_eq!(metrics.engine_misses, 3);
        assert_eq!(metrics.engine_hits, 3);
    }

    #[test]
    fn per_tenant_requests_complete_in_submission_order() {
        let streams = tenant_problems(1, 4, 43);
        let server = UpdateServer::start(
            // Many workers, one tenant: FIFO must hold regardless.
            ServeConfig::default().worker_threads(4).paused(true),
        );
        let handles: Vec<_> = streams[0]
            .iter()
            .map(|p| server.submit(TenantId(0), p.clone()).expect("admitted"))
            .collect();
        server.resume();
        // Replay the same stream on one long-lived engine: if the server
        // preserved FIFO, each served result matches the chained replay.
        let mut engine = netupd_synth::UpdateEngine::for_problem(
            &streams[0][0],
            netupd_synth::SynthesisOptions::default(),
        );
        for (problem, handle) in streams[0].iter().zip(handles) {
            let served = handle.wait().result.expect("serves");
            let replay = engine.solve(problem).expect("replay solves");
            assert_eq!(served.commands, replay.commands);
            assert_eq!(served.order, replay.order);
        }
    }

    #[test]
    fn backpressure_sheds_with_typed_errors_and_counts_them() {
        let streams = tenant_problems(2, 3, 47);
        let server = UpdateServer::start(
            ServeConfig::default()
                .worker_threads(1)
                .tenant_queue_limit(1)
                .global_queue_limit(3)
                .paused(true),
        );
        let tenant = TenantId(0);
        // Paused server: the first submit queues, the second overflows the
        // tenant limit.
        let first = server.submit(tenant, streams[0][0].clone()).expect("fits");
        let shed = server.submit(tenant, streams[0][1].clone()).unwrap_err();
        assert_eq!(
            shed,
            AdmissionError::TenantQueueFull {
                tenant,
                depth: 1,
                limit: 1
            }
        );
        // Fill the global backlog with other tenants, then overflow it.
        let other_a = server
            .submit(TenantId(1), streams[1][0].clone())
            .expect("fits");
        let other_b = server
            .submit(TenantId(2), streams[1][1].clone())
            .expect("fits");
        let shed_global = server
            .submit(TenantId(3), streams[1][2].clone())
            .unwrap_err();
        assert_eq!(
            shed_global,
            AdmissionError::Overloaded {
                pending: 3,
                limit: 3
            }
        );

        let metrics = server.metrics();
        assert_eq!(metrics.submitted, 3);
        assert_eq!(metrics.shed_tenant, 1);
        assert_eq!(metrics.shed_global, 1);

        // Every admitted request is still served correctly after resume.
        server.resume();
        for (handle, problem) in [
            (first, &streams[0][0]),
            (other_a, &streams[1][0]),
            (other_b, &streams[1][1]),
        ] {
            let served = handle.wait().result.expect("serves");
            let fresh = Synthesizer::new(problem.clone())
                .synthesize()
                .expect("fresh solves");
            assert_eq!(served.commands, fresh.commands);
        }
        let final_metrics = server.shutdown();
        assert_eq!(final_metrics.completed, 3);
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_rejects_new_ones() {
        let streams = tenant_problems(2, 1, 53);
        let server = UpdateServer::start(ServeConfig::default().worker_threads(2).paused(true));
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                server
                    .submit(TenantId(t as u64), stream[0].clone())
                    .expect("admitted")
            })
            .collect();
        let metrics = server.shutdown();
        assert_eq!(metrics.completed, 2, "shutdown drains the backlog");
        for handle in handles {
            assert!(handle.wait().result.is_ok());
        }
    }

    #[test]
    fn drop_performs_an_orderly_shutdown() {
        let streams = tenant_problems(1, 1, 59);
        let server = UpdateServer::start(ServeConfig::default().worker_threads(1));
        let inner = Arc::clone(&server.inner);
        let handle = server
            .submit(TenantId(0), streams[0][0].clone())
            .expect("admitted");
        drop(server);
        // Drop drained the backlog before joining the workers.
        assert!(inner.sched.lock().unwrap().shutdown);
        assert!(handle.wait().result.is_ok());
        assert_eq!(inner.metrics.snapshot().completed, 1);
    }
}
