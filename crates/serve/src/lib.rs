//! # netupd-serve
//!
//! A multi-tenant serving layer over the long-lived
//! [`UpdateEngine`](netupd_synth::UpdateEngine).
//!
//! The engine (DESIGN.md §6) amortizes Kripke skeletons, checker labelings,
//! and worker contexts across a *stream* of requests — for **one**
//! `(topology, classes, ingress)` tenant. Production means many tenants with
//! concurrent request streams, and that multiplexing is what this crate
//! provides:
//!
//! * a **sharded engine pool** ([`pool`]) keyed by [`TenantId`]: each shard
//!   owns the long-lived engines of its tenants with LRU eviction under a
//!   configurable per-shard cap, so resident memory is bounded no matter how
//!   many tenants appear;
//! * a **bounded worker fleet** ([`server::UpdateServer`]) that schedules
//!   cross-tenant requests fairly — round-robin over ready tenants, one
//!   request per turn — while preserving **per-tenant FIFO**, the order the
//!   engine-reuse determinism contract needs (churn steps chain exactly);
//! * **admission control** with queue-depth backpressure: a request that
//!   would overflow its tenant's queue or the global queue is *shed* with a
//!   typed [`AdmissionError`] at submit time — reported to the caller and
//!   counted, never silently dropped, and never enqueued (so a shed can
//!   never corrupt a tenant's stream);
//! * **per-request metrics** ([`metrics`]): queue wait, service time and
//!   engine hit/miss on every outcome, and server-wide counters of
//!   admissions, completions, sheds, engine hits and evictions; the
//!   synthesis result carries its own [`SynthStats`](netupd_synth::SynthStats).
//!
//! # Determinism under concurrency
//!
//! The serve path never changes *results*, only *when and on which thread*
//! they are computed. For any tenant, the committed sequences and verdicts
//! are byte-identical to fresh per-request synthesis, regardless of the
//! worker count, shard count, pool caps, or how other tenants' requests
//! interleave. The argument is two already-proven invariants composed
//! (DESIGN.md §11):
//!
//! 1. **engine ≡ fresh** — an [`UpdateEngine`](netupd_synth::UpdateEngine)
//!    answers every request exactly as a fresh `Synthesizer` would
//!    (`tests/engine_differential.rs`), for *any* request sequence — so a
//!    pool eviction (which cold-starts the next request) is invisible in
//!    results;
//! 2. **per-tenant FIFO** — a tenant's requests are processed serially in
//!    submission order by whichever worker holds the tenant's turn, so the
//!    per-tenant request sequence the engine observes is the submission
//!    sequence.
//!
//! Cross-tenant interleaving touches no shared synthesis state: engines are
//! taken out of the pool while serving and each is pinned to its tenant.
//! `tests/serve_differential.rs` enforces serve ≡ fresh for every backend ×
//! strategy under concurrent tenants.
//!
//! # Example
//!
//! ```
//! use netupd_serve::{ServeConfig, TenantId, UpdateServer};
//! use netupd_synth::UpdateProblem;
//! use netupd_topo::{generators, scenario::{multi_tenant_churn_streams, PropertyKind}};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::fat_tree(4);
//! let streams = multi_tenant_churn_streams(&graph, PropertyKind::Reachability, 3, 2, &mut rng)
//!     .expect("streams generate");
//! let topology = Arc::new(graph.topology().clone());
//!
//! let server = UpdateServer::start(ServeConfig::default().worker_threads(2));
//! let mut handles = Vec::new();
//! for (t, stream) in streams.iter().enumerate() {
//!     for scenario in stream {
//!         let problem = UpdateProblem::from_scenario_shared(scenario, Arc::clone(&topology));
//!         handles.push(server.submit(TenantId(t as u64), problem).expect("admitted"));
//!     }
//! }
//! for handle in handles {
//!     let outcome = handle.wait();
//!     assert!(outcome.result.is_ok());
//! }
//! let metrics = server.shutdown();
//! assert_eq!(metrics.completed, 6);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod metrics;
pub mod pool;
pub mod server;

pub use config::{ServeConfig, TenantId};
pub use metrics::{EngineUse, MetricsSnapshot, RequestMetrics};
pub use server::{AdmissionError, ResponseHandle, ServeOutcome, UpdateServer};

// The worker fleet moves engines and problems across threads; keep the
// requirement explicit so a non-`Send` regression in a lower layer fails
// here, with a readable error, rather than deep inside `thread::spawn`.
fn _assert_send_bounds() {
    fn is_send<T: Send>() {}
    is_send::<netupd_synth::UpdateEngine>();
    is_send::<netupd_synth::UpdateProblem>();
}
