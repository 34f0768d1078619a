//! Serve stream: run a multi-tenant churn workload through the
//! `netupd-serve` worker fleet and read the serving metrics.
//!
//! Eight tenants each roll through a three-step reconfiguration of their own
//! flow on one shared fat-tree. The server multiplexes them over a bounded
//! worker fleet with one long-lived engine per tenant (pooled, LRU-evicted
//! under a cap), preserving per-tenant FIFO — so every committed sequence is
//! byte-identical to fresh per-request synthesis (that is tested in
//! `tests/serve_differential.rs`), while the fleet overlaps tenants and the
//! engines amortize work within each tenant's stream.
//!
//! Run with: `cargo run --example serve_stream`

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use netupd_serve::{EngineUse, ServeConfig, TenantId, UpdateServer};
use netupd_synth::UpdateProblem;
use netupd_topo::generators;
use netupd_topo::scenario::{multi_tenant_churn_streams, PropertyKind};

const TENANTS: usize = 8;
const STEPS: usize = 3;

fn main() {
    // A seeded multi-tenant workload: each tenant gets its own chained churn
    // stream over the shared topology.
    let mut rng = StdRng::seed_from_u64(42);
    let graph = generators::fat_tree(4);
    let streams =
        multi_tenant_churn_streams(&graph, PropertyKind::Reachability, TENANTS, STEPS, &mut rng)
            .expect("fat-trees admit churn streams");
    let topology = Arc::new(graph.topology().clone());

    println!("Serving {TENANTS} tenants x {STEPS} churn steps over one fat-tree...");
    let server = UpdateServer::start(
        ServeConfig::default()
            .worker_threads(4)
            .shards(4)
            .engines_per_shard(4),
    );

    // Submit round-robin by step, as concurrent tenant streams would arrive,
    // then wait for every response.
    let start = Instant::now();
    let mut handles = Vec::new();
    for step in 0..STEPS {
        for (t, stream) in streams.iter().enumerate() {
            let problem = UpdateProblem::from_scenario_shared(&stream[step], Arc::clone(&topology));
            let handle = server
                .submit(TenantId(t as u64), problem)
                .expect("default limits admit this workload");
            handles.push((t, step, handle));
        }
    }
    for (tenant, step, handle) in handles {
        let outcome = handle.wait();
        let update = outcome.result.expect("churn steps are solvable");
        println!(
            "  tenant {tenant} step {step}: {} commands, engine {}, wait {:?}, service {:?}",
            update.commands.num_updates(),
            match outcome.metrics.engine {
                EngineUse::Hit => "hit ",
                EngineUse::Miss => "miss",
            },
            outcome.metrics.queue_wait,
            outcome.metrics.service_time,
        );
    }
    let wall = start.elapsed();

    let metrics = server.shutdown();
    let requests = TENANTS * STEPS;
    println!("\nServed {requests} requests in {wall:?}");
    println!(
        "  throughput        {:.0} req/s",
        requests as f64 / wall.as_secs_f64()
    );
    println!(
        "  engine pool       {} hits / {} misses / {} evicted",
        metrics.engine_hits, metrics.engine_misses, metrics.engines_evicted
    );
}
