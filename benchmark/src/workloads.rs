//! The five workloads: what each one asks of the system, generated from the
//! seed. The program under test receives only the generated problems.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netupd_model::Topology;
use netupd_synth::{Granularity, SearchStrategy, SynthesisOptions, UpdateProblem};
use netupd_topo::{
    generators,
    scenario::{
        churn_scenarios, double_diamond_scenario, multi_diamond_scenario, PropertyKind,
        UpdateScenario,
    },
    NetworkGraph,
};
use rand::{rngs::StdRng, Rng};

use crate::stats::{arrival_schedule, sub_rng, Arrival};

pub const NAMES: [&str; 5] = [
    "oneshot-dfs",
    "oneshot-sat",
    "infeasible-verdict",
    "churn-engine",
    "serve-open",
];

/// The answer an instance is known to have, from how it was constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Solvable: the result must be a sequence the oracle accepts.
    Sequence,
    /// The crossed dependencies of a double diamond admit no switch order.
    NoOrdering,
}

#[derive(Debug, Clone)]
pub struct Instance {
    pub problem: UpdateProblem,
    pub options: SynthesisOptions,
    pub expect: Expect,
}

/// How the instances are offered to the system.
#[derive(Debug, Clone)]
pub enum Shape {
    /// Closed loop, one client, a fresh `Synthesizer` per request.
    Fresh,
    /// Closed loop, one client; consecutive runs of `steps` instances are one
    /// chained churn stream served by one `UpdateEngine`, built with the
    /// stream's first request.
    EngineStreams { steps: usize },
    /// Open loop through an `UpdateServer`. The instance list is in submit
    /// order: `warmup` untimed requests, then one request per entry of
    /// `arrivals` at its due time, then `drain` requests as one burst.
    OpenLoop {
        tenants: Vec<u64>,
        warmup: usize,
        arrivals: Vec<Arrival>,
        drain: usize,
    },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub instances: Vec<Instance>,
    pub shape: Shape,
    /// A request slower than this counts as failed.
    pub limit: Duration,
    /// Time spent in the topology generators and the scenario generators.
    pub generate: Duration,
    pub scenario: Duration,
}

// Sizes. A run's statistics are taken over the instance population, so the
// populations are large enough that another seed draws a statistically
// similar one (README.md, "Steadiness across seeds").
const ONESHOT_SWITCHES: usize = 200;
const ONESHOT_FLOWS: usize = 2;
const ONESHOT_INSTANCES: usize = 480;
/// Switches a oneshot instance updates. Search time grows faster than
/// linearly in this, so an unbounded draw puts a tenth of a pass's time into
/// its one or two largest instances and the totals follow the seed's luck.
const ONESHOT_UNITS: std::ops::RangeInclusive<usize> = 24..=31;
/// Switches every step of a churn stream updates, for the same reason.
const CHURN_UNITS: std::ops::RangeInclusive<usize> = 6..=13;
const VERDICT_INSTANCES_PER_SIZE: [(usize, usize); 3] = [(4, 48), (8, 48), (10, 32)];
const CHURN_SWITCHES: usize = 100;
const CHURN_STREAMS: usize = 384;
const CHURN_STEPS: usize = 16;
const SERVE_TENANTS: u64 = 512;
const SERVE_RATE: f64 = 200.0;
const SERVE_WARMUP: usize = 64;

struct Generator {
    generate: Duration,
    scenario: Duration,
}

impl Generator {
    fn small_world(&mut self, n: usize, rng: &mut StdRng) -> NetworkGraph {
        let start = Instant::now();
        let graph = generators::small_world(n, 4, 0.1, rng);
        self.generate += start.elapsed();
        graph
    }

    fn fat_tree(&mut self, k: usize) -> NetworkGraph {
        let start = Instant::now();
        let graph = generators::fat_tree(k);
        self.generate += start.elapsed();
        graph
    }

    fn scenario<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.scenario += start.elapsed();
        out
    }
}

/// Builds the named workload for `seed`, sized for `seconds` of measurement
/// (only the open loop's length depends on it).
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    let mut gen = Generator {
        generate: Duration::ZERO,
        scenario: Duration::ZERO,
    };
    let (instances, shape, limit) = match name {
        "oneshot-dfs" => (
            oneshot(&mut gen, seed, SearchStrategy::Dfs),
            Shape::Fresh,
            Duration::from_secs(1),
        ),
        "oneshot-sat" => (
            oneshot(&mut gen, seed, SearchStrategy::SatGuided),
            Shape::Fresh,
            Duration::from_secs(5),
        ),
        "infeasible-verdict" => (
            verdict(&mut gen, seed),
            Shape::Fresh,
            Duration::from_millis(250),
        ),
        "churn-engine" => (
            churn(&mut gen, seed),
            Shape::EngineStreams { steps: CHURN_STEPS },
            Duration::from_millis(250),
        ),
        "serve-open" => {
            let (instances, shape) = serve(&mut gen, seed, seconds);
            (instances, shape, Duration::from_millis(500))
        }
        _ => return None,
    };
    Some(Workload {
        instances,
        shape,
        limit,
        generate: gen.generate,
        scenario: gen.scenario,
    })
}

fn shared(graph: &NetworkGraph) -> Arc<Topology> {
    Arc::new(graph.topology().clone())
}

fn solvable(
    steps: &[UpdateScenario],
    topology: &Arc<Topology>,
    options: &SynthesisOptions,
) -> Vec<Instance> {
    steps
        .iter()
        .map(|step| Instance {
            problem: UpdateProblem::from_scenario_shared(step, Arc::clone(topology)),
            options: options.clone(),
            expect: Expect::Sequence,
        })
        .collect()
}

/// Multi-diamond updates on Small-World graphs, cycling through the three
/// property families. `oneshot-dfs` and `oneshot-sat` get the identical list.
fn oneshot(gen: &mut Generator, seed: u64, strategy: SearchStrategy) -> Vec<Instance> {
    const KINDS: [PropertyKind; 3] = [
        PropertyKind::Reachability,
        PropertyKind::Waypoint,
        PropertyKind::ServiceChain { length: 3 },
    ];
    let options = SynthesisOptions::default().strategy(strategy);
    let mut instances = Vec::with_capacity(ONESHOT_INSTANCES);
    let mut draw = 0;
    while instances.len() < ONESHOT_INSTANCES {
        let mut rng = sub_rng(seed, "oneshot", draw);
        draw += 1;
        let graph = gen.small_world(ONESHOT_SWITCHES, &mut rng);
        let kind = KINDS[instances.len() % KINDS.len()];
        let scenario =
            gen.scenario(|| multi_diamond_scenario(&graph, kind, ONESHOT_FLOWS, &mut rng));
        // A draw that could not place every flow is a smaller problem; redraw.
        if let Some(scenario) = scenario.filter(|s| {
            s.pairs.len() == ONESHOT_FLOWS && ONESHOT_UNITS.contains(&s.updating_switches())
        }) {
            instances.extend(solvable(&[scenario], &shared(&graph), &options));
        }
    }
    instances
}

/// Double diamonds on fat trees, each asked at switch granularity (known
/// answer: no ordering exists) and at rule granularity (known answer: a
/// sequence).
fn verdict(gen: &mut Generator, seed: u64) -> Vec<Instance> {
    let mut instances = Vec::new();
    for (k, count) in VERDICT_INSTANCES_PER_SIZE {
        let graph = gen.fat_tree(k);
        let topology = shared(&graph);
        let mut rng = sub_rng(seed, "verdict", k as u64);
        let mut placed = 0;
        while placed < count {
            let Some(scenario) = gen
                .scenario(|| double_diamond_scenario(&graph, PropertyKind::Reachability, &mut rng))
            else {
                continue;
            };
            // The dependency cycle needs an interior switch on both paths
            // (true of any two disjoint fat-tree paths; checked, not assumed).
            if scenario
                .pairs
                .iter()
                .any(|p| p.initial_path.len() < 3 || p.final_path.len() < 3)
            {
                continue;
            }
            placed += 1;
            let problem = UpdateProblem::from_scenario_shared(&scenario, Arc::clone(&topology));
            for (granularity, expect) in [
                (Granularity::Switch, Expect::NoOrdering),
                (Granularity::Rule, Expect::Sequence),
            ] {
                instances.push(Instance {
                    problem: problem.clone(),
                    options: SynthesisOptions::default().granularity(granularity),
                    expect,
                });
            }
        }
    }
    instances
}

/// Independent chained churn streams, each on a Small-World graph of its own,
/// solved SAT-guided: the strategy whose learnt constraints an engine carries
/// from one request of a stream to the next.
fn churn(gen: &mut Generator, seed: u64) -> Vec<Instance> {
    let options = SynthesisOptions::default().strategy(SearchStrategy::SatGuided);
    let mut instances = Vec::new();
    for stream in 0..CHURN_STREAMS {
        let mut rng = sub_rng(seed, "churn", stream as u64);
        let graph = gen.small_world(CHURN_SWITCHES, &mut rng);
        let steps = churn_stream(gen, &graph, CHURN_STEPS, &mut rng);
        instances.extend(solvable(&steps, &shared(&graph), &options));
    }
    instances
}

fn churn_stream(
    gen: &mut Generator,
    graph: &NetworkGraph,
    steps: usize,
    rng: &mut StdRng,
) -> Vec<UpdateScenario> {
    gen.scenario(|| loop {
        // `None` means this draw's flow could not be re-routed; draw again.
        if let Some(stream) = churn_scenarios(graph, PropertyKind::Reachability, steps, rng) {
            if stream
                .iter()
                .all(|step| CHURN_UNITS.contains(&step.updating_switches()))
            {
                return stream;
            }
        }
    })
}

/// `SERVE_TENANTS` churn streams, each on a Small-World graph of its own,
/// offered at a fixed rate: Poisson arrivals for 75 % of `seconds`, each from a
/// uniformly drawn tenant sending its next step, then 80 % as many again in
/// bursts.
fn serve(gen: &mut Generator, seed: u64, seconds: f64) -> (Vec<Instance>, Shape) {
    let mut rng = sub_rng(seed, "serve-arrivals", 0);
    let arrivals = arrival_schedule(
        &mut rng,
        SERVE_RATE,
        Duration::from_secs_f64(0.75 * seconds),
        SERVE_TENANTS,
    );
    let drain = arrivals.len() * 4 / 5;
    let mut tenants: Vec<u64> = (0..SERVE_WARMUP)
        .map(|_| rng.gen_range(0..SERVE_TENANTS))
        .collect();
    tenants.extend(arrivals.iter().map(|a| a.tenant));
    tenants.extend((0..drain).map(|_| rng.gen_range(0..SERVE_TENANTS)));

    // Each tenant's stream is exactly as long as the schedule needs.
    let mut streams: Vec<std::vec::IntoIter<Instance>> = (0..SERVE_TENANTS)
        .map(|tenant| {
            let steps = tenants.iter().filter(|t| **t == tenant).count();
            let mut rng = sub_rng(seed, "serve-tenant", tenant);
            let graph = gen.small_world(CHURN_SWITCHES, &mut rng);
            let stream = churn_stream(gen, &graph, steps, &mut rng);
            solvable(&stream, &shared(&graph), &SynthesisOptions::default()).into_iter()
        })
        .collect();
    let instances = tenants
        .iter()
        .map(|tenant| {
            streams[*tenant as usize]
                .next()
                .expect("stream sized from the schedule")
        })
        .collect();
    (
        instances,
        Shape::OpenLoop {
            tenants,
            warmup: SERVE_WARMUP,
            arrivals,
            drain,
        },
    )
}
