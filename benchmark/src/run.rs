//! Set-up and the timed loops: the closed loops (fresh synthesizer, engine
//! streams) and the open loop through the server.

use std::ops::Range;
use std::time::{Duration, Instant};

use netupd_serve::{EngineUse, ServeConfig, TenantId, UpdateServer};
use netupd_synth::{SynthStats, SynthesisError, Synthesizer, UpdateEngine, UpdateSequence};

use crate::calibrate::Calibrator;
use crate::stats::{ms, Arrival, Digest};
use crate::trace::Tracer;
use crate::workloads::{self, Shape, Workload};

pub type Outcome = Result<UpdateSequence, SynthesisError>;

/// The core's work counts, summed over the requests of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub values: [u64; CoreCounts::NAMES.len()],
}

impl CoreCounts {
    /// The first `SCHEDULE` counts describe the search schedule and are the
    /// same whether an engine was warm or cold; the rest measure work done.
    pub const NAMES: [&'static str; 13] = [
        "charged_calls",
        "backtracks",
        "counterexamples_learnt",
        "configurations_pruned",
        "sat_constraints",
        "waits_before",
        "waits_after",
        "updates",
        "cegis_iterations",
        "model_checker_calls",
        "states_relabeled",
        "sat_conflicts",
        "sat_decisions",
    ];
    const SCHEDULE: usize = 8;

    pub fn absorb(&mut self, update: &UpdateSequence) {
        let s: &SynthStats = &update.stats;
        let add = [
            s.charged_calls as u64,
            s.backtracks as u64,
            s.counterexamples_learnt as u64,
            s.configurations_pruned as u64,
            s.sat_constraints as u64,
            s.waits_before_removal as u64,
            s.waits_after_removal as u64,
            update.commands.num_updates() as u64,
            s.cegis_iterations as u64,
            s.model_checker_calls as u64,
            s.states_relabeled as u64,
            s.sat_conflicts,
            s.sat_decisions,
        ];
        for (value, add) in self.values.iter_mut().zip(add) {
            *value += add;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        let index = Self::NAMES
            .iter()
            .position(|n| *n == name)
            .expect("a known count");
        self.values[index]
    }

    /// The `counters_digest`: over every count where each pass repeats the
    /// same work, over the schedule counts where engine reuse depends on
    /// arrival timing (the open loop).
    pub fn digest(&self, schedule_only: bool) -> Digest {
        let mut digest = Digest::new();
        let len = if schedule_only {
            Self::SCHEDULE
        } else {
            Self::NAMES.len()
        };
        self.values[..len].iter().for_each(|v| digest.fold(*v));
        digest
    }
}

/// One timed request. Statistics are taken per `window` (a closed-loop pass,
/// a slice of the open loop's arrivals, a drain burst) and the median over
/// the windows is reported: this machine's speed shifts by 15-30 % for seconds
/// at a time, and a slow window must not move the result.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub instance: usize,
    /// As measured; times `speed` it is the calibrated latency.
    pub latency_ms: f64,
    /// Machine speed when the request ran (see [`Calibrator`]).
    pub speed: f64,
    pub window: usize,
    pub traced: bool,
}

impl Sample {
    pub fn calibrated_ms(&self) -> f64 {
        self.latency_ms * self.speed
    }
}

/// What the loops observed: latencies, the first outcome of every instance
/// (validated after timing) and how often a repeat differed from it.
#[derive(Debug, Default)]
pub struct Recorder {
    pub first: Vec<Option<Outcome>>,
    pub served: Vec<usize>,
    pub samples: Vec<Sample>,
    pub over_limit: usize,
    pub changed_repeats: usize,
    /// Requests the server refused.
    pub shed: usize,
}

impl Recorder {
    fn record(&mut self, sample: Sample, outcome: Outcome, limit: Duration) {
        let instance = sample.instance;
        self.samples.push(sample);
        self.served[instance] += 1;
        self.over_limit += usize::from(sample.latency_ms > ms(limit));
        match &self.first[instance] {
            None => self.first[instance] = Some(outcome),
            Some(first) => self.changed_repeats += usize::from(!same_answer(first, &outcome)),
        }
    }

    /// Forgets the warm-up's timings but keeps its outcomes: a timed repeat
    /// must still equal them.
    fn discard_timings(&mut self) {
        self.samples.clear();
        self.served.iter_mut().for_each(|n| *n = 0);
        self.over_limit = 0;
    }
}

/// Byte-identical commands, or the identical verdict.
fn same_answer(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.commands == b.commands,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Per-request numbers only the open loop has.
#[derive(Debug, Default)]
pub struct OpenStats {
    pub submit_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub service_hit_ms: Vec<f64>,
    pub service_miss_ms: Vec<f64>,
    pub backlog_end: usize,
    pub open_wall: Duration,
    pub engines_evicted: usize,
}

/// The generator calibrates only when the next arrival is at least this far
/// off, so that the kernel never makes a request late.
const CALIBRATION_GAP: Duration = Duration::from_millis(4);
/// The open loop's drain is this many separate bursts.
const DRAIN_BURSTS: usize = 8;

/// A workload that has been set up: generated, built, and warmed up.
pub struct Session {
    pub workload: Workload,
    pub recorder: Recorder,
    pub pass_counts: Vec<CoreCounts>,
    /// Requests and calibrated wall seconds of every throughput window: a
    /// closed-loop pass, or a drain burst of the open loop.
    pub throughput_windows: Vec<(usize, f64)>,
    pub calibrator: Calibrator,
    /// Machine speed over the set-up (mean of its start and its end).
    pub setup_speed: f64,
    pub engine_rebuilds: usize,
    pub open: OpenStats,
    synthesizers: Vec<Synthesizer>,
    server: Option<UpdateServer>,
}

/// Requests of the discarded warm-up pass of a fresh-synthesizer loop. Every
/// request builds its own engine, so only the allocator, the caches and the
/// branch predictors carry over; a prefix of the list warms those.
const FRESH_WARMUP: usize = 16;
/// Streams of the discarded warm-up pass of the engine loop.
const STREAM_WARMUP: usize = 4;

impl Session {
    /// Everything before the first timed request: generation, problem build,
    /// server start, warm-up.
    pub fn set_up(name: &str, seed: u64, seconds: f64) -> Option<Session> {
        let calibrator = Calibrator::new();
        let workload = workloads::build(name, seed, seconds)?;
        let len = workload.instances.len();
        let mut session = Session {
            recorder: Recorder {
                first: (0..len).map(|_| None).collect(),
                served: vec![0; len],
                ..Recorder::default()
            },
            pass_counts: Vec::new(),
            throughput_windows: Vec::new(),
            setup_speed: calibrator.speed,
            calibrator,
            engine_rebuilds: 0,
            open: OpenStats::default(),
            synthesizers: Vec::new(),
            server: None,
            workload,
        };
        match session.workload.shape.clone() {
            Shape::Fresh => {
                session.synthesizers = session
                    .workload
                    .instances
                    .iter()
                    .map(|i| Synthesizer::new(i.problem.clone()).with_options(i.options.clone()))
                    .collect();
                session.closed_pass(0..len.min(FRESH_WARMUP), 0, None);
            }
            Shape::EngineStreams { steps } => {
                session.closed_pass(0..len.min(STREAM_WARMUP * steps), 0, None)
            }
            Shape::OpenLoop {
                warmup, tenants, ..
            } => {
                // One worker beside the one generator thread (two cores);
                // 4 x 64 resident engines for 512 tenants, so about half the
                // requests cold-start; queue limits no arrival can reach.
                let config = ServeConfig::default()
                    .worker_threads(1)
                    .shards(4)
                    .engines_per_shard(64)
                    .tenant_queue_limit(len)
                    .global_queue_limit(len);
                session.server = Some(UpdateServer::start(config));
                session.burst(0..warmup, 0, &tenants);
            }
        }
        session.recorder.discard_timings();
        session.pass_counts.clear();
        session.throughput_windows.clear();
        session.engine_rebuilds = 0;
        session.setup_speed = (session.setup_speed + session.calibrator.sample()) / 2.0;
        Some(session)
    }

    /// Requests per calibrated second of every throughput window.
    pub fn window_rates(&self) -> Vec<f64> {
        self.throughput_windows
            .iter()
            .map(|(requests, wall_s)| *requests as f64 / wall_s)
            .collect()
    }

    /// Measures for `seconds`. With a tracer, every other request records
    /// spans (in a closed loop the other half on the next pass, so two passes
    /// time every instance both ways).
    pub fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Duration {
        let start = Instant::now();
        match self.workload.shape.clone() {
            Shape::Fresh | Shape::EngineStreams { .. } => {
                // Whole passes, as many as bring the total closest to
                // `seconds`; at least one (two when tracing: one each way).
                let mut pass = 0;
                let mut last = Duration::ZERO;
                while (start.elapsed() + last / 2).as_secs_f64() < seconds
                    || pass < 1 + usize::from(tracer.is_some())
                {
                    let pass_start = Instant::now();
                    let len = self.workload.instances.len();
                    self.closed_pass(0..len, pass, tracer.as_deref_mut());
                    last = pass_start.elapsed();
                    pass += 1;
                }
                start.elapsed()
            }
            Shape::OpenLoop {
                tenants,
                warmup,
                arrivals,
                drain,
            } => {
                self.open_loop(warmup, &tenants, &arrivals, tracer);
                self.open.open_wall = start.elapsed();
                // Capacity: bursts, during which the server is never idle.
                let mut first = warmup + arrivals.len();
                for burst in 0..DRAIN_BURSTS {
                    let len = drain / DRAIN_BURSTS;
                    self.burst(first..first + len, burst, &tenants);
                    first += len;
                }
                let snapshot = self
                    .server
                    .take()
                    .expect("set_up started the server")
                    .shutdown();
                self.open.engines_evicted = snapshot.engines_evicted;
                start.elapsed()
            }
        }
    }

    /// One closed-loop pass over `range`, one request after another.
    fn closed_pass(&mut self, range: Range<usize>, pass: usize, mut trace: Option<&mut Tracer>) {
        let pass_start = Instant::now();
        let calibrating = self.calibrator.spent;
        let (mut measured, mut calibrated) = (Duration::ZERO, Duration::ZERO);
        let requests = range.len();
        let mut counts = CoreCounts::default();
        let limit = self.workload.limit;
        let steps = match self.workload.shape {
            Shape::EngineStreams { steps } => steps,
            _ => 0,
        };
        let mut engine: Option<UpdateEngine> = None;
        for index in range {
            let instance = &self.workload.instances[index];
            let request = index as u32;
            let speed = self.calibrator.tick();
            let mut tracer = trace.as_deref_mut().filter(|_| (index + pass) % 2 == 1);
            let start = Instant::now();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("request", None, request));
            let outcome = if steps == 0 {
                let synthesizer = &self.synthesizers[index];
                match tracer.as_deref_mut() {
                    Some(t) => t.time("core.synthesize", span, request, || {
                        synthesizer.synthesize()
                    }),
                    None => synthesizer.synthesize(),
                }
            } else {
                if index % steps == 0 {
                    // The stream's first request pays for its engine.
                    self.engine_rebuilds += engine.as_ref().map_or(0, UpdateEngine::rebuilds);
                    let build =
                        || UpdateEngine::for_problem(&instance.problem, instance.options.clone());
                    engine = Some(match tracer.as_deref_mut() {
                        Some(t) => t.time("core.engine_build", span, request, build),
                        None => build(),
                    });
                }
                let engine = engine.as_mut().expect("built at the stream's first step");
                match tracer.as_deref_mut() {
                    Some(t) => t.time("core.engine_solve", span, request, || {
                        engine.solve(&instance.problem)
                    }),
                    None => engine.solve(&instance.problem),
                }
            };
            let latency = start.elapsed();
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.close(span);
            }
            if let Ok(update) = &outcome {
                counts.absorb(update);
            }
            measured += latency;
            calibrated += latency.mul_f64(speed);
            let sample = Sample {
                instance: index,
                latency_ms: ms(latency),
                speed,
                window: pass,
                traced: tracer.is_some(),
            };
            self.recorder.record(sample, outcome, limit);
        }
        self.engine_rebuilds += engine.as_ref().map_or(0, UpdateEngine::rebuilds);
        self.pass_counts.push(counts);
        // The pass's wall time, without the calibration pauses, at the
        // latency-weighted speed of its requests.
        let wall = pass_start.elapsed() - (self.calibrator.spent - calibrating);
        self.throughput_windows.push((
            requests,
            wall.as_secs_f64() * calibrated.as_secs_f64() / measured.as_secs_f64(),
        ));
    }

    /// Submits `range` at once and waits for every answer. A request's latency
    /// here is its place in the burst, so no time limit applies.
    fn burst(&mut self, range: Range<usize>, window: usize, tenants: &[u64]) {
        let speed_before = self.calibrator.sample();
        let burst_start = Instant::now();
        let requests = range.len();
        let server = self.server.as_ref().expect("set_up started the server");
        let handles: Vec<_> = range
            .clone()
            .map(|index| {
                server.submit(
                    TenantId(tenants[index]),
                    self.workload.instances[index].problem.clone(),
                )
            })
            .collect();
        let mut counts = CoreCounts::default();
        for (index, handle) in range.zip(handles) {
            let Ok(handle) = handle else {
                self.recorder.shed += 1;
                continue;
            };
            let outcome = handle.wait();
            if let Ok(update) = &outcome.result {
                counts.absorb(update);
            }
            let latency = outcome.metrics.queue_wait + outcome.metrics.service_time;
            let sample = Sample {
                instance: index,
                latency_ms: ms(latency),
                speed: speed_before,
                window,
                traced: false,
            };
            self.recorder.record(sample, outcome.result, Duration::MAX);
        }
        let wall = burst_start.elapsed();
        let speed = (speed_before + self.calibrator.sample()) / 2.0;
        self.pass_counts.push(counts);
        self.throughput_windows
            .push((requests, wall.as_secs_f64() * speed));
    }

    /// The open loop: each request is submitted when it is due, whatever the
    /// server is doing, and timed from the instant it was due.
    fn open_loop(
        &mut self,
        first: usize,
        tenants: &[u64],
        arrivals: &[Arrival],
        mut tracer: Option<&mut Tracer>,
    ) {
        struct Pending {
            speed: f64,
            due: Instant,
            submit_start: Instant,
            submit_end: Instant,
            handle: Option<netupd_serve::ResponseHandle>,
        }
        let server = self.server.as_ref().expect("set_up started the server");
        let windows = ArrivalWindows::covering(arrivals);
        let start = Instant::now();
        let mut pending = Vec::with_capacity(arrivals.len());
        for (k, arrival) in arrivals.iter().enumerate() {
            // Everything but the submit call happens before the request is due.
            let tenant = TenantId(tenants[first + k]);
            let problem = self.workload.instances[first + k].problem.clone();
            let due = start + arrival.due;
            if due.saturating_duration_since(Instant::now()) >= CALIBRATION_GAP {
                self.calibrator.tick();
            }
            wait_until(due);
            let submit_start = Instant::now();
            let handle = server.submit(tenant, problem).ok();
            pending.push(Pending {
                speed: self.calibrator.speed,
                due,
                submit_start,
                submit_end: Instant::now(),
                handle,
            });
        }
        let snapshot = server.metrics();
        self.open.backlog_end = snapshot.submitted - snapshot.completed;

        let mut counts = CoreCounts::default();
        for (k, p) in pending.into_iter().enumerate() {
            let Some(handle) = p.handle else {
                self.recorder.shed += 1;
                continue;
            };
            let outcome = handle.wait();
            let late = p.submit_start - p.due;
            let metrics = &outcome.metrics;
            self.open.late_us.push(late.as_secs_f64() * 1e6);
            self.open
                .submit_us
                .push((p.submit_end - p.submit_start).as_secs_f64() * 1e6);
            self.open.queue_wait_ms.push(ms(metrics.queue_wait));
            match metrics.engine {
                EngineUse::Hit => self.open.service_hit_ms.push(ms(metrics.service_time)),
                EngineUse::Miss => self.open.service_miss_ms.push(ms(metrics.service_time)),
            }
            let traced = match tracer.as_deref_mut() {
                Some(t) if k % 2 == 1 => {
                    // The server's per-request metrics are durations; the
                    // instants are rebuilt from when the submit call began.
                    let request = (first + k) as u32;
                    let queued = p.submit_start;
                    let served = queued + metrics.queue_wait;
                    let done = served + metrics.service_time;
                    let root = t.record("request", None, request, p.due, done);
                    t.record(
                        "serve.submit",
                        Some(root),
                        request,
                        p.submit_start,
                        p.submit_end,
                    );
                    t.record("serve.queue_wait", Some(root), request, queued, served);
                    t.record("serve.service", Some(root), request, served, done);
                    true
                }
                _ => false,
            };
            if let Ok(update) = &outcome.result {
                counts.absorb(update);
            }
            let latency = late + metrics.queue_wait + metrics.service_time;
            let sample = Sample {
                instance: first + k,
                latency_ms: ms(latency),
                speed: p.speed,
                window: windows.of(arrivals[k].due),
                traced,
            };
            self.recorder
                .record(sample, outcome.result, self.workload.limit);
        }
        self.pass_counts.push(counts);
    }
}

/// Equal slices of about two seconds of the arrival schedule.
struct ArrivalWindows {
    length: f64,
    count: usize,
}

impl ArrivalWindows {
    fn covering(arrivals: &[Arrival]) -> Self {
        let span = arrivals.last().map_or(0.0, |a| a.due.as_secs_f64());
        let count = ((span / 2.0).round() as usize).max(1);
        ArrivalWindows {
            length: span / count as f64,
            count,
        }
    }

    fn of(&self, due: Duration) -> usize {
        ((due.as_secs_f64() / self.length) as usize).min(self.count - 1)
    }
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes up
/// tens of microseconds late, which would be charged to the server.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
